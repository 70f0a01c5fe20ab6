"""Fixed-seed byte-identity oracle for refactors that must not change results.

Trains eight short runs and prints the sha256 prefix of every file each
run writes (``metrics.jsonl`` and each ``ckpt_<step>.bin``):

- the six registered baselines at seed 3: 32 train and 20 eval examples,
  batch 8, eval every 2, 4 steps, Adam at lr 1e-3;
- ViT on 2 hosts x 2 devices with dropout 0.1, ``sgd_momentum`` at lr
  1e-2, ``grad_clip`` 0.5, batch 4 and 28 eval examples (padded eval);
- the same 2 x 2 ViT run with Adam.

A change that keeps results byte for byte prints the same lines as its
parent. The script imports only ``deskml`` from the ``src/`` next to it,
so a copy placed in another checkout's ``tools/`` hashes that checkout:

    python tools/fixed_seed_hashes.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from deskml.baselines import BASELINES  # noqa: E402
from deskml.config import Config  # noqa: E402
from deskml.train import run_trainer  # noqa: E402

SEED = 3


def runs() -> list[tuple[str, str, dict]]:
    """(label, trainer kind, config) of every run, in print order."""
    out = []
    for name, (_, defaults, kind) in BASELINES.items():
        out.append((name, kind, {
            "model": {"name": name},
            "dataset": {**defaults["dataset"], "num_train_examples": 32,
                        "num_eval_examples": 20},
            "batch_size": 8, "eval_every": 2, "total_steps": 4,
            "optimizer": {"kind": "adam", "lr": 1e-3},
        }))
    for opt in ({"kind": "sgd_momentum", "lr": 1e-2, "grad_clip": 0.5},
                {"kind": "adam", "lr": 1e-2, "grad_clip": 0.5}):
        out.append((f"vit_2x2_{opt['kind']}", "classification", {
            "model": {"name": "vit_classification", "dropout": 0.1},
            "dataset": {"name": "blobs_classification", "input_shape": [8, 8, 1],
                        "num_train_examples": 32, "num_eval_examples": 28},
            "topology": {"host_count": 2, "devices_per_host": 2},
            "batch_size": 4, "eval_every": 2, "total_steps": 4,
            "optimizer": opt,
        }))
    return out


def sha256_prefix(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:12]


def written_files(workdir: str) -> list[str]:
    """metrics.jsonl, then the checkpoints in step order."""
    ckpts = sorted((f for f in os.listdir(workdir)
                    if f.startswith("ckpt_") and f.endswith(".bin")),
                   key=lambda f: int(f[5:-4]))
    return ["metrics.jsonl"] + ckpts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="keep the runs here (default: a "
                        "temporary directory that is removed afterwards)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = args.workdir or tmp
        for label, kind, values in runs():
            wd = os.path.join(root, label)
            if os.path.exists(wd):
                raise SystemExit(f"{wd} exists; give an empty --workdir")
            run_trainer(kind, Config(values), wd, seed=SEED)
            for fname in written_files(wd):
                print(f"{label} {fname} {sha256_prefix(os.path.join(wd, fname))}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
