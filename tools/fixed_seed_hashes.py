"""Fixed-seed byte-identity oracle for refactors that must not change results.

Trains twelve short runs and prints the sha256 prefix of every file each
run writes (``metrics.jsonl`` and each ``ckpt_<step>.bin``):

- the six registered baselines at seed 3: 32 train and 20 eval examples,
  batch 8, eval every 2, 4 steps, Adam at lr 1e-3;
- ViT on 2 hosts x 2 devices with dropout 0.1, ``sgd_momentum`` at lr
  1e-2, ``grad_clip`` 0.5, batch 4 and 28 eval examples (padded eval);
- the same 2 x 2 ViT run with Adam;
- that Adam run again with ``"model": {"dtype": "f64"}``, whose lines a
  change to float32 arithmetic alone leaves as they are;
- the same 2 x 2 ViT run with plain ``sgd``, and with ``sgd_momentum``,
  both without ``grad_clip``;
- DETR on 2 hosts x 2 devices with ``model.num_slots`` 10 and
  ``dataset.max_objects`` 9, batch 4, 32 train and 28 eval examples
  (padded eval), 4 steps, eval every 2, Adam at lr 1e-3: images with 8
  or more objects, whose box sums numpy adds pairwise.

A change that keeps results byte for byte prints the same lines as its
parent. The script imports only ``deskml`` from the ``src/`` next to it,
so a copy placed in another checkout's ``tools/`` hashes that checkout:

    python tools/fixed_seed_hashes.py [--workdir DIR [--compare PARENT_DIR]]

``tools/fixed_seed_hashes.txt`` pins the lines, under the environment
they were taken in, and Tier-1 checks them (``tests/test_pinned_hashes.py``).

A change that moves results reports by how much: with ``--compare``,
given the ``--workdir`` of a run of the parent checkout, it then prints
one drift line per run, the largest relative difference of any
``metrics.jsonl`` record and of any checkpoint array both sides hold
from the parent's, each with where it is. The difference of a record is
``|new - old| / |old|``; that of an array is ``max |new - old| / max
|old|``, so it is measured against the array's own magnitude. The line
then counts the checkpoint arrays that only one side holds (a parameter
added or dropped) and names the first. A run that the parent's workdir
lacks (one added since) reads ``inf``, absent in the parent.

While each run trains, every ``deskml.matchers.match`` call is recorded,
and a run that makes any (DETR) leaves its assignments in
``<label>.assignments.json`` beside its run directory. Its drift line
then also counts the calls whose assignment differs from the parent's
and names the first, since one flipped assignment changes a DETR run by
more than any rounding does. Calls are compared by position, so when
both sides made the same calls in another order (the hosts' eval
batches interleaved, say), the line adds "same calls, reordered".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import numpy as np  # noqa: E402

from deskml import matchers  # noqa: E402
from deskml.baselines import BASELINES  # noqa: E402
from deskml.checkpoint import ARRAY_GROUPS, load_checkpoint  # noqa: E402
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
    vit = {"name": "vit_classification", "dropout": 0.1}
    clip = {"grad_clip": 0.5}  # key order is kept: the checkpoints record it
    for label, kind, model, rest in (
            ("vit_2x2_sgd_momentum", "sgd_momentum", vit, clip),
            ("vit_2x2_adam", "adam", vit, clip),
            ("vit_2x2_adam_f64", "adam", {**vit, "dtype": "f64"}, clip),
            ("vit_2x2_sgd", "sgd", vit, {}),
            ("vit_2x2_sgd_momentum_noclip", "sgd_momentum", vit, {})):
        out.append((label, "classification", {
            "model": model,
            "dataset": {"name": "blobs_classification", "input_shape": [8, 8, 1],
                        "num_train_examples": 32, "num_eval_examples": 28},
            "topology": {"host_count": 2, "devices_per_host": 2},
            "batch_size": 4, "eval_every": 2, "total_steps": 4,
            "optimizer": {"kind": kind, "lr": 1e-2, **rest},
        }))
    out.append(("detr_2x2_max9", "detection", {
        "model": {"name": "detr_detection", "num_slots": 10},
        "dataset": {"name": "boxes_detection", "num_train_examples": 32,
                    "num_eval_examples": 28, "max_objects": 9},
        "topology": {"host_count": 2, "devices_per_host": 2},
        "batch_size": 4, "eval_every": 2, "total_steps": 4,
        "optimizer": {"kind": "adam", "lr": 1e-3},
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


def relative_drift(new, old) -> float:
    """``max |new - old| / max |old|``: 0 when equal, inf when ``old`` is
    all zeros and ``new`` is not, or when the shapes differ."""
    new, old = np.asarray(new, np.float64), np.asarray(old, np.float64)
    if new.shape != old.shape:
        return math.inf
    diff = float(np.abs(new - old).max(initial=0.0))
    if diff == 0.0:
        return 0.0
    scale = float(np.abs(old).max(initial=0.0))
    return diff / scale if scale > 0.0 else math.inf


def _records(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def metrics_drift(wd: str, parent_wd: str) -> tuple[float, str]:
    """The largest relative difference of a ``metrics.jsonl`` record, and
    the record's step and name."""
    new = _records(os.path.join(wd, "metrics.jsonl"))
    old = _records(os.path.join(parent_wd, "metrics.jsonl"))
    if len(new) != len(old):
        return math.inf, f"{len(new)} records, the parent has {len(old)}"
    worst, where = 0.0, "-"
    for a, b in zip(new, old):
        if (a["step"], a["name"]) != (b["step"], b["name"]):
            return math.inf, (f"step {a['step']} {a['name']} where the parent "
                              f"has step {b['step']} {b['name']}")
        d = relative_drift(a["value"], b["value"])
        if d > worst:
            worst, where = d, f"step {a['step']} {a['name']}"
    return worst, where


def checkpoint_drift(wd: str, parent_wd: str) -> tuple[float, str, list[str]]:
    """The largest relative difference of an array that both sides'
    checkpoints hold, with the file, group and name of that array; and
    the arrays that only one side's checkpoint holds."""
    worst, where, one_sided = 0.0, "-", []
    for fname in written_files(parent_wd)[1:]:
        if not os.path.exists(os.path.join(wd, fname)):
            return math.inf, f"{fname} is absent", []
        new = load_checkpoint(os.path.join(wd, fname))
        old = load_checkpoint(os.path.join(parent_wd, fname))
        for group in ARRAY_GROUPS:
            a, b = getattr(new, group), getattr(old, group)
            for name in sorted(a.keys() | b.keys()):
                if name not in a or name not in b:
                    side = "parent" if name in b else "run"
                    one_sided.append(f"{fname} {group} {name} in the {side} only")
                    continue
                d = relative_drift(a[name].data, b[name].data)
                if d > worst:
                    worst, where = d, f"{fname} {group} {name}"
    return worst, where, one_sided


def assignments_path(wd: str) -> str:
    return os.path.normpath(wd) + ".assignments.json"


@contextlib.contextmanager
def recorded_assignments(path: str):
    """Record the ``row_to_col`` of every ``matchers.match`` call made
    inside, and write them to ``path`` as a JSON list if there are any."""
    match, calls = matchers.match, []

    def recorded(*args, **kwargs):
        asg = match(*args, **kwargs)
        calls.append(list(asg.row_to_col))
        return asg

    matchers.match = recorded
    try:
        yield
    finally:
        matchers.match = match
    if calls:
        with open(path, "w") as f:
            json.dump(calls, f)


def _assignments(wd: str) -> list:
    path = assignments_path(wd)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return json.load(f)


def assignment_flips(wd: str, parent_wd: str) -> tuple[int, int, str]:
    """How many of the run's recorded assignments differ from the
    parent's (a call only one side made counts), how many the run made,
    and the first call that differs, counted from 1."""
    new, old = _assignments(wd), _assignments(parent_wd)
    differ = [i for i in range(max(len(new), len(old)))
              if new[i:i + 1] != old[i:i + 1]]
    return len(differ), len(new), f"call {differ[0] + 1}" if differ else "-"


def same_calls_reordered(wd: str, parent_wd: str) -> bool:
    """Whether the run made the parent's recorded calls, each with the same
    assignment, but in another order."""
    new, old = _assignments(wd), _assignments(parent_wd)
    return new != old and sorted(new) == sorted(old)


def drift_line(label: str, wd: str, parent_wd: str) -> str:
    if not os.path.exists(os.path.join(parent_wd, "metrics.jsonl")):
        return f"drift {label} inf (the run is absent in the parent)"
    m, m_at = metrics_drift(wd, parent_wd)
    c, c_at, one_sided = checkpoint_drift(wd, parent_wd)
    line = (f"drift {label} metrics.jsonl {m:.2e} ({m_at}) "
            f"checkpoints {c:.2e} ({c_at}) "
            f"one-sided {len(one_sided)} ({one_sided[0] if one_sided else '-'})")
    flips, calls, first = assignment_flips(wd, parent_wd)
    if calls or flips:
        line += f" assignments {flips} of {calls} differ ({first})"
        if same_calls_reordered(wd, parent_wd):
            line += ", same calls, reordered"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="keep the runs here (default: a "
                        "temporary directory that is removed afterwards)")
    parser.add_argument("--compare", metavar="PARENT_WORKDIR",
                        help="then print each run's drift from the runs "
                        "in this --workdir of the parent checkout")
    args = parser.parse_args(argv)
    if args.compare and not args.workdir:
        parser.error("--compare needs --workdir")
    with tempfile.TemporaryDirectory() as tmp:
        root = args.workdir or tmp
        for label, kind, values in runs():
            wd = os.path.join(root, label)
            if os.path.exists(wd):
                raise SystemExit(f"{wd} exists; give an empty --workdir")
            with recorded_assignments(assignments_path(wd)):
                run_trainer(kind, Config(values), wd, seed=SEED)
            for fname in written_files(wd):
                print(f"{label} {fname} {sha256_prefix(os.path.join(wd, fname))}",
                      flush=True)
        if args.compare:
            for label, _, _ in runs():
                print(drift_line(label, os.path.join(root, label),
                                 os.path.join(args.compare, label)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
