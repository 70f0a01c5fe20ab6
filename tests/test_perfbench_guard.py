"""What the frozen benchmark in ``perfbench/`` reaches into, kept working.

``perfbench`` wraps deskml's functions by name and counts examples from
the batches ``train_step`` and ``eval_step`` receive, so a change under
``src/`` can break a benchmark round without failing any other test.
This runs every benchmark workload, shrunk to two steps, under the
benchmark's own ``Tracer`` and ``StepTimer``.
"""

import json
import os
import subprocess
import sys

# A fresh interpreter, since the hooks replace module attributes for good
GUARD = """
import copy, json, tempfile
from perfbench import hooks
from perfbench.workloads import WORKLOADS
from deskml import layers, rng, tensor, train
from deskml.config import Config

missing = [f"{module.__name__}.{name}"
           for module, names in ((tensor, hooks.TRACED_OPS),
                                 (layers, hooks.TRACED_LAYERS),
                                 (rng, hooks.TRACED_RNG))
           for name in names if not hasattr(module, name)]
runs = {}
if not missing:
    tracer = hooks.Tracer()
    tracer.install()
    timer = hooks.StepTimer(hooks.SpeedProbe())
    timer.install()
    for name, wl in WORKLOADS.items():
        config = copy.deepcopy(wl.config)
        config.update(total_steps=2, eval_every=2)
        config["dataset"].update(num_train_examples=64, num_eval_examples=40)
        spans, n_train, n_eval = len(tracer.name), len(timer.train_examples), len(timer.eval_examples)
        with tempfile.TemporaryDirectory() as workdir:
            train.run_trainer(wl.kind, Config(config), workdir, seed=1)
        runs[name] = {
            "spans": sorted({tracer.names[i] for i in tracer.name[spans:]}),
            "train_examples": timer.train_examples[n_train:],
            "eval_examples": timer.eval_examples[n_eval:],
        }
print(json.dumps({"missing": missing, "runs": runs}))
"""

# spans each workload must record, beyond the train step and the save;
# ViT embeds its patches with a dense layer, not a conv
SPANS = {
    "unet-seg": {"tensor.conv2d", "rng.uniform"},
    "detr-set": {"tensor.conv2d", "layers.multi_head_attention",
                 "matchers.hungarian", "rng.uniform"},
    "vit-dp": {"layers.multi_head_attention", "layers.dropout", "rng.uniform"},
}


def test_benchmark_hooks_and_workloads_still_run(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, TMPDIR=str(tmp_path), OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    proc = subprocess.run([sys.executable, "-c", GUARD], env=env, cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    assert set(out["runs"]) == set(SPANS)
    for name, run in out["runs"].items():
        want = SPANS[name] | {"train.train_step", "checkpoint.save"}
        assert want <= set(run["spans"]), (name, want - set(run["spans"]))
        assert run["train_examples"] == [32, 32], name
        # one eval pass over 40 examples, the last batch padded
        assert sum(run["eval_examples"]) == 40, (name, run["eval_examples"])
