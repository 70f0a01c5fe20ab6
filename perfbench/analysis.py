"""Per-layer metrics and the nesting check, derived from a traced round.

A span's self time is its duration minus the durations of its direct
children. "Per step" figures count only spans inside a ``train_step``
span and divide by the number of train steps. Times are scaled to the
reference core speed with the round's ``scale`` (see ``SpeedProbe``).
"""

from __future__ import annotations

import numpy as np

from perfbench.hooks import TRACED_LAYERS, TRACED_OPS

# name -> (unit, better)
PER_LAYER = {
    "data.build_s": ("s", "lower"),
    "data.train_batch_ms": ("ms/batch", "lower"),
    "data.replayed_batches": ("count", "lower"),
    "rng.uniform.ms": ("ms/step", "lower"),
    "rng.split.ms": ("ms/step", "lower"),
    "rng.calls": ("count", "lower"),
    "rng.setup_s": ("s", "lower"),
    "tensor.forward_ms": ("ms/step", "lower"),
    "tensor.backward_ms": ("ms/step", "lower"),
    "tensor.tape_nodes": ("count", "lower"),
    **{f"tensor.{op}.{m}": (u, "lower") for op in TRACED_OPS
       for m, u in (("fwd_ms", "ms/step"), ("bwd_ms", "ms/step"), ("calls", "count"))},
    "tensor.conv2d.gflop_per_s": ("GFLOP/s", "higher"),
    "tensor.matmul.gflop_per_s": ("GFLOP/s", "higher"),
    **{f"layers.{name}.fwd_ms": ("ms/step", "lower") for name in TRACED_LAYERS},
    "models.loss_ms": ("ms/step", "lower"),
    "models.train_metrics_ms": ("ms/step", "lower"),
    "models.eval_metrics_ms": ("ms/example", "lower"),
    "matchers.hungarian.ms": ("ms/step", "lower"),
    "matchers.hungarian.calls": ("count", "lower"),
    "matchers.calls_per_image": ("ratio", "lower"),
    "train.step_ms.p50": ("ms", "lower"),
    "train.step_ms.p95": ("ms", "lower"),
    "train.step_self_ms": ("ms/step", "lower"),
    "train.eval_pass_ms": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.save_bytes": ("bytes", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.resume_ms": ("ms", "lower"),
    "trace.train_examples_per_cpu_s": ("examples/cpu-s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
}


def _enclosing(name: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Index of the nearest enclosing span named ``target`` (or -1)."""
    out = [-1] * len(name)
    for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
        if nid == target:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return np.array(out, dtype=np.int64)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def check_nesting(names: list, name: np.ndarray, parent: np.ndarray,
                  start: np.ndarray, end: np.ndarray) -> list[str]:
    """Spans must nest: children inside their parent, siblings disjoint,
    and the self times in each train step add up to its duration."""
    problems = []
    dur = end - start
    if (dur < 0).any():
        problems.append(f"{int((dur < 0).sum())} spans end before they start")
    kids = np.nonzero(parent >= 0)[0]
    p = parent[kids]
    outside = (start[kids] < start[p]) | (end[kids] > end[p])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans lie outside their parent")
    order = kids[np.lexsort((start[kids], parent[kids]))]
    same = parent[order[1:]] == parent[order[:-1]]
    overlap = same & (start[order[1:]] < end[order[:-1]])
    if overlap.any():
        problems.append(f"{int(overlap.sum())} sibling spans overlap")
    if "train.train_step" in names:
        ts = names.index("train.train_step")
        step_of = _enclosing(name, parent, ts)
        inside = step_of >= 0
        sums = np.bincount(step_of[inside], weights=self_times(parent, dur)[inside],
                           minlength=len(dur))
        steps = np.nonzero(name == ts)[0]
        gap = np.abs(sums[steps] - dur[steps])
        if (gap > 1e-9 + 1e-9 * dur[steps]).any():
            problems.append(f"self times miss their step's duration by up to "
                            f"{gap.max():.3g} s")
    return problems


def layer_metrics(z, hosts: int, eval_examples: int, scale: float) -> dict:
    """Every PER_LAYER metric except the ``trace.*`` run-level ones."""
    names = [str(n) for n in z["names"]]
    ids = {n: i for i, n in enumerate(names)}
    name, parent = z["name"].astype(np.int64), z["parent"].astype(np.int64)
    start, end = z["start"], z["end"]
    dur = end - start
    self_t = self_times(parent, dur)

    def sel(span_name):
        return name == ids.get(span_name, -1)

    in_train = _enclosing(name, parent, ids.get("train.train_step", -1)) >= 0
    in_eval = _enclosing(name, parent, ids.get("train.eval_step", -1)) >= 0
    step_spans = np.nonzero(sel("train.train_step"))[0]
    steps = len(step_spans)
    first_step = start[step_spans].min()
    ms = 1e3 * scale

    def per_step(mask, values=dur):
        return float(ms * values[mask & in_train].sum() / steps)

    def count_per_step(mask):
        return float((mask & in_train).sum() / steps)

    def mean_ms(mask):
        return float(ms * dur[mask].mean()) if mask.any() else 0.0

    out = {}
    batches = sel("data.train_batch")
    out["data.build_s"] = float(
        scale * dur[sel("data.build_dataset") & (start < first_step)].sum())
    out["data.train_batch_ms"] = mean_ms(batches)
    out["data.replayed_batches"] = float(batches.sum() - steps * hosts)

    uniform, split = sel("rng.uniform"), sel("rng.split")
    rng_any = uniform | split | sel("rng.normal")
    out["rng.uniform.ms"] = per_step(uniform, self_t)
    out["rng.split.ms"] = per_step(split, self_t)
    out["rng.calls"] = count_per_step(uniform | split)
    out["rng.setup_s"] = float(scale * self_t[rng_any & (start < first_step)].sum())

    backward = per_step(sel("tensor.backward"))
    out["tensor.forward_ms"] = per_step(sel("tensor.value_and_grad")) - backward
    out["tensor.backward_ms"] = backward
    out["tensor.tape_nodes"] = float(z["tape"][step_spans].sum() / steps)
    for op in TRACED_OPS:
        fwd, bwd = sel(f"tensor.{op}"), sel(f"tensor.{op}.bwd")
        out[f"tensor.{op}.fwd_ms"] = per_step(fwd, self_t)
        out[f"tensor.{op}.bwd_ms"] = per_step(bwd, self_t)
        out[f"tensor.{op}.calls"] = count_per_step(fwd)
    for op in ("conv2d", "matmul"):
        spans = (sel(f"tensor.{op}") | sel(f"tensor.{op}.bwd")) & in_train
        secs = scale * self_t[spans].sum()
        out[f"tensor.{op}.gflop_per_s"] = \
            float(z["work"][spans].sum() / secs / 1e9) if secs > 0 else 0.0
    for layer in TRACED_LAYERS:
        out[f"layers.{layer}.fwd_ms"] = per_step(sel(f"layers.{layer}"))

    metrics_fn = sel("models.metrics")
    out["models.loss_ms"] = per_step(sel("models.loss"))
    out["models.train_metrics_ms"] = per_step(metrics_fn)
    out["models.eval_metrics_ms"] = \
        float(ms * dur[metrics_fn & in_eval].sum() / eval_examples)

    hungarian = sel("matchers.hungarian")
    out["matchers.hungarian.ms"] = per_step(hungarian)
    out["matchers.hungarian.calls"] = count_per_step(hungarian)
    images = int(z["object_images"])
    out["matchers.calls_per_image"] = \
        float((hungarian & in_train).sum() / images) if images else 0.0

    step_ms = ms * dur[step_spans]
    out["train.step_ms.p50"] = float(np.percentile(step_ms, 50))
    out["train.step_ms.p95"] = float(np.percentile(step_ms, 95))
    is_step_child = np.isin(parent, step_spans)
    children = (sel("tensor.value_and_grad") | metrics_fn) & is_step_child
    out["train.step_self_ms"] = float(ms * (dur[step_spans].sum()
                                            - dur[children].sum()) / steps)
    out["train.eval_pass_ms"] = _eval_pass_ms(names, name, parent, start, end) * scale

    saves, loads = sel("checkpoint.save"), sel("checkpoint.load")
    out["checkpoint.save_ms"] = mean_ms(saves)
    out["checkpoint.save_bytes"] = \
        float(z["save_bytes"].mean()) if len(z["save_bytes"]) else 0.0
    out["checkpoint.load_ms"] = mean_ms(loads)
    legs = np.nonzero(sel("train.run_trainer"))[0]
    resume = [start[step_spans][start[step_spans] > start[leg]].min() - start[leg]
              for leg in legs[1:]]
    out["checkpoint.resume_ms"] = float(ms * np.mean(resume)) if resume else 0.0
    return out


def _eval_pass_ms(names, name, parent, start, end) -> float:
    """Mean time from the first to the last eval_step of one eval pass.

    A pass is a run of eval_step spans among run_trainer's direct
    children that no other traced call interrupts.
    """
    if "train.eval_step" not in names:
        return 0.0
    ev = names.index("train.eval_step")
    top = np.nonzero(np.isin(parent, np.nonzero(
        name == names.index("train.run_trainer"))[0]))[0]
    passes, first = [], None
    for i in top.tolist() + [-1]:
        if i >= 0 and name[i] == ev:
            first = i if first is None else first
            last = i
        elif first is not None:
            passes.append(end[last] - start[first])
            first = None
    return float(1e3 * np.mean(passes)) if passes else 0.0
