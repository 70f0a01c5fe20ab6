"""One benchmark round: a fresh process that trains one workload.

``run.py`` starts it as

    python3 perfbench/workload.py --workload NAME --seed N --workdir DIR --trace 0|1

with ``src/`` and the repository root on ``PYTHONPATH`` and BLAS pinned
to one thread. It calls ``deskml.train.run_trainer`` (twice for a
workload with a resume leg) and writes ``DIR/result.json``; a traced
round also writes its spans to ``DIR/trace.npz``.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import json
import os
import shutil


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS this process loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM).

    Unlike ``ru_maxrss``, it leaves out the memory of the parent image
    that the process replaced at exec.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def copy_prefix(src: str, dst: str, step: int):
    """Make ``dst`` hold what the run in ``src`` had written by ``step``."""
    os.makedirs(dst)
    for fname in os.listdir(src):
        if fname.startswith("ckpt_") and int(fname[5:-4]) <= step:
            shutil.copyfile(os.path.join(src, fname), os.path.join(dst, fname))
    with open(os.path.join(src, "metrics.jsonl")) as f:
        lines = [line for line in f if json.loads(line)["step"] <= step]
    with open(os.path.join(dst, "metrics.jsonl"), "w") as f:
        f.writelines(lines)


def save_trace(tracer, path: str):
    import numpy as np

    arrays = {k: np.frombuffer(v, dtype=v.typecode) for k, v in tracer.arrays().items()}
    m = len(tracer.matches)
    rows = max((c.shape[0] for c, _, _ in tracer.matches), default=1)
    cols = max((c.shape[1] for c, _, _ in tracer.matches), default=1)
    costs = np.full((m, rows, cols), np.nan)
    assigned = np.full((m, rows), -1, np.int64)
    for i, (c, row_to_col, _) in enumerate(tracer.matches):
        costs[i, :c.shape[0], :c.shape[1]] = c
        assigned[i, :len(row_to_col)] = row_to_col
    np.savez(path, names=np.array(tracer.names), **arrays,
             save_bytes=np.array(tracer.save_bytes, np.int64),
             object_images=np.int64(tracer.object_images),
             match_costs=costs, match_assigned=assigned,
             match_total=np.array([t for _, _, t in tracer.matches]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from perfbench.hooks import SpeedProbe, StepTimer, Tracer
    probe = SpeedProbe()  # imports numpy, as deskml would
    timer = StepTimer(probe)

    from deskml import train
    from deskml.config import Config
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    timer.install()

    full = os.path.join(args.workdir, "full")
    final = [train.run_trainer(wl.kind, Config(copy.deepcopy(wl.config)),
                               full, seed=args.seed)]
    if wl.resume:
        resumed = os.path.join(args.workdir, "resumed")
        copy_prefix(full, resumed, wl.resume_step)
        final.append(train.run_trainer(
            wl.kind, Config(copy.deepcopy(wl.config)), resumed, seed=args.seed))

    result = {
        "final_metrics": final,
        "timer": timer.to_dict(),
        "blas_threads": blas_threads(),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        save_trace(tracer, os.path.join(args.workdir, "trace.npz"))
    with open(os.path.join(args.workdir, "result.json"), "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
