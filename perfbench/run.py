"""Benchmark deskml training end to end (untraced) or per layer (traced).

Run from the repository root:

    python3 perfbench/run.py --workload unet-seg --seed 0 --seconds 30 --trace 0

The run repeats whole rounds of the workload until ``--seconds`` have
passed; each round is a fresh single-threaded process
(``perfbench/workload.py``) whose outputs are then checked. With
``--trace 1`` untraced and traced rounds alternate, and the per-layer
metrics come from the traced ones. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each a median over the rounds). The line before it holds the run's
facts; ``perfbench/out/`` keeps the full result and the last trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

if __package__ in (None, ""):  # run as a script: make `perfbench` importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import analysis, checks  # noqa: E402
from perfbench.hooks import REF_CPU_S  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
OUT = os.path.join(ROOT, "perfbench", "out")
DEADLINE_S = 170.0  # a run ends well within 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_examples_per_cpu_s": "examples/cpu-s",
    "eval_examples_per_cpu_s": "examples/cpu-s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# the one output check that fails on every run, for a known fault:
# run_trainer restarts its logical clock at 0 on resume
KNOWN_FAULTS = {"resumed_metrics_identical"}


def read_cpu_stat():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None
    return fields[7], sum(fields)


def run_round(wl, seed: int, trace: int, index: int, deadline: float) -> dict:
    """Run one round in a fresh process; returns its record."""
    workdir = os.path.join(OUT, "work", f"{wl.name}-s{seed}-r{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join("perfbench", "workload.py"),
           "--workload", wl.name, "--seed", str(seed),
           "--workdir", workdir, "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "trace": trace,
        "workdir": workdir,
        "exit": proc.returncode,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    result_path = os.path.join(workdir, "result.json")
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path) as f:
            rec["result"] = json.load(f)
    return rec


def mean(xs):
    return sum(xs) / len(xs)


def end_to_end(rec: dict) -> dict:
    """A round's end-to-end metrics, CPU scaled to the reference speed."""
    t = rec["result"]["timer"]
    train_cpu = sum(t["train_cpu"]) * REF_CPU_S / mean(t["train_ref"])
    eval_cpu = sum(t["eval_cpu"]) * REF_CPU_S / mean(t["eval_ref"])
    all_ref = mean([t["setup_ref"]] + t["train_ref"] + t["eval_ref"])
    on_cpu = rec["cpu_s"] - t["probe_cpu"]
    return {
        "setup_s": (t["setup_s"] - t["setup_probe_cpu"]) * REF_CPU_S / t["setup_ref"],
        "train_examples_per_cpu_s": sum(t["train_examples"]) / train_cpu,
        "eval_examples_per_cpu_s": sum(t["eval_examples"]) / eval_cpu,
        "wall_s": rec["wall_s"] - rec["cpu_s"] + on_cpu * REF_CPU_S / all_ref,
        "peak_rss_mb": rec["result"]["peak_rss_mb"],
    }


def check_timing(rec: dict) -> list[str]:
    """The timed calls must fit in the process's own CPU time."""
    t = rec["result"]["timer"]
    times = t["train_cpu"] + t["eval_cpu"]
    problems = []
    if min(times) <= 0:
        problems.append("a timed call took no CPU time")
    if len(t["train_ref"]) != len(t["train_cpu"]) or len(t["eval_ref"]) != len(t["eval_cpu"]):
        problems.append("speed probes and timed calls do not pair up")
    if sum(times) + t["probe_cpu"] > rec["cpu_s"]:
        problems.append(f"timed calls add up to {sum(times) + t['probe_cpu']:.3f} s, "
                        f"more than the process's {rec['cpu_s']:.3f} s of CPU")
    return problems


def count_ops(wl, rec: dict) -> tuple[dict, dict]:
    """(attempted, completed) operations of one round, by kind."""
    attempted = wl.expected_ops()
    done = dict.fromkeys(attempted, 0)
    if "result" not in rec:
        return attempted, done
    done["train_steps"] = len(rec["result"]["timer"]["train_cpu"])
    legs = [("full", 0)]
    if wl.resume:
        legs.append(("resumed", wl.resume_step))
    for leg, after in legs:
        leg_dir = os.path.join(rec["workdir"], leg)
        with open(os.path.join(leg_dir, "metrics.jsonl")) as f:
            evals = {r["step"] for r in map(json.loads, f)
                     if r["name"].startswith("eval_") and r["step"] > after}
        saved = {int(f[5:-4]) for f in os.listdir(leg_dir) if f.startswith("ckpt_")}
        done["eval_passes"] += len(evals)
        done["checkpoint_saves"] += len({s for s in saved if s > after})
        if after:  # the resume leg trained on from its loaded checkpoint
            done["checkpoint_loads"] += int(wl.total_steps in saved)
    return attempted, {k: min(v, attempted[k]) for k, v in done.items()}


def traced_layers(wl, rec: dict, trace_path: str) -> tuple[dict, dict]:
    """(per-layer metrics, checks) of a traced round."""
    t = rec["result"]["timer"]
    z = dict(np.load(trace_path))
    scale = REF_CPU_S / mean(t["train_ref"])
    layers = analysis.layer_metrics(z, wl.hosts, sum(t["eval_examples"]), scale)
    layers["trace.spans"] = float(len(z["name"]))
    found = {"spans_nest": analysis.check_nesting(
        [str(n) for n in z["names"]], z["name"].astype(np.int64),
        z["parent"].astype(np.int64), z["start"], z["end"])}
    if len(z["match_total"]):
        found["hungarian_optimal"] = checks.check_assignments(
            z["match_costs"], z["match_assigned"], z["match_total"])
    return layers, found


def check_round(wl, seed: int, rec: dict) -> tuple[dict, dict | None, dict | None]:
    """(checks, end-to-end metrics, per-layer metrics) of a finished round."""
    if "result" not in rec:
        return {"round_ran": [f"workload process exited with {rec['exit']}"]}, None, None
    result = rec["result"]
    rec["blas_threads"] = result["blas_threads"]
    rec["core_speed"] = REF_CPU_S / mean(result["timer"]["train_ref"])
    found = checks.WORKLOAD_CHECKS[wl.name](wl, seed, rec["workdir"],
                                           result["final_metrics"])
    layers = None
    if rec["trace"]:
        trace_path = os.path.join(OUT, f"trace-{wl.name}-s{seed}.npz")
        shutil.move(os.path.join(rec["workdir"], "trace.npz"), trace_path)
        layers, trace_checks = traced_layers(wl, rec, trace_path)
        found.update(trace_checks)
    else:
        found["timing_consistent"] = check_timing(rec)
    return found, end_to_end(rec), layers


def run_facts(args, rounds: list, steal) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": next((r["blas_threads"] for r in rounds
                              if "blas_threads" in r), None),
        "steal_share": steal,
        "rounds": len(rounds),
        # per round; > 1 when the core ran faster than the reference speed
        "core_speed": [r["core_speed"] for r in rounds if "core_speed" in r],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "deskml", "__init__.py")):
        print("perfbench: run from the repository root; src/deskml is missing",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import deskml  # noqa: F401  (compiles its bytecode before any round)

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    start, deadline = time.perf_counter(), time.monotonic() + DEADLINE_S
    stat0 = read_cpu_stat()
    rounds, e2e, layers = [], [], []
    attempted = failed = 0
    correct = True
    while correct:
        cycle_start = time.perf_counter()
        for trace in (0, 1) if args.trace else (0,):
            rec = run_round(wl, args.seed, trace, len(rounds), deadline)
            ops, done = count_ops(wl, rec)
            found, round_e2e, round_layers = check_round(wl, args.seed, rec)
            attempted += sum(ops.values()) + len(found)
            failed += sum(ops[k] - done[k] for k in ops) + sum(1 for v in found.values() if v)
            correct = correct and not any(
                v for k, v in found.items() if k not in KNOWN_FAULTS)
            if round_e2e is not None:
                e2e.append((trace, round_e2e))
            if round_layers is not None:
                layers.append(round_layers)
            rec["checks"] = found
            rec.pop("result", None)
            shutil.rmtree(rec["workdir"], ignore_errors=True)
            rounds.append(rec)
            if not correct:
                break
        elapsed = time.perf_counter() - start
        cycle = time.perf_counter() - cycle_start
        if elapsed + cycle / 2 >= args.seconds or time.monotonic() + cycle >= deadline:
            break
    stat1 = read_cpu_stat()
    steal = None
    if stat0 and stat1 and stat1[1] > stat0[1]:
        steal = (stat1[0] - stat0[0]) / (stat1[1] - stat0[1])

    metrics = {}
    plain = [m for trace, m in e2e if trace == 0]
    if args.trace:
        traced = [m for trace, m in e2e if trace == 1]
        for name in layers[0] if layers else ():
            metrics[name] = statistics.median(layer[name] for layer in layers)
        if plain and traced:
            untraced_rate = statistics.median(m["train_examples_per_cpu_s"] for m in plain)
            traced_rate = statistics.median(m["train_examples_per_cpu_s"] for m in traced)
            metrics["trace.train_examples_per_cpu_s"] = traced_rate
            metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / untraced_rate)
    elif plain:
        for name in END_TO_END:
            metrics[name] = statistics.median(m[name] for m in plain)

    units = ({k: u for k, (u, _) in analysis.PER_LAYER.items()} if args.trace
             else END_TO_END)
    out = {
        "correct": bool(correct and metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    facts = run_facts(args, rounds, steal)
    with open(os.path.join(OUT, f"result-{wl.name}-s{args.seed}-t{args.trace}.json"),
              "w") as f:
        json.dump({"facts": facts, "rounds": rounds, "round_metrics": e2e,
                   "round_layers": layers, **out}, f, indent=1)
    print(json.dumps({"facts": facts}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
