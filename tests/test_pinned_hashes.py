"""The fixed-seed oracle, pinned: ``tools/fixed_seed_hashes.py`` must print
the lines of ``tools/fixed_seed_hashes.txt``.

The script runs in two fresh processes side by side, one under
``OPENBLAS_NUM_THREADS=1`` and one under ``=2``, and each prints its
lines; the two must agree everywhere.

The rule for other environments: the file's ``# <key> <value>`` lines
record the environment the pinned lines were taken in, as
``environment()`` below reports it (Python, numpy, BLAS, and the SIMD
extensions numpy found on the CPU). Float results may differ under
another of any of these, so the comparison with the file is skipped,
naming what differs, when the running environment is not the recorded
one. A key may be recorded more than once, one line per value the same
lines were taken under (the other keys as recorded); any of them
matches. The two runs must still agree with each other there.

A change that moves lines on purpose pins them again (the script's
output under one ``# <key> <value>`` line per entry of ``environment()``)
and records their drift, from the script's ``--compare``, in
``CHANGES.md``.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "fixed_seed_hashes.py")
PINNED = os.path.join(ROOT, "tools", "fixed_seed_hashes.txt")


def environment() -> dict:
    """What the lines may depend on besides the code: the Python, numpy
    and BLAS versions, as the benchmark's facts line reports them, and
    the SIMD extensions numpy's kernels found on this CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": " ".join(config["SIMD Extensions"]["found"])}


def read_pinned(path: str) -> tuple[dict, list]:
    """The recorded environment, each key's list of values, and the
    pinned lines of ``path``."""
    env, lines = {}, []
    with open(path) as f:
        for line in f.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" ")
                env.setdefault(key, []).append(value)
            else:
                lines.append(line)
    return env, lines


def assert_same_lines(lines: list, want: list, run: str, source: str):
    for i, (a, b) in enumerate(zip(lines, want), 1):
        assert a == b, f"{run}: line {i} is {a!r}, {source} has {b!r}"
    assert len(lines) == len(want), \
        f"{run}: {len(lines)} lines, {source} has {len(want)}"


@pytest.fixture(scope="module")
def runs() -> dict:
    """Each run's printed lines, by the BLAS setting it ran under."""
    procs = {}
    for threads in (1, 2):
        procs[f"OPENBLAS_NUM_THREADS={threads}"] = subprocess.Popen(
            [sys.executable, SCRIPT], cwd=ROOT, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = {}
    for run, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, f"{run} exited {proc.returncode}:\n{stderr}"
        out[run] = stdout.splitlines()
    return out


def test_same_lines_under_one_and_two_blas_threads(runs):
    one, two = runs["OPENBLAS_NUM_THREADS=1"], runs["OPENBLAS_NUM_THREADS=2"]
    assert_same_lines(two, one, "OPENBLAS_NUM_THREADS=2", "OPENBLAS_NUM_THREADS=1")


def test_lines_equal_the_pinned_file(runs):
    recorded, pinned = read_pinned(PINNED)
    here = environment()
    differ = [f"{k} {here.get(k)!r}, recorded {' or '.join(map(repr, v))}"
              for k, v in recorded.items() if here.get(k) not in v]
    if differ:
        pytest.skip(f"not the environment {PINNED} was taken in: {differ[0]}")
    for run, lines in runs.items():
        assert_same_lines(lines, pinned, run, PINNED)
