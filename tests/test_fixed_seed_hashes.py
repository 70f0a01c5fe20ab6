"""The drift report of ``tools/fixed_seed_hashes.py`` on two tiny workdirs."""

import importlib.util
import json
import math
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from deskml import checkpoint as CK
from deskml import matchers
from deskml import train as TR
from deskml.config import Config
from deskml.tensor import Tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "fixed_seed_hashes", os.path.join(ROOT, "tools", "fixed_seed_hashes.py"))
FSH = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(FSH)


def tiny_run(workdir, lr=1e-2):
    cfg = Config({"model": {"name": "fully_connected_classification"},
                  "dataset": {"num_train_examples": 8, "num_eval_examples": 4},
                  "batch_size": 4, "eval_every": 1, "total_steps": 2,
                  "optimizer": {"kind": "adam", "lr": lr}})
    TR.run_trainer("classification", cfg, str(workdir), seed=0)
    return str(workdir)


@pytest.fixture(scope="module")
def parent(tmp_path_factory):
    return tiny_run(tmp_path_factory.mktemp("parent") / "run")


def copy_of(parent, tmp_path):
    return shutil.copytree(parent, tmp_path / "copy")


def test_relative_drift():
    assert FSH.relative_drift([1.0, -4.0], [1.0, -4.0]) == 0.0
    assert FSH.relative_drift([1.0, -3.0], [1.0, -4.0]) == 0.25
    assert FSH.relative_drift(np.zeros(3), np.zeros(3)) == 0.0
    assert FSH.relative_drift([1e-9], [0.0]) == math.inf
    assert FSH.relative_drift(np.zeros(3), np.zeros(2)) == math.inf


def test_same_run_has_no_drift(parent, tmp_path):
    again = tiny_run(tmp_path / "again")
    assert FSH.metrics_drift(again, parent) == (0.0, "-")
    assert FSH.checkpoint_drift(again, parent) == (0.0, "-", [])


def test_reports_the_largest_record_and_where(parent, tmp_path):
    wd = copy_of(parent, tmp_path)
    path = os.path.join(wd, "metrics.jsonl")
    with open(path) as f:
        records = [json.loads(line) for line in f]
    records[3]["value"] *= 1.5
    records[5]["value"] *= 1.25
    with open(path, "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in records)
    drift, where = FSH.metrics_drift(wd, parent)
    assert drift == pytest.approx(0.5)
    assert where == f"step {records[3]['step']} {records[3]['name']}"


def test_reports_the_largest_array_and_where(parent, tmp_path):
    wd = copy_of(parent, tmp_path)
    path = os.path.join(wd, "ckpt_2.bin")
    state = CK.load_checkpoint(path)
    name = sorted(state.params)[0]
    w = state.params[name].data
    moved = w.copy()
    moved.flat[0] += 0.125 * np.abs(w).max()
    CK.save_checkpoint(replace(state, params={**state.params,
                                              name: Tensor(moved)}), path)
    drift, where, _ = FSH.checkpoint_drift(wd, parent)
    assert drift == pytest.approx(0.125, rel=1e-6)
    assert where == f"ckpt_2.bin params {name}"


def test_a_changed_run_drifts_and_a_missing_file_is_infinite(parent, tmp_path):
    other = tiny_run(tmp_path / "other", lr=2e-2)
    m, _ = FSH.metrics_drift(other, parent)
    c, c_at, _ = FSH.checkpoint_drift(other, parent)
    assert m > 0.0 and 0.0 < c < math.inf
    assert c_at.startswith(("ckpt_1.bin ", "ckpt_2.bin "))
    os.remove(os.path.join(other, "ckpt_2.bin"))
    assert FSH.checkpoint_drift(other, parent) == (math.inf, "ckpt_2.bin is absent", [])
    line = FSH.drift_line("mlp", other, parent)
    assert line.startswith("drift mlp metrics.jsonl ") and "inf" in line


@pytest.mark.parametrize("made", [False, True], ids=["missing", "empty"])
def test_a_run_absent_in_the_parent_is_infinite(parent, tmp_path, made):
    # a run added since the parent: its workdir lacks the run's directory
    absent = tmp_path / "parent" / "vit_2x2_new"
    if made:
        absent.mkdir(parents=True)
    assert FSH.drift_line("vit_2x2_new", parent, str(absent)) == \
        "drift vit_2x2_new inf (the run is absent in the parent)"


def test_arrays_one_side_holds_are_counted_not_scored(parent, tmp_path):
    wd = copy_of(parent, tmp_path)
    path = os.path.join(wd, "ckpt_2.bin")
    state = CK.load_checkpoint(path)
    name = sorted(state.params)[0]
    params = dict(state.params)
    del params[name]
    CK.save_checkpoint(replace(state, params=params), path)
    where = f"ckpt_2.bin params {name} in the parent only"
    assert FSH.checkpoint_drift(wd, parent) == (0.0, "-", [where])
    assert FSH.drift_line("mlp", wd, parent).endswith(
        f"checkpoints 0.00e+00 (-) one-sided 1 ({where})")
    # seen from the other side, the array is the run's alone
    assert FSH.checkpoint_drift(parent, wd)[2] == [
        f"ckpt_2.bin params {name} in the run only"]


def write_assignments(wd, calls):
    with open(FSH.assignments_path(str(wd)), "w") as f:
        json.dump(calls, f)


def test_assignment_flips_count_and_name_the_first(parent, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_assignments(old, [[0, 3], [1], [2, 0, 5], [4]])
    write_assignments(new, [[0, 3], [1], [2, 5, 0], [7]])
    assert FSH.assignment_flips(str(new), str(old)) == (2, 4, "call 3")
    assert FSH.assignment_flips(str(old), str(old)) == (0, 4, "-")
    write_assignments(new, [[0, 3], [1], [2, 0, 5], [4], [6]])
    assert FSH.assignment_flips(str(new), str(old)) == (1, 5, "call 5")
    # a run without matching (no file) prints no assignment count
    assert FSH.assignment_flips(parent, parent) == (0, 0, "-")
    assert "assignments" not in FSH.drift_line("mlp", parent, parent)


def test_same_calls_in_another_order_are_named_reordered(parent, tmp_path):
    old = shutil.copytree(parent, tmp_path / "old")
    new = shutil.copytree(parent, tmp_path / "new")
    write_assignments(old, [[0, 3], [1], [2, 0, 5], [4]])
    write_assignments(new, [[0, 3], [2, 0, 5], [1], [4]])
    # the positional count stays as it is
    assert FSH.assignment_flips(str(new), str(old)) == (2, 4, "call 2")
    assert FSH.same_calls_reordered(str(new), str(old))
    assert FSH.drift_line("detr", str(new), str(old)).endswith(
        "assignments 2 of 4 differ (call 2), same calls, reordered")
    # equal lists, or a call only one side made, are not a reordering
    assert not FSH.same_calls_reordered(str(old), str(old))
    write_assignments(new, [[0, 3], [2, 0, 5], [1], [4], [6]])
    assert not FSH.same_calls_reordered(str(new), str(old))
    assert "reordered" not in FSH.drift_line("detr", str(new), str(old))


def test_match_calls_are_recorded_beside_the_run(tmp_path):
    path = FSH.assignments_path(str(tmp_path / "run"))
    assert path == str(tmp_path / "run.assignments.json")
    match = matchers.match
    with FSH.recorded_assignments(path):
        matchers.match(np.array([[1.0, 0.0], [0.0, 1.0]]))
        matchers.match(np.array([[0.0, 2.0, 1.0]]), "greedy")
    assert matchers.match is match
    with open(path) as f:
        assert json.load(f) == [[1, 0], [0]]
    with FSH.recorded_assignments(str(tmp_path / "none.json")):
        pass
    assert not os.path.exists(tmp_path / "none.json")


def test_records_out_of_step_are_infinite(parent, tmp_path):
    wd = copy_of(parent, tmp_path)
    path = os.path.join(wd, "metrics.jsonl")
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[1:] + lines[:1])
    drift, where = FSH.metrics_drift(wd, parent)
    assert drift == math.inf and "where the parent has" in where
    with open(path, "w") as f:
        f.writelines(lines[:-1])
    assert FSH.metrics_drift(wd, parent)[0] == math.inf


def test_compare_needs_workdir(parent):
    with pytest.raises(SystemExit):
        FSH.main(["--compare", parent])
