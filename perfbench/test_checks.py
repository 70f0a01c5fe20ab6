"""Each output check accepts a right answer and refuses a wrong one."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from perfbench import analysis, checks
from perfbench.run import END_TO_END


def test_close_refuses_a_wrong_score():
    assert checks.check_close("x", 0.5, 0.5 * (1 + 1e-8)) == []
    assert checks.check_close("x", 0.5, 0.5 * (1 + 1e-5))


def test_bar_refuses_a_score_below_it():
    assert checks.check_bar("acc", 0.95, 0.95) == []
    assert checks.check_bar("acc", 0.9499, 0.95)


def test_same_bytes_refuses_different_files(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    a.write_bytes(b"step 9.0")
    b.write_bytes(b"step 9.0")
    c.write_bytes(b"step 1.0")
    assert checks.check_same_bytes("f", str(a), str(b)) == []
    assert "first at byte 5" in checks.check_same_bytes("f", str(a), str(c))[0]


def test_loss_fell_refuses_a_rising_loss():
    def lines(*losses):
        return [{"name": "train_loss", "value": v} for v in losses]

    assert checks.check_loss_fell(lines(3.0, 2.5, 2.0)) == []
    assert checks.check_loss_fell(lines(2.0, 1.5, 2.0))
    assert checks.check_loss_fell(lines(2.0))


def test_segmentation_scores_by_hand():
    labels = np.array([[[0, 1], [1, 2]]])  # one 2x2 image, classes 0..2
    pred = np.array([[[0, 1], [2, 2]]])
    logits = np.eye(3)[pred]
    acc, miou = checks.segmentation_scores(logits, labels, np.ones(1))
    assert acc == 0.75
    # class 0: 1/1, class 1: 1/2, class 2: 1/2
    assert miou == pytest.approx((1 + 0.5 + 0.5) / 3)
    # a masked-out example does not count
    acc2, _ = checks.segmentation_scores(np.concatenate([logits, 1 - logits]),
                                         np.concatenate([labels, labels]),
                                         np.array([1.0, 0.0]))
    assert acc2 == 0.75


def test_segmentation_scores_agree_with_the_definition_in_deskml():
    from deskml.models import segmentation_metrics
    from deskml.tensor import Tensor

    gen = np.random.default_rng(0)
    logits = gen.normal(size=(6, 5, 5, 3)).astype(np.float32)
    labels = gen.integers(0, 3, size=(6, 5, 5))
    mask = np.array([1, 1, 1, 1, 0, 1], np.float32)
    table = segmentation_metrics(Tensor(logits), Tensor(labels), Tensor(mask))
    acc, miou = checks.segmentation_scores(logits, labels, mask)
    assert acc == pytest.approx(table["pixel_accuracy"][0] / table["pixel_accuracy"][1])
    assert miou == pytest.approx(table["mean_iou"][0] / table["mean_iou"][1])
    assert checks.check_close("pixel_accuracy", acc, acc + 1e-3)


def test_detection_scores_use_the_optimal_matching():
    # two slots, one object of class 0 at box A; slot 1 is right
    box_a = np.array([0.1, 0.1, 0.4, 0.4])
    boxes = np.array([[[0.6, 0.6, 0.9, 0.9], box_a]])
    class_logits = np.array([[[0.0, 5.0, 0.0], [5.0, 0.0, 0.0]]])  # k=2, no-object=2
    labels = np.array([[0, 2]])
    targets = np.array([[box_a, np.zeros(4)]])
    acc, l1 = checks.detection_scores(class_logits, boxes, labels, targets,
                                      np.ones(1), 1.0, 5.0)
    assert (acc, l1) == (1.0, 0.0)
    assert checks.check_close("matched_accuracy", 0.0, acc)


def test_assignments_refuse_suboptimal_invalid_and_misreported():
    cost = np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 9.0]])
    costs = np.stack([cost] * 4)
    assigned = np.array([[1, 0], [0, 1], [0, 0], [1, 0]])
    totals = np.array([3.0, 6.0, 2.0, 2.5])
    problems = checks.check_assignments(costs, assigned, totals)
    assert len(problems) == 3
    assert "optimum is 3.0" in problems[0]
    assert "not an assignment" in problems[1]
    assert "reported total 2.5" in problems[2]
    assert checks.check_assignments(costs[:1], assigned[:1], totals[:1]) == []


def test_assignments_skip_padding():
    padded = np.full((1, 3, 4), np.nan)
    padded[0, :1, :3] = [[2.0, 1.0, 3.0]]
    assert checks.check_assignments(padded, np.array([[1, -1, -1]]),
                                    np.array([1.0])) == []
    assert checks.check_assignments(padded, np.array([[0, -1, -1]]),
                                    np.array([2.0]))


def _spans(rows):
    names = ["train.run_trainer", "train.train_step", "tensor.add"]
    name, parent, start, end = (np.array(c) for c in zip(*rows))
    return names, name, parent, start.astype(float), end.astype(float)


def test_nesting_accepts_nested_spans():
    rows = [(0, -1, 0, 10), (1, 0, 1, 5), (2, 1, 2, 3), (2, 1, 3, 4), (1, 0, 6, 9)]
    assert analysis.check_nesting(*_spans(rows)) == []


def test_nesting_refuses_a_child_outside_its_parent():
    rows = [(0, -1, 0, 10), (1, 0, 1, 5), (2, 1, 4, 6)]
    assert "outside their parent" in analysis.check_nesting(*_spans(rows))[0]


def test_nesting_refuses_overlapping_siblings():
    rows = [(0, -1, 0, 10), (1, 0, 1, 5), (2, 1, 2, 4), (2, 1, 3, 5)]
    assert "overlap" in analysis.check_nesting(*_spans(rows))[0]


def test_benchmark_json_lists_what_the_benchmark_reports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == analysis.PER_LAYER


def test_timing_refuses_calls_that_outgrow_the_process():
    from perfbench.run import check_timing

    timer = {"train_cpu": [0.04, 0.05], "train_ref": [1e-3, 1e-3],
             "eval_cpu": [0.01], "eval_ref": [1e-3], "probe_cpu": 0.003}
    assert check_timing({"result": {"timer": timer}, "cpu_s": 1.0}) == []
    assert check_timing({"result": {"timer": timer}, "cpu_s": 0.1})
    timer["eval_ref"] = []
    assert check_timing({"result": {"timer": timer}, "cpu_s": 1.0})
