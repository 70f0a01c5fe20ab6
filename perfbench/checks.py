"""Output checks that do not trust the program.

Each check returns a list of problems; an empty list is a pass. Scores
are recomputed here in plain numpy from the model's outputs, matching
uses scipy's ``linear_sum_assignment`` as the oracle, and the learning
bars and resume identity are properties the method must have.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np
from scipy.optimize import linear_sum_assignment


def check_close(what: str, got: float, want: float, rel: float = 1e-6) -> list[str]:
    if abs(got - want) <= rel * max(abs(got), abs(want), 1e-12):
        return []
    return [f"{what}: recomputed {got!r}, program reported {want!r}"]


def check_bar(what: str, value: float, bar: float) -> list[str]:
    return [] if value >= bar else [f"{what} {value:.4f} is below the bar {bar}"]


def check_same_bytes(what: str, path_a: str, path_b: str) -> list[str]:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a == b:
        return []
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"{what} differ ({len(a)} vs {len(b)} bytes, first at byte {at})"]


def check_loss_fell(lines: list[dict]) -> list[str]:
    losses = [r["value"] for r in lines if r["name"] == "train_loss"]
    if len(losses) < 2:
        return [f"only {len(losses)} train_loss records"]
    if losses[-1] < losses[0]:
        return []
    return [f"last train loss {losses[-1]:.4f} is not below the first {losses[0]:.4f}"]


# ---------------------------------------------------------------------------
# scores recomputed from model outputs


def segmentation_scores(logits: np.ndarray, labels: np.ndarray,
                        mask: np.ndarray) -> tuple[float, float]:
    """Pixel accuracy and mean IoU over the real (mask > 0) examples.

    An example's IoU is the mean over the classes present in its
    prediction or its label; mean IoU averages that over examples.
    """
    keep = mask > 0
    pred = logits[keep].argmax(-1)
    ids = labels[keep]
    pixel_accuracy = float((pred == ids).mean())
    k = logits.shape[-1]
    p = pred.reshape(len(pred), -1)[:, :, None] == np.arange(k)
    t = ids.reshape(len(ids), -1)[:, :, None] == np.arange(k)
    inter = (p & t).sum(axis=1)
    union = (p | t).sum(axis=1)
    present = union > 0
    iou = np.where(present, inter / np.maximum(union, 1), 0.0)
    per_example = iou.sum(axis=1) / present.sum(axis=1)
    return pixel_accuracy, float(per_example.mean())


def classification_accuracy(logits: np.ndarray, labels: np.ndarray,
                            mask: np.ndarray) -> float:
    keep = mask > 0
    return float((logits[keep].argmax(-1) == labels[keep]).mean())


def detection_scores(class_logits: np.ndarray, boxes: np.ndarray,
                     labels: np.ndarray, target_boxes: np.ndarray,
                     mask: np.ndarray, lambda_cls: float,
                     lambda_box: float) -> tuple[float, float]:
    """Matched accuracy and box L1 under the optimal (scipy) matching.

    The cost of putting target j on slot s is
    lambda_cls * (1 - softmax(logits_s)[class_j]) + lambda_box * L1(box_s, box_j),
    the bipartite cost of DETR (Carion et al. 2020).
    """
    no_object = class_logits.shape[-1] - 1
    correct = objects = 0
    l1 = 0.0
    for i in np.nonzero(mask > 0)[0]:
        real = np.nonzero(labels[i] != no_object)[0]
        if len(real) == 0:
            continue
        z = class_logits[i] - class_logits[i].max(-1, keepdims=True)
        prob = np.exp(z) / np.exp(z).sum(-1, keepdims=True)
        cls = labels[i][real]
        cost = (lambda_cls * (1.0 - prob[:, cls].T)
                + lambda_box * np.abs(target_boxes[i][real][:, None, :]
                                      - boxes[i][None, :, :]).sum(-1))
        rows, slots = linear_sum_assignment(cost)
        correct += int((class_logits[i][slots].argmax(-1) == cls[rows]).sum())
        l1 += float(np.abs(boxes[i][slots].astype(np.float64)
                           - target_boxes[i][real][rows]).mean(-1).sum())
        objects += len(real)
    return correct / max(objects, 1), l1 / max(objects, 1)


def check_assignments(costs: np.ndarray, assigned: np.ndarray,
                      totals: np.ndarray, rel: float = 1e-9) -> list[str]:
    """Every recorded assignment must be a valid optimal one.

    ``costs`` is [calls, rows, cols] padded with NaN, ``assigned`` is
    [calls, rows] padded with -1, ``totals`` the total costs reported.
    """
    problems = []
    for c, a, total in zip(costs, assigned, totals):
        n = int((~np.isnan(c[:, 0])).sum())
        m = int((~np.isnan(c[0])).sum())
        c, a = c[:n, :m], a[:n]
        if (a < 0).any() or (a >= m).any() or len(set(a.tolist())) != n:
            problems.append(f"not an assignment of {n} rows to {m} columns: {a.tolist()}")
            continue
        cost = float(c[np.arange(n), a].sum())
        rows, cols = linear_sum_assignment(c)
        best = float(c[rows, cols].sum())
        tol = rel * max(1.0, abs(best))
        if cost > best + tol:
            problems.append(f"assignment costs {cost!r}, the optimum is {best!r}")
        elif abs(float(total) - cost) > tol:
            problems.append(f"reported total {float(total)!r} but the assignment "
                            f"costs {cost!r}")
    return problems


# ---------------------------------------------------------------------------
# model outputs on the eval set, from a checkpoint


def eval_outputs(workload, seed: int, ckpt_path: str) -> dict:
    """Apply the checkpointed model to the workload's eval set.

    The eval set and its device batching are rebuilt the way
    ``run_trainer`` builds them, so the outputs are those the trainer's
    final eval saw. Returns ``(outputs, batch)``: two dicts of numpy
    arrays, the model's outputs by name and the eval batch's keys
    (``label``, ``boxes``, ``batch_mask``), concatenated in eval order.
    """
    from deskml import rng as R
    from deskml.checkpoint import load_checkpoint
    from deskml.config import Config
    from deskml.data import ShardSpec, build_dataset
    from deskml.models import get_model_cls
    from deskml.tensor import Tensor

    cfg = Config(copy.deepcopy(workload.config))
    hosts = cfg.get("topology.host_count", 1)
    devices = cfg.get("topology.devices_per_host", 1)
    per_device = cfg.get("batch_size")
    k_data, _ = R.split(R.RngKey.from_seed(seed), 2)
    datasets = [build_dataset(cfg.require("dataset.name"),
                              ShardSpec(h, hosts, devices, per_device), k_data, cfg)
                for h in range(hosts)]
    arch = get_model_cls(cfg.require("model.name"))(
        cfg, datasets[0].meta_data).build_model()
    state = load_checkpoint(ckpt_path)

    outputs: dict[str, list] = {}
    batches: dict[str, list] = {}
    for ds in datasets:
        for host_batch in ds.eval_iter():
            for d in range(devices):
                rows = slice(d * per_device, (d + 1) * per_device)
                batch = {k: v.data[rows] for k, v in host_batch.items()}
                out, _ = arch.apply(state.params, state.model_state,
                                    Tensor(batch.pop("inputs")), train=False)
                out = out if isinstance(out, dict) else {"logits": out}
                for k, t in out.items():
                    outputs.setdefault(k, []).append(t.data)
                for k, v in batch.items():
                    batches.setdefault(k, []).append(v)

    def cat(parts):
        return {k: np.concatenate(v) for k, v in parts.items()}

    return cat(outputs), cat(batches)


# ---------------------------------------------------------------------------
# the checks each workload makes on every round


def _metrics_lines(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def unet_checks(wl, seed: int, workdir: str, final: list) -> dict:
    full = os.path.join(workdir, "full")
    out, batch = eval_outputs(wl, seed, os.path.join(full, f"ckpt_{wl.total_steps}.bin"))
    pixel_accuracy, mean_iou = segmentation_scores(out["logits"], batch["label"],
                                                   batch["batch_mask"])
    return {
        "segmentation_recomputed":
            check_close("pixel_accuracy", pixel_accuracy, final[0]["pixel_accuracy"])
            + check_close("mean_iou", mean_iou, final[0]["mean_iou"]),
        "pixel_accuracy_bar": check_bar("pixel accuracy", pixel_accuracy, 0.90),
    }


def detr_checks(wl, seed: int, workdir: str, final: list) -> dict:
    full = os.path.join(workdir, "full")
    out, batch = eval_outputs(wl, seed, os.path.join(full, f"ckpt_{wl.total_steps}.bin"))
    model = wl.config["model"]
    accuracy, box_l1 = detection_scores(
        out["class_logits"], out["boxes"], batch["label"], batch["boxes"],
        batch["batch_mask"], model["lambda_cls"], model["lambda_box"])
    return {
        "detection_recomputed":
            check_close("matched_accuracy", accuracy, final[0]["matched_accuracy"])
            + check_close("box_l1", box_l1, final[0]["box_l1"]),
        "train_loss_fell": check_loss_fell(
            _metrics_lines(os.path.join(full, "metrics.jsonl"))),
    }


def vit_checks(wl, seed: int, workdir: str, final: list) -> dict:
    full = os.path.join(workdir, "full")
    resumed = os.path.join(workdir, "resumed")
    last = f"ckpt_{wl.total_steps}.bin"
    out, batch = eval_outputs(wl, seed, os.path.join(full, last))
    accuracy = classification_accuracy(out["logits"], batch["label"],
                                       batch["batch_mask"])
    return {
        "accuracy_recomputed": check_close("accuracy", accuracy, final[0]["accuracy"]),
        "accuracy_bar": check_bar("eval accuracy", accuracy, 0.95),
        "resumed_checkpoint_identical": check_same_bytes(
            f"resumed and uninterrupted {last}",
            os.path.join(full, last), os.path.join(resumed, last)),
        "resumed_metrics_identical": check_same_bytes(
            "resumed and uninterrupted metrics.jsonl",
            os.path.join(full, "metrics.jsonl"),
            os.path.join(resumed, "metrics.jsonl")),
    }


WORKLOAD_CHECKS = {"unet-seg": unet_checks, "detr-set": detr_checks,
                   "vit-dp": vit_checks}
