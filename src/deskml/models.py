"""Model contract, registry, and task losses/metrics.

A model is the triple (architecture builder, loss function, metric
function factory), parameterized by config and dataset metadata. Metric
functions return value *sums* paired with normalizers, so cross-device
aggregation is a plain componentwise sum followed by one division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .data import DatasetMetaData
from .tensor import Tensor

MetricTable = dict  # name -> (value_sum, normalizer)


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ArchitectureHandle:
    """init(rng) -> (params, model_state), every array in the model's dtype;
    apply(params, model_state, inputs, train, rng=None) -> (outputs, new_state)."""
    init: Callable
    apply: Callable


@dataclass(frozen=True)
class ModelContract:
    meta: DatasetMetaData
    build_model: Callable[[], ArchitectureHandle]
    loss_fn: Callable  # (outputs, batch) -> scalar Tensor
    get_metrics_fn: Callable  # () -> metric_fn(outputs, **batch but "inputs")


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, tuple[Callable, dict]] = {}


def register_model(name: str, factory: Callable, defaults: dict | None = None):
    """Register a (config, meta) -> ModelContract factory, with the config
    values ``run_trainer`` fills in where a run's config leaves them out."""
    if name in _REGISTRY:
        raise ModelError(f"model {name!r} already registered")
    _REGISTRY[name] = (factory, defaults or {})


def _registered(name: str) -> tuple[Callable, dict]:
    if name not in _REGISTRY:
        raise ModelError(
            f"unknown model {name!r}; registered: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def get_model_cls(name: str) -> Callable:
    return _registered(name)[0]


def model_defaults(name: str) -> dict:
    return _registered(name)[1]


def registered_models() -> list[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# loss helpers


def example_mask(batch_mask: Tensor | None, n: int) -> np.ndarray:
    """Per-example weights of a batch of ``n``: 0 marks padding; all ones
    when the batch carries no mask."""
    if batch_mask is None:
        return np.ones(n, np.float64)
    return batch_mask.data.astype(np.float64)


def _one_hot(label: Tensor, k: int) -> np.ndarray:
    ids = label.data.astype(np.int64)
    if ids.min() < 0 or ids.max() >= k:
        raise ModelError(f"label ids outside [0, {k})")
    return np.eye(k, dtype=np.float64)[ids]


def softmax_cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Cross-entropy of softmax(logits) against ``onehot`` over the last axis."""
    logp = T.log_softmax(logits, axis=-1)
    return -T.tsum(logp * Tensor(onehot.astype(logits.data.dtype)), axis=-1)


def masked_mean(values: Tensor, mask: np.ndarray, count) -> Tensor:
    """Sum of per-example ``values`` weighted by ``mask``, over ``count``."""
    if count <= 0:
        raise ModelError("all examples masked out")
    return T.tsum(values * Tensor(mask.astype(values.data.dtype))) * (1.0 / count)


def classification_loss(logits: Tensor, batch: dict,
                        num_classes: int | None = None,
                        label_smoothing: float = 0.0) -> Tensor:
    """Mean softmax cross-entropy over unmasked examples."""
    k = logits.shape[-1]
    if num_classes is not None and k != num_classes:
        raise ModelError(f"logits have {k} classes, dataset has {num_classes}")
    onehot = _one_hot(batch["label"], k)
    if label_smoothing > 0.0:
        onehot = onehot * (1.0 - label_smoothing) + label_smoothing / k
    mask = example_mask(batch.get("batch_mask"), logits.shape[0])
    return masked_mean(softmax_cross_entropy(logits, onehot), mask, mask.sum())


def segmentation_loss(logits: Tensor, batch: dict) -> Tensor:
    """Per-pixel softmax cross-entropy, averaged over unmasked examples' pixels."""
    label = batch["label"]
    b, h, w, k = logits.shape
    if label.shape != (b, h, w):
        raise ModelError(f"label shape {label.shape} != spatial {(b, h, w)}")
    per_px = softmax_cross_entropy(logits, _one_hot(label, k))
    per_ex = T.tsum(T.tsum(per_px, axis=-1), axis=-1)
    mask = example_mask(batch.get("batch_mask"), b)
    return masked_mean(per_ex, mask, mask.sum() * h * w)


# ---------------------------------------------------------------------------
# metric functions (pure numpy; values are sums paired with normalizers)


def classification_metrics(logits, label, batch_mask=None) -> MetricTable:
    x = logits.data
    mask = example_mask(batch_mask, x.shape[0])
    ids = label.data
    correct = (x.argmax(-1) == ids).astype(np.float64)
    loss = _ce_sum(x, ids)
    return {
        "accuracy": (float((correct * mask).sum()), float(mask.sum())),
        "loss": (float((loss * mask).sum()), float(mask.sum())),
    }


def segmentation_metrics(logits, label, batch_mask=None) -> MetricTable:
    x = logits.data.astype(np.float64)
    b, h, w, k = x.shape
    ids = label.data
    mask = example_mask(batch_mask, b)
    pred = _argmax_last(x)
    correct = ((pred == ids).astype(np.float64).sum(axis=(1, 2)) * mask).sum()
    pixels = mask.sum() * h * w
    # mean IoU over classes, summed in example order over unmasked examples
    rows = np.nonzero(mask > 0)[0]
    means = _mean_ious(pred[rows].reshape(-1, h * w), ids[rows].reshape(-1, h * w), k)
    iou_sum = float(np.cumsum(means)[-1]) if len(rows) else 0.0
    ce = _ce_sum(x.reshape(-1, k), ids.reshape(-1)).reshape(b, h, w).sum(axis=(1, 2))
    return {
        "pixel_accuracy": (float(correct), float(pixels)),
        "mean_iou": (float(iou_sum), float(mask.sum())),
        "loss": (float((ce * mask).sum()), float(pixels)),
    }


def _argmax_last(x: np.ndarray) -> np.ndarray:
    """``x.argmax(-1)``: the first index that holds the row's maximum,
    found from ``T._fold_last``'s maximum in whole-array passes (the
    index counts the leading entries that miss it). A NaN makes that
    maximum NaN, which no entry equals, so an input holding one keeps
    ``np.argmax``, whose first NaN wins."""
    top = T._fold_last(np.maximum, x)[..., 0]
    if np.isnan(top).any():
        return x.argmax(-1)
    miss = x[..., 0] != top
    pred = miss.astype(np.intp)
    for i in range(1, x.shape[-1] - 1):
        miss &= x[..., i] != top
        pred += miss
    return pred


def _mean_ious(pred: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Each example's IoU averaged over the classes in its label or its
    prediction (1.0 when there are none), from one bincount confusion
    over (example, label, pred); ``pred`` and ``ids`` are (examples,
    pixels).

    Each mean is ``np.mean`` of the present classes' IoUs in class order:
    the present classes move to the front of their row, and the rows with
    ``m`` present classes sum their first ``m`` in one reduction, which
    adds the same terms in the same order as ``np.mean`` of a list does.
    """
    b = pred.shape[0]
    cells = (np.arange(b)[:, None] * k + ids) * k + pred
    conf = np.bincount(cells.ravel(), minlength=b * k * k).reshape(b, k, k)
    inter = np.diagonal(conf, axis1=1, axis2=2)
    union = conf.sum(2) + conf.sum(1) - inter
    present = union > 0
    order = np.argsort(~present, axis=1, kind="stable")
    iou = np.take_along_axis(inter / np.maximum(union, 1), order, axis=1)
    counts = present.sum(1)
    means = np.ones(b)
    for m in range(1, k + 1):  # not np.unique: it imports numpy.ma (~1 MB RSS)
        sel = counts == m
        if sel.any():
            means[sel] = iou[sel, :m].sum(axis=1) / m
    return means


def _ce_sum(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy against integer ids."""
    logp = T.log_softmax(Tensor(x)).data
    return -logp[np.arange(x.shape[0]), ids.astype(np.int64)]

