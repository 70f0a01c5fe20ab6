"""Sharded input pipelines over synthetic, self-labeling tasks.

A Dataset owns an infinite deterministic train iterator, a per-epoch
eval iterator and the task metadata. Hosts receive disjoint contiguous
shards; incomplete eval batches are padded and masked so example counts
stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as R
from .config import Config
from .tensor import Tensor


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class DatasetMetaData:
    num_classes: int
    input_shape: tuple  # leading extent is the batch placeholder (-1)
    num_train_examples: int
    num_eval_examples: int


@dataclass(frozen=True)
class ShardSpec:
    host_id: int
    host_count: int
    devices_per_host: int = 1
    per_device_batch: int = 1

    def __post_init__(self):
        if not (0 <= self.host_id < self.host_count):
            raise DatasetError(f"host_id {self.host_id} outside [0, {self.host_count})")
        if self.devices_per_host < 1 or self.per_device_batch < 1:
            raise DatasetError("devices_per_host and per_device_batch must be >= 1")

    @property
    def host_batch(self) -> int:
        return self.devices_per_host * self.per_device_batch


@dataclass
class Dataset:
    train_iter: object  # infinite iterator of Batch
    eval_iter: object   # zero-arg callable returning a finite epoch iterator
    meta_data: DatasetMetaData


def shard_indices(n: int, shard: ShardSpec) -> np.ndarray:
    """Contiguous block of example indices owned by this host.

    Host h of H gets [floor(n*h/H), floor(n*(h+1)/H)); blocks are
    disjoint and cover [0, n).
    """
    if n < shard.host_count:
        raise DatasetError(f"{n} examples cannot be split over {shard.host_count} hosts")
    lo = n * shard.host_id // shard.host_count
    hi = n * (shard.host_id + 1) // shard.host_count
    return np.arange(lo, hi)


def pad_incomplete_batch(batch: dict, target: int) -> dict:
    """Pad every tensor's leading extent to ``target`` and attach a mask.

    Padding repeats row 0 for "inputs" (and any other non-label keys) so
    degenerate all-zero rows never enter the model; "label" padding is
    the sentinel class 0. "batch_mask" is 1 for real rows, 0 for padding.
    """
    sizes = {k: v.shape[0] for k, v in batch.items() if k != "batch_mask"}
    n = next(iter(sizes.values()))
    if any(s != n for s in sizes.values()):
        raise DatasetError(f"inconsistent leading extents: {sizes}")
    if n > target:
        raise DatasetError(f"batch of {n} rows exceeds target {target}")
    out = {}
    for key, t in batch.items():
        if key == "batch_mask":
            continue
        data = t.data
        if n < target:
            if key == "label":
                pad = np.zeros((target - n,) + data.shape[1:], data.dtype)
            else:
                pad = np.broadcast_to(data[0], (target - n,) + data.shape[1:])
            data = np.concatenate([data, pad], axis=0)
        out[key] = Tensor(data)
    mask = np.zeros(target, np.float32)
    mask[:n] = 1.0
    if "batch_mask" in batch:
        mask[:n] = batch["batch_mask"].data
    out["batch_mask"] = Tensor(mask)
    return out


# ---------------------------------------------------------------------------
# synthetic task generators (each labels itself by construction)


def _blob_centers(key: R.RngKey, k: int, dim: int) -> np.ndarray:
    """Well-separated Gaussian cluster centers (deterministic retry)."""
    scale = 3.0 / np.sqrt(dim)
    for attempt in range(100):
        c = R.normal(R.fold_in(key, attempt), (k, dim)) * scale
        d = np.linalg.norm(c[:, None] - c[None, :], axis=-1)
        if (d + np.eye(k) * 1e9).min() >= 2.0:
            return c
    raise DatasetError("failed to place separated blob centers")


def _gen_blobs(task_key, key, n, config: Config):
    k = config.get("dataset.num_classes", 4)
    shape = tuple(config.get("dataset.input_shape", [2]))
    dim = int(np.prod(shape))
    kl, kn = R.split(key, 2)
    # centers define the task itself, so they derive from the task key
    # and are identical for the train and eval splits
    centers = _blob_centers(task_key, k, dim)
    labels = R.randint(kl, (n,), 0, k)
    x = centers[labels] + 0.3 * R.normal(kn, (n, dim))
    return {
        "inputs": x.reshape((n,) + shape).astype(np.float32),
        "label": labels.astype(np.int64),
    }, k, shape


def _rect(v, size: int) -> tuple:
    """(top, left, height, width) of a rectangle inside a ``size`` square,
    its sides 3 to size // 2 + 1, placed by four uniforms ``v``."""
    h = 3 + int(v[0] * (size // 2 - 2))
    w = 3 + int(v[1] * (size // 2 - 2))
    return int(v[2] * (size - h)), int(v[3] * (size - w)), h, w


def _gen_shapes_segmentation(task_key, key, n, config: Config):
    size = config.get("dataset.image_size", 16)
    keys = R.split(key, n + 1)
    noise = R.normal(keys[0], (n, size, size)) * 0.1
    images = np.zeros((n, size, size), np.float32)
    labels = np.zeros((n, size, size), np.int64)
    yy, xx = np.mgrid[0:size, 0:size]
    for i in range(n):
        vals = R.uniform(keys[i + 1], (8,))
        y0, x0, h, w = _rect(vals[:4], size)  # class 1
        labels[i, y0:y0 + h, x0:x0 + w] = 1
        images[i, y0:y0 + h, x0:x0 + w] = 1.0
        # disk (class 2, drawn on top)
        r = 2 + int(vals[4] * (size // 4))
        cy = r + int(vals[5] * (size - 2 * r))
        cx = r + int(vals[6] * (size - 2 * r))
        disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        labels[i][disk] = 2
        images[i][disk] = -1.0
    images = (images + noise).astype(np.float32)[..., None]
    return {"inputs": images, "label": labels}, 3, (size, size, 1)


def _gen_boxes_detection(task_key, key, n, config: Config):
    size = config.get("dataset.image_size", 16)
    k = config.get("dataset.num_classes", 2)
    max_objects = config.get("dataset.max_objects", 3)
    keys = R.split(key, n + 1)
    noise = R.normal(keys[0], (n, size, size)) * 0.05
    images = np.zeros((n, size, size), np.float32)
    labels = np.full((n, max_objects), k, np.int64)  # class k = no-object
    boxes = np.zeros((n, max_objects, 4), np.float32)
    for i in range(n):
        kc, kn_, kg = R.split(keys[i + 1], 3)
        count = int(R.randint(kc, (), 0, max_objects + 1))
        geom = R.uniform(kg, (max_objects, 4))
        cls = R.randint(kn_, (max_objects,), 0, k)
        for j in range(count):
            y0, x0, h, w = _rect(geom[j], size)
            value = 1.0 if cls[j] == 0 else -1.0
            images[i, y0:y0 + h, x0:x0 + w] = value
            labels[i, j] = cls[j]
            boxes[i, j] = (y0 / size, x0 / size, (y0 + h) / size, (x0 + w) / size)
    images = (images + noise).astype(np.float32)[..., None]
    return {"inputs": images, "label": labels, "boxes": boxes}, k, (size, size, 1)


_GENERATORS = {
    "blobs_classification": _gen_blobs,
    "shapes_segmentation": _gen_shapes_segmentation,
    "boxes_detection": _gen_boxes_detection,
}

_DEFAULT_COUNTS = {"train": 256, "eval": 64}


def available_datasets() -> list[str]:
    return sorted(_GENERATORS)


def build_dataset(name: str, shard: ShardSpec, seed: R.RngKey,
                  config: Config | None = None) -> Dataset:
    """Materialize a synthetic task and wrap it in sharded iterators.

    The train stream is an infinite per-epoch reshuffle of this host's
    shard; the eval iterator covers the host's eval shard exactly once
    per call, padding the final batch.
    """
    gen = _GENERATORS.get(name)
    if gen is None:
        raise DatasetError(
            f"unknown dataset {name!r}; registered: {available_datasets()}")
    config = config or Config()
    n_train = config.get("dataset.num_train_examples", _DEFAULT_COUNTS["train"])
    n_eval = config.get("dataset.num_eval_examples", _DEFAULT_COUNTS["eval"])
    if n_train < 1 or n_eval < 1:
        raise DatasetError("example counts must be >= 1")

    k_task, k_train, k_eval, k_shuffle = R.split(seed, 4)
    train_arrays, num_classes, input_shape = gen(
        k_task, k_train, n_train, config)
    if config.get("dataset.eval_on_train", False):
        eval_arrays = {k: v.copy() for k, v in train_arrays.items()}
        n_eval = n_train
    else:
        eval_arrays, _, _ = gen(k_task, k_eval, n_eval, config)

    meta = DatasetMetaData(
        num_classes=num_classes,
        input_shape=(-1,) + tuple(input_shape),
        num_train_examples=n_train,
        num_eval_examples=n_eval,
    )

    train_idx = shard_indices(n_train, shard)
    eval_idx = shard_indices(n_eval, shard)
    if len(train_idx) == 0 or len(eval_idx) == 0:
        raise DatasetError(f"host {shard.host_id} received an empty shard")
    if shard.host_batch > len(train_idx):
        raise DatasetError(
            f"host batch {shard.host_batch} exceeds shard size {len(train_idx)}")
    train_shard = {k: v[train_idx] for k, v in train_arrays.items()}
    eval_shard = {k: v[eval_idx] for k, v in eval_arrays.items()}
    hb = shard.host_batch

    def train_gen():
        n = len(train_idx)
        epoch = 0
        while True:
            perm = R.permutation(R.fold_in(k_shuffle, epoch), n)
            for start in range(0, n - hb + 1, hb):
                sel = perm[start:start + hb]
                yield {k: Tensor(v[sel]) for k, v in train_shard.items()}
            epoch += 1

    def eval_epoch():
        n = len(eval_idx)
        for start in range(0, n, hb):
            chunk = {k: Tensor(v[start:start + hb]) for k, v in eval_shard.items()}
            yield pad_incomplete_batch(chunk, hb)

    return Dataset(train_iter=train_gen(), eval_iter=eval_epoch, meta_data=meta)
