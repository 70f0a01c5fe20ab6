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
    disjoint, non-empty and cover [0, n).
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
    sizes = {k: v.shape[0] for k, v in batch.items()}
    n = next(iter(sizes.values()))
    if any(s != n for s in sizes.values()):
        raise DatasetError(f"inconsistent leading extents: {sizes}")
    if n > target:
        raise DatasetError(f"batch of {n} rows exceeds target {target}")
    out = {}
    for key, t in batch.items():
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
    k = config.get("dataset.num_classes", 4, within="[1, inf)")
    shape = tuple(config.get("dataset.input_shape", [2], within="[1, inf)"))
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


def _image_keys(key: R.RngKey, n: int):
    """``split(key, n + 1)`` without building its keys: the first child
    (the noise key), then the (hi, lo) word arrays of the other ``n``, one
    per image. Every image's stream depends only on its key, so drawing
    all of them in one array call gives each the bits it would get alone."""
    lane = np.array([key.hi], np.uint64), np.array([key.lo], np.uint64)
    h, l = R._threefry2x64(*lane, range(n + 1), 1)  # tag 1: split's blocks
    return R.RngKey(h[0, 0], l[0, 0]), h[0, 1:], l[0, 1:]


def _uniform_lanes(k0, k1, n: int) -> np.ndarray:
    """(lanes, n) array: row i is ``uniform(RngKey(k0[i], k1[i]), (n,))``."""
    return R._unit(R._random_bits(k0, k1, n))


def _rect(v: np.ndarray, size: int) -> tuple:
    """(top, left, height, width) int arrays of rectangles inside a
    ``size`` square, their sides 3 to size // 2 + 1, placed by the
    uniforms ``v[..., :4]``. ``astype`` truncates toward zero, as ``int``
    does."""
    h = 3 + (v[..., 0] * (size // 2 - 2)).astype(np.int64)
    w = 3 + (v[..., 1] * (size // 2 - 2)).astype(np.int64)
    top = (v[..., 2] * (size - h)).astype(np.int64)
    left = (v[..., 3] * (size - w)).astype(np.int64)
    return top, left, h, w


def _rect_mask(top, left, h, w, size: int) -> np.ndarray:
    """(n, size, size) bool: the pixels of each image's rectangle."""
    p = np.arange(size)
    rows = (p >= top[:, None]) & (p < (top + h)[:, None])
    cols = (p >= left[:, None]) & (p < (left + w)[:, None])
    return rows[:, :, None] & cols[:, None, :]


def _gen_shapes_segmentation(task_key, key, n, config: Config):
    size = config.get("dataset.image_size", 16, within="[3, inf)")  # the smallest shape is 3 wide
    k_noise, k0, k1 = _image_keys(key, n)
    noise = R.normal(k_noise, (n, size, size)) * 0.1
    vals = _uniform_lanes(k0, k1, 8)
    rect = _rect_mask(*_rect(vals, size), size)  # class 1
    # disk (class 2, drawn on top)
    r = 2 + (vals[:, 4] * (size // 4)).astype(np.int64)
    cy = r + (vals[:, 5] * (size - 2 * r)).astype(np.int64)
    cx = r + (vals[:, 6] * (size - 2 * r)).astype(np.int64)
    p = np.arange(size)
    dy2, dx2 = (p - cy[:, None]) ** 2, (p - cx[:, None]) ** 2
    disk = dy2[:, :, None] + dx2[:, None, :] <= (r * r)[:, None, None]
    labels = rect.astype(np.int64)
    labels[disk] = 2
    images = rect.astype(np.float32)
    images[disk] = -1.0
    images = (images + noise).astype(np.float32)[..., None]
    return {"inputs": images, "label": labels}, 3, (size, size, 1)


def _gen_boxes_detection(task_key, key, n, config: Config):
    size = config.get("dataset.image_size", 16, within="[3, inf)")
    k = config.get("dataset.num_classes", 2, within="[1, inf)")
    max_objects = config.get("dataset.max_objects", 3, within="[0, inf)")
    k_noise, k0, k1 = _image_keys(key, n)
    noise = R.normal(k_noise, (n, size, size)) * 0.05
    # each image's key splits into its count, class and geometry keys
    kh, kl = R._threefry2x64(k0, k1, range(3), 1)  # split(key, 3) per lane
    count = np.floor(_uniform_lanes(kh[:, 0], kl[:, 0], 1)[:, 0]
                     * (max_objects + 1)).astype(np.int64)
    cls = np.floor(_uniform_lanes(kh[:, 1], kl[:, 1], max_objects) * k).astype(np.int64)
    geom = _uniform_lanes(kh[:, 2], kl[:, 2], 4 * max_objects).reshape(n, max_objects, 4)
    top, left, h, w = _rect(geom, size)
    present = np.arange(max_objects) < count[:, None]
    labels = np.where(present, cls, k)  # class k = no-object
    corners = np.stack([top, left, top + h, left + w], axis=-1) / size
    boxes = np.where(present[..., None], corners, 0.0).astype(np.float32)
    images = np.zeros((n, size, size), np.float32)
    for j in range(max_objects):  # in slot order: later objects paint on top
        mask = _rect_mask(top[:, j], left[:, j], h[:, j], w[:, j], size)
        mask &= present[:, j, None, None]
        value = np.where(cls[:, j] == 0, 1.0, -1.0)[:, None, None]
        np.copyto(images, value, where=mask)
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
                  config: Config | None = None, start_step: int = 0) -> Dataset:
    """Materialize a synthetic task and wrap it in sharded iterators.

    The train stream is an infinite per-epoch reshuffle of this host's
    shard, starting at its ``start_step``-th batch without drawing the
    ones before; the eval iterator covers the host's eval shard exactly
    once per call, padding the final batch. A ``dataset.*`` value of the
    wrong kind or outside its range is refused by ``Config.get`` with a
    ``ConfigError``; an unknown name or a shard the examples cannot fill
    raises a ``DatasetError``.
    """
    gen = _GENERATORS.get(name)
    if gen is None:
        raise DatasetError(
            f"unknown dataset {name!r}; registered: {available_datasets()}")
    config = config or Config()
    n_train = config.get("dataset.num_train_examples", _DEFAULT_COUNTS["train"],
                         within="[1, inf)")
    n_eval = config.get("dataset.num_eval_examples", _DEFAULT_COUNTS["eval"],
                        within="[1, inf)")

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
    if shard.host_batch > len(train_idx):
        raise DatasetError(
            f"host batch {shard.host_batch} exceeds shard size {len(train_idx)}")
    train_shard = {k: v[train_idx] for k, v in train_arrays.items()}
    eval_shard = {k: v[eval_idx] for k, v in eval_arrays.items()}
    hb = shard.host_batch

    def train_gen():
        n = len(train_idx)
        per_epoch = n // hb  # the incomplete last batch is dropped
        epoch, offset = divmod(start_step, per_epoch)
        while True:
            perm = R.permutation(R.fold_in(k_shuffle, epoch), n)
            for start in range(offset * hb, per_epoch * hb, hb):
                sel = perm[start:start + hb]
                yield {k: Tensor(v[sel]) for k, v in train_shard.items()}
            epoch, offset = epoch + 1, 0

    def eval_epoch():
        n = len(eval_idx)
        for start in range(0, n, hb):
            chunk = {k: Tensor(v[start:start + hb]) for k, v in eval_shard.items()}
            yield pad_incomplete_batch(chunk, hb)

    return Dataset(train_iter=train_gen(), eval_iter=eval_epoch, meta_data=meta)
