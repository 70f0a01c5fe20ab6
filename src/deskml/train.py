"""Training loops with simulated multi-host, multi-device data parallelism.

Hosts and devices are simulated in-process. A step concatenates the
host batches in host order and runs them as one batch: one forward, one
backward and one optimizer update, like one SPMD program whose
gradients are averaged across devices. Train batches are never padded
and every loss is a per-example mean, so this is the mean of the device
gradients. Batch norm takes its statistics over the whole step batch
(sync batch norm), so a step depends on the global batch, not on the
topology. Metric tables are sums, normalized after aggregation.

A state's ``params`` and ``opt_state`` stay name -> Tensor dicts, but
each array in them is a view into one contiguous buffer per dtype (the
slots of a dtype share one, ``[m | v]`` under Adam). A step gathers the
gradients into the same layout, so the update is about a dozen numpy
calls over the buffers, not a dozen per array, and it is elementwise,
so its results are the per-array ones bit for bit. Checkpoints store
the same named arrays as before, byte for byte. Only ``train_step``
builds the buffers: it gathers a state whose dicts are not views of
them (plain arrays, from init, a checkpoint or a hand edit) once.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import rng as R
from .checkpoint import (ARRAY_GROUPS, CheckpointError, load_checkpoint,
                         save_checkpoint)
from .config import Config, ConfigError
from .data import DatasetError, ShardSpec, build_dataset
from .metric_io import MetricWriter
from .models import ModelContract, ModelError, get_model_cls, model_defaults
from .tensor import Tensor, value_and_grad


class TrainError(Exception):
    pass


# run_trainer raises each refusal made before the workdir exists as a
# subclass of its module's error that is also a ConfigError (CLI exit 3)
_REFUSED = {base: type(base.__name__, (base, ConfigError), {})
            for base in (TrainError, ModelError, DatasetError)}


@dataclass(frozen=True)
class Topology:
    host_count: int = 1
    devices_per_host: int = 1

    def __post_init__(self):
        if self.host_count < 1 or self.devices_per_host < 1:
            raise TrainError("topology extents must be >= 1")


# the state slots each optimizer kind keeps per parameter
_SLOTS = {"sgd": (), "sgd_momentum": ("m",), "adam": ("m", "v")}


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"  # a key of _SLOTS
    lr: float | Callable = 1e-3
    momentum: float = 0.9
    grad_clip: float | None = None

    def __post_init__(self):
        if self.kind not in _SLOTS:
            raise TrainError(f"unknown optimizer kind {self.kind!r}; "
                             f"have {sorted(_SLOTS)}")
        clip = self.grad_clip
        # read with no default, so Config's kind rule leaves it to this check
        if clip is not None and (isinstance(clip, bool) or not isinstance(clip, (int, float))):
            raise TrainError(f"optimizer.grad_clip must be a number, got {clip!r}")
        if clip is not None and not 0 < clip < np.inf:  # null clips nothing
            raise TrainError(f"optimizer.grad_clip must be > 0 and finite, got {clip}")
        self.lr_at(0)  # lr_at checks a schedule again at every step
        if self.kind == "sgd_momentum" and not 0 <= self.momentum < 1:
            raise TrainError(
                f"optimizer.momentum must be in [0, 1), got {self.momentum}")

    def lr_at(self, step: int) -> float:
        lr = self.lr(step) if callable(self.lr) else self.lr
        if not lr >= 0:
            raise TrainError(f"negative or NaN learning rate {lr} at step {step}")
        if lr == np.inf:
            raise TrainError(f"infinite learning rate at step {step}")
        # a Python float, which numpy does not let widen a float32 update
        return float(lr)


# Adam's moment decay rates and denominator epsilon (Kingma & Ba defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def cosine_decay(base_lr: float, total_steps: int) -> Callable:
    def schedule(step: int) -> float:
        frac = min(step / max(total_steps, 1), 1.0)
        return base_lr * 0.5 * (1.0 + np.cos(np.pi * frac))
    return schedule


@dataclass(frozen=True)
class TrainState:
    step: int
    params: dict
    model_state: dict
    opt_state: dict
    rng: R.RngKey
    # the run's seed and config (see ``_run_fingerprint``), saved with
    # each checkpoint so a resume under another config is refused
    fingerprint: dict | None = None


class _Layout:
    """Where each array of a name -> Tensor dict lies in the flat buffer
    of its dtype: ``dtypes`` and ``sizes`` give the buffers, ``spans``
    each name's (name, buffer index, start, stop, shape), in dict order.

    A buffer holds one segment per key suffix, each laid out alike: the
    params have the one suffix ``""``, the slots of Adam ``("/m", "/v")``.
    """

    def __init__(self, params: dict):
        index, self.sizes, self.spans = {}, [], []
        for name, t in params.items():
            i = index.setdefault(t.data.dtype, len(index))
            if i == len(self.sizes):
                self.sizes.append(0)
            start = self.sizes[i]
            self.sizes[i] += t.data.size
            self.spans.append((name, i, start, self.sizes[i], t.data.shape))
        self.dtypes = list(index)
        self._cuts = {}

    def cuts(self, suffixes=("",)) -> list:
        """(name + suffix, buffer index, start, stop, shape) for each name
        and suffix, in dict order; worked out once per suffixes."""
        if suffixes not in self._cuts:
            self._cuts[suffixes] = [
                (name + s, i, k * self.sizes[i] + start, k * self.sizes[i] + stop, shape)
                for name, i, start, stop, shape in self.spans
                for k, s in enumerate(suffixes)]
        return self._cuts[suffixes]

    def views(self, bufs: list, suffixes=("",)) -> list:
        """Each entry's view into ``bufs``, in ``cuts`` order."""
        return [bufs[i][a:b].reshape(shape) for _, i, a, b, shape in self.cuts(suffixes)]

    def gather(self, tensors: dict, suffixes=("",)) -> list:
        """A copy of ``tensors[name + suffix]`` for each suffix and name,
        in that order, as one flat buffer per dtype."""
        return [np.concatenate(
            # the empty head lets a kind without slots (sgd) gather nothing
            [np.empty(0, dtype)] + [tensors[name + s].data for s in suffixes
                                    for name, j, *_ in self.spans if j == i],
            axis=None, dtype=dtype) for i, dtype in enumerate(self.dtypes)]


class _Flat(dict):
    """A name -> Tensor dict whose arrays are views into ``bufs``, one
    contiguous buffer per dtype of ``layout``."""

    __slots__ = ("layout", "bufs", "suffixes", "_views")

    def __init__(self, layout: _Layout, bufs: list, suffixes=("",)):
        self.layout, self.bufs, self.suffixes = layout, bufs, suffixes
        self._views = layout.views(bufs, suffixes)
        super().__init__(zip([c[0] for c in layout.cuts(suffixes)],
                             map(Tensor, self._views)))

    def __reduce__(self):
        # a copy or a pickle holds arrays that are no longer views of a
        # buffer, so it is a plain dict, which the trainer gathers again
        return dict, (dict(self),)

    def intact(self) -> bool:
        """Whether every entry still holds the view it was built with:
        none was replaced, added or removed since."""
        return (len(self) == len(self._views)
                and all(t.data is v for t, v in zip(self.values(), self._views)))


def _flat_state(params: dict, opt_state: dict, slots) -> tuple:
    """``params`` and their optimizer ``slots`` as ``_Flat`` dicts of one
    layout: as they are when they already are, else gathered once into
    new buffers (a state from ``init_train_state`` or ``load_checkpoint``,
    or one built or edited by hand). The slots must be exactly ``slots``
    of each parameter, each in its parameter's shape and dtype."""
    suffixes = tuple(f"/{s}" for s in slots)
    if (isinstance(params, _Flat) and isinstance(opt_state, _Flat)
            and opt_state.layout is params.layout
            and opt_state.suffixes == suffixes
            and params.intact() and opt_state.intact()):
        return params, opt_state
    want = {name + s: (p.data.shape, p.data.dtype)
            for name, p in params.items() for s in suffixes}
    if {k: (t.data.shape, t.data.dtype) for k, t in opt_state.items()} != want:
        raise TrainError(f"the optimizer state does not hold the slots {slots} "
                         "of every parameter, in its shape and dtype")
    layout = _Layout(params)
    return (_Flat(layout, layout.gather(params)),
            _Flat(layout, layout.gather(opt_state, suffixes), suffixes))


def _fresh(c: float, a) -> np.ndarray:
    """``c * a`` in ``a``'s dtype, as a new array even when ``a`` is 0-d."""
    return np.multiply(c, a, out=np.empty_like(a))


def _apply_update(params: _Flat, g: list, opt_state: _Flat,
                  opt: OptimizerSpec, step: int):
    """Apply the mean gradients ``g``, one flat buffer per dtype of
    ``params.layout`` (``_Layout.gather``); returns the new params and
    optimizer slots as ``_Flat`` dicts of new buffers, in the same
    dtypes. The arithmetic runs once over each dtype's buffer. Each
    result (the slots, Adam's denominator, the update, which then
    becomes the new parameters) is one new buffer and the rest runs in
    place on those, so the params, slots and gradients passed in are
    never written."""
    lr = opt.lr_at(step)
    layout = params.layout
    if opt.grad_clip is not None:
        # the norm alone accumulates in float64, whatever the dtype, one
        # sum per parameter in params order
        norm = np.sqrt(sum(float(np.square(v, dtype=np.float64).sum())
                           for v in layout.views(g)))
        if norm > opt.grad_clip:
            scale = float(opt.grad_clip / norm)
            g = [b * scale for b in g]
    new_params, new_slots = [], []
    for p, old, gi, n in zip(params.bufs, opt_state.bufs, g, layout.sizes):
        s = np.empty_like(old)  # the new slots: [m] or [m | v]
        if opt.kind == "sgd":
            upd = _fresh(lr, gi)
        elif opt.kind == "sgd_momentum":
            np.multiply(opt.momentum, old, out=s)
            s += gi
            upd = _fresh(lr, s)
        else:  # adam
            t = step + 1
            m, v = s[:n], s[n:]
            upd = _fresh(1 - _BETA1, gi)  # scratch until the update proper
            np.multiply(_BETA1, old[:n], out=m)
            m += upd
            d = _fresh(1 - _BETA2, gi)
            d *= gi
            np.multiply(_BETA2, old[n:], out=v)
            v += d
            # upd = lr * (m / (1 - B1^t)) / (sqrt(v / (1 - B2^t)) + eps)
            np.divide(v, 1 - _BETA2 ** t, out=d)
            np.sqrt(d, out=d)
            d += _EPS
            np.divide(m, 1 - _BETA1 ** t, out=upd)
            upd *= lr
            upd /= d
        new_params.append(np.subtract(p, upd, out=upd))
        new_slots.append(s)
    return (_Flat(layout, new_params),
            _Flat(layout, new_slots, opt_state.suffixes))


def init_train_state(contract: ModelContract, opt: OptimizerSpec,
                     rng: R.RngKey) -> TrainState:
    """Step 0: the model's params and state from its ``init``, fresh
    optimizer slots, and the rng the steps draw from."""
    arch = contract.build_model()
    k_init, k_state = R.split(rng, 2)
    params, model_state = arch.init(k_init)
    return TrainState(
        step=0,
        params=params,
        model_state=model_state,
        opt_state={f"{name}/{slot}": Tensor(np.zeros_like(p.data))
                   for name, p in params.items() for slot in _SLOTS[opt.kind]},
        rng=k_state,
    )


def _concat_batches(host_batches: list) -> dict:
    """The host batches as one batch, rows in host order."""
    if len(host_batches) == 1:
        return host_batches[0]
    return {k: Tensor(np.concatenate([b[k].data for b in host_batches]))
            for k in host_batches[0]}


def _refuse_non_finite(what: str, layout: _Layout, bufs: list, step: int, suffixes=("",)):
    """Name the first entry of ``bufs``, in ``layout.cuts`` order, that is not all finite."""
    if not all(np.isfinite(b).all() for b in bufs):
        cuts, views = layout.cuts(suffixes), layout.views(bufs, suffixes)
        name = next(c[0] for c, v in zip(cuts, views) if not np.isfinite(v).all())
        raise TrainError(f"non-finite {what} {name!r} at step {step}")


def _batch_metrics(metric_fn, outputs, batch: dict) -> dict:
    """``metric_fn(outputs, **batch)`` over every batch key but ``inputs``."""
    return metric_fn(outputs, **{k: v for k, v in batch.items() if k != "inputs"})


def train_step(state: TrainState, host_batches: list, topology: Topology,
               contract: ModelContract, opt: OptimizerSpec):
    """One synchronous data-parallel update over the concatenated host
    batches, one per host; returns (new_state, MetricTable)."""
    if len(host_batches) != topology.host_count:
        raise TrainError(f"expected {topology.host_count} host batches, "
                         f"got {len(host_batches)}")
    arch = contract.build_model()
    batch = _concat_batches(host_batches)
    key, new_rng = R.split(state.rng, 2)
    stash = {}

    def objective(p):
        stash["outputs"], stash["model_state"] = arch.apply(
            p, state.model_state, batch["inputs"], train=True, rng=key)
        return contract.loss_fn(stash["outputs"], batch)

    loss, grads = value_and_grad(objective, state.params)
    if not np.isfinite(loss.item()):
        raise TrainError(f"non-finite loss at step {state.step}")
    # the outputs hold the whole tape, and the per-name gradients are
    # copied into g: drop both before the update runs. A state that is
    # not flat yet is gathered after the tape is gone, not beside it
    table = _batch_metrics(contract.get_metrics_fn(), stash.pop("outputs"), batch)
    params, opt_state = _flat_state(state.params, state.opt_state,
                                    _SLOTS[opt.kind])
    g = params.layout.gather(grads)
    del grads
    _refuse_non_finite("gradient for", params.layout, g, state.step)
    new_params, new_opt = _apply_update(params, g, opt_state, opt, state.step)
    # a finite gradient can still overflow a slot (Adam's v squares it)
    _refuse_non_finite("optimizer slot", new_opt.layout, new_opt.bufs, state.step,
                       new_opt.suffixes)
    new_state = replace(
        state,
        step=state.step + 1,
        params=new_params,
        model_state=stash["model_state"],
        opt_state=new_opt,
        rng=new_rng,
    )
    return new_state, table


def eval_step(state: TrainState, host_batches: list,
              contract: ModelContract) -> dict:
    """Pure evaluation of the concatenated host batches; returns a
    MetricTable."""
    batch = _concat_batches(host_batches)
    outputs, _ = contract.build_model().apply(
        state.params, state.model_state, batch["inputs"], train=False)
    return _batch_metrics(contract.get_metrics_fn(), outputs, batch)


def aggregate_metrics(tables: list) -> dict:
    """Componentwise-sum the tables, then normalize each metric."""
    if not tables:
        raise TrainError("no metric tables to aggregate")
    keys = set(tables[0])
    for t in tables[1:]:
        if set(t) != keys:
            missing = keys.symmetric_difference(t)
            raise TrainError(f"metric tables disagree on keys: {sorted(missing)}")
    out = {}
    for name in sorted(keys):
        value = sum(t[name][0] for t in tables)
        norm = sum(t[name][1] for t in tables)
        if norm <= 0:
            raise TrainError(f"metric {name!r} has zero total normalizer")
        out[name] = value / norm
    return out


def _check_same_layout(fresh: TrainState, loaded: TrainState, path: str):
    """Refuse a checkpoint whose arrays differ from the model's in name,
    shape or dtype (e.g. one written under another ``model.hidden``)."""
    def layout(state):
        return {f"{group} {name!r}": f"{t.data.dtype}{list(t.data.shape)}"
                for group in ARRAY_GROUPS
                for name, t in getattr(state, group).items()}

    want, got = layout(fresh), layout(loaded)
    for key in sorted(want.keys() | got.keys()):
        if want.get(key) != got.get(key):
            raise TrainError(f"{path}: {key} is {got.get(key, 'absent')} in the "
                             f"checkpoint but {want.get(key, 'absent')} in the model")


def _run_fingerprint(config: Config, seed: int) -> dict:
    """The seed and the config as dotted keys, in the JSON form a
    checkpoint stores. ``total_steps`` is left out, so a run can be
    extended, unless a cosine schedule spans it."""
    keep_steps = config.get("optimizer.cosine_decay", False)
    flat = {path: value for path, value in config.leaves()
            if keep_steps or path != "total_steps"}
    return json.loads(json.dumps({"seed": seed, "config": flat}))


def _check_same_run(fresh: TrainState, loaded: TrainState, path: str):
    """Refuse a checkpoint written under another seed or config."""
    want, got = fresh.fingerprint, loaded.fingerprint
    if got is None:
        raise TrainError(f"{path}: the checkpoint records no config")
    if want["seed"] != got["seed"]:
        raise TrainError(f"{path}: seed is {got['seed']} in the checkpoint "
                         f"but {want['seed']} in this run")

    def show(values, key):
        return repr(values[key]) if key in values else "absent"

    want, got = want["config"], got["config"]
    for key in sorted(want.keys() | got.keys()):
        if key not in want or key not in got or want[key] != got[key]:
            raise TrainError(f"{path}: config key {key!r} is {show(got, key)} "
                             f"in the checkpoint but {show(want, key)} in this run")


def _truncate_records(path: str, step: int) -> int:
    """Cut a metrics file after its last whole record at or before
    ``step``; returns the number of records kept."""
    count = size = 0
    if os.path.exists(path):
        with open(path, "rb") as f:
            for line in f:
                if not line.endswith(b"\n") or json.loads(line)["step"] > step:
                    break
                count += 1
                size += len(line)
        os.truncate(path, size)
    return count


# glibc mallopt parameters, and the values the trainer sets: 32 MiB is
# the ceiling of glibc's own dynamic mmap threshold on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 1 << 30


def _keep_freed_memory() -> bool:
    """Tell glibc's malloc to keep freed memory mapped; returns whether
    both settings took.

    By default glibc unmaps a freed large array and trims the free top of
    the heap, so each train step faults the memory the last one freed
    back in. Raising the mmap threshold to 32 MiB puts a step's arrays on
    the heap, and raising the trim threshold to 1 GiB keeps the heap's
    free top, so later steps reuse the same pages. Both are needed:
    setting the trim threshold alone also freezes the mmap threshold at
    its 128 KiB start, and every large array then gets a fresh ``mmap``.

    The setting is process-wide and cannot be undone: glibc has no call
    that turns its dynamic mmap threshold back on. Off glibc, or where
    ``mallopt`` is missing, nothing is done and False is returned.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    # mallopt returns 1 on success and 0 on error; the trim threshold is
    # left alone when the mmap threshold could not be raised
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


def _newest_checkpoint(workdir: str):
    """(path, state) of the newest ``ckpt_<digits>.bin`` that loads, or
    None. Only reads: a workdir that is no directory holds none."""
    if not os.path.isdir(workdir):
        return None
    names = (re.fullmatch(r"ckpt_([0-9]+)\.bin", f) for f in os.listdir(workdir))
    for _, fname in sorted(((int(m[1]), m[0]) for m in names if m), reverse=True):
        path = os.path.join(workdir, fname)
        try:
            return path, load_checkpoint(path)
        except CheckpointError:
            continue
    return None


_TRAINER_KINDS = ("classification", "segmentation", "detection")


def run_trainer(kind: str, config: Config, workdir: str,
                seed: int = 0, stop_when: Callable | None = None) -> dict:
    """Full training loop; returns the final aggregated eval metrics.

    The model's registered defaults fill in the keys ``config`` leaves
    out. Writes ``<workdir>/metrics.jsonl`` (records numbered in order,
    so identical runs are byte-identical) and ``ckpt_<step>.bin`` at
    every eval and at the end. On a workdir that already holds
    checkpoints (files named ``ckpt_<digits>.bin``; any other name is
    left alone) it resumes from the newest one that loads: the train
    streams start at its step, nothing is replayed, and ``metrics.jsonl``
    is truncated to that step, so the finished files equal those of an
    uninterrupted run; when that checkpoint is at ``total_steps`` the
    run is finished, and its final eval is recomputed and returned with
    nothing trained or written. Config is checked before the workdir is
    made: ``Config.get`` refuses a value of the wrong kind or outside its
    range with a ``ConfigError``, and a check across values (a shape, a
    name, keys nothing reads) raises its module's error as one. A
    checkpoint written under another seed, or a config differing in more
    than ``total_steps`` (in that too under ``optimizer.cosine_decay``),
    or at a step past ``total_steps``, is refused later with a plain
    ``TrainError``. ``stop_when`` is checked against eval metrics to
    allow stopping as soon as a target is reached. On glibc, just before
    the first step, it tells malloc to keep freed memory mapped for the
    rest of the process (see ``_keep_freed_memory``).
    """
    try:
        if kind not in _TRAINER_KINDS:
            raise TrainError(f"unknown trainer kind {kind!r}; have {_TRAINER_KINDS}")
        config = config.with_defaults(model_defaults(config.require("model.name")))

        topology = Topology(
            host_count=config.get("topology.host_count", 1, within="[1, inf)"),
            devices_per_host=config.get("topology.devices_per_host", 1, within="[1, inf)"),
        )
        per_device_batch = config.get("batch_size", 32, within="[1, inf)")
        total_steps = config.get("total_steps", 200, within="[0, inf)")
        eval_every = config.get("eval_every", max(total_steps // 4, 1), within="[1, inf)")

        found = _newest_checkpoint(workdir)  # checked once the workdir is made
        resume_step = found[1].step if found else 0
        root = R.RngKey.from_seed(seed)
        k_data, k_init = R.split(root, 2)
        datasets = [
            build_dataset(
                config.require("dataset.name"),
                ShardSpec(h, topology.host_count, topology.devices_per_host,
                          per_device_batch),
                k_data, config, start_step=resume_step)
            for h in range(topology.host_count)
        ]
        meta = datasets[0].meta_data

        factory = get_model_cls(config.require("model.name"))
        contract = factory(config, meta)

        lr = config.get("optimizer.lr", 1e-3)
        opt_kind = config.get("optimizer.kind", "adam")
        opt = OptimizerSpec(
            kind=opt_kind,
            lr=(cosine_decay(lr, total_steps)
                if config.get("optimizer.cosine_decay", False) else lr),
            grad_clip=config.get("optimizer.grad_clip"),
            # only sgd_momentum reads a momentum: under another kind the key
            # stays unread, and is refused below
            **({"momentum": config.get("optimizer.momentum", 0.9)}
               if opt_kind == "sgd_momentum" else {}),
        )

        state = init_train_state(contract, opt, k_init)
        unread = config.unread()
        if unread:
            raise TrainError(f"unknown config key {unread[0]!r}: nothing reads it")
        state = replace(state, fingerprint=_run_fingerprint(config, seed))
    except tuple(_REFUSED) as e:
        base = next(b for b in _REFUSED if isinstance(e, b))
        raise _REFUSED[base](*e.args) from e

    os.makedirs(workdir, exist_ok=True)
    resumed_at = -1
    if found:
        path, loaded = found
        _check_same_layout(state, loaded, path)
        _check_same_run(state, loaded, path)
        if loaded.step > total_steps:
            raise TrainError(f"{path}: the checkpoint is at step {loaded.step}, "
                             f"past total_steps {total_steps}")
        state = loaded
        resumed_at = state.step

    def run_eval(st: TrainState) -> dict:
        tables = []
        for ds in datasets:
            for host_batch in ds.eval_iter():
                tables.append(eval_step(st, [host_batch], contract))
        return aggregate_metrics(tables)

    if resumed_at == total_steps:  # a finished run: its final eval again
        return run_eval(state)

    # keep the records up to the resumed step (none on a fresh start); the
    # writer numbers records on from there, so a resumed file continues
    # an uninterrupted run's exactly
    metrics_path = os.path.join(workdir, "metrics.jsonl")
    kept = _truncate_records(metrics_path, resumed_at)
    # after set-up, so the data synthesis' transient arrays are not kept
    # on the heap; before the first step, so no step faults its memory in
    _keep_freed_memory()
    final_metrics = {}
    with open(metrics_path, "a") as sink:
        writer = MetricWriter(sink, start=kept)
        train_tables = []

        def do_eval(step):
            nonlocal final_metrics
            final_metrics = run_eval(state)
            writer.write(step, {f"eval_{k}": v for k, v in final_metrics.items()})
            save_checkpoint(state, os.path.join(workdir, f"ckpt_{step}.bin"))

        for _ in range(total_steps - state.step):
            state, table = train_step(
                state, [next(ds.train_iter) for ds in datasets], topology,
                contract, opt)
            train_tables.append(table)
            if state.step % eval_every == 0 or state.step == total_steps:
                writer.write(state.step, {
                    f"train_{k}": v
                    for k, v in aggregate_metrics(train_tables).items()
                })
                train_tables = []
                do_eval(state.step)
                if stop_when is not None and stop_when(final_metrics):
                    break
        if total_steps == 0:
            do_eval(0)
    return final_metrics
