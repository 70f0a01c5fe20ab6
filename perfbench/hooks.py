"""Timing hooks installed around deskml's public functions.

Nothing under ``src/`` changes: the hooks replace module attributes at
run time, which works because deskml looks these names up on their
module at call time (``T.conv2d``, ``R.split``, ``L.layer_norm``, the
globals ``train_step`` and ``value_and_grad`` inside ``deskml.train``).

``StepTimer`` is the untraced run's only hook: it times ``run_trainer``'s
calls to ``train_step`` and ``eval_step``. ``Tracer`` is the traced run:
it records a span around each wrapped call. All times are process CPU
seconds (``time.process_time``); ``SpeedProbe`` reads how fast the core
runs, so that they can be scaled to one reference speed.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from array import array

import numpy as np

clock = time.process_time

# tensor ops traced forward and backward, with their FLOP counts
TRACED_OPS = ("conv2d", "matmul", "gelu", "power", "softmax", "log_softmax",
              "max_pool2d", "pad2d", "add", "mul")
TRACED_LAYERS = ("layer_norm", "multi_head_attention", "transformer_block",
                 "decoder_block", "double_conv", "dropout")
TRACED_RNG = ("uniform", "split", "normal")


def _matmul_flops(args, out):
    a = args[0]
    return 2.0 * out.size * a.shape[-1]


def _conv2d_flops(args, out):
    kh, kw, cin, _ = args[1].shape
    return 2.0 * out.size * kh * kw * cin


_FLOPS = {"matmul": _matmul_flops, "conv2d": _conv2d_flops}


# CPU seconds one SpeedProbe.measure() call takes at the reference speed
REF_CPU_S = 1e-3


class SpeedProbe:
    """A fixed kernel whose CPU time tells how fast the core runs now.

    On a shared VM the host changes a vCPU's speed (clock, load on the
    physical core) in phases that last from a fraction of a second to
    minutes, and CPU time changes with it: one ViT train step took
    27 ms of CPU in one phase and 48 ms in the next. The kernel mixes
    what deskml's steps do (interpreter loops, small numpy calls, a BLAS
    GEMM, a memory stream). Its CPU time, read next to the step it
    scales, measures the core's speed at that moment; the ratio of the
    two moves about 3% where either alone moves 30%.
    """

    def __init__(self):
        gen = np.random.default_rng(0)
        self._small = gen.random((32, 32), dtype=np.float32)
        self._gemm = gen.random((128, 128), dtype=np.float32)
        self._stream = gen.random(1 << 18, dtype=np.float32)
        self.total_cpu = 0.0  # CPU spent in measure(), to subtract later

    def measure(self) -> float:
        t0 = clock()
        acc = 0
        for i in range(1500):
            acc += i * i
        for _ in range(50):
            np.add(self._small, self._small)
            self._small @ self._small
        for _ in range(4):
            self._gemm @ self._gemm
        for _ in range(2):
            self._stream.sum()
        dt = clock() - t0
        self.total_cpu += dt
        return dt


class StepTimer:
    """CPU time and example counts of every train_step / eval_step call.

    Around each call (outside the timed region) it reads the
    ``SpeedProbe`` before and after, and keeps the mean of the two as
    the call's probe time.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.start_ref = probe.measure()  # core speed at process start
        self.setup_s = None  # process CPU at the first train_step call
        self.setup_probe_cpu = None  # of which the probe took this much
        self.setup_ref = None  # probe time over set-up
        self.train_cpu: list[float] = []
        self.train_ref: list[float] = []
        self.train_examples: list[int] = []
        self.eval_cpu: list[float] = []
        self.eval_ref: list[float] = []
        self.eval_examples: list[int] = []

    def _timed(self, fn, cpu: list, ref: list, *args):
        before = self.probe.measure()
        t0 = clock()
        out = fn(*args)
        cpu.append(clock() - t0)
        ref.append(0.5 * (before + self.probe.measure()))
        return out

    def install(self):
        from deskml import train as train_module

        train_step, eval_step = train_module.train_step, train_module.eval_step

        @functools.wraps(train_step)
        def timed_train_step(state, device_batches, *args):
            if self.setup_s is None:
                self.setup_s = clock()
                self.setup_probe_cpu = self.probe.total_cpu
                self.setup_ref = 0.5 * (self.start_ref + self.probe.measure())
            out = self._timed(train_step, self.train_cpu, self.train_ref,
                              state, device_batches, *args)
            self.train_examples.append(
                sum(b["inputs"].shape[0] for b in device_batches))
            return out

        @functools.wraps(eval_step)
        def timed_eval_step(state, device_batches, *args):
            out = self._timed(eval_step, self.eval_cpu, self.eval_ref,
                              state, device_batches, *args)
            self.eval_examples.append(int(sum(
                b["batch_mask"].data.sum() if "batch_mask" in b
                else b["inputs"].shape[0] for b in device_batches)))
            return out

        train_module.train_step = timed_train_step
        train_module.eval_step = timed_eval_step

    def to_dict(self) -> dict:
        return {"setup_s": self.setup_s,
                "setup_probe_cpu": self.setup_probe_cpu,
                "setup_ref": self.setup_ref,
                "probe_cpu": self.probe.total_cpu,
                "train_cpu": self.train_cpu,
                "train_ref": self.train_ref,
                "train_examples": self.train_examples,
                "eval_cpu": self.eval_cpu,
                "eval_ref": self.eval_ref,
                "eval_examples": self.eval_examples}


class Tracer:
    """In-memory spans: name, start, end and parent, one row per call.

    ``work`` holds the FLOPs of a conv2d/matmul span and ``tape`` the
    number of autodiff tape nodes created while the span was open.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.tape = array("q")
        self.tape_nodes = 0
        self._stack = [-1]
        self.save_bytes: list[int] = []
        self.matches: list[tuple] = []  # (cost matrix, row_to_col, total_cost)
        self.object_images = 0          # train images with >= 1 object

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.tape.append(self.tape_nodes)
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(clock())
        return i

    def _close(self, i: int):
        self.end[i] = clock()
        self._stack.pop()
        self.tape[i] = self.tape_nodes - self.tape[i]

    def wrap(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_op(self, op: str, fn):
        fwd = self._intern(f"tensor.{op}")
        bwd_name = f"tensor.{op}.bwd"
        flops = _FLOPS.get(op)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if flops is not None:
                self.work[i] = flops(args, out)
            # pad2d(x, 0) returns x itself: its rule belongs to another op
            if out._backward is not None and all(out is not a for a in args):
                out._backward = self._wrap_rule(bwd_name, out._backward,
                                                2.0 * self.work[i])
            return out

        return traced

    def _wrap_rule(self, name: str, rule, work: float):
        nid = self._intern(name)

        def traced_rule(g):
            i = self._open(nid)
            try:
                return rule(g)
            finally:
                self._close(i)
                self.work[i] = work

        return traced_rule

    def install(self):
        """Wrap the public functions of every traced layer."""
        from deskml import layers as L
        from deskml import matchers as M
        from deskml import rng as R
        from deskml import tensor as T
        from deskml import train

        for op in TRACED_OPS:
            setattr(T, op, self._wrap_op(op, getattr(T, op)))
        T.backward = self.wrap("tensor.backward", T.backward)
        make = T._make

        def counting_make(data, parents, backward):
            out = make(data, parents, backward)
            if out._backward is not None:
                self.tape_nodes += 1
            return out

        T._make = counting_make

        for name in TRACED_LAYERS:
            setattr(L, name, self.wrap(f"layers.{name}", getattr(L, name)))
        for name in TRACED_RNG:
            setattr(R, name, self.wrap(f"rng.{name}", getattr(R, name)))

        hungarian = self.wrap("matchers.hungarian", M.hungarian)

        def recorded_hungarian(costs):
            asg = hungarian(costs)
            self.matches.append((costs.copy(), asg.row_to_col, asg.total_cost))
            return asg

        M.hungarian = recorded_hungarian

        build_dataset = self.wrap("data.build_dataset", train.build_dataset)

        def traced_build_dataset(*args, **kwargs):
            ds = build_dataset(*args, **kwargs)
            ds.train_iter = _TracedIter(
                self.wrap("data.train_batch", ds.train_iter.__next__))
            return ds

        train.build_dataset = traced_build_dataset

        get_model_cls = train.get_model_cls

        def traced_get_model_cls(name):
            factory = get_model_cls(name)

            def traced_factory(config, meta):
                contract = factory(config, meta)
                metric_factory = contract.get_metrics_fn
                return dataclasses.replace(
                    contract,
                    loss_fn=self.wrap("models.loss", contract.loss_fn),
                    get_metrics_fn=lambda: self.wrap("models.metrics",
                                                     metric_factory()))

            return traced_factory

        train.get_model_cls = traced_get_model_cls

        train.value_and_grad = self.wrap("tensor.value_and_grad",
                                         train.value_and_grad)
        train.load_checkpoint = self.wrap("checkpoint.load",
                                          train.load_checkpoint)
        save = self.wrap("checkpoint.save", train.save_checkpoint)

        def traced_save(state, path):
            save(state, path)
            self.save_bytes.append(os.path.getsize(path))

        train.save_checkpoint = traced_save

        train_step = self.wrap("train.train_step", train.train_step)

        def traced_train_step(state, device_batches, topology, contract, opt):
            out = train_step(state, device_batches, topology, contract, opt)
            if "boxes" in device_batches[0]:  # set prediction: count images
                no_object = contract.meta.num_classes
                self.object_images += sum(
                    int((b["label"].data != no_object).any(axis=-1).sum())
                    for b in device_batches)
            return out

        train.train_step = traced_train_step
        train.eval_step = self.wrap("train.eval_step", train.eval_step)
        train.run_trainer = self.wrap("train.run_trainer", train.run_trainer)

    def arrays(self) -> dict:
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "work": self.work, "tape": self.tape}


class _TracedIter:
    """An iterator whose ``__next__`` is a traced call."""

    def __init__(self, next_fn):
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()
