import copy
import dataclasses
import itertools
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import weakref

import numpy as np
import pytest

from deskml import checkpoint as CK
from deskml import rng as R
from deskml import tensor as T
from deskml import train as TR
from deskml.baselines import build_mlp, build_resnet, build_vit
from deskml.config import Config, ConfigError
from deskml.data import DatasetMetaData
from deskml.models import (ArchitectureHandle, ModelContract,
                           classification_loss, classification_metrics)
from deskml.tensor import Tensor


def mlp_meta(dim=2, k=3):
    return DatasetMetaData(num_classes=k, input_shape=(-1, dim),
                           num_train_examples=64, num_eval_examples=16)


def fresh_state(contract, opt=None, seed=0):
    opt = opt or TR.OptimizerSpec(kind="sgd", lr=0.1)
    return TR.init_train_state(contract, opt, R.RngKey.from_seed(seed))


def quadratic_contract():
    """Minimal contract: loss = 0.5 * sum(w^2), so one SGD step scales w."""
    def init(key):
        return {"w": Tensor(R.normal(key, (4,)))}, {}

    def apply(params, model_state, inputs, train=False, rng=None):
        return params["w"], model_state

    def loss_fn(outputs, batch):
        return T.tsum(outputs * outputs) * 0.5

    def metric_fn(outputs, label, batch_mask=None):
        return {"loss": (float((outputs.data ** 2).sum() / 2), 1.0)}

    return ModelContract(
        meta=mlp_meta(),
        build_model=lambda: ArchitectureHandle(init, apply),
        loss_fn=loss_fn, get_metrics_fn=lambda: metric_fn)


def toy_batch(n=4, dim=2, k=3, seed=0):
    k1, k2 = R.split(R.RngKey.from_seed(seed), 2)
    return {"inputs": Tensor(R.normal(k1, (n, dim)), dtype="f32"),
            "label": Tensor(R.randint(k2, (n,), 0, k))}


def host_batches(batch, hosts):
    """``batch`` cut into ``hosts`` equal host batches, rows in order."""
    per = batch["inputs"].shape[0] // hosts
    return [{k: Tensor(v.data[h * per:(h + 1) * per]) for k, v in batch.items()}
            for h in range(hosts)]


class TestInit:
    def test_mlp_parameter_count(self):
        contract = build_mlp(Config(), mlp_meta())
        state = fresh_state(contract)
        total = sum(int(np.prod(p.data.shape)) for p in state.params.values())
        # 2*64 + 64 + 64*3 + 3
        assert total == 387

    def test_init_deterministic(self):
        contract = build_mlp(Config(), mlp_meta())
        a = fresh_state(contract, seed=5)
        b = fresh_state(contract, seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_adam_slots_created(self):
        contract = build_mlp(Config(), mlp_meta())
        state = fresh_state(contract, TR.OptimizerSpec(kind="adam"))
        assert set(state.opt_state) == {
            f"{n}/{s}" for n in state.params for s in ("m", "v")}

    def test_unknown_optimizer(self):
        contract = build_mlp(Config(), mlp_meta())
        with pytest.raises(TR.TrainError, match="unknown optimizer"):
            fresh_state(contract, TR.OptimizerSpec(kind="nope"))


class TestOptimizer:
    def test_sgd_quadratic_contracts_weights(self):
        contract = quadratic_contract()
        opt = TR.OptimizerSpec(kind="sgd", lr=0.1)
        state = fresh_state(contract, opt)
        w0 = state.params["w"].data.copy()
        topo = TR.Topology(1, 1)
        state, _ = TR.train_step(state, [toy_batch()], topo, contract, opt)
        # grad of 0.5*||w||^2 is w, so w' = w - lr*w = 0.9*w
        assert np.allclose(state.params["w"].data, 0.9 * w0, atol=1e-6)

    def test_zero_lr_is_noop(self):
        contract = build_mlp(Config(), mlp_meta())
        opt = TR.OptimizerSpec(kind="adam", lr=0.0)
        state = fresh_state(contract, opt)
        new, _ = TR.train_step(state, [toy_batch()], TR.Topology(1, 1),
                               contract, opt)
        for name in state.params:
            assert np.array_equal(new.params[name].data, state.params[name].data)
        assert new.step == 1

    def test_momentum_accumulates(self):
        contract = quadratic_contract()
        opt = TR.OptimizerSpec(kind="sgd_momentum", lr=0.1, momentum=0.5)
        state = fresh_state(contract, opt)
        w0 = state.params["w"].data.copy()
        topo = TR.Topology(1, 1)
        state, _ = TR.train_step(state, [toy_batch()], topo, contract, opt)
        state, _ = TR.train_step(state, [toy_batch()], topo, contract, opt)
        # step1: m=w0, w1=0.9*w0. step2: m=0.5*w0+w1, w2=w1-0.1*m
        w2 = 0.9 * w0 - 0.1 * (0.5 * w0 + 0.9 * w0)
        assert np.allclose(state.params["w"].data, w2, atol=1e-6)

    def test_grad_clip_bounds_update(self):
        contract = quadratic_contract()
        opt = TR.OptimizerSpec(kind="sgd", lr=1.0, grad_clip=1e-3)
        state = fresh_state(contract, opt)
        w0 = state.params["w"].data.copy()
        state, _ = TR.train_step(state, [toy_batch()], TR.Topology(1, 1),
                                 contract, opt)
        assert np.abs(state.params["w"].data - w0).max() <= 1e-3 + 1e-9

    def test_cosine_decay_endpoints(self):
        sched = TR.cosine_decay(0.5, 100)
        assert sched(0) == pytest.approx(0.5)
        assert sched(50) == pytest.approx(0.25)
        assert sched(100) == pytest.approx(0.0, abs=1e-12)

    def test_negative_lr_rejected(self):
        with pytest.raises(TR.TrainError, match="negative"):
            TR.OptimizerSpec(kind="sgd", lr=-0.1).lr_at(0)

    @pytest.mark.parametrize("lr", [-1e-3, float("nan"), TR.cosine_decay(-0.1, 10)])
    def test_bad_lr_rejected_when_built(self, lr):
        with pytest.raises(TR.TrainError, match="negative or NaN learning rate"):
            TR.OptimizerSpec(kind="adam", lr=lr)

    def test_schedule_checked_at_every_step(self):
        opt = TR.OptimizerSpec(kind="sgd", lr=lambda step: 0.1 - step)
        assert opt.lr_at(0) == 0.1
        with pytest.raises(TR.TrainError, match="negative or NaN learning rate"):
            opt.lr_at(1)

    @pytest.mark.parametrize("momentum", [1.0, 1.5, -1.0, float("nan")])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        with pytest.raises(TR.TrainError, match=r"momentum must be in \[0, 1\)"):
            TR.OptimizerSpec(kind="sgd_momentum", lr=0.1, momentum=momentum)

    def test_momentum_bounds_apply_to_sgd_momentum_only(self):
        TR.OptimizerSpec(kind="sgd_momentum", lr=0.1, momentum=0.0)
        TR.OptimizerSpec(kind="adam", lr=0.1, momentum=1.5)

    def test_lr_at_is_a_python_float(self):
        # an np.float64 would widen a float32 update
        for lr in (TR.cosine_decay(0.1, 10), 1):
            assert type(TR.OptimizerSpec(kind="sgd", lr=lr).lr_at(3)) is float


def reference_update(params, g, opt_state, opt, step):
    """The update as it was computed before it ran in the parameters'
    dtype: the gradients cast to float64, and each result cast back to
    its parameter's dtype; the clip norm is one sum over the gradients
    concatenated in name order. Returns (params, slots) of arrays."""
    g = {k: v.astype(np.float64) for k, v in g.items()}
    lr = opt.lr(step) if callable(opt.lr) else opt.lr
    if opt.grad_clip is not None:
        flat = np.concatenate([g[k].ravel() for k in sorted(g)])
        norm = np.sqrt((flat * flat).sum())
        if norm > opt.grad_clip:
            g = {k: v * (opt.grad_clip / norm) for k, v in g.items()}
    new_params, new_slots = {}, {}
    for name, p in params.items():
        gi = g[name]
        if opt.kind == "sgd":
            upd = lr * gi
        elif opt.kind == "sgd_momentum":
            m = opt.momentum * opt_state[f"{name}/m"] + gi
            new_slots[f"{name}/m"] = m.astype(p.dtype)
            upd = lr * m
        else:
            t = step + 1
            m = TR._BETA1 * opt_state[f"{name}/m"] + (1 - TR._BETA1) * gi
            v = TR._BETA2 * opt_state[f"{name}/v"] + (1 - TR._BETA2) * gi * gi
            new_slots[f"{name}/m"] = m.astype(p.dtype)
            new_slots[f"{name}/v"] = v.astype(p.dtype)
            mhat = m / (1 - TR._BETA1 ** t)
            vhat = v / (1 - TR._BETA2 ** t)
            upd = lr * mhat / (np.sqrt(vhat) + TR._EPS)
        new_params[name] = (p.astype(np.float64) - upd).astype(p.dtype)
    return new_params, new_slots


def hand_built(params: dict, slots: dict) -> TR.TrainState:
    """A state made from plain name -> Tensor dicts, which lays them out."""
    return TR.TrainState(step=0, params=params, model_state={}, opt_state=slots,
                         rng=R.RngKey.from_seed(0))


def flat_update(params, grads, slots, opt, step):
    """``_apply_update`` on arrays: the params and slots laid out as a
    ``TrainState`` does, the gradients gathered as ``train_step`` does;
    returns (params, slots) of arrays, and checks that the flat inputs
    are left as they were."""
    state = hand_built({k: Tensor(v) for k, v in params.items()},
                       {k: Tensor(v) for k, v in slots.items()})
    params, slots = state.params, state.opt_state
    g = TR._gather(params.layout, {k: Tensor(v) for k, v in grads.items()},
                   params.buf.dtype)
    bufs = (params.buf, g, slots.buf)
    before = [b.copy() for b in bufs]
    new_params, new_slots = TR._apply_update(params, g, slots, opt, step)
    for b, old in zip(bufs, before):
        assert b.tobytes() == old.tobytes()
    return ({k: t.data for k, t in new_params.items()},
            {k: t.data for k, t in new_slots.items()})


class TestUpdateInParameterDtype:
    """``_apply_update`` against ``reference_update``, for every optimizer
    kind, dtype, clipping and schedule; params that mix dtypes are
    refused before any update runs."""

    SHAPES = {"w": (5, 3), "b": (3,), "scale": ()}  # a 0-d parameter too
    # "mixed" keeps each parameter in a dtype of its own, which a model,
    # with its one dtype, never does
    DTYPES = {"f32": np.float32, "f64": np.float64,
              "mixed": {"w": np.float32, "b": np.float64, "scale": np.float32}}

    def inputs(self, kind, dtypes):
        rs = np.random.default_rng(7)
        params = {k: rs.standard_normal(s).astype(dtypes[k])
                  for k, s in self.SHAPES.items()}
        grads = {k: rs.standard_normal(s).astype(dtypes[k])
                 for k, s in self.SHAPES.items()}
        slots = {}
        for k, s in self.SHAPES.items():
            for slot in TR._SLOTS[kind]:
                x = rs.standard_normal(s) * 0.1
                slots[f"{k}/{slot}"] = (x * x if slot == "v" else x).astype(dtypes[k])
        return params, grads, slots

    @pytest.mark.parametrize("cosine", [False, True], ids=["constant", "cosine"])
    @pytest.mark.parametrize("clip", [None, 0.5], ids=["noclip", "clip"])
    @pytest.mark.parametrize("dtype", sorted(DTYPES))
    @pytest.mark.parametrize("kind", sorted(TR._SLOTS))
    def test_update(self, kind, dtype, clip, cosine):
        dtypes = self.DTYPES[dtype]
        if not isinstance(dtypes, dict):
            dtypes = dict.fromkeys(self.SHAPES, dtypes)
        params, grads, slots = self.inputs(kind, dtypes)
        opt = TR.OptimizerSpec(kind=kind, grad_clip=clip,
                               lr=TR.cosine_decay(0.1, 10) if cosine else 0.1)
        if dtype == "mixed":
            with pytest.raises(TR.TrainError, match=r"the params mix the dtypes "
                               r"\['float32', 'float64'\]"):
                flat_update(params, grads, slots, opt, 3)
            return
        inputs = (params, grads, slots)
        before = [{k: v.copy() for k, v in group.items()} for group in inputs]
        new_params, new_slots = flat_update(params, grads, slots, opt, 3)
        ref_params, ref_slots = reference_update(params, grads, slots, opt, 3)

        for group, old in zip(inputs, before):  # the inputs are left as they were
            for name in old:
                assert group[name].tobytes() == old[name].tobytes(), name
        assert new_params.keys() == params.keys()
        assert new_slots.keys() == slots.keys()
        for new, ref in ((new_params, ref_params), (new_slots, ref_slots)):
            for name in ref:
                a, b = new[name], ref[name]
                assert a.dtype == b.dtype and a.shape == b.shape, name
                if a.dtype == np.float64:
                    assert a.tobytes() == b.tobytes(), name
                else:
                    np.testing.assert_allclose(
                        a, b, rtol=4e-6, atol=4e-6 * np.abs(b).max(), err_msg=name)


def assert_flat(tensors: dict):
    """Every array in ``tensors`` is a view into one contiguous buffer,
    and the views tile it exactly (an optimizer without slots has none)."""
    arrays = [t.data for t in tensors.values()]
    if not arrays:
        return
    buf = arrays[0].base
    assert buf is not None and all(a.base is buf for a in arrays)
    assert buf.flags.c_contiguous
    start = buf.__array_interface__["data"][0]
    at = 0
    for offset, nbytes in sorted((a.__array_interface__["data"][0] - start,
                                  a.nbytes) for a in arrays):
        assert offset == at
        at += nbytes
    assert at == buf.nbytes


def copies(tensors: dict) -> dict:
    """The same arrays as separate copies in a plain dict."""
    return {k: Tensor(t.data.copy()) for k, t in tensors.items()}


class TestFlatState:
    """A state holds its params and slots as read-only mappings over one
    buffer each from the moment it is made, from init, a checkpoint, a
    step, a hand-built or replaced state or a copy; a step takes them as
    they are and gathers only its gradients."""

    def stepped(self, kind, steps=1):
        contract = build_mlp(Config(), mlp_meta())
        opt = TR.OptimizerSpec(kind=kind, lr=0.1)
        state = fresh_state(contract, opt)
        for _ in range(steps):
            state, _ = TR.train_step(state, [toy_batch()], TR.Topology(1, 1),
                                     contract, opt)
        return state, contract, opt

    @pytest.mark.parametrize("kind", sorted(TR._SLOTS))
    def test_flat_after_a_step_from_init_and_from_a_load(self, kind, tmp_path):
        state, contract, opt = self.stepped(kind, steps=1)
        path = str(tmp_path / "ckpt_1.bin")
        CK.save_checkpoint(state, path)
        states = {"init": state}
        states["load"], _ = TR.train_step(CK.load_checkpoint(path), [toy_batch()],
                                          TR.Topology(1, 1), contract, opt)
        for when, st in states.items():
            assert len(st.opt_state) == len(st.params) * len(TR._SLOTS[kind]), when
            for group in (st.params, st.opt_state):
                assert_flat(group)

    @pytest.mark.parametrize("kind", sorted(TR._SLOTS))
    def test_flat_from_init_and_from_a_load_before_any_step(self, kind, tmp_path):
        # init and load lay the state out as they make it
        state, _, _ = self.stepped(kind, steps=0)
        path = str(tmp_path / "ckpt_0.bin")
        CK.save_checkpoint(state, path)
        for when, st in {"init": state, "load": CK.load_checkpoint(path)}.items():
            assert len(st.opt_state) == len(st.params) * len(TR._SLOTS[kind]), when
            for group in (st.params, st.opt_state):
                assert isinstance(group, TR._Flat), when
                assert_flat(group)

    @pytest.mark.parametrize("edit", ["param", "slot", "data", "hand_built",
                                      "deepcopy"])
    def test_edited_state_updates_like_a_fresh_flat_state(self, edit):
        state, contract, opt = self.stepped("adam")
        name = sorted(state.params)[0]
        new = np.random.default_rng(0).standard_normal(
            state.params[name].shape).astype(np.float32)
        if edit == "param":  # an edit is a new state, laid out again
            state = dataclasses.replace(state, params={**state.params, name: Tensor(new)})
        elif edit == "slot":
            state = dataclasses.replace(state, opt_state={
                **state.opt_state, f"{name}/v": Tensor(new * new)})
        elif edit == "data":  # rebinds a looked-up entry, not the state's
            state.params[name].data = new
        elif edit == "deepcopy":  # then written in place
            state = copy.deepcopy(state)
            state.params[name].data[...] = new
        else:
            state = dataclasses.replace(state, params=copies(state.params),
                                        opt_state=copies(state.opt_state))
        fresh = dataclasses.replace(state, params=copies(state.params),
                                    opt_state=copies(state.opt_state))
        assert fresh.params.buf is not state.params.buf
        outs = [TR.train_step(st, [toy_batch(seed=1)], TR.Topology(1, 1),
                              contract, opt)[0] for st in (state, fresh)]
        for group in ("params", "opt_state"):
            a, b = (getattr(o, group) for o in outs)
            assert a.keys() == b.keys()
            for k in a:
                assert a[k].data.tobytes() == b[k].data.tobytes(), (group, k)
            assert_flat(a)

    def test_entries_cannot_be_assigned(self):
        state, _, _ = self.stepped("adam")
        name = sorted(state.params)[0]
        for group, key in ((state.params, name), (state.opt_state, f"{name}/v")):
            with pytest.raises(TypeError):
                group[key] = Tensor(np.zeros(group[key].shape, np.float32))
            with pytest.raises(TypeError):
                del group[key]

    def test_rebinding_an_entry_leaves_the_state_unchanged(self):
        state, _, _ = self.stepped("adam")
        name = sorted(state.params)[0]

        def contents():
            return [(k, t.data.tobytes()) for group in (state.params, state.opt_state)
                    for k, t in group.items()]

        before = contents()
        for entry in (state.params[name], state.opt_state[f"{name}/v"]):
            entry.data = np.zeros_like(entry.data)
        assert contents() == before

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_steps_like_its_original(self, how):
        state, contract, opt = self.stepped("adam")
        twin = (copy.deepcopy(state) if how == "deepcopy"
                else pickle.loads(pickle.dumps(state)))
        for group in (twin.params, twin.opt_state):
            assert isinstance(group, TR._Flat)
            assert_flat(group)
        outs = [TR.train_step(st, [toy_batch(seed=1)], TR.Topology(1, 1),
                              contract, opt)[0] for st in (state, twin)]
        for group in ("params", "opt_state"):
            a, b = (getattr(o, group) for o in outs)
            assert a.keys() == b.keys()
            for k in a:
                assert a[k].data.tobytes() == b[k].data.tobytes(), (group, k)
        # an entry is a view: a write in place lands in the copy's buffer alone
        name = sorted(state.params)[0]
        before = state.params[name].data.tobytes()
        twin.params[name].data[...] = 7.0
        assert (twin.params[name].data == 7.0).all()
        assert state.params[name].data.tobytes() == before

    def test_checkpoint_bytes_equal_those_of_separate_copies(self, tmp_path):
        state, _, _ = self.stepped("adam", steps=2)
        paths = [str(tmp_path / "flat.bin"), str(tmp_path / "copies.bin")]
        CK.save_checkpoint(state, paths[0])
        CK.save_checkpoint(dataclasses.replace(
            state, params=copies(state.params),
            opt_state=copies(state.opt_state)), paths[1])
        flat, separate = (open(p, "rb").read() for p in paths)
        assert flat == separate

    @pytest.mark.parametrize("kind", sorted(TR._SLOTS))
    def test_a_flat_state_gathers_only_its_gradients(self, kind, monkeypatch):
        # the step updates the buffers the state holds, not copies
        state, contract, opt = self.stepped(kind)
        gathered, updated = [], []
        gather, apply_update = TR._gather, TR._apply_update

        def counted(layout, tensors, *args):
            gathered.append(tensors)
            return gather(layout, tensors, *args)

        def watched(params, g, opt_state, *args):
            updated.append((params, opt_state))
            return apply_update(params, g, opt_state, *args)

        monkeypatch.setattr(TR, "_gather", counted)
        monkeypatch.setattr(TR, "_apply_update", watched)
        TR.train_step(state, [toy_batch()], TR.Topology(1, 1), contract, opt)
        assert len(gathered) == 1 and gathered[0].keys() == state.params.keys()
        assert gathered[0] is not state.params
        [(params, opt_state)] = updated
        assert params is state.params and opt_state is state.opt_state

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_a_step_looks_up_no_slot(self, kind, monkeypatch):
        # the params are looked up once each, by value_and_grad
        state, contract, opt = self.stepped(kind)
        looked_up, getitem = [], TR._Flat.__getitem__

        def counted(flat, key):
            looked_up.append((flat.layout.suffixes, key))
            return getitem(flat, key)

        monkeypatch.setattr(TR._Flat, "__getitem__", counted)
        TR.train_step(state, [toy_batch()], TR.Topology(1, 1), contract, opt)
        assert sorted(looked_up) == [(("",), k) for k in sorted(state.params)]

    @pytest.mark.parametrize("kind", sorted(TR._SLOTS))
    def test_one_layout_whatever_the_key_order(self, kind):
        # init gives model order and a checkpoint name order; both are laid
        # out in name order, so the update, clip norm included, is the same
        contract = build_mlp(Config({"model": {"dtype": "f64"}}), mlp_meta())
        opt = TR.OptimizerSpec(kind=kind, lr=0.1, grad_clip=1e-3)
        arch = contract.build_model()
        params, _ = arch.init(R.split(R.RngKey.from_seed(0), 2)[0])
        rs = np.random.default_rng(0)
        grads = {k: Tensor(rs.standard_normal(t.shape)) for k, t in params.items()}
        slots = {f"{k}/{s}": Tensor(rs.random(t.shape))
                 for k, t in params.items() for s in TR._SLOTS[kind]}
        model_order = list(params)
        assert model_order != sorted(model_order)
        outs = []
        for order in (model_order, sorted(model_order), sorted(model_order)[::-1]):
            state = hand_built({k: params[k] for k in order},
                               {f"{k}/{s}": slots[f"{k}/{s}"]
                                for k in order for s in TR._SLOTS[kind]})
            g = TR._gather(state.params.layout, grads, state.params.buf.dtype)
            new_params, new_slots = TR._apply_update(state.params, g, state.opt_state,
                                                     opt, 0)
            outs.append((state.params.layout.spans, new_params.buf.tobytes(),
                         new_slots.buf.tobytes()))
        assert [name for name, _, _, _ in outs[0][0]] == sorted(model_order)
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_params_of_mixed_dtypes_refused(self):
        # a registered model casts its params to its one dtype; this one does
        # not, and its state is refused as init makes it
        def init(key):
            return {"w": Tensor(np.ones(4, np.float32)),
                    "u": Tensor(np.ones(4, np.float64))}, {}

        def apply(params, model_state, inputs, train=False, rng=None):
            return params["w"] + params["u"].astype(np.float32), model_state

        contract = dataclasses.replace(
            quadratic_contract(), build_model=lambda: ArchitectureHandle(init, apply))
        opt = TR.OptimizerSpec(kind="adam", lr=0.1)
        with pytest.raises(TR.TrainError,
                           match=r"params mix the dtypes \['float32', 'float64'\]"):
            fresh_state(contract, opt)

    @pytest.mark.parametrize("slot", ["missing", "misshaped", "stray"])
    def test_slots_not_held_by_every_parameter_refused(self, slot):
        state, _, _ = self.stepped("adam")
        name = sorted(state.params)[0]
        slots = dict(state.opt_state)
        if slot == "missing":
            del slots[f"{name}/v"]
        elif slot == "misshaped":
            slots[f"{name}/v"] = Tensor(np.zeros(3, np.float32))
        else:  # a slot of no parameter
            slots["nowhere/v"] = Tensor(np.zeros(3, np.float32))
        with pytest.raises(TR.TrainError, match=r"the optimizer state does not hold "
                                                r"the slots \('m', 'v'\) of every"):
            dataclasses.replace(state, opt_state=slots)

    def test_slots_of_another_kind_refused(self):
        # a state made for one optimizer kind, stepped under each other one
        for built_for, run_as in itertools.permutations(sorted(TR._SLOTS), 2):
            state, contract, _ = self.stepped(built_for, steps=0)
            opt = TR.OptimizerSpec(kind=run_as, lr=0.1)
            with pytest.raises(TR.TrainError) as e:
                TR.train_step(state, [toy_batch()], TR.Topology(1, 1), contract, opt)
            assert str(e.value) == (f"the optimizer state holds the slots "
                                    f"{TR._SLOTS[built_for]}, but {run_as} keeps "
                                    f"{TR._SLOTS[run_as]}")


def nan_gradient(x):
    """The identity, with a backward rule that gives NaN."""
    return T._make(x.data.copy(), (x,), lambda g: (np.full_like(g, np.nan),))


def test_non_finite_gradient_refused_under_a_finite_loss():
    def init(key):
        return {name: Tensor(np.ones(4, np.float32)) for name in ("a", "w", "z")}, {}

    def apply(params, model_state, inputs, train=False, rng=None):
        out = params["a"] + nan_gradient(params["w"]) + nan_gradient(params["z"])
        return out, model_state

    contract = dataclasses.replace(
        quadratic_contract(), build_model=lambda: ArchitectureHandle(init, apply))
    opt = TR.OptimizerSpec(kind="sgd", lr=0.1)
    # the first parameter, in params order, whose gradient is not finite
    with pytest.raises(TR.TrainError, match="non-finite gradient for 'w' at step 0"):
        TR.train_step(fresh_state(contract, opt), [toy_batch()],
                      TR.Topology(1, 1), contract, opt)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_optimizer_slot_refused(tmp_path):
    # the matching weights are in bounds and every gradient is finite, but
    # gradients near 1e37 square past float32's range in Adam's v
    cfg = Config({
        "model": {"name": "detr_detection", "lambda_cls": 1e37, "lambda_box": 1e37},
        "dataset": {"name": "boxes_detection", "num_train_examples": 32,
                    "num_eval_examples": 16},
        "batch_size": 16, "total_steps": 2, "eval_every": 2})
    # the first slot in name order that is not finite
    with pytest.raises(TR.TrainError,
                       match="non-finite optimizer slot 'box_head/b/v' at step 0"):
        TR.run_trainer("detection", cfg, str(tmp_path / "run"), seed=0)


class TestDataParallel:
    def test_host_count_validated(self):
        contract = quadratic_contract()
        opt = TR.OptimizerSpec(kind="sgd", lr=0.1)
        state = fresh_state(contract, opt)
        with pytest.raises(TR.TrainError, match="expected 2 host batches, got 1"):
            TR.train_step(state, [toy_batch()], TR.Topology(2, 1), contract, opt)

    def test_four_devices_match_one_device(self):
        """Averaged sharded gradients equal the full-batch gradient (f64)."""
        cfg = Config({"model": {"dtype": "f64"}})
        contract = build_mlp(cfg, mlp_meta())
        opt = TR.OptimizerSpec(kind="adam", lr=1e-2)
        batch = toy_batch(n=32, seed=3)

        def run(hosts, devices):
            state = fresh_state(contract, opt, seed=1)
            topo = TR.Topology(hosts, devices)
            for _ in range(5):
                state, _ = TR.train_step(
                    state, host_batches(batch, hosts), topo, contract, opt)
            return state.params

        a, b = run(1, 1), run(2, 2)
        for name in a:
            diff = np.abs(a[name].data - b[name].data).max()
            assert diff < 1e-9, f"{name}: {diff}"

    def test_metric_tables_summed_across_devices(self):
        contract = build_mlp(Config(), mlp_meta())
        opt = TR.OptimizerSpec(kind="sgd", lr=0.0)
        state = fresh_state(contract, opt)
        batch = toy_batch(n=8, seed=2)
        _, table = TR.train_step(state, host_batches(batch, 2),
                                 TR.Topology(2, 1), contract, opt)
        assert table["accuracy"][1] == 8.0


def image_batch(n, seed, k=4):
    k1, k2 = R.split(R.RngKey.from_seed(seed), 2)
    return {"inputs": Tensor(R.normal(k1, (n, 8, 8, 1)), dtype="f32"),
            "label": Tensor(R.randint(k2, (n,), 0, k))}


def watched_contract(contract, watch):
    """``contract`` whose model's ``apply`` passes its outputs to ``watch``."""
    arch = contract.build_model()

    def apply(*args, **kwargs):
        out, model_state = arch.apply(*args, **kwargs)
        watch(out)
        return out, model_state

    return dataclasses.replace(
        contract, build_model=lambda: ArchitectureHandle(arch.init, apply))


def test_nan_input_surfaces_as_a_non_finite_loss():
    # relu passes a NaN on, as jax.nn.relu does, so one bad example stops
    # the step instead of being zeroed at the hidden layer
    contract = build_mlp(Config(), mlp_meta())
    batch = toy_batch()
    batch["inputs"].data[0, 0] = np.nan
    opt = TR.OptimizerSpec(kind="sgd", lr=0.1)
    with pytest.raises(TR.TrainError, match="non-finite loss at step 0"):
        TR.train_step(fresh_state(contract, opt), [batch], TR.Topology(1, 1),
                      contract, opt)


class TestOneBatchPerStep:
    """A step runs its host batches as one batch, so it depends only on
    the global batch, not on how the topology splits it."""

    @pytest.mark.parametrize("build, model", [(build_vit, {"dropout": 0.1}),
                                              (build_resnet, {})],
                             ids=["vit_dropout", "resnet_batch_norm"])
    def test_split_steps_equal_one_device_steps_bit_for_bit(self, build, model):
        meta = DatasetMetaData(num_classes=4, input_shape=(-1, 8, 8, 1),
                               num_train_examples=96, num_eval_examples=16)
        contract = build(Config({"model": model}), meta)
        opt = TR.OptimizerSpec(kind="adam", lr=1e-2)
        batches = [image_batch(32, seed) for seed in range(3)]

        def run(hosts, devices):
            state = TR.init_train_state(contract, opt, R.RngKey.from_seed(1))
            tables = []
            for batch in batches:
                state, table = TR.train_step(
                    state, host_batches(batch, hosts),
                    TR.Topology(hosts, devices), contract, opt)
                tables.append(table)
            return state, tables

        want, want_tables = run(1, 1)
        assert want.step == 3
        assert bool(want.model_state) == (build is build_resnet)
        for hosts, devices in ((1, 4), (2, 2)):
            got, tables = run(hosts, devices)
            assert tables == want_tables, (hosts, devices)
            assert got.rng == want.rng, (hosts, devices)
            for group in CK.ARRAY_GROUPS:
                a, b = getattr(got, group), getattr(want, group)
                assert a.keys() == b.keys()
                for name in a:
                    assert a[name].data.dtype == b[name].data.dtype
                    assert np.array_equal(a[name].data, b[name].data), \
                        (hosts, devices, group, name)

    @pytest.mark.parametrize("depth", [2, 4])
    def test_vit_draws_a_steps_dropout_masks_in_one_cipher_call(
            self, monkeypatch, depth):
        meta = DatasetMetaData(num_classes=4, input_shape=(-1, 8, 8, 1),
                               num_train_examples=96, num_eval_examples=16)
        contract = build_vit(Config({"model": {"depth": depth, "dropout": 0.1}}), meta)
        opt = TR.OptimizerSpec(kind="adam", lr=1e-2)
        state = TR.init_train_state(contract, opt, R.RngKey.from_seed(1))
        parts = host_batches(image_batch(32, 0), 2)
        blocks = []
        threefry = R._threefry_numpy

        def counted(k0, k1, x0, x1):
            blocks.append(x0.size)
            return threefry(k0, k1, x0, x1)

        monkeypatch.setattr(R, "_threefry_numpy", counted)
        TR.train_step(state, parts, TR.Topology(2, 2), contract, opt)
        # (depth, 2) masks of [32, 5 tokens, 64], a 32-bit word per unit
        assert blocks == [depth * 2 * 32 * 5 * 64 // 4]

    def test_one_value_and_grad_per_train_step_one_apply_per_eval_step(
            self, monkeypatch):
        calls = []
        contract = watched_contract(build_mlp(Config(), mlp_meta()),
                                    lambda out: calls.append("apply"))
        opt = TR.OptimizerSpec(kind="sgd", lr=0.1)
        state = fresh_state(contract, opt)
        value_and_grad = TR.value_and_grad

        def counted(*args):
            calls.append("value_and_grad")
            return value_and_grad(*args)

        monkeypatch.setattr(TR, "value_and_grad", counted)
        parts = host_batches(toy_batch(n=16), 2)
        TR.train_step(state, parts, TR.Topology(2, 2), contract, opt)
        assert calls == ["value_and_grad", "apply"]
        calls.clear()
        TR.eval_step(state, parts, contract)
        assert calls == ["apply"]

    def test_tape_is_freed_before_the_update(self, monkeypatch):
        outputs = []
        contract = watched_contract(build_mlp(Config(), mlp_meta()),
                                    lambda out: outputs.append(weakref.ref(out.data)))
        apply_update = TR._apply_update
        alive = []

        def checked(*args):
            alive.append(outputs[0]() is not None)
            return apply_update(*args)

        monkeypatch.setattr(TR, "_apply_update", checked)
        opt = TR.OptimizerSpec(kind="adam", lr=0.1)
        TR.train_step(fresh_state(contract, opt), [toy_batch(n=16)],
                      TR.Topology(1, 1), contract, opt)
        assert alive == [False]


class TestEval:
    def test_eval_step_leaves_state_untouched(self):
        contract = build_mlp(Config(), mlp_meta())
        state = fresh_state(contract)
        before = {k: v.data.copy() for k, v in state.params.items()}
        TR.eval_step(state, [toy_batch()], contract)
        for name in before:
            assert np.array_equal(state.params[name].data, before[name])

    def test_aggregate_metrics(self):
        tables = [{"accuracy": (3.0, 4.0)}, {"accuracy": (1.0, 4.0)}]
        assert TR.aggregate_metrics(tables) == {"accuracy": 0.5}

    def test_aggregate_weighted_not_mean_of_means(self):
        # 9/10 on one device and 0/2 on another is 9/12, not 0.45
        tables = [{"acc": (9.0, 10.0)}, {"acc": (0.0, 2.0)}]
        assert TR.aggregate_metrics(tables)["acc"] == pytest.approx(0.75)

    def test_aggregate_leaves_out_a_metric_without_examples(self):
        tables = [{"box_l1": (0.0, 0.0), "loss": (1.0, 2.0)},
                  {"box_l1": (0.0, 0.0), "loss": (3.0, 2.0)}]
        assert TR.aggregate_metrics(tables) == {"loss": 1.0}
        # an empty table beside a full one: only the full one counts
        tables = [{"box_l1": (0.0, 0.0)}, {"box_l1": (3.0, 4.0)}]
        assert TR.aggregate_metrics(tables) == {"box_l1": 0.75}

    @pytest.mark.parametrize("max_objects", [0, 1])
    def test_detr_run_through_windows_without_objects(self, tmp_path, max_objects):
        # with batch 1 and one record per step, a train window (from
        # max_objects 1) or every window (from 0) holds no object
        cfg = Config({
            "model": {"name": "detr_detection"},
            "dataset": {"name": "boxes_detection", "max_objects": max_objects,
                        "num_train_examples": 16, "num_eval_examples": 8},
            "batch_size": 1, "total_steps": 8, "eval_every": 1})
        workdir = tmp_path / "run"
        metrics = TR.run_trainer("detection", cfg, str(workdir), seed=0)
        with open(workdir / "metrics.jsonl") as f:
            records = [json.loads(line) for line in f]
        assert {r["step"] for r in records} == set(range(1, 9))
        assert (workdir / "ckpt_8.bin").exists()
        assert "loss" in metrics
        if max_objects == 0:
            assert {r["name"] for r in records} == {"train_loss", "eval_loss"}

    def test_aggregate_errors(self):
        with pytest.raises(TR.TrainError, match="no metric"):
            TR.aggregate_metrics([])
        with pytest.raises(TR.TrainError, match="zero total normalizer"):
            TR.aggregate_metrics([{"a": (1.0, 0.0)}])
        with pytest.raises(TR.TrainError, match="disagree"):
            TR.aggregate_metrics([{"a": (1.0, 1.0)}, {"b": (1.0, 1.0)}])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        contract = build_mlp(Config(), mlp_meta())
        opt = TR.OptimizerSpec(kind="adam", lr=1e-2)
        state = fresh_state(contract, opt)
        state, _ = TR.train_step(state, [toy_batch()], TR.Topology(1, 1),
                                 contract, opt)
        path = str(tmp_path / "ckpt_1.bin")
        CK.save_checkpoint(state, path)
        assert os.listdir(tmp_path) == ["ckpt_1.bin"]  # no temp file left
        loaded = CK.load_checkpoint(path)
        assert loaded.step == state.step
        assert loaded.rng == state.rng
        for group in ("params", "model_state", "opt_state"):
            a, b = getattr(state, group), getattr(loaded, group)
            assert set(a) == set(b)
            for name in a:
                assert np.array_equal(a[name].data, b[name].data)
                assert a[name].data.dtype == b[name].data.dtype

    @pytest.mark.skipif(os.name != "posix", reason="directory fsync is POSIX-only")
    def test_rename_is_synced_to_its_directory(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            synced = os.path.samestat(os.fstat(fd), os.stat(tmp_path))
            events.append(("fsync", "workdir" if synced else "file"))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(CK.os, "fsync", fsync)
        monkeypatch.setattr(CK.os, "replace", replace)
        CK.save_checkpoint(fresh_state(build_mlp(Config(), mlp_meta())),
                           str(tmp_path / "ckpt_0.bin"))
        assert events == [("fsync", "file"), ("replace", "ckpt_0.bin"),
                          ("fsync", "workdir")]

    def test_zero_d_arrays_load_back_zero_d(self, tmp_path):
        # a 0-d parameter and its Adam slots, which np.ascontiguousarray
        # would have written as shape (1,)
        scalar = {"params": {"s": np.float32(0.5)}, "model_state": {},
                  "opt_state": {"s/m": np.float32(0.25), "s/v": np.float32(0.125)}}
        state = TR.TrainState(step=1, rng=R.RngKey.from_seed(0), **{
            group: {k: Tensor(np.asarray(v)) for k, v in tree.items()}
            for group, tree in scalar.items()})
        path = str(tmp_path / "ckpt_1.bin")
        CK.save_checkpoint(state, path)
        loaded = CK.load_checkpoint(path)
        for group, tree in scalar.items():
            for name, value in tree.items():
                got = getattr(loaded, group)[name].data
                assert got.shape == () and got.dtype == np.float32 and got == value
        TR._check_same_layout(state, loaded, path)  # so a resume accepts it

    def test_missing_file(self):
        with pytest.raises(CK.CheckpointError, match="not found"):
            CK.load_checkpoint("/nonexistent/ckpt_0.bin")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CK.CheckpointError, match="magic"):
            CK.load_checkpoint(str(p))

    def test_truncated(self, tmp_path):
        contract = build_mlp(Config(), mlp_meta())
        state = fresh_state(contract)
        path = tmp_path / "ckpt_0.bin"
        CK.save_checkpoint(state, str(path))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CK.CheckpointError, match="truncated"):
            CK.load_checkpoint(str(path))


def trainer_config(**extra):
    base = {
        "model": {"name": "fully_connected_classification"},
        "dataset": {"name": "blobs_classification",
                    "num_train_examples": 64, "num_eval_examples": 16},
        "batch_size": 8,
        "total_steps": 8,
        "eval_every": 4,
        "optimizer": {"kind": "adam", "lr": 1e-2},
    }
    cfg = Config(base)
    for k, v in extra.items():
        cfg = Config({**cfg.to_dict(), k: v})
    return cfg


class TestRunTrainer:
    def test_writes_metrics_and_checkpoints(self, tmp_path):
        wd = str(tmp_path / "run")
        out = TR.run_trainer("classification", trainer_config(), wd, seed=0)
        assert "accuracy" in out and "loss" in out
        assert os.path.exists(os.path.join(wd, "metrics.jsonl"))
        assert os.path.exists(os.path.join(wd, "ckpt_4.bin"))
        assert os.path.exists(os.path.join(wd, "ckpt_8.bin"))

    def test_bitwise_deterministic(self, tmp_path):
        files = []
        for name in ("a", "b"):
            wd = str(tmp_path / name)
            TR.run_trainer("classification", trainer_config(), wd, seed=1)
            with open(os.path.join(wd, "metrics.jsonl"), "rb") as f:
                files.append(f.read())
        assert files[0] == files[1]

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        cfg = trainer_config()
        full = str(tmp_path / "full")
        TR.run_trainer("classification", cfg, full, seed=2)

        half_cfg = trainer_config(total_steps=4)
        split = str(tmp_path / "split")
        TR.run_trainer("classification", half_cfg, split, seed=2)
        TR.run_trainer("classification", cfg, split, seed=2)  # resumes at 4

        a = CK.load_checkpoint(os.path.join(full, "ckpt_8.bin"))
        b = CK.load_checkpoint(os.path.join(split, "ckpt_8.bin"))
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_eval_only_when_zero_steps(self, tmp_path):
        wd = str(tmp_path / "evalonly")
        out = TR.run_trainer("classification",
                             trainer_config(total_steps=0), wd, seed=0)
        assert "accuracy" in out
        assert os.path.exists(os.path.join(wd, "ckpt_0.bin"))

    def test_stop_when_halts_early(self, tmp_path):
        calls = []

        def stop(metrics):
            calls.append(metrics)
            return True

        wd = str(tmp_path / "early")
        TR.run_trainer("classification", trainer_config(), wd, seed=0,
                       stop_when=stop)
        assert len(calls) == 1
        assert not os.path.exists(os.path.join(wd, "ckpt_8.bin"))

    def test_multi_host_multi_device(self, tmp_path):
        cfg = trainer_config(topology={"host_count": 2, "devices_per_host": 2},
                             batch_size=4)
        out = TR.run_trainer("classification", cfg, str(tmp_path / "mh"), seed=0)
        assert "accuracy" in out

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(TR.TrainError, match="unknown trainer kind"):
            TR.run_trainer("nope", trainer_config(), str(tmp_path / "x"))

    @pytest.mark.parametrize("eval_every", [0, -1])
    def test_eval_every_below_one_refused(self, tmp_path, eval_every):
        with pytest.raises(ConfigError, match=r"'eval_every' must be in \[1, inf\)"):
            TR.run_trainer("classification", trainer_config(eval_every=eval_every),
                           str(tmp_path / "x"))

    @pytest.mark.parametrize("key, value, name", [
        ("total_steps", 2.5, "total_steps"),
        ("eval_every", 2.5, "eval_every"), ("eval_every", True, "eval_every"),
        ("batch_size", 8.0, "batch_size"), ("batch_size", True, "batch_size"),
        ("topology", {"devices_per_host": 2.0}, "topology.devices_per_host")])
    def test_bad_integer_setting_is_a_config_error(self, tmp_path, key, value,
                                                   name):
        # refused, not rounded, by Config's kind rule
        wd = str(tmp_path / "x")
        with pytest.raises(ConfigError, match=f"'{name}' must be an int, got "):
            TR.run_trainer("classification", trainer_config(**{key: value}), wd)
        assert not os.path.exists(wd)

    @pytest.mark.parametrize("key, value, name", [
        ("total_steps", -5, "total_steps"), ("batch_size", 0, "batch_size"),
        ("topology", {"host_count": 0}, "topology.host_count")])
    def test_int_setting_below_its_bound_is_a_config_error(
            self, tmp_path, key, value, name):
        wd = str(tmp_path / "x")
        with pytest.raises(ConfigError, match=f"'{name}' must be in \\[") as info:
            TR.run_trainer("classification", trainer_config(**{key: value}), wd)
        assert type(info.value) is ConfigError
        assert not os.path.exists(wd)

    def test_steps_get_whole_host_batches(self, tmp_path, monkeypatch):
        seen = {"train": [], "eval": []}

        def rows_of(name, step):
            def recorded(state, batches, *args):
                seen[name].append([b["inputs"].shape[0] for b in batches])
                return step(state, batches, *args)
            return recorded

        monkeypatch.setattr(TR, "train_step", rows_of("train", TR.train_step))
        monkeypatch.setattr(TR, "eval_step", rows_of("eval", TR.eval_step))
        cfg = trainer_config(topology={"host_count": 2, "devices_per_host": 2},
                             batch_size=4, total_steps=2, eval_every=2)
        TR.run_trainer("classification", cfg, str(tmp_path / "x"))
        assert seen["train"] == [[8, 8], [8, 8]]
        assert seen["eval"] == [[8, 8]]  # one call gets both hosts' batches

    def test_host_whose_eval_shard_runs_out_first_drops_out(self, tmp_path,
                                                            monkeypatch):
        # 17 eval examples: host 0 holds 8 (one batch), host 1 holds 9 (two)
        calls, eval_step = [], TR.eval_step

        def recorded(state, batches, contract):
            calls.append((state, batches, contract))
            return eval_step(state, batches, contract)

        monkeypatch.setattr(TR, "eval_step", recorded)
        cfg = trainer_config(
            topology={"host_count": 2, "devices_per_host": 2}, batch_size=4,
            total_steps=2, eval_every=2,
            dataset={"name": "blobs_classification",
                     "num_train_examples": 64, "num_eval_examples": 17})
        out = TR.run_trainer("classification", cfg, str(tmp_path / "x"))
        assert [[b["inputs"].shape[0] for b in bs] for _, bs, _ in calls] == [[8, 8], [8]]
        assert sum(b["batch_mask"].data.sum() for _, bs, _ in calls for b in bs) == 17
        # one step per host batch, host by host, as a reference
        ref = TR.aggregate_metrics([eval_step(st, [b], contract)
                                    for st, bs, contract in calls for b in bs])
        assert out["accuracy"] == ref["accuracy"]
        assert out["loss"] == pytest.approx(ref["loss"], rel=1e-12)

    def test_unread_optimizer_key_refused(self, tmp_path):
        cfg = trainer_config(optimizer={"kind": "adam", "lr": 1e-2, "beta2": 0.5})
        wd = str(tmp_path / "x")
        with pytest.raises(TR.TrainError, match="'optimizer.beta2'"):
            TR.run_trainer("classification", cfg, wd)
        assert not os.path.exists(os.path.join(wd, "metrics.jsonl"))

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_momentum_under_another_kind_refused(self, tmp_path, kind):
        cfg = trainer_config(optimizer={"kind": kind, "lr": 1e-2,
                                        "momentum": 0.5})
        wd = str(tmp_path / "x")
        with pytest.raises(TR.TrainError, match="'optimizer.momentum'"):
            TR.run_trainer("classification", cfg, wd)
        assert not os.path.exists(wd)

    @pytest.mark.parametrize("optimizer, match", [
        ({"kind": "adam", "lr": -1e-3}, "negative or NaN learning rate"),
        ({"kind": "adam", "lr": float("nan")}, "negative or NaN learning rate"),
        ({"kind": "adam", "lr": -0.1, "cosine_decay": True},
         "negative or NaN learning rate"),
        ({"kind": "sgd_momentum", "lr": 1e-2, "momentum": 1.5}, "momentum must be"),
        ({"kind": "sgd_momentum", "lr": 1e-2, "momentum": -1.0}, "momentum must be"),
    ])
    def test_bad_optimizer_refused_before_anything_is_written(
            self, tmp_path, optimizer, match):
        wd = str(tmp_path / "x")
        with pytest.raises(TR.TrainError, match=match):
            TR.run_trainer("classification", trainer_config(optimizer=optimizer), wd)
        assert not os.path.exists(wd)

    @pytest.mark.parametrize("name, key, value", [
        ("vit_classification", "dropout", -0.1),  # switched dropout off
        ("vit_classification", "dropout", 1.0),  # a non-finite loss at step 0
        ("vit_classification", "dropout", 1.5),  # scaled every kept unit by -0.0
        ("vit_classification", "dropout", float("nan")),
        ("fully_connected_classification", "label_smoothing", -0.1),
        ("fully_connected_classification", "label_smoothing", 1.0),
        ("fully_connected_classification", "label_smoothing", float("nan")),
        ("resnet_classification", "bn_momentum", -0.1),
        ("resnet_classification", "bn_momentum", 1.5),
        ("resnet_classification", "bn_momentum", float("nan")),
    ])
    def test_model_rate_outside_its_range_refused(self, tmp_path, name, key, value):
        wd = str(tmp_path / "x")
        with pytest.raises(ConfigError, match=f"'model.{key}' must be in \\[0, 1"):
            TR.run_trainer("classification",
                           trainer_config(model={"name": name, key: value}), wd)
        assert not os.path.exists(wd)

    @pytest.mark.parametrize("grad_clip", [0, -1])
    def test_grad_clip_not_above_zero_refused(self, tmp_path, grad_clip):
        # 0 would skip every update, a negative bound would ascend
        cfg = trainer_config(optimizer={"kind": "sgd", "lr": 0.1,
                                        "grad_clip": grad_clip})
        wd = str(tmp_path / "x")
        with pytest.raises(TR.TrainError, match="grad_clip must be > 0"):
            TR.run_trainer("classification", cfg, wd)
        assert not os.path.exists(wd)

    @pytest.mark.parametrize("key, extra", [
        ("model.dropuot", {"model": {"name": "fully_connected_classification",
                                     "dropuot": 0.1}}),
        ("dataset.num_train_exmples", {"dataset": {
            "name": "blobs_classification", "num_train_examples": 64,
            "num_eval_examples": 16, "num_train_exmples": 32}}),
        ("trainer", {"trainer": "classification"}),
        ("resume", {"resume": False}),
        ("modle", {"modle": {}}),
    ])
    def test_unread_key_refused(self, tmp_path, key, extra):
        wd = str(tmp_path / "x")
        with pytest.raises(TR.TrainError, match=f"'{key}': nothing reads it"):
            TR.run_trainer("classification", trainer_config(**extra), wd)
        assert not os.path.exists(wd)

    def test_empty_topology_map_is_read(self, tmp_path):
        # topology.host_count and devices_per_host are looked up below it
        out = TR.run_trainer("classification", trainer_config(topology={}),
                             str(tmp_path / "x"))
        assert "accuracy" in out

    def test_model_defaults_fill_missing_keys(self, tmp_path):
        # vit_classification's registered defaults supply the dataset
        cfg = Config({"model": {"name": "vit_classification"},
                      "total_steps": 1, "batch_size": 8,
                      "dataset": {"num_train_examples": 16,
                                  "num_eval_examples": 8}})
        wd = str(tmp_path / "vit")
        assert "accuracy" in TR.run_trainer("classification", cfg, wd)
        fingerprint = CK.load_checkpoint(os.path.join(wd, "ckpt_1.bin")).fingerprint
        # the caller's keys keep their order; defaults come after them, and
        # the eval_every the config left out, resolved, after those
        assert list(fingerprint["config"]) == [
            "model.name", "batch_size", "dataset.num_train_examples",
            "dataset.num_eval_examples", "dataset.name", "dataset.input_shape",
            "eval_every"]

    @pytest.mark.parametrize("model, dataset, kind", [
        ("fully_connected_classification", "blobs_classification",
         "classification"),
        ("detr_detection", "boxes_detection", "detection")])
    def test_eval_with_an_all_padding_device_batch(self, tmp_path, model,
                                                   dataset, kind):
        # 24 eval examples over 2 hosts leave each host a last batch of 4
        # real and 4 padding rows, a device's worth of rows all padding
        cfg = Config({
            "model": {"name": model},
            "dataset": {"name": dataset, "num_train_examples": 16,
                        "num_eval_examples": 24},
            "topology": {"host_count": 2, "devices_per_host": 2},
            "batch_size": 4, "total_steps": 1,
        })
        out = TR.run_trainer(kind, cfg, str(tmp_path / "pad"), seed=0)
        assert np.isfinite(out["loss"])


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def snapshot(workdir):
    """Each file's bytes and modification time."""
    return {name: (read_bytes(os.path.join(workdir, name)),
                   os.stat(os.path.join(workdir, name)).st_mtime_ns)
            for name in os.listdir(workdir)}


class TestResume:
    def config(self, hidden=(64,), total_steps=10):
        return trainer_config(
            total_steps=total_steps, eval_every=5,
            model={"name": "fully_connected_classification",
                   "hidden": list(hidden)})

    def full_run(self, tmp_path):
        wd = str(tmp_path / "full")
        TR.run_trainer("classification", self.config(), wd, seed=3)
        return wd

    def assert_same_files(self, a, b, names):
        for name in names:
            assert read_bytes(os.path.join(a, name)) == \
                read_bytes(os.path.join(b, name)), name

    def test_stray_records_after_checkpoint_are_dropped(self, tmp_path):
        full = self.full_run(tmp_path)
        split = str(tmp_path / "split")
        TR.run_trainer("classification", self.config(total_steps=5), split,
                       seed=3)
        # a record written after the step-5 checkpoint, then a crash
        with open(os.path.join(split, "metrics.jsonl"), "a") as f:
            f.write(json.dumps({"step": 6, "name": "train_loss",
                                "value": 0.5, "time": 99.0}) + "\n")
        TR.run_trainer("classification", self.config(), split, seed=3)
        self.assert_same_files(full, split, ["metrics.jsonl", "ckpt_10.bin"])

    def test_torn_newest_checkpoint_falls_back_to_older(self, tmp_path):
        full = self.full_run(tmp_path)
        split = str(tmp_path / "split")
        TR.run_trainer("classification", self.config(), split, seed=3)
        newest = os.path.join(split, "ckpt_10.bin")
        raw = read_bytes(newest)
        with open(newest, "wb") as f:
            f.write(raw[:len(raw) // 2])
        TR.run_trainer("classification", self.config(), split, seed=3)
        self.assert_same_files(full, split, ["metrics.jsonl", "ckpt_10.bin"])

    def test_bytes_after_the_newest_checkpoint_fall_back_to_older(self, tmp_path):
        # interrupted at step 10 of 15, with one byte appended to ckpt_10
        full = str(tmp_path / "full")
        TR.run_trainer("classification", self.config(total_steps=15), full, seed=3)
        split = str(tmp_path / "split")
        TR.run_trainer("classification", self.config(total_steps=10), split, seed=3)
        newest = os.path.join(split, "ckpt_10.bin")
        with open(newest, "ab") as f:
            f.write(b"\0")
        with pytest.raises(CK.CheckpointError,
                           match=r"ckpt_10.bin: 1 bytes after the last payload$"):
            CK.load_checkpoint(newest)
        TR.run_trainer("classification", self.config(total_steps=15), split, seed=3)
        self.assert_same_files(full, split, ["metrics.jsonl", "ckpt_5.bin",
                                             "ckpt_10.bin", "ckpt_15.bin"])

    def test_newest_checkpoint_name_on_a_directory_falls_back_to_older(
            self, tmp_path):
        full = self.full_run(tmp_path)
        split = str(tmp_path / "split")
        TR.run_trainer("classification", self.config(total_steps=5), split,
                       seed=3)
        os.mkdir(os.path.join(split, "ckpt_9.bin"))
        with pytest.raises(CK.CheckpointError, match="cannot be read"):
            CK.load_checkpoint(os.path.join(split, "ckpt_9.bin"))
        TR.run_trainer("classification", self.config(), split, seed=3)
        self.assert_same_files(full, split, ["metrics.jsonl", "ckpt_10.bin"])

    @pytest.mark.parametrize("name", ["ckpt_best.bin", "ckpt_.bin"])
    def test_foreign_checkpoint_name_is_left_alone(self, tmp_path, name):
        full = self.full_run(tmp_path)
        split = str(tmp_path / "split")
        TR.run_trainer("classification", self.config(total_steps=5), split,
                       seed=3)
        foreign = os.path.join(split, name)
        with open(foreign, "wb") as f:
            f.write(read_bytes(os.path.join(split, "ckpt_5.bin")))
        TR.run_trainer("classification", self.config(), split, seed=3)
        self.assert_same_files(full, split, ["metrics.jsonl", "ckpt_10.bin"])
        assert read_bytes(foreign) == read_bytes(os.path.join(split, "ckpt_5.bin"))

    def test_changed_layout_refused(self, tmp_path):
        wd = str(tmp_path / "run")
        TR.run_trainer("classification", self.config(total_steps=5), wd, seed=3)
        with pytest.raises(TR.TrainError, match="dense0/b"):
            TR.run_trainer("classification", self.config(hidden=(128,)), wd,
                           seed=3)

    def test_array_the_model_lacks_refused(self, tmp_path):
        # as in a ViT checkpoint written while attention keys had a bias
        cfg = trainer_config(
            total_steps=2, eval_every=2,
            model={"name": "vit_classification", "dim": 8, "heads": 2,
                   "depth": 1, "mlp_dim": 8},
            dataset={"name": "blobs_classification", "input_shape": [8, 8, 1],
                     "num_train_examples": 16, "num_eval_examples": 8})
        wd = str(tmp_path / "run")
        TR.run_trainer("classification", cfg, wd, seed=3)
        path = os.path.join(wd, "ckpt_2.bin")
        state = CK.load_checkpoint(path)
        dead = "block0/attn/k/b"
        zeros = Tensor(np.zeros(8, np.float32))
        CK.save_checkpoint(dataclasses.replace(
            state, params={**state.params, dead: zeros},
            opt_state={**state.opt_state, f"{dead}/m": zeros,
                       f"{dead}/v": zeros}), path)
        with pytest.raises(TR.TrainError, match=f"'{dead}/m' is float32\\[8\\] "
                                                "in the checkpoint but absent"):
            TR.run_trainer("classification", cfg, wd, seed=3)

    def test_changed_config_refused(self, tmp_path):
        wd = str(tmp_path / "run")
        TR.run_trainer("classification", self.config(total_steps=5), wd, seed=3)
        faster = Config({**self.config().to_dict(),
                         "optimizer": {"kind": "adam", "lr": 0.5}})
        with pytest.raises(TR.TrainError, match="'optimizer.lr' is 0.01 in the "
                                                "checkpoint but 0.5 in this run"):
            TR.run_trainer("classification", faster, wd, seed=3)
        with pytest.raises(TR.TrainError, match="seed is 3 in the checkpoint"):
            TR.run_trainer("classification", self.config(), wd, seed=4)

    def test_checkpoint_past_total_steps_refused(self, tmp_path):
        wd = self.full_run(tmp_path)
        before = read_bytes(os.path.join(wd, "metrics.jsonl"))
        with pytest.raises(TR.TrainError,
                           match="at step 10, past total_steps 5"):
            TR.run_trainer("classification", self.config(total_steps=5), wd,
                           seed=3)
        assert read_bytes(os.path.join(wd, "metrics.jsonl")) == before

    def test_finished_run_rerun_returns_its_final_eval(self, tmp_path):
        wd = str(tmp_path / "run")
        first = TR.run_trainer("classification", self.config(), wd, seed=3)
        before = snapshot(wd)
        again = TR.run_trainer("classification", self.config(), wd, seed=3)
        assert again == first and "accuracy" in again
        assert snapshot(wd) == before

    def test_zero_step_rerun_appends_nothing(self, tmp_path):
        wd = str(tmp_path / "run")
        cfg = self.config(total_steps=0)
        first = TR.run_trainer("classification", cfg, wd, seed=3)
        before = snapshot(wd)
        assert len(before["metrics.jsonl"][0].splitlines()) == 2
        again = TR.run_trainer("classification", cfg, wd, seed=3)
        assert again == first
        assert snapshot(wd) == before

    def default_eval_config(self, total_steps):
        values = self.config(total_steps=total_steps).to_dict()
        del values["eval_every"]
        return Config(values)

    def test_extending_a_run_with_the_default_eval_every_refused(self, tmp_path):
        # eval_every defaults to total_steps // 4: extended to 20 steps, the
        # 8-step run that evaluated every 2 steps would go on every 5
        wd = str(tmp_path / "run")
        TR.run_trainer("classification", self.default_eval_config(8), wd, seed=3)
        before = snapshot(wd)
        with pytest.raises(TR.TrainError, match="config key 'eval_every' is 2 in the "
                                                "checkpoint but 5 in this run"):
            TR.run_trainer("classification", self.default_eval_config(20), wd, seed=3)
        assert snapshot(wd) == before
        # stating the value it defaulted to extends the run
        longer = Config({**self.default_eval_config(20).to_dict(), "eval_every": 2})
        TR.run_trainer("classification", longer, wd, seed=3)
        assert "ckpt_20.bin" in os.listdir(wd)

    def test_checkpoint_without_the_default_eval_every_refused(self, tmp_path):
        # a checkpoint written before the default was recorded
        wd = str(tmp_path / "run")
        TR.run_trainer("classification", self.default_eval_config(8), wd, seed=3)
        path = os.path.join(wd, "ckpt_8.bin")
        state = CK.load_checkpoint(path)
        fingerprint = copy.deepcopy(state.fingerprint)
        assert fingerprint["config"].pop("eval_every") == 2
        CK.save_checkpoint(dataclasses.replace(state, fingerprint=fingerprint), path)
        with pytest.raises(TR.TrainError, match="config key 'eval_every' is absent in "
                                                "the checkpoint but 2 in this run"):
            TR.run_trainer("classification", self.default_eval_config(8), wd, seed=3)

    def cosine_config(self, total_steps):
        return trainer_config(
            total_steps=total_steps, eval_every=5,
            optimizer={"kind": "sgd", "lr": 0.05, "cosine_decay": True})

    def test_extending_a_cosine_run_refused(self, tmp_path):
        # the schedule spans total_steps, so raising it would restart the
        # decay part-way through the run
        wd = str(tmp_path / "run")
        TR.run_trainer("classification", self.cosine_config(10), wd, seed=3)
        before = snapshot(wd)
        with pytest.raises(TR.TrainError, match="'total_steps' is 10 in the "
                                                "checkpoint but 20 in this run"):
            TR.run_trainer("classification", self.cosine_config(20), wd, seed=3)
        assert snapshot(wd) == before

    def test_interrupted_cosine_run_resumes(self, tmp_path):
        full = str(tmp_path / "full")
        TR.run_trainer("classification", self.cosine_config(10), full, seed=3)
        split = str(tmp_path / "split")
        TR.run_trainer("classification", self.cosine_config(10), split, seed=3,
                       stop_when=lambda metrics: True)  # stops at step 5
        assert sorted(os.listdir(split)) == ["ckpt_5.bin", "metrics.jsonl"]
        TR.run_trainer("classification", self.cosine_config(10), split, seed=3)
        self.assert_same_files(full, split, ["metrics.jsonl", "ckpt_5.bin",
                                             "ckpt_10.bin"])


def record_train_draws(monkeypatch) -> list:
    """Wrap each dataset's ``train_iter.__next__`` after ``build_dataset``
    returns it, as the benchmark's tracer does; returns the list that
    each drawn batch is appended to, as (host id, batch)."""
    drawn, build = [], TR.build_dataset

    class Recorded:
        def __init__(self, host, draw):
            self.host, self.draw = host, draw

        def __iter__(self):
            return self

        def __next__(self):
            batch = self.draw()
            drawn.append((self.host, batch))
            return batch

    def recorded_build_dataset(name, shard, *args, **kwargs):
        ds = build(name, shard, *args, **kwargs)
        ds.train_iter = Recorded(shard.host_id, ds.train_iter.__next__)
        return ds

    monkeypatch.setattr(TR, "build_dataset", recorded_build_dataset)
    return drawn


class TestSeek:
    """A resumed run starts each host's train stream at the checkpoint's
    step instead of drawing and discarding the batches before it."""

    # 23 examples on 2 hosts with host batch 4: host 0 holds 11 examples,
    # 2 batches an epoch, and host 1 holds 12, 3 batches an epoch
    def config(self, total_steps=8):
        return trainer_config(
            total_steps=total_steps, eval_every=1,
            topology={"host_count": 2, "devices_per_host": 2}, batch_size=2,
            dataset={"name": "blobs_classification", "num_train_examples": 23,
                     "num_eval_examples": 8})

    def test_resume_at_step_k_draws_no_batch_before_k(self, tmp_path, monkeypatch):
        wd = str(tmp_path / "run")
        TR.run_trainer("classification", self.config(total_steps=5), wd, seed=3)
        drawn = record_train_draws(monkeypatch)
        TR.run_trainer("classification", self.config(), wd, seed=3)
        resumed = [(h, b["inputs"].data) for h, b in drawn]
        drawn.clear()
        TR.run_trainer("classification", self.config(), str(tmp_path / "full"),
                       seed=3)
        # three steps, two hosts: the full run's draws from step 5 on
        assert len(resumed) == 6
        full = [(h, b["inputs"].data) for h, b in drawn]
        for (h, a), (g, b) in zip(resumed, full[2 * 5:], strict=True):
            assert h == g and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", range(1, 8))
    def test_resume_mid_epoch_on_uneven_hosts_is_byte_identical(self, tmp_path, k):
        full, split = str(tmp_path / "full"), str(tmp_path / "split")
        TR.run_trainer("classification", self.config(), full, seed=3)
        TR.run_trainer("classification", self.config(total_steps=k), split, seed=3)
        TR.run_trainer("classification", self.config(), split, seed=3)
        assert sorted(os.listdir(split)) == sorted(os.listdir(full))
        for name in os.listdir(full):
            assert read_bytes(os.path.join(split, name)) == \
                read_bytes(os.path.join(full, name)), name


class Interrupt(Exception):
    pass


def vit_2x2_config(f64_clip=False):
    """The 2x2 ViT run; with ``f64_clip``, in float64 and with
    ``grad_clip`` 0.5, as the oracle's ``vit_2x2_adam_f64`` run, whose
    clip norm rounds differently if the summation order changes."""
    model = {"name": "vit_classification", "dropout": 0.1}
    optimizer = {"kind": "adam", "lr": 1e-2}
    if f64_clip:
        model["dtype"] = "f64"
        optimizer["grad_clip"] = 0.5
    return Config({
        "model": model,
        "dataset": {"name": "blobs_classification", "input_shape": [8, 8, 1],
                    "num_train_examples": 32, "num_eval_examples": 28},
        "topology": {"host_count": 2, "devices_per_host": 2},
        "batch_size": 4, "eval_every": 2, "total_steps": 6,
        "optimizer": optimizer,
    })


@pytest.fixture(scope="module")
def vit_2x2_files(tmp_path_factory):
    """Every file of the uninterrupted run, by name, for each ``f64_clip``."""
    files = {}
    for f64_clip in (False, True):
        wd = str(tmp_path_factory.mktemp("vit_2x2_full"))
        TR.run_trainer("classification", vit_2x2_config(f64_clip), wd, seed=3)
        files[f64_clip] = {name: read_bytes(os.path.join(wd, name))
                           for name in os.listdir(wd)}
    return files


# (float64 with a clip, function in deskml.train, which call of it, raise
# before or after it runs): every train step, and both sides of each of the
# three checkpoint saves, for both runs
INTERRUPTS = [(f64_clip, fn, call, when) for f64_clip in (False, True)
              for fn, calls in (("train_step", 6), ("save_checkpoint", 3))
              for call in range(1, calls + 1) for when in ("before", "after")]


@pytest.mark.parametrize(
    "f64_clip, fn, call, when", INTERRUPTS,
    ids=[("f64-clip-" if f64_clip else "") + f"{fn}-{call}-{when}"
         for f64_clip, fn, call, when in INTERRUPTS])
def test_interrupted_anywhere_resumes_byte_identical(tmp_path, monkeypatch,
                                                     vit_2x2_files, f64_clip,
                                                     fn, call, when):
    real = getattr(TR, fn)
    calls = []

    def interrupting(*args, **kwargs):
        calls.append(None)
        if len(calls) == call and when == "before":
            raise Interrupt
        out = real(*args, **kwargs)
        if len(calls) == call:
            raise Interrupt
        return out

    wd = str(tmp_path / "run")
    with monkeypatch.context() as m:
        m.setattr(TR, fn, interrupting)
        with pytest.raises(Interrupt):
            TR.run_trainer("classification", vit_2x2_config(f64_clip), wd, seed=3)
    TR.run_trainer("classification", vit_2x2_config(f64_clip), wd, seed=3)
    files = {name: read_bytes(os.path.join(wd, name)) for name in os.listdir(wd)}
    full = vit_2x2_files[f64_clip]
    assert sorted(files) == sorted(full)
    for name in files:
        assert files[name] == full[name], name


class TestKeepFreedMemory:
    class StandInLibc:
        """A libc whose ``mallopt`` records its calls and returns ``ok``."""
        def __init__(self, ok=1):
            self.calls, self.ok = [], ok

        def mallopt(self, param, value):
            self.calls.append((param, value))
            return self.ok

    def use_libc(self, monkeypatch, libc, name="glibc"):
        monkeypatch.setattr(TR.platform, "libc_ver", lambda: (name, "2.36"))
        monkeypatch.setattr(TR.ctypes, "CDLL", lambda _: libc)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_takes_on_glibc(self):
        assert TR._keep_freed_memory() is True

    def test_sets_both_thresholds_mmap_first(self, monkeypatch):
        libc = self.StandInLibc()
        self.use_libc(monkeypatch, libc)
        assert TR._keep_freed_memory() is True
        assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_refused_mmap_threshold_leaves_trim_alone(self, monkeypatch):
        libc = self.StandInLibc(ok=0)
        self.use_libc(monkeypatch, libc)
        assert TR._keep_freed_memory() is False
        assert libc.calls == [(-3, 32 << 20)]

    def test_libc_without_mallopt_is_a_no_op(self, monkeypatch):
        self.use_libc(monkeypatch, object())
        assert TR._keep_freed_memory() is False

    def test_off_glibc_is_a_no_op(self, monkeypatch):
        libc = self.StandInLibc()
        self.use_libc(monkeypatch, libc, name="")
        assert TR._keep_freed_memory() is False
        assert libc.calls == []

    def test_set_after_set_up_before_the_first_step(self, tmp_path, monkeypatch):
        events = []
        for fn in ("build_dataset", "_truncate_records", "_keep_freed_memory",
                   "train_step"):
            real = getattr(TR, fn)

            def record(*args, _fn=fn, _real=real, **kwargs):
                events.append(_fn)
                return _real(*args, **kwargs)

            monkeypatch.setattr(TR, fn, record)
        TR.run_trainer("classification", trainer_config(total_steps=2),
                       str(tmp_path), seed=0)
        assert events == ["build_dataset", "_truncate_records",
                          "_keep_freed_memory", "train_step", "train_step"]


# A fresh interpreter, since the malloc setting is process-wide: it counts
# the minor page faults of each train step of a small 2x2 ViT run
FAULT_COUNT = """
import json, resource, sys, tempfile
from deskml import train
from deskml.config import Config

faults = []
step = train.train_step

def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = step(*args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

train.train_step = counted
config = Config({
    "model": {"name": "vit_classification"},
    "dataset": {"num_train_examples": 256, "num_eval_examples": 32},
    "batch_size": 8,
    "topology": {"host_count": 2, "devices_per_host": 2},
    "total_steps": 16,
    "optimizer": {"kind": "adam", "lr": 1e-3},
})
with tempfile.TemporaryDirectory() as workdir:
    train.run_trainer("classification", config, workdir, seed=1)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_train_steps_reuse_freed_memory(tmp_path):
    # freeing a step's arrays gave their pages back to the OS, so each
    # step of this run faulted about 250 pages back in (120 at the least)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, TMPDIR=str(tmp_path), OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", FAULT_COUNT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert len(faults) == 16
    # the first steps fault in the heap the later ones reuse
    assert statistics.median(faults[4:]) < 25, faults
