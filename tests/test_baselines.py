import numpy as np
import pytest

from deskml import baselines as B
from deskml import matchers
from deskml import rng as R
from deskml import tensor as T
from deskml import train as TR
from deskml.config import Config
from deskml.data import DatasetMetaData, ShardSpec, build_dataset
from deskml.models import ModelError, registered_models
from deskml.tensor import Tensor
from gradcheck import check_grads


def image_meta(k=4, size=8, c=1):
    return DatasetMetaData(num_classes=k, input_shape=(-1, size, size, c),
                           num_train_examples=64, num_eval_examples=16)


def init_and_apply(contract, batch, dtype="f32", train=False):
    arch = contract.build_model()
    shape = (batch,) + tuple(contract.meta.input_shape[1:])
    params, state = arch.init(R.RngKey.from_seed(0))
    x = Tensor(R.normal(R.RngKey.from_seed(1), shape), dtype=dtype)
    out, new_state = arch.apply(params, state, x, train=train,
                                rng=R.RngKey.from_seed(2))
    return params, state, out, new_state


def test_catalog_registers_all_six():
    expected = {"fully_connected_classification", "vit_classification",
                "mixer_classification", "resnet_classification",
                "unet_segmentation", "detr_detection"}
    assert set(B.BASELINES) == expected
    assert expected <= set(registered_models())


def test_catalog_entries_are_complete():
    for name, (factory, defaults, kind) in B.BASELINES.items():
        assert callable(factory)
        assert "name" in defaults["dataset"]
        assert kind in ("classification", "segmentation", "detection")


class TestOutputShapes:
    def test_mlp(self):
        meta = DatasetMetaData(4, (-1, 2), 64, 16)
        _, _, out, _ = init_and_apply(B.build_mlp(Config(), meta), 8)
        assert out.shape == (8, 4)

    def test_vit(self):
        _, _, out, _ = init_and_apply(B.build_vit(Config(), image_meta()), 8)
        assert out.shape == (8, 4)

    def test_mixer(self):
        _, _, out, _ = init_and_apply(B.build_mixer(Config(), image_meta()), 8)
        assert out.shape == (8, 4)

    def test_resnet(self):
        contract = B.build_resnet(Config(), image_meta())
        params, state, out, new_state = init_and_apply(contract, 8, train=True)
        assert out.shape == (8, 4)
        assert set(new_state) == set(state)  # BN stats live in model_state
        assert any("bn" in k for k in state)

    def test_unet(self):
        meta = image_meta(k=3, size=16)
        _, _, out, _ = init_and_apply(B.build_unet(Config(), meta), 4)
        assert out.shape == (4, 16, 16, 3)

    def test_detr(self):
        meta = image_meta(k=2, size=16)
        _, _, out, _ = init_and_apply(B.build_detr_mini(Config(), meta), 4)
        assert out["class_logits"].shape == (4, 8, 3)  # K+1 classes
        assert out["boxes"].shape == (4, 8, 4)
        assert out["boxes"].data.min() >= 0.0
        assert out["boxes"].data.max() <= 1.0


class TestValidation:
    def test_vit_patch_divisibility(self):
        with pytest.raises(Exception, match="divisible"):
            B.build_vit(Config({"model": {"patch_size": 3}}), image_meta())

    def test_detr_slot_capacity(self):
        cfg = Config({"model": {"num_slots": 2},
                      "dataset": {"max_objects": 3}})
        with pytest.raises(Exception, match="num_slots"):
            B.build_detr_mini(cfg, image_meta(k=2, size=16))


class TestDetrLoss:
    def make(self, dtype="f64"):
        meta = image_meta(k=2, size=16)
        cfg = Config({"model": {"dtype": dtype}})
        return B.build_detr_mini(cfg, meta)

    def outputs(self, b=2, slots=8, seed=3, dtype=np.float64):
        k1, k2 = R.split(R.RngKey.from_seed(seed), 2)
        logits = R.normal(k1, (b, slots, 3)).astype(dtype)
        boxes = 1.0 / (1.0 + np.exp(-R.normal(k2, (b, slots, 4)))).astype(dtype)
        return {"class_logits": Tensor(logits), "boxes": Tensor(boxes)}

    def test_empty_targets_reduce_to_classification(self):
        contract = self.make()
        out = self.outputs()
        batch = {"label": Tensor(np.full((2, 3), 2, np.int64)),  # all no-object
                 "boxes": Tensor(np.zeros((2, 3, 4)))}
        loss = contract.loss_fn(out, batch).item()
        # brute-force CE toward the no-object class on every slot
        x = out["class_logits"].data
        e = np.exp(x - x.max(-1, keepdims=True))
        logp = np.log(e / e.sum(-1, keepdims=True))
        ref = -logp[..., 2].mean()
        assert loss == pytest.approx(ref, rel=1e-6)

    def test_target_permutation_invariance(self):
        contract = self.make()
        out = self.outputs(b=1)
        labels = np.array([[0, 1, 0]], np.int64)
        boxes = R.uniform(R.RngKey.from_seed(4), (1, 3, 4))
        a = contract.loss_fn(out, {"label": Tensor(labels),
                                   "boxes": Tensor(boxes)}).item()
        perm = [2, 0, 1]
        b = contract.loss_fn(out, {"label": Tensor(labels[:, perm]),
                                   "boxes": Tensor(boxes[:, perm])}).item()
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("algorithm, solver", [
        ("greedy", "greedy_match"), ("sinkhorn", "sinkhorn_match")])
    def test_configured_matcher_replaces_hungarian(self, monkeypatch,
                                                   algorithm, solver):
        calls = dict.fromkeys(("hungarian", solver), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(matchers, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(matchers, name, counted)
        contract = B.build_detr_mini(
            Config({"model": {"dtype": "f64", "matcher": algorithm}}),
            image_meta(k=2, size=16))
        labels = Tensor(np.array([[0, 1, 2], [1, 2, 2]], np.int64))
        boxes = Tensor(R.uniform(R.RngKey.from_seed(4), (2, 3, 4)))
        out = self.outputs()
        contract.loss_fn(out, {"label": labels, "boxes": boxes})
        assert calls == {"hungarian": 0, solver: 2}  # one per image
        contract.get_metrics_fn()(out, labels, None, boxes=boxes)
        assert calls == {"hungarian": 0, solver: 2}  # loss_fn's matches reused

    def count_hungarian(self, monkeypatch):
        calls = []
        hungarian = matchers.hungarian

        def counted(costs):
            calls.append(costs.shape)
            return hungarian(costs)

        monkeypatch.setattr(matchers, "hungarian", counted)
        return calls

    def small_batch(self, mask=None):
        labels = np.array([[0, 1, 2], [2, 2, 2], [1, 2, 2], [0, 0, 1]], np.int64)
        batch = {"inputs": Tensor(R.normal(R.RngKey.from_seed(8), (4, 16, 16, 1)),
                                  dtype="f32"),
                 "label": Tensor(labels),
                 "boxes": Tensor(R.uniform(R.RngKey.from_seed(9), (4, 3, 4)))}
        if mask is not None:
            batch["batch_mask"] = Tensor(np.array(mask, np.float32))
        return batch

    def small_state(self):
        contract = B.build_detr_mini(
            Config({"model": {"dim": 16, "heads": 2, "mlp_dim": 16}}),
            image_meta(k=2, size=16))
        opt = TR.OptimizerSpec()
        state = TR.init_train_state(contract, opt, R.RngKey.from_seed(0))
        return contract, state

    def test_train_step_matches_once_and_reports_its_loss(self, monkeypatch):
        calls = self.count_hungarian(monkeypatch)
        contract, state = self.small_state()
        losses = []
        value_and_grad = TR.value_and_grad

        def recorded(objective, params):
            loss, grads = value_and_grad(objective, params)
            losses.append(loss.item())
            return loss, grads

        monkeypatch.setattr(TR, "value_and_grad", recorded)
        parts = TR._split_device_batches(self.small_batch(), 2)
        _, table = TR.train_step(state, parts, TR.Topology(1, 2), contract,
                                 TR.OptimizerSpec())
        assert len(calls) == 3  # one per image with objects
        assert table["loss"] == (losses[0] * 4.0, 4.0)

    def test_eval_matches_each_real_image_once(self, monkeypatch):
        calls = self.count_hungarian(monkeypatch)
        contract, state = self.small_state()
        # the last row is padding: it has objects but is masked out
        table = TR.eval_step(state, [self.small_batch(mask=[1, 1, 1, 0])],
                             contract)
        assert calls == [(2, 8), (1, 8)]
        assert table["matched_accuracy"][1] == 3.0
        assert np.isfinite(table["loss"][0]) and table["loss"][1] == 3.0

    def test_unknown_matcher_rejected_at_build(self):
        with pytest.raises(ModelError, match="nope"):
            B.build_detr_mini(Config({"model": {"matcher": "nope"}}),
                              image_meta(k=2, size=16))

    def test_perfect_prediction_metrics(self):
        contract = self.make()
        metric_fn = contract.get_metrics_fn()
        labels = np.array([[0, 1, 2]], np.int64)  # 2 objects + 1 empty slot
        tbox = np.zeros((1, 3, 4))
        tbox[0, 0] = [0.1, 0.1, 0.5, 0.5]
        tbox[0, 1] = [0.2, 0.6, 0.4, 0.9]
        logits = np.full((1, 8, 3), -5.0)
        logits[..., 2] = 5.0  # default everything to no-object
        boxes = np.full((1, 8, 4), 0.99)
        logits[0, 3] = [5.0, -5.0, -5.0]
        boxes[0, 3] = tbox[0, 0]
        logits[0, 6] = [-5.0, 5.0, -5.0]
        boxes[0, 6] = tbox[0, 1]
        table = metric_fn({"class_logits": Tensor(logits), "boxes": Tensor(boxes)},
                          Tensor(labels), None, boxes=Tensor(tbox))
        assert table["matched_accuracy"] == (2.0, 2.0)
        assert table["box_l1"][0] == pytest.approx(0.0, abs=1e-9)

    def test_loss_gradient_flows_to_boxes(self):
        contract = self.make()
        out = self.outputs(b=1)
        batch = {"label": Tensor(np.array([[0, 2, 2]], np.int64)),
                 "boxes": Tensor(np.array(
                     [[[0.1, 0.1, 0.5, 0.5], [0, 0, 0, 0], [0, 0, 0, 0]]]))}

        def f(p):
            return contract.loss_fn(
                {"class_logits": p["logits"], "boxes": T.sigmoid(p["raw"])},
                batch)

        params = {"logits": out["class_logits"],
                  "raw": Tensor(R.normal(R.RngKey.from_seed(5), (1, 8, 4)))}
        check_grads(f, params, rtol=1e-4)


@pytest.mark.parametrize("name", ["vit_classification", "mixer_classification"])
def test_transformer_baselines_gradients(name):
    factory, _, _ = B.BASELINES[name]
    contract = factory(Config({"model": {"dtype": "f64", "dim": 8, "heads": 2,
                                         "depth": 1, "patch_size": 4}}),
                       image_meta())
    arch = contract.build_model()
    params, state = arch.init(R.RngKey.from_seed(6))
    x = Tensor(R.normal(R.RngKey.from_seed(7), (2, 8, 8, 1)))
    batch = {"label": Tensor(np.array([0, 2], np.int64))}

    def f(p):
        out, _ = arch.apply(p, state, x, train=False)
        return contract.loss_fn(out, batch)

    check_grads(f, params, rtol=1e-4)


@pytest.mark.parametrize("name", sorted(B.BASELINES))
def test_every_parameter_has_a_gradient(name):
    # A parameter whose float64 gradient vanishes at perturbed parameters
    # (a bias that batch norm or a softmax cancels) only random-walks on
    # round-off under Adam; no baseline may hold one.
    factory, defaults, _ = B.BASELINES[name]
    cfg = Config({"model": {"name": name, "dtype": "f64"},
                  "dataset": {**defaults["dataset"], "num_train_examples": 8,
                              "num_eval_examples": 4}})
    ds = build_dataset(cfg.require("dataset.name"), ShardSpec(0, 1, 1, 8),
                       R.RngKey.from_seed(0), cfg)
    contract = factory(cfg, ds.meta_data)
    arch = contract.build_model()
    batch = next(ds.train_iter)
    params, state = arch.init(R.RngKey.from_seed(1))
    keys = R.split(R.RngKey.from_seed(2), len(params))
    params = {k: Tensor(p.data + 0.1 * R.normal(kk, p.shape))
              for (k, p), kk in zip(params.items(), keys)}

    def objective(p):
        out, _ = arch.apply(p, state, batch["inputs"], train=True,
                            rng=R.RngKey.from_seed(3))
        return contract.loss_fn(out, batch)

    _, grads = T.value_and_grad(objective, params)
    size = {k: float(np.abs(g.data).max()) for k, g in grads.items()}
    largest = max(size.values())
    dead = sorted(k for k, v in size.items() if v < 1e-12 * largest)
    assert not dead, f"{name}: zero gradient for {dead}"


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("name", sorted(B.BASELINES))
def test_init_from_the_key_alone_builds_in_the_model_dtype(name, dtype):
    factory, defaults, _ = B.BASELINES[name]
    cfg = Config({"model": {"dtype": dtype},
                  "dataset": {**defaults["dataset"], "num_train_examples": 8,
                              "num_eval_examples": 4}})
    ds = build_dataset(cfg.require("dataset.name"), ShardSpec(0, 1, 1, 8),
                       R.RngKey.from_seed(0), cfg)
    params, state = factory(cfg, ds.meta_data).build_model().init(
        R.RngKey.from_seed(1))
    assert params
    wrong = sorted(k for k, t in [*params.items(), *state.items()]
                   if t.dtype != dtype)
    assert not wrong, f"{name}: not {dtype}: {wrong}"


def test_every_baseline_trains_one_step(tmp_path):
    for name, (_, defaults, kind) in B.BASELINES.items():
        cfg = {"model": {"name": name}, "batch_size": 4, "total_steps": 1,
               "eval_every": 1,
               "dataset": {"num_train_examples": 8, "num_eval_examples": 4}}
        merged = dict(defaults)
        merged["dataset"] = {**defaults["dataset"], **cfg["dataset"]}
        cfg["dataset"] = merged["dataset"]
        out = TR.run_trainer(kind, Config(cfg), str(tmp_path / name), seed=0)
        assert "loss" in out


@pytest.mark.parametrize("name", sorted(B.BASELINES))
def test_fixed_seed_runs_are_byte_identical(tmp_path, name):
    _, defaults, kind = B.BASELINES[name]
    cfg = Config({"model": {"name": name}, "batch_size": 8, "total_steps": 4,
                  "eval_every": 2, "optimizer": {"kind": "adam", "lr": 1e-3},
                  "dataset": {**defaults["dataset"], "num_train_examples": 32,
                              "num_eval_examples": 20}})
    files = []
    for run in ("a", "b"):
        wd = tmp_path / run
        TR.run_trainer(kind, cfg, str(wd), seed=3)
        files.append({f: (wd / f).read_bytes()
                      for f in ("metrics.jsonl", "ckpt_2.bin", "ckpt_4.bin")})
    assert files[0] == files[1]
