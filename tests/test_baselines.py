import numpy as np
import pytest

from deskml import baselines as B
from deskml import matchers
from deskml import rng as R
from deskml import tensor as T
from deskml import train as TR
from deskml.config import Config
from deskml.data import DatasetMetaData, ShardSpec, build_dataset
from deskml.models import (ModelError, _one_hot, example_mask, masked_mean,
                           registered_models, softmax_cross_entropy)
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
        contract.get_metrics_fn()(out, label=labels, boxes=boxes)
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
        batch = self.small_batch()
        parts = [{k: Tensor(v.data[i:i + 2]) for k, v in batch.items()}
                 for i in (0, 2)]
        _, table = TR.train_step(state, parts, TR.Topology(2, 1), contract,
                                 TR.OptimizerSpec())
        assert len(calls) == 3  # one per image with objects
        # the metric sums the images' float32 losses in float64
        assert table["loss"][0] == pytest.approx(losses[0] * 4.0, rel=1e-6)
        assert table["loss"][1] == 4.0

    def test_eval_matches_each_real_image_once(self, monkeypatch):
        calls = self.count_hungarian(monkeypatch)
        contract, state = self.small_state()
        # the last row is padding: it has objects but is masked out
        table = TR.eval_step(state, [self.small_batch(mask=[1, 1, 1, 0])],
                             contract)
        assert calls == [(2, 8), (1, 8)]
        assert table["matched_accuracy"][1] == 3.0
        assert np.isfinite(table["loss"][0]) and table["loss"][1] == 3.0

    def test_eval_loss_does_not_depend_on_how_steps_group_the_rows(self):
        contract, state = self.small_state()
        batch = self.small_batch()
        rows = {k: Tensor(np.concatenate([v.data] * 3)) for k, v in batch.items()}
        whole = TR.eval_step(state, [rows], contract)
        parts = [TR.eval_step(state, [{k: Tensor(v.data[i:j]) for k, v in rows.items()}],
                              contract) for i, j in ((0, 5), (5, 12))]
        assert TR.aggregate_metrics([whole])["loss"] == pytest.approx(
            TR.aggregate_metrics(parts)["loss"], rel=1e-12)

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
                          label=Tensor(labels), boxes=Tensor(tbox))
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


class PerImageDetrCriterion:
    """DETR's matching, set loss and metrics computed image by image, as
    they were before the batch form: the reference it must equal bit for
    bit. ``metrics`` recomputes the matches and the loss, as eval did."""

    def __init__(self, k, max_objects, algorithm, lambda_cls=1.0, lambda_box=5.0):
        self.k, self.no_object, self.max_objects = k, k, max_objects
        self.algorithm = algorithm
        self.lambda_cls, self.lambda_box = lambda_cls, lambda_box

    def match(self, outputs, batch):
        prob = T.softmax(outputs["class_logits"].detach()).data
        pboxes = outputs["boxes"].data
        tcls, tbox = batch["label"].data, batch["boxes"].data
        mask = example_mask(batch.get("batch_mask"), len(pboxes))
        out = []
        for i in range(len(pboxes)):
            real = np.nonzero(tcls[i] != self.no_object)[0]
            if len(real) == 0 or mask[i] == 0:
                out.append((real[:0], np.array([], np.int64)))
                continue
            cls_cost = 1.0 - prob[i][:, tcls[i][real]].T
            box_cost = np.abs(tbox[i][real][:, None, :] - pboxes[i][None, :, :]).sum(-1)
            asg = matchers.match(self.lambda_cls * cls_cost + self.lambda_box * box_cost,
                                 self.algorithm)
            out.append((real, np.asarray(asg.row_to_col, np.int64)))
        return out

    def set_loss(self, outputs, batch, matches):
        mask = example_mask(batch.get("batch_mask"), len(outputs["boxes"].data))
        return masked_mean(self.per_image(outputs, batch, matches), mask, mask.sum())

    def per_image(self, outputs, batch, matches):
        logits, boxes = outputs["class_logits"], outputs["boxes"]
        b, s, _ = logits.shape
        tcls, tbox = batch["label"].data, batch["boxes"].data
        slot_cls = np.full((b, s), self.no_object, np.int64)
        sel = np.zeros((b, self.max_objects, s))
        n_obj = np.zeros(b)
        for i, (targets, slots) in enumerate(matches):
            slot_cls[i, slots] = tcls[i][targets]
            sel[i, targets, slots] = 1.0
            n_obj[i] = len(targets)
        ce = softmax_cross_entropy(logits, _one_hot(Tensor(slot_cls), self.k + 1))
        ce_per_image = T.tmean(ce, axis=-1)
        matched = Tensor(sel.astype(boxes.data.dtype)) @ boxes
        diff = matched - Tensor(tbox.astype(boxes.data.dtype)) * Tensor(
            sel.sum(-1, keepdims=True).astype(boxes.data.dtype))
        l1 = T.tsum(T.tsum(T.relu(diff) + T.relu(-diff), axis=-1), axis=-1)
        l1_per_image = l1 * Tensor((1.0 / np.maximum(n_obj, 1.0)).astype(boxes.data.dtype))
        return ce_per_image + l1_per_image * self.lambda_box

    def metrics(self, outputs, label, batch_mask=None, boxes=None):
        batch = {"label": label, "boxes": boxes}
        if batch_mask is not None:
            batch["batch_mask"] = batch_mask
        matches = self.match(outputs, batch)
        logits, pboxes = outputs["class_logits"].data, outputs["boxes"].data
        tcls, tbox = label.data, boxes.data
        mask = example_mask(batch_mask, logits.shape[0])
        correct = objects = l1_sum = loss_sum = 0.0
        losses = self.per_image(outputs, batch, matches).data
        for i, (targets, slots) in enumerate(matches):
            if mask[i] == 0:
                continue
            pred_cls = logits[i, slots].argmax(-1)
            correct += float((pred_cls == tcls[i][targets]).sum())
            objects += float(len(targets))
            if len(targets):
                l1_sum += float(np.abs(pboxes[i, slots] - tbox[i][targets]).mean(-1).sum())
            loss_sum += float(losses[i]) * mask[i]
        return {"matched_accuracy": (correct, objects), "box_l1": (l1_sum, objects),
                "loss": (loss_sum, float(mask.sum()))}


class TestDetrBatchCriterion:
    """The batch-form criterion gives the per-image one's loss, gradients,
    metric tables and matches, bit for bit."""

    K = 2  # classes; label K is no-object

    def case(self, dtype, max_objects, mask, seed=0, b=6):
        k = self.K
        slots = max_objects + 3
        keys = R.split(R.RngKey.from_seed(seed), 4)
        labels = np.floor(R.uniform(keys[0], (b, max_objects)) * (k + 1)).astype(np.int64)
        labels[0] = k  # no objects
        labels[1] = np.arange(max_objects) % k  # every target real
        labels[2, :3] = [0, k, 1][:max_objects]  # a no-object before an object
        batch = {"label": Tensor(labels),
                 "boxes": Tensor(R.uniform(keys[1], (b, max_objects, 4)), dtype="f32")}
        if mask is not None:
            batch["batch_mask"] = Tensor(np.array(mask, np.float32))
        params = {"class_logits": Tensor(R.normal(keys[2], (b, slots, k + 1)), dtype=dtype),
                  "boxes": Tensor(R.uniform(keys[3], (b, slots, 4)), dtype=dtype)}
        return batch, params

    def contract(self, dtype, max_objects, algorithm):
        cfg = Config({"model": {"dtype": dtype, "matcher": algorithm,
                                "num_slots": max_objects + 3},
                      "dataset": {"max_objects": max_objects}})
        return (B.build_detr_mini(cfg, image_meta(k=self.K, size=16)),
                PerImageDetrCriterion(self.K, max_objects, algorithm))

    @staticmethod
    def metric_args(batch):
        return batch["label"], batch.get("batch_mask"), batch["boxes"]

    @pytest.mark.parametrize("algorithm", ["hungarian", "greedy", "sinkhorn"])
    @pytest.mark.parametrize("max_objects", [0, 3, 9])
    @pytest.mark.parametrize("mask", [None, [1, 1, 1, 0, 1, 0]])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_equals_the_per_image_criterion(self, dtype, mask, max_objects, algorithm):
        contract, ref = self.contract(dtype, max_objects, algorithm)
        metric_fn = contract.get_metrics_fn()
        for seed in range(2):
            batch, params = self.case(dtype, max_objects, mask, seed=seed)
            label, batch_mask, boxes = self.metric_args(batch)
            matches = ref.match(params, batch)
            seen = {}

            def new(p):
                seen["outputs"] = dict(p)
                return contract.loss_fn(seen["outputs"], batch)

            loss, grads = T.value_and_grad(new, params)
            ref_loss, ref_grads = T.value_and_grad(
                lambda p: ref.set_loss(p, batch, matches), params)
            assert loss.item() == ref_loss.item()
            for name in params:
                assert grads[name].dtype == ref_grads[name].dtype
                assert np.array_equal(grads[name].data, ref_grads[name].data), name

            img, tgt, slot = seen["outputs"][B._MATCHED][1]
            assert img.dtype == tgt.dtype == slot.dtype == np.int64
            assert np.array_equal(img, np.repeat(np.arange(len(matches)),
                                                 [len(t) for t, _ in matches]))
            assert np.array_equal(tgt, np.concatenate([t for t, _ in matches]))
            assert np.array_equal(slot, np.concatenate([s for _, s in matches]))

            want = ref.metrics(params, label, batch_mask, boxes=boxes)
            # after loss_fn, as a train step calls it, and afresh, as eval does
            assert metric_fn(seen["outputs"], label=label, batch_mask=batch_mask,
                             boxes=boxes) == want
            assert metric_fn(dict(params), label=label, batch_mask=batch_mask,
                             boxes=boxes) == want

    @pytest.mark.parametrize("max_objects", [0, 3, 9])
    def test_all_padding_batch_reads_zero_without_matching(self, monkeypatch, max_objects):
        contract, ref = self.contract("f32", max_objects, "hungarian")
        batch, params = self.case("f32", max_objects, [0] * 6)
        label, batch_mask, boxes = self.metric_args(batch)
        calls = []
        monkeypatch.setattr(T, "softmax", lambda *a: calls.append(a))
        table = contract.get_metrics_fn()(params, label=label, batch_mask=batch_mask,
                                          boxes=boxes)
        assert calls == []
        monkeypatch.undo()
        assert table == ref.metrics(params, label, batch_mask, boxes=boxes)
        assert table == dict.fromkeys(("matched_accuracy", "box_l1", "loss"), (0.0, 0.0))


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


def test_vit_dropout_without_a_key_refused():
    contract = B.build_vit(Config({"model": {"dropout": 0.1}}), image_meta())
    arch = contract.build_model()
    params, state = arch.init(R.RngKey.from_seed(0))
    x = Tensor(np.zeros((2, 8, 8, 1), np.float32))
    with pytest.raises(ValueError, match="needs an rng key"):
        arch.apply(params, state, x, train=True, rng=None)
    arch.apply(params, state, x, train=False, rng=None)  # eval draws no mask


def test_vit_without_blocks_trains_one_step(tmp_path):
    # as Mixer and DETR do at depth 0: no block, so no dropout mask to draw
    cfg = Config({"model": {"name": "vit_classification", "depth": 0,
                            "dropout": 0.1},
                  "batch_size": 4, "total_steps": 1, "eval_every": 1,
                  "dataset": {"num_train_examples": 8, "num_eval_examples": 4}})
    out = TR.run_trainer("classification", cfg, str(tmp_path / "vit"), seed=0)
    assert np.isfinite(out["loss"])


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
