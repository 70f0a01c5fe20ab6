import numpy as np
import pytest

from deskml import models as M
from deskml import rng as R
from deskml.tensor import Tensor


def tb(x, dtype=np.float32):
    return Tensor(np.asarray(x, dtype))


class TestRegistry:
    def test_register_and_lookup(self):
        sentinel = object()
        M.register_model("_tmp_model", lambda cfg, meta: sentinel)
        try:
            assert M.get_model_cls("_tmp_model")(None, None) is sentinel
            assert "_tmp_model" in M.registered_models()
        finally:
            M._REGISTRY.pop("_tmp_model")

    def test_defaults_stored_with_the_factory(self):
        M.register_model("_tmp_defaults", lambda cfg, meta: None,
                         defaults={"dataset": {"name": "blobs_classification"}})
        try:
            assert M.model_defaults("_tmp_defaults") == {
                "dataset": {"name": "blobs_classification"}}
        finally:
            M._REGISTRY.pop("_tmp_defaults")
        assert M.model_defaults("vit_classification")["dataset"][
            "input_shape"] == [8, 8, 1]

    def test_duplicate_rejected(self):
        M.register_model("_tmp_dup", lambda cfg, meta: None)
        try:
            with pytest.raises(M.ModelError, match="already registered"):
                M.register_model("_tmp_dup", lambda cfg, meta: None)
        finally:
            M._REGISTRY.pop("_tmp_dup")

    def test_unknown_lists_registered(self):
        with pytest.raises(M.ModelError, match="registered"):
            M.get_model_cls("no_such_model")


class TestClassificationLoss:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 10):
            logits = tb(np.zeros((5, k)))
            loss = M.classification_loss(logits, {"label": tb([0] * 5, np.int64)})
            assert loss.item() == pytest.approx(np.log(k), rel=1e-6)

    def test_saturated_correct_prediction_near_zero(self):
        logits = tb([[50.0, 0.0, 0.0]])
        loss = M.classification_loss(logits, {"label": tb([0], np.int64)})
        assert loss.item() < 1e-9

    def test_matches_per_example_brute_force(self):
        x = R.normal(R.RngKey.from_seed(0), (6, 4))
        ids = R.randint(R.RngKey.from_seed(1), (6,), 0, 4)
        loss = M.classification_loss(tb(x), {"label": Tensor(ids)}).item()
        e = np.exp(x - x.max(-1, keepdims=True))
        p = e / e.sum(-1, keepdims=True)
        ref = -np.log(p[np.arange(6), ids]).mean()
        assert loss == pytest.approx(ref, rel=1e-5)

    def test_mask_excludes_examples(self):
        x = R.normal(R.RngKey.from_seed(2), (2, 3))
        labels = tb([0, 1], np.int64)
        full = M.classification_loss(tb(x[:1]), {"label": tb([0], np.int64)})
        masked = M.classification_loss(
            tb(x), {"label": labels, "batch_mask": tb([1.0, 0.0])})
        assert masked.item() == pytest.approx(full.item(), rel=1e-6)

    def test_label_smoothing_changes_target(self):
        x = tb([[10.0, 0.0]])
        plain = M.classification_loss(x, {"label": tb([0], np.int64)}).item()
        smooth = M.classification_loss(
            x, {"label": tb([0], np.int64)}, label_smoothing=0.2).item()
        assert smooth > plain

    def test_class_count_validated(self):
        with pytest.raises(M.ModelError, match="classes"):
            M.classification_loss(tb(np.zeros((2, 3))),
                                  {"label": tb([0, 0], np.int64)}, num_classes=4)
        with pytest.raises(M.ModelError, match="outside"):
            M.classification_loss(tb(np.zeros((1, 3))),
                                  {"label": tb([3], np.int64)})

    def test_all_masked_rejected(self):
        with pytest.raises(M.ModelError, match="masked"):
            M.classification_loss(
                tb(np.zeros((2, 3))),
                {"label": tb([0, 0], np.int64), "batch_mask": tb([0.0, 0.0])})


class TestSegmentationLoss:
    def test_uniform_logits_give_log_k(self):
        logits = tb(np.zeros((2, 4, 4, 3)))
        label = tb(np.zeros((2, 4, 4)), np.int64)
        loss = M.segmentation_loss(logits, {"label": label})
        assert loss.item() == pytest.approx(np.log(3.0), rel=1e-6)

    def test_mask_excludes_example_pixels(self):
        x = R.normal(R.RngKey.from_seed(6), (2, 2, 2, 3))
        ids = R.randint(R.RngKey.from_seed(7), (2, 2, 2), 0, 3)
        only_first = M.segmentation_loss(
            tb(x[:1]), {"label": Tensor(ids[:1])}).item()
        masked = M.segmentation_loss(
            tb(x), {"label": Tensor(ids), "batch_mask": tb([1.0, 0.0])}).item()
        assert masked == pytest.approx(only_first, rel=1e-5)


class TestMetricFunctions:
    def test_classification_accuracy_counts(self):
        logits = tb([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        label = tb([0, 1, 1, 1], np.int64)
        out = M.classification_metrics(logits, label)
        assert out["accuracy"] == (3.0, 4.0)

    def test_mask_drops_padding_rows(self):
        logits = tb([[2.0, 0.0], [2.0, 0.0]])
        label = tb([0, 0], np.int64)
        out = M.classification_metrics(logits, label, batch_mask=tb([1.0, 0.0]))
        assert out["accuracy"] == (1.0, 1.0)

    def test_padding_row_value_is_irrelevant(self):
        logits = np.array([[2.0, 0.0], [0.0, 0.0]], np.float32)
        label = tb([0, 0], np.int64)
        mask = tb([1.0, 0.0])
        a = M.classification_metrics(tb(logits), label, mask)
        logits[1] = [123.0, -9.0]
        b = M.classification_metrics(tb(logits), label, mask)
        assert a == b

    def test_metric_sums_are_decomposable(self):
        x = R.normal(R.RngKey.from_seed(11), (8, 3))
        ids = R.randint(R.RngKey.from_seed(12), (8,), 0, 3)
        whole = M.classification_metrics(tb(x), Tensor(ids))
        parts = [M.classification_metrics(tb(x[i:i + 4]), Tensor(ids[i:i + 4]))
                 for i in (0, 4)]
        for name in whole:
            vs = sum(p[name][0] for p in parts)
            ns = sum(p[name][1] for p in parts)
            assert whole[name][0] == pytest.approx(vs, rel=1e-9)
            assert whole[name][1] == ns

    def test_segmentation_pixel_accuracy(self):
        logits = np.zeros((1, 2, 2, 2), np.float32)
        logits[..., 1] = 1.0  # predict class 1 everywhere
        label = tb([[[1, 1], [1, 0]]], np.int64)
        out = M.segmentation_metrics(tb(logits), label)
        assert out["pixel_accuracy"] == (3.0, 4.0)

    def test_segmentation_mean_iou_perfect(self):
        k = 3
        ids = R.randint(R.RngKey.from_seed(13), (2, 4, 4), 0, k)
        logits = np.eye(k, dtype=np.float32)[ids] * 5.0
        out = M.segmentation_metrics(tb(logits), Tensor(ids))
        assert out["mean_iou"][0] / out["mean_iou"][1] == pytest.approx(1.0)

    @staticmethod
    def _mean_iou_loop(logits, ids, mask):
        """The per-example, per-class loop the bincount confusion replaced."""
        pred = logits.astype(np.float64).argmax(-1)
        total = 0.0
        for i in np.nonzero(mask > 0)[0]:
            ious = []
            for c in range(logits.shape[-1]):
                inter = float(((pred[i] == c) & (ids[i] == c)).sum())
                union = float(((pred[i] == c) | (ids[i] == c)).sum())
                if union > 0:
                    ious.append(inter / union)
            total += float(np.mean(ious)) if ious else 1.0
        return total

    # (classes, classes in neither label nor prediction, image side). With
    # 8 or more classes np.mean sums pairwise, so where the absent classes
    # sit changes the rounding of a mean that counted them as zeros.
    @pytest.mark.parametrize("k, absent, side", [
        (3, [], 4), (3, [1], 5), (10, [1, 3, 5], 16), (11, [1, 4, 8], 16)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_segmentation_mean_iou_matches_the_loop(self, k, absent, side, seed):
        used = np.array([c for c in range(k) if c not in absent])
        k1, k2 = R.split(R.RngKey.from_seed(seed), 2)
        ids = used[R.randint(k1, (64, side, side), 0, len(used))]
        logits = R.normal(k2, (64, side, side, k)).astype(np.float32)
        logits[..., absent] = -100.0
        mask = np.ones(64, np.float32)
        mask[[2, 9, 63]] = 0.0  # padded rows count for nothing
        out = M.segmentation_metrics(tb(logits), Tensor(ids), tb(mask))
        assert out["mean_iou"] == (self._mean_iou_loop(logits, ids, mask), 61.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_argmax_fold_takes_the_first_maximum(self, k):
        gen = np.random.default_rng(k)
        x = gen.integers(0, 3, (400, 2, k)).astype(np.float64)  # ties everywhere
        x[:5] = -0.0
        x[5:10, :, ::2] = 0.0
        x[10:15] = -np.inf
        x[15:20, :, -1] = np.inf
        pred = M._argmax_last(x)
        assert pred.dtype == x.argmax(-1).dtype
        assert np.array_equal(pred, x.argmax(-1))

    def test_argmax_fold_with_nan_keeps_np_argmax(self):
        x = np.zeros((6, 3), np.float32)
        x[0] = [np.nan, 1.0, 2.0]
        x[1] = [1.0, np.nan, np.nan]
        x[2] = [np.inf, 0.0, np.nan]
        x[3] = [5.0, 5.0, 1.0]
        assert M._argmax_last(x).tolist() == x.argmax(-1).tolist() == [0, 1, 2, 0, 0, 0]

    def test_segmentation_mean_iou_all_masked_and_one_pixel(self):
        logits = np.zeros((2, 1, 1, 3), np.float32)
        ids = np.zeros((2, 1, 1), np.int64)
        out = M.segmentation_metrics(tb(logits), Tensor(ids), tb([0.0, 0.0]))
        assert out["mean_iou"] == (0.0, 0.0)
        out = M.segmentation_metrics(tb(logits), Tensor(ids), tb([1.0, 0.0]))
        assert out["mean_iou"] == (1.0, 1.0)
