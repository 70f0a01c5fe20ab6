import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskml import data as D
from deskml import rng as R
from deskml.config import Config, ConfigError
from deskml.tensor import Tensor


def spec(host_id=0, hosts=1, devices=1, batch=4):
    return D.ShardSpec(host_id=host_id, host_count=hosts,
                       devices_per_host=devices, per_device_batch=batch)


class TestShardIndices:
    def test_single_host_gets_everything(self):
        idx = D.shard_indices(10, spec())
        assert np.array_equal(idx, np.arange(10))

    def test_uneven_split_10_over_3(self):
        blocks = [D.shard_indices(10, spec(h, hosts=3)) for h in range(3)]
        assert [b.tolist() for b in blocks] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]

    @given(st.integers(1, 200), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_blocks_partition_range(self, n, hosts):
        if n < hosts:
            with pytest.raises(D.DatasetError):
                D.shard_indices(n, spec(0, hosts=hosts))
            return
        blocks = [D.shard_indices(n, spec(h, hosts=hosts)) for h in range(hosts)]
        assert all(len(b) for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.arange(n))

    def test_bad_host_id(self):
        with pytest.raises(D.DatasetError):
            spec(host_id=2, hosts=2)


class TestPadIncompleteBatch:
    def test_full_batch_untouched(self):
        batch = {"inputs": Tensor(np.ones((4, 2), np.float32)),
                 "label": Tensor(np.arange(4))}
        out = D.pad_incomplete_batch(batch, 4)
        assert np.array_equal(out["inputs"].data, batch["inputs"].data)
        assert np.array_equal(out["batch_mask"].data, [1, 1, 1, 1])

    def test_short_batch_padded_and_masked(self):
        x = np.arange(6, dtype=np.float32).reshape(3, 2)
        out = D.pad_incomplete_batch(
            {"inputs": Tensor(x), "label": Tensor(np.array([5, 6, 7]))}, 5)
        assert out["inputs"].shape == (5, 2)
        # padding repeats row 0 for inputs, sentinel 0 for labels
        assert np.array_equal(out["inputs"].data[3], x[0])
        assert np.array_equal(out["inputs"].data[4], x[0])
        assert out["label"].data.tolist() == [5, 6, 7, 0, 0]
        assert out["batch_mask"].data.tolist() == [1, 1, 1, 0, 0]

    def test_oversized_batch_rejected(self):
        with pytest.raises(D.DatasetError):
            D.pad_incomplete_batch({"inputs": Tensor(np.ones((4, 1)))}, 3)

    def test_inconsistent_extents_rejected(self):
        with pytest.raises(D.DatasetError, match="leading extents"):
            D.pad_incomplete_batch({"inputs": Tensor(np.ones((3, 1))),
                                    "label": Tensor(np.ones(2))}, 4)


class TestBuildDataset:
    def test_unknown_name_lists_registered(self):
        with pytest.raises(D.DatasetError, match="blobs_classification"):
            D.build_dataset("nope", spec(), R.RngKey.from_seed(0))

    def test_train_batches_deterministic(self):
        def first3(seed):
            ds = D.build_dataset("blobs_classification", spec(), seed)
            return [next(ds.train_iter) for _ in range(3)]

        a = first3(R.RngKey.from_seed(4))
        b = first3(R.RngKey.from_seed(4))
        for ba, bb in zip(a, b):
            assert np.array_equal(ba["inputs"].data, bb["inputs"].data)
            assert np.array_equal(ba["label"].data, bb["label"].data)

    def test_epochs_reshuffle(self):
        cfg = Config({"dataset": {"num_train_examples": 8}})
        ds = D.build_dataset("blobs_classification", spec(batch=8),
                             R.RngKey.from_seed(1), cfg)
        e0 = next(ds.train_iter)["label"].data
        e1 = next(ds.train_iter)["label"].data
        assert sorted(e0.tolist()) == sorted(e1.tolist())  # same examples
        assert not np.array_equal(e0, e1)  # different order

    @pytest.mark.parametrize("n, batch", [(11, 4), (12, 4), (8, 8), (9, 1)])
    def test_stream_started_at_a_step_is_the_tail_of_the_whole_stream(self, n, batch):
        cfg = Config({"dataset": {"num_train_examples": n}})

        def labels(start_step, count):
            ds = D.build_dataset("blobs_classification", spec(batch=batch),
                                 R.RngKey.from_seed(5), cfg, start_step=start_step)
            return [next(ds.train_iter)["label"].data.tolist() for _ in range(count)]

        whole = labels(0, 3 * n)  # three epochs and more
        for k in range(2 * n):
            assert labels(k, 3) == whole[k:k + 3], k

    def test_eval_epoch_covers_shard_exactly_once(self):
        cfg = Config({"dataset": {"num_eval_examples": 10}})
        ds = D.build_dataset("blobs_classification", spec(batch=4),
                             R.RngKey.from_seed(2), cfg)
        batches = list(ds.eval_iter())
        assert len(batches) == 3  # 4 + 4 + 2(padded)
        masks = np.concatenate([b["batch_mask"].data for b in batches])
        assert masks.sum() == 10
        assert batches[-1]["batch_mask"].data.tolist() == [1, 1, 0, 0]

    def test_hosts_get_disjoint_eval_examples(self):
        cfg = Config({"dataset": {"num_eval_examples": 12,
                                  "num_train_examples": 12}})
        rows = []
        for h in range(3):
            ds = D.build_dataset("blobs_classification",
                                 spec(h, hosts=3, batch=2),
                                 R.RngKey.from_seed(7), cfg)
            for b in ds.eval_iter():
                keep = b["batch_mask"].data > 0
                rows.append(b["inputs"].data[keep])
        rows = np.concatenate(rows)
        assert rows.shape[0] == 12
        assert len({tuple(r) for r in rows}) == 12

    def test_batch_larger_than_shard_rejected(self):
        cfg = Config({"dataset": {"num_train_examples": 4}})
        with pytest.raises(D.DatasetError, match="exceeds shard"):
            D.build_dataset("blobs_classification", spec(batch=8),
                            R.RngKey.from_seed(0), cfg)

    def test_metadata(self):
        ds = D.build_dataset("blobs_classification", spec(),
                             R.RngKey.from_seed(0))
        assert ds.meta_data.num_classes == 4
        assert ds.meta_data.input_shape == (-1, 2)
        assert ds.meta_data.num_train_examples == 256

    def test_segmentation_shapes_and_labels(self):
        ds = D.build_dataset("shapes_segmentation", spec(),
                             R.RngKey.from_seed(3))
        b = next(ds.train_iter)
        assert b["inputs"].shape == (4, 16, 16, 1)
        assert b["label"].shape == (4, 16, 16)
        assert set(np.unique(b["label"].data)) <= {0, 1, 2}

    def test_detection_labels_and_boxes(self):
        ds = D.build_dataset("boxes_detection", spec(batch=16),
                             R.RngKey.from_seed(5))
        b = next(ds.train_iter)
        assert b["label"].shape == (16, 3)
        assert b["boxes"].shape == (16, 3, 4)
        # no-object slots use the sentinel class and a zero box
        sentinel = b["label"].data == 2
        assert np.all(b["boxes"].data[sentinel] == 0.0)
        real = ~sentinel
        bx = b["boxes"].data[real]
        assert np.all((bx >= 0.0) & (bx <= 1.0))
        assert np.all(bx[:, 2] > bx[:, 0]) and np.all(bx[:, 3] > bx[:, 1])

    def test_eval_on_train_reuses_training_examples(self):
        cfg = Config({"dataset": {"num_train_examples": 8,
                                  "eval_on_train": True}})
        ds = D.build_dataset("blobs_classification", spec(batch=8),
                             R.RngKey.from_seed(9), cfg)
        train_rows = next(ds.train_iter)["inputs"].data
        eval_rows = np.concatenate([b["inputs"].data for b in ds.eval_iter()])
        assert {tuple(r) for r in eval_rows} == {tuple(r) for r in train_rows}


class TestGeneratorsKnownAnswer:
    """Each generator's arrays, pinned by sha256 digests recorded before the
    generators drew every image's words in one batched cipher call. Each
    image's stream depends only on its (key, counter) pairs, so batching
    must leave every byte as it was."""

    CONFIGS = {
        "blobs_classification": {"num_classes": 3, "input_shape": [4, 5]},
        "shapes_segmentation": {"image_size": 13},
        "boxes_detection": {"image_size": 16, "num_classes": 3, "max_objects": 4},
    }

    @staticmethod
    def digest(arrays):
        import hashlib
        h = hashlib.sha256()
        for name in sorted(arrays):
            a = np.ascontiguousarray(arrays[name])
            h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
            h.update(a.tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("name, seed, keys, want", [
        ("blobs_classification", 0, ["inputs", "label"], "25270d87f5113a1d"),
        ("blobs_classification", 1, ["inputs", "label"], "362ec74015af4a41"),
        ("shapes_segmentation", 0, ["inputs", "label"], "04e020269cbaa43a"),
        ("shapes_segmentation", 1, ["inputs", "label"], "3e46967ff26324ca"),
        ("boxes_detection", 0, ["boxes", "inputs", "label"], "c0314cdc248e6fa6"),
        ("boxes_detection", 1, ["boxes", "inputs", "label"], "94c67a96f265ed4c"),
    ])
    def test_digest(self, name, seed, keys, want):
        task, key = R.split(R.RngKey.from_seed(seed), 2)
        arrays, _, _ = D._GENERATORS[name](
            task, key, 37, Config({"dataset": self.CONFIGS[name]}))
        assert sorted(arrays) == keys
        assert self.digest(arrays) == want


class TestGeneratorConfig:
    @pytest.mark.parametrize("name", ["shapes_segmentation", "boxes_detection"])
    @pytest.mark.parametrize("size", [-1, 0, 1, 2])
    def test_image_too_small_for_a_shape_rejected(self, name, size):
        cfg = Config({"dataset": {"image_size": size}})
        with pytest.raises(ConfigError, match=r"'dataset.image_size' must be in \[3, inf\)"):
            D.build_dataset(name, spec(), R.RngKey.from_seed(0), cfg)

    @pytest.mark.parametrize("name", ["shapes_segmentation", "boxes_detection"])
    def test_smallest_image_keeps_shapes_inside(self, name):
        cfg = Config({"dataset": {"image_size": 3, "num_train_examples": 64}})
        ds = D.build_dataset(name, spec(batch=64), R.RngKey.from_seed(0), cfg)
        b = next(ds.train_iter)
        assert b["inputs"].shape == (64, 3, 3, 1)
        if name == "boxes_detection":
            bx = b["boxes"].data
            assert np.all((bx >= 0.0) & (bx <= 1.0))

    @pytest.mark.parametrize("values", [{"num_classes": 0}, {"max_objects": -1}])
    def test_detection_counts_validated(self, values):
        cfg = Config({"dataset": values})
        key = next(iter(values))
        with pytest.raises(ConfigError, match=fr"'dataset.{key}' must be in \["):
            D.build_dataset("boxes_detection", spec(), R.RngKey.from_seed(0), cfg)

    def test_detection_without_objects(self):
        cfg = Config({"dataset": {"max_objects": 0}})
        ds = D.build_dataset("boxes_detection", spec(), R.RngKey.from_seed(0), cfg)
        b = next(ds.train_iter)
        assert b["label"].shape == (4, 0) and b["boxes"].shape == (4, 0, 4)
