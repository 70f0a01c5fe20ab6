"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so
the gate's verdict is visible in any log.
"""

import contextlib
import itertools
import os
import sys
import time

import numpy as np
import pytest

from deskml import layers as L
from deskml import matchers as MA
from deskml import rng as R
from deskml import tensor as T
from deskml import train as TR
from deskml.baselines import BASELINES
from deskml.checkpoint import load_checkpoint
from deskml.config import Config
from deskml.data import DatasetMetaData, ShardSpec, build_dataset, shard_indices
from deskml.models import classification_metrics
from deskml.tensor import Tensor
from gradcheck import check_grads


_CAPTURE = None


@pytest.fixture(autouse=True)
def _console(capfd):
    """Expose the capture handle so report() can print past it."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    ctx = _CAPTURE.disabled() if _CAPTURE is not None else contextlib.nullcontext()
    with ctx:
        print(line, file=sys.stdout, flush=True)
    assert ok, line


def key(seed):
    return R.RngKey.from_seed(seed)


# ---------------------------------------------------------------------------
# 1. gradient suite: >= 100 random finite-difference checks, < 1 minute


def _check(f, params, rtol):
    return check_grads(f, params, rtol=rtol)


def test_criterion_1_gradients():
    start = time.time()
    cases = 0
    worst_op = worst_block = 0.0

    def rand(k, shape, away_from_zero=False, positive=False):
        x = R.normal(k, shape)
        if away_from_zero:
            x = np.sign(x) * (np.abs(x) + 0.2)
        if positive:
            x = np.abs(x) + 0.5
        return Tensor(x)

    op_cases = []
    for s in range(10):
        ks = R.split(key(s), 4)
        a, b = rand(ks[0], (3, 4)), rand(ks[1], (3, 4))
        op_cases += [
            (lambda p: T.tsum(p["a"] + p["b"] * 2.0), {"a": a, "b": b}),
            (lambda p: T.tsum(p["a"] * p["b"]), {"a": a, "b": b}),
            (lambda p: T.tsum(p["a"] / (p["b"] * p["b"] + 1.0)), {"a": a, "b": b}),
            (lambda p: T.tsum(p["a"] @ p["b"].transpose()), {"a": a, "b": b}),
            (lambda p: T.tsum(T.exp(p["a"] * 0.3)), {"a": a}),
            (lambda p: T.tsum(T.log(p["a"])),
             {"a": rand(ks[2], (3, 4), positive=True)}),
            (lambda p: T.tsum(T.relu(p["a"])),
             {"a": rand(ks[2], (3, 4), away_from_zero=True)}),
            (lambda p: T.tsum(T.sigmoid(p["a"]) + T.tanh(p["a"])), {"a": a}),
            (lambda p: T.tsum(T.gelu(p["a"])), {"a": a}),
            (lambda p: T.tsum(T.softmax(p["a"], axis=-1) ** 2.0), {"a": a}),
            (lambda p: T.tsum(T.log_softmax(p["a"], axis=-1) * 0.1), {"a": a}),
            (lambda p: T.tmean(p["a"].reshape((4, 3)).transpose() ** 2.0), {"a": a}),
            (lambda p: T.tsum(T.concat([p["a"], p["b"]], axis=0)[1:5] ** 2.0),
             {"a": a, "b": b}),
            (lambda p: T.tsum(T.conv2d(p["x"], p["k"]) ** 2.0),
             {"x": rand(ks[2], (1, 4, 4, 2)), "k": rand(ks[3], (3, 3, 2, 2))}),
            (lambda p: T.tsum(T.max_pool2d(p["x"], 2) ** 2.0),
             {"x": rand(ks[2], (1, 4, 4, 3))}),
            (lambda p: T.tsum(T.upsample_nearest2d(p["x"]) ** 2.0),
             {"x": rand(ks[3], (1, 3, 3, 2))}),
        ]
        kd = R.split(key(100 + s), 7)
        x3, w, bias = rand(kd[0], (2, 3, 4)), rand(kd[1], (4, 5)), rand(kd[2], (5,))
        mask = rand(kd[6], (1, 1, 3, 5))
        mask.data[..., 0] = -1e9
        op_cases += [
            (lambda p: T.tsum(T.dense(p["x"], p["w"], p["b"]) ** 2.0),
             {"x": x3, "w": w, "b": bias}),
            (lambda p: T.tsum(T.dense(p["x"], p["w"]) ** 2.0), {"x": x3, "w": w}),
            (lambda p, mask=mask: T.tsum(
                T.attention(p["q"], p["k"], p["v"], 2, mask) ** 2.0),
             {"q": rand(kd[3], (2, 3, 4)), "k": rand(kd[4], (2, 5, 4)),
              "v": rand(kd[5], (2, 5, 4))}),
        ]
        kc = R.split(key(200 + s), 5)
        op_cases += [
            (lambda p: T.tsum(T.conv2d(p["x"], p["k"], 2) ** 2.0),
             {"x": rand(kc[0], (2, 5, 5, 1)), "k": rand(kc[1], (3, 3, 1, 2))}),
            (lambda p: T.tsum(T.conv2d(p["x"], p["k"], bias=p["b"]) ** 2.0),
             {"x": rand(kc[2], (1, 4, 4, 2)), "k": rand(kc[3], (3, 3, 2, 2)),
              "b": rand(kc[4], (2,))}),
        ]
    for f, params in op_cases:
        worst_op = max(worst_op, _check(f, params, rtol=1e-6))
        cases += 1

    def f64(d):
        return {k: v.astype("f64") for k, v in d.items()}

    for s in range(4):
        ks = R.split(key(1000 + s), 8)
        x = Tensor(R.normal(ks[0], (1, 3, 4)))
        img = Tensor(R.normal(ks[1], (1, 4, 4, 2)))
        block_cases = [
            (lambda p, x=x: T.tsum(L.dense(x.reshape((3, 4)), p) ** 2.0),
             f64(L.init_dense(ks[2], 4, 5))),
            (lambda p, x=x: T.tsum(L.layer_norm(x, p) ** 2.0),
             f64(L.init_layer_norm(4))),
            (lambda p, x=x: T.tsum(L.multi_head_attention(x, x, x, 2, p) ** 2.0),
             f64(L.init_attention(ks[3], 4))),
            (lambda p, x=x: T.tsum(L.transformer_block(x, p, 2) ** 2.0),
             f64(L.init_transformer_block(ks[4], 4, 8))),
            (lambda p, x=x: T.tsum(L.mixer_block(x, p) ** 2.0),
             f64(L.init_mixer_block(ks[5], 3, 4, 3, 5))),
            (lambda p, img=img: T.tsum(L.double_conv(img, p) ** 2.0),
             f64(L.init_double_conv(ks[6], 2, 3))),
            (lambda p, img=img: T.tsum(L.patch_embed(img, p, 2) ** 2.0),
             f64(L.init_patch_embed(ks[7], 2, 2, 3))),
        ]
        for f, params in block_cases:
            worst_block = max(worst_block, _check(f, params, rtol=1e-4))
            cases += 1

    elapsed = time.time() - start
    report(1, cases >= 100 and elapsed < 60.0,
           f"{cases} finite-difference cases, worst op err {worst_op:.2e} "
           f"(tol 1e-6), worst block err {worst_block:.2e} (tol 1e-4), "
           f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. matcher exactness, < 2 minutes


def _brute_force_cost(costs, perms):
    picks = costs[np.arange(costs.shape[0])[None, :], perms]
    return picks.sum(-1).min()


def test_criterion_2_matchers():
    start = time.time()
    perms5 = np.array(list(itertools.permutations(range(5))))
    worst_gap = 0.0
    for s in range(1000):
        c = R.uniform(key(s), (5, 5))
        gap = abs(MA.hungarian(c).total_cost - _brute_force_cost(c, perms5))
        worst_gap = max(worst_gap, gap)
    perms7 = np.array(list(itertools.permutations(range(7))))
    for s in range(200):
        c = R.uniform(key(10_000 + s), (7, 7))
        gap = abs(MA.hungarian(c).total_cost - _brute_force_cost(c, perms7))
        worst_gap = max(worst_gap, gap)

    worst_ratio = 0.0
    for s in range(200):
        c = R.uniform(key(20_000 + s), (10, 10))
        _, asg, _ = MA.sinkhorn_match(c, epsilon=0.01, iters=1000)
        opt = MA.hungarian(c).total_cost
        worst_ratio = max(worst_ratio, asg.total_cost / opt)

    elapsed = time.time() - start
    report(2, worst_gap <= 1e-9 and worst_ratio <= 1.05 and elapsed < 120.0,
           f"hungarian vs brute force: max cost gap {worst_gap:.1e} over "
           f"1200 matrices; sinkhorn worst cost ratio {worst_ratio:.4f} "
           f"(<= 1.05) over 200; {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 3. sharding partition + padded-epoch normalizers


def test_criterion_3_sharding():
    for n in range(1, 65):
        for hosts in range(1, 9):
            if n < hosts:
                continue
            blocks = [shard_indices(n, ShardSpec(h, hosts)) for h in range(hosts)]
            flat = np.concatenate(blocks)
            assert np.array_equal(flat, np.arange(n)), (n, hosts)
            assert sum(len(b) for b in blocks) == n

    # padded eval epochs: summed metric normalizers equal true example counts
    mismatches = 0
    for s in range(20):
        ks = R.split(key(s), 3)
        n_eval = int(R.randint(ks[0], (), 4, 60))
        hosts = int(R.randint(ks[1], (), 1, 4))
        batch = int(R.randint(ks[2], (), 1, 5))
        if n_eval < hosts:
            continue
        total_norm = 0.0
        for h in range(hosts):
            cfg = Config({"dataset": {"num_train_examples": max(n_eval, batch * hosts),
                                      "num_eval_examples": n_eval}})
            try:
                ds = build_dataset("blobs_classification",
                                   ShardSpec(h, hosts, 1, batch), key(100 + s), cfg)
            except Exception:
                mismatches += 1
                continue
            for b in ds.eval_iter():
                logits = Tensor(R.normal(key(7), (batch, 4)), dtype="f32")
                table = classification_metrics(logits, b["label"], b["batch_mask"])
                total_norm += table["accuracy"][1]
        if total_norm != n_eval:
            mismatches += 1
    report(3, mismatches == 0,
           "disjoint cover of [0, n) for all n in [1..64], H in [1..8]; "
           "20 randomized padded eval epochs report exact example counts")


# ---------------------------------------------------------------------------
# 4. aggregation invariance over shard partitions


def test_criterion_4_aggregation():
    worst = 0.0
    for s in range(10):
        ks = R.split(key(s), 2)
        n = 64
        values = R.uniform(ks[0], (n,))
        weights = 1.0 + R.uniform(ks[1], (n,))
        reference = None
        for shards in range(1, 9):
            bounds = [n * h // shards for h in range(shards + 1)]
            tables = [{"metric": (float(values[lo:hi].sum()),
                                  float(weights[lo:hi].sum()))}
                      for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
            agg = TR.aggregate_metrics(tables)["metric"]
            if reference is None:
                reference = agg
            else:
                worst = max(worst, abs(agg - reference) / abs(reference))
    report(4, worst <= 1e-6,
           f"normalized metrics identical across 1..8-shard partitions, "
           f"max relative deviation {worst:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 5. data-parallel equivalence


def test_criterion_5_data_parallel(tmp_path):
    def run(devices, batch_size):
        wd = str(tmp_path / f"{devices}x{batch_size}")
        TR.run_trainer("classification", Config({
            "model": {"name": "fully_connected_classification", "dtype": "f64"},
            "dataset": {"num_train_examples": 320, "num_eval_examples": 32},
            "topology": {"host_count": 1, "devices_per_host": devices},
            "batch_size": batch_size, "total_steps": 10, "eval_every": 10,
            "optimizer": {"kind": "adam", "lr": 1e-2},
        }), wd, seed=0)
        return load_checkpoint(os.path.join(wd, "ckpt_10.bin")).params

    single, sharded = run(1, 32), run(4, 8)
    worst = 0.0
    for name in single:
        a, b = single[name].data, sharded[name].data
        denom = np.maximum(np.abs(a), 1e-12)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    report(5, worst <= 1e-6,
           f"(1x4 devices, b=8) vs (1x1, b=32), 10 Adam steps on the MLP: "
           f"max relative parameter difference {worst:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 6. end-to-end overfitting, seeds 0-2, each run < 5 minutes


_OVERFIT_RUNS = [
    # (model, dataset fragment, steps, check(metrics) -> bool, label)
    ("fully_connected_classification", {}, 200,
     lambda m: m["accuracy"] >= 0.99, "MLP acc >= 0.99 @ 200"),
    ("vit_classification", {"input_shape": [8, 8, 1]}, 500,
     lambda m: m["accuracy"] >= 0.95, "ViT acc >= 0.95 @ 500"),
    ("mixer_classification", {"input_shape": [8, 8, 1]}, 500,
     lambda m: m["accuracy"] >= 0.95, "Mixer acc >= 0.95 @ 500"),
    ("resnet_classification", {"input_shape": [8, 8, 1]}, 500,
     lambda m: m["accuracy"] >= 0.95, "ResNet acc >= 0.95 @ 500"),
    ("unet_segmentation", {}, 500,
     lambda m: m["pixel_accuracy"] >= 0.90, "U-Net pixel acc >= 0.90 @ 500"),
    ("detr_detection", {"num_train_examples": 64}, 2000,
     lambda m: m["matched_accuracy"] >= 0.90 and m["box_l1"] <= 0.05,
     "DETR matched acc >= 0.90 and box L1 <= 0.05 @ 2000"),
]


_OVERFIT_LR = {
    "fully_connected_classification": 1e-2,
    "vit_classification": 1e-3,
    "mixer_classification": 1e-3,
    "resnet_classification": 1e-3,
    "unet_segmentation": 1e-3,
    "detr_detection": 3e-4,
}


@pytest.mark.parametrize("model,ds_extra,steps,check,label", _OVERFIT_RUNS,
                         ids=[r[0] for r in _OVERFIT_RUNS])
def test_criterion_6_overfitting(model, ds_extra, steps, check, label, tmp_path):
    _, defaults, kind = BASELINES[model]
    results = []
    for seed in (0, 1, 2):
        dataset = {"num_train_examples": 256, "num_eval_examples": 64,
                   "eval_on_train": True,
                   **defaults["dataset"], **ds_extra}
        cfg = Config({
            "model": {"name": model},
            "dataset": dataset,
            "batch_size": 32,
            "total_steps": steps,
            "eval_every": 25,
            "optimizer": {"kind": "adam", "lr": _OVERFIT_LR[model]},
        })
        start = time.time()
        metrics = TR.run_trainer(kind, cfg, str(tmp_path / f"{model}_{seed}"),
                                 seed=seed, stop_when=check)
        elapsed = time.time() - start
        results.append((seed, check(metrics), elapsed, metrics))
    ok = all(r[1] and r[2] < 300.0 for r in results)
    summary = "; ".join(
        f"seed {s}: {'ok' if good else 'MISSED'} in {t:.0f}s"
        for s, good, t, _ in results)
    report(6, ok, f"{label} — {summary}")


# ---------------------------------------------------------------------------
# 7. determinism & resume


def test_criterion_7_determinism_and_resume(tmp_path):
    def cfg(total_steps=10):
        return Config({
            "model": {"name": "fully_connected_classification"},
            "dataset": {"name": "blobs_classification",
                        "num_train_examples": 64, "num_eval_examples": 16},
            "batch_size": 8, "total_steps": total_steps, "eval_every": 5,
            "optimizer": {"kind": "adam", "lr": 1e-2},
        })

    blobs = []
    for name in ("a", "b"):
        wd = str(tmp_path / name)
        TR.run_trainer("classification", cfg(), wd, seed=0)
        with open(os.path.join(wd, "metrics.jsonl"), "rb") as f:
            blobs.append(f.read())
    identical = blobs[0] == blobs[1]

    split = str(tmp_path / "split")
    TR.run_trainer("classification", cfg(total_steps=5), split, seed=0)
    TR.run_trainer("classification", cfg(), split, seed=0)  # resumes at 5
    full = load_checkpoint(os.path.join(tmp_path, "a", "ckpt_10.bin"))
    resumed = load_checkpoint(os.path.join(split, "ckpt_10.bin"))
    worst = 0.0
    for name in full.params:
        a, b = full.params[name].data, resumed.params[name].data
        denom = np.maximum(np.abs(a).astype(np.float64), 1e-12)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    report(7, identical and worst <= 1e-6,
           f"metrics.jsonl bitwise identical across two seed-0 runs: "
           f"{identical}; resumed-vs-uninterrupted 10-step trajectory max "
           f"relative diff {worst:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 8. contract conformance


def test_criterion_8_contract_conformance():
    # (a) eval-mode apply never mutates model_state, all baselines
    eval_pure = True
    for name, (factory, defaults, kind) in BASELINES.items():
        ds_cfg = {**defaults["dataset"],
                  "num_train_examples": 8, "num_eval_examples": 8}
        cfg = Config({"dataset": ds_cfg})
        ds = build_dataset(ds_cfg["name"], ShardSpec(0, 1, 1, 4), key(0), cfg)
        contract = factory(cfg, ds.meta_data)
        arch = contract.build_model()
        params, state = arch.init(key(1))
        before = {k: v.data.copy() for k, v in state.items()}
        batch = next(ds.train_iter)
        _, new_state = arch.apply(params, state, batch["inputs"], train=False)
        for k in before:
            if not np.array_equal(new_state[k].data, before[k]):
                eval_pure = False

    # (b) masked-row perturbations change no metric
    logits = R.normal(key(2), (6, 4)).astype(np.float32)
    labels = R.randint(key(3), (6,), 0, 4)
    mask = Tensor(np.array([1, 1, 1, 1, 0, 0], np.float32))
    base = classification_metrics(Tensor(logits), Tensor(labels), mask)
    perturbed = logits.copy()
    perturbed[4:] = R.normal(key(4), (2, 4)) * 100.0
    after = classification_metrics(Tensor(perturbed), Tensor(labels), mask)
    mask_invariant = base == after

    # (c) DETR-mini loss exactly invariant to target-order permutation
    meta = DatasetMetaData(num_classes=2, input_shape=(-1, 16, 16, 1),
                           num_train_examples=8, num_eval_examples=8)
    contract = BASELINES["detr_detection"][0](
        Config({"model": {"dtype": "f64"}}), meta)
    ks = R.split(key(5), 3)
    outputs = {
        "class_logits": Tensor(R.normal(ks[0], (2, 8, 3))),
        "boxes": Tensor(1.0 / (1.0 + np.exp(-R.normal(ks[1], (2, 8, 4))))),
    }
    labels = np.array([[0, 1, 2], [1, 0, 0]], np.int64)
    boxes = R.uniform(ks[2], (2, 3, 4))
    loss_a = contract.loss_fn(outputs, {"label": Tensor(labels),
                                        "boxes": Tensor(boxes)}).item()
    perm = [2, 0, 1]
    loss_b = contract.loss_fn(outputs, {"label": Tensor(labels[:, perm]),
                                        "boxes": Tensor(boxes[:, perm])}).item()
    detr_invariant = loss_a == loss_b

    report(8, eval_pure and mask_invariant and detr_invariant,
           f"eval purity (all baselines): {eval_pure}; masked-row metric "
           f"invariance: {mask_invariant}; DETR target-permutation loss "
           f"invariance: {detr_invariant} ({loss_a!r} == {loss_b!r})")
