import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskml import rng as R
from deskml import tensor as T
from gradcheck import check_grads, max_rel_error


def rand(key, shape):
    return T.Tensor(R.normal(key, shape))


class TestElementwise:
    def test_add_identity(self):
        x = rand(R.RngKey.from_seed(0), (3, 4))
        assert np.array_equal(T.add(x, T.zeros_like(x)).data, x.data)

    def test_relu_values(self):
        out = T.relu(T.tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bit_identical_to_where(self, dtype):
        info = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, info.max, -info.max,
                   info.smallest_normal, -info.smallest_normal,
                   info.smallest_subnormal, -info.smallest_subnormal,
                   info.smallest_normal / 2, -info.smallest_normal / 2]
        x = np.concatenate([np.array(special, dtype),
                            R.normal(R.RngKey.from_seed(27), (61,)).astype(dtype)])
        uint = f"u{x.itemsize}"
        # single values, a short tail and a long run: numpy's scalar and
        # vector loops
        for part in [x[i:i + 1] for i in range(len(special))] + [x[:3], x,
                                                                  x.reshape(1, -1)]:
            want = np.where(part > 0, part, 0)
            got = T.relu(T.Tensor(part)).data
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got.view(uint), want.view(uint)), part

    def test_relu_passes_nan_on(self):
        x = T.Tensor(np.array([np.nan, -1.0, 2.0], np.float32), requires_grad=True)
        out = T.relu(x)
        assert np.isnan(out.data[0]) and out.data[1:].tolist() == [0.0, 2.0]
        assert out._backward(np.ones(3, np.float32))[0].tolist() == [0.0, 0.0, 1.0]

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.tensor(0.0)).item() == pytest.approx(0.5)

    def test_binary_dtype_mismatch(self):
        a = T.tensor([1.0], dtype="f32")
        b = T.tensor([1.0], dtype="f64")
        with pytest.raises(TypeError, match="dtype mismatch"):
            T.add(a, b)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ValueError, match="broadcast"):
            T.add(T.zeros((3,)), T.zeros((4,)))

    def test_broadcasting(self):
        out = T.add(T.ones((2, 3)), T.ones((3,)))
        assert out.shape == (2, 3)
        assert np.all(out.data == 2.0)

    def test_referential_transparency(self):
        x = rand(R.RngKey.from_seed(1), (5, 5))
        a = T.gelu(x).data
        b = T.gelu(x).data
        assert np.array_equal(a, b)


class TestMatmul:
    def test_identity(self):
        x = rand(R.RngKey.from_seed(2), (2, 7))
        out = T.matmul(T.tensor(np.eye(2)), x)
        assert np.allclose(out.data, x.data)

    def test_hand_computed(self):
        out = T.matmul(T.tensor([[1.0, 2.0], [3.0, 4.0]]), T.tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_against_triple_loop(self):
        a = R.normal(R.RngKey.from_seed(3), (4, 5))
        b = R.normal(R.RngKey.from_seed(4), (5, 3))
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    ref[i, j] += a[i, k] * b[k, j]
        assert np.allclose(T.matmul(T.tensor(a), T.tensor(b)).data, ref, atol=1e-12)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            T.matmul(T.zeros((2, 3)), T.zeros((4, 2)))

    def test_dtype_mismatch(self):
        a, b = T.zeros((16, 2)), T.zeros((2, 3))
        with pytest.raises(TypeError, match="matmul: dtype mismatch"):
            T.matmul(a, b.astype("f64"))
        with pytest.raises(TypeError, match="matmul: dtype mismatch"):
            a.astype("f64") @ b

    def test_batched(self):
        a = R.normal(R.RngKey.from_seed(5), (6, 2, 3))
        b = R.normal(R.RngKey.from_seed(6), (6, 3, 4))
        out = T.matmul(T.tensor(a), T.tensor(b))
        assert out.shape == (6, 2, 4)
        assert np.allclose(out.data, np.matmul(a, b))

    @pytest.mark.parametrize("a_shape", [(3, 4), (2, 3, 4), (2, 3, 2, 4)])
    def test_grad_with_a_weight_shared_by_rows(self, a_shape):
        keys = R.split(R.RngKey.from_seed(7), 3)
        a = rand(keys[0], a_shape)
        b = rand(keys[1], (4, 5))
        g = rand(keys[2], a_shape[:-1] + (5,))
        check_grads(lambda p: T.tsum(T.matmul(p["a"], p["b"]) * g),
                    {"a": a, "b": b})

    @pytest.mark.parametrize("a_shape", [(2, 3, 4), (32, 16, 64), (4, 2, 8, 16)])
    def test_float32_shared_weight_grad_matches_batched_product(self, a_shape):
        keys = R.split(R.RngKey.from_seed(8), 3)
        a = R.normal(keys[0], a_shape).astype(np.float32)
        b = R.normal(keys[1], (a_shape[-1], 24)).astype(np.float32)
        g = R.normal(keys[2], a_shape[:-1] + (24,)).astype(np.float32)
        out = T.matmul(T.Tensor(a, requires_grad=True),
                       T.Tensor(b, requires_grad=True))
        ga, gb = out._backward(g)
        # the batched [..., k, n] product summed over the leading axes
        ref = np.matmul(np.swapaxes(a, -1, -2).astype(np.float64),
                        g.astype(np.float64)).sum(axis=tuple(range(a.ndim - 2)))
        assert gb.dtype == np.float32 and gb.shape == b.shape
        assert np.abs(gb - ref).max() <= 1e-5 * np.abs(ref).max()
        assert np.array_equal(ga, np.matmul(g, b.T))


class TestDense:
    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4), (32, 16, 64)])
    def test_forward_is_the_matmul_add_chain_bit_for_bit(self, x_shape):
        keys = R.split(R.RngKey.from_seed(41), 3)
        x = T.Tensor(R.normal(keys[0], x_shape), dtype="f32")
        w = T.Tensor(R.normal(keys[1], (x_shape[-1], 24)), dtype="f32")
        b = T.Tensor(R.normal(keys[2], (24,)), dtype="f32")
        assert np.array_equal(T.dense(x, w, b).data, (x @ w + b).data)
        assert np.array_equal(T.dense(x, w).data, (x @ w).data)

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4), (2, 3, 2, 4)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_grad(self, x_shape, with_bias):
        keys = R.split(R.RngKey.from_seed(42), 4)
        params = {"x": rand(keys[0], x_shape), "w": rand(keys[1], (4, 5))}
        if with_bias:
            params["b"] = rand(keys[2], (5,))
        g = rand(keys[3], x_shape[:-1] + (5,))
        check_grads(lambda p: T.tsum(T.dense(p["x"], p["w"], p.get("b")) * g),
                    params)

    def test_float32_weight_grad_matches_batched_product(self):
        keys = R.split(R.RngKey.from_seed(43), 3)
        x = R.normal(keys[0], (32, 16, 64)).astype(np.float32)
        w = R.normal(keys[1], (64, 24)).astype(np.float32)
        g = R.normal(keys[2], (32, 16, 24)).astype(np.float32)
        out = T.dense(T.Tensor(x, requires_grad=True),
                      T.Tensor(w, requires_grad=True), T.zeros((24,)))
        gx, gw, gb = out._backward(g)
        ref = np.matmul(np.swapaxes(x, -1, -2).astype(np.float64),
                        g.astype(np.float64)).sum(axis=0)
        assert gw.dtype == np.float32 and gw.shape == w.shape
        assert np.abs(gw - ref).max() <= 1e-5 * np.abs(ref).max()
        assert np.allclose(gx, np.matmul(g, w.T), rtol=1e-5, atol=1e-5)
        assert np.allclose(gb, g.sum(axis=(0, 1)), rtol=1e-5, atol=1e-5)

    def test_input_without_grad_gets_none(self):
        out = T.dense(T.ones((2, 3, 4)), T.Tensor(np.ones((4, 5), np.float32),
                                                  requires_grad=True))
        gx, gw = out._backward(np.ones((2, 3, 5), np.float32))
        assert gx is None and gw.shape == (4, 5)

    def test_dtype_mismatch(self):
        x, w, b = T.zeros((2, 3)), T.zeros((3, 4)), T.zeros((4,))
        with pytest.raises(TypeError, match="dense: dtype mismatch"):
            T.dense(x.astype("f64"), w, b)
        with pytest.raises(TypeError, match="dense: dtype mismatch"):
            T.dense(x, w, b.astype("f64"))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            T.dense(T.zeros((2, 3)), T.zeros((4, 2)))

    def test_bias_shape_mismatch(self):
        with pytest.raises(ValueError, match="bias shape"):
            T.dense(T.zeros((2, 3)), T.zeros((3, 2)), T.zeros((3,)))


class TestAttention:
    @staticmethod
    def _qkv(seed, b=2, nq=3, nk=5, d=4, dtype="f64"):
        keys = R.split(R.RngKey.from_seed(seed), 3)
        return [T.Tensor(R.normal(k, (b, n, d)), dtype=dtype)
                for k, n in zip(keys, (nq, nk, nk))]

    @pytest.mark.parametrize("with_mask", [False, True])
    def test_grad(self, with_mask):
        q, k, v = self._qkv(51)
        mask = None
        if with_mask:
            mask = T.Tensor(R.normal(R.RngKey.from_seed(52), (1, 1, 3, 5)))
            mask.data[..., 1] = -1e9
        g = rand(R.RngKey.from_seed(53), (2, 3, 4))
        check_grads(lambda p: T.tsum(T.attention(p["q"], p["k"], p["v"], 2, mask) * g),
                    {"q": q, "k": k, "v": v})

    def test_one_key_returns_its_value(self):
        q, k, v = self._qkv(54, nk=1)
        out = T.attention(q, k, v, 2)
        assert np.allclose(out.data, np.broadcast_to(v.data, out.shape), atol=1e-12)

    def test_heads_must_divide_the_dim(self):
        q, k, v = self._qkv(55, d=6)
        with pytest.raises(ValueError, match="not divisible by 4 heads"):
            T.attention(q, k, v, 4)

    def test_k_and_v_shapes_must_agree(self):
        q, k, v = self._qkv(56)
        with pytest.raises(ValueError, match="k and v shapes differ"):
            T.attention(q, k, v[:, :4], 2)

    def test_mixed_dtypes_refused(self):
        q, k, v = self._qkv(57)
        with pytest.raises(TypeError, match="attention: dtype mismatch"):
            T.attention(q, k, v.astype("f32"), 2)
        with pytest.raises(TypeError, match="attention: dtype mismatch"):
            T.attention(q, k, v, 2, mask=T.zeros((1, 1, 3, 5)))

    def test_mask_needing_a_gradient_refused(self):
        q, k, v = self._qkv(58)
        mask = T.Tensor(np.zeros((1, 1, 3, 5)), requires_grad=True)
        with pytest.raises(ValueError, match="mask gets no gradient"):
            T.attention(q, k, v, 2, mask)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = T.softmax(T.tensor([np.log(2.0), 0.0]))
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_rows_sum_to_one(self):
        x = rand(R.RngKey.from_seed(7), (20, 11))
        sums = T.softmax(x, axis=-1).data.sum(-1)
        assert np.abs(sums - 1.0).max() < 1e-12

    @given(st.floats(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, c):
        x = R.normal(R.RngKey.from_seed(8), (4, 6))
        a = T.softmax(T.tensor(x)).data
        b = T.softmax(T.tensor(x + c)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_large_inputs_stable(self):
        out = T.softmax(T.tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_requires_float(self):
        with pytest.raises(TypeError):
            T.softmax(T.tensor(np.array([1, 2], np.int64)))


class TestGrad:
    def test_square(self):
        g = T.grad(lambda p: p["x"] * p["x"], {"x": T.tensor(3.0)})
        assert g["x"].item() == pytest.approx(6.0)

    def test_linear_in_weights(self):
        x = R.normal(R.RngKey.from_seed(9), (3,))
        f = lambda p: T.tsum(p["w"] * T.tensor(x))
        g = T.grad(f, {"w": T.tensor(np.zeros(3))})
        assert np.allclose(g["w"].data, x)
        check_grads(f, {"w": T.tensor(R.normal(R.RngKey.from_seed(10), (3,)))})

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            T.grad(lambda p: p["x"] + 1.0, {"x": T.tensor([1.0, 2.0])})

    def test_non_float_param_rejected(self):
        with pytest.raises(TypeError):
            T.grad(lambda p: T.tsum(p["x"].astype("f64")),
                   {"x": T.tensor(np.array([1, 2]))})

    def test_backward_keeps_only_leaf_gradients(self):
        keys = R.split(R.RngKey.from_seed(27), 2)
        w = T.Tensor(R.normal(keys[0], (3, 4)), requires_grad=True)
        b = T.Tensor(R.normal(keys[1], (4,)), requires_grad=True)
        x = T.Tensor(np.ones((2, 3)))
        out = T.tsum(T.tanh(x @ w + b) * 2.0)
        assert set(T.backward(out)) == {id(w), id(b)}

    def test_backward_frees_inner_gradients_once_used(self):
        x = T.Tensor(np.arange(1.0, 7.0), requires_grad=True)
        h1 = x * 2.0
        h2 = h1 * 3.0
        out = T.tsum(h2 * 4.0)
        seen = {}

        def recording(rule):
            def rule_that_records(g):
                seen["h2"] = weakref.ref(g)
                return rule(g)
            return rule_that_records

        def checking(rule):
            def rule_that_checks(g):
                seen["dead"] = seen["h2"]() is None
                return rule(g)
            return rule_that_checks

        h2._backward = recording(h2._backward)
        h1._backward = checking(h1._backward)
        grads = T.backward(out)
        assert seen["dead"]
        assert np.array_equal(grads[id(x)], np.full(6, 24.0))

    def test_unused_param_gets_zero_grad(self):
        params = {"a": T.tensor(2.0), "b": T.tensor([1.0, 1.0]),
                  "c": T.Tensor(np.ones((2, 3), np.float32))}
        g = T.grad(lambda p: p["a"] * p["a"], params)
        assert np.array_equal(g["b"].data, [0.0, 0.0])
        for name in "bc":
            assert g[name].shape == params[name].shape
            assert g[name].data.dtype == params[name].data.dtype
            assert not g[name].data.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_matches_finite_differences(self, seed):
        keys = R.split(R.RngKey.from_seed(seed), 3)

        def f(p):
            h = T.gelu(p["w"] @ p["x"] + p["b"])
            h = T.softmax(h, axis=-1) * T.sigmoid(h) + T.exp(p["b"] * 0.1)
            return T.tsum(T.log(h * h + 1.0)) + T.tmean(T.relu(p["x"]))

        params = {
            "w": rand(keys[0], (4, 3)),
            "x": rand(keys[1], (3, 4)),
            "b": rand(keys[2], (4,)),
        }
        check_grads(f, params)


class TestShapeOps:
    def test_reshape_transpose_roundtrip(self):
        x = rand(R.RngKey.from_seed(11), (2, 3, 4))
        y = x.transpose((1, 0, 2)).transpose((1, 0, 2))
        assert np.array_equal(x.data, y.data)
        check_grads(lambda p: T.tsum(p["x"].reshape((6, 4)).transpose() ** 2.0),
                    {"x": x})

    def test_concat_and_slice(self):
        a = rand(R.RngKey.from_seed(12), (2, 3))
        b = rand(R.RngKey.from_seed(13), (4, 3))
        out = T.concat([a, b], axis=0)
        assert out.shape == (6, 3)
        assert np.array_equal(out.data[:2], a.data)
        check_grads(lambda p: T.tsum(T.concat([p["a"], p["b"]], axis=0)[1:4] ** 2.0),
                    {"a": a, "b": b})

    def test_sum_axes(self):
        x = rand(R.RngKey.from_seed(14), (3, 4))
        assert T.tsum(x).item() == pytest.approx(x.data.sum())
        assert np.allclose(T.tsum(x, axis=0).data, x.data.sum(0))
        assert np.allclose(T.tmean(x, axis=1, keepdims=True).data,
                           x.data.mean(1, keepdims=True))


class TestSpatialOps:
    def test_conv2d_one_by_one_identity(self):
        x = rand(R.RngKey.from_seed(15), (2, 5, 5, 1))
        k = T.tensor(np.ones((1, 1, 1, 1)))
        assert np.allclose(T.conv2d(x, k).data, x.data)

    def test_conv2d_matches_naive(self):
        x = R.normal(R.RngKey.from_seed(16), (1, 8, 8, 2))
        k = R.normal(R.RngKey.from_seed(17), (3, 3, 2, 3))
        out = T.conv2d(T.tensor(x), T.tensor(k), padding="valid").data
        ref = np.zeros((1, 6, 6, 3))
        for oy in range(6):
            for ox in range(6):
                for co in range(3):
                    for ky in range(3):
                        for kx in range(3):
                            for ci in range(2):
                                ref[0, oy, ox, co] += \
                                    x[0, oy + ky, ox + kx, ci] * k[ky, kx, ci, co]
        assert np.abs(out - ref).max() < 1e-6

    def test_conv2d_grad(self):
        keys = R.split(R.RngKey.from_seed(18), 2)
        x = rand(keys[0], (2, 6, 7, 2))
        for kshape in [(1, 1), (3, 3), (5, 5), (3, 5)]:
            k = rand(keys[1], kshape + (2, 3))
            for stride in (1, 2, 3):
                for padding in ("same", "valid"):
                    err = max_rel_error(
                        lambda p: T.tsum(T.conv2d(p["x"], p["k"], stride, padding)
                                         ** 2.0), {"x": x, "k": k})
                    assert err <= 1e-6, (kshape, stride, padding, err)

    @pytest.mark.parametrize("kshape", [(3, 5), (1, 3)])
    def test_conv2d_same_keeps_extent_for_non_square_kernels(self, kshape):
        x = rand(R.RngKey.from_seed(23), (1, 5, 5, 1))
        k = T.tensor(np.ones(kshape + (1, 1)))
        out = T.conv2d(x, k, padding="same")
        assert out.shape == (1, 5, 5, 1)
        kh, kw = kshape
        xp = np.pad(x.data[0, :, :, 0], ((kh // 2, kh // 2), (kw // 2, kw // 2)))
        ref = [[xp[y:y + kh, c:c + kw].sum() for c in range(5)] for y in range(5)]
        assert np.allclose(out.data[0, :, :, 0], ref)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("kshape", [(1, 1), (3, 3), (5, 5), (3, 5)])
    def test_conv2d_float32_input_grad_matches_tap_scatter(self, stride, padding,
                                                           kshape):
        keys = R.split(R.RngKey.from_seed(25), 3)
        kh, kw = kshape
        x = T.Tensor(R.normal(keys[0], (3, 9, 10, 4)), dtype="f32")
        k = T.Tensor(R.normal(keys[1], kshape + (4, 5)), dtype="f32")
        out = T.conv2d(x, k, stride, padding)
        g = R.normal(keys[2], out.shape).astype(np.float32)
        grads = T.grad(lambda p: T.tsum(T.conv2d(p["x"], p["k"], stride, padding)
                                        * T.Tensor(g)), {"x": x, "k": k})
        # scatter each tap's g @ k[i, j].T into the padded input, then crop
        ph, pw = (kh // 2, kw // 2) if padding == "same" else (0, 0)
        _, oh, ow, _ = out.shape
        ref = np.zeros((3, 9 + 2 * ph, 10 + 2 * pw, 4))
        for i in range(kh):
            for j in range(kw):
                ref[:, i:i + oh * stride:stride, j:j + ow * stride:stride] += \
                    g.astype(np.float64) @ k.data[i, j].T.astype(np.float64)
        ref = ref[:, ph:ph + 9, pw:pw + 10]
        gx = grads["x"].data
        assert gx.dtype == np.float32
        assert np.abs(gx - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_conv2d_one_channel_grad(self):
        # cin = 1 runs the gathered-tap GEMM forward; cout = 1 sends the
        # input gradient's correlation through it too
        keys = R.split(R.RngKey.from_seed(28), 2)
        x = rand(keys[0], (2, 6, 7, 1))
        for kshape in [(1, 1), (3, 3), (3, 5)]:
            for cout in (3, 1):
                k = rand(keys[1], kshape + (1, cout))
                for stride in (1, 2, 3):
                    for padding in ("same", "valid"):
                        err = max_rel_error(
                            lambda p: T.tsum(T.conv2d(p["x"], p["k"], stride,
                                                      padding) ** 2.0),
                            {"x": x, "k": k})
                        assert err <= 1e-6, (kshape, cout, stride, padding, err)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("kshape", [(1, 1), (3, 3), (3, 5)])
    def test_conv2d_one_channel_float32_matches_float64_tap_sum(self, stride,
                                                                padding, kshape):
        keys = R.split(R.RngKey.from_seed(29), 2)
        kh, kw = kshape
        x = R.normal(keys[0], (4, 16, 15, 1)).astype(np.float32)
        k = R.normal(keys[1], kshape + (1, 16)).astype(np.float32)
        out = T.conv2d(T.Tensor(x), T.Tensor(k), stride, padding).data
        ph, pw = (kh // 2, kw // 2) if padding == "same" else (0, 0)
        xp = np.pad(x.astype(np.float64), ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        _, oh, ow, _ = out.shape
        ref = np.zeros(out.shape)
        for i in range(kh):
            for j in range(kw):
                ref += (xp[:, i:i + oh * stride:stride, j:j + ow * stride:stride]
                        @ k[i, j].astype(np.float64))
        assert out.dtype == np.float32
        assert np.abs(out - ref).max() <= 1e-6 * np.abs(ref).max()

    @pytest.mark.parametrize("cin", [1, 2])
    def test_conv2d_bias_grad(self, cin):
        keys = R.split(R.RngKey.from_seed(30), 3)
        params = {"x": rand(keys[0], (2, 5, 6, cin)),
                  "k": rand(keys[1], (3, 3, cin, 3)), "b": rand(keys[2], (3,))}
        for stride in (1, 2):
            for padding in ("same", "valid"):
                check_grads(lambda p: T.tsum(T.conv2d(p["x"], p["k"], stride, padding,
                                                      bias=p["b"]) ** 2.0), params)

    def test_conv2d_bad_bias_shape_and_mixed_dtypes_refused(self):
        x, k = T.zeros((1, 4, 4, 2)), T.zeros((3, 3, 2, 3))
        with pytest.raises(ValueError, match="bias shape"):
            T.conv2d(x, k, bias=T.zeros((2,)))
        with pytest.raises(TypeError, match="dtype mismatch"):
            T.conv2d(x, k, bias=T.zeros((3,), dtype="f64"))
        # a float64 kernel would be rounded to float32 on the per-tap path
        # and widen the output on the one-channel path: refused on both
        for cin in (2, 1):
            with pytest.raises(TypeError, match="dtype mismatch"):
                T.conv2d(T.zeros((1, 4, 4, cin)), T.zeros((3, 3, cin, 3), dtype="f64"))

    def test_conv2d_input_without_grad_gets_none(self):
        keys = R.split(R.RngKey.from_seed(26), 3)
        x = R.normal(keys[0], (2, 6, 6, 3))
        k = R.normal(keys[1], (3, 3, 3, 4))
        g = R.normal(keys[2], (2, 3, 3, 4))
        frozen = T.conv2d(T.Tensor(x), T.Tensor(k, requires_grad=True), stride=2)
        live = T.conv2d(T.Tensor(x, requires_grad=True),
                        T.Tensor(k, requires_grad=True), stride=2)
        gx, gk = frozen._backward(g)
        assert gx is None
        assert np.array_equal(gk, live._backward(g)[1])

    def test_max_pool(self):
        x = T.tensor(np.arange(16.0).reshape(1, 4, 4, 1))
        out = T.max_pool2d(x, 2)
        assert np.array_equal(out.data[0, :, :, 0], [[5, 7], [13, 15]])
        check_grads(lambda p: T.tsum(T.max_pool2d(p["x"], 2) ** 2.0),
                    {"x": rand(R.RngKey.from_seed(19), (1, 4, 4, 3))})

    def test_upsample_inverse_of_pool_shapes(self):
        x = rand(R.RngKey.from_seed(20), (2, 3, 3, 4))
        up = T.upsample_nearest2d(x, 2)
        assert up.shape == (2, 6, 6, 4)
        check_grads(lambda p: T.tsum(T.upsample_nearest2d(p["x"]) ** 2.0), {"x": x})


# every differentiable op, applied to float32 inputs a, b [2, 4, 4, 2]
# and kernel k [3, 3, 2, 2]
_OPS = {
    "add": lambda a, b, k: T.add(a, b),
    "sub": lambda a, b, k: T.sub(a, b),
    "mul": lambda a, b, k: T.mul(a, b),
    "div": lambda a, b, k: T.div(a, b),
    "neg": lambda a, b, k: T.neg(a),
    "power": lambda a, b, k: T.power(a, 0.5),
    "exp": lambda a, b, k: T.exp(a),
    "log": lambda a, b, k: T.log(a),
    "relu": lambda a, b, k: T.relu(a),
    "sigmoid": lambda a, b, k: T.sigmoid(a),
    "tanh": lambda a, b, k: T.tanh(a),
    "gelu": lambda a, b, k: T.gelu(a),
    "matmul": lambda a, b, k: T.matmul(a, T.transpose(b, (0, 1, 3, 2))),
    "dense": lambda a, b, k: T.dense(a, k[0, 0], b[0, 0, 0]),
    "attention": lambda a, b, k: T.attention(a.reshape((2, 8, 4)),
                                             b[:, :2].reshape((2, 4, 4)),
                                             b[:, 2:].reshape((2, 4, 4)), 2),
    "tsum": lambda a, b, k: T.tsum(a, axis=1),
    "tmean": lambda a, b, k: T.tmean(a, axis=1),
    "softmax": lambda a, b, k: T.softmax(a) * b,
    "log_softmax": lambda a, b, k: T.log_softmax(a) * b,
    "layer_norm": lambda a, b, k: T.layer_norm(a, b[0, 0, 0], k[0, 0, 0], 1e-6),
    "reshape": lambda a, b, k: T.reshape(a, (2, 32)),
    "transpose": lambda a, b, k: T.transpose(a),
    "concat": lambda a, b, k: T.concat([a, b], axis=3),
    "take": lambda a, b, k: T.take(a, (slice(None), 1)),
    "astype": lambda a, b, k: T.astype(a, "f64"),
    "pad2d": lambda a, b, k: T.pad2d(a, 1),
    "conv2d": lambda a, b, k: T.conv2d(a, k, stride=2),
    "conv2d_bias": lambda a, b, k: T.conv2d(a, k, stride=2, bias=b[0, 0, 0]),
    "max_pool2d": lambda a, b, k: T.max_pool2d(a),
    "upsample_nearest2d": lambda a, b, k: T.upsample_nearest2d(a),
}


@pytest.mark.parametrize("op", sorted(_OPS))
def test_float32_inputs_get_float32_gradients(op):
    keys = R.split(R.RngKey.from_seed(21), 3)
    params = {name: T.Tensor(R.uniform(key, shape) + 0.5, dtype="f32")
              for name, key, shape in zip("abk", keys, [(2, 4, 4, 2)] * 2
                                          + [(3, 3, 2, 2)])}
    grads = T.grad(lambda p: T.tsum(_OPS[op](p["a"], p["b"], p["k"])), params)
    for name, g in grads.items():
        assert g.data.dtype == np.float32, name


@pytest.mark.parametrize("op", sorted(_OPS))
def test_no_tape_node_without_a_gradient(op):
    keys = R.split(R.RngKey.from_seed(22), 3)
    a, b, k = (T.Tensor(R.uniform(key, shape) + 0.5, dtype="f32")
               for key, shape in zip(keys, [(2, 4, 4, 2)] * 2 + [(3, 3, 2, 2)]))
    out = _OPS[op](a, b, k)
    assert out._backward is None
    assert out._parents == ()
    assert not out.requires_grad


def test_float_astype_needing_a_gradient_records_a_node():
    a = T.Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    out = T.astype(a, "f64")
    assert out.requires_grad
    assert out._parents == (a,)
    assert out._backward is not None
    assert not T.astype(a, "i32").requires_grad
