import inspect
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskml import rng as R
from deskml import tensor as T
from gradcheck import check_grads, max_rel_error


def rand(key, shape):
    return T.Tensor(R.normal(key, shape))


def assert_same_bits(got, want):
    """Equal bit for bit, every NaN counted as one value."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape

    def bits(x):
        x = np.where(np.isnan(x), np.nan, x).astype(x.dtype)
        return x.view(np.dtype(f"u{x.dtype.itemsize}"))

    assert np.array_equal(bits(got), bits(want))


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

    @pytest.mark.parametrize("expr, want", [
        (lambda t: t + 0.5, lambda x: x + np.float32(0.5)),
        (lambda t: 0.5 + t, lambda x: np.float32(0.5) + x),
        (lambda t: t - 0.5, lambda x: x - np.float32(0.5)),
        (lambda t: 1 - t, lambda x: np.float32(1) - x),
        (lambda t: t * 0.5, lambda x: x * np.float32(0.5)),
        (lambda t: 0.5 * t, lambda x: np.float32(0.5) * x),
        (lambda t: t / 2, lambda x: x / np.float32(2)),
        (lambda t: 2 / t, lambda x: np.float32(2) / x),
    ], ids=["t+0.5", "0.5+t", "t-0.5", "1-t", "t*0.5", "0.5*t", "t/2", "2/t"])
    def test_python_scalar_takes_a_float_tensor_dtype(self, expr, want):
        x = np.array([0.3, -1.7, 2.5], np.float32)
        assert_same_bits(expr(T.Tensor(x)).data, want(x))

    def test_int64_tensor_and_python_int_stay_int64(self):
        t = T.Tensor(np.array([1, -2, 3], np.int64))
        for out in (t + 2, 2 + t, t - 2, 2 - t, t * 2, 2 * t):
            assert out.dtype == "i64"
        assert (1 - t).data.tolist() == [0, 3, -2]

    def test_int64_tensor_times_python_float_refused(self):
        t = T.Tensor(np.array([1, 2], np.int64))
        for expr in (lambda: t * 0.5, lambda: 0.5 * t):
            with pytest.raises(TypeError, match=r"^mul: dtype mismatch"):
                expr()

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

    @pytest.mark.parametrize("a_shape, b_shape", [((3,), (3, 4)), ((2, 3), (3,)),
                                                  ((3,), (3,))],
                             ids=["vec@mat", "mat@vec", "vec@vec"])
    def test_one_dim_operand_refused(self, a_shape, b_shape):
        # its backward would swap the last two axes of a 1-D array
        a = T.Tensor(np.ones(a_shape), requires_grad=True)
        b = T.Tensor(np.ones(b_shape), requires_grad=True)
        with pytest.raises(ValueError, match="matmul: operands need 2 or more dims"):
            T.matmul(a, b)

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


class TestZeroLengthAxes:
    def test_tmean_refused(self):
        x = T.zeros((2, 0, 3))
        for axis in (1, (0, 1), None):
            with pytest.raises(ValueError, match=r"^tmean: "):
                T.tmean(x, axis=axis)
        # over the other axes the mean has no entries to fill
        assert T.tmean(x, axis=(0, 2)).shape == (0,)

    @pytest.mark.parametrize("op", [T.softmax, T.log_softmax])
    def test_softmax_over_it_refused(self, op):
        x = T.zeros((2, 0))
        with pytest.raises(ValueError, match=rf"^{op.__name__}: "):
            op(x)
        with pytest.raises(ValueError, match=rf"^{op.__name__}: "):
            op(x.transpose(), axis=0)
        # along the other axis there are no rows to normalize
        assert op(x, axis=0).shape == (2, 0)

    def test_tsum_gives_zeros_as_numpy_does(self):
        x = np.zeros((2, 0, 3), np.float32)
        assert_same_bits(T.tsum(T.Tensor(x), axis=1).data, x.sum(1))


_SPECIALS = [0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, 1e16, 3e-30]

# the same rows laid out three ways: the fold reads x[..., i] as a view
_LAYOUTS = {
    "contiguous": lambda x: x,
    "strided": lambda x: np.repeat(x, 2, axis=-1)[:, ::2],
    "transposed": lambda x: np.ascontiguousarray(x.T).T,
}


def _short_rows(n, dtype, seed=0):
    """Rows of specials, rows of values of mixed magnitude (where the
    summation order shows in the rounding), and rows of -0.0 and +0.0."""
    gen = np.random.default_rng(seed)
    special = np.array(_SPECIALS)[gen.integers(0, len(_SPECIALS), (300, n))]
    mixed = gen.standard_normal((300, n)) * 10.0 ** gen.integers(-8, 9, (300, n))
    zeros = np.array([[-0.0] * n, [0.0] * n])
    return np.concatenate([special, mixed, zeros]).astype(dtype)


class TestShortReductions:
    @pytest.mark.parametrize("ufunc", [np.add, np.maximum], ids=["add", "maximum"])
    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_fold_is_reduce_bit_for_bit(self, ufunc, n, dtype, layout):
        x = _LAYOUTS[layout](_short_rows(n, dtype, seed=n))
        with np.errstate(invalid="ignore"):
            got = T._fold_last(ufunc, x)
            want = ufunc.reduce(x, axis=-1, keepdims=True)
        assert_same_bits(got, want)

    def test_fold_over_more_axes(self):
        x = _short_rows(3, np.float32)[:600].reshape(5, 4, 30, 3)
        with np.errstate(invalid="ignore"):
            for ufunc in (np.add, np.maximum):
                assert_same_bits(T._fold_last(ufunc, x),
                                 ufunc.reduce(x, axis=-1, keepdims=True))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_a_one_dimensional_tensor_reduces_as_one_row(self, n):
        # the fold's slices of a 1-D array are 0-d
        row = _short_rows(n, np.float32, seed=n)[300]  # mixed magnitudes
        for op in (T.softmax, T.log_softmax, lambda t: T.tsum(t, axis=-1)):
            one = op(T.Tensor(row, requires_grad=True))
            batch = op(T.Tensor(row[None], requires_grad=True))
            assert_same_bits(one.data, batch.data[0])
            g = np.ones_like(one.data)
            assert_same_bits(one._backward(g)[0], batch._backward(g[None])[0][0])

    def test_length_one_gives_a_fresh_array(self):
        x = np.arange(6.0).reshape(6, 1)
        for ufunc in (np.add, np.maximum):
            out = T._fold_last(ufunc, x)
            assert not np.shares_memory(out, x)
            assert_same_bits(out, x)
        for keepdims in (False, True):
            assert not np.shares_memory(T.tsum(T.Tensor(x), -1, keepdims).data, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 1), (6, 3), (4, 2, 7), (3, 9)])
    def test_ops_equal_their_reduce_formulas(self, shape, dtype):
        keys = R.split(R.RngKey.from_seed(60), 2)
        x = (R.normal(keys[0], shape) * 30.0).astype(dtype)
        g = R.normal(keys[1], shape).astype(dtype)
        t = T.Tensor(x, requires_grad=True)

        z = x - x.max(-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
        out = T.log_softmax(t)
        assert_same_bits(out.data, logp)
        assert_same_bits(out._backward(g)[0],
                         g - np.exp(logp) * g.sum(-1, keepdims=True))

        e = np.exp(x - x.max(-1, keepdims=True))
        p = e / e.sum(-1, keepdims=True)
        out = T.softmax(t)
        assert_same_bits(out.data, p)
        assert_same_bits(out._backward(g)[0], p * (g - (g * p).sum(-1, keepdims=True)))

        assert_same_bits(T.tsum(t, axis=-1).data, x.sum(-1))
        assert_same_bits(T.tsum(t, axis=x.ndim - 1, keepdims=True).data,
                         x.sum(-1, keepdims=True))

    def test_integer_sum_keeps_numpy_widening(self):
        x = T.Tensor(np.array([[1, 2, 3]], np.int32))
        assert T.tsum(x, axis=-1).data.dtype == np.array([1], np.int32).sum().dtype


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

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 4)], ids=["2x2x2", "2x3x4"])
    @pytest.mark.parametrize("axes", [(0, -1, 1), (-1, 0, 1)], ids=["0,-1,1", "-1,0,1"])
    def test_transpose_grad_with_negative_axes(self, axes, shape):
        keys = R.split(R.RngKey.from_seed(63), 2)
        w = T.Tensor(R.normal(keys[1], np.transpose(np.empty(shape), axes).shape))
        check_grads(lambda p: T.tsum(T.transpose(p["x"], axes) * w),
                    {"x": rand(keys[0], shape)})

    def test_concat_and_slice(self):
        a = rand(R.RngKey.from_seed(12), (2, 3))
        b = rand(R.RngKey.from_seed(13), (4, 3))
        out = T.concat([a, b], axis=0)
        assert out.shape == (6, 3)
        assert np.array_equal(out.data[:2], a.data)
        check_grads(lambda p: T.tsum(T.concat([p["a"], p["b"]], axis=0)[1:4] ** 2.0),
                    {"a": a, "b": b})

    def test_concat_dtype_mismatch(self):
        a = T.Tensor(np.ones((2, 3)), dtype="f32")
        b = T.Tensor(np.ones((1, 3)), dtype="f64")
        with pytest.raises(TypeError, match="concat: dtype mismatch"):
            T.concat([a, b])
        with pytest.raises(TypeError, match="concat: dtype mismatch"):
            T.concat([b, a, a])

    def test_concat_of_nothing_refused(self):
        with pytest.raises(ValueError, match=r"^concat needs at least one tensor"):
            T.concat([])

    @pytest.mark.parametrize("axis", [0, 1, 3, -1])
    def test_concat_grad_is_the_gathered_slice(self, axis):
        keys = R.split(R.RngKey.from_seed(61), 4)
        widths = [1, 2, 3]
        params = {}
        for name, key, n in zip("abc", keys, widths):
            shape = [2, 3, 4, 2]
            shape[axis] = n
            params[name] = T.Tensor(R.normal(key, tuple(shape)).astype(np.float32))
        whole = np.concatenate([p.data for p in params.values()], axis=axis)
        g = R.normal(keys[3], whole.shape).astype(np.float32)
        grads = T.grad(lambda p: T.tsum(T.concat([p["a"], p["b"], p["c"]], axis)
                                        * T.Tensor(g)), params)
        offsets = np.cumsum([0] + widths)
        for i, name in enumerate("abc"):
            # the gather the slice replaced
            want = np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            assert_same_bits(grads[name].data, want)

    @pytest.mark.parametrize("idx", [
        (slice(None), 1), (Ellipsis, 0), (1, slice(1, 3)), (None, 2), -1,
        np.array([0, 2, 0]), ([1, 1], slice(None)), np.array([True, False, True])])
    def test_take_grad_is_the_scatter_add(self, idx):
        keys = R.split(R.RngKey.from_seed(62), 2)
        x = T.Tensor(R.normal(keys[0], (3, 4, 2)), requires_grad=True)
        out = T.take(x, idx)
        g = R.normal(keys[1], out.shape)
        want = np.zeros_like(x.data)
        np.add.at(want, idx, g)
        assert_same_bits(out._backward(g)[0], want)

    def test_sum_axes(self):
        x = rand(R.RngKey.from_seed(14), (3, 4))
        assert T.tsum(x).item() == pytest.approx(x.data.sum())
        assert np.allclose(T.tsum(x, axis=0).data, x.data.sum(0))
        assert np.allclose(T.tmean(x, axis=1, keepdims=True).data,
                           x.data.mean(1, keepdims=True))

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_over_a_tuple_of_axes(self, keepdims):
        x = rand(R.RngKey.from_seed(64), (2, 3, 4))
        out = T.tmean(x, axis=(1, 2), keepdims=keepdims)
        np.testing.assert_allclose(out.data, x.data.mean((1, 2), keepdims=keepdims),
                                   rtol=1e-12)
        check_grads(lambda p: T.tsum(T.tmean(p["x"], axis=(0, 2)) ** 2.0), {"x": x})


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

    @staticmethod
    def _pool_reference(x, g, size):
        """The 6-D block formulas the strided window slices replaced."""
        b, h, w, c = x.shape
        blocks = x.reshape(b, h // size, size, w // size, size, c)
        out = blocks.max(axis=(2, 4))
        mask = (blocks == out[:, :, None, :, None, :]).astype(x.dtype)
        mask /= mask.sum(axis=(2, 4), keepdims=True)
        gx = mask * g[:, :, None, :, None, :]
        return out, gx.reshape(b, h, w, c).astype(x.dtype, copy=False)

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_pool_matches_the_block_formulas(self, size, dtype):
        keys = R.split(R.RngKey.from_seed(63), 2)
        # three levels make 2-, 3- and 4-way ties common
        x = R.randint(keys[0], (3, 6, 6, 4), 0, 3).astype(dtype)
        x[0, :size, :size, 0] = 2.0  # a window that is one tie
        x[0, :size, :size, 1] = -0.0
        x[0, 0, 0, 1] = 0.0
        x[1, :size, :size, 2] = 0.0
        x[1, 0, 0, 2] = -0.0
        x[2, 0, 0, 3] = np.nan
        x[2, size - 1, size - 1, 3] = np.inf
        t = T.Tensor(x, requires_grad=True)
        out = T.max_pool2d(t, size)
        g = R.normal(keys[1], out.shape).astype(dtype)
        with np.errstate(invalid="ignore"):
            want_out, want_gx = self._pool_reference(x, g, size)
            assert_same_bits(out.data, want_out)
            assert_same_bits(out._backward(g)[0], want_gx)

    def test_max_pool_ties_share_the_gradient(self):
        x = np.zeros((1, 2, 4, 1), np.float32)
        x[0, :, 2:, 0] = [[1.0, 3.0], [3.0, 2.0]]
        t = T.Tensor(x, requires_grad=True)
        gx = T.max_pool2d(t, 2)._backward(np.array([[[[8.0], [6.0]]]], np.float32))[0]
        assert gx[0, :, :, 0].tolist() == [[2.0, 2.0, 0.0, 3.0], [2.0, 2.0, 3.0, 0.0]]

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upsample_grad_matches_the_block_sum(self, factor, dtype):
        b, h, w, c = 2, 3, 4, 5
        up = T.upsample_nearest2d(T.Tensor(np.zeros((b, h, w, c), dtype),
                                           requires_grad=True), factor)
        gen = np.random.default_rng(factor)
        g = gen.standard_normal(up.shape) * 10.0 ** gen.integers(-8, 9, up.shape)
        g[0, :factor, :factor, 0] = -0.0  # a window of -0.0 sums to +0.0
        g[1, :factor, :factor, 1] = np.where(np.eye(factor), np.inf, -np.inf)
        g = g.astype(dtype)
        with np.errstate(invalid="ignore"):
            want = g.reshape(b, h, factor, w, factor, c).sum(axis=(2, 4))
            assert_same_bits(up._backward(g)[0], want)

    def test_sizes_below_one_refused(self):
        x = T.Tensor(np.ones((1, 4, 4, 2), np.float32))
        for factor in (0, -1):
            with pytest.raises(ValueError, match="factor must be at least 1"):
                T.upsample_nearest2d(x, factor)
        for size in (0, -2):
            with pytest.raises(ValueError, match="size must be at least 1"):
                T.max_pool2d(x, size)
        k = T.Tensor(np.ones((3, 3, 2, 1), np.float32))
        for stride in (0, -1):
            with pytest.raises(ValueError, match="stride must be at least 1"):
                T.conv2d(x, k, stride=stride)

    def test_upsample_inverse_of_pool_shapes(self):
        x = rand(R.RngKey.from_seed(20), (2, 3, 3, 4))
        up = T.upsample_nearest2d(x, 2)
        assert up.shape == (2, 6, 6, 4)
        check_grads(lambda p: T.tsum(T.upsample_nearest2d(p["x"]) ** 2.0), {"x": x})


class _Op(NamedTuple):
    call: object  # the op on inputs a, b [2, 4, 4, 2] and kernel k [3, 3, 2, 2]
    operands: int  # the Tensors the call hands the op
    int64: str | None  # the dtype int64 inputs give; None: refused


# every public op of the tensor module, by name (a second call of one op
# adds a suffix)
_OPS = {
    "add": _Op(lambda a, b, k: T.add(a, b), 2, "i64"),
    "sub": _Op(lambda a, b, k: T.sub(a, b), 2, "i64"),
    "mul": _Op(lambda a, b, k: T.mul(a, b), 2, "i64"),
    "div": _Op(lambda a, b, k: T.div(a, b), 2, None),
    "neg": _Op(lambda a, b, k: T.neg(a), 1, "i64"),
    "power": _Op(lambda a, b, k: T.power(a, 0.5), 1, None),
    "exp": _Op(lambda a, b, k: T.exp(a), 1, None),
    "log": _Op(lambda a, b, k: T.log(a), 1, None),
    "relu": _Op(lambda a, b, k: T.relu(a), 1, "i64"),
    "sigmoid": _Op(lambda a, b, k: T.sigmoid(a), 1, None),
    "tanh": _Op(lambda a, b, k: T.tanh(a), 1, None),
    "gelu": _Op(lambda a, b, k: T.gelu(a), 1, None),
    "matmul": _Op(lambda a, b, k: T.matmul(a, T.transpose(b, (0, 1, 3, 2))), 2, "i64"),
    "dense": _Op(lambda a, b, k: T.dense(a, k[0, 0], b[0, 0, 0]), 3, "i64"),
    "attention": _Op(lambda a, b, k: T.attention(a.reshape((2, 8, 4)),
                                                 b[:, :2].reshape((2, 4, 4)),
                                                 b[:, 2:].reshape((2, 4, 4)), 2), 3, None),
    "tsum": _Op(lambda a, b, k: T.tsum(a, axis=1), 1, "i64"),
    "tmean": _Op(lambda a, b, k: T.tmean(a, axis=1), 1, None),
    "softmax": _Op(lambda a, b, k: T.softmax(a) * b, 1, None),
    "log_softmax": _Op(lambda a, b, k: T.log_softmax(a) * b, 1, None),
    "layer_norm": _Op(lambda a, b, k: T.layer_norm(a, b[0, 0, 0], k[0, 0, 0], 1e-6), 3, None),
    "reshape": _Op(lambda a, b, k: T.reshape(a, (2, 32)), 1, "i64"),
    "transpose": _Op(lambda a, b, k: T.transpose(a), 1, "i64"),
    "concat": _Op(lambda a, b, k: T.concat([a, b], axis=3), 2, "i64"),
    "take": _Op(lambda a, b, k: T.take(a, (slice(None), 1)), 1, "i64"),
    "astype": _Op(lambda a, b, k: T.astype(a, "f64"), 1, "f64"),
    "pad2d": _Op(lambda a, b, k: T.pad2d(a, 1), 1, "i64"),
    "conv2d": _Op(lambda a, b, k: T.conv2d(a, k, stride=2), 2, "i64"),
    "conv2d_bias": _Op(lambda a, b, k: T.conv2d(a, k, stride=2, bias=b[0, 0, 0]), 3, "i64"),
    "max_pool2d": _Op(lambda a, b, k: T.max_pool2d(a), 1, "i64"),
    "upsample_nearest2d": _Op(lambda a, b, k: T.upsample_nearest2d(a), 1, "i64"),
}
# public functions of the tensor module that are not ops: the
# constructors and the autodiff drivers
_NOT_OPS = {"tensor", "zeros", "ones", "zeros_like", "backward", "value_and_grad", "grad"}


def _op_name(case):
    return case if hasattr(T, case) else case.rpartition("_")[0]


def _inputs(seed, dtype):
    """a, b and k, uniform in [0.5, 1.5) (rounded down to 0 or 1 for an
    int dtype)."""
    keys = R.split(R.RngKey.from_seed(seed), 3)
    return [T.Tensor(R.uniform(key, shape) + 0.5, dtype=dtype)
            for key, shape in zip(keys, [(2, 4, 4, 2)] * 2 + [(3, 3, 2, 2)])]


def test_every_public_op_is_in_the_table():
    public = {name for name, f in vars(T).items()
              if inspect.isfunction(f) and f.__module__ == T.__name__
              and not name.startswith("_")}
    assert _NOT_OPS <= public
    assert public - _NOT_OPS == {_op_name(case) for case in _OPS}


@pytest.mark.parametrize("op", sorted(case for case, row in _OPS.items() if row.operands > 1))
def test_mixed_dtypes_refused(op):
    a, b, k = _inputs(23, "f32")
    for mixed in [(a.astype("f64"), b, k), (a, b.astype("f64"), k.astype("f64"))]:
        with pytest.raises(TypeError, match=rf"^{_op_name(op)}: dtype mismatch f\d\d, f\d\d$"):
            _OPS[op].call(*mixed)


@pytest.mark.parametrize("op", sorted(case for case, row in _OPS.items() if row.int64 is None))
def test_float_only_ops_refuse_int64(op):
    with pytest.raises(TypeError, match=rf"^{_op_name(op)} requires a float tensor, got i64$"):
        _OPS[op].call(*_inputs(24, "i64"))


@pytest.mark.parametrize("op", sorted(case for case, row in _OPS.items() if row.int64))
def test_other_ops_give_numpy_dtype_for_int64(op):
    ints = _inputs(25, "i64")
    out = _OPS[op].call(*ints)
    assert out.dtype == _OPS[op].int64
    # 0s and 1s: float64 computes the same values exactly
    assert np.array_equal(out.data, _OPS[op].call(*(t.astype("f64") for t in ints)).data)


@pytest.mark.parametrize("op", sorted(_OPS))
def test_float32_inputs_get_float32_gradients(op):
    params = dict(zip("abk", _inputs(21, "f32")))
    grads = T.grad(lambda p: T.tsum(_OPS[op].call(p["a"], p["b"], p["k"])), params)
    for name, g in grads.items():
        assert g.data.dtype == np.float32, name


@pytest.mark.parametrize("op", sorted(_OPS))
def test_no_tape_node_without_a_gradient(op):
    out = _OPS[op].call(*_inputs(22, "f32"))
    assert out._backward is None
    assert out._parents == ()
    assert not out.requires_grad


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.matmul])
def test_binary_ops_skip_the_gradient_nothing_reads(op):
    keys = R.split(R.RngKey.from_seed(64), 3)
    a = R.uniform(keys[0], (3, 4, 4)) + 0.5
    b = R.uniform(keys[1], (4, 4)) + 0.5
    g = R.normal(keys[2], (3, 4, 4))
    both = op(T.Tensor(a, requires_grad=True), T.Tensor(b, requires_grad=True))
    left = op(T.Tensor(a, requires_grad=True), T.Tensor(b))
    right = op(T.Tensor(a), T.Tensor(b, requires_grad=True))
    ga, gb = both._backward(g)
    assert left._backward(g)[1] is None and right._backward(g)[0] is None
    assert_same_bits(left._backward(g)[0], ga)
    assert_same_bits(right._backward(g)[1], gb)


def test_float_astype_needing_a_gradient_records_a_node():
    a = T.Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    out = T.astype(a, "f64")
    assert out.requires_grad
    assert out._parents == (a,)
    assert out._backward is not None
    assert not T.astype(a, "i32").requires_grad
