import numpy as np
import pytest

from deskml import layers as L
from deskml import rng as R
from deskml import tensor as T
from deskml.tensor import Tensor
from gradcheck import check_grads


def key(seed=0):
    return R.RngKey.from_seed(seed)


def rand(k, shape, dtype="f64"):
    return Tensor(R.normal(k, shape), dtype=dtype)


def as_f64(params):
    return {k: v.astype("f64") for k, v in params.items()}


class TestNamespacing:
    def test_prefixed_scopes_roundtrip(self):
        d = {"w": Tensor(np.ones(2)), "b": Tensor(np.zeros(2))}
        assert L.scopes(L.prefixed("enc/fc1", d))["enc"] == L.prefixed("fc1", d)
        assert L.scopes(L.prefixed("fc1", d))["fc1"].keys() == d.keys()

    def test_scopes_group_by_first_segment_in_order(self):
        p = {"a/x": 1, "b/y/z": 2, "top": 3, "a/w": 4, "ab/q": 5}
        assert L.scopes(p) == {"a": {"x": 1, "w": 4}, "b": {"y/z": 2},
                               "ab": {"q": 5}}
        assert list(L.scopes(p)["a"]) == ["x", "w"]

class TestDense:
    def test_zero_weight_gives_bias(self):
        p = {"w": T.zeros((3, 2)), "b": Tensor(np.array([1.0, -1.0], np.float32))}
        out = L.dense(Tensor(np.ones((4, 3), np.float32)), p)
        assert np.allclose(out.data, [[1.0, -1.0]] * 4)

    def test_bias_only_where_the_dict_holds_one(self):
        x = rand(key(5), (2, 4, 4, 3))
        w = L.init_conv(key(6), 3, 3, 3, 2)["w"].astype("f64")
        assert np.array_equal(L.conv(x, {"w": w}).data, T.conv2d(x, w).data)
        assert np.array_equal(L.dense(x, {"w": w[0, 0]}).data, (x @ w[0, 0]).data)
        assert "k/b" not in L.init_attention(key(7), 4)
        assert {"q/b", "v/b", "o/b"} <= L.init_attention(key(7), 4).keys()

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "valid")])
    def test_conv_is_one_tape_node_with_the_bias_inside(self, stride, padding):
        p = {n: Tensor(t.data, requires_grad=True)
             for n, t in L.init_conv(key(40), 3, 3, 2, 4).items()}
        p["b"].data[:] = R.normal(key(41), (4,))
        x = Tensor(R.normal(key(42), (3, 7, 7, 2)), "f32", requires_grad=True)
        out = L.conv(x, p, stride, padding)
        bare = L.conv(x, {"w": p["w"]}, stride, padding)
        assert out._parents == (x, p["w"], p["b"])
        assert bare._parents == (x, p["w"])
        assert all(q._backward is None for q in out._parents)
        ref = T.conv2d(x, p["w"], stride, padding) + p["b"]
        assert np.array_equal(out.data, ref.data)
        # a tape hands a node its C-contiguous gradient
        g = R.normal(key(43), out.shape).astype(np.float32)
        gx, gw, gb = out._backward(g)
        assert gb.dtype == np.float32
        assert np.array_equal(gb, ref._backward(g)[1])
        assert np.array_equal(gb, T._unbroadcast(g, (4,)))
        bx, bw = bare._backward(g)
        assert np.array_equal(gx, bx) and np.array_equal(gw, bw)

    def test_he_uniform_bounds(self):
        w = L.he_uniform(key(1), (200, 100), fan_in=200)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w.data).max() <= limit
        assert np.abs(w.data).max() > 0.8 * limit

    def test_grad(self):
        p = as_f64(L.init_dense(key(2), 3, 4))
        x = R.normal(key(3), (2, 3))
        check_grads(lambda q: T.tsum(L.dense(Tensor(x), q) ** 2.0), p, rtol=1e-4)


class TestNorms:
    def test_layer_norm_output_standardized(self):
        p = L.init_layer_norm(8)
        out = L.layer_norm(rand(key(4), (5, 8), "f32"), p)
        assert np.abs(out.data.mean(-1)).max() < 1e-5
        assert np.abs(out.data.std(-1) - 1.0).max() < 1e-3

    def test_batch_norm_running_stats_update_rule(self):
        p, s = L.init_batch_norm(2)
        x = Tensor(np.array([[1.0, 2.0], [3.0, 6.0]], np.float32))
        _, new_s = L.batch_norm(x, p, s, train=True, momentum=0.9)
        # mu' = 0.9*0 + 0.1*batch_mean; var' = 0.9*1 + 0.1*batch_var
        assert np.allclose(new_s["mean"].data, [0.2, 0.4])
        assert np.allclose(new_s["var"].data, [1.0, 1.3])

    def test_batch_norm_eval_uses_stored_stats(self):
        p, s = L.init_batch_norm(3)
        x = rand(key(5), (10, 3), "f32")
        y, new_s = L.batch_norm(x, p, s, train=False)
        assert new_s is s
        assert np.allclose(y.data, x.data / np.sqrt(1.0 + 1e-5), atol=1e-6)

    def test_layer_norm_grad(self):
        p = {k: v.astype("f64") for k, v in L.init_layer_norm(4).items()}
        x = R.normal(key(6), (3, 4))
        check_grads(lambda q: T.tsum(L.layer_norm(Tensor(x), q) ** 2.0), p,
                    rtol=1e-4)

    @pytest.mark.parametrize("shape", [(3, 7), (2, 5, 16)])
    def test_layer_norm_op_grad_wrt_x_scale_and_bias(self, shape):
        k = R.split(key(13), 4)
        w = R.normal(k[3], shape)
        params = {"x": rand(k[0], shape) * 3.0 + 1.0,
                  "scale": rand(k[1], shape[-1:]),
                  "bias": rand(k[2], shape[-1:])}
        check_grads(lambda q: T.tsum(T.layer_norm(q["x"], q["scale"], q["bias"],
                                                  1e-6) * Tensor(w)),
                    params, rtol=1e-6)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("shape", [(3, 7), (2, 5, 16), (8, 5, 64)])
    def test_layer_norm_op_forward_equals_composed_chain(self, dtype, shape):
        def chain(x, scale, bias, eps):
            mu = T.tmean(x, axis=-1, keepdims=True)
            var = T.tmean((x - mu) ** 2.0, axis=-1, keepdims=True)
            return (x - mu) / ((var + eps) ** 0.5) * scale + bias

        k = R.split(key(14), 3)
        x = Tensor(R.normal(k[0], shape) * 3.0 + 1.0, dtype=dtype)
        scale = Tensor(R.normal(k[1], shape[-1:]), dtype=dtype)
        bias = Tensor(R.normal(k[2], shape[-1:]), dtype=dtype)
        out = T.layer_norm(x, scale, bias, 1e-6).data
        ref = chain(x, scale, bias, 1e-6).data
        assert out.dtype == ref.dtype == x.data.dtype
        assert np.array_equal(out, ref)

    def test_layer_norm_records_one_tape_node(self):
        p = {k: Tensor(v.data, requires_grad=True)
             for k, v in L.init_layer_norm(8).items()}
        x = Tensor(R.normal(key(15), (2, 3, 8)).astype(np.float32),
                   requires_grad=True)
        out = L.layer_norm(x, p)
        assert out._parents == (x, p["scale"], p["bias"])
        assert all(q._backward is None for q in out._parents)

    def test_layer_norm_op_rejects_mixed_dtypes(self):
        p = L.init_layer_norm(4)
        with pytest.raises(TypeError, match="dtype mismatch"):
            T.layer_norm(rand(key(16), (2, 4), "f64"), p["scale"], p["bias"], 1e-6)


class TestDropout:
    def test_off_in_eval(self):
        x = rand(key(7), (4, 4), "f32")
        assert L.dropout(x, None) is x

    def test_preserves_expectation(self):
        x = Tensor(np.ones((100, 100), np.float32))
        out = L.dropout(x, L.dropout_mask(key(8), 0.25, x.shape, np.float32))
        kept = out.data != 0
        assert abs(kept.mean() - 0.75) < 0.02
        assert np.allclose(out.data[kept], 1.0 / 0.75)

    def test_requires_key(self):
        with pytest.raises(ValueError, match="rng key"):
            L.dropout_mask(None, 0.5, (3,), np.float32)

    def test_float32_and_float64_masks_share_their_zeros(self):
        m32 = L.dropout_mask(key(9), 0.3, (6, 7, 8), np.float32)
        m64 = L.dropout_mask(key(9), 0.3, (6, 7, 8), np.float64)
        assert m32.dtype == np.float32 and m64.dtype == np.float64
        assert np.array_equal(m32 == 0, m64 == 0)
        assert np.all(m32[m32 != 0] == np.float32(1 / 0.7))
        assert np.all(m64[m64 != 0] == 1 / 0.7)

    def test_stacked_slice_is_its_run_of_the_word_stream(self):
        shape, rate = (3, 2, 4, 5, 6), 0.4
        mask = L.dropout_mask(key(10), rate, shape, np.float32)
        m = 4 * 5 * 6
        words = R._random_bits32(key(10), 3 * 2 * m)
        for i in range(3):
            for j in range(2):
                run = words[(2 * i + j) * m:(2 * i + j + 1) * m]
                want = (run >= np.ceil(rate * 2 ** 32)).reshape(shape[2:])
                assert np.array_equal(mask[i, j] != 0, want), (i, j)

    @pytest.mark.parametrize("rate", [float("nan"), 1.0, -0.5, 1.5, float("inf")])
    def test_rate_outside_zero_to_one_refused(self, rate):
        with pytest.raises(ValueError, match=f"got {rate}"):
            L.dropout_mask(key(11), rate, (4,), np.float32)

    def test_rate_just_below_one_drops_every_unit(self):
        # ceil(rate * 2^32) is 2^32: every word is below it, none wraps to 0
        rate = 1.0 - 2.0 ** -33
        assert np.ceil(rate * 2 ** 32) == 2 ** 32
        mask = L.dropout_mask(key(12), rate, (50, 40), np.float32)
        assert not mask.any()


class TestAttention:
    def test_single_token_attends_to_itself(self):
        # with one key/value position, softmax weights are exactly 1
        p = as_f64(L.init_attention(key(9), 8))
        x = rand(key(10), (2, 1, 8))
        out = L.multi_head_attention(x, x, x, heads=2, p=p)
        s = L.scopes(p)
        v = L.dense(x, s["v"])
        ref = L.dense(v, s["o"])
        assert np.allclose(out.data, ref.data, atol=1e-12)

    def test_matches_direct_formula(self):
        d, heads = 6, 2
        p = as_f64(L.init_attention(key(11), d))
        x = R.normal(key(12), (1, 3, d))
        out = L.multi_head_attention(Tensor(x), Tensor(x), Tensor(x),
                                     heads=heads, p=p).data

        def lin(name, inp):
            layer = L.scopes(p)[name]
            out = inp @ layer["w"].data
            return out + layer["b"].data if "b" in layer else out

        q, k, v = lin("q", x[0]), lin("k", x[0]), lin("v", x[0])
        dh = d // heads
        heads_out = []
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            e = np.exp(logits - logits.max(-1, keepdims=True))
            w = e / e.sum(-1, keepdims=True)
            heads_out.append(w @ v[:, sl])
        ref = lin("o", np.concatenate(heads_out, -1))
        assert np.allclose(out[0], ref, atol=1e-10)

    def test_mask_forbids_positions(self):
        p = as_f64(L.init_attention(key(13), 4))
        x = rand(key(14), (1, 3, 4))
        # forbid attending to position 2 entirely
        mask = np.zeros((1, 1, 3, 3))
        mask[..., 2] = -1e9
        out_masked = L.multi_head_attention(x, x, x, 2, p, mask=Tensor(mask))
        x2 = Tensor(x.data.copy())
        x2.data[0, 2] += 100.0  # changing the masked position's value...
        k_changed = L.multi_head_attention(
            Tensor(x.data[:, :2]), x2, x2, 2, p, mask=Tensor(mask[..., :2, :]))
        k_ref = L.multi_head_attention(
            Tensor(x.data[:, :2]), x, x, 2, p, mask=Tensor(mask[..., :2, :]))
        assert np.allclose(k_changed.data, k_ref.data, atol=1e-10)
        assert out_masked.shape == (1, 3, 4)

    def test_dim_head_mismatch(self):
        p = as_f64(L.init_attention(key(15), 6))
        x = rand(key(16), (1, 2, 6))
        with pytest.raises(ValueError, match="heads"):
            L.multi_head_attention(x, x, x, heads=4, p=p)

    @staticmethod
    def _chain(q, k, v, heads, p, mask=None):
        """The projections and the reshape/transpose/matmul/softmax chain,
        op by op."""
        def lin(x, layer):
            return x @ layer["w"] + layer["b"] if "b" in layer else x @ layer["w"]

        (b, nq, d), nk, dh = q.shape, k.shape[1], q.shape[2] // heads
        s = L.scopes(p)

        def split(x, n):
            return x.reshape((b, n, heads, dh)).transpose((0, 2, 1, 3))

        qh, kh, vh = split(lin(q, s["q"]), nq), split(lin(k, s["k"]), nk), \
            split(lin(v, s["v"]), nk)
        logits = (qh @ kh.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
        if mask is not None:
            logits = logits + mask
        out = T.softmax(logits, axis=-1) @ vh
        return lin(out.transpose((0, 2, 1, 3)).reshape((b, nq, d)), s["o"])

    @staticmethod
    def _tape_nodes(out):
        seen, stack = set(), [out]
        while stack:
            t = stack.pop()
            if id(t) not in seen and t._backward is not None:
                seen.add(id(t))
                stack.extend(t._parents)
        return len(seen)

    @pytest.mark.parametrize("b,nq,nk,with_mask", [
        (32, 16, 16, False), (32, 8, 16, False), (8, 17, 17, True), (4, 8, 16, True)])
    def test_fused_core_matches_the_chain(self, b, nq, nk, with_mask):
        d, heads = 64, 4
        p = {n: Tensor(t.data, requires_grad=True)
             for n, t in L.init_attention(key(30), d).items()}
        q = Tensor(R.normal(key(31), (b, nq, d)), "f32", requires_grad=True)
        m = Tensor(R.normal(key(32), (b, nk, d)), "f32", requires_grad=True)
        mask = None
        if with_mask:
            mask = rand(key(33), (1, 1, nq, nk), "f32")
            mask.data[..., -1] = -1e9
        r = rand(key(34), (b, nq, d), "f32")
        out = L.multi_head_attention(q, m, m, heads, p, mask)
        ref = self._chain(q, m, m, heads, p, mask)
        assert np.array_equal(out.data, ref.data)
        grads = T.backward(T.tsum(out * r))
        ref_grads = T.backward(T.tsum(ref * r))
        for name, t in {**p, "q": q, "memory": m}.items():
            g, rg = grads[id(t)], ref_grads[id(t)]
            assert g.dtype == np.float32
            assert np.abs(g - rg).max() <= 1e-5 * np.abs(rg).max(), name
        assert self._tape_nodes(out) == 5
        assert self._tape_nodes(L.dense(q, L.scopes(p)["q"])) == 1

    def test_grad(self):
        p = as_f64(L.init_attention(key(17), 4))
        x = R.normal(key(18), (1, 3, 4))
        check_grads(
            lambda q: T.tsum(L.multi_head_attention(
                Tensor(x), Tensor(x), Tensor(x), 2, q) ** 2.0),
            p, rtol=1e-4)


class TestBlocks:
    def test_transformer_block_residual_identity(self):
        # zero attention/MLP output weights reduce the block to identity
        p = as_f64(L.init_transformer_block(key(19), 8, 16))
        p["attn/o/w"] = T.zeros((8, 8), dtype="f64")
        p["mlp/fc2/w"] = T.zeros((16, 8), dtype="f64")
        p["attn/o/b"] = T.zeros((8,), dtype="f64")
        p["mlp/fc2/b"] = T.zeros((8,), dtype="f64")
        x = rand(key(20), (2, 5, 8))
        out = L.transformer_block(x, p, heads=2)
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_transformer_block_grad(self):
        p = as_f64(L.init_transformer_block(key(21), 4, 8))
        x = R.normal(key(22), (1, 3, 4))
        check_grads(lambda q: T.tsum(L.transformer_block(Tensor(x), q, 2) ** 2.0),
                    p, rtol=1e-4)

    def test_decoder_block_shapes_and_grad(self):
        p = as_f64(L.init_decoder_block(key(23), 4, 8))
        x = R.normal(key(24), (1, 2, 4))
        mem = R.normal(key(25), (1, 5, 4))
        out = L.decoder_block(Tensor(x), Tensor(mem), p, heads=2)
        assert out.shape == (1, 2, 4)
        check_grads(
            lambda q: T.tsum(L.decoder_block(Tensor(x), Tensor(mem), q, 2) ** 2.0),
            p, rtol=1e-4)

    def test_mixer_block_shape_and_grad(self):
        p = as_f64(L.init_mixer_block(key(26), tokens=4, dim=6,
                                      token_mlp=3, channel_mlp=5))
        x = R.normal(key(27), (2, 4, 6))
        out = L.mixer_block(Tensor(x), p)
        assert out.shape == (2, 4, 6)
        check_grads(lambda q: T.tsum(L.mixer_block(Tensor(x), q) ** 2.0),
                    p, rtol=1e-4)

    def test_resnet_block_shapes(self):
        p, s = L.init_resnet_block(key(28), 3, 8, stride=2)
        p, s = as_f64(p), as_f64(s)
        x = rand(key(29), (2, 8, 8, 3))
        y, new_s = L.resnet_block(x, p, s, train=True, stride=2)
        assert y.shape == (2, 4, 4, 8)
        assert set(new_s) == set(s)

    def test_resnet_block_eval_leaves_state(self):
        p, s = L.init_resnet_block(key(30), 4, 4)
        x = rand(key(31), (2, 5, 5, 4), "f32")
        _, new_s = L.resnet_block(x, p, s, train=False)
        for name in s:
            assert np.array_equal(new_s[name].data, s[name].data)

    def test_resnet_block_grad(self):
        p, s = L.init_resnet_block(key(32), 2, 2)
        p, s = as_f64(p), as_f64(s)
        x = R.normal(key(33), (1, 4, 4, 2))
        check_grads(
            lambda q: T.tsum(L.resnet_block(Tensor(x), q, s, train=True)[0] ** 2.0),
            p, rtol=1e-4)


class TestUNetPieces:
    def test_down_up_roundtrip_shapes(self):
        kd, ku = R.split(key(34), 2)
        pd = as_f64(L.init_double_conv(kd, 1, 4))
        pu = as_f64(L.init_double_conv(ku, 8, 4))
        x = rand(key(35), (1, 8, 8, 1))
        skip, pooled = L.unet_down(x, pd)
        assert skip.shape == (1, 8, 8, 4)
        assert pooled.shape == (1, 4, 4, 4)
        out = L.unet_up(pooled, skip, pu)
        assert out.shape == (1, 8, 8, 4)

    def test_up_validates_skip(self):
        p = as_f64(L.init_double_conv(key(36), 4, 2))
        x = rand(key(37), (1, 2, 2, 2))
        with pytest.raises(ValueError, match="skip"):
            L.unet_up(x, rand(key(38), (1, 7, 7, 2)), p)
        with pytest.raises(ValueError, match="skip"):
            L.unet_up(x, None, p)

    def test_double_conv_grad(self):
        p = as_f64(L.init_double_conv(key(39), 1, 2))
        x = R.normal(key(40), (1, 4, 4, 1))
        check_grads(lambda q: T.tsum(L.double_conv(Tensor(x), q) ** 2.0),
                    p, rtol=1e-4)


class TestPatching:
    def test_token_count(self):
        p = as_f64(L.init_patch_embed(key(41), patch=4, cin=3, dim=16))
        out = L.patch_embed(rand(key(42), (2, 8, 12, 3)), p, patch=4)
        assert out.shape == (2, 6, 16)

    def test_indivisible_rejected(self):
        p = as_f64(L.init_patch_embed(key(43), 3, 1, 4))
        with pytest.raises(ValueError, match="divisible"):
            L.patch_embed(rand(key(44), (1, 8, 8, 1)), p, patch=3)

    def test_equivalent_to_strided_conv(self):
        patch, cin, dim = 2, 3, 5
        p = as_f64(L.init_patch_embed(key(45), patch, cin, dim))
        x = rand(key(46), (2, 6, 6, cin))
        tokens = L.patch_embed(x, p, patch).data
        # same projection expressed as a stride-`patch` convolution
        kernel = p["w"].data.reshape(patch, patch, cin, dim)
        conv_out = T.conv2d(x, Tensor(kernel), stride=patch,
                            padding="valid").data + p["b"].data
        assert np.allclose(tokens, conv_out.reshape(2, 9, dim), atol=1e-10)

    def test_positional_embedding_breaks_permutation_symmetry(self):
        p = as_f64(L.init_positional_embedding(key(47), 4, 6))
        x = rand(key(48), (1, 4, 6))
        out = L.add_positional_embedding(x, p).data
        perm = [2, 0, 3, 1]
        out_perm = L.add_positional_embedding(
            Tensor(x.data[:, perm]), p).data
        assert not np.allclose(out[:, perm], out_perm)

    def test_patch_embed_grad(self):
        p = as_f64(L.init_patch_embed(key(49), 2, 1, 3))
        x = R.normal(key(50), (1, 4, 4, 1))
        check_grads(lambda q: T.tsum(L.patch_embed(Tensor(x), q, 2) ** 2.0),
                    p, rtol=1e-4)
