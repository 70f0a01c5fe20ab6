"""Neural-network building blocks: attention/transformer primitives plus
conv, norm, mixer, residual and U-Net blocks.

All blocks are pure functions over (inputs, params, state). Parameters
live in flat ``name -> Tensor`` dicts; composite blocks are wired
together with '/'-separated prefixes via ``prefixed``/``scopes``.
"""

from __future__ import annotations

import numpy as np

from . import rng as R
from . import tensor as T
from .tensor import Tensor


def prefixed(prefix: str, d: dict) -> dict:
    return {f"{prefix}/{k}": v for k, v in d.items()}


def scopes(params: dict) -> dict[str, dict]:
    """Group a flat dict by first path segment in one pass:
    ``{"a/b/c": x}`` becomes ``{"a": {"b/c": x}}``; keys without a '/'
    belong to no scope."""
    out: dict[str, dict] = {}
    for k, v in params.items():
        head, sep, rest = k.partition("/")
        if sep:
            out.setdefault(head, {})[rest] = v
    return out


# ---------------------------------------------------------------------------
# initializers: a float64 draw cast once to float32


def he_uniform(key: R.RngKey, shape, fan_in: int) -> Tensor:
    limit = np.sqrt(6.0 / fan_in)
    u = R.uniform(key, shape)
    return Tensor((u * 2.0 - 1.0) * limit, dtype="f32")


def trunc_normal(key: R.RngKey, shape, std: float = 0.02) -> Tensor:
    z = R.normal(key, shape)
    return Tensor(np.clip(z, -2.0, 2.0) * std, dtype="f32")


# ---------------------------------------------------------------------------
# dense / conv / norms; the initializers return float32. A dense or conv
# layer adds a bias exactly when its dict holds "b", and one whose bias
# the next op cancels is built without


def init_dense(key, d_in: int, d_out: int) -> dict:
    kw, = R.split(key, 1)
    return {
        "w": he_uniform(kw, (d_in, d_out), fan_in=d_in),
        "b": T.zeros((d_out,)),
    }


def dense(x: Tensor, p: dict) -> Tensor:
    return T.dense(x, p["w"], p.get("b"))


def init_conv(key, kh: int, kw: int, cin: int, cout: int) -> dict:
    k, = R.split(key, 1)
    return {
        "w": he_uniform(k, (kh, kw, cin, cout), fan_in=kh * kw * cin),
        "b": T.zeros((cout,)),
    }


def conv(x: Tensor, p: dict, stride: int = 1, padding: str = "same") -> Tensor:
    return T.conv2d(x, p["w"], stride=stride, padding=padding, bias=p.get("b"))


def init_layer_norm(dim: int) -> dict:
    return {"scale": T.ones((dim,)), "bias": T.zeros((dim,))}


def layer_norm(x: Tensor, p: dict, eps: float = 1e-6) -> Tensor:
    return T.layer_norm(x, p["scale"], p["bias"], eps)


def init_batch_norm(dim: int) -> tuple[dict, dict]:
    params = {"scale": T.ones((dim,)), "bias": T.zeros((dim,))}
    state = {"mean": T.zeros((dim,)), "var": T.ones((dim,))}
    return params, state


def batch_norm(x: Tensor, p: dict, state: dict, train: bool,
               momentum: float = 0.9, eps: float = 1e-5):
    """Channel-wise batch norm over all leading axes; returns (y, new_state).

    In train mode, running statistics move toward the batch statistics:
    mu' = momentum * mu + (1 - momentum) * batch_mean.
    """
    if train:
        flat = x.reshape((-1, x.shape[-1]))
        batch_mu = T.tmean(flat, axis=0)
        batch_var = T.tmean((flat - batch_mu) ** 2.0, axis=0)
        y = (x - batch_mu) / ((batch_var + eps) ** 0.5) * p["scale"] + p["bias"]
        new_state = {
            "mean": Tensor(momentum * state["mean"].data
                           + (1.0 - momentum) * batch_mu.data),
            "var": Tensor(momentum * state["var"].data
                          + (1.0 - momentum) * batch_var.data),
        }
        return y, new_state
    y = (x - state["mean"]) / ((state["var"] + eps) ** 0.5) * p["scale"] + p["bias"]
    return y, state


def dropout_mask(key: R.RngKey | None, rate: float, shape, dtype) -> np.ndarray:
    """Dropout masks of ``shape`` in ``dtype``, from one ``R.bernoulli``
    draw of ``key``: a unit is kept with probability ``1 - rate`` and
    then holds ``1 / (1 - rate)``, so a masked input keeps its
    expectation; a dropped unit holds 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if key is None:
        raise ValueError("dropout with rate > 0 in train mode needs an rng key")
    mask = (~R.bernoulli(key, rate, shape)).astype(dtype)
    mask *= 1.0 / (1.0 - rate)
    return mask


def dropout(x: Tensor, mask: np.ndarray | None) -> Tensor:
    """``x`` times a ``dropout_mask``; ``None`` (eval, no dropout) is the identity."""
    return x if mask is None else x * mask


# ---------------------------------------------------------------------------
# attention / transformer


def init_attention(key, dim: int) -> dict:
    kq, kk, kv, ko = R.split(key, 4)
    out = {}
    for name, k in (("q", kq), ("k", kk), ("v", kv), ("o", ko)):
        out.update(prefixed(name, init_dense(k, dim, dim)))
    del out["k/b"]  # a per-query constant in the logits, which softmax cancels
    return out


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                         p: dict, mask: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention over [b, n, d] inputs: the q, k, v
    and output projections around one ``T.attention`` core.

    ``mask``, when given, is added to the attention logits (use large
    negative values to forbid positions).
    """
    s = scopes(p)
    out = T.attention(dense(q, s["q"]), dense(k, s["k"]), dense(v, s["v"]),
                      heads, mask)
    return dense(out, s["o"])


def init_mlp(key, dim: int, hidden: int) -> dict:
    k1, k2 = R.split(key, 2)
    return (prefixed("fc1", init_dense(k1, dim, hidden))
            | prefixed("fc2", init_dense(k2, hidden, dim)))


def mlp(x: Tensor, p: dict) -> Tensor:
    s = scopes(p)
    return dense(T.gelu(dense(x, s["fc1"])), s["fc2"])


def init_transformer_block(key, dim: int, mlp_dim: int) -> dict:
    ka, km = R.split(key, 2)
    return (prefixed("ln1", init_layer_norm(dim))
            | prefixed("attn", init_attention(ka, dim))
            | prefixed("ln2", init_layer_norm(dim))
            | prefixed("mlp", init_mlp(km, dim, mlp_dim)))


def transformer_block(x: Tensor, p: dict, heads: int, masks=None) -> Tensor:
    """Pre-LayerNorm encoder block: x + MHA(LN(x)), then x + MLP(LN(x)),
    each branch times its ``dropout_mask`` in ``masks``, when given."""
    m1, m2 = (None, None) if masks is None else masks
    s = scopes(p)
    h = layer_norm(x, s["ln1"])
    x = x + dropout(multi_head_attention(h, h, h, heads, s["attn"]), m1)
    h = layer_norm(x, s["ln2"])
    return x + dropout(mlp(h, s["mlp"]), m2)


def init_decoder_block(key, dim: int, mlp_dim: int) -> dict:
    ks, kc, km = R.split(key, 3)
    return (prefixed("ln1", init_layer_norm(dim))
            | prefixed("self_attn", init_attention(ks, dim))
            | prefixed("ln2", init_layer_norm(dim))
            | prefixed("cross_attn", init_attention(kc, dim))
            | prefixed("ln3", init_layer_norm(dim))
            | prefixed("mlp", init_mlp(km, dim, mlp_dim)))


def decoder_block(x: Tensor, memory: Tensor, p: dict, heads: int) -> Tensor:
    """Pre-LN decoder block: self-attention, cross-attention, MLP."""
    s = scopes(p)
    h = layer_norm(x, s["ln1"])
    x = x + multi_head_attention(h, h, h, heads, s["self_attn"])
    h = layer_norm(x, s["ln2"])
    x = x + multi_head_attention(h, memory, memory, heads, s["cross_attn"])
    h = layer_norm(x, s["ln3"])
    return x + mlp(h, s["mlp"])


# ---------------------------------------------------------------------------
# mixer


def init_mixer_block(key, tokens: int, dim: int, token_mlp: int,
                     channel_mlp: int) -> dict:
    kt, kc = R.split(key, 2)
    token_mix = init_mlp(kt, tokens, token_mlp)
    del token_mix["fc2/b"]  # a per-token constant; every reader layer-norms it away
    return (prefixed("ln1", init_layer_norm(dim))
            | prefixed("token_mix", token_mix)
            | prefixed("ln2", init_layer_norm(dim))
            | prefixed("channel_mix", init_mlp(kc, dim, channel_mlp)))


def mixer_block(x: Tensor, p: dict) -> Tensor:
    """Token-mixing MLP across positions, then channel-mixing MLP."""
    s = scopes(p)
    h = layer_norm(x, s["ln1"]).transpose((0, 2, 1))
    h = mlp(h, s["token_mix"]).transpose((0, 2, 1))
    x = x + h
    h = layer_norm(x, s["ln2"])
    return x + mlp(h, s["channel_mix"])


# ---------------------------------------------------------------------------
# resnet


def init_resnet_block(key, cin: int, cout: int, stride: int = 1):
    k1, k2, kp = R.split(key, 3)
    params = (prefixed("conv1", init_conv(k1, 3, 3, cin, cout))
              | prefixed("conv2", init_conv(k2, 3, 3, cout, cout)))
    del params["conv1/b"], params["conv2/b"]  # batch norm subtracts the mean
    state = {}
    for name, dim in (("bn1", cout), ("bn2", cout)):
        bp, bs = init_batch_norm(dim)
        params.update(prefixed(name, bp))
        state.update(prefixed(name, bs))
    if stride != 1 or cin != cout:
        params.update(prefixed("proj", init_conv(kp, 1, 1, cin, cout)))
    return params, state


def resnet_block(x: Tensor, p: dict, state: dict, train: bool,
                 stride: int = 1, momentum: float = 0.9):
    """conv-BN-relu twice plus a (projected) shortcut; returns (y, new_state)."""
    s, ss = scopes(p), scopes(state)
    shortcut = x
    if "proj" in s:
        shortcut = conv(x, s["proj"], stride=stride, padding="valid")
    h = conv(x, s["conv1"], stride=stride)
    h, bn1 = batch_norm(h, s["bn1"], ss["bn1"], train, momentum)
    h = T.relu(h)
    h = conv(h, s["conv2"])
    h, bn2 = batch_norm(h, s["bn2"], ss["bn2"], train, momentum)
    y = T.relu(h + shortcut)
    return y, prefixed("bn1", bn1) | prefixed("bn2", bn2)


# ---------------------------------------------------------------------------
# u-net


def init_double_conv(key, cin: int, cout: int) -> dict:
    k1, k2 = R.split(key, 2)
    return (prefixed("conv1", init_conv(k1, 3, 3, cin, cout))
            | prefixed("conv2", init_conv(k2, 3, 3, cout, cout)))


def double_conv(x: Tensor, p: dict) -> Tensor:
    s = scopes(p)
    h = T.relu(conv(x, s["conv1"]))
    return T.relu(conv(h, s["conv2"]))


def unet_down(x: Tensor, p: dict):
    """Returns (skip, pooled): features at this scale and 2x downsampled."""
    skip = double_conv(x, p)
    return skip, T.max_pool2d(skip, 2)


def unet_up(x: Tensor, skip: Tensor, p: dict) -> Tensor:
    """2x nearest upsample, concatenate the skip, double conv."""
    if skip is None:
        raise ValueError("unet_up requires the matching skip tensor")
    h = T.upsample_nearest2d(x, 2)
    if h.shape[1:3] != skip.shape[1:3]:
        raise ValueError(f"skip spatial shape {skip.shape} does not match {h.shape}")
    h = T.concat([h, skip], axis=3)
    return double_conv(h, p)


# ---------------------------------------------------------------------------
# patching / position


def init_patch_embed(key, patch: int, cin: int, dim: int) -> dict:
    return init_dense(key, patch * patch * cin, dim)


def patch_embed(x: Tensor, p: dict, patch: int) -> Tensor:
    """Split [b,H,W,C] into non-overlapping patches and project to dim."""
    b, h, w, c = x.shape
    if h % patch or w % patch:
        raise ValueError(f"spatial dims {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tokens = x.reshape((b, gh, patch, gw, patch, c))
    tokens = tokens.transpose((0, 1, 3, 2, 4, 5)).reshape((b, gh * gw, patch * patch * c))
    return dense(tokens, p)


def init_positional_embedding(key, tokens: int, dim: int) -> dict:
    return {"pos": trunc_normal(key, (tokens, dim), std=0.02)}


def add_positional_embedding(x: Tensor, p: dict) -> Tensor:
    return x + p["pos"]
