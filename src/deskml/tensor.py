"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Every differentiable op records its
parents and a backward rule on the result, forming an implicit tape;
``backward`` replays it in reverse topological order. Tensors are
immutable values: ops always allocate fresh arrays.

Every op takes operands of one dtype (a Python scalar takes a float first
operand's dtype, and a Python int an int one's), and the ops whose math
needs floats refuse other dtypes.
"""

from __future__ import annotations

import math

import numpy as np

_DTYPES = {
    "f32": np.float32,
    "f64": np.float64,
    "i32": np.int32,
    "i64": np.int64,
    "bool": np.bool_,
}
_DTYPE_NAMES = {np.dtype(v): k for k, v in _DTYPES.items()}


class Tensor:
    __slots__ = ("data", "_parents", "_backward", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(dtype, str):
            dtype = _DTYPES[dtype]
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _DTYPE_NAMES:
            arr = arr.astype(np.float64 if arr.dtype.kind == "f" else np.int64)
        self.data = arr
        self._parents = ()
        self._backward = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.data.dtype]

    def is_float(self):
        return self.data.dtype.kind == "f"

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor({self.data!r}, dtype={self.dtype})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_as_tensor(other, like=self), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, like=self), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_as_tensor(other, like=self), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, like=self), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def astype(self, dtype):
        return astype(self, dtype)

    def detach(self):
        return Tensor(self.data)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    """``x`` as a Tensor; a Python scalar takes a float ``like``'s dtype,
    and a Python int an int ``like``'s, as JAX's weakly typed scalars do."""
    if isinstance(x, Tensor):
        return x
    kind = None if like is None else like.data.dtype.kind
    weak = (isinstance(x, (int, float)) and kind == "f"
            or isinstance(x, int) and kind == "i")
    return Tensor(x, like.data.dtype if weak else None)


def tensor(data, dtype=None) -> Tensor:
    return Tensor(data, dtype=dtype)


def zeros(shape, dtype="f32") -> Tensor:
    return Tensor(np.zeros(shape, _DTYPES[dtype]))


def ones(shape, dtype="f32") -> Tensor:
    return Tensor(np.ones(shape, _DTYPES[dtype]))


def zeros_like(x: Tensor) -> Tensor:
    return Tensor(np.zeros_like(x.data))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _operands(op: str, a, *rest) -> tuple:
    """Op ``op``'s operands as Tensors of one dtype, a ``None`` (an absent
    optional operand) passed through. A Python scalar after ``a`` takes a
    float ``a``'s dtype, and a Python int an int ``a``'s; any other mix is
    refused, where numpy would widen."""
    if not isinstance(a, Tensor):
        a = _as_tensor(a)
    out = (a,)
    for x in rest:
        if x is not None:
            if not isinstance(x, Tensor):
                x = _as_tensor(x, like=a)
            if x.data.dtype != a.data.dtype:
                raise TypeError(f"{op}: dtype mismatch {a.dtype}, {x.dtype}")
        out += (x,)
    return out


def _floats(op: str, a, *rest) -> tuple:
    """``_operands`` for an op whose math needs floats: it refuses other dtypes."""
    out = (a,) if isinstance(a, Tensor) and not rest else _operands(op, a, *rest)
    if out[0].data.dtype.kind != "f":
        raise TypeError(f"{op} requires a float tensor, got {out[0].dtype}")
    return out


def _nonempty_axis(op: str, a: Tensor, axis) -> None:
    """Refuse, naming ``op``, a 0-d ``a`` or an ``axis`` of length 0."""
    if not a.ndim:
        raise ValueError(f"{op}: a 0-d tensor has no axis {axis}")
    if not a.data.size and a.shape[axis] == 0:
        raise ValueError(f"{op}: axis {axis} of shape {a.shape} has length 0")


def _fold(ufunc, slices) -> np.ndarray:
    """``ufunc`` folded left to right over the equal-shape float ``slices``
    in whole-array passes, into one fresh array; an add starts from +0.0,
    as numpy's float ``add.reduce`` does, so -0.0 slices alone sum to +0.0."""
    if ufunc is np.add:
        out = np.zeros_like(slices[0])
    else:
        out, slices = slices[0].copy(), slices[1:]
    for s in slices:
        ufunc(out, s, out=out)
    return out


def _fold_last(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True)`` for float ``x``, bit for
    bit but for the sign of a zero maximum.

    On a short last axis, ``reduce`` pays per row; this folds ``ufunc``
    over the slices ``x[..., i]`` instead, paying per slice, so it folds
    only given at least 8 rows per entry of a row (on one core, an add
    over (4, 5) took 5.1 µs folded and 1.2 reduced). Below length 8
    numpy's float ``add.reduce`` sums in the fold's order (pairwise
    summation starts at 8), so an add folds only there. ``maximum`` is
    exact in any order, so it also folds up to length 32 (at [32, 4, 16,
    16] in a sixth of ``reduce``'s time); the one difference is the sign
    of a zero maximum that both +0.0 and -0.0 attain. Other axes keep
    ``reduce``. The result is always a fresh array.
    """
    n = x.shape[-1]
    if (0 < n < 8 or ufunc is np.maximum and n <= 32) and x.size >= 8 * n * n:
        return _fold(ufunc, [x[..., i] for i in range(n)])[..., None]
    return ufunc.reduce(x, axis=-1, keepdims=True)


def _reduce(ufunc, x: np.ndarray, axis) -> np.ndarray:
    """``ufunc.reduce(x, axis, keepdims=True)``; over the last axis by
    ``_fold_last``."""
    if axis == -1 or axis == x.ndim - 1:
        return _fold_last(ufunc, x)
    return ufunc.reduce(x, axis=axis, keepdims=True)


def _make(data, parents, backward):
    """An op's result; it records a tape node (parents and backward rule)
    only when some parent needs a gradient."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out._parents, out._backward, out.requires_grad = parents, backward, True
    return out


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = _operands("add", a, b)
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a, b) -> Tensor:
    a, b = _operands("sub", a, b)
    return _make(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a, b) -> Tensor:
    a, b = _operands("mul", a, b)
    return _make(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a, b) -> Tensor:
    a, b = _floats("div", a, b)
    return _make(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                            if b.requires_grad else None))


def neg(a) -> Tensor:
    (a,) = _operands("neg", a)
    return _make(-a.data, (a,), lambda g: (-g,))


def power(a, p: float) -> Tensor:
    (a,) = _floats("power", a)
    p = float(p)
    out = a.data ** p
    return _make(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


def exp(a) -> Tensor:
    (a,) = _floats("exp", a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    (a,) = _floats("log", a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a) -> Tensor:
    """max(x, 0), as ``jax.nn.relu``: a NaN input stays NaN."""
    (a,) = _operands("relu", a)
    return _make(np.maximum(a.data, 0), (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a) -> Tensor:
    (a,) = _floats("sigmoid", a)
    # stable: exp(-|x|) cannot overflow
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a) -> Tensor:
    (a,) = _floats("tanh", a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a) -> Tensor:
    """GELU, tanh approximation."""
    (a,) = _floats("gelu", a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * grad,)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra / reductions


def matmul(a, b) -> Tensor:
    a, b = _operands("matmul", a, b)
    # the backward swaps the last two axes of each operand
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands need 2 or more dims, {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def dense(x, w, b=None) -> Tensor:
    """``x @ w (+ b)`` for a 2-D weight shared by every row; one tape node.

    The forward is the chain matmul, add, bit for bit. The backward is
    two GEMMs over the flattened rows and a column sum for the bias.
    """
    x, w, b = _operands("dense", x, w, b)
    parents = (x, w) if b is None else (x, w, b)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"dense: inner dims differ, {x.shape} @ {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ValueError(f"dense: bias shape {b.shape}, expected {w.shape[1:]}")
    out = np.matmul(x.data, w.data)
    if b is not None:
        out += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x.data.reshape(-1, x.shape[-1]).T @ g2
        return (gx, gw) if b is None else (gx, gw, g2.sum(0))

    return _make(out, parents, backward)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    (a,) = _operands("tsum", a)
    out = _reduce(np.add, a.data, axis) if a.is_float() else a.data.sum(axis, keepdims=True)
    if not keepdims:
        out = out.squeeze(axis)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), backward)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    (a,) = _floats("tmean", a)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if axis is not None and not all(-a.ndim <= ax < a.ndim for ax in axes):
        raise ValueError(f"tmean: axis {axis} is out of range for shape {a.shape}")
    n = a.size if axis is None else math.prod(a.shape[ax] for ax in axes)
    if n == 0:
        raise ValueError(f"tmean: no entries to average over axis {axis} of shape {a.shape}")
    return tsum(a, axis, keepdims) * (1.0 / n)


def softmax(a, axis=-1) -> Tensor:
    (a,) = _floats("softmax", a)
    _nonempty_axis("softmax", a, axis)
    out = _softmax(a.data, axis)
    return _make(out, (a,), lambda g: (_softmax_grad(out, g, axis),))


def _softmax(x: np.ndarray, axis) -> np.ndarray:
    e = np.exp(x - _reduce(np.maximum, x, axis))
    return e / _reduce(np.add, e, axis)


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis) -> np.ndarray:
    """The gradient at softmax's input, given its output and ``g``."""
    return out * (g - _reduce(np.add, g * out, axis))


def log_softmax(a, axis=-1) -> Tensor:
    (a,) = _floats("log_softmax", a)
    _nonempty_axis("log_softmax", a, axis)
    z = a.data - _reduce(np.maximum, a.data, axis)
    lse = np.log(_reduce(np.add, np.exp(z), axis))
    out = z - lse

    def backward(g):
        return (g - np.exp(out) * _reduce(np.add, g, axis),)

    return _make(out, (a,), backward)


def layer_norm(x, scale, bias, eps: float) -> Tensor:
    """Normalize over the last axis, then scale and shift; one tape node.

    The forward evaluates the numpy expressions of the chain tmean, sub,
    power, add, power, div, mul, add in that order, so its output equals
    the chain's bit for bit. The backward is the closed form (Ba et al.,
    arXiv 1607.06450): with s = (var + eps) ** 0.5 and gx = g * scale,
    dx = (gx - mean(gx) - xhat * mean(gx * xhat)) / s.
    """
    x, scale, bias = _floats("layer_norm", x, scale, bias)
    _nonempty_axis("layer_norm", x, -1)
    inv_n = np.asarray(1.0 / x.shape[-1], x.data.dtype)
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    var = (xc ** 2.0).sum(axis=-1, keepdims=True) * inv_n
    s = (var + np.asarray(eps, x.data.dtype)) ** 0.5
    xhat = xc / s
    out = xhat * scale.data + bias.data

    def backward(g):
        gx = g * scale.data
        dx = (gx - gx.sum(axis=-1, keepdims=True) * inv_n
              - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) * inv_n)) / s
        return (dx, _unbroadcast(g * xhat, scale.shape),
                _unbroadcast(g, bias.shape))

    return _make(out, (x, scale, bias), backward)


def attention(q, k, v, heads: int, mask=None) -> Tensor:
    """``softmax(q kᵀ · scale + mask) v`` over [b, n, d] inputs, split
    into ``heads`` heads of d / heads and merged back; one tape node.

    The forward evaluates the numpy expressions of the chain reshape,
    transpose, matmul, mul, add, softmax, matmul, transpose, reshape, so
    its output equals the chain's bit for bit. The backward is the
    standard one (Dao et al., FlashAttention, arXiv 2205.14135, without
    the tiling): with P the softmax weights, dV = Pᵀ dO, dP = dO Vᵀ,
    dS = P ∘ (dP − rowsum(dP ∘ P)), dQ = scale · dS K and
    dK = scale · dSᵀ Q. ``mask`` is added to the logits and gets no
    gradient, so one that needs a gradient is refused.
    """
    q, k, v, mask = _floats("attention", q, k, v, mask)
    if q.ndim != 3 or k.ndim != 3 or q.shape[::2] != k.shape[::2]:
        raise ValueError(f"attention: q {q.shape} and k {k.shape} are not "
                         "[b, n, d] of one b and d")
    if k.shape != v.shape:
        raise ValueError(f"attention: k and v shapes differ, {k.shape} vs {v.shape}")
    _nonempty_axis("attention", k, 1)
    b, nq, d = q.shape
    nk = k.shape[1]
    if d % heads:
        raise ValueError(f"attention: model dim {d} not divisible by {heads} heads")
    if mask is not None and mask.requires_grad:
        raise ValueError("attention: the mask gets no gradient, but requires one")
    dh = d // heads
    scale = np.asarray(1.0 / np.sqrt(dh), q.data.dtype)

    def split(x, n):  # [b, n, d] -> [b, heads, n, dh]
        return x.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    def merge(x, n):  # [b, heads, n, dh] -> [b, n, d]
        return x.transpose(0, 2, 1, 3).reshape(b, n, d)

    qh, kh, vh = split(q.data, nq), split(k.data, nk), split(v.data, nk)
    logits = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale
    if mask is not None:
        logits = logits + mask.data
    p = _softmax(logits, -1)
    out = merge(np.matmul(p, vh), nq)

    def backward(g):
        go = split(g, nq)
        dv = np.matmul(p.transpose(0, 1, 3, 2), go)
        ds = _softmax_grad(p, np.matmul(go, vh.transpose(0, 1, 3, 2)), -1) * scale
        dq = np.matmul(ds, kh)
        dk = np.matmul(ds.transpose(0, 1, 3, 2), qh)
        return merge(dq, nq), merge(dk, nk), merge(dv, nk)

    return _make(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape) -> Tensor:
    (a,) = _operands("reshape", a)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes=None) -> Tensor:
    (a,) = _operands("transpose", a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    out = a.data.transpose(axes)  # numpy refuses axes out of range
    inv = np.argsort([ax % a.ndim for ax in axes])
    return _make(out, (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis=0) -> Tensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    tensors = _operands("concat", *tensors)
    if not -tensors[0].ndim <= axis < tensors[0].ndim:
        raise ValueError(f"concat: axis {axis} is out of range for shape {tensors[0].shape}")
    sizes = [t.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        lead = (slice(None),) * (axis % g.ndim)
        return tuple(g[lead + (slice(offsets[i], offsets[i + 1]),)]
                     for i in range(len(tensors)))

    return _make(out, tensors, backward)


def take(a, idx) -> Tensor:
    """Basic/advanced indexing. The backward scatters ``g`` into zeros
    with ``np.add.at``, which adds an advanced index's repeats."""
    (a,) = _operands("take", a)
    out = a.data[idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(out, (a,), backward)


def astype(a, dtype) -> Tensor:
    (a,) = _operands("astype", a)
    out = a.data.astype(_DTYPES[dtype] if isinstance(dtype, str) else dtype)
    if out.dtype.kind != "f":
        return Tensor(out)
    return _make(out, (a,), lambda g: (g.astype(a.data.dtype),))


def pad2d(a, pad: int) -> Tensor:
    """Zero-pad the two spatial axes of a [b, H, W, C] tensor."""
    (a,) = _operands("pad2d", a)
    if pad == 0:
        return a
    width = ((0, 0), (pad, pad), (pad, pad), (0, 0))
    out = np.pad(a.data, width)

    def backward(g):
        return (g[:, pad:-pad, pad:-pad, :],)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# spatial ops (NHWC)


def _correlate(x, k, stride: int, oh: int, ow: int) -> np.ndarray:
    """Sum over the taps (i, j) of x's strided window at (i, j) times
    k[i, j]; x is [b, H, W, cin], k is [kh, kw, cin, cout]."""
    kh, kw, cin, cout = k.shape
    if cin == 1:
        # a per-tap product would contract over length 1, far off BLAS's
        # fast path: gather the taps on a last axis and run one GEMM
        taps = np.stack([x[:, i:i + oh * stride:stride, j:j + ow * stride:stride, 0]
                         for i in range(kh) for j in range(kw)], axis=-1)
        out = taps.reshape(-1, kh * kw) @ k.reshape(kh * kw, cout)
        return out.reshape(x.shape[0], oh, ow, cout)
    out = np.zeros((x.shape[0], oh, ow, cout), x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = x[:, i:i + oh * stride:stride, j:j + ow * stride:stride, :]
            out += np.matmul(patch, k[i, j])
    return out


def conv2d(a, kernel, stride: int = 1, padding: str = "same", bias=None) -> Tensor:
    """2-D cross-correlation (+ bias); kernel is [kh, kw, cin, cout]. One
    tape node: the bias is added in place and its gradient is g's column
    sum."""
    a, kernel, bias = _operands("conv2d", a, kernel, bias)
    parents = (a, kernel) if bias is None else (a, kernel, bias)
    if a.ndim != 4 or kernel.ndim != 4:
        raise ValueError("conv2d expects x[b,H,W,C] and kernel[kh,kw,cin,cout]")
    kh, kw, cin, cout = kernel.shape
    if a.shape[3] != cin:
        raise ValueError(f"conv2d: input has {a.shape[3]} channels, kernel expects {cin}")
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {bias.shape}, expected {(cout,)}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be at least 1, got {stride}")
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("same padding requires odd kernel extents")
        ph, pw = kh // 2, kw // 2
    elif padding == "valid":
        ph = pw = 0
    else:
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")

    b, h, w, _ = a.shape
    x = a.data
    if ph or pw:
        x = np.zeros((b, h + 2 * ph, w + 2 * pw, cin), a.data.dtype)
        x[:, ph:ph + h, pw:pw + w] = a.data
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    out = _correlate(x, kernel.data, stride, oh, ow)
    if bias is not None:
        out += bias.data

    def backward(g):
        gk = np.zeros_like(kernel.data)
        for i in range(kh):
            for j in range(kw):
                patch = x[:, i:i + oh * stride:stride, j:j + ow * stride:stride, :]
                gk[i, j] = patch.reshape(-1, cin).T @ g.reshape(-1, cout)
        gb = () if bias is None else (g.reshape(-1, cout).sum(0),)
        if not a.requires_grad:
            return (None, gk) + gb
        # the input gradient is a stride-1 correlation of g, placed on the
        # stride grid and zero-padded, with the flipped, transposed kernel
        gs = np.zeros((b, h + kh - 1, w + kw - 1, cout), g.dtype)
        y0, x0 = kh - 1 - ph, kw - 1 - pw
        gs[:, y0:y0 + oh * stride:stride, x0:x0 + ow * stride:stride, :] = g
        flipped = np.ascontiguousarray(kernel.data[::-1, ::-1].swapaxes(2, 3))
        return (_correlate(gs, flipped, 1, h, w), gk) + gb

    return _make(out, parents, backward)


def max_pool2d(a, size: int = 2) -> Tensor:
    """Non-overlapping max pooling over the spatial axes.

    The forward is ``np.maximum`` over the size² strided window slices. A
    window's gradient goes to its maxima in equal shares (1 / their count
    times ``g``); a window holding a NaN gets NaN throughout.
    """
    (a,) = _operands("max_pool2d", a)
    if size < 1:
        raise ValueError(f"max_pool2d: size must be at least 1, got {size}")
    if a.ndim != 4:
        raise ValueError(f"max_pool2d expects x[b,H,W,C], got shape {a.shape}")
    b, h, w, c = a.shape
    if h % size or w % size:
        raise ValueError(f"max_pool2d: spatial dims {h}x{w} not divisible by {size}")
    taps = [(i, j) for i in range(size) for j in range(size)]
    windows = [a.data[:, i::size, j::size] for i, j in taps]
    out = _fold(np.maximum, windows)

    def backward(g):
        hits = [x == out for x in windows]
        count = hits[0].astype(a.data.dtype)
        for hit in hits[1:]:
            count += hit
        gx = np.empty_like(a.data)
        for (i, j), hit in zip(taps, hits):
            np.multiply(hit / count, g, out=gx[:, i::size, j::size])
        return (gx,)

    return _make(out, (a,), backward)


def upsample_nearest2d(a, factor: int = 2) -> Tensor:
    """Repeat each pixel ``factor`` times along both spatial axes. The
    backward sums the factor² strided slices of ``g`` in row-major window
    order from +0.0, as ``g.reshape(b, h, f, w, f, c).sum(axis=(2, 4))``
    does, so a window of -0.0 sums to +0.0 there too."""
    (a,) = _operands("upsample_nearest2d", a)
    if factor < 1:
        raise ValueError(f"upsample_nearest2d: factor must be at least 1, got {factor}")
    if a.ndim != 4:
        raise ValueError(f"upsample_nearest2d expects x[b,H,W,C], got shape {a.shape}")
    out = np.repeat(np.repeat(a.data, factor, axis=1), factor, axis=2)

    def backward(g):
        return (_fold(np.add, [g[:, i::factor, j::factor]
                               for i in range(factor) for j in range(factor)]),)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# autodiff driver


def backward(out: Tensor) -> dict[int, np.ndarray]:
    """Backprop from a scalar; returns the leaves' grads keyed by id(tensor).

    A leaf is a tensor with no backward rule. Each inner node's gradient
    is released as soon as its rule has run.
    """
    if out.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {out.shape}")

    # reverse topological order over the recorded graph
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(out): np.ones_like(out.data)}
    for node in reversed(order):
        if node._backward is None:
            continue  # a leaf keeps its gradient for the caller
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg
    return grads


def value_and_grad(f, params: dict[str, Tensor]):
    """Evaluate ``f(params)`` and its gradient w.r.t. every parameter."""
    leaves = {}
    for name, p in params.items():
        if not p.is_float():
            raise TypeError(f"parameter {name!r} is not float (dtype {p.dtype})")
        leaves[name] = Tensor(p.data, requires_grad=True)
    out = f(leaves)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ValueError("objective must return a scalar Tensor")
    gmap = backward(out)
    grads = {}
    for name, leaf in leaves.items():
        g = gmap.get(id(leaf))
        # a parameter with no path to the objective gets zeros
        grads[name] = Tensor(np.zeros_like(leaf.data) if g is None else g)
    return out.detach(), grads


def grad(f, params: dict[str, Tensor]) -> dict[str, Tensor]:
    return value_and_grad(f, params)[1]
