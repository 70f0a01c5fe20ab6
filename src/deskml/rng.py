"""Splittable, counter-based pseudo-random keys (Threefry-2x64).

Keys are immutable 2x64-bit values. Splitting a key yields
deterministically-derived child keys, so any tree of hosts / devices /
epochs gets reproducible, statistically independent streams regardless
of the order in which the tree is walked.

One block function, ``_threefry2x64``, serves one key or a lane of keys
(a row of blocks per key, each row bit for bit that key's own blocks).
"""

from __future__ import annotations

import math

import numpy as np

_C240 = 0x1BD11BDAA9FC1A22
_MASK = 0xFFFFFFFFFFFFFFFF
# Rotation schedule for Threefry-2x64, 20 rounds.
_ROT = (16, 42, 12, 31, 16, 32, 24, 21)
# The rotations of each 4-round group, between two key injections.
_ROT_GROUPS = (_ROT[:4], _ROT[4:], _ROT[:4], _ROT[4:], _ROT[:4])
# The same groups as uint64 (left, right) shift pairs for the array body.
_SHIFT_GROUPS = tuple(tuple((np.uint64(r), np.uint64(64 - r)) for r in rots)
                      for rots in _ROT_GROUPS)
# Up to this many counters of one key the cipher runs on Python ints.
# The in-place numpy body's fixed cost per call (~70 us) exceeds the int
# rounds' ~6.5 us per counter up to a crossover measured at 10-12
# counters (2-vCPU VM, numpy 2.4); 8 stays below it.
_SCALAR_MAX = 8


def _injections(ks):
    """The (word 0, word 1) key words added after each 4-round group."""
    return [(ks[d % 3], (ks[(d + 1) % 3] + d) & _MASK) for d in range(1, 6)]


def _threefry_ints(k0, k1, x0, x1):
    """Threefry-2x64-20 on Python ints: lists of the two output words."""
    inject = _injections((k0, k1, k0 ^ k1 ^ _C240))
    out0, out1 = [], []
    for a, b in zip(x0, x1):
        a = (a + k0) & _MASK
        b = (b + k1) & _MASK
        for rots, (i0, i1) in zip(_ROT_GROUPS, inject):
            for rot in rots:
                a = (a + b) & _MASK
                b = (((b << rot) | (b >> (64 - rot))) & _MASK) ^ a
            a = (a + i0) & _MASK
            b = (b + i1) & _MASK
        out0.append(a)
        out1.append(b)
    return out0, out1


def _threefry_numpy(k0, k1, x0, x1):
    """Threefry-2x64-20 on uint64 arrays of counter words, in place: the
    rounds overwrite ``x0`` and ``x1``, which are returned as the two
    output words. uint64 array arithmetic wraps modulo 2^64.

    The key words ``k0`` and ``k1`` are ints (one key for every block)
    or uint64 arrays that broadcast against the counters (one key per
    lane, e.g. of shape ``(lanes, 1)`` against ``(lanes, n)`` counters);
    the key injections broadcast with them.
    """
    inject = _injections((k0, k1, k0 ^ k1 ^ _C240))
    left = np.empty_like(x1)
    x0 += np.uint64(k0)
    x1 += np.uint64(k1)
    for shifts, (i0, i1) in zip(_SHIFT_GROUPS, inject):
        for lsh, rsh in shifts:
            x0 += x1
            np.left_shift(x1, lsh, out=left)
            x1 >>= rsh
            x1 |= left
            x1 ^= x0
        x0 += np.uint64(i0)
        x1 += np.uint64(i1)
    return x0, x1


def _threefry2x64(k0, k1, counters: range, tag: int):
    """Encrypt the blocks (c, tag), c in ``counters``, under key (k0, k1).

    Int key words are one key: its two output words per block, lists of
    ints for at most ``_SCALAR_MAX`` blocks, else uint64 arrays, with the
    same bits. uint64 word arrays of shape ``(lanes,)`` are a key per
    lane: two ``(lanes, n)`` arrays, row i under key (k0[i], k1[i]).
    """
    lanes = isinstance(k0, np.ndarray)
    if not lanes and len(counters) <= _SCALAR_MAX:
        return _threefry_ints(k0, k1, counters, [tag] * len(counters))
    x0 = np.arange(counters.start, counters.stop, dtype=np.uint64)
    if lanes:  # a row of counters per lane, its key broadcast along it
        x0 = np.tile(x0, (len(k0), 1))
        k0, k1 = k0[:, None], k1[:, None]
    return _threefry_numpy(k0, k1, x0, np.full(x0.shape, tag, np.uint64))


class RngKey:
    """An immutable 2x64-bit random key."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: int, lo: int):
        self.hi = int(hi) & 0xFFFFFFFFFFFFFFFF
        self.lo = int(lo) & 0xFFFFFFFFFFFFFFFF

    @classmethod
    def from_seed(cls, seed: int) -> "RngKey":
        """The key of an int seed in [0, 2**64); others would alias one if masked."""
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK:
            raise ValueError(f"a seed must be an int in [0, 2**64), got {seed!r}")
        return cls(0, seed)

    def __repr__(self):
        return f"RngKey({self.hi:#x}, {self.lo:#x})"

    def __eq__(self, other):
        return isinstance(other, RngKey) and (self.hi, self.lo) == (other.hi, other.lo)

    def __hash__(self):
        return hash((self.hi, self.lo))


def split(key: RngKey, n: int) -> list[RngKey]:
    """Derive ``n`` pairwise-distinct child keys from ``key``.

    The cipher is a bijection for a fixed key, so distinct counters map
    to distinct outputs; children never collide with each other.
    """
    if n < 1:
        raise ValueError(f"split needs n >= 1, got {n}")
    h, l = _threefry2x64(key.hi, key.lo, range(n), 1)
    return [RngKey(a, b) for a, b in zip(h, l)]


def fold_in(key: RngKey, data: int) -> RngKey:
    """Mix an integer (e.g. an epoch number) into a key."""
    if not 0 <= data <= _MASK:
        raise ValueError(f"fold_in data must be a 64-bit unsigned word, got {data}")
    (h,), (l,) = _threefry2x64(key.hi, key.lo, range(data, data + 1), 2)
    return RngKey(h, l)


def _random_bits(k0, k1, n: int) -> np.ndarray:
    """n words of 64 random bits from the counter stream of key (k0, k1):
    ``(n,)`` words for one key, ``(lanes, n)`` for a lane of keys."""
    h, l = _threefry2x64(k0, k1, range((n + 1) // 2), 0)
    return np.concatenate([np.asarray(h, np.uint64), np.asarray(l, np.uint64)],
                          axis=-1)[..., :n]


def _unit(bits: np.ndarray) -> np.ndarray:
    """The 53 high bits of each word as a double in [0, 1)."""
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform(key: RngKey, shape) -> np.ndarray:
    """Float64 uniform samples in [0, 1) with the given shape."""
    return _unit(_random_bits(key.hi, key.lo, math.prod(shape))).reshape(shape)


def _random_bits32(key: RngKey, n: int) -> np.ndarray:
    """n words of 32 random bits: the ``_random_bits`` of ``ceil(n/4)``
    blocks, each 64-bit word split into its low and then its high half
    (a little-endian view, whatever the machine's byte order)."""
    words = _random_bits(key.hi, key.lo, 2 * -(-n // 4)).astype("<u8", copy=False)
    return words.view("<u4")[:n]


def bernoulli(key: RngKey, p: float, shape) -> np.ndarray:
    """Booleans of the given shape, each True with probability ``p``: an
    element is True iff its 32-bit word is below ``ceil(p * 2**32)``, so
    any ``p`` above ``1 - 2**-32`` gives all."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bernoulli needs 0 <= p <= 1, got {p}")
    words = _random_bits32(key, math.prod(shape))
    return (words < math.ceil(p * 2 ** 32)).reshape(shape)


def normal(key: RngKey, shape) -> np.ndarray:
    """Float64 standard normal samples via Box-Muller."""
    n = math.prod(shape)
    u = _unit(_random_bits(key.hi, key.lo, 2 * n))
    r = np.sqrt(-2.0 * np.log1p(-u[:n]))  # log1p avoids log(0)
    return (r * np.cos(2.0 * np.pi * u[n:])).reshape(shape)


def randint(key: RngKey, shape, low: int, high: int) -> np.ndarray:
    """Integers uniform over [low, high)."""
    if high <= low:
        raise ValueError("randint needs high > low")
    u = uniform(key, shape)
    return (low + np.floor(u * (high - low))).astype(np.int64)


def permutation(key: RngKey, n: int) -> np.ndarray:
    """A deterministic permutation of range(n) (argsort of a key stream)."""
    return np.argsort(uniform(key, (n,)), kind="stable")
