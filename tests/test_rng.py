import numpy as np
import pytest

from deskml import rng as R


def test_split_deterministic():
    k = R.RngKey.from_seed(7)
    assert R.split(k, 2) == R.split(k, 2)


def test_split_distinct():
    keys = R.split(R.RngKey.from_seed(0), 100)
    assert len(set(keys)) == 100


def test_split_zero_rejected():
    with pytest.raises(ValueError):
        R.split(R.RngKey.from_seed(0), 0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True, "1", None])
def test_from_seed_refuses_what_is_not_a_64_bit_int(seed):
    # masking would alias -1 to 2**64 - 1, 2**64 to 0, and 1.5 or True to 1
    with pytest.raises(ValueError, match=r"int in \[0, 2\*\*64\)"):
        R.RngKey.from_seed(seed)


def test_from_seed_takes_every_64_bit_word():
    assert R.RngKey.from_seed(0) == R.RngKey(0, 0)
    assert R.RngKey.from_seed(2 ** 64 - 1) == R.RngKey(0, 2 ** 64 - 1)


def test_same_key_same_stream():
    k = R.RngKey.from_seed(3)
    assert np.array_equal(R.uniform(k, (100,)), R.uniform(k, (100,)))


def test_uniform_mean():
    k = R.RngKey.from_seed(0)
    u = R.uniform(k, (10_000,))
    assert 0.48 <= u.mean() <= 0.52
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normal_moments():
    k = R.RngKey.from_seed(1)
    z = R.normal(k, (10_000,))
    assert abs(z.mean()) < 0.05
    assert 0.94 <= z.var() <= 1.06


def test_sibling_streams_uncorrelated():
    k1, k2 = R.split(R.RngKey.from_seed(5), 2)
    a = R.uniform(k1, (10_000,))
    b = R.uniform(k2, (10_000,))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_fold_in_changes_key():
    k = R.RngKey.from_seed(9)
    assert R.fold_in(k, 0) != R.fold_in(k, 1)
    assert R.fold_in(k, 4) == R.fold_in(k, 4)


def test_permutation_is_permutation():
    p = R.permutation(R.RngKey.from_seed(2), 50)
    assert sorted(p.tolist()) == list(range(50))


def test_randint_range():
    v = R.randint(R.RngKey.from_seed(3), (1000,), 2, 7)
    assert v.min() >= 2 and v.max() <= 6


# Known answers. The cipher vector is Random123's Threefry-2x64-20 test
# vector; the key and sample values were recorded from the numpy-only
# implementation, so both cipher paths must keep reproducing them.
MASK = 2 ** 64 - 1


def test_threefry_known_answer():
    want = ([0xC2B6E3A8C2C69865], [0x6F81ED42F350084D])
    assert R._threefry_ints(0, 0, [0], [0]) == want
    h, l = R._threefry_numpy(0, 0, np.zeros(1, np.uint64), np.zeros(1, np.uint64))
    assert (h.tolist(), l.tolist()) == want
    assert R._threefry2x64(0, 0, range(1), 0) == want


SPLIT_7 = [
    (0x572C262F856A4CB6, 0x6F95C84933D94A9D), (0x666D853C94331559, 0x314C2E03BA4FF9AA),
    (0xFBD329992B6354F6, 0xD04035DF051E9E8E), (0x11951848CFE2143F, 0xACE29DE709E96F54),
    (0x7A0A27FB072A6A0C, 0x3A4334465A14BBEB), (0xDEB3DE434DF8475C, 0x884D3F3584502A8B),
    (0xB67CBB0BD91AE2C9, 0x104CE524FB355CEF), (0xC5750CD88239A0B6, 0xE4598FBE4169E22E),
    (0x3B913A62E52E3859, 0x8D359E9E8FCB2341),
]


@pytest.mark.parametrize("n", [1, R._SCALAR_MAX, R._SCALAR_MAX + 1])
def test_split_known_answer(n):
    assert R._SCALAR_MAX + 1 <= len(SPLIT_7)
    keys = R.split(R.RngKey.from_seed(7), n)
    assert [(k.hi, k.lo) for k in keys] == SPLIT_7[:n]


def test_fold_in_known_answer():
    k = R.fold_in(R.RngKey.from_seed(7), 3)
    assert (k.hi, k.lo) == (0x08B648769A82B5A4, 0x1EDDB59E0890A62A)
    k = R.fold_in(R.RngKey(MASK, MASK), MASK)
    assert (k.hi, k.lo) == (0x727E48A44B5107C0, 0xCFA7EDFE95EB84AD)


def test_fold_in_rejects_data_outside_a_word():
    with pytest.raises(ValueError, match="64-bit"):
        R.fold_in(R.RngKey.from_seed(0), -1)
    with pytest.raises(ValueError, match="64-bit"):
        R.fold_in(R.RngKey.from_seed(0), MASK + 1)


def sha(a):
    import hashlib
    return hashlib.sha256(np.ascontiguousarray(a, "<f8").tobytes()).hexdigest()[:16]


# uniform draws (n + 1) // 2 counters and normal n: the sizes sit on
# both sides of _SCALAR_MAX = 8 counters.
@pytest.mark.parametrize("fn, shape, digest, first, last", [
    ("uniform", (1,), "12628cf785c8aad7", 0.41449980205239156, 0.41449980205239156),
    ("uniform", (16,), "2dd1f1aecf8c0bf2", 0.41449980205239156, 0.6934542970575119),
    ("uniform", (17,), "fdffab43602d7848", 0.41449980205239156, 0.6934542970575119),
    ("uniform", (3, 5), "6c40973411d1b736", 0.41449980205239156, 0.5486904337553962),
    ("normal", (1,), "93ad58f188eecc3c", -0.4698163781009684, -0.4698163781009684),
    ("normal", (8,), "88a77f8ae81adabd", -0.4698163781009684, -0.6088174867518392),
    ("normal", (9,), "a4c3b6d0136c2f26", -0.4698163781009684, -1.0666269507321662),
    ("normal", (2, 5), "33508ee4bad473fb", -0.4698163781009684, 0.8938702478618888),
])
def test_samples_known_answer(fn, shape, digest, first, last):
    assert R._SCALAR_MAX == 8
    x = getattr(R, fn)(R.RngKey.from_seed(7), shape)
    assert x.shape == shape and x.dtype == np.float64
    assert (x.flat[0], x.flat[-1]) == (first, last)
    assert sha(x) == digest


# 0-d and zero-size shapes: a () draw is element 0 of the (1,) draw, and
# a zero-size draw is an empty array of its shape and dtype.
@pytest.mark.parametrize("fn, first", [("uniform", 0.41449980205239156),
                                       ("normal", -0.4698163781009684)])
def test_0d_draw_is_element_0_of_the_one_element_draw(fn, first):
    k = R.RngKey.from_seed(7)
    x = getattr(R, fn)(k, ())
    assert x.shape == () and x.dtype == np.float64
    assert x == getattr(R, fn)(k, (1,))[0] == first


def test_0d_bernoulli_is_element_0_of_the_one_element_draw():
    k = R.RngKey.from_seed(7)
    for p in (0.1, 0.5, 0.9):
        x = R.bernoulli(k, p, ())
        assert x.shape == () and x.dtype == np.bool_
        assert x == R.bernoulli(k, p, (1,))[0]
    word = R._random_bits32(k, 1)[0]
    assert R.bernoulli(k, 0.5, ()) == (word < 2 ** 31)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5)])
@pytest.mark.parametrize("fn, dtype", [("uniform", np.float64),
                                       ("normal", np.float64),
                                       ("bernoulli", np.bool_)])
def test_zero_size_draw_is_empty(fn, dtype, shape):
    k = R.RngKey.from_seed(7)
    x = R.bernoulli(k, 0.5, shape) if fn == "bernoulli" else getattr(R, fn)(k, shape)
    assert x.shape == shape and x.dtype == dtype and x.size == 0


def test_cipher_paths_agree():
    import random
    rnd = random.Random(0)
    edge = [0, 1, 2 ** 63, MASK - 1, MASK]
    for _ in range(300):
        word = lambda: rnd.choice(edge + [rnd.getrandbits(64)] * 3)  # noqa: E731
        k0, k1 = word(), word()
        n = rnd.randint(1, 2 * R._SCALAR_MAX)
        x0 = [word() for _ in range(n)]
        x1 = [word() for _ in range(n)]
        h, l = R._threefry_numpy(k0, k1, np.array(x0, np.uint64), np.array(x1, np.uint64))
        assert R._threefry_ints(k0, k1, x0, x1) == (h.tolist(), l.tolist())


def _threefry_out_of_place(k0, k1, x0, x1):
    """Threefry-2x64-20 on uint64 arrays, each step a fresh array."""
    ks = (np.uint64(k0), np.uint64(k1), np.uint64(k0 ^ k1 ^ 0x1BD11BDAA9FC1A22))
    rots = (16, 42, 12, 31, 16, 32, 24, 21)
    x0 = x0 + ks[0]
    x1 = x1 + ks[1]
    for r in range(20):
        rot = np.uint64(rots[r % 8])
        x0 = x0 + x1
        x1 = ((x1 << rot) | (x1 >> (np.uint64(64) - rot))) ^ x0
        if (r + 1) % 4 == 0:
            d = (r + 1) // 4
            x0 = x0 + ks[d % 3]
            x1 = x1 + ks[(d + 1) % 3] + np.uint64(d)
    return x0, x1


@pytest.mark.parametrize("n", [9, 64, 1280, 4096])
@pytest.mark.parametrize("tag", [0, 1, 2])
def test_numpy_body_matches_int_body_and_out_of_place_reference(n, tag):
    import random
    rnd = random.Random(n * 3 + tag)
    for k0, k1, start in [(0, 0, 0), (MASK, MASK, MASK - n // 2),
                          (rnd.getrandbits(64), rnd.getrandbits(64), MASK - 3),
                          (rnd.getrandbits(64), rnd.getrandbits(64),
                           rnd.getrandbits(64))]:
        # counters start, start + 1, ... wrap past 2^64 - 1 to 0
        counters = [(start + i) & MASK for i in range(n)]
        c0 = np.array(counters, np.uint64)
        c1 = np.full(n, tag, np.uint64)
        ref = _threefry_out_of_place(k0, k1, c0, c1)
        h, l = R._threefry_numpy(k0, k1, c0.copy(), c1.copy())
        assert np.array_equal(h, ref[0]) and np.array_equal(l, ref[1])
        assert R._threefry_ints(k0, k1, counters, [tag] * n) == (h.tolist(), l.tolist())


def test_numpy_body_overwrites_its_counter_arrays():
    x0, x1 = np.arange(9, dtype=np.uint64), np.zeros(9, np.uint64)
    h, l = R._threefry_numpy(5, 6, x0, x1)
    assert h is x0 and l is x1


def _lane_keys(lanes, seed):
    """Random keys, the first few chosen so that an injected key word
    ``ks[(d + 1) % 3] + d`` wraps past 2^64 - 1."""
    import random
    rnd = random.Random(seed)
    near = [(MASK, MASK), (0, MASK - 2), (MASK - 4, 1),
            # ks[2] = k0 ^ k1 ^ C240 = MASK - 1
            ((MASK - 1) ^ 7 ^ 0x1BD11BDAA9FC1A22, 7)]
    keys = [R.RngKey(rnd.getrandbits(64), rnd.getrandbits(64)) for _ in range(lanes)]
    for i, (k0, k1) in enumerate(near[:lanes]):
        keys[i] = R.RngKey(k0, k1)
    return keys


# Lane counts 1, 8, 9 and 100. split encrypts n counters and random bits
# (n + 1) // 2, so n = 8, 9, 16 and 17 sit on both sides of _SCALAR_MAX.
@pytest.mark.parametrize("lanes", [1, 8, 9, 100])
@pytest.mark.parametrize("n", [1, 2, R._SCALAR_MAX, R._SCALAR_MAX + 1,
                               2 * R._SCALAR_MAX, 2 * R._SCALAR_MAX + 1, 40])
def test_lanes_match_the_per_key_draws(lanes, n):
    keys = _lane_keys(lanes, seed=lanes * 1000 + n)
    k0 = np.array([k.hi for k in keys], np.uint64)
    k1 = np.array([k.lo for k in keys], np.uint64)
    h, l = R._threefry2x64(k0, k1, range(n), 1)
    bits = R._random_bits(k0, k1, n)
    assert h.shape == l.shape == bits.shape == (lanes, n)
    assert h.dtype == l.dtype == bits.dtype == np.uint64
    for i, key in enumerate(keys):
        assert [R.RngKey(a, b) for a, b in zip(h[i].tolist(), l[i].tolist())] == R.split(key, n)
        assert np.array_equal(bits[i], R._random_bits(key.hi, key.lo, n))
        u = R._unit(bits[i])
        assert np.array_equal(u, R.uniform(key, (n,)))
        assert np.array_equal((2 + np.floor(u * 7)).astype(np.int64),
                              R.randint(key, (n,), 2, 9))


# The 32-bit draw: one word per element, the low then the high half of
# each 64-bit word, for small (Python-int) and large (array) draws alike.
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 4 * R._SCALAR_MAX,
                               4 * R._SCALAR_MAX + 1, 1001])
def test_32_bit_words_are_the_halves_of_the_64_bit_words(n):
    k = R.RngKey.from_seed(13)
    wide = R._random_bits(k.hi, k.lo, 2 * -(-n // 4)).tolist()
    want = [half for w in wide for half in (w & 0xFFFFFFFF, w >> 32)][:n]
    words = R._random_bits32(k, n)
    assert words.dtype == np.uint32
    assert words.tolist() == want


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_bernoulli_rate_within_5_sigma(p):
    n = 10 ** 6
    drawn = R.bernoulli(R.RngKey.from_seed(14), p, (1000, 1000))
    keep = 1.0 - drawn.mean()
    assert abs(keep - (1.0 - p)) < 5 * np.sqrt(p * (1 - p) / n)


def test_bernoulli_compares_each_word_with_its_threshold():
    k, p = R.RngKey.from_seed(15), 0.3
    words = R._random_bits32(k, 60)
    assert np.array_equal(R.bernoulli(k, p, (3, 4, 5)),
                          (words < np.ceil(p * 2 ** 32)).reshape(3, 4, 5))


def test_bernoulli_ends():
    k = R.RngKey.from_seed(16)
    assert not R.bernoulli(k, 0.0, (500,)).any()
    assert R.bernoulli(k, 1.0, (500,)).all()
    assert R.bernoulli(k, 1.0 - 2.0 ** -33, (500,)).all()
    assert R.bernoulli(k, 0.5, ()).shape == ()
    for p in (float("nan"), -0.1, 1.5):
        with pytest.raises(ValueError, match="0 <= p <= 1"):
            R.bernoulli(k, p, (3,))
