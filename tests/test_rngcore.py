"""Stream derivation: determinism, independence, and uniformity."""

import numpy as np

from dpsprt.rngcore import StreamKey, Substream, derive, fnv1a64, mix64, rekey, uniform_open

# Philox outputs are fixed by the algorithm, so these stay stable across
# platforms and library versions.
FROZEN_KEY = StreamKey(12345, 7, 42, Substream.NOISE_Y)
FROZEN_OUT = [
    17886258470707187881,
    5176623856957414773,
    12870731371282169378,
    3247087706817271187,
]
# integers(0, 2**53) of a generator reset to FROZEN_REKEY, the draws
# uniform_open turns into noise
FROZEN_REKEY = StreamKey(12345, 7, 42, Substream.NOISE_Z)
FROZEN_REKEY_OUT = [
    2409444279985132,
    5171776653199092,
    3708923099658196,
    3192576497633132,
]


def _u64(rng, n):
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


def test_same_key_same_stream():
    a = _u64(derive(StreamKey(9, 1, 2, Substream.OBS)), 1000)
    b = _u64(derive(StreamKey(9, 1, 2, Substream.OBS)), 1000)
    assert np.array_equal(a, b)


def test_substream_tag_changes_stream():
    a = _u64(derive(StreamKey(9, 1, 2, Substream.OBS)), 1000)
    b = _u64(derive(StreamKey(9, 1, 2, Substream.NOISE_Y)), 1000)
    assert not np.array_equal(a, b)


def test_trial_and_variant_change_stream():
    base = _u64(derive(StreamKey(9, 1, 2)), 256)
    assert not np.array_equal(base, _u64(derive(StreamKey(9, 1, 3)), 256))
    assert not np.array_equal(base, _u64(derive(StreamKey(9, 2, 2)), 256))
    assert not np.array_equal(base, _u64(derive(StreamKey(8, 1, 2)), 256))


def test_frozen_reference_outputs():
    assert list(map(int, _u64(derive(FROZEN_KEY), 4))) == FROZEN_OUT


def _used_generator():
    """A generator with state in every buffer: a 32-bit bounded draw leaves
    half a word cached, and random_raw stops inside a 4-word Philox block."""
    rng = derive(StreamKey(77))
    rng.random(5)
    rng.integers(0, 1000)
    assert rng.bit_generator.state["has_uint32"] == 1
    rng.bit_generator.random_raw(3)
    return rng


def test_rekey_replays_derive():
    key = StreamKey(9, 1, 2, Substream.NOISE_Y)
    for draw in (
        lambda rng: rng.random(7),
        lambda rng: rng.integers(0, 1 << 53, size=7, dtype=np.int64),
        lambda rng: rng.bit_generator.random_raw(7),
    ):
        rng = _used_generator()
        assert rekey(rng, key) is rng
        assert np.array_equal(draw(rng), draw(derive(key)))


def test_frozen_rekey_outputs():
    rng = rekey(_used_generator(), FROZEN_REKEY)
    got = rng.integers(0, 1 << 53, size=4, dtype=np.int64)
    assert list(map(int, got)) == FROZEN_REKEY_OUT


def test_uniform_mean():
    u = derive(StreamKey(1)).random(10**6)
    assert abs(u.mean() - 0.5) < 0.0016


def test_equidistribution_smoke():
    u = derive(StreamKey(2)).random(10**6)
    counts, _ = np.histogram(u, bins=16, range=(0.0, 1.0))
    expected = 10**6 / 16
    # 5 sigma of a binomial bin count
    tol = 5 * np.sqrt(expected * (1 - 1 / 16))
    assert np.all(np.abs(counts - expected) < tol)


def test_uniform_open_stays_inside_unit_interval():
    u = uniform_open(derive(StreamKey(3)), 10**5)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_fnv1a64_reference_values():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_mix64_is_deterministic_and_spreads():
    assert mix64(0) == mix64(0)
    outs = {mix64(i) for i in range(1000)}
    assert len(outs) == 1000
