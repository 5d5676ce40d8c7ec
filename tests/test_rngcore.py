"""Stream derivation: determinism, independence, and uniformity."""

import random

import numpy as np

import pytest

from dpsprt.rngcore import (
    NOISE_ROLES,
    StreamKey,
    Substream,
    derive,
    fnv1a64,
    mix64,
    mix64_array,
    raw_below,
    rekey,
    skip,
    stream_words,
    uniform_open,
)

# Philox outputs are fixed by the algorithm, so these stay stable across
# platforms and library versions.
FROZEN_KEY = StreamKey(12345, 7, 42, Substream.NOISE_Y)
FROZEN_OUT = [
    17886258470707187881,
    5176623856957414773,
    12870731371282169378,
    3247087706817271187,
]
# integers(0, 2**53) of a generator reset to FROZEN_REKEY: the 53-bit
# integers behind the uniforms that uniform_open turns into noise
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


def test_rekey_takes_precomputed_words():
    key = StreamKey(9, 1, 2, Substream.NOISE_Y)
    for words in (key.words(), stream_words(9, 1, 2, Substream.NOISE_Y)[0]):
        rng = rekey(_used_generator(), words)
        assert np.array_equal(rng.random(7), derive(key).random(7))


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


def _state(rng):
    st = rng.bit_generator.state
    return (tuple(st["state"]["counter"]), tuple(st["state"]["key"]), tuple(st["buffer"]),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


@pytest.mark.parametrize("size", [None, 1, 3, 4097])
@pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "partial-block"])
def test_uniform_open_equals_the_integer_formula(size, fresh):
    """uniform_open draws the same values, and leaves the generator in the
    same state, as the formula it replaced: numpy's integers(0, 2**53) and
    random() both take the top 53 bits of one 64-bit word."""
    for seed in range(20):
        rngs = [derive(StreamKey(seed)) for _ in range(2)]
        if not fresh:  # half a word cached, and part of a Philox block used
            for rng in rngs:
                rng.integers(0, 1000)
                rng.bit_generator.random_raw(1 + seed % 3)
        for _ in range(3):
            got = uniform_open(rngs[0], size)
            k = rngs[1].integers(0, 1 << 53, size=size, dtype=np.int64)
            assert np.array_equal(got, (k + 0.5) * 2.0**-53)
            assert _state(rngs[0]) == _state(rngs[1])


def _position(rng):
    """The counter and the buffer position: where the next word comes from."""
    st = rng.bit_generator.state
    return tuple(st["state"]["counter"]), st["buffer_pos"]


@pytest.mark.parametrize("words", list(range(21)) + [10**6 + 3])
def test_skip_equals_drawing_the_words(words):
    """After `drawn` words, at every position in a 4-word Philox block,
    skipping `words` more leaves the generator where drawing them does: the
    same counter, buffer position and next draws."""
    for drawn in range(9):
        skipped, drawing = derive(StreamKey(drawn, 3)), derive(StreamKey(drawn, 3))
        for rng in (skipped, drawing):
            rng.bit_generator.random_raw(drawn)
        skip(skipped, words, drawn)
        drawing.bit_generator.random_raw(words)
        assert _position(skipped) == _position(drawing)
        assert np.array_equal(skipped.bit_generator.random_raw(9),
                              drawing.bit_generator.random_raw(9))
        assert skipped.random() == drawing.random()


RAW_PS = [0.3, 0.7, 0.5, 0.25, 2.0**-53, 3 * 2.0**-53, 1 - 2.0**-53, 1e-300]


@pytest.mark.parametrize("p", RAW_PS)
def test_raw_below_splits_words_as_random_does(p):
    """A 64-bit word w gives random() = (w >> 11) * 2^-53 below p exactly
    when w < raw_below(p): at the words next to the bound and at the ends."""
    below = int(raw_below(p))
    for w in (0, 1, 2047, 2048, below - 2049, below - 1, below, below + 2047, below + 2048,
              2**64 - 1):
        if 0 <= w < 2**64:
            assert ((w >> 11) * 2.0**-53 < p) == (w < below), w


class _Words:
    """A key with fixed words, read as `derive` reads a StreamKey's."""

    def __init__(self, words):
        self._words = words

    def words(self):
        return self._words


EDGE_WORDS = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (1, 2**63)]


@pytest.mark.parametrize("key", [_Words(w) for w in EDGE_WORDS]
                         + [FROZEN_KEY, StreamKey(2**64 - 1, 2**64 - 1, 2**64 - 1)],
                         ids=[f"{w0:x}-{w1:x}" for w0, w1 in EDGE_WORDS] + ["frozen", "edges"])
def test_derive_equals_philox_keyed_by_the_words(key):
    """`derive` gives the generator of ``Philox(key=words)``: the same state,
    and the same 100 draws after it, also where a word is 0 or 2^64 - 1."""
    got = derive(key)
    want = np.random.Generator(np.random.Philox(key=np.array(key.words(), dtype=np.uint64)))
    assert _state(got) == _state(want)
    assert np.array_equal(got.bit_generator.random_raw(100), want.bit_generator.random_raw(100))
    assert _state(got) == _state(want)


def test_derive_gathers_no_os_entropy(monkeypatch):
    """A key fixes its whole stream, so `derive` reads no OS entropy: it
    works with the source numpy's SeedSequence draws entropy from made to
    raise."""

    def no_entropy(n):
        raise AssertionError("OS entropy was read")

    monkeypatch.setattr(random, "_urandom", no_entropy)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.SeedSequence()  # the patch does reach numpy's entropy
    assert list(map(int, _u64(derive(FROZEN_KEY), 4))) == FROZEN_OUT


# edge values of each 64-bit field, and master seeds at and past 2**64
EDGES = [0, 1, 2**63, 2**64 - 1]
MASTERS = EDGES + [2**64, 2**64 + 7, 3 * 2**64 + 2**63]


def test_mix64_array_matches_scalar():
    x = np.array(EDGES + [12345, 0x9E3779B97F4A7C15], dtype=np.uint64)
    assert mix64_array(x).tolist() == [mix64(int(v)) for v in x]


@pytest.mark.parametrize("master", MASTERS)
def test_stream_words_match_scalar_words(master):
    for variant in EDGES:
        for trial in EDGES:
            for role in Substream:
                want = StreamKey(master, variant, trial, role).words()
                assert tuple(stream_words(master, variant, trial, role)[0].tolist()) == want


def test_stream_words_broadcast_over_a_block():
    """One pass over seeds x roles gives each key's words, as a trial's
    noise streams use them."""
    seeds = np.array(EDGES + [2**64 - 2, 987654321], dtype=np.uint64)
    got = stream_words(seeds[:, None], substream=NOISE_ROLES)
    assert got.shape == (seeds.size, len(NOISE_ROLES), 2)
    for i, seed in enumerate(seeds.tolist()):
        for j, role in enumerate(NOISE_ROLES):
            assert tuple(got[i, j].tolist()) == StreamKey(seed, substream=role).words()


def test_fnv1a64_reference_values():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_mix64_is_deterministic_and_spreads():
    assert mix64(0) == mix64(0)
    outs = {mix64(i) for i in range(1000)}
    assert len(outs) == 1000


@pytest.mark.parametrize("master", [7, 2**63, 2**64 - 1, 3 * 2**64 + 2**63])
@pytest.mark.parametrize("variant", [fnv1a64("laplace@eps=5"), 2**63, 2**64 - 1])
def test_a_key_carrying_its_block_words_acts_as_the_bare_key(master, variant):
    """A block of observation keys, starting past trial 0, hashed in one
    pass: each row equals the scalar words of its key; a key carrying its
    row compares, hashes and prints as the bare key, and `derive` on either
    draws the same words."""
    trials = np.arange(2**63 - 3, 2**63 + 3, dtype=np.uint64)
    block = stream_words(master, variant, trials, Substream.OBS)
    for trial, row in zip(trials.tolist(), block):
        bare = StreamKey(master, variant, trial, Substream.OBS)
        carrying = StreamKey(master, variant, trial, Substream.OBS, row)
        assert tuple(row.tolist()) == bare.words()
        assert carrying == bare and hash(carrying) == hash(bare)
        assert repr(carrying) == repr(bare)
        assert np.array_equal(derive(carrying).bit_generator.random_raw(9),
                              derive(bare).bit_generator.random_raw(9))

