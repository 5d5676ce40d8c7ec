"""Deterministic splittable random streams on a counter-based generator.

Every stochastic component of the library draws from a stream addressed by a
:class:`StreamKey`. Keys mix (master seed, variant, trial, substream role)
into a 128-bit Philox key, so distinct keys give independent streams and the
same key always replays the same stream, with no coordination between
parallel consumers.

:meth:`StreamKey.words` and :func:`mix64` are the scalar reference;
:func:`stream_words` computes the same words for whole arrays of keys in one
vectorised pass, so a block of trials keys all its streams at once; a
key may carry its words from that pass, and is then not hashed again.
Philox is counter-based (Salmon et al., SC 2011), so :func:`skip` jumps
a stream past unread words in O(1), to where drawing them would leave it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = [
    "Substream", "StreamKey", "NOISE_ROLES", "derive", "rekey", "skip", "fnv1a64", "mix64",
    "mix64_array", "stream_words", "raw_below", "uniform_open",
]

_MASK64 = (1 << 64) - 1
_WORD1_TAG = 0xD1B54A32D192ED03


class Substream(IntEnum):
    """Role of a stream within one trial."""

    OBS = 1
    NOISE_Y = 2
    NOISE_Z = 3
    SUBSAMPLE = 4
    PILOT = 5


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit avalanche mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`mix64` elementwise over a uint64 array; numpy's uint64
    arithmetic wraps modulo 2^64, as the scalar version's masks do."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _u64(field) -> np.ndarray:
    # an int of any size is taken modulo 2^64, as StreamKey.words does
    return np.array(field & _MASK64 if isinstance(field, int) else field,
                    dtype=np.uint64, ndmin=1)


def stream_words(master_seed, variant_id=0, trial=0, substream=Substream.OBS) -> np.ndarray:
    """:meth:`StreamKey.words` for many keys in one vectorised pass.

    Each field is an int or an array of them (a uint64 array, or a
    sequence of ints below 2^64); the fields broadcast against each other.
    The result has their broadcast shape, at least 1-d, plus a last axis
    holding the two words.
    """
    h = mix64_array(_u64(master_seed))
    for field in (variant_id, trial, substream):
        h = mix64_array(h ^ mix64_array(_u64(field)))
    return np.stack((h, mix64_array(h ^ np.uint64(_WORD1_TAG))), axis=-1)


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream. A key may carry its words, as
    :func:`stream_words` computed them (`known_words`), for :meth:`words`
    to return; it compares, hashes and prints as the key without them."""

    master_seed: int
    variant_id: int = 0
    trial: int = 0
    substream: Substream = Substream.OBS
    known_words: np.ndarray | tuple[int, int] | None = field(
        default=None, compare=False, repr=False)

    def words(self) -> tuple[int, int] | np.ndarray:
        """Collision-resistant 128-bit key derived from the fields, or the
        `known_words` the key carries."""
        if self.known_words is not None:
            return self.known_words
        h = mix64(self.master_seed & _MASK64)
        for part in (self.variant_id & _MASK64, self.trial & _MASK64, int(self.substream)):
            h = mix64(h ^ mix64(part))
        return h, mix64(h ^ _WORD1_TAG)


# the roles of a trial's noise streams, in the order its keys list them
NOISE_ROLES = (Substream.NOISE_Y, Substream.NOISE_Z, Substream.SUBSAMPLE)


class _KeySeed(np.random.bit_generator.ISeedSequence):
    """A key's two words as the seed Philox keys itself from: the state of
    ``Philox(key=words)``, without the SeedSequence of OS entropy that
    Philox would build first, only for the key to override it."""

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.asarray(self._words, dtype=np.uint64)  # Philox asks for (2, np.uint64)


def derive(key: StreamKey) -> np.random.Generator:
    """Generator for `key`; same key yields the identical stream forever.

    Philox has an integer-only, platform-independent state transition, so
    derived streams are reproducible across architectures.
    """
    return np.random.Generator(np.random.Philox(seed=_KeySeed(key.words())))


# the state setter reads the words one by one; Python ints read faster
# than the elements of a numpy array
_ZERO4 = (0, 0, 0, 0)


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """Reset `rng`, a generator made by :func:`derive`, to the start of
    `key`'s stream, so that it draws exactly what ``derive(key)`` would.

    `key` is a :class:`StreamKey` or its two words, as :meth:`StreamKey.words`
    or a row of :func:`stream_words` gives them (as a list of ints, from
    ``tolist()``, they set fastest). Philox is counter-based: a stream's
    start is its key with the block counter and the output buffers at zero,
    so one generator can serve many streams in turn without being rebuilt.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key.words() if isinstance(key, StreamKey) else key},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def skip(rng: np.random.Generator, words: int, drawn: int) -> None:
    """Advance `rng`, made by :func:`derive`, past `words` 64-bit words to
    the state drawing them would leave. `drawn` counts the words drawn since
    its key, so its buffer holds ``-drawn % 4`` more: those are read out,
    whole 4-word blocks are jumped by the counter, and the rest are read."""
    bitgen = rng.bit_generator
    head = min(-drawn % 4, words)
    blocks, tail = divmod(words - head, 4)
    if head:
        bitgen.random_raw(head)
    if blocks:
        bitgen.advance(blocks)
    if tail:
        bitgen.random_raw(tail)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of a UTF-8 string; it turns a variant id into the
    integer that keys the variant's streams."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


@functools.cache
def raw_below(p: float) -> np.uint64:
    """The words w below this uint64 give ``random() < p``, p in (0, 1):
    random() is (w >> 11) * 2^-53, and an integer k has k * 2^-53 < p
    exactly when k < ceil(p * 2^53). A Python int would compare slower:
    numpy converts it at each call."""
    return np.uint64(math.ceil(p * 2.0**53) << 11)


_BELOW_ONE = 1.0 - 2.0**-53


def uniform_open(rng: np.random.Generator, size=None):
    """Uniform draws on the open interval (0, 1) at 2^-53 resolution.

    A draw is (k + 1/2) * 2^-53 for the 53-bit integer k that
    ``rng.random`` scales, rounded to a double. Below 1/2 that is the
    midpoint of k's dyadic cell; above it the tie rounds to even, so the
    value is a cell edge. The largest k would round to 1.0 and is clamped
    to 1 - 2^-53, so inverse-CDF transforms never see an endpoint and stay
    finite. The values and the generator state afterwards equal those of
    ``(rng.integers(0, 2**53) + 0.5) * 2**-53``, save for that clamp:
    numpy draws both from the top 53 bits of one 64-bit word.
    """
    u = rng.random(size)
    if size is None:
        return min(u + 2.0**-54, _BELOW_ONE)
    u += 2.0**-54
    return np.minimum(u, _BELOW_ONE, out=u)
