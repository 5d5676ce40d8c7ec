"""Deterministic splittable random streams on a counter-based generator.

Every stochastic component of the library draws from a stream addressed by a
:class:`StreamKey`. Keys mix (master seed, variant, trial, substream role)
into a 128-bit Philox key, so distinct keys give independent streams and the
same key always replays the same stream, with no coordination between
parallel consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = ["Substream", "StreamKey", "derive", "rekey", "fnv1a64", "mix64", "uniform_open"]

_MASK64 = (1 << 64) - 1


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


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream."""

    master_seed: int
    variant_id: int = 0
    trial: int = 0
    substream: Substream = Substream.OBS

    def words(self) -> tuple[int, int]:
        """Collision-resistant 128-bit key derived from the fields."""
        h = mix64(self.master_seed & _MASK64)
        h = mix64(h ^ mix64(self.variant_id & _MASK64))
        h = mix64(h ^ mix64(self.trial & _MASK64))
        h = mix64(h ^ mix64(int(self.substream)))
        return h, mix64(h ^ 0xD1B54A32D192ED03)


def derive(key: StreamKey) -> np.random.Generator:
    """Generator for `key`; same key yields the identical stream forever.

    Philox has an integer-only, platform-independent state transition, so
    derived streams are reproducible across architectures.
    """
    w0, w1 = key.words()
    bitgen = np.random.Philox(key=np.array([w0, w1], dtype=np.uint64))
    return np.random.Generator(bitgen)


_ZERO4 = np.zeros(4, dtype=np.uint64)
_ZERO4.setflags(write=False)


def rekey(rng: np.random.Generator, key: StreamKey) -> np.random.Generator:
    """Reset `rng`, a generator made by :func:`derive`, to the start of
    `key`'s stream, so that it draws exactly what ``derive(key)`` would.

    Philox is counter-based: a stream's start is its key with the block
    counter and the output buffers at zero, so one generator can serve
    many streams in turn without being rebuilt.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": np.array(key.words(), dtype=np.uint64)},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of a UTF-8 string; it turns a variant id into the
    integer that keys the variant's streams."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def uniform_open(rng: np.random.Generator, size=None):
    """Uniform draws on the open interval (0, 1) at 2^-53 resolution.

    Returns midpoints of dyadic cells, so inverse-CDF transforms never see
    an endpoint and stay finite.
    """
    k = rng.integers(0, 1 << 53, size=size, dtype=np.int64)
    return (k + 0.5) * (2.0**-53)
