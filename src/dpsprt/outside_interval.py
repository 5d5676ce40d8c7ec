"""Private first-exit detection of a query stream from a moving interval.

The mechanism draws the threshold noise Z once, then per query i draws a
fresh Y_i and halts at the first index where the noisy query leaves the
noisy interval, reporting which side. All preceding queries implicitly
reported "inside". The lower-side check strictly precedes the upper-side
check, so when noisy thresholds cross, the lower side wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .noise import NoiseSpec, sample_y, sample_z

__all__ = [
    "Side",
    "ThresholdSchedule",
    "IntervalOutcome",
    "StreamExhaustedError",
    "run",
]


class Side(Enum):
    """Which boundary was crossed at the halt index."""

    TOP0 = 0
    TOP1 = 1


@dataclass(frozen=True)
class ThresholdSchedule:
    """Lower and upper thresholds as functions of the 1-based query index.

    No ordering between lower(i) and upper(i) is enforced; the mechanism is
    well-defined even if the noisy thresholds cross.
    """

    lower: Callable[[int], float]
    upper: Callable[[int], float]

    @classmethod
    def constant(cls, lower: float, upper: float) -> "ThresholdSchedule":
        return cls(lambda i: lower, lambda i: upper)


@dataclass(frozen=True)
class IntervalOutcome:
    """Halt index (the output-sequence length), crossing side, and whether a
    finite horizon was exhausted without a crossing (side absent)."""

    halt_index: int
    side: Side | None
    exhausted: bool


class StreamExhaustedError(RuntimeError):
    """The query stream ended before a crossing and before the horizon."""


def run(
    queries: Iterable[float],
    schedule: ThresholdSchedule,
    spec: NoiseSpec,
    rng,
    horizon: int | None = None,
) -> IntervalOutcome:
    """Consume queries until the noisy value leaves the noisy interval.

    Z is drawn once before the loop; each query draws one fresh Y. With a
    finite horizon the mechanism stops after `horizon` queries and reports
    exhaustion instead of a side.
    """
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be a positive integer")
    z = sample_z(spec, rng)
    it = iter(queries)
    i = 0
    while horizon is None or i < horizon:
        i += 1
        try:
            f = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"query stream ended at index {i - 1} before a crossing"
            ) from None
        y = sample_y(spec, rng)
        noisy = f + y
        if noisy <= schedule.lower(i) - z:
            return IntervalOutcome(i, Side.TOP0, False)
        if noisy >= schedule.upper(i) + z:
            return IntervalOutcome(i, Side.TOP1, False)
    return IntervalOutcome(horizon, None, True)
