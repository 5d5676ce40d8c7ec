"""The private two-threshold stopping mechanism."""

import itertools

import numpy as np
import pytest

from dpsprt.noise import NoiseSpec
from dpsprt.outside_interval import (
    IntervalOutcome,
    Side,
    StreamExhaustedError,
    ThresholdSchedule,
    epsilon_dp_cost,
    run,
)
from dpsprt.rngcore import StreamKey, derive

ZERO = NoiseSpec.zero()


class CountingRng:
    """Counts low-level draws; each sampler draw consumes exactly one."""

    def __init__(self, seed=0):
        self._rng = derive(StreamKey(seed))
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


def _rng(tag=0):
    return derive(StreamKey(31, 0, tag))


class TestTrivialCases:
    def test_immediate_upper_crossing(self):
        out = run([10.0], ThresholdSchedule.constant(0.0, 5.0), ZERO, _rng())
        assert out == IntervalOutcome(1, Side.TOP1, False)

    def test_immediate_lower_crossing(self):
        out = run([-1.0], ThresholdSchedule.constant(0.0, 5.0), ZERO, _rng())
        assert out == IntervalOutcome(1, Side.TOP0, False)

    def test_horizon_exhaustion(self):
        out = run(itertools.count(1), ThresholdSchedule.constant(-10.0, 10.0), ZERO, _rng(), horizon=9)
        assert out.exhausted and out.halt_index == 9 and out.side is None

    def test_boundary_comparisons_are_inclusive(self):
        sched = ThresholdSchedule.constant(0.0, 5.0)
        assert run([0.0], sched, ZERO, _rng()).side is Side.TOP0
        assert run([5.0], sched, ZERO, _rng()).side is Side.TOP1

    def test_lower_check_precedes_upper_when_thresholds_cross(self):
        # lower threshold above the upper one: both conditions hold at once
        sched = ThresholdSchedule.constant(100.0, -100.0)
        assert run([0.0], sched, ZERO, _rng()).side is Side.TOP0


def test_stream_exhaustion_is_an_error_not_an_outcome():
    with pytest.raises(StreamExhaustedError):
        run([1.0, 2.0], ThresholdSchedule.constant(-10.0, 10.0), ZERO, _rng(), horizon=9)


def test_draw_counts():
    """One Z before the loop, one Y per evaluated query."""
    spec = NoiseSpec.laplace_default(1000.0)  # tiny noise, deterministic-ish path
    sched = ThresholdSchedule.constant(-5.0, 5.0)

    counting = CountingRng()
    out = run([0.0, 0.0, 0.0, 99.0], sched, spec, counting)
    assert out.halt_index == 4
    assert counting.calls == 1 + 4

    counting = CountingRng()
    out = run([0.0] * 7, sched, spec, counting, horizon=7)
    assert out.exhausted
    assert counting.calls == 1 + 7


def _naive_first_exit(queries, lower, upper, horizon):
    """Independent scalar re-implementation for the zero-noise case."""
    for i, f in enumerate(queries[:horizon], start=1):
        if f <= lower(i):
            return i, Side.TOP0, False
        if f >= upper(i):
            return i, Side.TOP1, False
    return horizon, None, True


def test_zero_noise_equals_deterministic_first_exit():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        queries = list(rng.normal(0, 2, size=n))
        lo, hi = sorted(rng.normal(0, 2, size=2))
        sched = ThresholdSchedule.constant(lo, hi)
        want = _naive_first_exit(queries, sched.lower, sched.upper, n)
        try:
            got = run(queries, sched, ZERO, _rng(), horizon=n)
            assert (got.halt_index, got.side, got.exhausted) == want
        except StreamExhaustedError:
            pytest.fail("stream should cover the horizon")


def test_widening_never_stops_earlier_under_zero_noise():
    rng = np.random.default_rng(6)
    queries = list(rng.normal(0, 1, size=200))
    base = ThresholdSchedule(lambda i: -1.0 + 0.001 * i, lambda i: 1.0)
    wide = ThresholdSchedule(lambda i: -1.5 + 0.001 * i, lambda i: 1.4)
    t_base = run(queries, base, ZERO, _rng(), horizon=200).halt_index
    t_wide = run(queries, wide, ZERO, _rng(), horizon=200).halt_index
    assert t_wide >= t_base


def test_non_exhausted_outcome_reports_exactly_one_crossing():
    spec = NoiseSpec.laplace_default(2.0)
    for tag in range(20):
        queries = list(np.linspace(-0.5, 3.0, 50))
        out = run(queries, ThresholdSchedule.constant(-2.0, 2.0), spec, _rng(tag), horizon=50)
        if not out.exhausted:
            assert out.side in (Side.TOP0, Side.TOP1)
            assert 1 <= out.halt_index <= 50
        else:
            assert out.side is None


class TestEpsilonDpCost:
    def test_sum(self):
        assert epsilon_dp_cost(0.5, 0.5) == 1.0
        assert epsilon_dp_cost(0.0, 0.0) == 0.0

    def test_default_laplace_split(self):
        # scales 2/eps (sensitivity 1) and 4/eps (sensitivity 2) each cost eps/2
        eps = 0.1
        spec = NoiseSpec.laplace_default(eps)
        eps_z = 1.0 / spec.scale_z
        eps_y = 2.0 / spec.scale_y
        assert epsilon_dp_cost(eps_z, eps_y) == pytest.approx(eps, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            epsilon_dp_cost(-0.1, 0.5)
