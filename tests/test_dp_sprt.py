"""Threshold calibration and trajectories of the test variants."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from dpsprt.dp_sprt import (
    BitReader,
    Classical,
    Gaussian,
    Laplace,
    LaplaceSub,
    TestConfig,
    TestKernel,
    default_gamma,
    default_subsample_rate,
    gaussian_scales,
    resolved_gamma,
    run_test,
    threshold_lower,
    threshold_upper,
)
from dpsprt.exp_family import HypothesisPair
from dpsprt.harness import BitStream
from dpsprt.noise import NoiseFamily, NoiseSpec, riemann_zeta, sample_z
from dpsprt.outside_interval import StreamExhaustedError
from dpsprt.rngcore import StreamKey, Substream, derive

HYP = HypothesisPair.of(0.3, 0.7)
ZETA2 = math.pi**2 / 6


def _classical(alpha=0.05, beta=0.05, **kw):
    return TestConfig(HYP, alpha, beta, Classical(), **kw)


def _trial(cfg, seed):
    """The trial of `seed` on a fresh kernel of `cfg`."""
    return TestKernel(cfg).trial(seed)


def _obs(p, tag):
    return BitStream(p, derive(StreamKey(404, 0, tag)))


class _Fixed:
    """A source whose `take` hands over the head of a fixed array."""

    def __init__(self, values):
        self._values = values

    def take(self, k):
        return self._values[:k]


class TestDefaults:
    def test_gamma_rule(self):
        assert default_gamma(0.1) == 0.01  # 1 - 1/eps < 0, clamped
        assert default_gamma(1.0) == 0.01
        assert default_gamma(5.0) == 0.5
        assert default_gamma(1e9) == 0.5

    def test_subsample_rate_rule(self):
        assert default_subsample_rate(0.1) == pytest.approx(0.1)
        assert default_subsample_rate(10.0) == 1.0
        assert default_subsample_rate(40.0) == 1.0

    def test_gaussian_scales(self):
        sy, sz = gaussian_scales(1.0, 1e-5)
        c = math.log(1.25e5)
        assert sy == pytest.approx(math.sqrt(32 * c))
        assert sz == pytest.approx(math.sqrt(8 * c))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TestConfig(HYP, 0.0, 0.05, Classical())
        with pytest.raises(ValueError):
            TestConfig(HYP, 0.05, 0.05, Classical(), gamma=1.0)
        with pytest.raises(ValueError):
            TestConfig(HYP, 0.05, 0.05, Classical(), horizon=0)
        with pytest.raises(ValueError):
            LaplaceSub(1.0, 0.0)
        # the correction's s and kappa are checked for every variant
        for variant, gamma in [(Classical(), None), (Laplace(1.0), None),
                               (Gaussian(2.0, 1.0), 0.5), (LaplaceSub(1.0, 0.5), None)]:
            for bad in [{"s": 1.0}, {"s": 0.5}, {"kappa": 0.0}, {"kappa": 1.5}]:
                with pytest.raises(ValueError, match="zeta exponent|kappa"):
                    TestConfig(HYP, 0.05, 0.05, variant, gamma=gamma, **bad)

    def test_gaussian_requires_explicit_gamma(self):
        """A Gaussian config without gamma fails at construction, not at its
        first threshold or run."""
        with pytest.raises(ValueError, match="explicit gamma"):
            TestConfig(HYP, 0.05, 0.05, Gaussian(2.0, 1.0))
        cfg = TestConfig(HYP, 0.05, 0.05, Gaussian(2.0, 1.0), gamma=0.5)
        assert math.isfinite(threshold_lower(cfg, 1))

    @pytest.mark.parametrize("alpha, beta, gamma, s", [
        (0.05, 0.6, 0.01, 10.0), (0.01, 0.95, 0.01, 2.0), (0.6, 0.05, 0.01, 10.0)])
    def test_gaussian_correction_domain(self, alpha, beta, gamma, s):
        """A Gaussian test whose correction is undefined at n = 1, where
        2 * (1 - gamma) * max(alpha, beta) >= zeta(s), fails at construction;
        a gamma that leaves 2 * delta below zeta(s) gives finite thresholds."""
        with pytest.raises(ValueError, match="zeta"):
            TestConfig(HYP, alpha, beta, Gaussian(2.0, 1.0), gamma=gamma, s=s)
        delta = max(alpha, beta) * (1 - 0.5)
        assert 2 * delta < riemann_zeta(s)
        cfg = TestConfig(HYP, alpha, beta, Gaussian(2.0, 1.0), gamma=0.5, s=s)
        assert math.isfinite(threshold_lower(cfg, 1)) and math.isfinite(threshold_upper(cfg, 1))
        # the Laplace correction, at factor 1, is defined there
        lap = TestConfig(HYP, alpha, beta, Laplace(1.0), gamma=gamma, s=s)
        assert math.isfinite(threshold_upper(lap, 1))

    def test_gaussian_correction_overflow_fails_at_construction(self):
        """2 * sigma_sum_sq * log_arg grows with n: at eps 1.2e-152 the
        correction is finite at n = 1 but overflows by the default horizon
        of 10^6 steps, so the test fails at construction; at horizon 1 it
        is finite."""
        gauss = Gaussian(*gaussian_scales(1.2e-152))
        with pytest.raises(ValueError, match="overflows by the horizon 1000000"):
            TestConfig(HYP, 0.05, 0.05, gauss, gamma=0.5)
        cfg = TestConfig(HYP, 0.05, 0.05, gauss, gamma=0.5, horizon=1)
        assert 4e153 < threshold_upper(cfg, 1) < math.inf

    def test_gaussian_variance_overflow_fails_with_value_error(self):
        """At eps 1e-160 sigma_Y is about 1e161, and sigma_Y^2 overflows a
        float: the configuration is rejected with the ValueError its
        docstring promises, naming the variance, not an OverflowError."""
        gauss = Gaussian(*gaussian_scales(1e-160))
        with pytest.raises(ValueError, match="noise variance"):
            TestConfig(HYP, 0.05, 0.05, gauss, gamma=0.5)

    @pytest.mark.parametrize("variant", [Laplace(1e-308), LaplaceSub(1e-320, 0.5),
                                         Laplace(1e-306)], ids=["scale", "sub", "draw"])
    def test_laplace_overflow_fails_at_construction(self, variant):
        """An epsilon so small that the noise scale 4/eps, a noise draw or
        the correction overflows fails at construction: at 1e-306 both
        scales are finite, but a draw of up to 37 scales is not."""
        with pytest.raises(ValueError, match="overflows"):
            TestConfig(HYP, 0.05, 0.05, variant)

    @pytest.mark.parametrize("variant", [Laplace(1e-305), LaplaceSub(1e-305, 0.5)])
    def test_smallest_laplace_epsilon_runs_finite(self, variant):
        """Just above that edge a run computes without a numpy overflow
        (RuntimeWarning fails the test) and exhausts its horizon."""
        cfg = TestConfig(HYP, 0.05, 0.05, variant, horizon=300)
        for bit in (0, 1):
            assert run_test(cfg, itertools.repeat(bit)).exhausted

    def test_resolved_gamma(self):
        assert resolved_gamma(_classical()) is None
        assert resolved_gamma(TestConfig(HYP, 0.05, 0.05, Laplace(5.0))) == 0.5
        assert resolved_gamma(TestConfig(HYP, 0.05, 0.05, Laplace(5.0), gamma=0.2)) == 0.2


class TestThresholds:
    """Each expression re-derived inline, spreadsheet style."""

    def test_classical_lower(self):
        beta = 0.05
        for n in (1, 2, 10, 137):
            want = HYP.mu0 + (HYP.kl01 - math.log(1 / beta) / n) / HYP.dtheta
            assert threshold_lower(_classical(), n) == pytest.approx(want, rel=1e-14)

    def test_classical_upper(self):
        alpha = 0.05
        for n in (1, 2, 10, 137):
            want = HYP.mu1 - (HYP.kl10 - math.log(1 / alpha) / n) / HYP.dtheta
            assert threshold_upper(_classical(), n) == pytest.approx(want, rel=1e-14)

    def test_classical_symmetric_mirror(self):
        for n in (1, 3, 20, 500):
            assert threshold_upper(_classical(), n) == pytest.approx(
                1.0 - threshold_lower(_classical(), n), rel=1e-12
            )

    def test_large_n_limit_is_midpoint(self):
        # mu0 + KL01/dtheta = 0.5 exactly on the symmetric instance
        n = 10**12
        assert threshold_lower(_classical(), n) == pytest.approx(0.5, abs=1e-10)
        assert threshold_upper(_classical(), n) == pytest.approx(0.5, abs=1e-10)
        assert HYP.mu0 + HYP.kl01 / HYP.dtheta == pytest.approx(0.5, rel=1e-14)

    def test_laplace_lower_n1(self):
        cfg = TestConfig(HYP, 0.05, 0.05, Laplace(1.0), gamma=0.5)
        corr = 6 * math.log(1 * ZETA2 / 0.025) / (1 * 1.0)
        want = HYP.mu0 + (HYP.kl01 - math.log(1 / (0.5 * 0.05))) / HYP.dtheta - corr
        got = threshold_lower(cfg, 1)
        assert got == pytest.approx(want, rel=1e-12)
        assert got < -20  # interval effectively open below at n=1

    def test_gaussian_upper_inline(self):
        sy, sz = 3.0, 1.5
        cfg = TestConfig(HYP, 0.05, 0.05, Gaussian(sy, sz), gamma=0.25)
        n = 17
        corr = math.sqrt(2 * (sy**2 + sz**2) * math.log(n**2 * ZETA2 / (2 * 0.75 * 0.05))) / n
        want = HYP.mu1 - (HYP.kl10 - math.log(1 / (0.25 * 0.05)) / n) / HYP.dtheta + corr
        assert threshold_upper(cfg, n) == pytest.approx(want, rel=1e-12)

    def test_correction_widens_by_definition(self):
        gamma = 0.5
        cfg = TestConfig(HYP, 0.05, 0.05, Laplace(1.0), gamma=gamma)
        split = TestConfig(HYP, gamma * 0.05, gamma * 0.05, Classical())
        for n in (1, 4, 64):
            corr_hi = 6 * math.log(n**2 * ZETA2 / ((1 - gamma) * 0.05)) / (n * 1.0)
            diff = threshold_upper(cfg, n) - threshold_upper(split, n)
            assert diff == pytest.approx(corr_hi, rel=1e-12)

    def test_zero_noise_interval_stays_ordered(self, swap_noise):
        swap_noise(NoiseSpec.zero(), zero_correction=True)
        cfg = TestConfig(HYP, 0.05, 0.05, Laplace(1.0), gamma=0.5)
        for n in range(1, 1000):
            assert threshold_lower(cfg, n) < threshold_upper(cfg, n)

    def test_subsampled_budget_divisor(self):
        cfg = TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, 0.5), gamma=0.5)
        # included count m replaces n in the budget term only
        n, m = 20, 7
        base = threshold_lower(cfg, n, included=n)
        got = threshold_lower(cfg, n, included=m)
        want = base + (math.log(1 / 0.025) / n - math.log(1 / 0.025) / m) / HYP.dtheta
        assert got == pytest.approx(want, rel=1e-12)


class TestClassicalRuns:
    def test_all_ones_stops_at_first_upper_crossing(self):
        cfg = _classical()
        scan = next(n for n in range(1, 10**6) if 1.0 >= threshold_upper(cfg, n))
        out = run_test(cfg, itertools.repeat(1))
        assert (out.tau, out.decision) == (scan, 1)

    def test_all_zeros_symmetric(self):
        cfg = _classical()
        scan = next(n for n in range(1, 10**6) if 0.0 <= threshold_lower(cfg, n))
        out = run_test(cfg, itertools.repeat(0))
        assert (out.tau, out.decision) == (scan, 0)

    def test_determinism(self):
        trial = _trial(_classical(), 11)
        bits = list(_obs(0.3, 1).take(500))
        assert run_test(trial, iter(bits)) == run_test(trial, iter(bits))

    def test_rejects_non_bit_observation(self):
        with pytest.raises(ValueError):
            run_test(_classical(), iter([1, 0, 0.7]))

    @pytest.mark.parametrize("source", [
        lambda: iter([0, 1, 2]),
        lambda: iter([1, 0.5]),
        lambda: _Fixed(np.array([0, 2, 1], dtype=np.int64)),
    ], ids=["iterable-2", "iterable-half", "int64-take-2"])
    def test_reader_rejects_non_bits(self, source):
        """Only a bool array from `take` skips the value check."""
        with pytest.raises(ValueError, match="bits in"):
            BitReader(source()).take(3)

    def test_reader_takes_bool_arrays_as_int_bits(self):
        bits = BitReader(_Fixed(np.array([True, False, True]))).take(3)
        assert bits.dtype == np.int64 and bits.tolist() == [1, 0, 1]

    def test_stream_exhaustion_raises(self):
        with pytest.raises(StreamExhaustedError):
            run_test(_classical(), iter([1, 0, 1]))

    def test_horizon_exhaustion_outcome(self):
        # alternating bits keep the mean pinned at 1/2, inside the interval
        cfg = _classical(horizon=64)
        out = run_test(cfg, itertools.cycle([0, 1]))
        assert out.exhausted and out.tau == 64 and out.decision is None

    def test_buffered_and_plain_iterables_agree(self):
        trial = _trial(TestConfig(HYP, 0.05, 0.05, Laplace(1.0)), 13)
        stream = _obs(0.55, 40)
        bits = list(stream.take(4000))
        from_list = run_test(trial, iter(bits))
        from_stream = run_test(trial, _obs(0.55, 40))
        assert from_list == from_stream


class TestReduction:
    """Private variants with the noise and correction stripped reduce to the
    classical test at the gamma-split budgets."""

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("seed_tag", [0, 1, 2])
    def test_laplace_reduces(self, gamma, seed_tag, swap_noise):
        bits = list(_obs(0.55, seed_tag).take(4000))
        swap_noise(NoiseSpec.zero(), zero_correction=True)
        noisy = TestConfig(HYP, 0.05, 0.05, Laplace(1.0), gamma=gamma)
        split = TestConfig(HYP, gamma * 0.05, gamma * 0.05, Classical())
        a = run_test(noisy, iter(bits))
        b = run_test(split, iter(bits))
        assert (a.tau, a.decision) == (b.tau, b.decision)

    def test_gaussian_reduces(self, swap_noise):
        bits = list(_obs(0.4, 3).take(4000))
        swap_noise(NoiseSpec.zero(), zero_correction=True)
        noisy = TestConfig(HYP, 0.05, 0.05, Gaussian(5.0, 3.0), gamma=0.5)
        split = TestConfig(HYP, 0.025, 0.025, Classical())
        a = run_test(noisy, iter(bits))
        b = run_test(split, iter(bits))
        assert (a.tau, a.decision) == (b.tau, b.decision)

    def test_zero_noise_with_correction_never_stops_earlier(self, swap_noise):
        gamma = 0.5
        swap_noise(NoiseSpec.zero())
        kept = TestConfig(HYP, 0.05, 0.05, Laplace(1.0), gamma=gamma)
        split = TestConfig(HYP, 0.025, 0.025, Classical())
        for tag in range(5):
            bits = list(_obs(0.7, 10 + tag).take(4000))
            assert run_test(kept, iter(bits)).tau >= run_test(split, iter(bits)).tau


class TestSubsampled:
    def test_rate_one_matches_plain_laplace_trajectory(self):
        for seed in (1, 2, 3, 99):
            plain = _trial(TestConfig(HYP, 0.05, 0.05, Laplace(1.0)), seed)
            sub = _trial(TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, 1.0)), seed)
            a = run_test(plain, _obs(0.3, seed))
            b = run_test(sub, _obs(0.3, seed))
            assert (a.tau, a.decision, a.exhausted) == (b.tau, b.decision, b.exhausted)
            assert b.included_count == b.tau

    def test_no_halt_before_first_inclusion(self):
        trial = _trial(TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, 0.01)), 21)
        # replay the subsampling stream to find the first included index
        u = derive(StreamKey(21, substream=Substream.SUBSAMPLE)).random(10**5)
        first = int(np.argmax(u < 0.01)) + 1
        assert first > 1
        out = run_test(trial, _obs(0.3, 21))
        assert out.tau >= first
        assert out.included_count >= 1

    def test_included_count_tracks_subsample_stream(self):
        out = run_test(_trial(TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, 0.3)), 8), _obs(0.3, 8))
        u = derive(StreamKey(8, substream=Substream.SUBSAMPLE)).random(out.tau)
        assert out.included_count == int(np.sum(u < 0.3))

    def test_included_count_of_an_exhausted_run(self):
        """A horizon too short to stop reports M over the whole horizon: the
        SUBSAMPLE uniforms below r among its first `horizon` draws."""
        cfg = TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, 0.3))
        tau = run_test(_trial(cfg, 8), _obs(0.3, 8)).tau
        assert tau > 129  # the last horizon ends in the second chunk
        for horizon in (1, 5, 128, 129, tau - 1):
            out = run_test(_trial(replace(cfg, horizon=horizon), 8), _obs(0.3, 8))
            assert (out.tau, out.decision, out.exhausted) == (horizon, None, True)
            u = derive(StreamKey(8, substream=Substream.SUBSAMPLE)).random(horizon)
            assert out.included_count == int(np.sum(u < 0.3))


class TestVariantOrdering:
    def test_lower_check_wins_when_both_fire(self, swap_noise):
        # a threshold noise Z far below 0 moves the noisy lower threshold
        # above the noisy upper one, so at n = 1 even a 1 bit satisfies both
        # checks; the lower one is evaluated first
        spec = NoiseSpec(NoiseFamily.LAPLACE, 1e-9, 1e3)
        seeds = [seed for seed in range(20)
                 if sample_z(spec, derive(StreamKey(seed, substream=Substream.NOISE_Z))) < -100]
        assert seeds
        swap_noise(spec, zero_correction=True)
        for seed in seeds:
            out = run_test(_trial(TestConfig(HYP, 0.05, 0.05, Laplace(1.0)), seed), iter([1]))
            assert (out.tau, out.decision) == (1, 0)
