"""Privacy accounting: budgets, profiles, conversions, pilot estimates."""

import math

import numpy as np
import pytest

from dpsprt.dp_sprt import Classical, Laplace, LaplaceSub, TestConfig, TestKernel, run_test
from dpsprt.exp_family import HypothesisPair
from dpsprt.privacy_accounting import (
    PureDP,
    estimate_tau_sq,
    gaussian_rdp_profile,
    laplace_budget,
    rdp_to_approx_dp,
)
from dpsprt.harness import bernoulli_stream
from dpsprt.rngcore import StreamKey, Substream, derive

HYP = HypothesisPair.of(0.3, 0.7)


class TestLaplaceBudget:
    def test_default_scales_echo_epsilon(self):
        assert laplace_budget(1.0) == PureDP(1.0)
        assert laplace_budget(0.0) == PureDP(0.0)

    def test_explicit_scales(self):
        # sensitivity/scale_z + 2*sensitivity/scale_y
        assert laplace_budget(scale_y=4.0, scale_z=4.0).epsilon == pytest.approx(0.75)
        assert laplace_budget(scale_y=4.0, scale_z=2.0).epsilon == pytest.approx(1.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            laplace_budget(-1.0)
        with pytest.raises(ValueError):
            laplace_budget(scale_y=4.0)


class TestGaussianProfile:
    def test_no_noise_cost_limit(self):
        for alpha in (1.5, 2.0, 8.0):
            assert gaussian_rdp_profile(1e12, 1e12, 0.5, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_inline_formula(self):
        sy, sz, tsq, alpha = 3.0, 2.0, 7.0, 2.5
        want = (alpha - 0.5) / (alpha - 1) * alpha / sz**2 + alpha / (2 * sy**2) + math.log(
            2 * tsq
        ) / (2 * (alpha - 1))
        assert gaussian_rdp_profile(sy, sz, tsq, alpha) == pytest.approx(want, rel=1e-14)

    def test_doubling_tau_bound_adds_half_log2(self):
        alpha = 3.0
        lo = gaussian_rdp_profile(2.0, 2.0, 5.0, alpha)
        hi = gaussian_rdp_profile(2.0, 2.0, 10.0, alpha)
        assert hi - lo == pytest.approx(math.log(2) / (2 * (alpha - 1)), rel=1e-12)

    def test_monotone_in_sigmas_and_tau_bound(self):
        sigmas = [1.0, 2.0, 4.0, 8.0]
        vals = [gaussian_rdp_profile(s, s, 4.0, 2.0) for s in sigmas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        bounds = [0.5, 1.0, 4.0, 100.0]
        vals = [gaussian_rdp_profile(2.0, 2.0, t, 2.0) for t in bounds]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_alpha_when_log_term_vanishes(self):
        # at tau_sq_bound = 1/2 the stopping-time term drops out and the
        # noise terms grow with the order; with a larger bound the
        # 1/(alpha-1) prefactor makes the profile dip first
        alphas = [2.0, 4.0, 16.0, 64.0]
        vals = [gaussian_rdp_profile(2.0, 2.0, 0.5, a) for a in alphas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert gaussian_rdp_profile(60.0, 30.0, 1e4, 16.0) < gaussian_rdp_profile(
            60.0, 30.0, 1e4, 2.0
        )

    def test_rejects_alpha_at_most_one(self):
        with pytest.raises(ValueError):
            gaussian_rdp_profile(1.0, 1.0, 1.0, 1.0)


class TestRdpConversion:
    def test_example_values(self):
        got = rdp_to_approx_dp(lambda a: 0.5, 2.0, 1.5)
        assert got.epsilon == 1.5
        assert got.delta == pytest.approx(math.exp(-1.0), rel=1e-12)
        got = rdp_to_approx_dp(lambda a: 1.0, 11.0, 2.0)
        assert got.delta == pytest.approx(math.exp(-10.0), rel=1e-12)

    def test_boundary_is_infeasible(self):
        with pytest.raises(ValueError):
            rdp_to_approx_dp(lambda a: 0.5, 2.0, 0.5)

    def test_delta_monotone_in_target_and_order(self):
        deltas = [rdp_to_approx_dp(lambda a: 0.5, 2.0, t).delta for t in (0.6, 1.0, 2.0)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        deltas = [rdp_to_approx_dp(lambda a: 0.5, o, 1.5).delta for o in (2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


class TestTauSqEstimate:
    def test_degenerate_instance_gives_one(self):
        # error targets of 0.9 put both thresholds inside [0, 1] at n = 1,
        # so every trajectory stops immediately: tau is identically 1
        cfg = TestConfig(HYP, 0.9, 0.9, Classical())
        est = estimate_tau_sq(cfg, 100, derive(StreamKey(50)))
        assert est.value == pytest.approx(1.0)
        assert est.reliable
        assert float(est) == est.value

    def test_requires_minimum_pilots(self):
        cfg = TestConfig(HYP, 0.9, 0.9, Classical())
        with pytest.raises(ValueError):
            estimate_tau_sq(cfg, 99, derive(StreamKey(50)))

    def test_unreliable_when_exhausted(self):
        cfg = TestConfig(HYP, 0.05, 0.05, Classical(), horizon=2)
        est = estimate_tau_sq(cfg, 100, derive(StreamKey(51)))
        assert not est.reliable

    def test_against_batched_brute_force(self):
        """Independent oracle: fully vectorized classical trajectories."""
        cfg = TestConfig(HYP, 0.05, 0.05, Classical())
        est = estimate_tau_sq(cfg, 1000, derive(StreamKey(52)))

        n_trials, depth = 100_000, 256
        n = np.arange(1, depth + 1, dtype=np.float64)
        lower = HYP.mu0 + (HYP.kl01 - math.log(1 / cfg.beta) / n) / HYP.dtheta
        upper = HYP.mu1 - (HYP.kl10 - math.log(1 / cfg.alpha) / n) / HYP.dtheta
        worst = 0.0
        for p in (HYP.mu0, HYP.mu1):
            rng = np.random.default_rng(1234)
            bits = rng.random((n_trials, depth)) < p
            xbar = np.cumsum(bits, axis=1) / n
            fired = (xbar <= lower) | (xbar >= upper)
            assert fired.any(axis=1).all(), "depth too small for the oracle"
            tau = np.argmax(fired, axis=1) + 1
            worst = max(worst, float(np.mean(tau.astype(np.float64) ** 2)))
        assert est.value == pytest.approx(worst, rel=0.20)

    def test_subsampled_rate_one_agrees_with_laplace(self):
        lap = TestConfig(HYP, 0.05, 0.05, Laplace(1.0))
        sub = TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, 1.0))
        e_lap = estimate_tau_sq(lap, 150, derive(StreamKey(53)))
        e_sub = estimate_tau_sq(sub, 150, derive(StreamKey(53)))
        # same seeds, same trajectories
        assert e_lap.value == pytest.approx(e_sub.value, rel=1e-12)

    @pytest.mark.parametrize("variant", [Laplace(1.0), LaplaceSub(1.0, 0.5)],
                             ids=["laplace", "laplace_sub"])
    def test_block_keys_match_per_pilot_keys(self, variant):
        """Noise keys computed for all pilots at once give the estimate that
        each pilot's keys, derived from its own seed, give."""
        cfg = TestConfig(HYP, 0.05, 0.05, variant)
        est = estimate_tau_sq(cfg, 100, derive(StreamKey(54)))
        rng, kernel, worst = derive(StreamKey(54)), TestKernel(cfg), 0.0
        for p in (HYP.mu0, HYP.mu1):
            sq_sum = sq_sumsq = 0.0
            for _ in range(100):
                token = int(rng.integers(0, 1 << 63))
                obs = bernoulli_stream(p, derive(StreamKey(token, substream=Substream.PILOT)))
                t2 = float(run_test(kernel.trial(token), obs).tau) ** 2
                sq_sum += t2
                sq_sumsq += t2 * t2
            mean = sq_sum / 100
            worst = max(worst, mean + 1.645 * math.sqrt(max(sq_sumsq / 100 - mean * mean, 0.0) / 100))
        assert est.value == worst
