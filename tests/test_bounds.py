"""Sample-complexity bounds: definitional oracles and frozen values."""

import math

import numpy as np
import pytest

from dpsprt.bounds import (
    BoundOverflowError,
    BoundReport,
    build_report,
    critical_n,
    gaussian_closed_upper,
    laplace_closed_upper,
    lemma19,
    lower_bound,
    upper_bound_expected_tau,
)
from dpsprt.dp_sprt import Classical, TestConfig, run_test
from dpsprt.exp_family import HypothesisPair, kl_bernoulli
from dpsprt.harness import BitStream
from dpsprt.noise import CorrectionParams, NoiseFamily, correction, riemann_zeta
from dpsprt.rngcore import StreamKey, derive

HYP = HypothesisPair.of(0.3, 0.7)
GAMMA_NEAR_ONE = 1.0 - 1e-12

# mpmath, 40 digits
LOWER_H0_EPS1 = 7.81895955702869548
LOWER_H0_EPS01 = 66.2498770312449104
GEOM_TERM = 224.848391514313377  # 1/(1 - exp(-0.4^4 / (2 dtheta^2)))
LEMMA19_11 = 2.09861228866810969


def _satisfies(hyp, truth, delta, gamma, params, family, n):
    kl = hyp.kl01 if truth == "h0" else hyp.kl10
    lhs = math.log(1.0 / (delta * gamma)) / (n * hyp.dtheta)
    if family is not NoiseFamily.ZERO:
        lhs += 2.0 * correction(params, family, n, (1.0 - gamma) * delta)
    return lhs <= 0.5 * kl / hyp.dtheta


class TestCriticalN:
    def test_zero_correction_hand_value(self):
        n = critical_n(HYP, "h0", 0.05, GAMMA_NEAR_ONE, CorrectionParams(), NoiseFamily.ZERO)
        assert n == 18
        assert n == math.ceil(2 * math.log(1 / 0.05) / HYP.kl01)

    def test_laplace_limit_matches_zero_correction(self):
        params = CorrectionParams(epsilon=1e12)
        n_lap = critical_n(HYP, "h0", 0.05, GAMMA_NEAR_ONE, params, NoiseFamily.LAPLACE)
        n_zero = critical_n(HYP, "h0", 0.05, GAMMA_NEAR_ONE, CorrectionParams(), NoiseFamily.ZERO)
        assert n_lap == n_zero

    @pytest.mark.parametrize("family,params", [
        (NoiseFamily.LAPLACE, CorrectionParams(epsilon=1.0)),
        (NoiseFamily.LAPLACE, CorrectionParams(epsilon=0.1)),
        (NoiseFamily.GAUSSIAN, CorrectionParams(sigma_sum_sq=100.0)),
        (NoiseFamily.ZERO, CorrectionParams()),
    ])
    @pytest.mark.parametrize("truth", ["h0", "h1"])
    def test_definitional_oracle(self, family, params, truth):
        """The returned n satisfies the inequality and n-1 violates it."""
        for delta, gamma in ((0.05, 0.5), (0.01, 0.2), (0.3, 0.9)):
            n = critical_n(HYP, truth, delta, gamma, params, family)
            assert _satisfies(HYP, truth, delta, gamma, params, family, n)
            if n > 1:
                assert not _satisfies(HYP, truth, delta, gamma, params, family, n - 1)

    def test_overflow_guard(self):
        with pytest.raises(BoundOverflowError):
            critical_n(HYP, "h0", 0.05, 0.5, CorrectionParams(epsilon=1e-9), NoiseFamily.LAPLACE)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            critical_n(HYP, "h0", 0.0, 0.5, CorrectionParams(), NoiseFamily.ZERO)
        with pytest.raises(ValueError):
            critical_n(HYP, "sideways", 0.05, 0.5, CorrectionParams(), NoiseFamily.ZERO)


class TestUpperBound:
    def test_classical_style_value(self):
        got = upper_bound_expected_tau(
            HYP, "h0", 0.05, 0.05, GAMMA_NEAR_ONE, CorrectionParams(), NoiseFamily.ZERO
        )
        assert got == pytest.approx(1.0 + 18 + GEOM_TERM, rel=1e-9)
        assert got == pytest.approx(243.85, abs=0.2)

    def test_geometric_term_monotone_in_tv(self):
        wide = HypothesisPair.of(0.05, 0.95)
        g_narrow = 1 / (1 - math.exp(-HYP.tv**4 / (2 * HYP.dtheta**2)))
        g_wide = 1 / (1 - math.exp(-wide.tv**4 / (2 * wide.dtheta**2)))
        assert g_wide < g_narrow

    def test_dominates_classical_monte_carlo(self):
        bound = upper_bound_expected_tau(
            HYP, "h0", 0.05, 0.05, GAMMA_NEAR_ONE, CorrectionParams(), NoiseFamily.ZERO
        )
        cfg = TestConfig(HYP, 0.05, 0.05, Classical())
        taus = []
        for t in range(300):
            obs = BitStream(0.3, derive(StreamKey(1280, 0, t)))
            taus.append(run_test(cfg, obs).tau)
        assert np.mean(taus) <= bound


class TestLemma19:
    def test_frozen_value(self):
        assert lemma19(1.0, 1.0) == pytest.approx(LEMMA19_11, rel=1e-12)

    def test_b_one_large_c_asymptote(self):
        c = 1e6
        assert lemma19(1.0, c) == pytest.approx(c + math.log(2 * c), rel=1e-4)

    def test_dominates_fixed_point_by_scan(self):
        ks = np.arange(1, 10**6 + 1, dtype=np.float64)
        logk = np.log(ks)
        for b in (1.0, 2.0, 5.0, 10.0):
            for c in (1.0, 2.0, 5.0, 10.0):
                holds = ks <= b * logk + c
                largest = ks[holds][-1]
                assert largest <= lemma19(b, c)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            lemma19(0.5, 1.0)


class TestLaplaceClosedUpper:
    def _inline(self, hyp, delta, gamma, eps, s):
        kl, dth = hyp.kl01, hyp.dtheta
        z = riemann_zeta(s)
        t1 = 2 * math.log(1 / (gamma * delta)) / kl
        t2 = 24 * dth * math.log(z / (2 * (1 - gamma) * delta)) / (eps * kl)
        bb = 24 * s * dth / (kl * eps)
        t3 = bb * math.log(bb * bb + 2 * t1 + 2 * t2)
        tail = 1 + (1 - gamma) * delta + 1 / (1 - math.exp(-hyp.tv**4 / (2 * dth**2)))
        return t1 + t2 + t3 + tail

    def test_matches_independent_reevaluation(self):
        got = laplace_closed_upper(HYP, 0.05, 0.5, 1.0, 2.0)
        assert got == pytest.approx(self._inline(HYP, 0.05, 0.5, 1.0, 2.0), rel=1e-9)

    def test_epsilon_limit_drops_privacy_terms(self):
        gamma, delta = 0.5, 0.05
        tail = 1 + (1 - gamma) * delta + GEOM_TERM
        want = 2 * math.log(1 / (gamma * delta)) / HYP.kl01 + tail
        assert laplace_closed_upper(HYP, delta, gamma, 1e12) == pytest.approx(want, rel=1e-6)

    def test_small_beta_slope_within_advertised_constant(self):
        beta, eps = 1e-12, 1.0
        ratio = laplace_closed_upper(HYP, beta, 0.5, eps) / math.log(1 / beta)
        cap = 48 * max(1 / HYP.kl01, HYP.dtheta / (HYP.kl01 * eps))
        assert ratio <= cap * 1.1


class TestGaussianClosedUpper:
    def _inline(self, hyp, delta, gamma, sy, sz, s):
        kl, dth = hyp.kl01, hyp.dtheta
        c = kl / dth
        ssum = sy**2 + sz**2
        z = riemann_zeta(s)
        big_l = math.log(z / (2 * (1 - gamma) * delta))
        b1 = 4 * math.log(1 / (gamma * delta)) / kl
        inner = (64 * s) ** 2 * ssum**2 / c**4 + 256 * ssum * big_l / c**2
        b2 = 8 * math.sqrt(ssum) / c * math.sqrt(s * math.log(inner) + 2 * big_l)
        tail = 1 + (1 - gamma) * delta + 1 / (1 - math.exp(-hyp.tv**4 / (2 * dth**2)))
        return max(b1, b2) + tail

    def test_matches_independent_reevaluation(self):
        c = math.log(1.25 / 1e-5)
        sy, sz = math.sqrt(32 * c), math.sqrt(8 * c)
        got = gaussian_closed_upper(HYP, 0.05, 0.5, sy, sz, 2.0)
        assert got == pytest.approx(self._inline(HYP, 0.05, 0.5, sy, sz, 2.0), rel=1e-9)

    def test_vanishing_noise_reduces_to_first_branch(self):
        gamma, delta = 0.5, 0.05
        tail = 1 + (1 - gamma) * delta + GEOM_TERM
        want = 4 * math.log(1 / (gamma * delta)) / HYP.kl01 + tail
        got = gaussian_closed_upper(HYP, delta, gamma, 1e-9, 1e-9)
        assert got == pytest.approx(want, rel=1e-6)

    def test_monotone_in_noise_level(self):
        vals = [gaussian_closed_upper(HYP, 0.05, 0.5, s, s / 2) for s in (1.0, 5.0, 25.0, 125.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestLowerBound:
    def test_frozen_values(self):
        lo0, lo1 = lower_bound(HYP, 0.05, 0.05, 1.0)
        assert lo0 == pytest.approx(LOWER_H0_EPS1, rel=1e-9)
        assert lo1 == pytest.approx(LOWER_H0_EPS1, rel=1e-9)
        lo0, _ = lower_bound(HYP, 0.05, 0.05, 0.1)
        assert lo0 == pytest.approx(LOWER_H0_EPS01, rel=1e-9)

    def test_privacy_dominated_regime_formula(self):
        lo0, _ = lower_bound(HYP, 0.05, 0.05, 0.1)
        assert lo0 == pytest.approx(kl_bernoulli(0.05, 0.95) / (0.1 * 0.4), rel=1e-12)

    def test_epsilon_infinity_is_nonprivate_bound(self):
        lo0, lo1 = lower_bound(HYP, 0.05, 0.05, None)
        assert lo0 == pytest.approx(kl_bernoulli(0.05, 0.95) / HYP.kl01, rel=1e-12)
        big = lower_bound(HYP, 0.05, 0.05, 1e9)
        assert big == (lo0, lo1)

    def test_rejects_alpha_beta_sum(self):
        with pytest.raises(ValueError):
            lower_bound(HYP, 0.6, 0.6, 1.0)


class TestNearOptimality:
    def test_close_hypotheses_small_errors_ratio(self):
        hyp = HypothesisPair.of(0.49, 0.51)
        alpha = beta = 1e-8
        eps = 0.1
        lo0, _ = lower_bound(hyp, alpha, beta, eps)
        closed = laplace_closed_upper(hyp, beta, 0.5, eps)
        assert closed / lo0 <= 96.0


class TestReport:
    def test_build_report_fields(self):
        rep = build_report(HYP, 0.05, 0.05, 0.5, 1.0)
        assert rep.lower_h0 <= rep.upper_h0
        assert rep.lower_h1 <= rep.upper_h1
        assert rep.epsilon_used == 1.0
        assert rep.s_used == 2.0

    def test_build_report_without_epsilon(self):
        rep = build_report(HYP, 0.05, 0.05, 0.5, None)
        assert rep.upper_h0 is None and rep.closed_upper_h1 is None
        assert rep.lower_h0 > 0

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(10.0, 10.0, 5.0, 20.0, None, None, 0.5, 1.0, 2.0)
