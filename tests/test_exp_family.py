"""Bernoulli exponential-family arithmetic against high-precision oracles.

Frozen constants were evaluated with 40-digit arithmetic (mpmath); spot
checks re-derive a few of them at test time.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dpsprt.exp_family import (
    HypothesisPair,
    kl_bernoulli,
    kl_exponential_form,
    log_partition,
    mean_from_natural,
    natural_param,
    tv_bernoulli,
)

GRID = np.linspace(0.01, 0.99, 99)

# mpmath, 40 digits
NAT_03 = -0.847297860387203614
LOG2 = 0.693147180559945309
LOG_10_7 = 0.356674943938732379
KL_03_07 = 0.338919144154881445
KL_005_095 = 2.64999508124979641
KL_045_055 = 0.0200670695462151161


class TestNaturalParam:
    def test_half_is_zero(self):
        assert natural_param(0.5) == 0.0

    def test_frozen_value(self):
        assert natural_param(0.3) == pytest.approx(NAT_03, rel=1e-14)

    def test_antisymmetry(self):
        assert natural_param(0.7) == pytest.approx(-NAT_03, rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_boundary(self, p):
        with pytest.raises(ValueError):
            natural_param(p)

    def test_matches_high_precision(self):
        for p in (0.013, 0.5814, 0.999):
            want = float(mp.log(mp.mpf(p) / (1 - mp.mpf(p))))
            assert natural_param(p) == pytest.approx(want, rel=1e-13)


class TestLogPartition:
    def test_at_zero(self):
        assert log_partition(0.0) == pytest.approx(LOG2, rel=1e-14)

    def test_large_theta_asymptote(self):
        assert log_partition(50.0) == pytest.approx(50.0, abs=1e-12)
        assert log_partition(800.0) == 800.0  # beyond exp overflow
        assert log_partition(-800.0) == 0.0

    def test_frozen_value(self):
        assert log_partition(natural_param(0.3)) == pytest.approx(LOG_10_7, rel=1e-14)


class TestKlBernoulli:
    def test_identity(self):
        for p in GRID:
            assert kl_bernoulli(p, p) == 0.0

    def test_frozen_values(self):
        assert kl_bernoulli(0.3, 0.7) == pytest.approx(KL_03_07, rel=1e-13)
        assert kl_bernoulli(0.05, 0.95) == pytest.approx(KL_005_095, rel=1e-13)
        # closed forms: 0.4*log(7/3) and 0.9*log(19)
        assert kl_bernoulli(0.3, 0.7) == pytest.approx(0.4 * math.log(7 / 3), rel=1e-14)
        assert kl_bernoulli(0.05, 0.95) == pytest.approx(0.9 * math.log(19), rel=1e-14)

    def test_degenerate_q_is_infinite(self):
        assert kl_bernoulli(0.3, 0.0) == math.inf
        assert kl_bernoulli(0.3, 1.0) == math.inf
        assert kl_bernoulli(0.0, 0.0) == 0.0

    def test_zero_log_zero_convention(self):
        assert math.isfinite(kl_bernoulli(0.0, 0.4))
        assert math.isfinite(kl_bernoulli(1.0, 0.4))

    def test_nonnegative_zero_iff_equal(self):
        for p in GRID[::7]:
            for q in GRID[::7]:
                v = kl_bernoulli(p, q)
                assert v >= 0.0
                assert (v == 0.0) == (p == q)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kl_bernoulli(-0.1, 0.5)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.1)


class TestExponentialForm:
    def test_zero_at_equal_theta(self):
        for theta in (-3.0, 0.0, 2.5):
            assert kl_exponential_form(theta, theta) == 0.0

    @pytest.mark.parametrize("p,q", [(0.3, 0.7), (0.45, 0.55), (0.05, 0.25)])
    def test_cross_check_named_pairs(self, p, q):
        assert kl_exponential_form(natural_param(p), natural_param(q)) == pytest.approx(
            kl_bernoulli(p, q), abs=1e-12
        )

    def test_agrees_on_full_grid(self):
        worst = 0.0
        for p in GRID:
            for q in GRID:
                diff = abs(
                    kl_exponential_form(natural_param(p), natural_param(q))
                    - kl_bernoulli(p, q)
                )
                worst = max(worst, diff)
        assert worst < 1e-10

    def test_frozen_cross_value(self):
        got = kl_exponential_form(natural_param(0.45), natural_param(0.55))
        assert got == pytest.approx(KL_045_055, rel=1e-12)

    def test_stable_at_extreme_theta(self):
        # mean(800) = 1, b(800) = 800, b(-800) = 0 in float64
        assert kl_exponential_form(800.0, -800.0) == pytest.approx(800.0)
        assert math.isfinite(kl_exponential_form(-800.0, 800.0))


def test_pinsker_on_grid():
    for p in GRID:
        for q in GRID:
            assert kl_bernoulli(p, q) >= 2.0 * (p - q) ** 2 - 1e-15


def test_natural_param_roundtrip_on_grid():
    for p in GRID:
        assert mean_from_natural(natural_param(p)) == pytest.approx(p, rel=1e-12)
    for theta in np.linspace(-6, 6, 41):
        assert natural_param(mean_from_natural(theta)) == pytest.approx(theta, rel=1e-12, abs=1e-12)


class TestTv:
    def test_values(self):
        assert tv_bernoulli(0.3, 0.7) == pytest.approx(0.4)
        assert tv_bernoulli(0.05, 0.25) == pytest.approx(0.2)
        assert tv_bernoulli(0.6, 0.6) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tv_bernoulli(-0.1, 0.5)


class TestDomainTypes:
    def test_pair_rejects_boundary(self):
        with pytest.raises(ValueError, match="open interval"):
            HypothesisPair.of(0.3, 1.0)
        with pytest.raises(ValueError, match="open interval"):
            HypothesisPair.of(0.0, 0.7)
        with pytest.raises(ValueError, match="open interval"):
            HypothesisPair.of(1.0, 0.3)  # the boundary is checked before the order

    def test_pair_invariants(self):
        hyp = HypothesisPair.of(0.3, 0.7)
        assert hyp.theta0 == pytest.approx(NAT_03, rel=1e-14)
        assert hyp.theta1 == pytest.approx(-NAT_03, rel=1e-14)
        assert hyp.tv == pytest.approx(hyp.mu1 - hyp.mu0)
        assert hyp.kl01 > 0 and hyp.kl10 > 0
        assert hyp.kl01 == pytest.approx(KL_03_07, rel=1e-13)
        assert hyp.dtheta == pytest.approx(2 * abs(NAT_03), rel=1e-13)

    def test_pair_rejects_unordered(self):
        with pytest.raises(ValueError, match="ordered"):
            HypothesisPair.of(0.7, 0.3)
        with pytest.raises(ValueError, match="ordered"):
            HypothesisPair.of(0.5, 0.5)
