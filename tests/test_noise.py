"""Noise samplers, corrections, and tail behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special as sps

from dpsprt.noise import (
    CorrectionParams,
    NoiseFamily,
    NoiseSpec,
    correction,
    correction_vec,
    density_ratio_bound_check,
    riemann_zeta,
    sample_y,
    sample_z,
)
from dpsprt.rngcore import StreamKey, derive, fnv1a64, uniform_open

ZETA2 = math.pi**2 / 6

# mpmath, 40 digits
CORR_LAPLACE_N1 = 20.960595456148418  # s=2, eps=1, kappa=1, n=1, delta=0.05
CORR_GAUSS_N10 = 0.384849466193026761  # ssq=1, s=2, n=10, delta=0.05


def _rng(tag: int):
    return derive(StreamKey(777, 0, tag))


class TestZeta:
    def test_s2_matches_pi_sq_over_6(self):
        assert abs(riemann_zeta(2.0) - ZETA2) < 1e-12

    @pytest.mark.parametrize("s", [1.2, 1.5, 2.0, 3.0, 4.0])
    def test_matches_scipy(self, s):
        assert riemann_zeta(s) == pytest.approx(float(sps.zeta(s, 1)), rel=1e-12)

    def test_rejects_s_at_most_one(self):
        with pytest.raises(ValueError):
            riemann_zeta(1.0)


class TestSpecs:
    def test_laplace_default_scales(self):
        spec = NoiseSpec.laplace_default(2.0)
        assert spec.scale_y == pytest.approx(2.0)
        assert spec.scale_z == pytest.approx(1.0)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.GAUSSIAN, 0.0, 1.0)

    def test_zero_family_ignores_scales(self):
        spec = NoiseSpec.zero()
        assert sample_y(spec, _rng(0)) == 0.0
        assert sample_z(spec, _rng(0)) == 0.0
        assert np.all(sample_y(spec, _rng(0), 100) == 0.0)

    def test_correction_params_validation(self):
        with pytest.raises(ValueError):
            CorrectionParams(s=1.0)
        with pytest.raises(ValueError):
            CorrectionParams(kappa=0.0)
        with pytest.raises(ValueError):
            CorrectionParams(kappa=1.5)
        assert CorrectionParams().zeta_s == pytest.approx(ZETA2, abs=1e-10)

    def test_zeta_follows_s_through_replace(self):
        """A copy with another s carries that s's zeta, not the original's:
        a stale zeta(3) would narrow the correction below its guarantee."""
        assert replace(CorrectionParams(s=3.0, epsilon=1.0), s=2.0).zeta_s == riemann_zeta(2.0)


class TestSamplers:
    def test_laplace_moments(self):
        b = 2.0
        spec = NoiseSpec(NoiseFamily.LAPLACE, b, b)
        x = sample_y(spec, _rng(1), 10**6)
        assert abs(x.mean()) < 5 * b / 1e3
        assert np.var(x) == pytest.approx(2 * b * b, rel=0.02)

    def test_laplace_tail_quarter(self):
        b = 3.0
        spec = NoiseSpec(NoiseFamily.LAPLACE, b, b)
        x = sample_y(spec, _rng(2), 10**6)
        assert np.mean(x >= b * math.log(2)) == pytest.approx(0.25, abs=0.002)

    def test_laplace_z_tail(self):
        spec = NoiseSpec.laplace_default(1.0)  # Z scale 2
        z = sample_z(spec, _rng(3), 10**6)
        assert np.mean(z <= -2 * math.log(10)) == pytest.approx(0.05, abs=0.002)

    def test_gaussian_variance(self):
        spec = NoiseSpec.gaussian(1.7, 0.9)
        z = sample_z(spec, _rng(4), 10**6)
        assert np.var(z) == pytest.approx(0.81, rel=0.01)
        y = sample_y(spec, _rng(5), 10**6)
        assert np.var(y) == pytest.approx(1.7**2, rel=0.01)

    def test_deterministic_given_stream(self):
        spec = NoiseSpec.laplace_default(0.5)
        a = sample_y(spec, _rng(6), 50)
        b = sample_y(spec, _rng(6), 50)
        assert np.array_equal(a, b)

    def test_tail_bounds_dominate_empirical_tails(self):
        """Laplace(b): P(X >= t) = exp(-t/b)/2; N(0, b^2): the Chernoff
        bound exp(-t^2/(2 b^2))."""
        n = 10**6
        b = 2.0
        lap = sample_y(NoiseSpec(NoiseFamily.LAPLACE, b, b), _rng(7), n)
        gau = sample_y(NoiseSpec.gaussian(b, b), _rng(8), n)
        for t in (0.5, 2.0, 5.0, 9.0):
            bounds = (0.5 * math.exp(-t / b), math.exp(-t * t / (2 * b * b)))
            for sample, bound in zip((lap, gau), bounds):
                hat = np.mean(sample >= t)
                se = math.sqrt(max(hat * (1 - hat), 1e-12) / n)
                assert hat <= bound + 3 * se


class _TopRng:
    """Stub whose `random` returns the largest value numpy's can, the draw
    that rounded to a uniform of exactly 1.0."""

    def random(self, size=None):
        top = 1.0 - 2.0**-53
        return top if size is None else np.full(size, top)


@pytest.mark.parametrize("spec", [NoiseSpec.laplace_default(1.0), NoiseSpec.gaussian(1.7, 0.9)],
                         ids=["laplace", "gaussian"])
def test_top_uniform_gives_finite_noise(spec):
    # (2**53 - 1 + 0.5) * 2**-53 rounds half-to-even to 1.0; the draw is clamped
    assert ((1 << 53) - 1 + 0.5) * 2.0**-53 == 1.0
    assert uniform_open(_TopRng()) == uniform_open(_TopRng(), 3)[0] == 1.0 - 2.0**-53
    assert math.isfinite(sample_z(spec, _TopRng()))
    assert math.isfinite(sample_y(spec, _TopRng()))
    assert np.all(np.isfinite(sample_y(spec, _TopRng(), 4)))


class TestCorrection:
    def test_laplace_frozen_value(self):
        params = CorrectionParams(s=2.0, epsilon=1.0)
        assert correction(params, NoiseFamily.LAPLACE, 1, 0.05) == pytest.approx(
            CORR_LAPLACE_N1, rel=1e-12
        )

    def test_gaussian_frozen_value(self):
        params = CorrectionParams(s=2.0, sigma_sum_sq=1.0)
        assert correction(params, NoiseFamily.GAUSSIAN, 10, 0.05) == pytest.approx(
            CORR_GAUSS_N10, rel=1e-12
        )

    def test_zero_family(self):
        assert correction(CorrectionParams(), NoiseFamily.ZERO, 5, 0.1) == 0.0
        # at any delta: the classical test's, at gamma = 1, is 0
        assert correction(CorrectionParams(), NoiseFamily.ZERO, 5, 0.0) == 0.0

    def test_laplace_near_the_float_maximum(self):
        """n * epsilon overflows to inf for epsilon near the float maximum,
        and the correction takes its limit 0 there without a numpy overflow
        warning (a RuntimeWarning fails the test)."""
        n = np.arange(1.0, 11.0)
        for eps in (1e308, np.finfo(np.float64).max):
            c = correction_vec(CorrectionParams(epsilon=eps), NoiseFamily.LAPLACE, n, 0.05)
            assert np.all(c[1:] == 0.0) and 0.0 <= c[0] < 1e-300

    def test_kappa_scales_linearly(self):
        base = CorrectionParams(s=2.0, epsilon=1.0)
        half = CorrectionParams(s=2.0, epsilon=1.0, kappa=0.5)
        assert correction(half, NoiseFamily.LAPLACE, 7, 0.05) == pytest.approx(
            0.5 * correction(base, NoiseFamily.LAPLACE, 7, 0.05), rel=1e-14
        )

    def test_decreasing_in_n_from_three(self):
        n = np.arange(3, 2000, dtype=np.float64)
        for family, params in (
            (NoiseFamily.LAPLACE, CorrectionParams(epsilon=0.7)),
            (NoiseFamily.GAUSSIAN, CorrectionParams(sigma_sum_sq=5.0)),
        ):
            for delta in (0.01, 0.5, 0.99):
                c = correction_vec(params, family, n, delta)
                assert np.all(np.diff(c) < 0.0)

    def test_decreasing_in_epsilon(self):
        vals = [
            correction(CorrectionParams(epsilon=e), NoiseFamily.LAPLACE, 10, 0.05)
            for e in (0.1, 1.0, 5.0, 50.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        params = CorrectionParams(epsilon=1.0)
        with pytest.raises(ValueError):
            correction(params, NoiseFamily.LAPLACE, 0, 0.05)
        with pytest.raises(ValueError):
            correction(params, NoiseFamily.LAPLACE, 5, 1.0)
        with pytest.raises(ValueError):
            correction(CorrectionParams(), NoiseFamily.LAPLACE, 5, 0.5)

    def test_gaussian_needs_twice_delta_below_zeta(self):
        """The Gaussian log argument at n = 1 is log zeta(s) - log(2 delta)."""
        params = CorrectionParams(s=10.0, sigma_sum_sq=1.0)
        with pytest.raises(ValueError, match="zeta"):
            correction(params, NoiseFamily.GAUSSIAN, 1, 0.6)
        assert correction(params, NoiseFamily.GAUSSIAN, 2, 0.6) > 0.0
        assert correction(params, NoiseFamily.GAUSSIAN, 1, 0.49) > 0.0


class TestCorrectionValidity:
    """Monte Carlo check of the summable-tail condition the corrections are
    sized for: P(Y_n - Z > n C(n, delta)) <= delta/(n^s zeta(s)). The full
    grid runs in the acceptance suite; this is a reduced version, in both
    tail directions."""

    N_DRAWS = 20_000
    N_MAX = 50

    @pytest.mark.parametrize("family", [NoiseFamily.LAPLACE, NoiseFamily.GAUSSIAN])
    @pytest.mark.parametrize("delta", [0.05, 0.5])
    def test_per_term_bound(self, family, delta):
        eps = 1.0
        if family is NoiseFamily.LAPLACE:
            spec = NoiseSpec.laplace_default(eps)
            params = CorrectionParams(epsilon=eps)
        else:
            spec = NoiseSpec.gaussian(4.0, 2.0)
            params = CorrectionParams(sigma_sum_sq=20.0)
        rng = _rng(fnv1a64(f"{family.value}:{delta!r}") % 1000 + 10)
        y = sample_y(spec, rng, self.N_DRAWS)
        z = sample_z(spec, rng, self.N_DRAWS)
        n = np.arange(1, self.N_MAX + 1, dtype=np.float64)
        c = correction_vec(params, family, n, delta)
        budget = delta / (n**params.s * params.zeta_s)
        for diff in (y - z, z - y):
            hat = np.mean(diff[None, :] > (n * c)[:, None], axis=1)
            se = np.sqrt(np.maximum(hat * (1 - hat), 1e-12) / self.N_DRAWS)
            assert np.all(hat <= budget + 3 * se)


class TestDensityRatio:
    def test_laplace_pass_and_fail(self):
        grid = np.arange(-10, 10.0001, 0.1)
        assert density_ratio_bound_check(NoiseFamily.LAPLACE, 4.0, 2.0, 0.5, grid)
        assert not density_ratio_bound_check(NoiseFamily.LAPLACE, 4.0, 2.0, 0.4, grid)

    def test_gaussian_compact_grid(self):
        grid = np.arange(-3, 3.0001, 0.1)
        assert density_ratio_bound_check(NoiseFamily.GAUSSIAN, 1.0, 1.0, 10.0, grid)
        assert not density_ratio_bound_check(NoiseFamily.GAUSSIAN, 1.0, 1.0, 2.0, grid)

    def test_zero_family_unsupported(self):
        with pytest.raises(ValueError):
            density_ratio_bound_check(NoiseFamily.ZERO, 1.0, 1.0, 1.0, [0.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            density_ratio_bound_check(NoiseFamily.LAPLACE, 1.0, 1.0, 1.0, [])
