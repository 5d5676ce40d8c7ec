"""Privacy accounting: budgets, profiles, conversions, pilot estimates, and
the step-1 output law behind the pure-DP label."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from dpsprt import cli
from dpsprt.dp_sprt import (
    Classical,
    Laplace,
    LaplaceSub,
    TestConfig,
    TestKernel,
    default_subsample_rate,
    gaussian_scales,
    run_test,
    threshold_lower,
    threshold_upper,
)
from dpsprt.exp_family import HypothesisPair
from dpsprt.noise import NoiseSpec
from dpsprt.privacy_accounting import (
    estimate_tau_sq,
    gaussian_epsilon,
    gaussian_rdp_profile,
    laplace_budget,
)
from dpsprt.harness import BitStream
from dpsprt.rngcore import StreamKey, Substream, derive

HYP = HypothesisPair.of(0.3, 0.7)


class TestLaplaceBudget:
    def test_default_scales_echo_epsilon(self):
        # scales 2/eps (sensitivity 1) and 4/eps (sensitivity 2) each cost eps/2
        for eps in (0.1, 1.0, 5.0):
            spec = NoiseSpec.laplace_default(eps)
            assert laplace_budget(spec.scale_y, spec.scale_z) == pytest.approx(eps, rel=1e-12)

    def test_explicit_scales(self):
        # 1/scale_z + 2/scale_y
        assert laplace_budget(4.0, 4.0) == 0.75
        assert laplace_budget(4.0, 2.0) == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            laplace_budget(-1.0, 2.0)
        with pytest.raises(ValueError):
            laplace_budget(4.0, 0.0)


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


def _mp_minimum(sigma_y, sigma_z, tau_sq, delta) -> mpmath.mpf:
    """The least value over alpha > 1 of the profile plus log(1/delta)/(alpha - 1),
    in 40-digit arithmetic and without the closed form: the best of a
    log-spaced grid of x = alpha - 1, refined to a root of the derivative."""
    with mpmath.workdps(40):
        sy, sz, tsq, dl = (mpmath.mpf(t) for t in (sigma_y, sigma_z, tau_sq, delta))

        def f(x):
            a = x + 1
            return ((a - mpmath.mpf(0.5)) / x * a / sz**2 + a / (2 * sy**2)
                    + mpmath.log(2 * tsq) / (2 * x) - mpmath.log(dl) / x)

        x0 = min((mpmath.mpf(10) ** (mpmath.mpf(k) / 8) for k in range(-40, 80)), key=f)
        return f(mpmath.findroot(lambda x: mpmath.diff(f, x), x0))


EPS_CASES = (0.1, 1.0, 5.0, 10.0)
DELTA_CASES = (1e-3, 1e-5, 1e-9)
TAU_SQ_CASES = (1.0, 1e4, 1e7)


class TestGaussianEpsilon:
    @pytest.mark.parametrize("tau_sq", TAU_SQ_CASES)
    @pytest.mark.parametrize("delta", DELTA_CASES)
    @pytest.mark.parametrize("eps", EPS_CASES)
    def test_matches_mpmath_minimum(self, eps, delta, tau_sq):
        sy, sz = gaussian_scales(eps, delta)
        got, order = gaussian_epsilon(sy, sz, tau_sq, delta)
        assert got == pytest.approx(float(_mp_minimum(sy, sz, tau_sq, delta)), rel=1e-12)
        assert got == gaussian_rdp_profile(sy, sz, tau_sq, order) - math.log(delta) / (order - 1)

    @pytest.mark.parametrize("eps", EPS_CASES)
    def test_never_worse_than_order_two(self, eps):
        for delta in DELTA_CASES:
            sy, sz = gaussian_scales(eps, delta)
            for tau_sq in TAU_SQ_CASES:
                order_two = gaussian_rdp_profile(sy, sz, tau_sq, 2.0) - math.log(delta)
                assert gaussian_epsilon(sy, sz, tau_sq, delta)[0] <= order_two

    @pytest.mark.parametrize("eps", EPS_CASES)
    def test_monotone_in_delta_and_tau_sq(self, eps):
        """At fixed noise scales, eps falls as delta rises and rises with tau^2."""
        sy, sz = gaussian_scales(eps, 1e-5)
        for tau_sq in TAU_SQ_CASES:
            vals = [gaussian_epsilon(sy, sz, tau_sq, d)[0] for d in sorted(DELTA_CASES)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for delta in DELTA_CASES:
            vals = [gaussian_epsilon(sy, sz, t, delta)[0] for t in TAU_SQ_CASES]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1e-5, 1.5])
    def test_rejects_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError):
            gaussian_epsilon(2.0, 1.0, 10.0, delta)


class TestTauSqEstimate:
    def test_degenerate_instance_gives_one(self):
        # error targets of 0.9 put both thresholds inside [0, 1] at n = 1,
        # so every trajectory stops immediately: tau is identically 1
        cfg = TestConfig(HYP, 0.9, 0.9, Classical())
        value, reliable = estimate_tau_sq(cfg, 100, derive(StreamKey(50)))
        assert value == pytest.approx(1.0)
        assert reliable

    def test_requires_minimum_pilots(self):
        cfg = TestConfig(HYP, 0.9, 0.9, Classical())
        with pytest.raises(ValueError):
            estimate_tau_sq(cfg, 99, derive(StreamKey(50)))

    def test_unreliable_when_exhausted(self):
        cfg = TestConfig(HYP, 0.05, 0.05, Classical(), horizon=2)
        _, reliable = estimate_tau_sq(cfg, 100, derive(StreamKey(51)))
        assert not reliable

    def test_against_batched_brute_force(self):
        """Independent oracle: fully vectorized classical trajectories."""
        cfg = TestConfig(HYP, 0.05, 0.05, Classical())
        value, _ = estimate_tau_sq(cfg, 1000, derive(StreamKey(52)))

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
        assert value == pytest.approx(worst, rel=0.20)

    def test_subsampled_rate_one_agrees_with_laplace(self):
        lap = TestConfig(HYP, 0.05, 0.05, Laplace(1.0))
        sub = TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, 1.0))
        e_lap, _ = estimate_tau_sq(lap, 150, derive(StreamKey(53)))
        e_sub, _ = estimate_tau_sq(sub, 150, derive(StreamKey(53)))
        # same seeds, same trajectories
        assert e_lap == pytest.approx(e_sub, rel=1e-12)

    @pytest.mark.parametrize("variant", [Laplace(1.0), LaplaceSub(1.0, 0.5)],
                             ids=["laplace", "laplace_sub"])
    def test_block_keys_match_per_pilot_keys(self, variant):
        """Noise keys computed for all pilots at once give the estimate that
        each pilot's keys, derived from its own seed, give."""
        cfg = TestConfig(HYP, 0.05, 0.05, variant)
        value, _ = estimate_tau_sq(cfg, 100, derive(StreamKey(54)))
        rng, kernel, worst = derive(StreamKey(54)), TestKernel(cfg), 0.0
        for p in (HYP.mu0, HYP.mu1):
            sq_sum = sq_sumsq = 0.0
            for _ in range(100):
                token = int(rng.integers(0, 1 << 63))
                obs = BitStream(p, derive(StreamKey(token, substream=Substream.PILOT)))
                t2 = float(run_test(kernel.trial(token), obs).tau) ** 2
                sq_sum += t2
                sq_sumsq += t2 * t2
            mean = sq_sum / 100
            worst = max(worst, mean + 1.645 * math.sqrt(max(sq_sumsq / 100 - mean * mean, 0.0) / 100))
        assert value == worst


def _step_one_decide_one(cfg: TestConfig, x: int) -> float:
    """P(stop at step 1 and decide 1) when observation 1 is x, in closed form.

    Observation 1 is kept with probability r (1 outside the subsampled
    rule); then the test compares x + r Y against upper(1) + r Z and
    lower(1) - r Z, the lower side first. So it decides 1 when
    Y >= max((upper - x)/r + Z, (lower - x)/r - Z), and the probability is
    r * integral of f_Z(z) S_Y(max(...)) dz, split at the integrand's kinks.
    """
    r = getattr(cfg.variant, "rate", 1.0)
    spec = NoiseSpec.laplace_default(cfg.variant.epsilon)
    b_y, b_z = spec.scale_y, spec.scale_z
    up, lo = threshold_upper(cfg, 1), threshold_lower(cfg, 1)

    def integrand(z):
        t = max((up - x) / r + z, (lo - x) / r - z)
        s_y = 0.5 * math.exp(-t / b_y) if t >= 0 else 1.0 - 0.5 * math.exp(t / b_y)
        return math.exp(-abs(z) / b_z) / (2.0 * b_z) * s_y

    lim = 60.0 * b_z  # the Z mass beyond is e^-60
    kinks = (0.0, (lo - up) / (2.0 * r), -(up - x) / r, (lo - x) / r)
    edges = sorted({-lim, lim, *(k for k in kinks if -lim < k < lim)})
    return r * sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                   for a, b in zip(edges, edges[1:]))


def _step_one_log_ratio(cfg: TestConfig) -> float:
    """Log ratio of P(stop at step 1, decide 1) between neighbours that
    differ only in observation 1 (0 and 1); an eps-DP test keeps it <= eps."""
    return math.log(_step_one_decide_one(cfg, 1) / _step_one_decide_one(cfg, 0))


class TestStepOneLaw:
    @pytest.mark.parametrize("eps, want", [(0.1, 0.0250), (1.0, 0.2500), (5.0, 1.2500)])
    def test_laplace_is_within_eps(self, eps, want):
        ratio = _step_one_log_ratio(TestConfig(HYP, 0.05, 0.05, Laplace(eps)))
        assert ratio == pytest.approx(want, abs=5e-5)
        assert ratio <= eps

    def test_laplace_sub_exceeds_eps(self):
        """Observation 1 shifts the query by 1/r in units of Y, so the
        step-1 log ratio is eps/(4r): 2.5 eps at eps 0.1, where r = 0.1.
        Subsampling does not amplify it: the stop reveals the inclusion."""
        eps = 0.1
        cfg = TestConfig(HYP, 0.05, 0.05, LaplaceSub(eps, default_subsample_rate(eps)))
        ratio = _step_one_log_ratio(cfg)
        assert ratio == pytest.approx(0.2500, abs=5e-5)
        assert ratio > eps

    def test_every_pure_dp_cell_bounds_its_step_one_ratio(self, tmp_path):
        """No cell that a simulate manifest labels pure_dp has a step-1 log
        ratio above its eps; laplace_sub cells are labelled unaccounted."""
        args = ["simulate", "--variants", "laplace,laplace_sub", "--trials", "1",
                "--seed", "7", "--workers", "1"]
        out = tmp_path / "sim"
        assert cli.main(args + ["--out", str(out)]) == cli.EXIT_OK
        notes = json.loads((out / "manifest.json").read_text())["privacy_guarantees"]
        v = cli._parse(cli._resolve_options(cli._build_parser().parse_args(args)))
        plan, _ = cli._build_plan(v)
        kinds = {cell.variant_id: notes[cell.variant_id]["kind"] for cell in plan.variants}
        for cell in plan.variants:
            if kinds[cell.variant_id] == "pure_dp":
                eps = notes[cell.variant_id]["epsilon"]
                assert _step_one_log_ratio(cell.config) <= eps, cell.variant_id
        assert kinds == {f"{name}@eps={eps}": kind for eps in ("0.1", "1", "5")
                         for name, kind in (("laplace", "pure_dp"), ("laplace_sub", "unaccounted"))}
