"""PrivSPRT baseline: statistic, stopping rule, and threshold calibration."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from dpsprt import baselines
from dpsprt.baselines import (
    _NEVER,
    _SLACK,
    _Drawn,
    _Pilots,
    CalibrationError,
    CalibrationResult,
    PrivSprtConfig,
    calibrate_privsprt,
    default_threshold_grid,
    llr_steps,
    run_privsprt,
)
from dpsprt.dp_sprt import Classical, TestConfig, gaussian_scales, run_test
from dpsprt.exp_family import HypothesisPair, log_partition
from dpsprt.harness import BitStream
from dpsprt.rngcore import StreamKey, Substream, derive, skip, uniform_open

HYP = HypothesisPair.of(0.3, 0.7)
LLR1 = math.log(7 / 3)


def _zero_noise(a=None, b=None, trunc_a=50.0):
    return PrivSprtConfig(HYP, 0.0, 0.0, trunc_a, a, b)


def _obs(p, tag):
    return BitStream(p, derive(StreamKey(606, 0, tag)))


class TestConfigDefaults:
    def test_from_epsilon_scales(self):
        cfg = PrivSprtConfig.from_epsilon(HYP, 1.0, 1e-5)
        sy, sz = gaussian_scales(1.0, 1e-5)
        assert cfg.sigma1 == pytest.approx(2 * math.sqrt(2) * sz)
        assert cfg.sigma2 == pytest.approx(2 * math.sqrt(2) * sy)
        assert cfg.trunc_a == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivSprtConfig(HYP, -1.0, 1.0)
        with pytest.raises(ValueError):
            PrivSprtConfig(HYP, 1.0, 1.0, trunc_a=0.0)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, horizon):
        """As TestConfig does: a run at such a horizon would take no step."""
        with pytest.raises(ValueError, match="horizon"):
            PrivSprtConfig.from_epsilon(HYP, 1.0, horizon=horizon)
        calibrated = replace(_zero_noise(), thresh_a=5.0, thresh_b=5.0)
        with pytest.raises(ValueError, match="horizon"):
            replace(calibrated, horizon=horizon)

    def test_uncalibrated_run_rejected(self):
        with pytest.raises(ValueError):
            run_privsprt(_zero_noise(), iter([1, 0]))


class TestStatistic:
    def test_step_values_untruncated_on_standard_instance(self):
        l1, l0 = llr_steps(HYP)
        assert l1 == pytest.approx(LLR1, rel=1e-14)
        assert l0 == pytest.approx(-LLR1, rel=1e-14)
        # truncation at A = 1 is immaterial: both magnitudes below 1
        assert max(l1, -l0) < 1.0

    def test_path_matches_exponential_family_algebra(self):
        """Untruncated statistic equals dtheta * sum(X) - n * (b1 - b0)."""
        rng = np.random.default_rng(3)
        bits = (rng.random(400) < 0.5).astype(int)
        path = np.cumsum(np.where(bits == 1, *llr_steps(HYP)))
        n = np.arange(1, 401)
        want = HYP.dtheta * np.cumsum(bits) - n * (
            log_partition(HYP.theta1) - log_partition(HYP.theta0)
        )
        assert np.max(np.abs(path - want)) < 1e-10

    def test_truncation_clamps(self):
        """At (0.01, 0.99) a step's ratio, +-log(99) = +-4.6, is clamped to
        +-1: over 1, 1, 0, 0, 0, 0 the statistic runs 1, 2, 1, 0, -1, -2."""
        wide = HypothesisPair.of(0.01, 0.99)
        bits = [1, 1, 0, 0, 0, 0]
        for a, b, want in ((50.0, 1.5, (2, 1)), (1.5, 2.5, (6, 0))):
            out = run_privsprt(PrivSprtConfig(wide, 0.0, 0.0, 1.0, a, b), iter(bits))
            assert (out.tau, out.decision) == want


class TestZeroNoiseRuns:
    def test_all_ones_crosses_at_three(self):
        cfg = _zero_noise(a=50.0, b=3 * LLR1 - 1e-9)
        out = run_privsprt(cfg, itertools.repeat(1))
        assert (out.tau, out.decision) == (3, 1)

    def test_matches_classical_sprt_decisions(self):
        """With thresholds (log(1/beta), log(1/alpha)) and no truncation the
        rule is the classical test in likelihood-ratio coordinates."""
        alpha = beta = 0.05
        priv = _zero_noise(a=math.log(1 / beta), b=math.log(1 / alpha))
        classical = TestConfig(HYP, alpha, beta, Classical())
        for tag, p in ((0, 0.3), (1, 0.7), (2, 0.5), (3, 0.42)):
            bits = list(_obs(p, tag).take(3000))
            a = run_privsprt(priv, iter(bits))
            b = run_test(classical, iter(bits))
            assert (a.tau, a.decision) == (b.tau, b.decision)

    def test_upper_check_first_on_ties(self):
        # both thresholds at 0: a 1 bit satisfies both comparisons at n=1
        cfg = _zero_noise(a=0.0, b=0.0)
        out = run_privsprt(cfg, iter([1]))
        assert (out.tau, out.decision) == (1, 1)

    def test_horizon_exhaustion(self):
        cfg = replace(_zero_noise(a=100.0, b=100.0), horizon=10)
        out = run_privsprt(cfg, itertools.cycle([0, 1]))
        assert out.exhausted and out.tau == 10 and out.decision is None


class TestNoisyRuns:
    def test_deterministic_given_seed(self):
        cfg = replace(PrivSprtConfig.from_epsilon(HYP, 1.0), thresh_a=375.0, thresh_b=375.0)
        trial = baselines.PrivSprtKernel(cfg).trial(9)
        bits = list(_obs(0.3, 7).take(5000))
        assert run_privsprt(trial, iter(bits)) == run_privsprt(trial, iter(bits))

    def test_seed_changes_noise(self):
        base = replace(PrivSprtConfig.from_epsilon(HYP, 1.0), thresh_a=375.0, thresh_b=375.0)
        bits = list(_obs(0.3, 8).take(20000))
        kernel = baselines.PrivSprtKernel(base)
        a = run_privsprt(kernel.trial(1), iter(bits))
        b = run_privsprt(kernel.trial(2), iter(bits))
        assert (a.tau, a.decision) != (b.tau, b.decision)


class TestDefaultGrid:
    def test_bracketing_ladder(self):
        cfg = PrivSprtConfig.from_epsilon(HYP, 1.0)
        grid = default_threshold_grid(cfg, 0.05)
        assert len(grid) == 36
        w = math.log(1 / 0.05)
        assert (w, w) in grid
        assert max(b for _, b in grid) == pytest.approx(w * 5**5)


class TestCalibration:
    def test_zero_noise_selects_wald_point_or_smaller(self):
        cfg = _zero_noise()
        wald = (math.log(1 / 0.05), math.log(1 / 0.05))
        grid = [wald, (2 * wald[0], 2 * wald[1]), (4 * wald[0], wald[1])]
        cal = calibrate_privsprt(cfg, 0.05, 0.05, grid=grid, pilot_trials=100,
                                 rng=derive(StreamKey(71)))
        assert cal.thresh_a + cal.thresh_b <= wald[0] + wald[1] + 1e-12
        assert cal.pilot_type1 <= 0.05 and cal.pilot_type2 <= 0.05

    def test_single_infeasible_point_fails(self):
        cfg = _zero_noise()
        with pytest.raises(CalibrationError):
            calibrate_privsprt(cfg, 0.05, 0.05, grid=[(0.0, 0.0)], pilot_trials=100,
                               rng=derive(StreamKey(72)))

    def test_deterministic_given_grid_and_seed(self):
        cfg = PrivSprtConfig.from_epsilon(HYP, 5.0)
        kw = dict(target_alpha=0.05, target_beta=0.05, pilot_trials=60)
        a = calibrate_privsprt(cfg, rng=derive(StreamKey(73)), **kw)
        b = calibrate_privsprt(cfg, rng=derive(StreamKey(73)), **kw)
        assert a == b

    def test_noisy_calibration_lands_above_noise_floor(self):
        cfg = PrivSprtConfig.from_epsilon(HYP, 1.0)
        cal = calibrate_privsprt(cfg, 0.05, 0.05, pilot_trials=100, rng=derive(StreamKey(74)))
        # thresholds a handful of noise standard deviations out
        assert min(cal.thresh_a, cal.thresh_b) > 2 * math.hypot(cfg.sigma1, cfg.sigma2)

    def test_undecidable_horizon_is_infeasible(self):
        cfg = replace(PrivSprtConfig.from_epsilon(HYP, 1.0), horizon=5)
        with pytest.raises(CalibrationError):
            calibrate_privsprt(cfg, 0.05, 0.05, grid=[(400.0, 400.0)], pilot_trials=20,
                               rng=derive(StreamKey(75)))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            calibrate_privsprt(_zero_noise(), 0.05, 0.05, grid=[], pilot_trials=10,
                               rng=derive(StreamKey(76)))


# The calibration as it was before pilot paths ran in lockstep: each path
# keeps its whole running-max and running-min trajectory and is searched
# per grid point. Kept as the reference for the differential tests below.
def _ref_gauss(rng, sigma, size):
    return np.zeros(size) if sigma == 0.0 else sigma * ndtri(uniform_open(rng, size))


class _RefPilotPath:
    def __init__(self, cfg, p, token):
        self._cfg = cfg
        self._p = p
        self._rng_obs = derive(StreamKey(token, substream=Substream.OBS))
        self._rng_y = derive(StreamKey(token, substream=Substream.NOISE_Y))
        self._rng_z = derive(StreamKey(token, substream=Substream.NOISE_Z))
        z = _ref_gauss(self._rng_z, cfg.sigma1, 2)
        self._z1, self._z2 = float(z[0]), float(z[1])
        self._carry = 0.0
        self._n = 0
        self.up = np.empty(0)
        self.down = np.empty(0)

    def ensure_decided(self, a, b):
        while not (
            (self.up.size and self.up[-1] >= b)
            or (self.down.size and self.down[-1] <= -a)
        ):
            if self._n >= self._cfg.horizon:
                return False
            got = min(512, self._cfg.horizon - self._n)
            bits = self._rng_obs.random(got) < self._p
            l1, l0 = llr_steps(self._cfg.hypotheses)
            inc = np.clip(np.where(bits, l1, l0), -self._cfg.trunc_a, self._cfg.trunc_a)
            stat = self._carry + np.cumsum(inc)
            y = _ref_gauss(self._rng_y, self._cfg.sigma2, 2 * got)
            up_prev = self.up[-1] if self.up.size else -math.inf
            dn_prev = self.down[-1] if self.down.size else math.inf
            self.up = np.concatenate(
                [self.up, np.maximum.accumulate(np.maximum(stat + y[0::2] - self._z1, up_prev))]
            )
            self.down = np.concatenate(
                [self.down, np.minimum.accumulate(np.minimum(stat + y[1::2] - self._z2, dn_prev))]
            )
            self._carry = float(stat[-1])
            self._n += got
        return True

    def decision(self, a, b):
        t_up = int(np.searchsorted(self.up, b, side="left"))
        t_dn = int(np.searchsorted(-self.down, a, side="left"))
        if t_up == self.up.size and t_dn == self.down.size:
            return -1
        return 1 if t_up <= t_dn else 0


def _reference_calibrate(cfg, target_alpha, target_beta, grid, pilot_trials, rng, shared=None):
    """`shared` maps (p, token) to a path, so that calls on one set of pilots
    extend each path once; the search always read a path extended for one
    grid point at the next."""
    shared = {} if shared is None else shared

    def path(p):
        token = int(rng.integers(0, 1 << 63))
        if (p, token) not in shared:
            shared[p, token] = _RefPilotPath(cfg, p, token)
        return shared[p, token]

    hyp = cfg.hypotheses
    paths0 = [path(hyp.mu0) for _ in range(pilot_trials)]
    paths1 = [path(hyp.mu1) for _ in range(pilot_trials)]

    def errors_at(a, b):
        for path in paths0 + paths1:
            path.ensure_decided(a, b)
        dec0 = [p.decision(a, b) for p in paths0]
        dec1 = [p.decision(a, b) for p in paths1]
        n0 = max(sum(d >= 0 for d in dec0), 1)
        n1 = max(sum(d >= 0 for d in dec1), 1)
        type1 = sum(d == 1 for d in dec0) / n0
        type2 = sum(d == 0 for d in dec1) / n1
        return type1, type2, sum(d < 0 for d in dec0 + dec1)

    best = None
    for a, b in sorted(grid, key=lambda g: (g[0] + g[1], g[0])):
        type1, type2, undecided = errors_at(a, b)
        if not undecided and type1 <= target_alpha and type2 <= target_beta:
            return CalibrationResult(a, b, type1, type2, pilot_trials)
        gap = max(type1 - target_alpha, type2 - target_beta)
        if undecided:
            gap = math.inf
        if best is None or gap < best[0]:
            best = (gap, a, b, type1, type2, undecided)
    _, a, b, type1, type2, undecided = best
    message = (f"no feasible grid point; best attempt (a={a:.4g}, b={b:.4g}) had "
               f"type I {type1:.3f} vs {target_alpha} and type II {type2:.3f} vs {target_beta}")
    if undecided:
        message += (f", with {undecided} of {2 * pilot_trials} pilot paths undecided at "
                    f"the horizon {cfg.horizon}")
    raise CalibrationError(message)


def _outcome(calibrate, cfg, grid, targets=(1.0, 1.0), pilots=40, seed=81, **kw):
    """The calibration result, or the CalibrationError message."""
    try:
        return calibrate(cfg, *targets, grid=grid, pilot_trials=pilots,
                         rng=derive(StreamKey(seed)), **kw)
    except CalibrationError as exc:
        return str(exc)


def _assert_each_point_matches_reference(cfg):
    """Each default-grid point alone, with targets that any decided point
    meets: equal pilot errors, or the same CalibrationError."""
    shared = {}
    for point in default_threshold_grid(cfg, 0.05):
        got = _outcome(calibrate_privsprt, cfg, [point])
        assert got == _outcome(_reference_calibrate, cfg, [point], shared=shared), point


def _assert_first_steps_match(pilots, ref):
    """Every path's first step at or past each grid value, per side, equals
    the reference path's, for the steps the reference has drawn."""
    for levels, first, runs in zip(pilots._levels, pilots._first,
                                   ([p.up for p in ref], [-p.down for p in ref])):
        for row, run in zip(first, runs):
            hit = np.searchsorted(run, levels)
            assert row.tolist() == np.where(hit < run.size, hit + 1, _NEVER).tolist()


def _position(rng):
    """The counter and the buffer position: where the next word comes from."""
    st = rng.bit_generator.state
    return tuple(st["state"]["counter"]), st["buffer_pos"]


class TestLockstepCalibration:
    @pytest.mark.parametrize("horizon", [1_000_000, 700])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 5.0])
    def test_every_grid_point_matches_reference(self, eps, horizon):
        """A horizon of 700 is cut inside the second block and leaves the
        large thresholds undecided."""
        cfg = replace(PrivSprtConfig.from_epsilon(HYP, eps), horizon=horizon)
        _assert_each_point_matches_reference(cfg)

    def test_zero_noise_matches_reference(self):
        """sigma 0: no noise is drawn, and margins are the bare statistic."""
        _assert_each_point_matches_reference(_zero_noise())

    @pytest.mark.parametrize("targets", [(0.05, 0.05), (0.0, 0.0), (-1.0, -1.0)])
    def test_unsorted_grid_with_repeats_matches_reference(self, targets):
        """A whole grid, unsorted, whose a and b values repeat: the same
        pick, or the same best attempt in the CalibrationError."""
        cfg = PrivSprtConfig.from_epsilon(HYP, 5.0)
        grid = [(374.5, 15.0), (15.0, 74.9), (74.9, 374.5), (15.0, 15.0),
                (74.9, 74.9), (374.5, 74.9), (15.0, 374.5), (3.0, 74.9)]
        got = _outcome(calibrate_privsprt, cfg, grid, targets)
        assert got == _outcome(_reference_calibrate, cfg, grid, targets)

    # the zero-noise statistic moves in steps of exactly 0.5 here, so margins
    # land on the thresholds, and (-0.5, 0.5) is crossed both ways at once
    LATTICE = (PrivSprtConfig(HYP, 0.0, 0.0, trunc_a=0.5),
               [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0), (-0.5, 0.5), (3.0, 3.0)])

    @pytest.mark.parametrize("cfg, grid", [
        (PrivSprtConfig.from_epsilon(HYP, 1.0), None),
        (replace(PrivSprtConfig.from_epsilon(HYP, 1.0), horizon=1200), None),
        LATTICE,
    ], ids=["eps1", "eps1-horizon1200", "lattice"])
    def test_decisions_match_reference_along_the_search(self, cfg, grid):
        """One set of pilots read at every grid point in search order, as the
        search does: paths then enter a round at different step counts, and
        at a horizon of 1200 a round mixes full blocks with cut ones."""
        grid = default_threshold_grid(cfg, 0.05) if grid is None else grid
        probs = [HYP.mu0] * 20 + [HYP.mu1] * 20
        tokens = [int(t) for t in derive(StreamKey(82)).integers(0, 1 << 63, 40)]
        pilots = _Pilots(cfg, grid, probs, tokens)
        ref = [_RefPilotPath(cfg, p, t) for p, t in zip(probs, tokens)]
        for a, b in sorted(grid, key=lambda g: (g[0] + g[1], g[0])):
            for path in ref:
                path.ensure_decided(a, b)
            assert pilots.decisions(a, b).tolist() == [p.decision(a, b) for p in ref], (a, b)
            _assert_first_steps_match(pilots, ref)

    @pytest.mark.parametrize("horizon", [1_000_000, 2048])
    def test_skipped_blocks_match_reference_along_the_search(self, horizon, monkeypatch):
        """At eps 0.5 on the default grid most blocks of a pilot path lie
        beyond the reach of any noise value: they draw no Y uniforms, and
        their words are skipped before the path's next draw, or the block
        that reaches the horizon draws. Decisions and first steps match the
        reference, which draws every word, at every point in search order,
        and each path's Y generator ends where the reference's does, also
        on paths that a horizon of four blocks leaves undecided."""
        skipped = []
        monkeypatch.setattr(baselines, "skip", lambda rng, words, drawn: skipped.append(words)
                            or skip(rng, words, drawn))
        cfg = replace(PrivSprtConfig.from_epsilon(HYP, 0.5), horizon=horizon)
        grid = default_threshold_grid(cfg, 0.05)
        probs = [HYP.mu0] * 10 + [HYP.mu1] * 10
        tokens = [int(t) for t in derive(StreamKey(83)).integers(0, 1 << 63, 20)]
        pilots = _Pilots(cfg, grid, probs, tokens)
        ref = [_RefPilotPath(cfg, p, t) for p, t in zip(probs, tokens)]
        for a, b in sorted(grid, key=lambda g: (g[0] + g[1], g[0])):
            for path in ref:
                path.ensure_decided(a, b)
            assert pilots.decisions(a, b).tolist() == [p.decision(a, b) for p in ref], (a, b)
            _assert_first_steps_match(pilots, ref)
        assert sum(skipped) > 0
        for rng, path in zip(pilots._y, ref):
            assert _position(rng) == _position(path._rng_y)

    @pytest.mark.parametrize("cfg", [
        replace(PrivSprtConfig.from_epsilon(HYP, 1.0), horizon=1200),
        # steps of 1e-300 cannot move noise of sigma 1, so a block's bound
        # exceeds its largest margin by the slack alone
        PrivSprtConfig(HYP, 1.0, 1.0, trunc_a=1e-300, horizon=1200),
    ], ids=["noisy", "flat"])
    def test_grid_values_on_reached_margins_match_reference(self, cfg):
        """Grid values equal to margins a noisy pilot path reaches: its
        largest upper margin over its first 1024 steps, and its lowest lower
        one, negated. The block where each is reached then meets its bound
        with little to spare, and the crossing must still be recorded at
        that step: a one-sided point decides the path there."""
        rng = derive(StreamKey(81))  # the pilot tokens of _outcome's calibrations
        tokens = [int(rng.integers(0, 1 << 63)) for _ in range(80)]
        path = _RefPilotPath(cfg, HYP.mu0, tokens[0])
        path.ensure_decided(math.inf, math.inf)  # to the horizon
        b, a = float(path.up[1023]), float(-path.down[1023])
        far = 1e9
        grid = [(far, b), (a, far), (a, b), (2 * a, b), (a, 2 * b), (b, a)]
        for targets in ((1.0, 1.0), (-1.0, -1.0)):  # stop at the first point, or try all
            got = _outcome(calibrate_privsprt, cfg, grid, targets, seed=81)
            assert got == _outcome(_reference_calibrate, cfg, grid, targets, seed=81)
        probs = [HYP.mu0] * 40 + [HYP.mu1] * 40
        pilots = _Pilots(cfg, grid, probs, tokens)
        ref = [_RefPilotPath(cfg, p, t) for p, t in zip(probs, tokens)]
        for a_, b_ in sorted(grid, key=lambda g: (g[0] + g[1], g[0])):
            for p in ref:
                p.ensure_decided(a_, b_)
            assert pilots.decisions(a_, b_).tolist() == [p.decision(a_, b_) for p in ref]
            _assert_first_steps_match(pilots, ref)
        assert (pilots.decisions(far, b)[0], pilots.decisions(a, far)[0]) == (1, 0)
        at_b = np.searchsorted(pilots._levels[0], b)
        assert pilots._first[0][0, at_b] == int(np.argmax(path.up >= b)) + 1

    # picks at the default grid and 100 pilots, recorded before pilot paths
    # ran in lockstep
    @pytest.mark.parametrize("seed", [7, 74])
    @pytest.mark.parametrize("eps, thresh", [
        (0.5, 1872.3326709712444), (1.0, 374.4665341942489),
        (2.0, 374.4665341942489), (5.0, 74.89330683884977),
    ])
    def test_recorded_picks_hold(self, eps, thresh, seed):
        cal = calibrate_privsprt(PrivSprtConfig.from_epsilon(HYP, eps), 0.05, 0.05,
                                 rng=derive(StreamKey(seed)))
        assert cal == CalibrationResult(thresh, thresh, 0.0, 0.0, 100)

    def test_memory_does_not_grow_with_path_length(self):
        """At eps 0.5 the pilot paths run to about 5,500 steps; keeping
        their trajectories peaked at 16 MB."""
        cfg = PrivSprtConfig.from_epsilon(HYP, 0.5)
        tracemalloc.start()
        try:
            calibrate_privsprt(cfg, 0.05, 0.05, pilot_trials=100, rng=derive(StreamKey(7)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


# the thresholds calibration picks at eps 0.5 (see test_recorded_picks_hold)
EPS_HALF = replace(PrivSprtConfig.from_epsilon(HYP, 0.5),
                   thresh_a=1872.3326709712444, thresh_b=1872.3326709712444)


class TestTransformSkip:
    """Blocks whose bounds stay inside the thresholds are drawn but not
    transformed; the bounds hold as long as ndtri is monotone to within
    _SLACK."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Uniforms drawn and values transformed by the inverse normal CDF
        in the baselines module."""
        counts = {"drawn": 0, "transformed": 0}

        def counted_uniform_open(rng, size=None):
            counts["drawn"] += int(np.prod(size)) if size is not None else 1
            return uniform_open(rng, size)

        def counted_ndtri(x, *args, **kw):
            counts["transformed"] += np.size(x)
            return ndtri(x, *args, **kw)

        monkeypatch.setattr(baselines, "uniform_open", counted_uniform_open)
        monkeypatch.setattr(baselines, "ndtri", counted_ndtri)
        return counts

    def test_a_long_trial_transforms_under_half_its_draws(self, counts):
        """At eps 0.5 a trial runs some 5,000 steps, most of them in chunks
        whose noise cannot reach a threshold of 1872."""
        kernel = baselines.PrivSprtKernel(EPS_HALF)
        for seed in range(6):
            p = HYP.mu1 if seed % 2 else HYP.mu0
            assert not run_privsprt(kernel.trial(seed), _obs(p, seed)).exhausted
        assert 0 < counts["transformed"] < counts["drawn"] / 2

    def test_calibration_transforms_under_half_its_draws(self, counts):
        cal = calibrate_privsprt(PrivSprtConfig.from_epsilon(HYP, 0.5), 0.05, 0.05,
                                 rng=derive(StreamKey(7)))
        assert cal.thresh_b == EPS_HALF.thresh_b
        assert 0 < counts["transformed"] < counts["drawn"] / 2

    def test_ndtri_is_monotone_far_within_the_slack(self):
        """Over runs of 4001 adjacent doubles around random points, both
        tails, and the branch points of its rational approximations
        (exp(-2) and 1 - exp(-2)), ndtri never falls by more than 1e-14,
        at least 1e5 times less than the slack."""
        centers = derive(StreamKey(92)).random(40).tolist()
        centers += [1e-300, 1 - 2**-40, math.exp(-2), 1 - math.exp(-2)]
        worst = 0.0
        for c in centers:
            run = (np.float64(c).view(np.int64) + np.arange(-2000, 2001)).view(np.float64)
            v = ndtri(run)
            worst = max(worst, float(np.max(np.maximum.accumulate(v) - v)))
        assert worst <= 1e-14
        assert 1e-14 * 1e5 <= _SLACK


def test_drawn_block_gives_uniform_open_values():
    """Rows drawn with `random(out=...)`, then made uniforms in one pass,
    equal each row's `uniform_open` draw; the top draw is clamped too."""
    keys = [StreamKey(31, substream=Substream.NOISE_Y, trial=t) for t in range(4)]
    block = np.zeros((len(keys), 300))
    for row, key in zip(block, keys):
        derive(key).random(out=row)
    block[0, 0] = 1 - 2.0**-53  # the largest draw `random` makes
    got = uniform_open(_Drawn(block), block.shape)
    assert np.shares_memory(got, block)
    for i, key in enumerate(keys):
        want = uniform_open(derive(key), 300)
        if i == 0:
            want[0] = 1 - 2.0**-53
        assert np.array_equal(block[i], want)
