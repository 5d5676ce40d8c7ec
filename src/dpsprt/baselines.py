"""PrivSPRT comparator: privatized truncated log-likelihood-ratio test.

PrivSPRT accumulates per-observation log-likelihood ratios clamped to
[-A, A] and privatizes the running sum with two independent Gaussian noise
streams, one per boundary, each with its own one-shot threshold noise. Its
thresholds (a, b) carry no closed-form calibration; they are tuned by grid
search against pilot Monte Carlo error estimates.

At small epsilon most blocks lie far from every threshold. Where no noise
value a uniform can give carries a block's statistic to one, its noise words
are skipped, never drawn; where its own extreme uniforms do not (see
`_extremes`), they are drawn but not passed through the inverse normal CDF.
Outcomes and streams are those of drawing and transforming every value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtri

from .dp_sprt import Kernel, TestOutcome, Trial, gaussian_scales
from .exp_family import HypothesisPair
from .rngcore import (StreamKey, Substream, derive, raw_below, skip, stream_words,
                      uniform_open)

__all__ = [
    "PrivSprtConfig",
    "CalibrationError",
    "CalibrationResult",
    "llr_steps",
    "PrivSprtKernel",
    "run_privsprt",
    "default_threshold_grid",
    "calibrate_privsprt",
]

# steps per pilot-path extension, at most in a run's first chunk, and per
# piece a run checks: PrivSPRT stops about twice as late as the Laplace test at the
# same epsilon
_CHUNK = 512
# pilot paths extended together in one block array; a cap keeps the block
# small, so calibration's peak memory stays below that of the trials
_ROWS = 32
_NEVER = np.iinfo(np.int64).max  # first-crossing step of a threshold never crossed
# ndtri is monotone only up to rounding: over runs of adjacent doubles it
# falls by at most about 9e-16 (tests/test_baselines.py fails past 1e-14),
# so a slack far above that keeps the bounds of `_extremes` conservative
_SLACK = 1e-9
# ndtri at the extremes of `uniform_open`, 2^-54 and 1 - 2^-53, widened by the slack
_Y_TOP = float(ndtri(1.0 - 2.0**-53)) + _SLACK
_Y_BOT = float(ndtri(2.0**-54)) - _SLACK


@dataclass(frozen=True)
class PrivSprtConfig:
    """PrivSPRT parameters: truncation half-width A, threshold-noise sigma1,
    per-step noise sigma2, and the decision thresholds a (lower, at -a) and
    b (upper). Thresholds stay None until calibrated or supplied."""

    hypotheses: HypothesisPair
    sigma1: float
    sigma2: float
    trunc_a: float = 1.0
    thresh_a: float | None = None
    thresh_b: float | None = None
    horizon: int = 1_000_000

    def __post_init__(self) -> None:
        if self.sigma1 < 0.0 or self.sigma2 < 0.0:
            raise ValueError("noise sigmas must be nonnegative")
        if self.trunc_a <= 0.0:
            raise ValueError("truncation half-width must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")

    @classmethod
    def from_epsilon(
        cls,
        hyp: HypothesisPair,
        epsilon: float,
        delta: float = 1e-5,
        trunc_a: float = 1.0,
        horizon: int = 1_000_000,
    ) -> "PrivSprtConfig":
        """Noise levels matched to the Gaussian test at the same (eps, delta):
        sigma1 = 2*sqrt(2)*A*sigma_Z and sigma2 = 2*sqrt(2)*A*sigma_Y."""
        sigma_y, sigma_z = gaussian_scales(epsilon, delta)
        k = 2.0 * math.sqrt(2.0) * trunc_a
        return cls(hyp, k * sigma_z, k * sigma_y, trunc_a, None, None, horizon)


class CalibrationError(RuntimeError):
    """No grid point met the pilot error targets."""


@dataclass(frozen=True)
class CalibrationResult:
    thresh_a: float
    thresh_b: float
    pilot_type1: float
    pilot_type2: float
    pilot_trials: int


def llr_steps(hyp: HypothesisPair) -> tuple[float, float]:
    """Per-observation log-likelihood ratios (for a 1 bit, for a 0 bit)."""
    l1 = math.log(hyp.mu1 / hyp.mu0)
    l0 = math.log((1.0 - hyp.mu1) / (1.0 - hyp.mu0))
    return l1, l0


def _clamped_llr(cfg: PrivSprtConfig) -> np.ndarray:
    """The log-likelihood ratios of a 0 bit and a 1 bit, clamped to
    [-A, A]: a bit indexes its increment of the PrivSPRT statistic."""
    l1, l0 = llr_steps(cfg.hypotheses)
    return np.clip(np.array([l0, l1]), -cfg.trunc_a, cfg.trunc_a)


def _extremes(smax, smin, u, sigma2: float):
    """Bounds on the noisy statistic of blocks whose statistic spans [smin,
    smax] and whose uniforms are the rows of `u` (Y1 at even places, Y2 at
    odd ones): every stat + sigma2*ndtri(u[0::2]) is at most `top`, and every
    stat + sigma2*ndtri(u[1::2]) at least `bot`, as computed in floating
    point. Rounding of +, - and * by sigma2 > 0 is monotone, and ndtri is
    monotone up to _SLACK, so no value of a block lies past its bounds."""
    top = smax + sigma2 * (ndtri(u[..., 0::2].max(axis=-1)) + _SLACK)
    bot = smin + sigma2 * (ndtri(u[..., 1::2].min(axis=-1)) - _SLACK)
    return top, bot


class PrivSprtKernel(Kernel):
    """A calibrated PrivSPRT configuration prepared once and run for many
    trials, with its clamped log-likelihood-ratio increments.

    Each chunk is checked in pieces of _CHUNK steps, and a piece whose
    `_extremes` lie inside (-a + Z2, b + Z1) cannot fire. The Y words of
    the leading pieces that no noise value can make fire are skipped; the
    rest are drawn, and only the pieces their own uniforms may make fire
    are transformed and checked.
    """

    DECISIONS = (1, 0)  # the upper check comes first

    def __init__(self, cfg: PrivSprtConfig):
        if cfg.thresh_a is None or cfg.thresh_b is None:
            raise ValueError("thresholds are not calibrated; run calibrate_privsprt first")
        super().__init__(cfg, 2)
        self._inc = _clamped_llr(cfg)

    def _first_max(self) -> int:
        return _CHUNK  # a first chunk of one piece

    def _checks(self, chunks, rng_y, rng_z):
        cfg = self.cfg
        z1, z2 = (cfg.sigma1 * ndtri(uniform_open(rng_z, 2))).tolist()
        hi, lo = cfg.thresh_b + z1, -cfg.thresh_a + z2
        carry = 0.0
        for n_done, bits in chunks:
            stat = carry + self._inc[bits].cumsum()
            carry = float(stat[-1])
            if not cfg.sigma2:
                yield n_done, stat >= hi, stat <= lo, None
                continue
            # pieces of _CHUNK steps; a chunk of another size, a short first
            # one or one cut at the horizon, is one piece
            size = _CHUNK if bits.size % _CHUNK == 0 else bits.size
            smax, smin = stat.reshape(-1, size).max(axis=1), stat.reshape(-1, size).min(axis=1)
            far = 0  # the leading pieces no noise value can make fire
            if smax.size > 1:
                top, bot = smax + cfg.sigma2 * _Y_TOP, smin + cfg.sigma2 * _Y_BOT
                near = (top >= hi) | (bot <= lo)
                far = int(near.argmax())
                if not near[far]:
                    far = near.size
                skip(rng_y, 2 * size * far, 2 * n_done)  # two Y words per step so far
                if far == smax.size:
                    continue
            u = uniform_open(rng_y, 2 * (bits.size - far * size))
            top, bot = _extremes(smax[far:], smin[far:], u.reshape(-1, 2 * size), cfg.sigma2)
            for i in ((top >= hi) | (bot <= lo)).nonzero()[0].tolist():
                s = stat[(far + i) * size : (far + i + 1) * size]
                y = cfg.sigma2 * ndtri(u[2 * i * size : 2 * (i + 1) * size])
                yield n_done + (far + i) * size, s + y[0::2] >= hi, s + y[1::2] <= lo, None


def run_privsprt(cfg: PrivSprtConfig | Trial, observations: Iterable[int]) -> TestOutcome:
    """Run PrivSPRT on a bit stream.

    Per step the clamped log-likelihood ratio joins the running sum; the
    upper comparison statistic + Y1 >= b + Z1 is checked first (decision 1),
    then statistic + Y2 <= -a + Z2 (decision 0). The caller supplies the
    observations. On a bare config the noise streams are those of seed 0;
    to key another seed, pass `PrivSprtKernel(cfg).trial(seed)` in place of
    the config, as the harness does by (master_seed, cell, trial).
    """
    if isinstance(cfg, PrivSprtConfig):
        cfg = PrivSprtKernel(cfg).trial(0)
    return cfg.run(observations)


def default_threshold_grid(cfg: PrivSprtConfig, target_alpha: float) -> list[tuple[float, float]]:
    """Bracketing grid a, b in {log(1/alpha) * 5^k : k = 0..5} squared.

    The workable threshold scale grows with the noise level and spans
    orders of magnitude across privacy regimes, so the ladder brackets
    coarsely upward from the Wald-style threshold log(1/alpha) (the zero
    noise operating point) rather than searching finely near it.
    """
    w = math.log(1.0 / target_alpha)
    vals = [w * 5.0**k for k in range(6)]
    return [(a, b) for a in vals for b in vals]


class _Drawn:
    """A block `Generator.random` has already filled, row by row with
    ``random(out=row)``, in place of a generator: ``uniform_open(_Drawn(u),
    u.shape)`` turns it in place, in one pass, into the rows' uniforms."""

    def __init__(self, u: np.ndarray):
        self._u = u

    def random(self, size) -> np.ndarray:
        return self._u.reshape(size)


class _Pilots:
    """Pilot paths extended in lockstep: per path the LLR carry, the step
    count, and the first step at which a margin crossed each grid value.

    A block's uniforms are drawn only in the rows that some noise value can
    carry to their next uncrossed value on either side (the others owe their
    Y words, skipped before the path's next draw), and transformed only in
    the rows whose `_extremes` reach it; no other row can record a crossing.
    """

    def __init__(self, cfg: PrivSprtConfig, grid, probs: list[float], tokens: list[int]):
        self._cfg, self._below = cfg, [raw_below(p) for p in probs]
        roles = (Substream.OBS, Substream.NOISE_Y, Substream.NOISE_Z)
        words = stream_words(np.array(tokens, dtype=np.uint64)[:, None], substream=roles)
        self._obs, self._y, rngs_z = (
            [derive(StreamKey(t, substream=s, known_words=w)) for t, w in zip(tokens, words[:, j])]
            for j, s in enumerate(roles))
        self._z = np.array([cfg.sigma1 * ndtri(uniform_open(rng, 2)) for rng in rngs_z])
        self._inc = _clamped_llr(cfg)
        self._carry = np.zeros(len(tokens))
        self._n = np.zeros(len(tokens), dtype=np.int64)
        self._owed = np.zeros(len(tokens), dtype=np.int64)  # Y words skipped later
        # sorted distinct b and a values; the crossed ones form a prefix
        self._levels = (np.unique([b for _, b in grid]), np.unique([a for a, _ in grid]))
        self._first = tuple(np.full((len(tokens), v.size), _NEVER) for v in self._levels)

    def decisions(self, a: float, b: float) -> np.ndarray:
        """Each path's decision at (a, b): 1 when the upper margin reaches b
        no later than the lower margin reaches -a (ties go to the upper
        check), 0 for the lower crossing, -1 for neither within the horizon."""
        up = self._first[0][:, np.searchsorted(self._levels[0], b)]
        dn = self._first[1][:, np.searchsorted(self._levels[1], a)]

        def undecided(rows):
            return rows[(np.minimum(up[rows], dn[rows]) == _NEVER)
                        & (self._n[rows] < self._cfg.horizon)]

        todo = undecided(np.arange(up.size))
        for start in range(0, todo.size, _ROWS):
            rows = todo[start : start + _ROWS]
            while rows.size:
                self._extend(rows)
                rows = undecided(rows)
        return np.where(np.minimum(up, dn) == _NEVER, -1, (up <= dn).astype(int))

    def _extend(self, rows: np.ndarray) -> None:
        """Draw one block per path in `rows`, cut at the horizon, and record
        the first step of each threshold the block crosses."""
        cfg = self._cfg
        got = np.minimum(_CHUNK, cfg.horizon - self._n[rows])
        bits = np.zeros((rows.size, got.max()), dtype=bool)
        for i, (r, k) in enumerate(zip(rows.tolist(), got.tolist())):
            bits[i, :k] = self._obs[r].bit_generator.random_raw(k) < self._below[r]
        inc = self._inc.take(bits.view(np.uint8))  # a bit, as a byte 0 or 1, picks its increment
        stat = self._carry[rows, None] + inc.cumsum(axis=1)
        self._carry[rows] = stat[:, -1]  # a row cut at the horizon is never read again
        n = self._n[rows]  # steps before the block
        self._n[rows] += got
        z = self._z[rows]
        done = [np.count_nonzero(first[rows] != _NEVER, axis=1) for first in self._first]
        if not cfg.sigma2:
            y = np.zeros((rows.size, 2 * stat.shape[1]))
        else:
            # the next uncrossed value on either side, +inf once all are crossed
            nxt = [np.append(v, np.inf)[d] for v, d in zip(self._levels, done)]
            smax, smin = stat.max(axis=1), stat.min(axis=1)
            # draw in the rows that some noise value may carry there, or
            # that reach the horizon; the others owe their words
            top, bot = smax + cfg.sigma2 * _Y_TOP, smin + cfg.sigma2 * _Y_BOT
            near = ((top - z[:, 0] >= nxt[0]) | (-(bot - z[:, 1]) >= nxt[1])
                    | (n + got >= cfg.horizon))
            self._owed[rows[~near]] += 2 * got[~near]
            keep = near.nonzero()[0]
            y = np.zeros((keep.size, 2 * stat.shape[1]))
            for j, (r, k, owed, before) in enumerate(zip(
                    rows[keep].tolist(), got[keep].tolist(), self._owed[rows[keep]].tolist(),
                    n[keep].tolist())):
                skip(self._y[r], owed, 2 * before - owed)
                self._y[r].random(out=y[j, : 2 * k])
            self._owed[rows[keep]] = 0
            uniform_open(_Drawn(y), y.shape)  # the rows' uniforms, in place
            # keep the rows whose bounds reach the next value; a cut row's
            # padding, draws of 0 and so the lowest uniform, only loosens them
            top, bot = _extremes(smax[keep], smin[keep], y, cfg.sigma2)
            live = ((top - z[keep, 0] >= nxt[0][keep])
                    | (-(bot - z[keep, 1]) >= nxt[1][keep]))
            keep, y = keep[live], y[live]
            rows, n, got, stat, z, *done = (v[keep] for v in (rows, n, got, stat, z, *done))
            np.multiply(cfg.sigma2, ndtri(y, out=y), out=y)  # in place, in one call
        # the upper margin stat + Y1 - Z1 reaches b; the lower one, negated, a
        margins = (stat + y[:, 0::2] - z[:, :1], -(stat + y[:, 1::2] - z[:, 1:]))
        for levels, first, d, m in zip(self._levels, self._first, done, margins):
            m[np.arange(m.shape[1]) >= got[:, None]] = -np.inf  # past the horizon
            reach = np.searchsorted(levels, m.max(axis=1), side="right")
            for i in np.flatnonzero(reach > d):
                run = np.maximum.accumulate(m[i])
                new = np.searchsorted(run, levels[d[i] : reach[i]])
                first[rows[i], d[i] : reach[i]] = n[i] + 1 + new


def calibrate_privsprt(
    cfg: PrivSprtConfig,
    target_alpha: float,
    target_beta: float,
    grid: Sequence[tuple[float, float]] | None = None,
    pilot_trials: int = 100,
    *,
    rng,
) -> CalibrationResult:
    """Grid-search thresholds against pilot Monte Carlo error estimates.

    Pilot trajectories are shared across grid points (common random
    numbers) and seeded from `rng`, so the search is deterministic given
    (grid, rng's state). Among
    the points whose pilot errors meet both targets, the smallest in
    lexicographic (a+b, a) order wins, favoring faster stopping. Raises
    CalibrationError, listing the best attempt, if no point is feasible.
    At each point the undecided paths grow in lockstep groups of _ROWS, one
    _CHUNK-step block per round; a path keeps only the first step at which
    it crossed each distinct grid value, so a decision compares two integers
    and memory does not grow with path length.
    """
    if pilot_trials < 1:
        raise ValueError("pilot_trials must be positive")
    grid = list(default_threshold_grid(cfg, target_alpha) if grid is None else grid)
    if not grid:
        raise ValueError("threshold grid must be nonempty")
    tokens = [int(rng.integers(0, 1 << 63)) for _ in range(2 * pilot_trials)]
    probs = [cfg.hypotheses.mu0] * pilot_trials + [cfg.hypotheses.mu1] * pilot_trials
    pilots = _Pilots(cfg, grid, probs, tokens)

    # evaluate in selection order and stop at the first feasible point; a
    # point with pilots still undecided at the horizon cannot be certified
    best = None
    for a, b in sorted(grid, key=lambda g: (g[0] + g[1], g[0])):
        dec = pilots.decisions(a, b)
        dec0, dec1 = dec[:pilot_trials], dec[pilot_trials:]
        type1 = int(np.sum(dec0 == 1)) / max(int(np.sum(dec0 >= 0)), 1)
        type2 = int(np.sum(dec1 == 0)) / max(int(np.sum(dec1 >= 0)), 1)
        undecided = int(np.sum(dec < 0))
        if not undecided and type1 <= target_alpha and type2 <= target_beta:
            return CalibrationResult(a, b, type1, type2, pilot_trials)
        gap = math.inf if undecided else max(type1 - target_alpha, type2 - target_beta)
        if best is None or gap < best[0]:
            best = (gap, a, b, type1, type2, undecided)
    _, a, b, type1, type2, undecided = best
    raise CalibrationError(
        f"no feasible grid point; best attempt (a={a:.4g}, b={b:.4g}) had "
        f"type I {type1:.3f} vs {target_alpha} and type II {type2:.3f} vs {target_beta}"
        + (f", with {undecided} of {2 * pilot_trials} pilot paths undecided at the horizon "
           f"{cfg.horizon}" if undecided else "")
    )
