"""PrivSPRT comparator: privatized truncated log-likelihood-ratio test.

PrivSPRT accumulates per-observation log-likelihood ratios clamped to
[-A, A] and privatizes the running sum with two independent Gaussian noise
streams, one per boundary, each with its own one-shot threshold noise. Its
thresholds (a, b) carry no closed-form calibration; they are tuned by grid
search against pilot Monte Carlo error estimates.

Both the trials and the pilot paths draw every noise uniform, but apply the
inverse normal CDF only where a check could fire: a bound on a block's
margins, taken from its extreme uniforms, shows most blocks far from every
threshold at small epsilon. Outcomes and streams are those of transforming
every value (see `_extremes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtri

from .dp_sprt import Kernel, TestOutcome, Trial, gaussian_scales
from .exp_family import HypothesisPair
from .rngcore import StreamKey, Substream, derive, uniform_open

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

# steps per pilot-path extension, in a run's first chunk, and per piece a
# run checks: PrivSPRT stops about twice as late as the Laplace test at the
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


def _extremes(stat, u, sigma2: float):
    """Bounds, over the last axis, on the noisy statistic of a block whose
    noise uniforms are `u` (Y1 at even places, Y2 at odd ones): every
    stat + sigma2*ndtri(u[0::2]) is at most `top`, and every
    stat + sigma2*ndtri(u[1::2]) at least `bot`, as computed in floating
    point. Rounding of +, - and * by sigma2 > 0 is monotone, and ndtri is
    monotone up to _SLACK, so no value of a block lies past its bounds."""
    top = stat.max(axis=-1) + sigma2 * (ndtri(u[..., 0::2].max(axis=-1)) + _SLACK)
    bot = stat.min(axis=-1) + sigma2 * (ndtri(u[..., 1::2].min(axis=-1)) - _SLACK)
    return top, bot


class PrivSprtKernel(Kernel):
    """A calibrated PrivSPRT configuration prepared once and run for many
    trials, with its clamped log-likelihood-ratio increments.

    Each chunk draws all 2k of its noise uniforms and is then checked in
    pieces of _CHUNK steps. A piece whose `_extremes` lie inside
    (-a + Z2, b + Z1) cannot fire: it is left out, and its uniforms are
    never transformed.
    """

    DECISIONS = (1, 0)  # the upper check comes first

    def __init__(self, cfg: PrivSprtConfig):
        if cfg.thresh_a is None or cfg.thresh_b is None:
            raise ValueError("thresholds are not calibrated; run calibrate_privsprt first")
        super().__init__(cfg, 2)
        self._inc = _clamped_llr(cfg)

    def _first_chunk(self) -> int:
        return _CHUNK

    def _checks(self, chunks, rng_y, rng_z):
        cfg = self.cfg
        z1, z2 = cfg.sigma1 * ndtri(uniform_open(rng_z, 2))
        hi, lo = cfg.thresh_b + z1, -cfg.thresh_a + z2
        carry = 0.0
        for n_done, bits in chunks:
            stat = carry + np.cumsum(self._inc[bits])
            carry = float(stat[-1])
            if not cfg.sigma2:
                yield n_done, stat >= hi, stat <= lo, None
                continue
            u = uniform_open(rng_y, 2 * bits.size)
            # pieces of _CHUNK steps (a chunk cut at the horizon is one piece)
            size = _CHUNK if bits.size % _CHUNK == 0 else bits.size
            top, bot = _extremes(stat.reshape(-1, size), u.reshape(-1, 2 * size), cfg.sigma2)
            for i in np.flatnonzero((top >= hi) | (bot <= lo)):
                s = stat[i * size : (i + 1) * size]
                y = cfg.sigma2 * ndtri(u[2 * i * size : 2 * (i + 1) * size])
                yield n_done + i * size, s + y[0::2] >= hi, s + y[1::2] <= lo, None


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


class _Pilots:
    """Pilot paths extended in lockstep: per path the LLR carry, the step
    count, and the first step at which a margin crossed each grid value.

    A block's uniforms are transformed, and its margins searched, only in
    the rows whose `_extremes` reach the row's next uncrossed value on
    either side; no other row can record a crossing in that block.
    """

    def __init__(self, cfg: PrivSprtConfig, grid, probs: list[float], tokens: list[int]):
        self._cfg, self._probs = cfg, probs
        self._obs, self._y, rngs_z = (
            [derive(StreamKey(t, substream=s)) for t in tokens]
            for s in (Substream.OBS, Substream.NOISE_Y, Substream.NOISE_Z))
        self._z = np.array([cfg.sigma1 * ndtri(uniform_open(rng, 2)) for rng in rngs_z])
        self._inc = _clamped_llr(cfg)
        self._carry = np.zeros(len(tokens))
        self._n = np.zeros(len(tokens), dtype=np.int64)
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
        bits = np.zeros((rows.size, got.max()), dtype=np.intp)
        y = np.zeros((rows.size, 2 * got.max()))
        for i, (r, k) in enumerate(zip(rows, got)):
            bits[i, :k] = self._obs[r].random(k) < self._probs[r]
            if cfg.sigma2:
                y[i, : 2 * k] = uniform_open(self._y[r], 2 * k)
        stat = self._carry[rows, None] + np.cumsum(self._inc[bits], axis=1)
        self._carry[rows] = stat[:, -1]  # a row cut at the horizon is never read again
        n = self._n[rows]  # steps before the block
        self._n[rows] += got
        z = self._z[rows]
        done = [np.count_nonzero(first[rows] != _NEVER, axis=1) for first in self._first]
        if cfg.sigma2:
            # keep the rows whose bounds reach the next uncrossed value on
            # either side (+inf once all are crossed); a cut row's padding,
            # uniforms of 0, only loosens its bounds
            top, bot = _extremes(stat, y, cfg.sigma2)
            nxt = [np.append(v, np.inf)[d] for v, d in zip(self._levels, done)]
            live = (top - z[:, 0] >= nxt[0]) | (-(bot - z[:, 1]) >= nxt[1])
            rows, n, got, stat, y, z, *done = (v[live] for v in (rows, n, got, stat, y, z, *done))
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
