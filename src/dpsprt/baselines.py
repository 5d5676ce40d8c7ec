"""PrivSPRT comparator: privatized truncated log-likelihood-ratio test.

PrivSPRT accumulates per-observation log-likelihood ratios clamped to
[-A, A] and privatizes the running sum with two independent Gaussian noise
streams, one per boundary, each with its own one-shot threshold noise. Its
thresholds (a, b) carry no closed-form calibration; they are tuned by grid
search against pilot Monte Carlo error estimates.
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
    "truncated_llr_path",
    "PrivSprtKernel",
    "run_privsprt",
    "default_threshold_grid",
    "calibrate_privsprt",
]

# steps per pilot-path extension and in a run's first chunk: PrivSPRT
# stops about twice as late as the Laplace test at the same epsilon
_CHUNK = 512
# pilot paths extended together in one block array; a cap keeps the block
# small, so calibration's peak memory stays below that of the trials
_ROWS = 32
_NEVER = np.iinfo(np.int64).max  # first-crossing step of a threshold never crossed


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
    seed: int = 0

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
        seed: int = 0,
    ) -> "PrivSprtConfig":
        """Noise levels matched to the Gaussian test at the same (eps, delta):
        sigma1 = 2*sqrt(2)*A*sigma_Z and sigma2 = 2*sqrt(2)*A*sigma_Y."""
        sigma_y, sigma_z = gaussian_scales(epsilon, delta)
        k = 2.0 * math.sqrt(2.0) * trunc_a
        return cls(hyp, k * sigma_z, k * sigma_y, trunc_a, None, None, horizon, seed)


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


def truncated_llr_path(hyp: HypothesisPair, bits, trunc_a: float) -> np.ndarray:
    """Cumulative sum of per-observation log-likelihood ratios clamped to
    [-trunc_a, trunc_a]; the raw PrivSPRT statistic over a bit array."""
    l1, l0 = llr_steps(hyp)
    inc = np.clip(np.where(np.asarray(bits) == 1, l1, l0), -trunc_a, trunc_a)
    return np.cumsum(inc)


def _gauss(rng, sigma: float, size=None):
    if sigma == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return sigma * ndtri(uniform_open(rng, size))


class PrivSprtKernel(Kernel):
    """A calibrated PrivSPRT configuration prepared once and run for many
    trials, with its clamped log-likelihood-ratio increments."""

    FIRST_CHUNK = _CHUNK
    DECISIONS = (1, 0)  # the upper check comes first

    def __init__(self, cfg: PrivSprtConfig):
        if cfg.thresh_a is None or cfg.thresh_b is None:
            raise ValueError("thresholds are not calibrated; run calibrate_privsprt first")
        super().__init__(cfg, 2)
        l1, l0 = llr_steps(cfg.hypotheses)
        self._inc = np.clip(np.array([l0, l1]), -cfg.trunc_a, cfg.trunc_a)

    def _checks(self, chunks, rng_y, rng_z):
        cfg = self.cfg
        a, b = cfg.thresh_a, cfg.thresh_b
        z1, z2 = _gauss(rng_z, cfg.sigma1, 2)
        carry = 0.0
        for n_done, bits in chunks:
            stat = carry + np.cumsum(self._inc[bits])
            y = _gauss(rng_y, cfg.sigma2, 2 * bits.size)
            yield n_done, stat + y[0::2] >= b + z1, stat + y[1::2] <= -a + z2, None
            carry = float(stat[-1])


def run_privsprt(cfg: PrivSprtConfig | Trial, observations: Iterable[int]) -> TestOutcome:
    """Run PrivSPRT on a bit stream.

    Per step the clamped log-likelihood ratio joins the running sum; the
    upper comparison statistic + Y1 >= b + Z1 is checked first (decision 1),
    then statistic + Y2 <= -a + Z2 (decision 0). In place of a config, `cfg`
    may be a prepared kernel's `trial(seed)`.
    """
    if isinstance(cfg, PrivSprtConfig):
        cfg = PrivSprtKernel(cfg).trial(cfg.seed)
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
    count, and the first step at which a margin crossed each grid value."""

    def __init__(self, cfg: PrivSprtConfig, grid, probs: list[float], tokens: list[int]):
        self._cfg, self._probs = cfg, probs
        self._obs, self._y, rngs_z = (
            [derive(StreamKey(t, substream=s)) for t in tokens]
            for s in (Substream.OBS, Substream.NOISE_Y, Substream.NOISE_Z))
        self._z = np.array([_gauss(rng, cfg.sigma1, 2) for rng in rngs_z])
        l1, l0 = llr_steps(cfg.hypotheses)
        self._inc = np.clip(np.array([l0, l1]), -cfg.trunc_a, cfg.trunc_a)
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
        if cfg.sigma2:  # _gauss, in place and in one call for the block
            np.multiply(cfg.sigma2, ndtri(y, out=y), out=y)
        stat = self._carry[rows, None] + np.cumsum(self._inc[bits], axis=1)
        # the upper margin stat + Y1 - Z1 reaches b; the lower one, negated, a
        z = self._z[rows]
        margins = (stat + y[:, 0::2] - z[:, :1], -(stat + y[:, 1::2] - z[:, 1:]))
        for levels, first, m in zip(self._levels, self._first, margins):
            m[np.arange(m.shape[1]) >= got[:, None]] = -np.inf  # past the horizon
            done = np.count_nonzero(first[rows] != _NEVER, axis=1)
            reach = np.searchsorted(levels, m.max(axis=1), side="right")
            for i in np.flatnonzero(reach > done):
                run = np.maximum.accumulate(m[i])
                new = np.searchsorted(run, levels[done[i] : reach[i]])
                first[rows[i], done[i] : reach[i]] = self._n[rows[i]] + 1 + new
        self._carry[rows] = stat[:, -1]  # a row cut at the horizon is never read again
        self._n[rows] += got


def calibrate_privsprt(
    cfg: PrivSprtConfig,
    target_alpha: float,
    target_beta: float,
    grid: Sequence[tuple[float, float]] | None = None,
    pilot_trials: int = 100,
    rng=None,
) -> CalibrationResult:
    """Grid-search thresholds against pilot Monte Carlo error estimates.

    Pilot trajectories are shared across grid points (common random
    numbers), so the search is deterministic given (grid, rng seed). Among
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
    if rng is None:
        rng = derive(StreamKey(cfg.seed, substream=Substream.PILOT))
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
        decided_all = bool(np.all(dec >= 0))
        if decided_all and type1 <= target_alpha and type2 <= target_beta:
            return CalibrationResult(a, b, type1, type2, pilot_trials)
        gap = max(type1 - target_alpha, type2 - target_beta) if decided_all else math.inf
        if best is None or gap < best[0]:
            best = (gap, a, b, type1, type2)
    _, a, b, type1, type2 = best
    raise CalibrationError(
        f"no feasible grid point; best attempt (a={a:.4g}, b={b:.4g}) had "
        f"type I {type1:.3f} vs {target_alpha} and type II {type2:.3f} vs {target_beta}"
    )
