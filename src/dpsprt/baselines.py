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

from .dp_sprt import BitReader, TestOutcome, Trial, gaussian_scales
from .exp_family import HypothesisPair
from .rngcore import StreamKey, Substream, derive, rekey, uniform_open

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


class PrivSprtKernel:
    """A calibrated PrivSPRT configuration prepared once and run for many
    trials: the clamped log-likelihood-ratio increments, and the Y and Z
    generators, which each run resets to the start of its seed's streams."""

    def __init__(self, cfg: PrivSprtConfig):
        if cfg.thresh_a is None or cfg.thresh_b is None:
            raise ValueError("thresholds are not calibrated; run calibrate_privsprt first")
        self.cfg = cfg
        l1, l0 = llr_steps(cfg.hypotheses)
        self._inc = np.clip(np.array([l0, l1]), -cfg.trunc_a, cfg.trunc_a)
        self._rng_y = derive(StreamKey(cfg.seed, substream=Substream.NOISE_Y))
        self._rng_z = derive(StreamKey(cfg.seed, substream=Substream.NOISE_Z))

    def trial(self, seed: int) -> Trial:
        return Trial(self, seed)

    def run(self, seed: int, observations: Iterable[int]) -> TestOutcome:
        """Run the trial whose noise streams derive from `seed`."""
        cfg = self.cfg
        a, b = cfg.thresh_a, cfg.thresh_b
        rng_y = rekey(self._rng_y, StreamKey(seed, substream=Substream.NOISE_Y))
        rng_z = rekey(self._rng_z, StreamKey(seed, substream=Substream.NOISE_Z))
        z = _gauss(rng_z, cfg.sigma1, 2)
        z1, z2 = float(z[0]), float(z[1])
        carry = 0.0
        for n_done, bits in BitReader(observations).chunks(cfg.horizon, _CHUNK):
            stat = carry + np.cumsum(self._inc[bits])
            y = _gauss(rng_y, cfg.sigma2, 2 * bits.size)
            cond_up = stat + y[0::2] >= b + z1
            cond_dn = stat + y[1::2] <= -a + z2
            fired = cond_up | cond_dn
            if fired.any():
                i = int(np.argmax(fired))
                tau = n_done + i + 1
                return TestOutcome(
                    tau=tau,
                    decision=1 if cond_up[i] else 0,
                    exhausted=False,
                    samples_consumed=tau,
                )
            carry = float(stat[-1])
        return TestOutcome(cfg.horizon, None, True, cfg.horizon)


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


class _PilotPath:
    """One pilot trajectory's noisy boundary margins, extendable on demand.

    Keeps the running max of the upper margin and the running min of the
    lower margin; a grid point (a, b) is decided once the max reaches b or
    the min reaches -a.
    """

    def __init__(self, cfg: PrivSprtConfig, p: float, token: int):
        self._cfg = cfg
        self._p = p
        self._rng_obs = derive(StreamKey(token, substream=Substream.OBS))
        self._rng_y = derive(StreamKey(token, substream=Substream.NOISE_Y))
        self._rng_z = derive(StreamKey(token, substream=Substream.NOISE_Z))
        z = _gauss(self._rng_z, cfg.sigma1, 2)
        self._z1, self._z2 = float(z[0]), float(z[1])
        self._carry = 0.0
        self._n = 0
        self.up = np.empty(0)
        self.down = np.empty(0)

    def ensure_decided(self, a: float, b: float) -> bool:
        """Extend until (a, b) is decided; False if the horizon ran out."""
        while not (
            (self.up.size and self.up[-1] >= b)
            or (self.down.size and self.down[-1] <= -a)
        ):
            if self._n >= self._cfg.horizon:
                return False
            got = min(_CHUNK, self._cfg.horizon - self._n)
            bits = self._rng_obs.random(got) < self._p
            stat = self._carry + truncated_llr_path(
                self._cfg.hypotheses, bits, self._cfg.trunc_a
            )
            y = _gauss(self._rng_y, self._cfg.sigma2, 2 * got)
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

    def decision(self, a: float, b: float) -> int:
        """1 when the upper margin reaches b no later than the lower margin
        reaches -a (ties go to the upper check), 0 for the lower crossing,
        -1 if neither was reached within the horizon."""
        t_up = int(np.searchsorted(self.up, b, side="left"))
        t_dn = int(np.searchsorted(-self.down, a, side="left"))
        if t_up == self.up.size and t_dn == self.down.size:
            return -1
        return 1 if t_up <= t_dn else 0


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
    """
    if pilot_trials < 1:
        raise ValueError("pilot_trials must be positive")
    if rng is None:
        rng = derive(StreamKey(cfg.seed, substream=Substream.PILOT))
    if grid is None:
        grid = default_threshold_grid(cfg, target_alpha)
    grid = list(grid)
    if not grid:
        raise ValueError("threshold grid must be nonempty")
    hyp = cfg.hypotheses
    paths0 = [
        _PilotPath(cfg, hyp.mu0, int(rng.integers(0, 1 << 63))) for _ in range(pilot_trials)
    ]
    paths1 = [
        _PilotPath(cfg, hyp.mu1, int(rng.integers(0, 1 << 63))) for _ in range(pilot_trials)
    ]

    def errors_at(a: float, b: float) -> tuple[float, float, bool]:
        decided_all = True
        for path in paths0 + paths1:
            decided_all &= path.ensure_decided(a, b)
        dec0 = [p.decision(a, b) for p in paths0]
        dec1 = [p.decision(a, b) for p in paths1]
        n0 = max(sum(d >= 0 for d in dec0), 1)
        n1 = max(sum(d >= 0 for d in dec1), 1)
        type1 = sum(d == 1 for d in dec0) / n0
        type2 = sum(d == 0 for d in dec1) / n1
        return type1, type2, decided_all

    # evaluate in selection order and stop at the first feasible point; a
    # point with pilots still undecided at the horizon cannot be certified
    best = None
    for a, b in sorted(grid, key=lambda g: (g[0] + g[1], g[0])):
        type1, type2, decided_all = errors_at(a, b)
        if decided_all and type1 <= target_alpha and type2 <= target_beta:
            return CalibrationResult(a, b, type1, type2, pilot_trials)
        gap = max(type1 - target_alpha, type2 - target_beta)
        if not decided_all:
            gap = math.inf
        if best is None or gap < best[0]:
            best = (gap, a, b, type1, type2)
    _, a, b, type1, type2 = best
    raise CalibrationError(
        f"no feasible grid point; best attempt (a={a:.4g}, b={b:.4g}) had "
        f"type I {type1:.3f} vs {target_alpha} and type II {type2:.3f} vs {target_beta}"
    )
