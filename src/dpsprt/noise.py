"""Noise samplers and threshold-widening corrections.

The private tests add a per-step query noise Y and a one-shot threshold
noise Z, then widen the stopping thresholds by a deterministic correction
C(n, delta) sized so that the union over time of noise-tail events has
probability at most delta. Laplace noise gives pure DP, Gaussian gives
Renyi DP, and a degenerate zero-noise family serves as a test double.

Samplers map uniforms through inverse CDFs so that a seeded stream fully
determines the draws, independent of platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import ndtri

from .rngcore import uniform_open

__all__ = [
    "NoiseFamily",
    "NoiseSpec",
    "CorrectionParams",
    "riemann_zeta",
    "sample_y",
    "sample_z",
    "correction",
    "correction_vec",
    "density_ratio_bound_check",
]


class NoiseFamily(Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"
    ZERO = "zero"


@dataclass(frozen=True)
class NoiseSpec:
    """Which noise family and scales govern the query noise Y and the
    threshold noise Z. Scales are the Laplace scale b or the Gaussian
    standard deviation; the zero family ignores them."""

    family: NoiseFamily
    scale_y: float = 0.0
    scale_z: float = 0.0

    def __post_init__(self) -> None:
        if self.family is not NoiseFamily.ZERO:
            if self.scale_y <= 0.0 or self.scale_z <= 0.0:
                raise ValueError("noise scales must be positive")

    @classmethod
    def laplace_default(cls, epsilon: float) -> "NoiseSpec":
        """Laplace scales 4/eps for Y and 2/eps for Z, the calibration that
        makes the overall test eps-DP."""
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        return cls(NoiseFamily.LAPLACE, 4.0 / epsilon, 2.0 / epsilon)

    @classmethod
    def gaussian(cls, sigma_y: float, sigma_z: float) -> "NoiseSpec":
        return cls(NoiseFamily.GAUSSIAN, sigma_y, sigma_z)

    @classmethod
    def zero(cls) -> "NoiseSpec":
        return cls(NoiseFamily.ZERO)


def riemann_zeta(s: float, terms: int = 200) -> float:
    """zeta(s) for s > 1 by direct summation with an Euler-Maclaurin tail.

    Accurate to well below 1e-12 for s >= 1.05 with the default term count.
    """
    if s <= 1.0:
        raise ValueError("zeta(s) requires s > 1")
    n = np.arange(1, terms + 1, dtype=np.float64)
    head = float(np.sum(n**-s))
    m = float(terms)
    tail = m ** (1.0 - s) / (s - 1.0) - 0.5 * m**-s
    tail += s * m ** (-s - 1.0) / 12.0
    tail -= s * (s + 1.0) * (s + 2.0) * m ** (-s - 3.0) / 720.0
    tail += s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * m ** (-s - 5.0) / 30240.0
    return head + tail


@dataclass(frozen=True)
class CorrectionParams:
    """Parameters of the correction function C(n, delta).

    The per-step tail budget is delta/(n^s * zeta(s)); s > 1 makes the
    budgets summable with total delta. kappa rescales C; any kappa < 1
    voids the formal correctness guarantee and is flagged in outputs.
    zeta_s is derived from s, also in a copy made by `dataclasses.replace`.
    """

    s: float = 2.0
    epsilon: float | None = None
    sigma_sum_sq: float | None = None
    kappa: float = 1.0
    zeta_s: float = field(init=False)

    def __post_init__(self) -> None:
        if self.s <= 1.0:
            raise ValueError("zeta exponent s must exceed 1")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must lie in (0, 1]")
        object.__setattr__(self, "zeta_s", riemann_zeta(self.s))


def _laplace_from_uniform(u, scale):
    centered = u - 0.5
    return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def _gaussian_from_uniform(u, scale):
    return scale * ndtri(u)


def _draw(family: NoiseFamily, scale: float, rng, size=None):
    if family is NoiseFamily.ZERO:
        return 0.0 if size is None else np.zeros(size)
    u = uniform_open(rng, size)
    if family is NoiseFamily.LAPLACE:
        return _laplace_from_uniform(u, scale)
    return _gaussian_from_uniform(u, scale)


def sample_y(spec: NoiseSpec, rng, size=None):
    """Draw from the query-noise distribution (one value, or `size` many)."""
    return _draw(spec.family, spec.scale_y, rng, size)


def sample_z(spec: NoiseSpec, rng, size=None):
    """Draw from the threshold-noise distribution."""
    return _draw(spec.family, spec.scale_z, rng, size)


def correction_vec(
    params: CorrectionParams,
    family: NoiseFamily,
    n: np.ndarray,
    delta: float,
) -> np.ndarray:
    """Vectorized C(n, delta) over an array of step counts."""
    n = np.asarray(n, dtype=np.float64)
    if np.any(n < 1):
        raise ValueError("n must be >= 1")
    if family is NoiseFamily.ZERO:  # whatever delta: the classical test's is 0
        return np.zeros_like(n)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    factor = 1.0 if family is NoiseFamily.LAPLACE else 2.0
    log_arg = params.s * np.log(n) + math.log(params.zeta_s) - math.log(factor * delta)
    if np.any(log_arg <= 0.0):
        # zeta(s) > 1 > delta keeps the Laplace argument positive for n >= 1;
        # the Gaussian one, at factor 2, needs 2 * delta < zeta(s)
        raise ValueError(f"the {family.value} correction needs {factor:g} * delta below "
                         f"zeta(s) = {params.zeta_s:g}, got delta = {delta:g}")
    if family is NoiseFamily.LAPLACE:
        if params.epsilon is None or params.epsilon <= 0.0:
            raise ValueError("Laplace correction requires a positive epsilon")
        # n * epsilon overflows near the float maximum, to the right limit 0
        with np.errstate(over="ignore"):
            return params.kappa * 6.0 * log_arg / (n * params.epsilon)
    if params.sigma_sum_sq is None or params.sigma_sum_sq <= 0.0:
        raise ValueError("Gaussian correction requires positive sigma_sum_sq")
    return params.kappa * np.sqrt(2.0 * params.sigma_sum_sq * log_arg) / n


def correction(
    params: CorrectionParams,
    family: NoiseFamily,
    n: int,
    delta: float,
) -> float:
    """Threshold widening C(n, delta) for one step count."""
    return float(correction_vec(params, family, np.array([float(n)]), delta)[0])


def density_ratio_bound_check(
    family: NoiseFamily,
    scale: float,
    sensitivity: float,
    epsilon: float,
    grid,
) -> bool:
    """Check pdf(z - sensitivity) <= e^epsilon * pdf(z) on every grid point.

    For Laplace with scale = sensitivity/epsilon the bound is tight, so the
    comparison happens in log space with a 1e-12 slack for the equality case.
    """
    if family is NoiseFamily.ZERO:
        raise ValueError("zero noise has no density")
    if scale <= 0.0 or sensitivity <= 0.0:
        raise ValueError("scale and sensitivity must be positive")
    z = np.asarray(grid, dtype=np.float64)
    if z.size == 0:
        raise ValueError("grid must be nonempty")
    if family is NoiseFamily.LAPLACE:
        log_ratio = (np.abs(z) - np.abs(z - sensitivity)) / scale
    else:
        log_ratio = (2.0 * z * sensitivity - sensitivity**2) / (2.0 * scale**2)
    return bool(np.all(log_ratio <= epsilon + 1e-12))
