"""Closed-form privacy guarantees for the configured test variants.

Laplace runs carry a pure DP budget. Gaussian runs carry a Renyi DP
profile whose data-dependent term needs an upper bound on the squared
conditional expectation of the stopping time; that bound is never
defaulted silently, it is either asserted by the caller or estimated from
pilot runs and labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .dp_sprt import TestConfig, TestKernel, run_test
from .harness import BitStream
from .rngcore import StreamKey, Substream, derive

__all__ = [
    "PureDP",
    "ApproxDP",
    "laplace_budget",
    "gaussian_rdp_profile",
    "rdp_to_approx_dp",
    "TauSqEstimate",
    "estimate_tau_sq",
]


@dataclass(frozen=True)
class PureDP:
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")


@dataclass(frozen=True)
class ApproxDP:
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.epsilon < 0.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("need epsilon >= 0 and delta in (0,1)")


def laplace_budget(
    epsilon: float | None = None,
    *,
    scale_y: float | None = None,
    scale_z: float | None = None,
) -> PureDP:
    """Pure DP budget of a Laplace run.

    With the default scales (Y at 4/eps covering sensitivity 2, Z at 2/eps
    covering sensitivity 1) the budget is exactly the configured epsilon.
    Explicit scales instead give 1/scale_z + 2/scale_y.
    """
    if scale_y is not None or scale_z is not None:
        if scale_y is None or scale_z is None or scale_y <= 0.0 or scale_z <= 0.0:
            raise ValueError("both noise scales must be given and positive")
        return PureDP(1.0 / scale_z + 2.0 / scale_y)
    if epsilon is None or epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    return PureDP(epsilon)


def gaussian_rdp_profile(
    sigma_y: float,
    sigma_z: float,
    tau_sq_bound: float,
    alpha: float,
) -> float:
    """Renyi DP bound at order alpha for a Gaussian run:

        (alpha - 1/2)/(alpha - 1) * alpha/sigma_z^2
        + alpha/(2 sigma_y^2)
        + log(2 * tau_sq_bound) / (2 (alpha - 1))

    where tau_sq_bound upper-bounds the expectation over the threshold
    noise of the squared conditional mean stopping time.
    """
    if alpha <= 1.0:
        raise ValueError("Renyi order alpha must exceed 1")
    if sigma_y <= 0.0 or sigma_z <= 0.0:
        raise ValueError("sigmas must be positive")
    if tau_sq_bound <= 0.0:
        raise ValueError("tau_sq_bound must be positive")
    return (
        (alpha - 0.5) / (alpha - 1.0) * alpha / sigma_z**2
        + alpha / (2.0 * sigma_y**2)
        + math.log(2.0 * tau_sq_bound) / (2.0 * (alpha - 1.0))
    )


def rdp_to_approx_dp(
    profile: Callable[[float], float],
    alpha: float,
    target_eps: float,
) -> ApproxDP:
    """Convert an RDP profile at order alpha to (target_eps, delta)-DP via
    delta = exp(-(alpha-1)(target_eps - profile(alpha)))."""
    if alpha <= 1.0:
        raise ValueError("Renyi order alpha must exceed 1")
    eps_alpha = profile(alpha)
    if target_eps <= eps_alpha:
        raise ValueError(
            f"target epsilon {target_eps} must exceed the profile value {eps_alpha}"
        )
    return ApproxDP(target_eps, math.exp(-(alpha - 1.0) * (target_eps - eps_alpha)))


@dataclass(frozen=True)
class TauSqEstimate:
    """Pilot-run estimate of E[tau^2]; an estimate, not a certified bound."""

    value: float
    reliable: bool
    n_pilot: int
    source: str = "pilot"


def estimate_tau_sq(cfg: TestConfig, n_pilot: int, rng) -> TauSqEstimate:
    """Monte Carlo estimate of E[tau^2] under the worst of the two
    hypotheses, as a one-sided 95% upper confidence value.

    Runs n_pilot pilot trials under each hypothesis with streams seeded
    from `rng`. Any exhausted pilot marks the estimate unreliable.
    """
    if n_pilot < 100:
        raise ValueError("need at least 100 pilot runs")
    kernel = TestKernel(cfg)
    worst = 0.0
    reliable = True
    for p in (cfg.hypotheses.mu0, cfg.hypotheses.mu1):
        sq_sum = 0.0
        sq_sumsq = 0.0
        tokens = [int(rng.integers(0, 1 << 63)) for _ in range(n_pilot)]
        for token, trial in zip(tokens, kernel.trials(tokens)):
            obs = BitStream(p, derive(StreamKey(token, substream=Substream.PILOT)))
            out = run_test(trial, obs)
            if out.exhausted:
                reliable = False
            t2 = float(out.tau) ** 2
            sq_sum += t2
            sq_sumsq += t2 * t2
        mean = sq_sum / n_pilot
        var = max(sq_sumsq / n_pilot - mean * mean, 0.0)
        upper = mean + 1.645 * math.sqrt(var / n_pilot)
        worst = max(worst, upper)
    return TauSqEstimate(worst, reliable, n_pilot)
