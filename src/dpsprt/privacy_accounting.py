"""Closed-form privacy guarantees for the configured test variants.

Laplace runs carry a pure DP budget. Gaussian runs carry a Renyi DP
profile whose data-dependent term needs an upper bound on the squared
conditional expectation of the stopping time; that bound is never
defaulted silently, it is either asserted by the caller or estimated from
pilot runs and labeled as such. Every guarantee is a plain float, or a
pair of them.
"""

from __future__ import annotations

import math

from .dp_sprt import TestConfig, TestKernel, run_test
from .harness import BitStream
from .rngcore import StreamKey, Substream, derive

__all__ = [
    "laplace_budget",
    "gaussian_rdp_profile",
    "gaussian_epsilon",
    "estimate_tau_sq",
]


def laplace_budget(scale_y: float, scale_z: float) -> float:
    """Pure DP budget of a Laplace run, 1/scale_z + 2/scale_y: Z covers
    sensitivity 1 and Y sensitivity 2. At the default scales (4/eps, 2/eps)
    this is the configured epsilon."""
    if not (scale_y > 0.0 and scale_z > 0.0):
        raise ValueError("both noise scales must be positive")
    return 1.0 / scale_z + 2.0 / scale_y


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


def gaussian_epsilon(
    sigma_y: float,
    sigma_z: float,
    tau_sq_bound: float,
    delta: float,
) -> tuple[float, float]:
    """(epsilon, alpha): a Gaussian run is (epsilon, delta)-DP by Mironov's
    conversion ("Renyi Differential Privacy", CSF 2017, Prop. 3) of its Renyi
    profile at the order alpha where it is least. With x = alpha - 1,
    A = 1/sigma_z^2, B = 1/(2 sigma_y^2) and C = A/2 + log(2 tau_sq_bound)/2
    + log(1/delta), the profile plus log(1/delta)/x is (A + B) x + C/x
    + 3A/2 + B, least at x = sqrt(C/(A + B))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    a, b = 1.0 / sigma_z**2, 0.5 / sigma_y**2
    c = 0.5 * a + 0.5 * math.log(2.0 * tau_sq_bound) - math.log(delta)
    alpha = 1.0 + math.sqrt(c / (a + b))
    eps = gaussian_rdp_profile(sigma_y, sigma_z, tau_sq_bound, alpha)
    return eps - math.log(delta) / (alpha - 1.0), alpha


def estimate_tau_sq(cfg: TestConfig, n_pilot: int, rng) -> tuple[float, bool]:
    """Monte Carlo estimate of E[tau^2] under the worst of the two
    hypotheses, as a one-sided 95% upper confidence value: an estimate, not
    a certified bound.

    Runs n_pilot pilot trials under each hypothesis with streams seeded
    from `rng`, and returns (value, reliable); any exhausted pilot marks the
    estimate unreliable.
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
    return worst, reliable
