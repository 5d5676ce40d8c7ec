"""Bernoulli one-parameter exponential-family arithmetic.

Natural parameterization: theta = log(p/(1-p)), log-partition
b(theta) = log(1+e^theta), mean mu(theta) = e^theta/(1+e^theta).
KL and TV divergences come in both mean-space and natural-parameter forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "HypothesisPair",
    "natural_param",
    "mean_from_natural",
    "log_partition",
    "kl_bernoulli",
    "kl_exponential_form",
    "tv_bernoulli",
]


def natural_param(p: float) -> float:
    """Log-odds of `p`. Rejects the boundary: downstream stopping rules
    divide by KL divergences and theta gaps, which degenerate there."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in the open interval (0,1), got {p}")
    return math.log(p / (1.0 - p))


def mean_from_natural(theta: float) -> float:
    """Mean e^theta/(1+e^theta); inverse of :func:`natural_param`."""
    if theta >= 0.0:
        return 1.0 / (1.0 + math.exp(-theta))
    e = math.exp(theta)
    return e / (1.0 + e)


def log_partition(theta: float) -> float:
    """log(1+e^theta), in the stable form max(theta,0)+log1p(e^-|theta|)."""
    return max(theta, 0.0) + math.log1p(math.exp(-abs(theta)))


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q).

    Uses the 0*log(0) = 0 convention. A degenerate `q` with p != q gives an
    explicitly infinite result rather than an exception.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0,1], got {q}")
    if p == q:
        return 0.0
    if q == 0.0 or q == 1.0:
        return math.inf
    acc = 0.0
    if p > 0.0:
        acc += p * math.log(p / q)
    if p < 1.0:
        acc += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return acc


def kl_exponential_form(theta: float, theta_prime: float) -> float:
    """KL divergence in natural parameters:
    mu(theta)*(theta - theta') - b(theta) + b(theta')."""
    return (
        mean_from_natural(theta) * (theta - theta_prime)
        - log_partition(theta)
        + log_partition(theta_prime)
    )


def tv_bernoulli(p: float, q: float) -> float:
    """Total variation distance |p - q| between two Bernoulli laws."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError("probabilities must lie in [0,1]")
    return abs(p - q)


@dataclass(frozen=True)
class HypothesisPair:
    """Two ordered Bernoulli hypotheses with their natural parameters and
    derived divergences.

    Requires mu0 < mu1, hence theta0 < theta1.
    """

    mu0: float
    mu1: float
    theta0: float = field(init=False)
    theta1: float = field(init=False)
    kl01: float = field(init=False)
    kl10: float = field(init=False)
    tv: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta0", natural_param(self.mu0))
        object.__setattr__(self, "theta1", natural_param(self.mu1))
        if not self.mu0 < self.mu1:
            raise ValueError(
                f"hypotheses must be ordered h0.p < h1.p, got {self.mu0} >= {self.mu1}"
            )
        object.__setattr__(self, "kl01", kl_bernoulli(self.mu0, self.mu1))
        object.__setattr__(self, "kl10", kl_bernoulli(self.mu1, self.mu0))
        object.__setattr__(self, "tv", tv_bernoulli(self.mu0, self.mu1))

    @classmethod
    def of(cls, p0: float, p1: float) -> "HypothesisPair":
        return cls(p0, p1)

    @property
    def dtheta(self) -> float:
        """Gap theta1 - theta0, always positive."""
        return self.theta1 - self.theta0
