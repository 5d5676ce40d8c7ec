"""Sample-complexity bounds and the two privacy regimes.

The lower bound divides an error-dependent constant by the smaller of the
statistical difficulty (KL) and the privacy difficulty (eps * TV). For
loose eps the statistics dominate and privacy is nearly free; for tight
eps the privacy term takes over and the expected sample size scales like
1/eps. The finite-sample upper bound brackets the Laplace variant from
above, and Monte Carlo runs sit between the two.
"""

import math

from dpsprt import (
    HypothesisPair,
    Laplace,
    PlannedVariant,
    ExperimentPlan,
    TestConfig,
    build_report,
    lemma19,
    run_experiment,
)

hyp = HypothesisPair.of(0.3, 0.7)
alpha = beta = 0.05

print("lower bound on E[tau] under H0, by privacy level:")
print(f"{'eps':>8} {'bound':>10}  regime")
for eps in (0.01, 0.1, 0.5, 1.0, 5.0, None):
    rep = build_report(hyp, alpha, beta, 0.5, eps)
    regime = "privacy-dominated" if eps is not None and eps * hyp.tv < hyp.kl01 else "statistics-dominated"
    label = "none" if eps is None else f"{eps:g}"
    print(f"{label:>8} {rep.lower_h0:>10.2f}  {regime}")

print("\nfull report at eps = 1 (gamma = 0.5):")
rep = build_report(hyp, alpha, beta, 0.5, 1.0)
print(f"  lower_h0        = {rep.lower_h0:10.2f}")
print(f"  upper_h0        = {rep.upper_h0:10.2f}   (exact critical-time search)")
print(f"  closed_upper_h0 = {rep.closed_upper_h0:10.2f}   (log fixed-point closed form)")

print("\nMonte Carlo sits inside the sandwich (1000 trials, Laplace eps=1):")
plan = ExperimentPlan(
    (0,), (PlannedVariant("laplace", TestConfig(hyp, alpha, beta, Laplace(1.0))),), 1000, 2024
)
stats = run_experiment(plan)[0].stats
print(f"  {rep.lower_h0:.1f}  <=  mean tau {stats.mean_tau:.1f}  <=  {rep.upper_h0:.1f}")

print("\nthe fixed-point helper behind the closed forms:")
print(f"  every k with k <= 2 log k + 5 is at most lemma19(2, 5) = {lemma19(2, 5):.3f}")
print(f"  (largest such integer by scan: {max(k for k in range(1, 100) if k <= 2 * math.log(k) + 5)})")
