"""Head-to-head against the PrivSPRT baseline.

PrivSPRT privatizes the running sum of truncated log-likelihood ratios
with two independent Gaussian noise streams and tunes its thresholds by
grid search against pilot simulations. The calibrated private SPRT needs
no tuning: its thresholds come from closed-form calibration, and at
matched noise levels it stops sooner.
"""

from dataclasses import replace

from dpsprt import (
    ExperimentPlan,
    HypothesisPair,
    Laplace,
    PlannedVariant,
    PrivSprtConfig,
    StreamKey,
    Substream,
    TestConfig,
    calibrate_privsprt,
    derive,
    run_experiment,
)

hyp = HypothesisPair.of(0.3, 0.7)
alpha = beta = 0.05
eps = 1.0

base = PrivSprtConfig.from_epsilon(hyp, eps, delta=1e-5)
print(f"PrivSPRT noise at eps = {eps}: sigma1 = {base.sigma1:.1f} (thresholds), "
      f"sigma2 = {base.sigma2:.1f} (per step)")
print("per-step log-likelihood increments are only +/- 0.847, so thresholds"
      " must sit far above the noise floor\n")

cal = calibrate_privsprt(
    base, alpha, beta, pilot_trials=100, rng=derive(StreamKey(42, 0, 0, Substream.PILOT))
)
print(f"calibrated thresholds: a = {cal.thresh_a:.1f}, b = {cal.thresh_b:.1f}")
print(f"pilot errors: type I {cal.pilot_type1:.3f}, type II {cal.pilot_type2:.3f} "
      f"(targets {alpha}, {beta})\n")

plan = ExperimentPlan(
    (0,),
    (
        PlannedVariant("laplace", TestConfig(hyp, alpha, beta, Laplace(eps))),
        PlannedVariant(
            "privsprt", replace(base, thresh_a=cal.thresh_a, thresh_b=cal.thresh_b)
        ),
    ),
    500, 42,
)
print("500 trials under H0:")
for res in run_experiment(plan):
    s = res.stats
    print(f"  {res.variant.variant_id:>9}: mean tau = {s.mean_tau:>6.0f} "
          f"(p5 {s.tau_p5:.0f}, p95 {s.tau_p95:.0f}), type I = {s.error_rate:.3f}")
print("\nthe theoretically calibrated test stops sooner and needs no tuning runs")
