"""Privacy amplification by subsampling in the high-privacy regime.

Keeping each observation with probability r amplifies privacy, so the same
overall budget needs proportionally less injected noise and a smaller
correction. The cost is a noisier empirical mean. At tight budgets the
noise reduction wins by a wide margin; as the budget loosens, the optimal
rate drifts toward keeping everything.
"""

from dpsprt import (
    ExperimentPlan,
    HypothesisPair,
    Laplace,
    LaplaceSub,
    PlannedVariant,
    TestConfig,
    default_subsample_rate,
    run_experiment,
)

hyp = HypothesisPair.of(0.3, 0.7)
alpha = beta = 0.05
trials = 400

print("mean stopping time under H0, plain Laplace vs subsampled (400 trials):")
print(f"{'eps':>6} {'rate':>6} {'laplace':>9} {'subsampled':>11} {'speedup':>8}")
for eps in (0.1, 0.3, 1.0, 5.0):
    rate = default_subsample_rate(eps)
    plan = ExperimentPlan(
        (0,),
        (
            PlannedVariant("plain", TestConfig(hyp, alpha, beta, Laplace(eps))),
            PlannedVariant("sub", TestConfig(hyp, alpha, beta, LaplaceSub(eps, rate))),
        ),
        trials, 77,
    )
    res = {r.variant.variant_id: r.stats for r in run_experiment(plan)}
    plain, sub = res["plain"].mean_tau, res["sub"].mean_tau
    print(f"{eps:>6g} {rate:>6.3f} {plain:>9.0f} {sub:>11.0f} {plain / sub:>7.1f}x")

print("\nerror control is preserved while subsampling (eps = 0.1, truth H0):")
rate = default_subsample_rate(0.1)
plan = ExperimentPlan(
    (0,), (PlannedVariant("sub", TestConfig(hyp, alpha, beta, LaplaceSub(0.1, rate))),), trials, 78
)
stats = run_experiment(plan)[0].stats
print(f"  empirical type I error = {stats.error_rate:.4f} (target {alpha})")

print("\nrate sweep at eps = 0.1 (the default rule picks sqrt(eps/10)):")
for rate in (0.02, 0.05, 0.1, 0.3, 1.0):
    plan = ExperimentPlan(
        (0,), (PlannedVariant("sub", TestConfig(hyp, alpha, beta, LaplaceSub(0.1, rate))),), 200, 79
    )
    stats = run_experiment(plan)[0].stats
    print(f"  r = {rate:>5.2f}: mean tau = {stats.mean_tau:>7.0f}")
