"""The private two-threshold stopping mechanism.

A stream of queries is compared against a moving interval. One shared
threshold noise Z is drawn up front, each query gets a fresh noise Y, and
the mechanism halts the first time the noisy query leaves the noisy
interval, reporting which side. Privacy costs the sum of the two noise
budgets, not double counting per boundary.
"""

import numpy as np

from dpsprt import (
    NoiseSpec,
    StreamKey,
    ThresholdSchedule,
    derive,
    laplace_budget,
    run_outside_interval,
)

rng = derive(StreamKey(2024, 0, 0))

# a drifting query stream: starts inside the interval, drifts upward
queries = [0.1 * i + rng.normal(0, 0.5) for i in range(1, 200)]
schedule = ThresholdSchedule.constant(-4.0, 8.0)

print("zero noise (deterministic first exit):")
out = run_outside_interval(queries, schedule, NoiseSpec.zero(), derive(StreamKey(1)))
print(f"  halted at index {out.halt_index}, side {out.side.name}")

print("\nLaplace noise at scales (4/eps, 2/eps), eps = 1:")
spec = NoiseSpec.laplace_default(1.0)
for trial in range(5):
    noise_rng = derive(StreamKey(2024, 1, trial))
    out = run_outside_interval(queries, schedule, spec, noise_rng)
    print(f"  trial {trial}: halt index {out.halt_index}, side {out.side.name}")

eps_z = 1.0 / spec.scale_z      # sensitivity 1 against the threshold noise
eps_y = 2.0 / spec.scale_y      # sensitivity 2 against the query noise
budget = laplace_budget(spec.scale_y, spec.scale_z)
print(f"\nprivacy budget: eps_Z + eps_Y = {eps_z} + {eps_y} = {budget}")

print("\nfinite horizon reports exhaustion instead of inventing a side:")
flat = list(np.zeros(50))
out = run_outside_interval(flat, schedule, NoiseSpec.zero(), derive(StreamKey(2)), horizon=50)
print(f"  exhausted = {out.exhausted}, halt index = {out.halt_index}, side = {out.side}")
