"""Privacy accounting for the configured variants.

Laplace runs carry a closed-form pure DP budget. Gaussian runs carry a
Renyi DP profile whose data-dependent term needs a bound on E[tau^2]; a
pilot estimate supplies one, clearly labeled as an estimate rather than a
certified bound, and the profile converts to approximate DP at the run's
delta, at the order where the conversion is least (found in closed form).
"""

from dpsprt import (
    Gaussian,
    HypothesisPair,
    StreamKey,
    TestConfig,
    default_gamma,
    derive,
    estimate_tau_sq,
    gaussian_epsilon,
    gaussian_rdp_profile,
    gaussian_scales,
    laplace_budget,
)

hyp = HypothesisPair.of(0.3, 0.7)
eps = 1.0

print("Laplace accounting is closed form:")
print(f"  default scales at eps = {eps}: {laplace_budget(4.0 / eps, 2.0 / eps)}")
print(f"  custom scales (z = 4, y = 4):  {laplace_budget(4.0, 4.0)}")

print("\nGaussian accounting needs a bound on E[tau^2]:")
delta = 1e-5
sy, sz = gaussian_scales(eps, delta)
cfg = TestConfig(hyp, 0.05, 0.05, Gaussian(sy, sz), gamma=default_gamma(eps))
n_pilot = 200
tau_sq, reliable = estimate_tau_sq(cfg, n_pilot, derive(StreamKey(11)))
print(f"  pilot estimate from {n_pilot} runs per hypothesis: "
      f"E[tau^2] <= {tau_sq:.0f} (source: pilot, reliable: {reliable})")

print("\n  Renyi profile at a few orders (using the pilot estimate):")
for order in (1.5, 2.0, 4.0, 16.0):
    val = gaussian_rdp_profile(sy, sz, tau_sq, order)
    print(f"    alpha = {order:>4}: eps(alpha) = {val:.3f}")

eps_dp, order = gaussian_epsilon(sy, sz, tau_sq, delta)
print(f"\n  converted at delta = {delta:g}, best order alpha = {order:.2f}: "
      f"({eps_dp:.3f}, {delta:g})-DP")
print("  the tau^2 term came from a pilot estimate, not a certified bound;"
      " assert one explicitly for a formal claim")
