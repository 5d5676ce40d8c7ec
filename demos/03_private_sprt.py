"""Classical and private sequential probability ratio tests.

The classical test tracks the empirical mean of the bit stream between two
moving thresholds. The private variants add calibrated noise and widen the
thresholds with a correction so that both error targets still hold, which
is the price paid in extra samples.
"""

from dpsprt import (
    BitStream,
    Classical,
    Gaussian,
    HypothesisPair,
    Laplace,
    LaplaceSub,
    StreamKey,
    TestConfig,
    TestKernel,
    default_gamma,
    default_subsample_rate,
    derive,
    gaussian_scales,
    run_test,
    threshold_lower,
    threshold_upper,
)

hyp = HypothesisPair.of(0.3, 0.7)
alpha = beta = 0.05
eps = 1.0

sy, sz = gaussian_scales(eps, 1e-5)
variants = {
    "classical": TestConfig(hyp, alpha, beta, Classical()),
    "laplace": TestConfig(hyp, alpha, beta, Laplace(eps)),
    "gaussian": TestConfig(hyp, alpha, beta, Gaussian(sy, sz), gamma=default_gamma(eps)),
    "subsampled": TestConfig(hyp, alpha, beta, LaplaceSub(eps, default_subsample_rate(eps))),
}

print(f"thresholds around the empirical mean (eps = {eps}):")
print(f"{'n':>6} {'classical':>22} {'laplace':>22}")
for n in (1, 10, 100, 1000):
    c = variants["classical"]
    l = variants["laplace"]
    print(f"{n:>6} [{threshold_lower(c, n):>9.3f}, {threshold_upper(c, n):>8.3f}]"
          f"  [{threshold_lower(l, n):>9.3f}, {threshold_upper(l, n):>8.3f}]")
print("the widened private interval needs many more samples to pin the mean\n")

print("one run per variant, truth = H1 (p = 0.7), same observation seed:")
for name, cfg in variants.items():
    obs = BitStream(0.7, derive(StreamKey(8, 0, 0)))
    out = run_test(TestKernel(cfg).trial(99), obs)
    extra = f", included {out.included_count}" if out.included_count is not None else ""
    print(f"  {name:>10}: tau = {out.tau:>5}, decision = H{out.decision}{extra}")
