"""Differentially private sequential probability ratio tests for Bernoulli data.

The library provides the private two-threshold stopping mechanism, the
calibrated private SPRT variants (Laplace, Gaussian, subsampled Laplace),
privacy accounting, theoretical sample-complexity bounds, a PrivSPRT
baseline, and a seeded Monte Carlo experiment harness with a CLI front end.
"""

from .exp_family import (
    HypothesisPair,
    kl_bernoulli,
    kl_exponential_form,
    log_partition,
    mean_from_natural,
    natural_param,
    tv_bernoulli,
)
from .noise import (
    CorrectionParams,
    NoiseFamily,
    NoiseSpec,
    correction,
    density_ratio_bound_check,
    riemann_zeta,
    sample_y,
    sample_z,
)
from .outside_interval import (
    IntervalOutcome,
    Side,
    StreamExhaustedError,
    ThresholdSchedule,
)
from .outside_interval import run as run_outside_interval
from .dp_sprt import (
    Classical,
    Gaussian,
    Laplace,
    LaplaceSub,
    TestConfig,
    TestKernel,
    TestOutcome,
    default_gamma,
    default_subsample_rate,
    gaussian_scales,
    run_test,
    threshold_lower,
    threshold_upper,
)
from .privacy_accounting import (
    estimate_tau_sq,
    gaussian_epsilon,
    gaussian_rdp_profile,
    laplace_budget,
)
from .bounds import (
    BoundReport,
    build_report,
    critical_n,
    gaussian_closed_upper,
    laplace_closed_upper,
    lemma19,
    lower_bound,
    upper_bound_expected_tau,
)
from .baselines import (
    CalibrationError,
    CalibrationResult,
    PrivSprtConfig,
    calibrate_privsprt,
    run_privsprt,
)
from .harness import (
    BatchStats,
    BitStream,
    ExperimentPlan,
    ExperimentResult,
    PlannedVariant,
    run_experiment,
    write_summary_csv,
    write_trials_csv,
)
from .rngcore import StreamKey, Substream, derive

__version__ = "0.6.0"
