"""Acceptance gate: one test per criterion, each at its stated tolerance.

The Monte Carlo grid (instance (0.3, 0.7), alpha = beta = 0.05, kappa = 1,
1000 trials per cell, eps in {0.1, 1, 5}, horizon 10^6) is computed once
and shared by the criteria that consume it. Every test prints one
PASS/FAIL line with the measured quantities.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dpsprt.baselines import PrivSprtConfig, calibrate_privsprt
from dpsprt.bounds import lemma19, lower_bound, upper_bound_expected_tau
from dpsprt.cli import main as cli_main
from dpsprt.dp_sprt import (
    Classical,
    Gaussian,
    Laplace,
    LaplaceSub,
    TestConfig,
    default_gamma,
    default_subsample_rate,
    gaussian_scales,
)
from dpsprt.exp_family import HypothesisPair, kl_bernoulli, kl_exponential_form, natural_param
from dpsprt.harness import ExperimentPlan, PlannedVariant, run_experiment
from dpsprt.noise import (
    CorrectionParams,
    NoiseFamily,
    NoiseSpec,
    correction_vec,
    density_ratio_bound_check,
    sample_y,
    sample_z,
)
from dpsprt.rngcore import StreamKey, Substream, derive, fnv1a64

MASTER_SEED = 20240817
N_TRIALS = 1000
EPS_GRID = (0.1, 1.0, 5.0)
ALPHA = BETA = 0.05
GAUSS_DELTA = 1e-5
HYP = HypothesisPair.of(0.3, 0.7)


def _band(target: float, n: int) -> float:
    return target + 3.0 * math.sqrt(target * (1.0 - target) / n)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _variants():
    cells = []
    for eps in EPS_GRID:
        cells.append((f"laplace@eps={eps:g}", TestConfig(HYP, ALPHA, BETA, Laplace(eps)), eps))
        sy, sz = gaussian_scales(eps, GAUSS_DELTA)
        cells.append((
            f"gaussian@eps={eps:g}",
            TestConfig(HYP, ALPHA, BETA, Gaussian(sy, sz), gamma=default_gamma(eps)),
            eps,
        ))
        rate = default_subsample_rate(eps)
        cells.append((
            f"laplace_sub@eps={eps:g}",
            TestConfig(HYP, ALPHA, BETA, LaplaceSub(eps, rate)),
            eps,
        ))
    cells.append(("classical", TestConfig(HYP, ALPHA, BETA, Classical()), None))
    return [PlannedVariant(vid, cfg, eps) for vid, cfg, eps in cells]


def _grid_stats():
    """stats[(variant_id, truth)] -> BatchStats over 1000 trials, from one
    plan over both truths."""
    plan = ExperimentPlan((0, 1), tuple(_variants()), N_TRIALS, MASTER_SEED)
    return {(res.variant.variant_id, res.truth): res.stats for res in run_experiment(plan)}


@pytest.fixture(scope="module")
def grid():
    return _grid_stats()


def test_grid_is_one_plan(monkeypatch):
    plans = []
    monkeypatch.setitem(globals(), "run_experiment", lambda plan: plans.append(plan) or [])
    _grid_stats()
    assert [(p.truths, len(p.variants)) for p in plans] == [((0, 1), 10)]


def _pooled_se(a, b) -> float:
    return math.sqrt(a.se_tau**2 + b.se_tau**2)


def test_criterion_01_correctness_of_private_variants(grid):
    """Empirical type I and type II error within target + 3 sigma for every
    private variant at every privacy level; no exhausted runs."""
    bound = _band(0.05, N_TRIALS)
    worst = 0.0
    for family in ("laplace", "gaussian", "laplace_sub"):
        for eps in EPS_GRID:
            for truth in (0, 1):
                stats = grid[(f"{family}@eps={eps:g}", truth)]
                assert stats.n_exhausted == 0
                worst = max(worst, stats.error_rate)
                assert stats.error_rate <= bound, (family, eps, truth, stats.error_rate)
    _report("criterion 1 (error control, private variants)",
            worst <= bound, f"max empirical error {worst:.4f} <= {bound:.4f}")


def test_criterion_02_classical_calibration(grid):
    bound = _band(0.05, N_TRIALS)
    e0 = grid[("classical", 0)].error_rate
    e1 = grid[("classical", 1)].error_rate
    _report("criterion 2 (classical calibration)",
            e0 <= bound and e1 <= bound,
            f"type I {e0:.4f}, type II {e1:.4f} <= {bound:.4f}")


def test_criterion_03_privacy_cost_monotonicity(grid):
    ok = True
    details = []
    for truth in (0, 1):
        stats = [grid[(f"laplace@eps={e:g}", truth)] for e in EPS_GRID]
        means = [s.mean_tau for s in stats]
        ok &= means[0] >= means[1] >= means[2]
        sep = means[0] - means[2]
        need = _pooled_se(stats[0], stats[2])
        ok &= sep >= need
        details.append(f"H{truth}: {means[0]:.0f} >= {means[1]:.0f} >= {means[2]:.0f}, "
                       f"sep {sep:.0f} >= {need:.1f}")
    _report("criterion 3 (mean tau non-increasing in eps)", ok, "; ".join(details))


def test_criterion_04_subsampling_benefit(grid):
    lap = grid[("laplace@eps=0.1", 0)]
    sub = grid[("laplace_sub@eps=0.1", 0)]
    gap = lap.mean_tau - sub.mean_tau
    need = 2.0 * _pooled_se(lap, sub)
    _report("criterion 4 (subsampling benefit at eps=0.1)",
            gap >= need,
            f"laplace {lap.mean_tau:.0f} - subsampled {sub.mean_tau:.0f} = {gap:.0f} >= {need:.1f}")


def test_criterion_05_privsprt_comparison(grid):
    ok = True
    details = []
    for eps in (1.0, 5.0):
        vid = f"privsprt@eps={eps:g}"
        base = PrivSprtConfig.from_epsilon(HYP, eps, GAUSS_DELTA)
        rng = derive(StreamKey(MASTER_SEED, fnv1a64(vid), 0, Substream.PILOT))
        cal = calibrate_privsprt(base, ALPHA, BETA, pilot_trials=100, rng=rng)
        cfg = replace(base, thresh_a=cal.thresh_a, thresh_b=cal.thresh_b)
        plan = ExperimentPlan((0,), (PlannedVariant(vid, cfg, eps),), N_TRIALS, MASTER_SEED)
        priv = run_experiment(plan)[0].stats
        lap = grid[(f"laplace@eps={eps:g}", 0)]
        slack = _pooled_se(lap, priv)
        ok &= lap.mean_tau <= priv.mean_tau + slack
        details.append(
            f"eps={eps:g}: laplace {lap.mean_tau:.0f} <= privsprt {priv.mean_tau:.0f} + {slack:.1f}"
        )
    _report("criterion 5 (laplace vs privsprt)", ok, "; ".join(details))


def test_criterion_06_bound_sandwich(grid):
    ok = True
    details = []
    for family in ("laplace", "gaussian", "laplace_sub"):
        for eps in EPS_GRID:
            gamma = default_gamma(eps)
            if family == "gaussian":
                sy, sz = gaussian_scales(eps, GAUSS_DELTA)
                params = CorrectionParams(sigma_sum_sq=sy**2 + sz**2)
                noise = NoiseFamily.GAUSSIAN
            else:
                # the subsampled rule has no dedicated finite-n bound; its
                # cells are checked against the plain-Laplace envelope
                params = CorrectionParams(epsilon=eps)
                noise = NoiseFamily.LAPLACE
            for truth, tag in ((0, "h0"), (1, "h1")):
                stats = grid[(f"{family}@eps={eps:g}", truth)]
                lo = lower_bound(HYP, ALPHA, BETA, eps)[truth]
                up = upper_bound_expected_tau(HYP, tag, ALPHA, BETA, gamma, params, noise)
                se = stats.se_tau
                cell_ok = (lo < stats.mean_tau + se) and (stats.mean_tau - se < up)
                ok &= cell_ok
                if not cell_ok:
                    details.append(f"{family}@{eps:g}/H{truth}: {lo:.1f} !< {stats.mean_tau:.1f} !< {up:.1f}")
    _report("criterion 6 (lower <= mean tau <= upper across grid)", ok,
            "; ".join(details) if details else "all 18 cells inside their envelopes")


def test_criterion_07_lower_bound_values():
    lo_eps1 = lower_bound(HYP, ALPHA, BETA, 1.0)[0]
    lo_eps01 = lower_bound(HYP, ALPHA, BETA, 0.1)[0]
    want1 = kl_bernoulli(0.05, 0.95) / min(HYP.kl01, 1.0 * HYP.tv)
    want01 = kl_bernoulli(0.05, 0.95) / (0.1 * HYP.tv)
    ok = (
        abs(lo_eps1 - want1) <= 1e-6 * want1
        and abs(lo_eps01 - want01) <= 1e-6 * want01
        and abs(lo_eps1 - 7.818959557) < 1e-6 * want1
        and abs(lo_eps01 - 66.24987703) < 1e-5
    )
    _report("criterion 7 (lower-bound values)", ok,
            f"eps=1: {lo_eps1:.6f} (~7.819); eps=0.1: {lo_eps01:.6f} (~66.25)")


def test_criterion_08_correction_validity():
    """Union-budget check: P(Y_n - Z > n C(n, delta)) <= delta/(n^s zeta(s))
    within 3 MC standard errors, 1e5 draws per step count, both families,
    both tail directions."""
    draws = 100_000
    eps = 1.0
    sy, sz = gaussian_scales(eps, GAUSS_DELTA)
    setups = [
        (NoiseSpec.laplace_default(eps), CorrectionParams(epsilon=eps), NoiseFamily.LAPLACE),
        (NoiseSpec.gaussian(sy, sz), CorrectionParams(sigma_sum_sq=sy**2 + sz**2), NoiseFamily.GAUSSIAN),
    ]
    deltas = (0.01, 0.05, 0.5)
    worst_margin = math.inf
    for spec, params, family in setups:
        rng = derive(StreamKey(MASTER_SEED, 8, hash(family.value) % 97))
        for n in range(1, 201):
            y = sample_y(spec, rng, draws)
            z = sample_z(spec, rng, draws)
            for delta in deltas:
                c = float(correction_vec(params, family, np.array([float(n)]), delta)[0])
                budget = delta / (n**params.s * params.zeta_s)
                for diff in (y - z, z - y):
                    hat = float(np.mean(diff > n * c))
                    se = math.sqrt(max(hat * (1 - hat), 0.0) / draws)
                    margin = budget + 3 * se - hat
                    worst_margin = min(worst_margin, margin)
                    assert hat <= budget + 3 * se, (family, n, delta, hat, budget)
    _report("criterion 8 (correction validity, n=1..200)",
            worst_margin >= 0.0, f"worst margin {worst_margin:.2e} >= 0")


def test_criterion_09_density_ratio_lemma():
    grid_pts = np.arange(-10.0, 10.0 + 1e-9, 0.01)
    results = []
    for sens, eps in ((1.0, 0.5), (2.0, 1.0), (1.0, 0.05)):
        scale = sens / eps
        passed = density_ratio_bound_check(NoiseFamily.LAPLACE, scale, sens, eps, grid_pts)
        failed = not density_ratio_bound_check(NoiseFamily.LAPLACE, scale, sens, 0.8 * eps, grid_pts)
        results.append(passed and failed)
    _report("criterion 9 (density-ratio bound)",
            all(results), "passes at eps, fails at 0.8 eps for each scale")


def test_criterion_10_exponential_family_equivalence():
    probs = np.linspace(0.01, 0.99, 99)
    worst_gap = 0.0
    pinsker_ok = True
    for p in probs:
        tp = natural_param(p)
        for q in probs:
            kl = kl_bernoulli(p, q)
            worst_gap = max(worst_gap, abs(kl - kl_exponential_form(tp, natural_param(q))))
            pinsker_ok &= kl >= 2.0 * (p - q) ** 2 - 1e-15
    _report("criterion 10 (kl forms agree, Pinsker holds)",
            worst_gap < 1e-10 and pinsker_ok,
            f"max |kl - exponential form| = {worst_gap:.2e} < 1e-10")


def test_criterion_11_lemma19_dominance():
    ks = np.arange(1, 10**6 + 1, dtype=np.float64)
    logk = np.log(ks)
    ok = True
    for b in (1.0, 2.0, 5.0, 10.0):
        for c in (1.0, 2.0, 5.0, 10.0):
            largest = ks[ks <= b * logk + c][-1]
            ok &= largest <= lemma19(b, c)
    _report("criterion 11 (lemma19 dominates scan)", ok, "all 16 (B, C) pairs dominated")


def test_criterion_12_manifest_determinism(tmp_path):
    args = ["simulate", "--trials", "50", "--eps", "1", "--seed", "11",
            "--variants", "classical,laplace,laplace_sub", "--truth", "both"]
    out1 = tmp_path / "a"
    assert cli_main(args + ["--out", str(out1), "--workers", "1"]) == 0
    manifest = str(out1 / "manifest.json")
    outs = {}
    for name, workers in (("w1", "1"), ("w8", "8")):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", manifest, "--out", str(out),
                         "--workers", workers]) == 0
        outs[name] = out
    same = all(
        (out1 / f).read_bytes() == (outs[n] / f).read_bytes()
        for f in ("trials.csv", "summary.csv")
        for n in ("w1", "w8")
    )
    _report("criterion 12 (byte-identical reruns at 1 and 8 workers)", same,
            "trials.csv and summary.csv reproduced")


def test_criterion_13_kappa_tuning(capsys):
    rc = cli_main(["tune-kappa", "--eps", "1", "--alpha", "0.1", "--beta", "0.1",
                   "--p0", "0.3", "--p1", "0.7", "--seed", str(MASTER_SEED),
                   "--pilot-trials", "200", "--confirm-trials", "1000", "--workers", "1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    doc = json.loads(out)
    kappa = doc["selected_kappa"]
    bound = _band(0.1, 1000)
    ok = 0.3 <= kappa <= 0.7 and doc["confirm_type1"] <= bound and doc["confirm_type2"] <= bound
    _report("criterion 13 (kappa tuning)", ok,
            f"kappa {kappa}, confirm errors ({doc['confirm_type1']:.3f}, "
            f"{doc['confirm_type2']:.3f}) <= {bound:.4f}")
