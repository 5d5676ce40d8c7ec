"""Seeded Monte Carlo experiment engine.

A plan names the ground-truth hypotheses to run under, a list of test
variants, each on its own instance, and a trial count. Trial i of variant v draws its
observation and noise streams from keys derived injectively from (master_seed,
variant_id, i), so results are bit-reproducible, independent of the order
variants appear in the plan and of how many workers run the trials. Each
job runs a block of one variant's trials on one kernel prepared for it: the
kernel keys the noise streams it reads for the whole block, and each trial's
observation stream draws exactly the bits the kernel reads.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .baselines import PrivSprtConfig, PrivSprtKernel, run_privsprt
from .dp_sprt import Classical, LaplaceSub, TestConfig, TestKernel, resolved_gamma, run_test
from .rngcore import (StreamKey, Substream, derive, fnv1a64, mix64, mix64_array, raw_below,
                      stream_words)

__all__ = [
    "BitStream",
    "PlannedVariant",
    "ExperimentPlan",
    "TrialRecord",
    "BatchStats",
    "ExperimentResult",
    "run_experiment",
    "write_trials_csv",
    "write_summary_csv",
    "TRIAL_COLUMNS",
    "SUMMARY_COLUMNS",
]

TRIAL_COLUMNS = [
    "variant_id", "truth", "p0", "p1", "alpha", "beta", "gamma", "epsilon",
    "r", "kappa", "trial", "tau", "decision", "exhausted", "seed_lo", "seed_hi",
]
SUMMARY_COLUMNS = [
    "variant_id", "truth", "n_trials", "n_exhausted", "error_rate", "error_ci",
    "mean_tau", "var_tau", "tau_p5", "tau_p50", "tau_p95",
]


class BitStream:
    """I.i.d. Bernoulli bit stream over a dedicated generator.

    `take(k)` draws exactly k 64-bit Philox words, one per bit, so the bit
    sequence is a pure function of the generator state, independent of
    whether the consumer pulls bit by bit or in chunks, and the stream draws
    no bit its consumer does not take. It returns a bool array, which
    `dp_sprt.BitReader` takes without a value check. A bit is ``random() < p``
    on its word, compared as an integer (see `rngcore.raw_below`).
    """

    def __init__(self, p: float, rng: np.random.Generator):
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in the open interval (0,1)")
        self._rng = rng
        self._below = raw_below(p)

    def take(self, k: int) -> np.ndarray:
        return self._rng.bit_generator.random_raw(k) < self._below

    def __iter__(self):
        return self

    def __next__(self) -> int:
        return int(self.take(1)[0])


AnyConfig = Union[TestConfig, PrivSprtConfig]


@dataclass(frozen=True)
class PlannedVariant:
    """One experiment cell: a unique id (keys the random streams), the test
    configuration, and the privacy-grid coordinate for reporting."""

    variant_id: str
    config: AnyConfig
    epsilon: float | None = None


@dataclass(frozen=True)
class ExperimentPlan:
    """`n_trials` trials of each cell under each hypothesis in `truths` (0
    or 1, each once) of the cell's own instance: one run, one job list."""

    truths: tuple[int, ...]
    variants: tuple[PlannedVariant, ...]
    n_trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.truths not in ((0,), (1,), (0, 1), (1, 0)):
            raise ValueError(f"truths must be (0,), (1,), (0, 1) or (1, 0), got {self.truths!r}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be a positive integer")
        ids = [v.variant_id for v in self.variants]
        if len(set(ids)) != len(ids):
            raise ValueError("variant ids must be unique within a plan")
        for v in self.variants:
            if isinstance(v.config, PrivSprtConfig):
                if v.config.thresh_a is None or v.config.thresh_b is None:
                    raise ValueError(
                        f"variant {v.variant_id!r}: PrivSPRT thresholds not calibrated"
                    )
            elif not isinstance(v.config, TestConfig):
                raise ValueError(f"variant {v.variant_id!r}: unknown config type")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    tau: int
    decision: int | None
    exhausted: bool
    seed: int


def _trial_seeds(master_seed: int, vid: int, trials: np.ndarray) -> np.ndarray:
    """Each trial's seed, mix64(mix64(master_seed ^ mix64(vid)) ^ mix64(trial)),
    over a uint64 array of trial indices."""
    cell = np.uint64(mix64(master_seed ^ mix64(vid)))
    return mix64_array(cell ^ mix64_array(trials))


def _run_block(args) -> list[TrialRecord]:
    """Trials start..stop-1 of one cell, on one kernel prepared for the cell,
    which keys the whole block's noise streams at once. The block's
    observation keys are hashed in one vectorised pass too, and each trial's
    key carries its words. Each trial derives its own observation stream, of
    the truth's p in the cell's instance, first, then runs."""
    truth, variant, master_seed, start, stop = args
    p_truth = (variant.config.hypotheses.mu0, variant.config.hypotheses.mu1)[truth]
    vid = fnv1a64(variant.variant_id)
    if isinstance(variant.config, PrivSprtConfig):
        kernel, run = PrivSprtKernel(variant.config), run_privsprt
    else:
        kernel, run = TestKernel(variant.config), run_test
    trials = np.arange(start, stop, dtype=np.uint64)
    seeds = _trial_seeds(master_seed, vid, trials)
    obs_words = stream_words(master_seed, vid, trials, Substream.OBS)
    records = []
    for trial, token, words, prepared in zip(range(start, stop), seeds.tolist(), obs_words,
                                             kernel.trials(seeds)):
        obs = BitStream(p_truth, derive(StreamKey(master_seed, vid, trial, Substream.OBS, words)))
        out = run(prepared, obs)
        records.append(TrialRecord(trial, out.tau, out.decision, out.exhausted, token))
    return records


@dataclass(frozen=True)
class BatchStats:
    """Aggregates over one cell's trials. Exhausted trials are excluded from
    the error rate and the stopping-time statistics but counted separately;
    percentiles are nearest-rank."""

    n_trials: int
    n_exhausted: int
    error_rate: float
    error_ci_halfwidth: float
    mean_tau: float
    var_tau: float
    tau_p5: float
    tau_p50: float
    tau_p95: float

    @property
    def se_tau(self) -> float:
        """Standard error of mean_tau over the decided trials."""
        n = self.n_trials - self.n_exhausted
        return math.sqrt(self.var_tau / n) if n > 0 else math.nan


def _nearest_rank(sorted_vals: np.ndarray, pct: float) -> float:
    n = sorted_vals.size
    idx = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_vals[idx - 1])


def _aggregate(records: list[TrialRecord], truth: int) -> BatchStats:
    n = len(records)
    decided = [r for r in records if not r.exhausted]
    n_ex = n - len(decided)
    if not decided:
        nan = math.nan
        return BatchStats(n, n_ex, nan, nan, nan, nan, nan, nan, nan)
    wrong = sum(1 for r in decided if r.decision != truth)
    rate = wrong / len(decided)
    ci = 1.96 * math.sqrt(rate * (1.0 - rate) / len(decided))
    taus = np.sort(np.array([r.tau for r in decided], dtype=np.float64))
    var = float(np.var(taus, ddof=1)) if taus.size > 1 else 0.0
    return BatchStats(
        n_trials=n,
        n_exhausted=n_ex,
        error_rate=rate,
        error_ci_halfwidth=ci,
        mean_tau=float(np.mean(taus)),
        var_tau=var,
        tau_p5=_nearest_rank(taus, 5),
        tau_p50=_nearest_rank(taus, 50),
        tau_p95=_nearest_rank(taus, 95),
    )


@dataclass(frozen=True)
class ExperimentResult:
    variant: PlannedVariant
    truth: int
    stats: BatchStats
    trials: tuple[TrialRecord, ...]


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list[ExperimentResult]:
    """Run every (truth, variant, trial) of the plan in one job list, and so
    in one process pool at most; one result per (truth, variant), truth-major
    in the plan's order.

    Aggregation is a deterministic reduction over trial indices, so the
    results are identical at any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be a positive integer")
    n = plan.n_trials
    cells = [(truth, variant) for truth in plan.truths for variant in plan.variants]
    # one block per cell at one worker; with more, about eight blocks per
    # worker over the plan, so that slow cells spread across the pool
    per_cell = 1 if workers <= 1 else min(n, math.ceil(8 * workers / max(1, len(cells))))
    bounds = [n * k // per_cell for k in range(per_cell + 1)]
    jobs = [
        (truth, variant, plan.master_seed, start, stop)
        for truth, variant in cells
        for start, stop in zip(bounds, bounds[1:])
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            blocks = list(pool.map(_run_block, jobs))
    else:
        blocks = [_run_block(job) for job in jobs]
    records = [rec for block in blocks for rec in block]
    groups = [records[i * n : (i + 1) * n] for i in range(len(cells))]
    return [ExperimentResult(variant, truth, _aggregate(recs, truth), tuple(recs))
            for (truth, variant), recs in zip(cells, groups)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _variant_fields(variant: PlannedVariant) -> list[str]:
    """The alpha, beta, gamma, epsilon, r and kappa columns of a cell's rows."""
    cfg = variant.config
    if isinstance(cfg, PrivSprtConfig):
        return [_fmt(x) for x in (None, None, None, variant.epsilon, None, None)]
    v = cfg.variant
    return [_fmt(x) for x in (
        cfg.alpha, cfg.beta, resolved_gamma(cfg), variant.epsilon,
        v.rate if isinstance(v, LaplaceSub) else None,
        cfg.kappa if not isinstance(v, Classical) else None,
    )]


def write_trials_csv(path, results: Iterable[ExperimentResult]) -> None:
    """Per-trial rows in the fixed column order, one line per trial; p0 and
    p1 are the instance of the row's own cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRIAL_COLUMNS)
        for res in results:
            hyp = res.variant.config.hypotheses
            head = [res.variant.variant_id, f"H{res.truth}", _fmt(hyp.mu0), _fmt(hyp.mu1),
                    *_variant_fields(res.variant)]
            for r in res.trials:
                w.writerow([*head, r.trial, r.tau, _fmt(r.decision), int(r.exhausted),
                            r.seed & 0xFFFFFFFF, r.seed >> 32])


def write_summary_csv(path, results: Iterable[ExperimentResult]) -> None:
    """One aggregated row per experiment cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        for res in results:
            s = res.stats
            w.writerow([
                res.variant.variant_id, f"H{res.truth}",
                s.n_trials, s.n_exhausted,
                _fmt(s.error_rate), _fmt(s.error_ci_halfwidth),
                _fmt(s.mean_tau), _fmt(s.var_tau),
                _fmt(s.tau_p5), _fmt(s.tau_p50), _fmt(s.tau_p95),
            ])
