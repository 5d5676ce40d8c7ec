"""Monte Carlo harness: streams, aggregation, determinism, CSV schemas."""

import csv
import math

import numpy as np
import pytest

from dpsprt.dp_sprt import Classical, Laplace, TestConfig
from dpsprt.exp_family import HypothesisPair
from dpsprt.harness import (
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    BitStream,
    ExperimentPlan,
    PlannedVariant,
    _aggregate,
    _nearest_rank,
    _trial_seeds,
    TrialRecord,
    run_experiment,
    write_summary_csv,
    write_trials_csv,
)
from dpsprt.rngcore import StreamKey, derive, fnv1a64, mix64

HYP = HypothesisPair.of(0.3, 0.7)


def test_trial_seeds_match_the_scalar_formula():
    """A block's seeds, computed in one pass, equal the per-trial formula,
    at the edges of each 64-bit field and for master seeds past 2**64."""
    edges = [0, 1, 2**63, 2**64 - 1]
    trials = np.array(edges + [5, 999], dtype=np.uint64)
    for master in edges + [2**64, 2**64 + 7, 3 * 2**64 + 2**63]:
        for vid in edges + [fnv1a64("laplace@eps=5")]:
            want = [mix64(mix64(master ^ mix64(vid)) ^ mix64(t)) for t in trials.tolist()]
            assert _trial_seeds(master, vid, trials).tolist() == want


def _plan(variants, truth=0, n_trials=40, seed=2024):
    return ExperimentPlan(HYP.mu0, HYP.mu1, truth, tuple(variants), n_trials, seed)


def _classical_variant(vid="classical", eps=None):
    return PlannedVariant(vid, TestConfig(HYP, 0.05, 0.05, Classical()), eps)


class TestBitStream:
    def test_mean_within_binomial_band(self):
        bits = BitStream(0.5, derive(StreamKey(1))).take(10**6)
        assert abs(bits.mean() - 0.5) < 0.0016

    def test_extreme_p_is_all_ones(self):
        bits = BitStream(1 - 1e-15, derive(StreamKey(2))).take(100)
        assert bits.sum() == 100

    def test_deterministic_and_chunk_invariant(self):
        a = BitStream(0.3, derive(StreamKey(3))).take(1000)
        s = BitStream(0.3, derive(StreamKey(3)))
        b = np.array([next(s) for _ in range(1000)])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sizes", [(0,), (1,), (5000,), (128, 256),
                                       (128, 256, 512, 1024, 2048, 4096, 4096, 7)])
    def test_take_draws_exactly_what_it_returns(self, sizes):
        """After takes of k bits in all, as a reader's chunks ask for them,
        the generator's next draw is the (k+1)-th draw of a fresh generator
        on the same key: no bit is drawn ahead."""
        rng = derive(StreamKey(6))
        stream = BitStream(0.4, rng)
        for k in sizes:
            stream.take(k)
        k = sum(sizes)
        assert rng.random() == derive(StreamKey(6)).random(k + 1)[k]

    def test_distinct_trials_differ(self):
        a = BitStream(0.5, derive(StreamKey(4, 0, 0))).take(1000)
        b = BitStream(0.5, derive(StreamKey(4, 0, 1))).take(1000)
        assert not np.array_equal(a, b)

    def test_rejects_boundary_p(self):
        with pytest.raises(ValueError):
            BitStream(0.0, derive(StreamKey(5)))


class TestAggregation:
    def test_nearest_rank_definition(self):
        vals = np.array([10.0, 20.0, 30.0, 40.0])
        assert _nearest_rank(vals, 5) == 10.0
        assert _nearest_rank(vals, 50) == 20.0
        assert _nearest_rank(vals, 95) == 40.0
        assert _nearest_rank(np.array([7.0]), 50) == 7.0

    def test_error_ci_formula(self):
        recs = [TrialRecord(i, 5, 1 if i < 3 else 0, False, 0) for i in range(10)]
        stats = _aggregate(recs, truth=0)
        assert stats.error_rate == pytest.approx(0.3)
        assert stats.error_ci_halfwidth == pytest.approx(1.96 * math.sqrt(0.3 * 0.7 / 10))

    def test_exhausted_excluded_from_errors_and_taus(self):
        recs = [
            TrialRecord(0, 4, 1, False, 0),
            TrialRecord(1, 8, 0, False, 0),
            TrialRecord(2, 100, None, True, 0),
        ]
        stats = _aggregate(recs, truth=0)
        assert stats.n_trials == 3 and stats.n_exhausted == 1
        assert stats.error_rate == pytest.approx(0.5)
        assert stats.mean_tau == pytest.approx(6.0)

    def test_percentiles_ordered(self):
        recs = [TrialRecord(i, t, 0, False, 0) for i, t in enumerate([9, 2, 7, 4, 30, 11])]
        stats = _aggregate(recs, truth=0)
        assert stats.tau_p5 <= stats.tau_p50 <= stats.tau_p95


class TestRunExperiment:
    def test_deterministic(self):
        plan = _plan([_classical_variant()])
        a = run_experiment(plan)
        b = run_experiment(plan)
        assert a[0].trials == b[0].trials
        assert a[0].stats == b[0].stats

    def test_variant_order_does_not_change_stats(self):
        v1 = _classical_variant("classical")
        v2 = PlannedVariant("laplace@eps=5", TestConfig(HYP, 0.05, 0.05, Laplace(5.0)), 5.0)
        res_ab = {r.variant.variant_id: r for r in run_experiment(_plan([v1, v2]))}
        res_ba = {r.variant.variant_id: r for r in run_experiment(_plan([v2, v1]))}
        for vid in (v1.variant_id, v2.variant_id):
            assert res_ab[vid].trials == res_ba[vid].trials

    def test_worker_count_does_not_change_results(self):
        plan = _plan([_classical_variant()], n_trials=24)
        assert run_experiment(plan, workers=1) == run_experiment(plan, workers=4)

    def test_classical_error_rate_within_band(self):
        plan = _plan([_classical_variant()], truth=0, n_trials=400)
        stats = run_experiment(plan)[0].stats
        assert stats.error_rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 400)
        assert stats.n_exhausted == 0

    def test_degenerate_immediate_decisions_count_as_errors(self):
        # wide targets put both thresholds inside [0,1] at n = 1: a 1 bit
        # decides 1 (wrong under H0), a 0 bit decides 0; with beta pushed
        # to the edge only the upper check can fire, so every decided
        # trial is wrong and stops at the first step
        cfg = TestConfig(HYP, 0.99, 0.01, Classical(), horizon=1)
        plan = _plan([PlannedVariant("degenerate", cfg)], truth=0, n_trials=200)
        stats = run_experiment(plan)[0].stats
        assert stats.error_rate == 1.0
        assert stats.mean_tau == 1.0
        assert stats.n_exhausted > 0

    def test_pool_is_no_larger_than_the_job_list(self, monkeypatch):
        """64 workers for one cell of 3 trials ask for a pool of 3. The fake
        pool runs the blocks in this process, so no worker is started."""
        import dpsprt.harness as harness

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        plan = _plan([_classical_variant()], n_trials=3)
        serial = run_experiment(plan, workers=1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        assert run_experiment(plan, workers=64) == serial
        assert sizes == [3]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(_plan([_classical_variant()], n_trials=2), workers=workers)

    def test_misconfiguration_surfaces_before_trials(self):
        from dpsprt.baselines import PrivSprtConfig

        with pytest.raises(ValueError):
            _plan([PlannedVariant("privsprt", PrivSprtConfig(HYP, 1.0, 1.0))])
        with pytest.raises(ValueError):
            _plan([_classical_variant(), _classical_variant()])  # duplicate ids
        with pytest.raises(ValueError):
            ExperimentPlan(0.3, 0.7, 2, (_classical_variant(),), 10, 0)


class TestCsvOutput:
    def test_trials_schema_and_determinism(self, tmp_path):
        plan = _plan([_classical_variant(eps=1.0)], n_trials=8)
        results = run_experiment(plan)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trials_csv(p1, results, HYP.mu0, HYP.mu1)
        write_trials_csv(p2, run_experiment(plan), HYP.mu0, HYP.mu1)
        assert p1.read_bytes() == p2.read_bytes()
        with p1.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRIAL_COLUMNS
        assert len(rows) == 1 + 8
        row = dict(zip(rows[0], rows[1]))
        assert row["variant_id"] == "classical"
        assert row["truth"] == "H0"
        assert row["p0"] == "0.3" and row["p1"] == "0.7"
        assert row["gamma"] == ""  # classical has no allocation
        assert row["epsilon"] == "1.0"
        assert row["decision"] in ("0", "1")
        assert row["exhausted"] == "0"
        assert int(row["seed_lo"]) < 2**32 and int(row["seed_hi"]) < 2**32

    def test_summary_schema(self, tmp_path):
        plan = _plan([_classical_variant()], n_trials=8)
        path = tmp_path / "s.csv"
        write_summary_csv(path, run_experiment(plan))
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SUMMARY_COLUMNS
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["n_trials"] == "8"
        assert "." not in row["n_exhausted"]
        float(row["mean_tau"])  # parses with a '.' decimal separator
