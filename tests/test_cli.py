"""Command-line front end: exit codes, file outputs, reruns."""

import csv
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dpsprt import cli
from dpsprt.cli import COMMANDS, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, OPTIONS, main


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestBounds:
    def test_values_on_stdout(self, capsys):
        rc = main(["bounds", "--p0", "0.3", "--p1", "0.7", "--alpha", "0.05",
                   "--beta", "0.05", "--eps", "1"])
        out = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK
        header = out[0].split(",")
        row = dict(zip(header, out[1].split(",")))
        assert float(row["lower_h0"]) == pytest.approx(7.819, abs=2e-3)
        assert float(row["upper_h0"]) > float(row["lower_h0"])

    def test_privacy_dominated_value(self, capsys):
        rc = main(["bounds", "--eps", "0.1"])
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(out[0].split(","), out[1].split(",")))
        assert rc == EXIT_OK
        assert float(row["lower_h0"]) == pytest.approx(66.25, abs=2e-3)

    def test_eps_omitted_reduced_report(self, capsys):
        rc = main(["bounds"])
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(out[0].split(","), out[1].split(",")))
        assert rc == EXIT_OK
        assert row["upper_h0"] == "" and row["closed_upper_h0"] == ""
        assert float(row["lower_h0"]) > 0

    def test_alpha_beta_sum_is_config_error(self):
        assert main(["bounds", "--alpha", "0.6", "--beta", "0.6"]) == EXIT_CONFIG

    def test_degenerate_instance_is_config_error(self, tmp_path, capsys):
        """An eps so small that the critical time passes the search guard."""
        out = tmp_path / "b"
        assert main(["bounds", "--eps", "1e-300", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_out_dir_writes_declared_files(self, tmp_path):
        out = tmp_path / "b"
        rc = main(["bounds", "--eps", "1", "--out", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (out / name).exists()

    def test_rerun_from_manifest_keeps_eps(self, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(["bounds", "--eps", "1", "--out", str(out1)]) == EXIT_OK
        rc = main(["bounds", "--config", str(out1 / "manifest.json"), "--out", str(out2)])
        assert rc == EXIT_OK
        assert _read(out1 / "bounds.csv") == _read(out2 / "bounds.csv")


class TestSimulate:
    ARGS = ["simulate", "--trials", "25", "--eps", "1", "--seed", "7",
            "--variants", "classical,laplace", "--truth", "both", "--workers", "1"]

    def test_writes_outputs_and_manifest(self, tmp_path):
        import os

        out = tmp_path / "sim"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"trials.csv", "summary.csv", "manifest.json"}
        # every declared file exists and nothing undeclared was written
        assert set(os.listdir(out)) == set(manifest["outputs"])
        with (out / "summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2  # two variants, both truths
        guarantees = manifest["privacy_guarantees"]
        assert guarantees["laplace@eps=1"]["kind"] == "pure_dp"
        assert manifest["version"] == "0.4.0"

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(self.ARGS + ["--out", str(out1)])
        rc = main(["simulate", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2), "--workers", "1"])
        assert rc == EXIT_OK
        assert _read(out1 / "trials.csv") == _read(out2 / "trials.csv")
        assert _read(out1 / "summary.csv") == _read(out2 / "summary.csv")

    # SHA-256 of (trials.csv, summary.csv) for all five variants at eps 1
    # and 5, both truths, 50 trials. A change to these bytes is a change of
    # behaviour, not of speed: say so and why, and mark it in the manifest.
    PINNED = {
        7: ("ca155f9169cbcfd79a5a34c41fe4fe91a99d013f04fdd19c258a2b75abecc944",
            "fd8ed0e38e5584a7b7a5411304d18d1f1cca414afa25824f8bc9ca78dc4cbb43"),
        20240817: ("4b18de638fb8677ba4c2baa2b02161bbbcd85a580c2a40bb6488c26d7ddf6678",
                   "b9e2be8819a4d482a043ccc561fc7142ab6e924a3f32cdedf0f66a400a3aff4b"),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_output_bytes_are_pinned(self, tmp_path, seed, workers):
        rc = main(["simulate", "--trials", "50", "--eps", "1,5", "--truth", "both",
                   "--seed", str(seed), "--workers", str(workers), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        got = tuple(hashlib.sha256(_read(tmp_path / name)).hexdigest()
                    for name in ("trials.csv", "summary.csv"))
        assert got == self.PINNED[seed]

    def test_seed_past_64_bits_acts_modulo_2_to_the_64(self, tmp_path):
        """Streams key on the seed modulo 2**64, so 2**64 + 7 writes the CSVs
        that seed 7 writes."""
        digests = []
        for seed in ("7", str(2**64 + 7)):
            out = tmp_path / seed
            rc = main(["simulate", "--trials", "20", "--eps", "5", "--truth", "both",
                       "--seed", seed, "--workers", "1", "--out", str(out)])
            assert rc == EXIT_OK
            digests.append([_read(out / name) for name in ("trials.csv", "summary.csv")])
        assert digests[0] == digests[1]

    # The same for PrivSPRT alone at eps 0.5, whose calibration picks an
    # asymmetric point with its pilot type I error exactly at the target.
    ASYMMETRIC = ("c6b1ff9e98073ed8dce07472918cabf7578bc0fa8b8f6f9c969ed7f2593680d5",
                  "2dc2bcd916351e5497d44cad26cab0b787b402e28317d17a8e64e5381ca7c761")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_asymmetric_calibration_is_pinned(self, tmp_path, workers):
        rc = main(["simulate", "--variants", "privsprt", "--eps", "0.5", "--truth", "both",
                   "--trials", "50", "--seed", "7", "--workers", str(workers),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        got = tuple(hashlib.sha256(_read(tmp_path / name)).hexdigest()
                    for name in ("trials.csv", "summary.csv"))
        assert got == self.ASYMMETRIC
        cal = json.loads((tmp_path / "manifest.json").read_text())["privsprt_calibration"]
        pick = cal["privsprt@eps=0.5"]
        assert (round(pick["thresh_a"], 1), round(pick["thresh_b"], 1)) == (1872.3, 374.5)
        assert pick["pilot_type1"] == 0.05 and pick["pilot_trials"] == 100

    def test_rerun_from_manifest_keeps_calibration(self, tmp_path):
        args = ["simulate", "--trials", "10", "--eps", "1,5", "--variants", "privsprt,laplace",
                "--privsprt-pilot", "30", "--seed", "7", "--workers", "1"]
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        rc = main(["simulate", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2), "--workers", "1"])
        assert rc == EXIT_OK
        first, second = (json.loads((out / "manifest.json").read_text())["privsprt_calibration"]
                         for out in (out1, out2))
        assert set(first) == {"privsprt@eps=1", "privsprt@eps=5"}
        assert set(first["privsprt@eps=5"]) == {
            "thresh_a", "thresh_b", "pilot_type1", "pilot_type2", "pilot_trials"}
        assert first["privsprt@eps=5"]["pilot_trials"] == 30
        assert second == first

    def test_manifest_of_earlier_versions_replays(self, tmp_path):
        """A manifest holding only the 16 keys that versions before the
        option table recorded reproduces the pinned bytes. A `bounds`
        manifest of those versions, which recorded keys `bounds` never read,
        replays too."""
        config = {
            "p0": "0.3", "p1": "0.7", "alpha": "0.05", "beta": "0.05",
            "gamma": "auto", "rate": "auto", "eps": "1,5",
            "variants": "classical,laplace,gaussian,laplace_sub,privsprt",
            "trials": "50", "seed": "7", "horizon": "1000000", "s": "2.0",
            "kappa": "1.0", "truth": "both", "delta": "1e-05", "privsprt_pilot": "100",
        }
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "simulate", "config": config}))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(manifest), "--out", str(out), "--workers", "1"])
        assert rc == EXIT_OK
        got = tuple(hashlib.sha256(_read(out / name)).hexdigest()
                    for name in ("trials.csv", "summary.csv"))
        assert got == self.PINNED[7]

        config.update(bounds_eps="1")
        manifest.write_text(json.dumps({"command": "bounds", "config": config}))
        rc = main(["bounds", "--config", str(manifest), "--out", str(tmp_path / "b1")])
        assert rc == EXIT_OK
        assert main(["bounds", "--eps", "1", "--out", str(tmp_path / "b2")]) == EXIT_OK
        assert _read(tmp_path / "b1" / "bounds.csv") == _read(tmp_path / "b2" / "bounds.csv")

    def test_manifest_with_rdp_alpha_replays(self, tmp_path):
        """A 0.2.0 simulate manifest records the Renyi order `rdp_alpha`,
        which is now chosen in closed form: the key is dropped and the CSVs
        replay byte for byte. The key is refused anywhere else."""
        config = {key: OPTIONS[key][0] for key in COMMANDS["simulate"][-1]}
        config.update(trials="50", eps="1,5", truth="both", seed="7", rdp_alpha="2.0")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": "0.2.0", "command": "simulate",
                                        "config": config}))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(manifest), "--out", str(out), "--workers", "1"])
        assert rc == EXIT_OK
        got = tuple(hashlib.sha256(_read(out / name)).hexdigest()
                    for name in ("trials.csv", "summary.csv"))
        assert got == self.PINNED[7]
        assert "rdp_alpha" not in json.loads((out / "manifest.json").read_text())["config"]

        flat = tmp_path / "run.cfg"
        flat.write_text("rdp_alpha = 2.0\n")
        assert main(["simulate", "--config", str(flat), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--rdp-alpha", "2", "--out", str(tmp_path / "y")])
        assert exc.value.code == 2  # argparse's exit code for an unknown flag
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    def test_rerun_from_manifest_keeps_accounting(self, tmp_path):
        args = ["simulate", "--trials", "10", "--eps", "5", "--variants", "gaussian,laplace",
                "--seed", "7", "--accounting", "--workers", "1"]
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        rc = main(["simulate", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2), "--workers", "1"])
        assert rc == EXIT_OK
        first, second = (json.loads((out / "manifest.json").read_text())["privacy_guarantees"]
                         for out in (out1, out2))
        assert first["gaussian@eps=5"]["kind"] == "rdp_mironov"
        assert second == first

    def test_zero_trials_is_config_error(self, tmp_path):
        rc = main(["simulate", "--trials", "0", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    def test_bad_config_line_is_anchored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p0 = 0.3\nbogus_key = 1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert "run.cfg:2" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# paper instance\np0 = 0.3\np1 = 0.7\ntrials = 10\n"
            "eps = 1\nvariants = classical\nseed = 3\n"
        )
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(cfg), "--trials", "5", "--out", str(out),
                   "--workers", "1"])
        assert rc == EXIT_OK
        with (out / "trials.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5  # flag wins over config

    def test_kappa_below_one_is_flagged(self, tmp_path, capsys):
        out = tmp_path / "k"
        rc = main(self.ARGS + ["--out", str(out), "--kappa", "0.5"])
        assert rc == EXIT_OK
        assert "kappa" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert "no formal correctness guarantee" in manifest["warning"]

    def test_default_grid_is_five_variants_by_three_eps(self, tmp_path):
        """The paper-defaults configuration yields one summary row per
        (variant, epsilon) cell: 5 x 3."""
        out = tmp_path / "grid"
        rc = main(["simulate", "--trials", "4", "--seed", "7", "--privsprt-pilot", "30",
                   "--out", str(out), "--workers", "1"])
        assert rc == EXIT_OK
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15
        assert {r["variant_id"].split("@")[0] for r in rows} == {
            "classical", "laplace", "gaussian", "laplace_sub", "privsprt"
        }
        assert {r["variant_id"].split("eps=")[1] for r in rows} == {"0.1", "1", "5"}

    def test_gaussian_accounting_labels_pilot_source(self, tmp_path):
        out = tmp_path / "acc"
        rc = main(["simulate", "--trials", "10", "--eps", "5", "--variants", "gaussian",
                   "--seed", "7", "--accounting", "--out", str(out), "--workers", "1"])
        assert rc == EXIT_OK
        note = json.loads((out / "manifest.json").read_text())["privacy_guarantees"]["gaussian@eps=5"]
        assert note["kind"] == "rdp_mironov"
        assert note["tau_sq_source"].startswith("pilot:100")
        assert 0 < note["delta"] < 1

    def test_gaussian_accounting_asserted_bound(self, tmp_path):
        out = tmp_path / "acc2"
        rc = main(["simulate", "--trials", "10", "--eps", "5", "--variants", "gaussian",
                   "--seed", "7", "--tau-sq-bound", "40000", "--out", str(out),
                   "--workers", "1"])
        assert rc == EXIT_OK
        note = json.loads((out / "manifest.json").read_text())["privacy_guarantees"]["gaussian@eps=5"]
        assert note["tau_sq_source"] == "asserted"

    def test_gaussian_without_bound_is_not_silently_defaulted(self, tmp_path):
        out = tmp_path / "acc3"
        rc = main(["simulate", "--trials", "10", "--eps", "5", "--variants", "gaussian",
                   "--seed", "7", "--out", str(out), "--workers", "1"])
        assert rc == EXIT_OK
        note = json.loads((out / "manifest.json").read_text())["privacy_guarantees"]["gaussian@eps=5"]
        assert note["epsilon"] is None
        assert "unavailable" in note["tau_sq_source"]

    @pytest.mark.parametrize("source", [["--tau-sq-bound", "10"], ["--accounting"]])
    def test_accounting_at_eps_1000_reports_the_configured_delta(self, tmp_path, source):
        """At eps 1000 the guarantee is still at the configured delta, with
        a finite eps."""
        out = tmp_path / "big"
        rc = main(["simulate", "--variants", "gaussian", "--eps", "1000", *source,
                   "--trials", "3", "--workers", "1", "--out", str(out)])
        assert rc == EXIT_OK
        note = json.loads((out / "manifest.json").read_text())["privacy_guarantees"]
        assert note["gaussian@eps=1000"]["delta"] == 1e-5
        assert math.isfinite(note["gaussian@eps=1000"]["epsilon"])

    def test_default_grid_gaussian_guarantees(self, tmp_path):
        """With --accounting at seed 7, each Gaussian cell of the default
        grid is (eps, 1e-5)-DP at the order where the conversion is least.
        A cell's pilots key on the seed and the cell id alone, so running
        the Gaussian cells alone gives the notes of the full grid."""
        out = tmp_path / "acc"
        rc = main(["simulate", "--accounting", "--seed", "7", "--variants", "gaussian",
                   "--trials", "1", "--workers", "1", "--out", str(out)])
        assert rc == EXIT_OK
        notes = json.loads((out / "manifest.json").read_text())["privacy_guarantees"]
        want = {"0.1": (0.0986, 411.6), "1": (0.945, 39.7), "5": (4.89, 8.44)}
        assert set(notes) == {f"gaussian@eps={eps}" for eps in want}
        for eps, (eps_dp, order) in want.items():
            note = notes[f"gaussian@eps={eps}"]
            assert note["kind"] == "rdp_mironov" and note["tau_sq_source"] == "pilot:100"
            assert note["delta"] == 1e-5
            assert note["epsilon"] == pytest.approx(eps_dp, rel=1e-3)
            assert note["alpha_order"] == pytest.approx(order, rel=1e-3)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("DPSPRT_SEED", "7")
        args = ["simulate", "--trials", "10", "--eps", "1", "--variants", "classical",
                "--workers", "1"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        monkeypatch.delenv("DPSPRT_SEED")
        assert main(args + ["--out", str(out2), "--seed", "7"]) == EXIT_OK
        assert _read(out1 / "trials.csv") == _read(out2 / "trials.csv")


class TestCompare:
    def test_head_to_head_with_privsprt(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--trials", "30", "--eps", "1", "--seed", "7",
                   "--privsprt-pilot", "60", "--out", str(out), "--workers", "1", "--svg"])
        assert rc == EXIT_OK
        with (out / "comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        families = {r["variant_id"] for r in rows}
        assert families == {"classical", "laplace", "gaussian", "laplace_sub", "privsprt"}
        for r in rows:
            assert float(r["mean_tau"]) > 0
        assert (out / "comparison.svg").read_text().startswith("<svg")

    def test_svg_with_every_trial_exhausted(self, tmp_path):
        """At horizon 1 every trial is exhausted and every mean tau is nan:
        the chart keeps its axes and labels, and the run writes its manifest."""
        out = tmp_path / "ex"
        rc = main(["compare", "--horizon", "1", "--trials", "3", "--eps", "5",
                   "--variants", "classical,laplace", "--svg", "--workers", "1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert "comparison.svg" in manifest["outputs"]
        svg = (out / "comparison.svg").read_text()
        assert "epsilon" in svg and "mean stopping time" in svg
        assert "<polyline" not in svg and "<circle" not in svg

    def test_rerun_from_compare_manifest(self, tmp_path):
        args = ["compare", "--trials", "20", "--eps", "1", "--seed", "3",
                "--privsprt-pilot", "30", "--workers", "1", "--svg"]
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        rc = main(["compare", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2), "--workers", "1"])
        assert rc == EXIT_OK
        for name in ("comparison.csv", "comparison.svg", "trials.csv", "summary.csv"):
            assert _read(out1 / name) == _read(out2 / name)
        first, second = (json.loads((out / "manifest.json").read_text())["privsprt_calibration"]
                         for out in (out1, out2))
        assert list(first) == ["privsprt@eps=1"] and second == first

    # SHA-256 of (trials.csv, summary.csv, comparison.csv) of the run below,
    # as written before `compare` flagged kappa < 1: the flag leaves them be
    KAPPA_HALF = ("48b37a2881a881a15f133dee3864a1bb16239b52b11725d79ee00cb2ee03dc8d",
                  "7929ee6ad6839d069bb5254ad834255bfabdb8650a1d3c2885423ee2e3c8405c",
                  "6803ed265f86c3782b9a484f8eda7be7c6e4a9bc2ce3389f6af1ee2298fb136f")

    def test_kappa_below_one_is_flagged(self, tmp_path, capsys):
        out = tmp_path / "k"
        rc = main(["compare", "--trials", "20", "--eps", "1,5", "--seed", "7", "--kappa", "0.5",
                   "--variants", "classical,laplace,gaussian,laplace_sub", "--workers", "1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert "warning: kappa < 1 voids the formal correctness guarantee" in (
            capsys.readouterr().err)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warning"] == "kappa < 1: no formal correctness guarantee"
        got = tuple(hashlib.sha256(_read(out / name)).hexdigest()
                    for name in ("trials.csv", "summary.csv", "comparison.csv"))
        assert got == self.KAPPA_HALF

    def test_calibration_failure_exit_code(self, tmp_path, capsys):
        # a horizon too short for any pilot path to decide
        rc = main(["compare", "--trials", "10", "--eps", "1", "--seed", "7",
                   "--horizon", "5", "--privsprt-pilot", "20",
                   "--out", str(tmp_path / "x"), "--workers", "1"])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "calibration failed: privsprt@eps=1: no feasible grid point" in err
        assert not (tmp_path / "x").exists()  # no partial results

    def test_calibration_failure_names_undecided_pilots(self, tmp_path, capsys):
        """Both pilot errors are under target here; the point fails because
        pilots are still undecided at the horizon, and the message says so."""
        rc = main(["simulate", "--variants", "privsprt", "--eps", "1e300", "--horizon", "10",
                   "--trials", "2", "--seed", "0", "--workers", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "type I 0.015 vs 0.05 and type II 0.014 vs 0.05" in err
        assert "with 64 of 200 pilot paths undecided at the horizon 10" in err
        assert not (tmp_path / "x").exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dpsprt.cli", "bounds", "--eps", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "lower_h0" in proc.stdout


class TestTuneKappa:
    def test_grid_of_one_returns_one(self, capsys):
        rc = main(["tune-kappa", "--eps", "1", "--alpha", "0.2", "--beta", "0.2",
                   "--kappa-grid", "1.0", "--pilot-trials", "50",
                   "--confirm-trials", "50", "--seed", "5", "--workers", "1"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["selected_kappa"] == 1.0
        assert "kappa = 1" in doc["warning"]

    def test_bad_grid_is_config_error(self):
        rc = main(["tune-kappa", "--kappa-grid", "0.0,0.5", "--workers", "1"])
        assert rc == EXIT_CONFIG

    def test_rerun_from_tune_manifest(self, tmp_path, capsys):
        base = ["tune-kappa", "--eps", "1", "--alpha", "0.2", "--beta", "0.2",
                "--seed", "5", "--workers", "1"]
        out1 = tmp_path / "t1"
        rc = main(base + ["--kappa-grid", "0.6,1.0", "--pilot-trials", "40",
                          "--confirm-trials", "40", "--out", str(out1)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = main(["tune-kappa", "--config", str(out1 / "manifest.json"),
                   "--out", str(tmp_path / "t2"), "--workers", "1"])
        assert rc == EXIT_OK
        capsys.readouterr()
        assert _read(out1 / "tune_kappa.json") == _read(tmp_path / "t2" / "tune_kappa.json")


# The --flags in each subcommand's --help, recorded before one option table
# replaced the hand-written argument parsers, less the flags that `bounds`
# (--seed, --trials, --rate, --horizon, --workers) and `tune-kappa`
# (--trials, --rate, --kappa) took and never read.
HELP_FLAGS = {
    "simulate": "--accounting --alpha --beta --config --delta --eps --gamma --help "
                "--horizon --kappa --out --p0 --p1 --privsprt-pilot --rate "
                "--s --seed --tau-sq-bound --trials --truth --variants --workers",
    "bounds": "--alpha --beta --config --eps --gamma --help --kappa --out --p0 --p1 --s",
    "compare": "--alpha --beta --config --delta --eps --gamma --help --horizon --kappa "
               "--out --p0 --p1 --privsprt-pilot --rate --s --seed --svg --trials "
               "--variants --workers",
    "tune-kappa": "--alpha --beta --config --confirm-trials --eps --gamma --help "
                  "--horizon --kappa-grid --out --p0 --p1 --pilot-trials --s --seed --workers",
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_flags_are_pinned(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert flags == set(HELP_FLAGS[command].split())


SMALL_GRID = ["--trials", "5", "--eps", "5", "--variants", "gaussian"]


@pytest.mark.parametrize("argv, saved", [
    (["simulate", "--tau-sq-bound", "-5"] + SMALL_GRID, None),
    (["simulate", "--tau-sq-bound", "1e-9"] + SMALL_GRID, None),
    (["simulate", "--tau-sq-bound", "inf"] + SMALL_GRID, None),
    (["simulate"] + SMALL_GRID, "accounting = maybe"),
    (["compare"] + SMALL_GRID, "svg = true"),
    (["simulate"] + SMALL_GRID, {"tau_sq_bound": "0.5"}),
    (["tune-kappa", "--pilot-trials", "5", "--confirm-trials", "5"], {"tune_eps": "abc"}),
    (["simulate", "--trials", "5", "--eps", "5,1e300", "--variants", "classical,gaussian"], None),
    (["simulate", "--trials", "5", "--eps", "5,1e-300", "--variants", "classical,gaussian"], None),
    (["simulate", "--trials", "2", "--horizon", "10", "--eps", "1e-308", "--variants",
      "laplace"], None),
    (["simulate", "--trials", "2", "--horizon", "10", "--eps", "5,1e-320", "--variants",
      "classical,laplace_sub"], None),
    (["compare", "--trials", "2", "--horizon", "10", "--eps", "1e-308", "--variants",
      "laplace"], None),
    (["tune-kappa", "--eps", "1e-320", "--pilot-trials", "2", "--confirm-trials", "2",
      "--horizon", "10"], None),
    (["simulate", "--trials", "3", "--eps", "1", "--variants", "gaussian", "--beta", "0.6",
      "--s", "10"], None),
    (["simulate", "--trials", "3", "--eps", "1", "--variants", "gaussian", "--alpha", "0.01",
      "--beta", "0.95"], None),
], ids=["tau_sq_bound-negative", "tau_sq_bound-below-1", "tau_sq_bound-inf",
        "accounting-cfg", "svg-cfg",
        "tau_sq_bound-manifest", "tune_eps-manifest", "gaussian-variance-underflow",
        "gaussian-variance-overflow", "laplace-overflow", "laplace_sub-overflow",
        "compare-laplace-overflow", "tune-kappa-laplace-overflow", "gaussian-domain-s",
        "gaussian-domain-beta"])
def test_bad_value_fails_before_any_trial(tmp_path, capsys, argv, saved):
    """A bad value from a flag, a config line or a manifest exits 2 before
    the first trial, so no output directory appears."""
    if isinstance(saved, dict):
        config = tmp_path / "manifest.json"
        config.write_text(json.dumps({"config": saved}))
        argv = argv + ["--config", str(config)]
    elif saved:
        config = tmp_path / "run.cfg"
        config.write_text(saved + "\n")
        argv = argv + ["--config", str(config)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--workers", "1"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps, fate", [("1e300", "underflows to 0"), ("1e-300", "overflows")])
def test_gaussian_variance_out_of_range_names_eps(tmp_path, capsys, eps, fate):
    argv = ["simulate", "--trials", "1", "--horizon", "10", "--eps", eps,
            "--variants", "gaussian", "--workers", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "key 'eps'" in err and fate in err


def _no_trials(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_experiment", no_trials)
    monkeypatch.setattr(cli, "calibrate_privsprt", no_trials)


@pytest.mark.parametrize("argv, key", [
    (["--beta", "0.6", "--s", "10"], "beta"),
    (["--alpha", "0.01", "--beta", "0.95"], "beta"),
    (["--alpha", "0.6", "--s", "10"], "alpha"),
])
def test_gaussian_correction_domain_names_the_key(tmp_path, capsys, monkeypatch, argv, key):
    """Past 2 * (1 - gamma) * max(alpha, beta) >= zeta(s) the Gaussian
    correction is undefined at n = 1: exit 2 naming the larger error target,
    before any calibration or trial."""
    _no_trials(monkeypatch)
    out = tmp_path / "out"
    rc = main(["simulate", "--variants", "laplace,privsprt,gaussian", "--eps", "1",
               "--trials", "3", *argv, "--workers", "1", "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: key {key!r}" in err and "zeta(s)" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--variants", "laplace,privsprt", "--eps", "1e-308", "--trials", "2"], "eps"),
    (["simulate", "--variants", "laplace_sub", "--eps", "1e-320", "--trials", "2"], "eps"),
    (["compare", "--variants", "classical,laplace", "--eps", "5,1e-308", "--trials", "2"], "eps"),
    (["tune-kappa", "--eps", "1e-320", "--kappa-grid", "0.5,1"], "tune_eps"),
])
def test_laplace_overflow_names_eps(tmp_path, capsys, monkeypatch, argv, key):
    """An eps whose Laplace noise or correction overflows exits 2 naming
    its key, before any calibration or trial."""
    _no_trials(monkeypatch)
    out = tmp_path / "out"
    assert main(argv + ["--horizon", "10", "--workers", "1", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: key {key!r}" in err and "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["--eps", "1e155", "--tau-sq-bound", "10"], "eps"),
    (["--eps", "1e155", "--accounting"], "eps"),
    (["--eps", "8e162", "--tau-sq-bound", "10"], "eps"),  # sigma_z^2 underflows to 0
    (["--eps", "1", "--tau-sq-bound", "1e308"], "tau_sq_bound"),  # 2 tau^2 overflows
])
def test_gaussian_profile_overflow_names_the_key(tmp_path, capsys, monkeypatch, argv, key):
    """A Gaussian RDP profile that overflows exits 2 naming the key, before
    the first trial: guarantees are settled before the trials run."""
    _no_trials(monkeypatch)
    out = tmp_path / "out"
    rc = main(["simulate", "--variants", "laplace,gaussian", *argv, "--trials", "1",
               "--horizon", "10", "--workers", "1", "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: key {key!r}" in err and "the RDP profile overflows" in err
    assert not out.exists()


def test_simulate_both_truths_is_one_plan_and_one_pool(tmp_path, monkeypatch):
    """`--truth both` runs one plan over both truths: one run_experiment
    call and, at 2 workers, one process pool. The fake pool runs the blocks
    in this process, so no worker is started."""
    from dpsprt import harness

    plans, pools = [], []
    real = cli.run_experiment

    def counted(plan, workers):
        plans.append(plan.truths)
        return real(plan, workers=workers)

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "run_experiment", counted)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    out = tmp_path / "both"
    assert main(["simulate", "--truth", "both", "--trials", "4", "--eps", "5",
                 "--variants", "classical,laplace", "--workers", "2", "--out", str(out)]) == EXIT_OK
    assert plans == [(0, 1)] and pools == [2]
    with (out / "summary.csv").open() as fh:
        assert [r["truth"] for r in csv.DictReader(fh)] == ["H0", "H0", "H1", "H1"]


def test_tune_kappa_runs_one_plan_per_kappa(monkeypatch, capsys):
    """Each kappa tried is one run_experiment call over both truths, and
    so is the confirmation."""
    truths = []
    real = cli.run_experiment

    def counted(plan, workers):
        truths.append(plan.truths)
        return real(plan, workers=workers)

    monkeypatch.setattr(cli, "run_experiment", counted)
    grid = [0.1, 0.2, 0.3, 1.0]
    assert main(["tune-kappa", "--eps", "1", "--kappa-grid", ",".join(map(str, grid)),
                 "--pilot-trials", "40", "--confirm-trials", "40", "--seed", "5",
                 "--workers", "1"]) == EXIT_OK
    selected = json.loads(capsys.readouterr().out)["selected_kappa"]
    tried = sum(k <= selected for k in grid)
    assert tried > 1
    assert truths == [(0, 1)] * (tried + 1)


# one value per key that its parser rejects
BAD_VALUES = {
    "seed": "-1", "trials": "0", "p0": "1.5", "p1": "0", "alpha": "1", "beta": "nan",
    "gamma": "1.5", "rate": "0", "s": "1", "kappa": "1.5", "horizon": "0", "eps": "0,1",
    "variants": "bogus", "truth": "H2", "delta": "1", "privsprt_pilot": "0",
    "accounting": "maybe", "tau_sq_bound": "0.5", "svg": "true",
    "bounds_eps": "0", "tune_eps": "abc", "tune_kappa_grid": "0.5,1.5",
    "tune_pilot_trials": "0", "tune_confirm_trials": "-1",
}


def test_bad_values_cover_every_key():
    assert set(BAD_VALUES) == set(OPTIONS)


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (*_, keys) in COMMANDS.items() for key in keys])
def test_every_key_is_parsed_before_its_subcommand_runs(tmp_path, capsys, monkeypatch,
                                                        command, key):
    """A bad value of any key a subcommand takes exits 2 and names the key,
    and neither a trial nor a calibration starts."""
    _no_trials(monkeypatch)
    config = tmp_path / "manifest.json"
    config.write_text(json.dumps({"config": {key: BAD_VALUES[key]}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    assert main(argv + ([] if command == "bounds" else ["--workers", "1"])) == EXIT_CONFIG
    assert f"key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("argv, key, cell", [
    (["--variants", "laplace,laplace", "--eps", "0.1"], "variants", "laplace@eps=0.1"),
    (["--variants", "laplace", "--eps", "1,1"], "eps", "laplace@eps=1"),
    # distinct numbers that print alike name the same cell
    (["--variants", "privsprt,laplace", "--eps", "0.1,0.10000001"], "eps", "privsprt@eps=0.1"),
], ids=["variant-twice", "eps-twice", "eps-prints-alike"])
def test_repeated_grid_cell_fails_before_calibration(tmp_path, capsys, monkeypatch, command,
                                                    argv, key, cell):
    """A grid that would hold one cell id twice exits 2, naming the key and
    the cell, before any calibration or trial starts."""
    _no_trials(monkeypatch)
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out), "--workers", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"key {key!r}" in err and repr(cell) in err
    assert not out.exists()


def test_empty_variant_list_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--variants", ",", "--trials", "2", "--workers", "1",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "key 'variants'" in capsys.readouterr().err
    assert not out.exists()


def test_every_default_parses(monkeypatch):
    """Each subcommand's defaults parse, the seed through its fallback, and
    every key belongs to some subcommand."""
    monkeypatch.delenv("DPSPRT_SEED", raising=False)
    parser = cli._build_parser()
    seen = set()
    for command in COMMANDS:
        opts = cli._resolve_options(parser.parse_args([command]))
        assert set(cli._parse(opts)) == set(opts)
        seen.update(opts)
    assert seen == set(OPTIONS)


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_nonpositive_workers_is_config_error(tmp_path, capsys, workers):
    out = tmp_path / "out"
    rc = main(["simulate", "--trials", "3", "--eps", "5", "--variants", "classical",
               "--workers", workers, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_paper_defaults_are_options(tmp_path):
    """Every key of the demo config, commented out or not, is an option,
    and the file runs as a config."""
    path = Path(__file__).resolve().parents[1] / "demos" / "paper_defaults.cfg"
    keys = re.findall(r"^#?\s*([a-z_0-9]+)\s*=", path.read_text(), re.M)
    assert {"accounting", "tau_sq_bound"} <= set(keys) <= set(OPTIONS)
    rc = main(["simulate", "--config", str(path), "--trials", "2", "--eps", "5",
               "--variants", "classical", "--out", str(tmp_path / "d"), "--workers", "1"])
    assert rc == EXIT_OK
