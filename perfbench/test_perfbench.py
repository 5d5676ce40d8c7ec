"""Tests of the benchmark itself, at a tiny trial count.

    python3 -m pytest perfbench
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from spans import CHECK_WRAPS, PROGRAM_WRAPS, Tracer, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = dataclasses.replace(run.WORKLOADS["short-tau"], trials=8)


def _simulate(out_dir, seed=3):
    from dpsprt.cli import main

    assert main(TINY.argv(seed, out_dir, 1)) == 0


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, group, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "short-tau", TINY)
    code = run.main(["--workload", "short-tau", "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    report = _last_json(capsys)
    assert code == 0
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["attempted"] >= len(TINY.cells) * 2
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())


def test_flipped_byte_fails_only_its_cell(tmp_path):
    _simulate(tmp_path)
    pins = checks.digests(tmp_path)
    before = checks.check_outputs(tmp_path, TINY.cells, TINY.truths, TINY.trials, pins)
    assert not any("pinned" in r for reasons in before.values() for r in reasons)

    trials = tmp_path / "trials.csv"
    data = bytearray(trials.read_bytes())
    row_end = data.index(b"\r\n", data.index(b"\nlaplace@eps=5,H1,") + 1)
    data[row_end - 1] ^= 0x01  # last digit of seed_hi
    trials.write_bytes(bytes(data))
    summary = tmp_path / "summary.csv"
    raw = bytearray(summary.read_bytes())
    raw[raw.index(b"\ngaussian@eps=5,H0,") + 19] = 0xFF  # n_trials, and not UTF-8
    summary.write_bytes(bytes(raw))

    after = checks.check_outputs(tmp_path, TINY.cells, TINY.truths, TINY.trials, pins)
    failed = {key for key, reasons in after.items() if reasons}
    assert failed == {"laplace@eps=5|H1", "gaussian@eps=5|H0"} | {
        key for key, reasons in before.items() if reasons}


def test_missing_outputs_fail_every_cell(tmp_path):
    failures = checks.check_outputs(tmp_path, TINY.cells, TINY.truths, TINY.trials)
    assert len(failures) == len(TINY.cells) * 2
    assert all(failures.values())


def _current(wraps):
    """The objects the wrap table names, as they are now."""
    out = []
    for module, attr, _, _ in wraps:
        owner = importlib.import_module(f"dpsprt.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append(owner.__dict__[leaf])
    return out


def test_wrappers_restore_the_originals(tmp_path):
    wraps = PROGRAM_WRAPS + CHECK_WRAPS
    originals = _current(wraps)
    tracer = Tracer(wraps, cells=TINY.cells)
    with tracer:
        assert all(now is not was for now, was in zip(_current(wraps), originals))
        _simulate(tmp_path)
    assert all(now is was for now, was in zip(_current(wraps), originals))

    layers = summarize(tracer)
    tests_per_truth = TINY.trials * (len(TINY.cells) - 1)
    assert layers["dp_sprt.run_test.calls"] == 2 * tests_per_truth
    assert layers["baselines.run_privsprt.calls"] == 2 * TINY.trials
    assert layers["cli.main.calls"] == 1
    assert 0 < layers["harness.obs_bits_used_frac"] < 1

    with pytest.raises(RuntimeError):
        with Tracer(wraps, cells=TINY.cells):
            raise RuntimeError("inside the traced block")
    assert all(now is was for now, was in zip(_current(wraps), originals))
