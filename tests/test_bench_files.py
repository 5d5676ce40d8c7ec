"""Every benchmark record at the root of the repository, `BENCH_<n>.json`,
holds what BENCHMARK.json declares: its workloads, its end-to-end metrics
with their units, a correct run, and one set of environment keys."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _load(path):
    return json.loads(path.read_text())


def test_there_are_benchmark_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_file_holds_the_declared_workloads_and_metrics(path):
    bench = _load(path)
    assert set(bench) == {w["name"] for w in SPEC["workloads"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, record in bench.items():
        assert record["result"]["correct"] is True, name
        metrics = record["result"]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == units, name


def test_environment_keys_agree_across_files():
    for w in SPEC["workloads"]:
        keys = {path.name: sorted(_load(path)[w["name"]]["environment"]) for path in FILES}
        assert len({tuple(k) for k in keys.values()}) == 1, (w["name"], keys)
