"""The benchmark's output checks (`perfbench/checks.py`) call the library
from outside the package: `CorrectionParams(epsilon=...)` and
`CorrectionParams(sigma_sum_sq=...)`, `upper_bound_expected_tau`,
`lower_bound`, `HypothesisPair.of`, `default_gamma` and `gaussian_scales`.
A refactor that breaks one of those calls fails every benchmark run, so a
small run of the benchmark's short-tau grid goes through them here."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from dpsprt.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A benchmark module, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_checks_run_on_a_small_grid(tmp_path):
    """Eight trials of every cell of the short-tau workload, both truths:
    the checks, without pinned digests, return one entry per (cell, truth)."""
    grid = dataclasses.replace(_load("run").WORKLOADS["short-tau"], trials=8)
    assert main(grid.argv(3, tmp_path, 1)) == 0
    failures = _load("checks").check_outputs(tmp_path, grid.cells, grid.truths, 8)
    assert sorted(failures) == sorted(f"{vid}|{truth}"
                                      for truth in grid.truths for vid in grid.cells)
