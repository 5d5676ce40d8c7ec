"""The benchmark's span tracer (`perfbench/spans.py`) wraps dpsprt names
from outside the package. A refactor that moves or renames one of them
breaks the traced benchmark, so every name it lists must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrap_tables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PROGRAM_WRAPS + spans.CHECK_WRAPS


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in _wrap_tables()])
def test_traced_name_resolves(module, attr):
    """The name is a global of its module (or a method of one), where the
    tracer's wrapper replaces it."""
    owner = importlib.import_module(f"dpsprt.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert callable(vars(owner)[leaf])
