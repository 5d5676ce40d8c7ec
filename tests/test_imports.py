"""Unused-import and unused-API tripwires: every name a library module
imports is read in that module or exported through its ``__all__``, and
every ``__all__`` name is read by a program: a library module, a demo or
the benchmark. No linter ships with the project, so these tests stand in
for the unused-import check of one."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dpsprt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# public names that only the tests read, each kept for the reason given
UNREAD_API = {
    ("bounds", "gaussian_closed_upper"): "the paper's closed-form Gaussian bound, checked by tests",
    ("noise", "density_ratio_bound_check"): "the density-ratio condition behind the noise scales",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in _imported(tree).items()
              if name not in loaded and name not in _exported(tree)}
    assert not unused, f"{path.name}: imported but never used: {unused}"


@functools.cache
def _read_names() -> frozenset[str]:
    """Names that the library modules, the demos and the benchmark load or
    take as an attribute; a re-export from ``__init__`` is not a read."""
    paths = [*MODULES, *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return frozenset(read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_name_is_read(path):
    exported = _exported(ast.parse(path.read_text(encoding="utf-8")))
    unread = sorted(name for name in exported - _read_names()
                    if (path.stem, name) not in UNREAD_API)
    assert not unread, f"{path.name}: exported but read only by tests: {unread}"


def test_modules_are_found():
    assert len(MODULES) >= 10
