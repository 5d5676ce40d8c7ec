"""Unused-import and unused-API tripwires: every name a library module
imports is read in that module or exported through its ``__all__``, every
``__all__`` name is read by a program (a library module, a demo or the
benchmark), and every init field of a configuration class is set by one.
No linter ships with the project, so these tests stand in for the
unused-import check of one."""

import ast
import dataclasses
import functools
import importlib
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
def _program_trees() -> tuple[ast.Module, ...]:
    """The parsed library modules, demos and benchmark files."""
    paths = [*MODULES, *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    return tuple(ast.parse(path.read_text(encoding="utf-8")) for path in paths)


@functools.cache
def _read_names() -> frozenset[str]:
    """Names that the library modules, the demos and the benchmark load or
    take as an attribute; a re-export from ``__init__`` is not a read."""
    read = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
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


# init fields that no program sets, each kept for the reason given
UNSET_FIELDS = {}
CONFIG_CLASSES = [
    ("dp_sprt", "TestConfig"), ("baselines", "PrivSprtConfig"),
    ("noise", "CorrectionParams"), ("noise", "NoiseSpec"),
    ("harness", "ExperimentPlan"), ("harness", "PlannedVariant"),
    ("dp_sprt", "Classical"), ("dp_sprt", "Laplace"), ("dp_sprt", "Gaussian"),
    ("dp_sprt", "LaplaceSub"),
]


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _fields_set(tree: ast.Module, name: str, init: list[str]) -> set[str]:
    """Init fields of class `name` that `tree` sets: by position or keyword
    in a call of the class, in a ``cls(...)`` call inside the class, or by
    keyword in ``replace``. A ``*`` argument sets every field from its
    position on, and a ``**`` argument sets every field."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and _call_name(node.func) == name]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            calls += [call for call in ast.walk(node) if isinstance(call, ast.Call)
                      and _call_name(call.func) == "cls"]
    done = set()
    for call in calls:
        for i, arg in enumerate(call.args):
            done.update(init[i:] if isinstance(arg, ast.Starred) else init[i:i + 1])
        for kw in call.keywords:
            done.update(init if kw.arg is None else {kw.arg})
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node.func) == "replace":
            done.update(kw.arg for kw in node.keywords if kw.arg in init)
    return done


@pytest.mark.parametrize("module, name", CONFIG_CLASSES, ids=[n for _, n in CONFIG_CLASSES])
def test_every_config_field_is_set(module, name):
    """Each settable value of a configuration is set by a program (a library
    module, a demo or the benchmark), not only by tests: a value that no
    program sets is one more thing to read and test for nothing."""
    cls = getattr(importlib.import_module(f"dpsprt.{module}"), name)
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    done = set()
    for tree in _program_trees():
        done |= _fields_set(tree, name, init)
    unset = [f for f in init if f not in done and (name, f) not in UNSET_FIELDS]
    assert not unset, f"{name}: init fields that no program sets: {unset}"
