"""The package's declarations hold, and its source keeps its invariants
under ``python -O``."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gvdlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gvdlab").glob("*.py"))


def project() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_source_has_no_assert_statements():
    # ``python -O`` strips assert statements, so a check written as one
    # silently stops checking; invariants raise explicit exceptions.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_every_imported_name_is_used_or_exported():
    # An import the module neither reads nor lists in ``__all__`` is dead
    # API: typically a helper whose last caller in the module was deleted.
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                exported = set(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items()
                   if name not in read and name not in exported]
    assert SOURCES and unused == []


def test_declared_readme_exists():
    assert (ROOT / project()["readme"]).is_file()


def test_declared_scripts_import():
    for name, target in project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(gvdlab.__path__):
        module = importlib.import_module("gvdlab." + info.name)
        missing += ["%s.%s" % (info.name, name)
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_benchmark_traced_names_resolve():
    # The benchmark wraps these names (module, then attribute path) in a
    # traced run; read them without importing the benchmark.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = getattr(node.targets[0], "id", None)
            if target in ("TRACED", "COUNTED"):
                names[target] = ast.literal_eval(node.value)
    assert set(names) == {"TRACED", "COUNTED"}
    unresolved = []
    for name in names["TRACED"] + names["COUNTED"]:
        module, *path = name.split(".")
        owner = importlib.import_module("gvdlab." + module)
        for attr in path:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            unresolved.append(name)
    assert unresolved == []
