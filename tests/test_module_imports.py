"""Every module of the package imports at its top. An import inside a
function hides a dependency from the reader, and most often a cycle
between two modules that the package should not have."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dfsdca"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inner = {
        f"{path.name}:{node.lineno} in {func.name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert not inner, sorted(inner)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_threads_or_processes_in_python(path):
    # only the compiled kernels start threads, and only their binding asks
    # how many CPUs this process may use
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    banned = {"concurrent", "contextvars", "multiprocessing", "pickle", "threading"}
    assert not {name.split(".")[0] for name in imported} & banned
    assert ("sched_getaffinity" in path.read_text()) == (path.name == "_kernel.py")


def test_array_addresses_go_through_one_function():
    # ``ndarray.ctypes.data`` costs about twice what ``_kernel._address``
    # does, which falls back to it only for read-only or empty arrays
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {k for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "_address"
                  for k in range(func.lineno, func.end_lineno + 1)}
        found += [f"{path.name}:{k}" for k, line in enumerate(path.read_text().splitlines(), 1)
                  if ".ctypes.data" in line and k not in inside]
    assert not found, found
