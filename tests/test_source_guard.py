"""The library takes its settings from arguments only: no module reads the
environment or starts threads, so a run is fixed by its inputs.  It imports
only the standard library, numpy (the one dependency pyproject.toml lists)
and its own modules, so an installed but undeclared package such as scipy
cannot creep in.  Every name it exports is read by the library itself or
by the benchmark, so no surface exists for the tests alone."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robust_dro"
PERFBENCH = SRC.parent.parent / "perfbench"
FORBIDDEN_IMPORTS = ("concurrent", "threading")
ALLOWED_TOP_LEVEL = sys.stdlib_module_names | {"numpy", "robust_dro"}
# the exact references that gates 3 and 8 compare the solver's pieces against
UNREAD_EXPORTS = {"conjugate_eval", "dro_sup_lower_bound"}


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names += [f"os.{alias.name}" for alias in node.names if alias.name in ("environ", "getenv")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            names = [f"os.{node.attr}"] if node.attr in ("environ", "getenv") else []
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] in FORBIDDEN_IMPORTS or name in ("os.environ", "os.getenv")]
    return found


def _undeclared_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0 is a relative import
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return found


def _names_read(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment_and_starts_no_threads(path):
    assert _violations(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_stdlib_numpy_and_itself(path):
    assert _undeclared_imports(ast.parse(path.read_text())) == []


def test_guard_catches_each_form():
    source = """
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from os import environ
n = os.environ.get("RD_THREADS")
m = os.getenv("X")
"""
    assert len(_violations(ast.parse(source))) == 5


def test_import_guard_catches_each_form():
    source = """
from __future__ import annotations
import math, scipy.special
from scipy.special import expit
import numpy as np
from numpy.linalg import eigh
from . import data
from .losses import LossFamily
import robust_dro.solver
"""
    assert _undeclared_imports(ast.parse(source)) == ["line 3: scipy.special", "line 4: scipy.special"]


def test_every_export_is_read_by_the_library_or_the_benchmark():
    import robust_dro

    readers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + list(PERFBENCH.glob("*.py"))
    read = set().union(*(_names_read(ast.parse(p.read_text())) for p in readers))
    assert UNREAD_EXPORTS <= set(robust_dro.__all__)
    assert sorted(set(robust_dro.__all__) - read - UNREAD_EXPORTS) == []

