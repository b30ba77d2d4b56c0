"""The library takes its settings from arguments only: no module reads the
environment or starts threads, so a run is fixed by its inputs."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robust_dro"
FORBIDDEN_IMPORTS = ("concurrent", "threading")


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment_and_starts_no_threads(path):
    assert _violations(ast.parse(path.read_text())) == []


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
