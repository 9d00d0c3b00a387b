"""Source rules that hold for every module of the package."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import supgof

PACKAGE = Path(supgof.__file__).parent


def test_no_assert_statements():
    """Checks must raise: ``assert`` vanishes under ``python -O``."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_scipy_stats_imports():
    """The package needs only ``scipy.special``: importing ``scipy.stats`` dominates CLI start-up."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.stats" or name.startswith("scipy.stats.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, supgof.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


REPO = Path(__file__).resolve().parent.parent


def test_every_public_name_is_reached():
    """Each name in an ``__all__`` is used by the package, a demo, the benchmark or an acceptance test.

    Unit tests do not count: a name that only its own tests reach is dead code.
    """
    sources = [
        *sorted((REPO / "src").rglob("*.py")),
        *sorted((REPO / "demos").glob("*.py")),
        *sorted((REPO / "bench").glob("*.py")),
        REPO / "tests" / "test_acceptance.py",
    ]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unreached = [
        f"{module.name}.{name}"
        for module in pkgutil.iter_modules([str(PACKAGE)])
        for name in getattr(importlib.import_module(f"supgof.{module.name}"), "__all__", ())
        if name not in used
    ]
    assert not unreached, f"public names that only unit tests reach: {unreached}"
