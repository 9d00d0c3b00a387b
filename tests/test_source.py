"""Source rules that hold for every module of the package."""

from __future__ import annotations

import ast
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
