"""Soundness guards in the package must survive ``python -O``."""

import ast
from pathlib import Path

import projbraid

SOURCES = sorted(Path(projbraid.__file__).resolve().parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "python -O strips these; raise explicitly instead"
