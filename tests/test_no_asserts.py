"""Source guards for the package.

Soundness guards must survive ``python -O``, so there is no ``assert``; and
no ``json.dumps`` passes ``indent``, which runs json's pure-Python encoder.
"""

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


def test_no_indented_json_dumps():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dumps", "dump")
        and any(keyword.arg in ("indent", None) for keyword in node.keywords)
    ]
    assert found == [], "indent makes json fall back to its pure-Python encoder; use indented_json"
