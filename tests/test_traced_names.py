"""Every function the benchmark traces exists in projbraid.

``perfbench/spans.py`` names the traced functions as (module, function)
pairs in ``TRACED``.  The list is read from the source without importing
the benchmark, so renaming or deleting a traced function fails here, in
seconds, and not first in the benchmark's own self-check.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise LookupError(f"no TRACED list in {SPANS}")


TRACED = traced()


def test_traced_list_found():
    assert len(TRACED) >= 20


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"projbraid.{module}"), name, None))
