"""The indented JSON writer against ``json.dumps(indent=2)``, byte for byte.

``realization.indented_json`` renders structured CLI output (sorted keys)
and path files (insertion order).  ``json.dumps`` stays the reference here:
with ``indent`` it runs the pure-Python encoder, which
``tests/test_no_asserts.py`` keeps out of the package.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from projbraid import cli
from projbraid.realization import indented_json

strings = st.one_of(
    st.text(),
    st.text(st.characters(codec=None, categories=None)),   # lone surrogates too
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\t\n\r", " ", "\ud800", "é", "日本", "😀", "a\"b\\c"]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -2**64 - 1, 10**40, 0, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    strings,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(values, st.booleans())
def test_matches_json_dumps(value, sort_keys):
    assert indented_json(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@pytest.mark.parametrize("value", [{1}, {"a": [object()]}, b"x"], ids=["set", "nested-object", "bytes"])
def test_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        indented_json(value)


def test_solve_trace_output_matches_json_dumps(monkeypatch, capsys):
    """A seeded 512-letter trivial word: w followed by w reversed."""
    rng = random.Random(512)
    half = [rng.randint(1, 4)]
    while len(half) < 256:
        half.append(rng.choice([j for j in (1, 2, 3, 4) if j != half[-1]]))
    text = " ".join(f"b{j}" for j in half + half[::-1])
    documents = []

    def capture(doc, sort_keys=False):
        documents.append(doc)
        return indented_json(doc, sort_keys)

    monkeypatch.setattr(cli, "indented_json", capture)
    assert cli.main(["--format", "structured", "solve", "--trace", text]) == 0
    out = capsys.readouterr().out
    [doc] = documents
    assert doc["status"] == "Trivial" and len(doc["trace"]) > 256
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

