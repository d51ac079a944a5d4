"""The indented JSON writer against ``json.dumps(indent=2)``, byte for byte.

``realization.indented_json`` renders structured CLI output (sorted keys)
and path files (insertion order).  ``json.dumps`` stays the reference here:
with ``indent`` it runs the pure-Python encoder, which
``tests/test_no_asserts.py`` keeps out of the package.  The writer hands flat
containers and lists of them to json's C encoder and walks the rest, so the
targeted tests below build those shapes at every margin from 0 to 8, with
strings that look like the separators it rewrites, and run once more without
the C encoder.  A ``JSONFragment``, text already encoded at margin 0, must
write as the value it encodes wherever it sits.
"""

import json
import random
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from projbraid import cli, realization
from projbraid.invariants import reference_signs
from projbraid.realization import (
    JSONFragment,
    indented_json,
    load_path_file,
    path_from_word,
    path_to_document,
    save_path_file,
)
from projbraid.solver import eliminate_last, equal, solve
from projbraid.words import (
    CancelPair,
    GroupParams,
    InsertPair,
    ReverseWindow,
    bfs_equal_oracle,
    format_word,
    free_reduce,
    parse_word,
)

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
P43 = GroupParams(4, 3)

strings = st.one_of(
    st.text(),
    st.text(st.characters(codec=None, categories=None)),   # lone surrogates too
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\t\n\r", "\u2028", "\ud800", "é", "日本", "😀", "a\"b\\c"]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -2**64 - 1, 10**40, 0, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    strings,
)
# every key type json accepts; with sort_keys, mixed types raise json's TypeError
keys = st.one_of(
    strings, st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none()
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=40,
)


class Level(IntEnum):
    LOW = 1
    HIGH = 2**70


class Name(str):
    pass


# Strings holding what the C encoder's output holds at item boundaries.
TRICKY = [
    '"},\n    {"', "},\n    {", "],\n[", "],\n      [", '"', "\\", "\n", "\ud800", "\udfff", "\u2028", "\u2029", "a\"b\\c", "",
]
flat_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -2**64 - 1, 10**40]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(TRICKY),
    strings,
)
flat_lists = st.lists(flat_values, min_size=1, max_size=5)
flat_dicts = st.dictionaries(st.one_of(st.sampled_from(TRICKY), strings), flat_values, min_size=1, max_size=5)
flat = st.one_of(flat_lists, flat_lists.map(tuple), flat_dicts)
# a list of flat containers, sometimes with one item that breaks the shape
odd_items = st.one_of(
    st.sampled_from([[], {}, (), OrderedDict(a=1), Level.LOW, Name("x"), [[1]], {"a": [1]}]), flat_values
)
shapes = st.one_of(
    flat,
    st.lists(flat_dicts, min_size=1, max_size=4),
    st.lists(st.one_of(flat_lists, flat_lists.map(tuple)), min_size=1, max_size=4),
    st.lists(flat_dicts, min_size=1, max_size=4).map(tuple),
    st.tuples(st.lists(flat, min_size=1, max_size=4), st.integers(0, 4), odd_items).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1]:]
    ),
)


def nested(shape, wrappers):
    """``shape`` inside one container per wrapper kind, so that it sits at margin 2 * len(wrappers)."""
    for kind in wrappers:
        if kind == "list":
            shape = [shape]
        elif kind == "list-with-siblings":
            shape = [1, shape, [], "x"]
        elif kind == "dict":
            shape = {"z": shape, "a": {}, "m": None}
        else:
            shape = OrderedDict([("k", shape), ("j", Level.HIGH)])
    return shape


targeted = st.builds(
    nested, shapes, st.lists(st.sampled_from(["list", "list-with-siblings", "dict", "ordered"]), max_size=4)
)


def outcome(render, value, sort_keys):
    """The text ``render`` gives, or the type and message of the error it raises."""
    try:
        return render(value, sort_keys)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches(value, sort_keys):
    expected = outcome(lambda v, s: json.dumps(v, indent=2, sort_keys=s), value, sort_keys)
    assert outcome(indented_json, value, sort_keys) == expected


@settings(max_examples=300, deadline=None)
@given(values, st.booleans())
def test_matches_json_dumps(value, sort_keys):
    assert_matches(value, sort_keys)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
@settings(max_examples=300, deadline=None)
@given(targeted, st.booleans())
def test_flat_shapes_match_json_dumps(c_encoder, value, sort_keys):
    with pytest.MonkeyPatch.context() as patch:
        if not c_encoder:
            patch.setattr(json.encoder, "c_make_encoder", None)
            patch.setattr(realization, "_c_encoder", unreachable)
        assert_matches(value, sort_keys)


def unreachable(*args):
    raise AssertionError("a C encoder was asked for without json.encoder.c_make_encoder")


@pytest.mark.parametrize(
    "value, items_margin",
    [
        ([1, "a", None, True, 1.5], 2),
        (({"b": 1, "a": 2}, {"c": "},\n    {"}), 4),
        ([[1, 2], (3,), ["],\n      ["]], 4),
        ({"trace": [{"kind": "insert", "pos": 0}, {"kind": "cancel", "pos": 1}]}, 6),
    ],
    ids=["flat-list", "flat-dicts", "flat-lists", "nested-flat-dicts"],
)
def test_flat_shapes_take_one_c_call(monkeypatch, value, items_margin):
    """A flat container, or a list of them, asks for one C encoder, at the
    margin of its innermost items."""
    margins, encoder = [], realization._c_encoder

    def spy(margin, sort_keys):
        margins.append(margin)
        return encoder(margin, sort_keys)

    monkeypatch.setattr(realization, "_c_encoder", spy)
    assert indented_json(value, True) == json.dumps(value, indent=2, sort_keys=True)
    assert margins == [" " * items_margin]


@pytest.mark.parametrize(
    "value",
    [
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, True, False, 2**64, -(2**100)],
        [Level.LOW, Level.HIGH, Name("a\n"), OrderedDict([("b", 1), ("a", [])]), [], {}, ()],
        {"x": [Level.HIGH], "y": (Name("},\n  {"), OrderedDict()), "z": [[], [{}], [[]]]},
        [[{"a": 1}], {"a": 1}, [1], ()],
    ],
    ids=["floats-bools-ints", "subclasses-and-empties", "subclasses-nested", "mixed-items"],
)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_adversarial_values(value, sort_keys):
    assert_matches(value, sort_keys)


KEYED = [
    {2: "b", 10: "c", 1: "a"},
    {1.5: "x", 0.1: 2, float("nan"): 3, float("inf"): 4, -float("inf"): 5, -0.0: 6},
    {True: 1, False: 2},
    {None: "n"},
    {Level.HIGH: 1, 2**64: 2, -3: 3},
    {3: "a", 2.5: "b", True: None, None: 1.5, "s": 0},
    {"a": 1, 1: "a"},
    {(1, 2): "tuple key"},
    {"a": 1, frozenset(): 2},
]


@pytest.mark.parametrize("keyed", KEYED, ids=lambda d: "-".join(type(k).__name__ for k in d))
@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize("form", ["flat", "nested", "in-list"])
def test_dict_keys_as_json_converts_them(keyed, sort_keys, form):
    """json accepts str, int, float, bool and None keys and sorts on the keys
    before it converts them; the flat (C) path and the walk agree with it,
    down to the TypeError an unsortable or unsupported key raises."""
    value = {"flat": keyed, "nested": {**keyed, "list": [1]}, "in-list": [keyed, keyed]}[form]
    assert_matches(value, sort_keys)


@pytest.mark.parametrize("value", [{1}, {"a": [object()]}, b"x"], ids=["set", "nested-object", "bytes"])
def test_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        indented_json(value)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_saved_path_file_of_a_realized_word(k, tmp_path):
    params = GroupParams(k + 1, k)
    word = parse_word(" ".join(f"b{j}" for j in [k + 1, 1, 2, k + 1, 1, k, 1]), params)
    signs = reference_signs(params)
    path = path_from_word(word, signs)
    save_path_file(path, tmp_path / "p.json", base_sign=signs)
    doc = path_to_document(path, signs)
    assert (tmp_path / "p.json").read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(p.name for p in INPUTS.glob("*.json")))
def test_golden_path_files_saved_again(name, tmp_path):
    doc = json.loads((INPUTS / name).read_text())
    assert indented_json(doc) == json.dumps(doc, indent=2)
    try:
        path, base_sign = load_path_file(INPUTS / name)
    except ValueError:   # not a square group: the raw document above is all there is
        return
    save_path_file(path, tmp_path / name, base_sign)
    assert (tmp_path / name).read_text() == json.dumps(path_to_document(path, base_sign), indent=2) + "\n"


def test_solve_trace_output_matches_json_dumps(capsys):
    """``--trace`` output of solve, eliminate, equal and oracle against
    ``json.dumps`` of the printed document with its trace rebuilt from the
    ``Move`` objects: the CLI writes the trace as one encoded fragment.

    The words: a seeded 512-letter trivial word w followed by w reversed,
    and, for equal, a freely reduced trivial word against its reverse."""
    rng = random.Random(512)
    half = [rng.randint(1, 4)]
    while len(half) < 256:
        half.append(rng.choice([j for j in (1, 2, 3, 4) if j != half[-1]]))
    text = " ".join(f"b{j}" for j in half + half[::-1])
    relators = []
    for _ in range(40):
        window = rng.sample(range(1, 5), 4)
        pos = rng.randint(0, len(relators))
        relators[pos:pos] = window + window
    reduced = format_word(free_reduce(parse_word(" ".join(f"b{j}" for j in relators), P43)), "b-index")
    reverse = " ".join(reduced.split()[::-1])
    oracle_words = ("b4 b1 b2 b1 b2 b4", "b3 b2 b1 b2 b1 b3")
    runs = [
        (["solve", "--trace", text], solve(parse_word(text, P43)).trace.steps),
        (["eliminate", "--trace", text], eliminate_last(parse_word(text, P43))[1].steps),
        (["equal", "--trace", reduced, reverse],
         equal(parse_word(reduced, P43), parse_word(reverse, P43)).trace.steps),
        (["oracle", "--trace", *oracle_words],
         bfs_equal_oracle(*(parse_word(w, P43) for w in oracle_words)).trace),
    ]
    for argv, moves in runs:
        code = cli.main(["--format", "structured", *argv])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0, argv[0]
        assert {type(move) for move in moves} == {InsertPair, CancelPair, ReverseWindow}, argv[0]
        doc["trace"] = [move_document(move) for move in moves]
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n", argv[0]
    # the empty word: an empty trace
    assert cli.main(["--format", "structured", "solve", "--trace", ""]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["trace"] == [] and out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def move_document(move) -> dict:
    kind = {InsertPair: "insert", CancelPair: "cancel", ReverseWindow: "reverse"}[type(move)]
    if kind == "reverse":
        return {"kind": kind, "pos": move.pos}
    return {"kind": kind, "pos": move.pos, "letter": str(move.letter)}


def fragment(value, sort_keys: bool) -> JSONFragment:
    return JSONFragment(json.dumps(value, indent=2, sort_keys=sort_keys))


@settings(max_examples=300, deadline=None)
@given(values, st.lists(st.sampled_from(["list", "list-with-siblings", "dict", "ordered"]), max_size=3),
       st.booleans())
def test_fragments_are_copied_at_their_margin(value, wrappers, sort_keys):
    """A fragment at margin 0 to 3 (0 to 6 spaces) writes as the value it encodes."""
    try:
        encoded = fragment(value, sort_keys)
    except (TypeError, ValueError):   # keys json cannot sort
        return
    expected = json.dumps(nested(value, wrappers), indent=2, sort_keys=sort_keys)
    assert indented_json(nested(encoded, wrappers), sort_keys) == expected
    siblings = indented_json([encoded, {"a": encoded}], sort_keys)
    assert siblings == json.dumps([value, {"a": value}], indent=2, sort_keys=sort_keys)
