"""Bounded fuzzing of the parsers that read untrusted input, and of the CLI.

Each parser must return a result or raise ``ValueError`` (which covers
``WordSyntaxError`` and ``json.JSONDecodeError``), which the command line
turns into exit code 3; a path document raises nothing else on any JSON
value.  The command line as a whole must end in an exit code, never a
traceback.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from projbraid.cli import main
from projbraid.invariants import parse_sign_string
from projbraid.realization import path_from_document
from projbraid.words import GroupParams, MAX_SUBSETS, parse_word

PATH_FILE_ERRORS = (ValueError,)

small_params = st.integers(2, 6).map(lambda k: GroupParams(k + 1, k))

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.sampled_from(["1/0", "1e20000000", "-3/4", "0", "7", " 1", "1/-2", "0x10", "1_000"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(["k", "n", "keyframes", "base_sign", "x"]), inner, max_size=5),
    ),
    max_leaves=30,
)
coordinate = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-5/3", "0", "1/0", "-2/00", "1e5", "1e20000000", "2.5", "x", 1.5]),
    json_scalars,
)


def written_out(items):
    """``items`` as one string, or as an object keyed by their texts: what a
    reader that only iterates would take for characters or keys."""
    texts = ["".join(map(str, x)) if isinstance(x, list) else str(x) for x in items]
    return st.sampled_from(["".join(texts), dict.fromkeys(texts, 0)])


@st.composite
def path_documents(draw):
    """Documents close to a path file: one field perturbed, coordinates mixed,
    sometimes a keyframe, a point or every point of a keyframe written out,
    and sometimes the whole document any JSON value."""
    k = draw(st.integers(2, 4))
    n = k + 1 + draw(st.sampled_from([0, 0, 0, 1]))
    dim = k + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    # mixed coordinates almost never make a valid document; integers often do,
    # and digits 0-3 still do once a point is written out as a string
    coordinates = draw(st.sampled_from([coordinate, st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3)]))
    frames = draw(
        st.lists(st.lists(st.lists(coordinates, min_size=dim, max_size=dim), min_size=n, max_size=n),
                 min_size=1, max_size=3)
    )
    shape = draw(st.sampled_from([None, "keyframe", "point", "every point"]))
    if shape is not None:
        f = draw(st.integers(0, len(frames) - 1))
        if shape == "keyframe":
            frames[f] = draw(written_out(frames[f]))
        else:
            points = range(n) if shape == "every point" else [draw(st.integers(0, n - 1))]
            for i in points:
                frames[f][i] = draw(written_out(frames[f][i]))
    doc = {"k": k, "n": n, "keyframes": frames}
    if draw(st.booleans()):
        signs = st.lists(st.sampled_from("+-"), min_size=k - 1, max_size=k - 1)
        doc["base_sign"] = draw(st.one_of(
            signs.map("".join), signs.map(lambda s: "(" + ",".join(s) + ")"),
            st.text(alphabet="+-(),x ", max_size=6), json_scalars,
        ))
    field = draw(st.sampled_from([None, None, "k", "n", "keyframes", "drop", "document"]))
    if field == "document":
        return draw(json_values)
    if field == "drop":
        del doc[draw(st.sampled_from(["k", "n", "keyframes"]))]
    elif field is not None:
        doc[field] = draw(st.one_of(json_values, st.sampled_from([10**9, 1e400, 18, True, "4"])))
    return doc


def check_path_document(doc) -> None:
    try:
        path, base_sign = path_from_document(doc)
    except PATH_FILE_ERRORS:
        return
    assert len(path.keyframes) >= 2
    assert all(type(frame) is list and all(type(p) is list for p in frame) for frame in doc["keyframes"])
    assert path.params.n <= MAX_SUBSETS
    assert base_sign is None or len(base_sign) == path.params.k - 1


BASE_FRAME = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]


@settings(max_examples=200, deadline=None)
@given(path_documents())
@example({"k": 3, "n": 4, "keyframes": [BASE_FRAME, BASE_FRAME], "base_sign": "+-"})
@example({"k": 3, "n": 4, "keyframes": [BASE_FRAME, BASE_FRAME], "base_sign": "(-,+)"})
def test_path_documents_near_the_format(doc):
    check_path_document(doc)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_arbitrary_json_values_as_path_documents(doc):
    # what json.loads can return: the value goes through a JSON round trip
    check_path_document(json.loads(json.dumps(doc)))


@settings(max_examples=150, deadline=None)
@given(
    small_params,
    st.one_of(
        st.text(max_size=30),
        st.lists(
            st.one_of(
                st.from_regex(r"b[0-9]{1,3}", fullmatch=True),
                st.from_regex(r"a\{[0-9]{1,2}(,[0-9]{1,2}){0,6}\}", fullmatch=True),
                st.text(alphabet="ab{},0123456789 ", max_size=6),
            ),
            max_size=8,
        ).map(" ".join),
    ),
)
def test_parse_word(params, text):
    try:
        word = parse_word(text, params)
    except ValueError:
        return
    assert len(word) == len(text.split())


@settings(max_examples=100, deadline=None)
@given(small_params, st.one_of(st.text(max_size=12), st.text(alphabet="+-(), ", max_size=12)))
def test_parse_sign_string(params, text):
    try:
        signs = parse_sign_string(text, params)
    except ValueError:
        return
    assert len(signs) == params.k - 1
    assert set(signs) <= {1, -1}


# command -> its positional arguments: w a word, f a path file
SHAPES = {
    "solve": "w", "equal": "ww", "f-image": "w", "parity": "w", "sign-action": "w", "eliminate": "w",
    "in-h": "w", "in-tilde": "w", "realize": "wf", "certify": "f", "orbit": "", "oracle": "ww",
    "selftest": "",
}
GLOBAL_FLAGS = st.lists(
    st.one_of(
        st.tuples(st.just("--k"), st.integers(2, 5).map(str)),
        st.tuples(st.just("--format"), st.sampled_from(["text", "structured", "yaml"])),
        st.tuples(st.just("--seed"), st.sampled_from(["0", "7", "-1", "x"])),
    ),
    max_size=3,
).map(lambda pairs: [token for pair in pairs for token in pair])
WORDS = st.sampled_from([
    "", "b1", "b4 b4", "b4 b1 b4", "b1 b2 b3", "b5 b1 b5", "b1 b2 b1 b2 b1",
    "a{1,2}", "a{1,2,3} a{2,3,4}", "a{1,2} a{3,4}", "b9", "b0", "xx", "a{1,1}",
])
# "@name" stands for a file made fresh for each run: see make_files
FILES = st.sampled_from(["@missing", "@dir", "@bad", "@good", "@out", "@nested"])
EXTRAS = st.sampled_from([
    "--trace", "--signs", "(+,-)", "(-,+,+)", "(x)", "quick", "--suite", "nope",
    "-h", "--", "-1", "b1", "@good",
])


@st.composite
def cli_argv(draw) -> list[str]:
    # the oracle bounds are the user's by design, so they stay small here
    argv = draw(GLOBAL_FLAGS) + ["--max-len", "8", "--max-states", "200"]
    command = draw(st.sampled_from(sorted(SHAPES)))
    argv.append(command)
    argv += [draw(WORDS if kind == "w" else FILES) for kind in SHAPES[command]]
    argv += draw(st.lists(EXTRAS, max_size=2))
    if command == "selftest":
        # one cheap suite keeps selftest fast; "full" is never drawn
        argv += ["--suite", "sign-orbit"]
    return argv


def make_files(root: Path) -> dict[str, str]:
    (root / "dir").mkdir()
    (root / "bad.json").write_text("{not json")
    shutil.copy(Path(__file__).resolve().parent / "golden" / "readme-realize.path.json", root / "good.json")
    names = {"missing": "missing.json", "dir": "dir", "bad": "bad.json", "good": "good.json",
             "out": "out.json", "nested": "missing/dir/x.json"}
    return {f"@{key}": str(root / name) for key, name in names.items()}


@settings(max_examples=400, deadline=None)
@given(cli_argv())
def test_cli_argv(argv):
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        files = make_files(Path(tmp))
        argv = [files.get(token, token) for token in argv]
        # a relative path that a run writes lands in the temporary directory
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(previous)
    assert code in (0, 1, 2, 3)
