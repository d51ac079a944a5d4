"""Integer coordinates from the path file to the pencil.

A path file's rational coordinates are cleared once per point over the
whole path, so every later stage sees integers.  That is exact: point i
times one positive L_i in every keyframe multiplies each subset determinant
of each segment by a positive constant, and no event, time or printed byte
moves.  These tests hold ``certify`` to that on realized and random
rational paths, check what scaling one whole keyframe keeps, and check that
the per-segment gcd division keeps the rows small when the lcms grow with
the path.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from projbraid import projective
from projbraid.cli import main
from projbraid.realization import PathError, detect_events, path_from_document, path_from_word, path_to_document
from projbraid.words import GroupParams, Word

F = Fraction


def certify(file) -> list[tuple]:
    """Exit code, stdout and stderr of text and structured ``certify`` on ``file``."""
    outputs = []
    for argv in (["certify", str(file)], ["--format", "structured", "certify", str(file)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        outputs.append((code, out.getvalue(), err.getvalue().replace(str(file), "FILE")))
    return outputs


def encode(value: Fraction):
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def document(k: int, frames) -> dict:
    return {"k": k, "n": k + 1, "keyframes": [[[encode(F(c)) for c in p] for p in frame] for frame in frames]}


def scale_points(frames, factors):
    """Point i times factors[i] in every keyframe."""
    return [[[F(c) * f for c in p] for p, f in zip(frame, factors)] for frame in frames]


def rational_frames(doc: dict):
    return [[[F(c) for c in p] for p in frame] for frame in doc["keyframes"]]


@st.composite
def realized_frames(draw):
    k = draw(st.sampled_from((3, 4)))
    params = GroupParams(k + 1, k)
    letters = draw(st.lists(st.sampled_from(params.all_letters()), max_size=6))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(k - 1))
    return k, rational_frames(path_to_document(path_from_word(Word(params, tuple(letters)), signs)))


@st.composite
def random_rational_frames(draw):
    """Keyframes with coordinates p/q, |p| <= 6, 1 <= q <= 3, as the
    benchmark's certify-files inputs have; the path need not certify."""
    k = draw(st.sampled_from((3, 4)))
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
    point = st.lists(coord, min_size=k, max_size=k).map(lambda p: p if any(p) else [F(1)] * k)
    frames = draw(st.lists(st.lists(point, min_size=k + 1, max_size=k + 1), min_size=2, max_size=4))
    return k, frames


paths = realized_frames() | random_rational_frames()


@settings(max_examples=60, deadline=None)
@given(paths, st.data())
def test_scaling_each_point_changes_no_output_byte(tmp_path_factory, drawn, data):
    k, frames = drawn
    factors = data.draw(st.lists(st.integers(1, 60), min_size=k + 1, max_size=k + 1))
    workdir = tmp_path_factory.mktemp("scaled")
    original, scaled = workdir / "original.json", workdir / "scaled.json"
    original.write_text(json.dumps(document(k, frames)))
    scaled.write_text(json.dumps(document(k, scale_points(frames, factors))))
    assert certify(scaled) == certify(original)


def events_or_error(frames, k: int):
    path, _ = path_from_document(document(k, frames))
    try:
        return [(e.segment, e.subset) for e in detect_events(path)]
    except PathError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(paths, st.data())
def test_scaling_one_keyframe_keeps_subsets_and_order(drawn, data):
    # one positive factor on a whole keyframe reparametrizes the segments at
    # its ends: times move, but each event keeps its subset and its place
    k, frames = drawn
    index = data.draw(st.integers(0, len(frames) - 1))
    factor = data.draw(st.integers(2, 60))
    moved = [[[c * factor for c in p] for p in frame] if i == index else frame for i, frame in enumerate(frames)]
    assert events_or_error(moved, k) == events_or_error(frames, k)


# Two k = 3 keyframes whose path A, B, A certifies with four irrational
# events on each segment.
A = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-2, 1, 1]]
B = [[-2, -1, 1], [0, 2, 1], [-3, 1, -3], [3, 0, -1]]


def primes(count: int) -> list[int]:
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def prime_denominator_frames(keyframes: int):
    """A, B, A, ... with every coordinate of keyframe f divided by the f-th
    prime: each point's denominators differ in every keyframe, so the lcm
    that clears a point over the whole path is the product of the primes."""
    return [[[F(c, p) for c in point] for point in (A, B)[f % 2]] for f, p in enumerate(primes(keyframes))]


@pytest.mark.parametrize("keyframes", [16, 64, 128])
def test_prime_denominators_reach_the_pencils_primitive(tmp_path, monkeypatch, keyframes):
    frames = prime_denominator_frames(keyframes)
    factors = [lcm(*(c.denominator for frame in frames for c in frame[i])) for i in range(4)]
    assert min(factors).bit_length() > keyframes   # the product of the primes
    twin = scale_points(frames, factors)
    assert all(c.denominator == 1 for frame in twin for p in frame for c in p)
    rational, integer = tmp_path / "rational.json", tmp_path / "integer.json"
    rational.write_text(json.dumps(document(3, frames)))
    integer.write_text(json.dumps(document(3, twin)))

    rows = []
    pencil_minors = projective.pencil_minors

    def recording(starts, ends):
        rows.extend(zip(starts, ends))
        return pencil_minors(starts, ends)

    monkeypatch.setattr(projective, "pencil_minors", recording)
    expected = certify(rational)
    assert expected[0][0] == 0 and f"events: {4 * (keyframes - 1)}" in expected[0][1]
    assert certify(integer) == expected
    assert len(rows) == 2 * 2 * 4 * (keyframes - 1)
    assert all(gcd(*a, *b) == 1 for a, b in rows)
    assert max(abs(c) for a, b in rows for c in (*a, *b)) < 3 * primes(keyframes)[-1]
