"""Piecewise linear paths of configurations and their singular events.

A path is a sequence of keyframe configurations; between consecutive
keyframes every point's representative moves linearly in Q^k.  Along a
segment each k-subset of points has a determinant that is a polynomial of
degree at most k in the segment parameter.  Each point's pair of
representatives is cleared of denominators by one positive factor, so these
are integer pencils, all k + 1 of a segment computed at once as the maximal
minors of its k + 1 points.  A *singular event* is a simple interior root of
one of these polynomials: the moment the subset's points become
projectively degenerate.  Reading off the subsets in time order turns a
path into a word; building a path letter by letter inverts that map on base
configurations.

Event parameters are exact: rational when the root is found by the divisor
search, otherwise an isolating interval with a certified sign change.  All
ordering and coincidence decisions refine intervals until they are decided
exactly; nothing is ever compared through floating point.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations
from json.encoder import encode_basestring_ascii
from pathlib import Path as FilePath

from . import polys
from .invariants import SignString, format_sign_string, parse_sign_string, reference_signs, sign_action
from .projective import (
    Configuration,
    ProjectivePoint,
    ProjectiveTransform,
    _integer_rows,
    base_configuration,
    general_position_violation,
    pencil_minors,
    shear_family,
    sign_snap,
    sign_string_of,
    singular_subsets,
)
from .words import GroupParams, Letter, Word


class PathError(ValueError):
    """Base class for everything detect_events can reject."""


class DegenerateKeyframe(PathError):
    """A keyframe is already singular or out of general position."""


class TangentialEvent(PathError):
    """A subset determinant has a multiple root inside a segment."""


class SimultaneousEvents(PathError):
    """Two singular events in one segment share their parameter."""


class IdenticallySingularSegment(PathError):
    """A subset determinant vanishes along an entire segment."""


class ZeroVectorOnSegment(PathError):
    """Some point's representative would pass through the origin."""


class CertificationError(PathError):
    """A constructed path failed its own event certification."""


class BaseSignMismatch(PathError):
    """A path file's first keyframe is not the base configuration of its base_sign."""


@dataclass(frozen=True)
class AlgebraicTime:
    """An irrational (or undetermined) root, exactly isolated.

    ``poly`` is a squarefree integer form, primitive with a positive leading
    coefficient, with exactly one root in (lo, hi); its values at lo and hi
    have opposite signs.
    """

    poly: polys.ZPoly
    lo: Fraction
    hi: Fraction


EventTime = Fraction | AlgebraicTime


@dataclass(frozen=True)
class SingularEvent:
    segment: int
    t: EventTime
    subset: tuple[int, ...]


@dataclass(frozen=True)
class PLPath:
    """Keyframes plus linear interpolation of stored representatives."""

    params: GroupParams
    keyframes: tuple[Configuration, ...]

    def __post_init__(self) -> None:
        if len(self.keyframes) < 2:
            raise ValueError("a path needs at least two keyframes")
        for config in self.keyframes:
            if config.params != self.params:
                raise ValueError("keyframe parameters disagree with the path")


# --- exact comparison of event times ---------------------------------------

def time_eq(a: EventTime, b: EventTime) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    if isinstance(a, Fraction):
        a, b = b, a
    if isinstance(b, Fraction):
        return a.lo < b < a.hi and polys.evaluate(a.poly, b) == 0
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo >= hi:
        return False
    common = polys.gcd(a.poly, b.poly)
    if polys.degree(common) < 1:
        return False
    return polys.count_roots(common, lo, hi) > 0


def _interval(t: EventTime, kept: dict[int, polys.Interval]) -> polys.Interval:
    """The interval ``kept`` holds for t, else its starting one: [r, r] for a
    rational r, the isolating (lo, hi) for an algebraic time."""
    found = kept.get(id(t))
    if found is not None:
        return found
    if isinstance(t, Fraction):
        return t.numerator, t.numerator, t.denominator, 0
    return polys.interval(t.poly, t.lo, t.hi)


def _gaps(ia: polys.Interval, ib: polys.Interval) -> tuple[int, int]:
    """(lo(ib) - hi(ia), lo(ia) - hi(ib)), each times the positive qa * qb."""
    a0, a1, qa, _ = ia
    b0, b1, qb, _ = ib
    return b0 * qa - a1 * qb, a0 * qb - b1 * qa


def time_cmp(a: EventTime, b: EventTime, kept: dict[int, polys.Interval] | None = None) -> int:
    """Order two event times exactly (-1, 0 or 1), refining intervals as needed.

    Each time is read as a ``polys.Interval``: a rational r as the zero-width
    [r, r], an algebraic time as the interval ``kept[id(t)]`` holds from an
    earlier comparison, else its isolating (lo, hi).  Closed intervals
    strictly apart decide at once.  Otherwise ``time_eq`` rules out equal
    times, which no refinement separates (two zero-width intervals that
    touch are one point), and the wider of two overlapping intervals is
    halved until they are apart; a halving that lands on the root leaves a
    zero-width interval, which is never halved again.  Both intervals are
    then kept, so a caller that passes one ``kept`` to every comparison of
    a sort resumes each time where its last comparison left it.
    """
    kept = {} if kept is None else kept
    ia, ib = _interval(a, kept), _interval(b, kept)
    up, down = _gaps(ia, ib)
    if up <= 0 and down <= 0:
        if time_eq(a, b):
            return 0
        while up < 0 and down < 0:
            if (ia[1] - ia[0]) * ib[2] >= (ib[1] - ib[0]) * ia[2]:
                ia = polys.refine_once(a.poly, ia)
            else:
                ib = polys.refine_once(b.poly, ib)
            up, down = _gaps(ia, ib)
        kept[id(a)], kept[id(b)] = ia, ib
    return -1 if up >= 0 else 1


# --- event detection --------------------------------------------------------

def _segment_rows(start: Configuration, end: Configuration) -> tuple[list[list[int]], list[list[int]]]:
    """Per point, its start and end representatives as integer rows, the pair
    cleared of denominators by one positive factor, which changes no root and
    no sign of a subset determinant: the rows ``pencil_minors`` takes."""
    k = start.params.k
    rows, _ = _integer_rows([p.coords + q.coords for p, q in zip(start.points, end.points)])
    return [row[:k] for row in rows], [row[k:] for row in rows]


def _check_keyframe(config: Configuration, singular: list[tuple[int, ...]], where: str = "") -> None:
    """Raise DegenerateKeyframe unless ``singular``, the configuration's
    singular k-subsets in order, is empty; ``where`` prefixes the message."""
    if not singular:
        return
    violation = general_position_violation(config)
    if violation is not None:
        raise DegenerateKeyframe(f"{where}points {violation} are not in general position")
    raise DegenerateKeyframe(f"{where}singular subset {singular[0]}")


def _check_representatives(segment: int, starts: list[list[int]], ends: list[list[int]]) -> None:
    """Raise ZeroVectorOnSegment if some point's end row is a negative multiple
    of its start row, read off the integer rows of ``_segment_rows``: with a
    the start row, b the end row and j the first index with a_j != 0, that
    is a_j * b_j < 0 with every cross-product a_j * b_m - b_j * a_m zero."""
    for i, (a, b) in enumerate(zip(starts, ends)):
        j = next(j for j, x in enumerate(a) if x)
        if a[j] * b[j] < 0 and all(a[j] * y == b[j] * x for x, y in zip(a, b)):
            raise ZeroVectorOnSegment(
                f"segment {segment}: point {i + 1} representative passes through the origin"
            )


def _segment_pencils(starts: list[list[int]], ends: list[list[int]]) -> list[tuple[tuple[int, ...], polys.ZPoly]]:
    """Each k-subset S, ascending, with its determinant along the segment
    whose integer rows ``_segment_rows`` gave.

    One ``pencil_minors`` call gives every subset: the subset without point
    m is minor m - 1, and the subsets in ascending order leave out n,
    n - 1, ..., 1.
    """
    subsets = combinations(range(1, len(starts) + 1), len(starts[0]))
    return list(zip(subsets, reversed(pencil_minors(starts, ends))))


def _segment_events(segment: int, pencils: list[tuple[tuple[int, ...], polys.ZPoly]]):
    found: list[tuple[EventTime, tuple[int, ...]]] = []
    for subset, d in pencils:
        if not d:
            raise IdenticallySingularSegment(f"segment {segment}: subset {subset} is singular throughout")
        if polys.degree(d) < 1:
            continue
        squarefree, multiple = polys.squarefree_split(d)
        tangential = polys.degree(multiple) >= 1

        remaining = squarefree
        extracted = polys.rational_roots_in_unit_interval(squarefree)
        if extracted is not None:
            roots, remaining = extracted
            for r in roots:
                if tangential and polys.evaluate(multiple, r) == 0:
                    raise TangentialEvent(
                        f"segment {segment}: subset {subset} has a multiple root at t = {r}"
                    )
                found.append((r, subset))
        if polys.degree(remaining) >= 1:
            shared = polys.gcd(remaining, multiple) if tangential else polys.ZERO
            for lo, hi in polys.isolate_roots(remaining, Fraction(0), Fraction(1)):
                if polys.degree(shared) >= 1 and polys.count_roots(shared, lo, hi) > 0:
                    raise TangentialEvent(
                        f"segment {segment}: subset {subset} has a multiple root in ({lo}, {hi})"
                    )
                found.append((AlgebraicTime(remaining, lo, hi), subset))

    kept: dict[int, polys.Interval] = {}

    def order(x, y) -> int:
        sign = time_cmp(x[0], y[0], kept)
        if sign == 0:
            first, second = sorted((x[1], y[1]))
            raise SimultaneousEvents(
                f"segment {segment}: subsets {first} and {second} degenerate at the same parameter"
            )
        return sign

    # a comparison sort compares every pair it leaves adjacent, and equal
    # times end up adjacent, so no simultaneous pair escapes the sort
    found.sort(key=cmp_to_key(order))
    return [SingularEvent(segment, t, subset) for t, subset in found]


def detect_events(path: PLPath) -> list[SingularEvent]:
    """All singular events of the path, ordered by (segment, parameter).

    Raises a ``PathError`` subclass when the path violates the stability
    requirements: degenerate keyframes, a representative crossing the
    origin, identically singular segments, multiple roots, or two events
    sharing a parameter.  Re-running on equal input yields equal output.

    Keyframes are checked first, off the segment pencils: ``_segment_rows``
    scales points by positive factors, so a pencil's values at t = 0 (its
    constant term) and t = 1 (its coefficient sum) vanish on exactly the
    singular subsets of the keyframes at its ends.
    """
    frames = path.keyframes
    rows = [_segment_rows(start, end) for start, end in zip(frames, frames[1:])]
    pencils = [_segment_pencils(starts, ends) for starts, ends in rows]
    # keyframe values: t = 0 of each segment, then t = 1 of the last one
    frame_values = [[(subset, d[:1]) for subset, d in found] for found in pencils] + [pencils[-1]]
    for idx, (config, values) in enumerate(zip(frames, frame_values)):
        _check_keyframe(config, [subset for subset, d in values if not sum(d)], f"keyframe {idx}: ")
    events: list[SingularEvent] = []
    for segment, (found, (starts, ends)) in enumerate(zip(pencils, rows)):
        _check_representatives(segment, starts, ends)
        events.extend(_segment_events(segment, found))
    return events


def word_from_path(path: PLPath) -> Word:
    """The word spelled by the path's singular events in time order."""
    return Word(path.params, tuple(Letter(e.subset) for e in detect_events(path)))


# --- letter paths and roundtrips --------------------------------------------

@lru_cache(maxsize=None)
def _certified_letter_path(params: GroupParams, letter: Letter) -> PLPath:
    """The letter path from the all-plus base configuration, certified by detection."""
    k = params.k
    c = letter.omitted_index(params)
    signs = reference_signs(params)
    start = base_configuration(params, signs)

    end_signs = sign_action(Word(params, (letter,)), signs)
    if c <= k - 1:
        keyframes = (start, base_configuration(params, end_signs))
    elif c == k:
        moved = ProjectivePoint(tuple(Fraction(s) for s in signs) + (Fraction(-1),))
        keyframes = (start, Configuration(params, start.points[:k] + (moved,)))
    else:
        # the last point is framed by the others: send point k on a detour
        # through the opposite side, then shear everything straight again
        detour = ProjectivePoint(tuple(Fraction(-2 * s) for s in signs) + (Fraction(-1),))
        middle = Configuration(
            params, start.points[: k - 1] + (detour,) + (start.points[k],)
        )
        keyframes = (start, middle, shear_family(middle))

    path = PLPath(params, keyframes)
    events = detect_events(path)
    if len(events) != 1 or events[0].subset != letter.subset:
        raise CertificationError(f"letter path for {letter} produced events {events}")
    return path


def letter_path(params: GroupParams, letter: Letter, signs: SignString) -> tuple[PLPath, SignString]:
    """``path_from_word`` on the one-letter word, and the sign string it ends at."""
    word = Word(params, (letter,))
    return path_from_word(word, signs), sign_action(word, signs)


def path_from_word(word: Word, signs: SignString | None = None) -> PLPath:
    """The concatenated letter paths of the word, from ``base_configuration(signs)``.

    A letter path crosses the letter's subset exactly once and nothing else.
    A letter omitting one of the first k-1 indices moves only the last
    point; the letter omitting k flips the last point across x_k = 0; the
    letter omitting k+1 sends point k to the far side of the frame and
    brings it back by a determinant-one shear that creates no events.

    Each letter's path is certified by detection once, from the all-plus
    signs, and each piece is derived from it exactly.  With s the signs
    where the piece starts, D_s = diag(s_1, ..., s_(k-1), 1), g = (s_1,
    ..., s_(k-1), 1, 1) and sigma the running joint scale, point j of every
    keyframe is sigma_j g_j D_s times its all-plus representative.  D_s
    sends e_i to e_i and (1, ..., 1) to (s_1, ..., s_(k-1), 1), so the
    first keyframe is sigma times ``base_configuration(s)``: the previous
    piece's last keyframe.  Representatives still move linearly, and each
    k-subset determinant is multiplied by the constant det(D_s) times the
    product of sigma_j g_j over the subset, which is +-1.  So every
    determinant has the same roots on every segment, a representative
    passes through the origin on one path exactly when it does on the
    other, and the derived piece has the same events and passes the same
    stability checks with no second detection.

    Only the endpoint is checked: the last keyframe must be the base
    configuration of the translated signs with each point scaled by +1 or
    -1, and those scales are the next sigma.  By construction they are: a
    letter omitting c <= k-1 ends on the base, the letter omitting k
    negates point k+1 and the letter omitting k+1 negates point k.
    """
    params = word.params
    signs = tuple(signs) if signs is not None else reference_signs(params)
    keyframes: list[Configuration] = [base_configuration(params, signs)]
    scales = (1,) * params.n
    for letter in word.letters:
        # coordinate i of point j is kept or negated by f_i g_j sigma_j, f = (s, 1), g = (s, 1, 1)
        flips = [[f * g * sigma for f in (*signs, 1)] for g, sigma in zip((*signs, 1, 1), scales)]
        for config in _certified_letter_path(params, letter).keyframes[1:]:
            keyframes.append(Configuration(params, tuple(
                ProjectivePoint(tuple(-c if m < 0 and c else c for c, m in zip(p.coords, row)))
                for p, row in zip(config.points, flips)
            )))
        signs = sign_action(Word(params, (letter,)), signs)
        end = base_configuration(params, signs).points
        ratios = [p.ratio_to(q) for p, q in zip(keyframes[-1].points, end)]
        if any(r not in (1, -1) for r in ratios):
            raise CertificationError(f"letter path for {letter} missed its endpoint")
        scales = tuple(int(r) for r in ratios)
    if len(keyframes) == 1:
        keyframes.append(keyframes[0])
    return PLPath(params, tuple(keyframes))


@dataclass(frozen=True)
class RoundtripReport:
    word: Word
    recovered: Word
    endpoint_signs: SignString
    expected_signs: SignString

    @property
    def ok(self) -> bool:
        return (
            self.word.letters == self.recovered.letters
            and self.endpoint_signs == self.expected_signs
        )


def certify_roundtrip(word: Word, signs: SignString | None = None) -> RoundtripReport:
    """Realize the word as a path, read it back, and check the endpoint."""
    params = word.params
    start = tuple(signs) if signs is not None else reference_signs(params)
    path = path_from_word(word, start)
    recovered = word_from_path(path)
    endpoint = sign_string_of(path.keyframes[-1])
    return RoundtripReport(word, recovered, endpoint, sign_action(word, start))


def void_path_to_base(config: Configuration) -> tuple[PLPath, SignString]:
    """An event-free path from a nonsingular marked configuration to a base one.

    Requires points 1..k-1 at the coordinate points.  First a unit
    determinant shear takes point k to e_k; every subset determinant is
    constant along this motion, so nothing degenerates.  Then the last point
    snaps straight to its sign vector, during which no coordinate changes
    sign.  Certified event-free by detection before returning.
    """
    params = config.params
    _check_keyframe(config, singular_subsets(config))

    keyframes = [config]
    sheared = shear_family(config)
    for frame in (sheared, sign_snap(sheared)):
        if frame.points != keyframes[-1].points:
            keyframes.append(frame)
    if len(keyframes) == 1:
        keyframes.append(keyframes[0])
    path = PLPath(params, tuple(keyframes))
    events = detect_events(path)
    if events:
        raise CertificationError(f"return path produced events {events}")
    signs = sign_string_of(path.keyframes[-1])
    if not path.keyframes[-1].same_configuration(base_configuration(params, signs)):
        raise CertificationError("return path missed the base configuration")
    return path, signs


def apply_transform_to_path(transform: ProjectiveTransform, path: PLPath) -> PLPath:
    """Apply one transform to every keyframe; events are carried along exactly."""
    return PLPath(
        path.params,
        tuple(transform.apply_to_configuration(config) for config in path.keyframes),
    )


# --- path files --------------------------------------------------------------

def _encode_fraction(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


_FRACTION_TEXT = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _decode_fraction(value) -> Fraction:
    """Read a coordinate as ``_encode_fraction`` writes it: an int or a
    ``"p"`` / ``"p/q"`` string with q nonzero.  Nothing else is accepted, so
    a float, a bool, ``"1/0"`` or an exponent like ``"1e20000000"`` fails
    with ValueError instead of raising something else or expanding."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _FRACTION_TEXT.fullmatch(value):
        return Fraction(value)
    raise ValueError(f"expected an integer or 'p/q' string with q nonzero, got {value!r}")


def _decode_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def path_to_document(path: PLPath, base_sign: SignString | None = None) -> dict:
    doc = {
        "k": path.params.k,
        "n": path.params.n,
        "keyframes": [
            [[_encode_fraction(c) for c in point.coords] for point in config.points]
            for config in path.keyframes
        ],
    }
    if base_sign is not None:
        doc["base_sign"] = "".join("+" if s > 0 else "-" for s in base_sign)
    return doc


def path_from_document(doc: dict) -> tuple[PLPath, SignString | None]:
    try:
        params = GroupParams(_decode_int(doc, "n"), _decode_int(doc, "k"))
        raw_keyframes = doc["keyframes"]
    except KeyError as exc:
        raise ValueError(f"path document is missing field {exc.args[0]!r}") from exc
    params.require_path_k()
    keyframes = []
    for frame in raw_keyframes:
        points = tuple(
            ProjectivePoint(tuple(_decode_fraction(c) for c in coords)) for coords in frame
        )
        keyframes.append(Configuration(params, points))
    base_sign: SignString | None = None
    if "base_sign" in doc:
        if not isinstance(doc["base_sign"], str):
            raise ValueError(f"base_sign must be a string, got {doc['base_sign']!r}")
        base_sign = parse_sign_string(doc["base_sign"], params)
    return PLPath(params, tuple(keyframes)), base_sign


def check_base_sign(path: PLPath, base_sign: SignString) -> None:
    """Raise BaseSignMismatch unless the path starts at ``base_configuration(base_sign)``."""
    if not path.keyframes[0].same_configuration(base_configuration(path.params, base_sign)):
        raise BaseSignMismatch(
            f"keyframe 0 is not the base configuration of base_sign {format_sign_string(base_sign)}"
        )


def indented_json(value, sort_keys: bool = False, margin: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=sort_keys)``, byte for byte, for str-keyed dicts.

    ``indent`` makes ``json`` give up its C encoder for a pure-Python one; this
    walks the containers itself and leaves strings to the C escaper.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    inner = margin + "  "
    if isinstance(value, (list, tuple)):
        parts, brackets = [indented_json(v, sort_keys, inner) for v in value], "[]"
    elif isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else value.items()
        parts = [f"{encode_basestring_ascii(k)}: {indented_json(v, sort_keys, inner)}" for k, v in items]
        brackets = "{}"
    else:
        return json.dumps(value)   # None, booleans and floats; anything else raises TypeError as json does
    if not parts:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{margin}{brackets[1]}"


def save_path_file(path: PLPath, file_path: str | FilePath, base_sign: SignString | None = None) -> None:
    FilePath(file_path).write_text(indented_json(path_to_document(path, base_sign)) + "\n")


def load_path_file(file_path: str | FilePath) -> tuple[PLPath, SignString | None]:
    return path_from_document(json.loads(FilePath(file_path).read_text()))
