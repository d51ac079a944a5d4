"""Piecewise linear paths of configurations and their singular events.

A path is a sequence of keyframe configurations; between consecutive
keyframes every point's representative moves linearly in Z^k.  Along a
segment each k-subset of points has a determinant that is an integer
polynomial of degree at most k in the segment parameter; all k + 1 of a
segment are computed at once as the maximal minors of its k + 1 points.
A *singular event* is a simple interior root of one of these
polynomials: the moment the subset's points become projectively
degenerate.  Reading off the subsets in time order turns a path into a
word; building a path letter by letter inverts that map on base
configurations.  Event times and their exact order are defined in ``polys``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key, lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from pathlib import Path as FilePath

from . import polys
from .invariants import SignString, format_sign_string, parse_sign_string, reference_signs, sign_action
# time_eq is unused here: the benchmark traces it under the name realization.time_eq
from .polys import AlgebraicTime, EventTime, time_cmp, time_eq  # noqa: F401
from .projective import (
    Configuration,
    ProjectiveTransform,
    Vector,
    base_configuration,
    general_position_violation,
    same_point,
    shear_family,
    sign_snap,
    sign_string_of,
    singular_subsets,
    subset_minors,
)
from .words import GroupParams, Letter, Word, _short_repr


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


# --- event detection --------------------------------------------------------

def _segment_rows(start: Configuration, end: Configuration) -> tuple[list[Vector], list[Vector]]:
    """Per point, its start and end representatives divided by the gcd of
    their 2k entries: the rows ``subset_minors`` takes.  A positive factor
    per point changes no root and no sign of a subset determinant, and the
    pair is left primitive, however large the lcm that cleared the point's
    denominators over the whole path (``path_from_document``)."""
    starts, ends = [], []
    for a, b in zip(start.points, end.points):
        g = gcd(*a, *b)
        if g != 1:
            a, b = tuple(x // g for x in a), tuple(x // g for x in b)
        starts.append(a)
        ends.append(b)
    return starts, ends


def _check_keyframe(config: Configuration, singular: list[tuple[int, ...]], where: str = "") -> None:
    """Raise DegenerateKeyframe unless ``singular``, the configuration's
    singular k-subsets in order, is empty; ``where`` prefixes the message."""
    if not singular:
        return
    violation = general_position_violation(config)
    if violation is not None:
        raise DegenerateKeyframe(f"{where}points {violation} are not in general position")
    raise DegenerateKeyframe(f"{where}singular subset {singular[0]}")


def _check_representatives(segment: int, starts: list[Vector], ends: list[Vector]) -> None:
    """Raise ZeroVectorOnSegment if some point's end row is a negative multiple
    of its start row, read off the integer rows of ``_segment_rows``: with a
    the start row, b the end row and j the first index with a_j != 0, that
    is a_j * b_j < 0 with a and b the same point (``same_point``)."""
    for i, (a, b) in enumerate(zip(starts, ends)):
        if a == b:
            continue
        j = next(j for j, x in enumerate(a) if x)
        if a[j] * b[j] < 0 and same_point(a, b):
            raise ZeroVectorOnSegment(
                f"segment {segment}: point {i + 1} representative passes through the origin"
            )


def _segment_events(segment: int, pencils: list[tuple[tuple[int, ...], polys.ZPoly]]):
    """The events of one segment in time order, from its (subset, minor) pairs.

    No minor may vanish at t = 0 or t = 1; ``detect_events`` checks the
    keyframes first.  Each minor pays only for what it can hold:

    * a constant has no root;
    * a linear minor, normal form a0 + a1 t, has its one root -a0/a1, an
      event when 0 < -a0 < a1.  That root is the ``Fraction`` the divisor
      search would find unless a1 exceeds ``polys._DIVISOR_LIMIT``, where
      it takes the general path below and so keeps its interval form;
    * otherwise the Sturm chain counts the distinct roots in (0, 1), as the
      variations at 0 less those at 1 (Sturm's theorem needs no squarefree
      input when neither end is a root).  With none, no event and no
      tangency can be there, and the minor is done; else it is split into
      its squarefree and repeated parts, rational roots are searched and
      the rest isolated.
    """
    found: list[tuple[EventTime, tuple[int, ...]]] = []
    for subset, d in pencils:
        if not d:
            raise IdenticallySingularSegment(f"segment {segment}: subset {subset} is singular throughout")
        if len(d) == 1:
            continue
        d = polys.normal(d)
        if len(d) == 2:
            if not 0 < -d[0] < d[1]:
                continue
            if d[1] <= polys._DIVISOR_LIMIT:
                found.append((Fraction(-d[0], d[1]), subset))
                continue
        chain = polys.sturm_chain(d)
        if polys._variations(chain, 0, 1) == polys._variations(chain, 1, 1):
            continue
        squarefree, multiple = polys.squarefree_split(d, chain)
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
            # the chain is remaining's own when nothing was divided out of d
            own = chain if remaining == chain[0] else None
            for lo, hi in polys.isolate_roots(remaining, Fraction(0), Fraction(1), own):
                if polys.degree(shared) >= 1 and polys.count_roots(shared, lo, hi) > 0:
                    raise TangentialEvent(
                        f"segment {segment}: subset {subset} has a multiple root in ({lo}, {hi})"
                    )
                found.append((AlgebraicTime(remaining, lo, hi), subset))

    def order(x, y) -> int:
        sign = time_cmp(x[0], y[0])
        if sign == 0:
            first, second = sorted((x[1], y[1]))
            raise SimultaneousEvents(
                f"segment {segment}: subsets {first} and {second} degenerate at the same parameter"
            )
        return sign

    # a comparison sort compares every pair it leaves adjacent, and equal
    # times end up adjacent, so no simultaneous pair escapes the sort
    return [SingularEvent(segment, *event) for event in sorted(found, key=cmp_to_key(order))]


def detect_events(path: PLPath) -> list[SingularEvent]:
    """All singular events of the path, ordered by (segment, parameter).

    Raises a ``PathError`` subclass when the path violates the stability
    requirements: degenerate keyframes, a representative crossing the
    origin, identically singular segments, multiple roots, or two events
    sharing a parameter.  Re-running on equal input yields equal output.

    Keyframes are checked first, off the segment pencils: ``_segment_rows``
    divides points by positive factors, so a pencil's values at t = 0 (its
    constant term) and t = 1 (its coefficient sum) vanish on exactly the
    singular subsets of the keyframes at its ends.
    """
    frames = path.keyframes
    rows = [_segment_rows(start, end) for start, end in zip(frames, frames[1:])]
    pencils = [subset_minors(starts, ends) for starts, ends in rows]
    # keyframe values: t = 0 of each segment, then t = 1 of the last one
    singular = [[subset for subset, d in found if not (d and d[0])] for found in pencils]
    singular.append([subset for subset, d in pencils[-1] if not sum(d)])
    for idx, (config, subsets) in enumerate(zip(frames, singular)):
        _check_keyframe(config, subsets, f"keyframe {idx}: ")
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
def _certified_letter_path(params: GroupParams, code: int) -> PLPath:
    """The path of the letter of ``code`` from the all-plus base configuration,
    certified by detection.  ``bj`` (code j - 1) omits the index k + 2 - j."""
    k = params.k
    c = k + 1 - code
    letter = params.b_letter(code + 1)
    signs = reference_signs(params)
    start = base_configuration(params, signs)

    end_signs = sign_action(Word(params, (letter,)), signs)
    if c <= k - 1:
        keyframes = (start, base_configuration(params, end_signs))
    elif c == k:
        keyframes = (start, Configuration(params, start.points[:k] + ((*signs, -1),)))
    else:
        # the last point is framed by the others: send point k on a detour
        # through the opposite side, then shear everything straight again
        detour = (*(-2 * s for s in signs), -1)
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
    k = params.k
    signs = tuple(signs) if signs is not None else reference_signs(params)
    keyframes: list[Configuration] = [base_configuration(params, signs)]   # validates the signs
    units = keyframes[0].points[:k]
    scales = (1,) * params.n
    for code in word.codes:
        # coordinate i of point j is kept or negated by f_i g_j sigma_j, f = (s, 1), g = (s, 1, 1)
        flips = [[f * g * sigma for f in (*signs, 1)] for g, sigma in zip((*signs, 1, 1), scales)]
        for config in _certified_letter_path(params, code).keyframes[1:]:
            keyframes.append(Configuration(params, tuple(
                tuple(c * m for c, m in zip(p, row)) for p, row in zip(config.points, flips)
            )))
        # the letter's sign action: omitting c <= k-1 flips sign c, otherwise every sign flips
        c = k + 1 - code
        signs = tuple(-s if c >= k or i == c - 1 else s for i, s in enumerate(signs))
        scales = tuple(
            1 if p == q else -1 if p == tuple(-x for x in q) else 0
            for p, q in zip(keyframes[-1].points, (*units, (*signs, 1)))
        )
        if 0 in scales:
            raise CertificationError(f"letter path for {params.b_letter(code + 1)} missed its endpoint")
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

_FRACTION_TEXT = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _decode_fraction(value) -> Fraction:
    """Read a coordinate of a path file: an int or a ``"p"`` / ``"p/q"``
    string with q nonzero.  Nothing else is accepted, so a float, a bool,
    ``"1/0"`` or an exponent like ``"1e20000000"`` fails with ValueError
    instead of raising something else or expanding."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _FRACTION_TEXT.fullmatch(value):
        return Fraction(value)
    raise ValueError(f"expected an integer or 'p/q' string with q nonzero, got {_short_repr(value)}")


def _decode_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {_short_repr(value)}")
    return value


def _check_shape(frames) -> None:
    """Raise ValueError unless ``frames`` is a list of keyframes, each a list
    of points and each point a list, naming the first that is not."""
    if type(frames) is not list:
        raise ValueError(f"keyframes must be a list of keyframes, got {type(frames).__name__}")
    for f, frame in enumerate(frames):
        if type(frame) is not list:
            raise ValueError(f"keyframe {f} must be a list of points, got {type(frame).__name__}")
        for i, point in enumerate(frame):
            if type(point) is not list:
                raise ValueError(
                    f"keyframe {f}: point {i + 1} must be a list of coordinates, got {type(point).__name__}"
                )


def path_to_document(path: PLPath, base_sign: SignString | None = None) -> dict:
    doc = {
        "k": path.params.k,
        "n": path.params.n,
        "keyframes": [
            [list(point) for point in config.points]
            for config in path.keyframes
        ],
    }
    if base_sign is not None:
        doc["base_sign"] = "".join("+" if s > 0 else "-" for s in base_sign)
    return doc


def path_from_document(doc) -> tuple[PLPath, SignString | None]:
    """The path and base sign string of a path document.

    The document is checked top down and every failure is a ValueError:
    it is an object; ``n`` and ``k`` name a group within the path cap;
    ``keyframes`` is a list, each keyframe a list and each point a list
    (``_check_shape``; a string or an object would otherwise be read as its
    characters or keys); then the values.

    A coordinate is an int or a ``"p"`` / ``"p/q"`` string (``_decode_fraction``).
    When some are rational, point i is multiplied in every keyframe by L_i,
    the lcm of its denominators over the whole path: one positive factor
    per point along the path, which changes no event (see ``projective``),
    so the path holds integers from here on.  The rationals are not kept,
    and ``path_to_document`` writes the integers.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"path document must be an object, got {type(doc).__name__}")
    try:
        params = GroupParams(_decode_int(doc, "n"), _decode_int(doc, "k"))
        frames = doc["keyframes"]
    except KeyError as exc:
        raise ValueError(f"path document is missing field {exc.args[0]!r}") from exc
    params.require_path_k()
    _check_shape(frames)
    if not {int}.issuperset(map(type, chain.from_iterable(chain.from_iterable(frames)))):
        frames = [[[_decode_fraction(c) for c in coords] for coords in frame] for frame in frames]
        scales: dict[int, int] = {}
        for frame in frames:
            for i, coords in enumerate(frame):
                scales[i] = lcm(scales.get(i, 1), *(c.denominator for c in coords))
        frames = [
            [[c.numerator * (scales[i] // c.denominator) for c in coords] for i, coords in enumerate(frame)]
            for frame in frames
        ]
    keyframes = [
        Configuration(params, tuple(tuple(coords) for coords in frame)) for frame in frames
    ]
    base_sign: SignString | None = None
    if "base_sign" in doc:
        if not isinstance(doc["base_sign"], str):
            raise ValueError(f"base_sign must be a string, got {_short_repr(doc['base_sign'])}")
        base_sign = parse_sign_string(doc["base_sign"], params)
    return PLPath(params, tuple(keyframes)), base_sign


def check_base_sign(path: PLPath, base_sign: SignString) -> None:
    """Raise BaseSignMismatch unless the path starts at ``base_configuration(base_sign)``."""
    if not path.keyframes[0].same_configuration(base_configuration(path.params, base_sign)):
        raise BaseSignMismatch(
            f"keyframe 0 is not the base configuration of base_sign {format_sign_string(base_sign)}"
        )


# A flat container holds values of these exact types only (see ``indented_json``).
_SCALARS = frozenset({str, int, float, bool, type(None)})
_SEQUENCES = frozenset({list, tuple})
_CONTAINERS = _SEQUENCES | {dict}


class JSONFragment(str):
    """Text that ``indented_json`` writes as it stands: what
    ``json.dumps(value, indent=2, sort_keys=sort_keys)`` gives for some value,
    at margin 0 and with the writer's ``sort_keys``.  The writer puts the
    margin of its place after each newline."""


def indented_json(value, sort_keys: bool = False) -> str:
    r"""``json.dumps(value, indent=2, sort_keys=sort_keys)``, byte for byte,
    with each ``JSONFragment`` in ``value`` replaced by the value it encodes.

    ``indent`` makes ``json`` give up its C encoder for a pure-Python one on
    CPython 3.10-3.13.  This writer gives two shapes to the C encoder,
    ``json.encoder.c_make_encoder``, built once per margin and ``sort_keys``
    with item separator ``",\n"`` plus the margin of the items:

    * a *flat* container, a nonempty list, tuple or dict whose values all have
      the exact type ``str``, ``int``, ``float``, ``bool`` or ``NoneType``, is
      one call; indenting it only adds a newline and a margin inside each
      bracket;
    * a list or tuple of flat dicts, or of flat lists and tuples, is one call
      with the separator of the items' items, and one ``str.replace`` moves
      each boundary ``"},\n<deeper>{"`` (or ``"],\n<deeper>["``) between two
      items out to the list's own margin.

    Why that is exact: ``ensure_ascii`` escapes every newline and quote inside
    a string, so each raw newline in the C output belongs to a separator; and
    the scalars of a flat item never end in ``}`` or ``]`` nor begin with
    ``{`` or ``[``, so such a boundary occurs only between two items.

    Everything else (nested or mixed containers, subclasses, empty containers,
    and a Python without ``c_make_encoder``) is written by one walk that
    appends to a list, with strings left to the C escaper and fragments
    copied at their margin by one ``str.replace``.  Both paths convert
    and sort dict keys as ``json`` does, so they give the same bytes, or raise
    the same ``TypeError``, for the same value.
    """
    chunks: list[str] = []
    _write(value, sort_keys, "", chunks)
    return "".join(chunks)


def _write(value, sort_keys: bool, margin: str, out: list[str]) -> None:
    """Append the indented JSON of ``value``, whose last line is at ``margin``, to ``out``."""
    kind = type(value)
    if kind in _CONTAINERS and value:
        if json.encoder.c_make_encoder and _SCALARS.issuperset(
            map(type, value.values() if kind is dict else value)
        ):
            inner = margin + "  "
            text = "".join(_c_encoder(inner, sort_keys)(value, 0))
            out.append(f"{text[0]}\n{inner}{text[1:-1]}\n{margin}{text[-1]}")
        elif kind is dict:
            _walk_dict(value, sort_keys, margin, out)
        elif not _write_flat_items(value, sort_keys, margin, out):
            _walk_list(value, sort_keys, margin, out)
    elif kind is JSONFragment:
        out.append(value.replace("\n", "\n" + margin))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, dict)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        _walk_dict(value, sort_keys, margin, out)
    elif isinstance(value, (list, tuple)):
        _walk_list(value, sort_keys, margin, out)
    else:
        out.append(json.dumps(value))   # None, booleans and floats; anything else raises TypeError as json does


def _walk_list(value, sort_keys: bool, margin: str, out: list[str]) -> None:
    inner = margin + "  "
    sep, comma = "[\n" + inner, ",\n" + inner
    for item in value:
        out.append(sep)
        _write(item, sort_keys, inner, out)
        sep = comma
    out.append("\n" + margin + "]")


def _walk_dict(value, sort_keys: bool, margin: str, out: list[str]) -> None:
    inner = margin + "  "
    sep, comma = "{\n" + inner, ",\n" + inner
    for key, item in sorted(value.items()) if sort_keys else value.items():
        out.append(sep + encode_basestring_ascii(key if isinstance(key, str) else _key(key)) + ": ")
        _write(item, sort_keys, inner, out)
        sep = comma
    out.append("\n" + margin + "}")


def _key(key) -> str:
    """A dict key that is not a str, converted as ``json`` converts it."""
    if isinstance(key, float) or key is True or key is False or key is None:
        return json.dumps(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_flat_items(value, sort_keys: bool, margin: str, out: list[str]) -> bool:
    """Append the list or tuple ``value`` by one call of json's C encoder if its
    items are all flat dicts, or all flat lists and tuples; return whether it was."""
    if not json.encoder.c_make_encoder:
        return False
    if all(type(item) is dict for item in value):
        values = chain.from_iterable(map(dict.values, value))
    elif _SEQUENCES.issuperset(map(type, value)):
        values = chain.from_iterable(value)
    else:
        return False
    if not all(value) or not _SCALARS.issuperset(map(type, values)):
        return False
    inner = margin + "  "
    deeper = inner + "  "
    text = "".join(_c_encoder(deeper, sort_keys)(value, 0))
    opening, closing = text[1], text[-2]
    body = text[2:-2].replace(
        f"{closing},\n{deeper}{opening}", f"\n{inner}{closing},\n{inner}{opening}\n{deeper}"
    )
    out.append(f"[\n{inner}{opening}\n{deeper}{body}\n{inner}{closing}\n{margin}]")
    return True


@cache
def _c_encoder(margin: str, sort_keys: bool):
    """json's C encoder with the separators of ``json.dumps(indent=2)``, its
    items separated by a newline and ``margin``.  It runs only on flat items,
    so it needs no check for cycles (``markers``) and never calls ``default``."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ",\n" + margin,
        sort_keys, False, True,
    )


def save_path_file(path: PLPath, file_path: str | FilePath, base_sign: SignString | None = None) -> None:
    FilePath(file_path).write_text(indented_json(path_to_document(path, base_sign)) + "\n")


def load_path_file(file_path: str | FilePath) -> tuple[PLPath, SignString | None]:
    return path_from_document(json.loads(FilePath(file_path).read_text()))
