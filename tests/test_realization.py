"""Piecewise linear paths: event detection, certification, roundtrips, files."""

import contextlib
import random
import re
import signal
from fractions import Fraction
from itertools import combinations

import pytest

from projbraid import polys
from projbraid.invariants import reference_signs, sign_action, sign_orbit
from projbraid.projective import (
    Configuration,
    ProjectiveTransform,
    base_configuration,
    clear_denominators,
    det,
    general_position_violation,
    singular_subsets,
    subset_minors,
)
from projbraid.realization import (
    AlgebraicTime,
    BaseSignMismatch,
    CertificationError,
    DegenerateKeyframe,
    IdenticallySingularSegment,
    PathError,
    PLPath,
    SimultaneousEvents,
    TangentialEvent,
    ZeroVectorOnSegment,
    _check_representatives,
    _segment_events,
    _segment_rows,
    apply_transform_to_path,
    certify_roundtrip,
    check_base_sign,
    detect_events,
    letter_path,
    load_path_file,
    path_from_document,
    path_from_word,
    path_to_document,
    save_path_file,
    time_cmp,
    time_eq,
    void_path_to_base,
    word_from_path,
)
from projbraid.words import GroupParams, Letter, Word, format_word, parse_word

F = Fraction
P43 = GroupParams(4, 3)


def pt(*coords) -> tuple[int, ...]:
    return tuple(coords)


def config(*rows) -> Configuration:
    return Configuration(P43, tuple(pt(*row) for row in rows))


def path(*frames) -> PLPath:
    return PLPath(P43, tuple(config(*rows) for rows in frames))


def cleared_segment(params: GroupParams, begin, finish) -> tuple[Configuration, Configuration]:
    """The keyframes of a segment with rational points, each point's start
    and end cleared by one positive factor, as ``path_from_document`` does."""
    k = params.k
    rows = [clear_denominators([*p, *q]) for p, q in zip(begin, finish)]
    return tuple(Configuration(params, tuple(pt(*row[half]) for row in rows))
                 for half in (slice(None, k), slice(k, None)))


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
BASE = (E1, E2, E3, (1, 1, 1))
BASE_ROWS = [list(row) for row in BASE]


class TestPathShape:
    def test_needs_two_keyframes(self):
        with pytest.raises(ValueError):
            PLPath(P43, (config(*BASE),))

    def test_constant_path_has_no_events(self):
        assert detect_events(path(BASE, BASE)) == []


class TestDetection:
    def test_single_rational_event(self):
        p = path(BASE, (E1, E2, E3, (-1, 1, 1)))
        events = detect_events(p)
        assert len(events) == 1
        event = events[0]
        assert (event.segment, event.subset, event.t) == (0, (2, 3, 4), F(1, 2))

    def test_event_really_is_a_degeneration(self):
        # independent check: interpolate by hand at the reported parameter
        p = path(BASE, (E1, E2, E3, (-1, 1, 1)))
        [event] = detect_events(p)
        t = event.t
        start, end = p.keyframes[0].points[3], p.keyframes[1].points[3]
        mid = clear_denominators([(1 - t) * a + t * b for a, b in zip(start, end)])
        rows = (p.keyframes[0].points[1], p.keyframes[0].points[2], mid)
        from projbraid.projective import det

        assert det(rows) == 0

    def test_irrational_event_is_isolated(self):
        p = path(BASE, (E1, E2, (1, 0, 1), (1, 1, 2)))
        events = detect_events(p)
        assert len(events) == 1
        event = events[0]
        assert event.subset == (2, 3, 4)
        t = event.t
        assert isinstance(t, AlgebraicTime)
        # the determinant is -(t^2 + t - 1); its positive root is 0.6180...
        assert t.poly == (-1, 1, 1)
        assert t.lo < F(618, 1000) < t.hi or polys.count_roots(t.poly, F(61, 100), F(62, 100)) == 1
        assert polys.evaluate(t.poly, t.lo) * polys.evaluate(t.poly, t.hi) < 0

    def test_events_ordered_within_segment(self):
        p = path((E1, E2, E3, (3, 1, 1)), (E1, E2, E3, (-1, -3, 1)))
        events = detect_events(p)
        assert [(e.subset, e.t) for e in events] == [
            ((1, 3, 4), F(1, 4)),
            ((2, 3, 4), F(3, 4)),
        ]
        word = word_from_path(p)
        assert format_word(word, "b-index") == "b3 b4"

    def test_events_ordered_across_segments(self):
        p = path(BASE, (E1, E2, E3, (-1, 1, 1)), (E1, E2, E3, (-1, -1, 1)))
        events = detect_events(p)
        assert [(e.segment, e.subset) for e in events] == [(0, (2, 3, 4)), (1, (1, 3, 4))]

    def test_detection_is_deterministic(self):
        p = path(BASE, (E1, E2, (1, 0, 1), (1, 1, 2)))
        assert detect_events(p) == detect_events(p)


class TestErrors:
    def test_singular_keyframe(self):
        with pytest.raises(DegenerateKeyframe):
            detect_events(path(BASE, (E1, E2, E3, (1, 1, 0))))

    def test_keyframe_out_of_general_position(self):
        with pytest.raises(DegenerateKeyframe):
            detect_events(path((E1, E2, (2, 0, 0), (1, 1, 1)), BASE))

    def test_general_position_reported_before_singular_subset(self):
        # points 1 and 3 coincide, so every triple holding both is singular too;
        # the keyframe check names the general-position violation first
        with pytest.raises(DegenerateKeyframe, match=r"^keyframe 1: points \(1, 3\) are not in general position$"):
            detect_events(path(BASE, (E1, E2, (2, 0, 0), (1, 1, 1))))
        with pytest.raises(DegenerateKeyframe, match=r"^keyframe 1: singular subset \(1, 2, 4\)$"):
            detect_events(path(BASE, (E1, E2, E3, (1, 1, 0))))

    def test_zero_vector_on_segment(self):
        with pytest.raises(ZeroVectorOnSegment):
            detect_events(path(BASE, (E1, E2, E3, (-2, -2, -2))))

    def test_tangential_event(self):
        p = path(
            (E1, E2, (0, 1, -1), (1, 0, 1)),
            (E1, E2, (0, -1, -1), (1, 0, -1)),
        )
        with pytest.raises(TangentialEvent):
            detect_events(p)

    def test_simultaneous_events(self):
        p = path(
            (E1, E2, (0, 1, 1), (1, 2, 1)),
            (E1, E2, (0, 1, -1), (1, 2, -1)),
        )
        with pytest.raises(SimultaneousEvents):
            detect_events(p)

    def test_tangential_event_at_an_irrational_root(self):
        # (2t^2 - 1)^2: no rational root, so the double root 1/sqrt(2) is
        # caught by its isolating interval, not by the rational-root check
        with pytest.raises(
            TangentialEvent, match=r"^segment 0: subset \(1, 2, 3\) has a multiple root in \(0, 1\)$"
        ):
            _segment_events(0, [((1, 2, 3), (1, 0, -4, 0, 4))])

    def test_identically_singular_segment(self):
        # only reachable below the keyframe checks: e1, p3, p4 stay collinear
        start = config(E1, E2, (0, 1, 1), (2, 1, 1))
        end = config(E1, E2, (1, 1, 1), (2, 1, 1))
        with pytest.raises(IdenticallySingularSegment):
            _segment_events(0, subset_minors(*_segment_rows(start, end)))


def reference_check_representatives(segment: int, start: Configuration, end: Configuration) -> None:
    """The origin-crossing check on the keyframes' fractions: an end
    representative that is a negative multiple of the start."""
    for i, (p, q) in enumerate(zip(start.points, end.points)):
        j = next(j for j, x in enumerate(p) if x)
        ratio = F(q[j], p[j])
        if ratio < 0 and all(y == ratio * x for x, y in zip(p, q)):
            raise ZeroVectorOnSegment(
                f"segment {segment}: point {i + 1} representative passes through the origin"
            )


def reference_detect_events(p: PLPath):
    """``detect_events`` with every keyframe checked by its own elimination
    (``singular_subsets``) before any segment is looked at, and each
    segment's representatives checked on fractions."""
    for idx, frame in enumerate(p.keyframes):
        singular = singular_subsets(frame)
        if singular:
            violation = general_position_violation(frame)
            if violation is not None:
                raise DegenerateKeyframe(f"keyframe {idx}: points {violation} are not in general position")
            raise DegenerateKeyframe(f"keyframe {idx}: singular subset {singular[0]}")
    events = []
    for segment, (start, end) in enumerate(zip(p.keyframes, p.keyframes[1:])):
        reference_check_representatives(segment, start, end)
        events.extend(_segment_events(segment, subset_minors(*_segment_rows(start, end))))
    return events


def outcome(run, p: PLPath):
    try:
        return "events", run(p)
    except PathError as exc:
        return type(exc), str(exc)


def planted_path(rng: random.Random, k: int) -> PLPath:
    """Random keyframes at k = 3..5, with a singular or non-general-position
    keyframe planted first, in the middle or last, and sometimes an earlier
    segment whose representative crosses the origin."""
    params = GroupParams(k + 1, k)
    count = rng.randint(2, 4)

    def vector():
        while True:
            coords = [rng.randint(-3, 3) for _ in range(k)]
            if any(coords):
                return coords

    frames = [[vector() for _ in range(params.n)] for _ in range(count)]
    plant = rng.choice([None, 0, count // 2, count - 1])
    if plant is not None:
        points = frames[plant]
        i, j, *rest = rng.sample(range(params.n), k)
        if rng.random() < 0.5:
            # two proportional points: out of general position
            points[j] = [-2 * c for c in points[i]]
        else:
            # point j in the span of k - 1 others: a singular k-subset
            span = [i, *rest]
            points[j] = [sum(rng.choice([-1, 1]) * points[m][c] for m in span) for c in range(k)]
            if not any(points[j]):
                points[j] = points[i]
        if plant > 0 and rng.random() < 0.5:
            segment = rng.randrange(plant)
            m = rng.randrange(params.n)
            frames[segment + 1][m] = [-c for c in frames[segment][m]]
    return PLPath(
        params,
        tuple(Configuration(params, tuple(pt(*row) for row in frame)) for frame in frames),
    )


class TestRepresentativeCheck:
    @staticmethod
    def pair(rng: random.Random, k: int, kind: int):
        """A start and end representative: a positive multiple, a negative
        multiple, or an unrelated vector, each sometimes with zero entries."""
        while True:
            p = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
            for i in rng.sample(range(k), rng.randint(0, k - 1)):
                p[i] = F(0)
            if any(p):
                break
        if kind < 2:
            r = F(rng.randint(1, 5), rng.randint(1, 4)) * (1 if kind == 0 else -1)
            q = [r * c for c in p]
        else:
            q = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
            zero = rng.randrange(k)
            q[zero] = F(0) if any(q[:zero] + q[zero + 1 :]) else F(1)
        row = clear_denominators(p + q)
        return pt(*row[:k]), pt(*row[k:])

    @pytest.mark.parametrize("k", range(2, 7))
    def test_integer_rows_match_the_fraction_rule(self, k):
        rng = random.Random(f"representatives:{k}")
        params = GroupParams(k + 1, k)
        raised = 0
        for _ in range(200):
            pairs = [self.pair(rng, k, rng.choice((0, 0, 1, 2))) for _ in range(params.n)]
            start = Configuration(params, tuple(p for p, _ in pairs))
            end = Configuration(params, tuple(q for _, q in pairs))
            expected = outcome(lambda _: reference_check_representatives(3, start, end), None)
            assert outcome(lambda _: _check_representatives(3, *_segment_rows(start, end)), None) == expected
            raised += expected[0] is ZeroVectorOnSegment
        assert 20 <= raised <= 180


class TestKeyframePrecedence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_keyframe_first_reference(self, seed):
        rng = random.Random(f"keyframe-precedence:{seed}")
        kinds = set()
        for _ in range(25):
            p = planted_path(rng, rng.randint(3, 5))
            expected = outcome(reference_detect_events, p)
            assert outcome(detect_events, p) == expected
            kinds.add(expected[0])
        assert DegenerateKeyframe in kinds

    def test_keyframe_error_precedes_an_earlier_segment_error(self):
        crossing = (E1, E2, E3, (1, 1, 1))
        p = path(crossing, (E1, E2, E3, (-1, -1, -1)), (E1, E2, E3, (1, 1, 0)))
        expected = outcome(reference_detect_events, p)
        assert expected == (DegenerateKeyframe, "keyframe 2: singular subset (1, 2, 4)")
        assert outcome(detect_events, p) == expected


def reference_pencil(starts, ends) -> polys.ZPoly:
    """One subset's determinant along a segment, computed for that subset
    alone: ``det`` at t = 0..k, interpolated by Lagrange in fractions."""
    ts = range(len(starts) + 1)
    coeffs = [F(0)] * len(ts)
    for i in ts:
        value = det([[p + i * (q - p) for p, q in zip(a, b)] for a, b in zip(starts, ends)])
        basis, scale = [F(1)], F(1)
        for j in ts:
            if j != i:
                basis = [(basis[m - 1] if m else 0) - j * (basis[m] if m < len(basis) else 0)
                         for m in range(len(basis) + 1)]
                scale *= i - j
        for m, c in enumerate(basis):
            coeffs[m] += value * c / scale
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def random_segment(rng: random.Random, k: int) -> tuple[Configuration, Configuration]:
    """Start and end of a seeded segment of k + 1 points at k, with one of:
    zero leading entries that make the eliminations swap rows, two
    proportional points, or a point that stays in the span of k - 1 others
    (the last two leave some subset singular throughout)."""
    params = GroupParams(k + 1, k)
    n = params.n
    while True:
        begin = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)] for _ in range(n)]
        finish = [p[:] if rng.random() < 0.3 else [F(rng.randint(-4, 4)) for _ in range(k)] for p in begin]
        kind = rng.randrange(3)
        if kind == 0:
            for i in rng.sample(range(n), rng.randint(1, n - 1)):
                lead = rng.randint(1, k - 1)
                begin[i][:lead] = finish[i][:lead] = [F(0)] * lead
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, F(1, 3), 3))
            begin[j], finish[j] = [c * x for x in begin[i]], [c * x for x in finish[i]]
        else:
            j, *span = rng.sample(range(n), k)
            coeffs = [rng.choice((-1, 1, 2)) for _ in span]
            for frame in (begin, finish):
                frame[j] = [sum(c * frame[m][x] for c, m in zip(coeffs, span)) for x in range(k)]
        try:
            return cleared_segment(params, begin, finish)
        except ValueError:
            continue


class TestSegmentPencils:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_block_minors_match_per_subset_determinants(self, k):
        rng = random.Random(f"segment-pencils:{k}")
        singular = 0
        for _ in range(12 if k < 6 else 6):
            start, end = random_segment(rng, k)
            starts, ends = _segment_rows(start, end)
            expected = [
                (s, reference_pencil([starts[i - 1] for i in s], [ends[i - 1] for i in s]))
                for s in combinations(range(1, k + 2), k)
            ]
            assert subset_minors(starts, ends) == expected
            singular += any(not d for _, d in expected)
        assert singular >= 2


@contextlib.contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTimeComparison:
    ROOT_HALF = AlgebraicTime((-1, 0, 2), F(0), F(1))

    def test_rational_vs_rational(self):
        assert time_eq(F(1, 2), F(2, 4))
        assert time_cmp(F(1, 3), F(1, 2)) == -1
        assert time_cmp(F(1, 2), F(1, 2)) == 0
        assert time_cmp(F(1, 2), F(2, 4)) == 0

    def test_equal_irrational_times_compare_as_zero(self):
        # interval refinement alone never separates a root from itself
        other = AlgebraicTime((-1, 0, 2), F(1, 2), F(9, 10))
        with time_limit(5):
            assert time_cmp(self.ROOT_HALF, self.ROOT_HALF) == 0
            assert time_cmp(self.ROOT_HALF, other) == 0
            assert time_cmp(other, self.ROOT_HALF) == 0

    def test_rational_never_equals_irrational(self):
        assert not time_eq(self.ROOT_HALF, F(1, 2))
        assert not time_eq(F(7, 10), self.ROOT_HALF)

    def test_rational_vs_algebraic_ordering(self):
        assert time_cmp(F(7, 10), self.ROOT_HALF) == -1
        assert time_cmp(F(3, 4), self.ROOT_HALF) == 1
        assert time_cmp(self.ROOT_HALF, F(7, 10)) == 1
        # a rational at an endpoint of the isolating interval
        assert time_cmp(self.ROOT_HALF, F(0)) == 1
        assert time_cmp(self.ROOT_HALF, F(1)) == -1
        # the first halving lands on the root, which is rational after all
        half = AlgebraicTime((-1, 0, 4), F(0), F(1))
        assert time_cmp(half, F(3, 4)) == -1
        assert time_cmp(half, F(1, 4)) == 1

    def test_same_root_in_different_intervals(self):
        other = AlgebraicTime((-1, 0, 2), F(1, 2), F(9, 10))
        assert time_eq(self.ROOT_HALF, other)

    def test_distinct_algebraic_roots(self):
        golden = AlgebraicTime((-1, 1, 1), F(0), F(1))
        assert not time_eq(golden, self.ROOT_HALF)
        assert time_cmp(golden, self.ROOT_HALF) == -1
        assert time_cmp(self.ROOT_HALF, golden) == 1

    def test_algebraic_interval_collapsing_on_its_first_midpoint(self):
        # 2t - 1 stored as an algebraic time, as a rational root is when its
        # coefficients are too large for the divisor search: the first halving
        # of (0, 1) lands on the root 1/2, on either side of the comparison
        collapsing = AlgebraicTime((-1, 2), F(0), F(1))
        assert time_cmp(collapsing, self.ROOT_HALF) == -1
        assert time_cmp(self.ROOT_HALF, collapsing) == 1
        assert time_cmp(collapsing, F(3, 4)) == -1


class TestLetterPaths:
    def test_every_letter_has_one_event(self):
        signs = reference_signs(P43)
        for letter in P43.all_letters():
            p, end = letter_path(P43, letter, signs)
            events = detect_events(p)
            assert [e.subset for e in events] == [letter.subset]
            assert end == sign_action(Word(P43, (letter,)), signs)

    def test_naive_return_segment_fails_certification(self):
        # going straight back after the detour crosses two hyperplanes at
        # the same moment; the published construction shears instead
        signs = reference_signs(P43)
        naive = path(
            BASE,
            (E1, E2, (-2, -2, -1), (1, 1, 1)),
            (E1, E2, E3, (-1, -1, 1)),
        )
        with pytest.raises(SimultaneousEvents):
            detect_events(naive)
        certified, _ = letter_path(P43, P43.b_letter(1), signs)
        assert len(detect_events(certified)) == 1

    def test_rejects_foreign_letter(self):
        with pytest.raises(ValueError):
            letter_path(P43, Letter((1, 2, 5)), reference_signs(P43))

    @pytest.mark.parametrize("signs", [(1,), (1, 1, 1), (1, 2), (0, -1)])
    def test_rejects_bad_starting_signs(self, signs):
        with pytest.raises(ValueError, match="sign string"):
            path_from_word(parse_word("b4 b1", P43), signs)


def reference_letter_path(params: GroupParams, letter: Letter, signs) -> tuple[PLPath, tuple[int, ...]]:
    """The letter path built for ``signs`` itself, with no derivation: the
    start at ``base_configuration(signs)``, and for the letter omitting k + 1
    a detour of point k then the straightening shear applied as a full
    matrix."""
    k = params.k
    c = k + 1 - Word(params, (letter,)).codes[0]
    start = base_configuration(params, signs)
    end_signs = sign_action(Word(params, (letter,)), signs)
    if c <= k - 1:
        return PLPath(params, (start, base_configuration(params, end_signs))), end_signs
    if c == k:
        moved = (*signs, -1)
        return PLPath(params, (start, Configuration(params, start.points[:k] + (moved,)))), end_signs
    detour = (*(-2 * s for s in signs), -1)
    middle = Configuration(params, start.points[: k - 1] + (detour,) + (start.points[k],))
    column = [-2 * s for s in signs] + [1]   # -detour_j / detour_k
    shear = ProjectiveTransform(tuple(
        tuple(int(i == j) for j in range(k - 1)) + (column[i],) for i in range(k)
    ))
    return PLPath(params, (start, middle, shear.apply_to_configuration(middle))), end_signs


class TestDerivedLetterPaths:
    @pytest.mark.parametrize("k", range(3, 8))
    def test_every_sign_string_matches_its_own_construction(self, k):
        params = GroupParams(k + 1, k)
        pairs = 0
        for letter in params.all_letters():
            for signs in sorted(sign_orbit(params)):
                derived, end = letter_path(params, letter, signs)
                expected, expected_end = reference_letter_path(params, letter, signs)
                assert path_to_document(derived) == path_to_document(expected)
                assert end == expected_end
                assert [e.subset for e in detect_events(derived)] == [letter.subset]
                pairs += 1
        assert pairs == (k + 1) * 2 ** (k - 1)   # 888 over k = 3..7


class TestPathFromWord:
    def test_empty_word_is_constant_path(self):
        p = path_from_word(Word(P43, ()))
        assert len(p.keyframes) == 2
        assert detect_events(p) == []

    def test_junctions_match_exactly(self):
        w = parse_word("b4 b1", P43)
        p = path_from_word(w)
        assert p.keyframes[0].points == base_configuration(P43, (1, 1)).points
        assert format_word(word_from_path(p), "b-index") == "b4 b1"
        final = p.keyframes[-1]
        expected = base_configuration(P43, sign_action(w, (1, 1)))
        assert final.same_configuration(expected)

    def test_custom_start(self):
        w = parse_word("b3", P43)
        p = path_from_word(w, (-1, 1))
        assert p.keyframes[0].points == base_configuration(P43, (-1, 1)).points

    @pytest.mark.parametrize("scale", [None, 2], ids=["not-proportional", "doubled"])
    def test_endpoint_must_be_the_base_up_to_signs(self, monkeypatch, scale):
        # b3 omits index 2 and ends on the base; its certified path is replaced
        # by one whose last keyframe is off the base or 2x the base
        from projbraid import realization

        b3 = P43.b_letter(3)
        end = base_configuration(P43, sign_action(Word(P43, (b3,)), (1, 1)))
        if scale is None:
            last = config(E1, E2, E3, (1, 2, 3))
        else:
            last = Configuration(P43, tuple(tuple(scale * c for c in p) for p in end.points))
        original = realization._certified_letter_path

        def certified(params, code):
            if code == 2:   # b3
                return PLPath(params, (base_configuration(params, (1, 1)), last))
            return original(params, code)

        monkeypatch.setattr(realization, "_certified_letter_path", certified)
        for signs in [(1, 1), (-1, 1)]:
            with pytest.raises(CertificationError, match="missed its endpoint"):
                path_from_word(parse_word("b4 b3", P43), signs)
            with pytest.raises(CertificationError, match="missed its endpoint"):
                letter_path(P43, b3, signs)

    def test_certify_roundtrip_report(self):
        report = certify_roundtrip(parse_word("b4 b1 b2 b3 b4 b2", P43))
        assert report.ok
        assert report.recovered.letters == report.word.letters
        assert report.endpoint_signs == report.expected_signs

    def test_roundtrip_at_k4(self):
        p54 = GroupParams(5, 4)
        report = certify_roundtrip(parse_word("b5 b2 b4", p54))
        assert report.ok

    @pytest.mark.parametrize("k", [7, 8])
    def test_seeded_roundtrip_at_high_k(self, k):
        params = GroupParams(k + 1, k)
        rng = random.Random(k)
        word = Word(params, tuple(params.b_letter(rng.randint(1, k + 1)) for _ in range(12)))
        signs = tuple(rng.choice((1, -1)) for _ in range(k - 1))
        report = certify_roundtrip(word, signs)
        assert report.ok


class TestVoidPaths:
    def test_fixed_configuration(self):
        start = config(E1, E2, (1, 2, -1), (3, 1, 2))
        p, signs = void_path_to_base(start)
        assert detect_events(p) == []
        assert signs == (1, 1)
        assert p.keyframes[0].points == start.points
        assert p.keyframes[-1].same_configuration(base_configuration(P43, signs))

    def test_base_input_gives_constant_path(self):
        start = base_configuration(P43, (-1, 1))
        p, signs = void_path_to_base(start)
        assert signs == (-1, 1)
        assert detect_events(p) == []

    def test_singular_input_rejected(self):
        with pytest.raises(DegenerateKeyframe):
            void_path_to_base(config(E1, E2, (1, 1, 1), (2, 2, 2)))


class TestTransforms:
    def test_events_survive_a_transform(self):
        p = path_from_word(parse_word("b4 b2", P43))
        t = ProjectiveTransform(((F(2), F(1), F(0)), (F(0), F(1), F(0)), (F(1), F(0), F(3))))
        before = detect_events(p)
        after = detect_events(apply_transform_to_path(t, p))
        assert len(before) == len(after)
        for a, b in zip(before, after):
            assert (a.segment, a.subset) == (b.segment, b.subset)
            assert time_eq(a.t, b.t)


class TestPathFiles:
    def test_document_uses_integers(self):
        p = path(BASE, (E1, E2, E3, (-1, 1, 1)))
        doc = path_to_document(p, base_sign=(1, 1))
        assert doc["k"] == 3 and doc["n"] == 4
        assert doc["keyframes"][0][0] == [1, 0, 0]
        assert doc["keyframes"][1][3] == [-1, 1, 1]
        assert doc["base_sign"] == "++"

    def test_rational_coordinates_are_cleared_per_point(self):
        # point 4 has denominators 2 and 3 in keyframe 0 and 4 in keyframe 2,
        # so it is 12 times itself in every keyframe; point 3 has none
        doc = {"k": 3, "n": 4, "keyframes": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["1/2", "-1/3", 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, "1"], [1, 1, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["3/4", 1, "-2/2"]],
        ]}
        p, _ = path_from_document(doc)
        assert [config.points[3] for config in p.keyframes] == [(6, -4, 12), (12, 12, 12), (9, 12, -12)]
        assert all(config.points[2] == (0, 0, 1) for config in p.keyframes)
        assert path_to_document(p)["keyframes"][0][3] == [6, -4, 12]

    def test_roundtrip_is_exact(self, tmp_path):
        start = config(E1, E2, (1, 4, -2), (9, 1, 6))
        p, signs = void_path_to_base(start)
        file = tmp_path / "path.json"
        save_path_file(p, file, base_sign=signs)
        loaded, loaded_signs = load_path_file(file)
        assert loaded.keyframes == p.keyframes
        assert loaded_signs == signs

    def test_word_survives_roundtrip(self, tmp_path):
        p = path_from_word(parse_word("b4 b1 b3", P43))
        file = tmp_path / "path.json"
        save_path_file(p, file)
        loaded, base_sign = load_path_file(file)
        assert base_sign is None
        assert word_from_path(loaded).letters == word_from_path(p).letters

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            path_from_document({"k": 3, "keyframes": []})
        with pytest.raises(ValueError):
            path_from_document(
                {"k": 3, "n": 4, "keyframes": [[[1.5, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]] * 2}
            )
        doc = path_to_document(path(BASE, BASE), base_sign=(1, 1))
        doc["base_sign"] = "+++"
        with pytest.raises(ValueError):
            path_from_document(doc)

    @pytest.mark.parametrize(
        "keyframes, message",
        [
            ([["100", "010", "001", "111"], BASE_ROWS],
             "keyframe 0: point 1 must be a list of coordinates, got str"),
            ([[[1, 0, 0], [0, 1, 0], [0, 0, 1], {"1": 0, "1/2": 0, "3": 0}], BASE_ROWS],
             "keyframe 0: point 4 must be a list of coordinates, got dict"),
            ([{"100": 0, "010": 0, "001": 0, "111": 0}, BASE_ROWS], "keyframe 0 must be a list of points, got dict"),
            (5, "keyframes must be a list of keyframes, got int"),
            (None, "keyframes must be a list of keyframes, got NoneType"),
            ("[[1, 0, 0]]", "keyframes must be a list of keyframes, got str"),
            ([BASE_ROWS, {"a": 1}], "keyframe 1 must be a list of points, got dict"),
            ([["1/2", "0", "0", "1"], BASE_ROWS], "keyframe 0: point 1 must be a list of coordinates, got str"),
            # keyframe 0 has three points, which the values would refuse next
            ([BASE_ROWS[:3], {"a": 1}], "keyframe 1 must be a list of points, got dict"),
        ],
        ids=["digit-string-points", "object-point", "object-keyframe", "int-keyframes", "null-keyframes",
             "string-keyframes", "object-keyframe-with-other-keys", "slash-string-point", "shape-before-values"],
    )
    def test_keyframes_and_points_must_be_lists(self, keyframes, message):
        # read as their characters or keys, some of these once made a valid path
        doc = {"k": 3, "n": 4, "keyframes": keyframes}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            path_from_document(doc)

    @pytest.mark.parametrize("doc", [[], 5, "path", None], ids=["list", "int", "string", "null"])
    def test_document_must_be_an_object(self, doc):
        message = f"path document must be an object, got {type(doc).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            path_from_document(doc)

    @pytest.mark.parametrize("base_sign", ["xy", "+x", "", ["+", "+"], 11])
    def test_base_sign_must_be_a_sign_string(self, base_sign):
        doc = path_to_document(path(BASE, BASE), base_sign=(1, 1))
        doc["base_sign"] = base_sign
        with pytest.raises(ValueError):
            path_from_document(doc)

    def test_check_base_sign(self):
        p = path_from_word(parse_word("b4 b1", P43), (1, -1))
        check_base_sign(p, (1, -1))
        for wrong in ((1, 1), (-1, -1), (-1, 1)):
            with pytest.raises(BaseSignMismatch):
                check_base_sign(p, wrong)

    def test_base_sign_forms_accepted(self):
        doc = path_to_document(path(BASE, BASE), base_sign=(1, -1))
        assert path_from_document(doc)[1] == (1, -1)
        doc["base_sign"] = "(-,+)"
        assert path_from_document(doc)[1] == (-1, 1)
