"""Event detection per segment minor against the full per-minor pipeline.

``_segment_events`` lets each minor pay only for what it can hold: a
constant nothing, a linear minor one exact division, and a minor whose
Sturm chain finds no root in (0, 1) one chain.  ``reference_segment_events``
below is the pipeline it replaced, kept as it was: every non-constant minor
gets a Sturm chain, a squarefree split, the divisor search and isolation.
Both must give the same events, or raise the same error with the same
message, on every segment whose minors do not vanish at t = 0 or 1 (the
keyframe checks guarantee that before ``_segment_events`` runs).
"""

from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from projbraid import polys
from projbraid.realization import (
    AlgebraicTime,
    IdenticallySingularSegment,
    PathError,
    SimultaneousEvents,
    SingularEvent,
    TangentialEvent,
    _segment_events,
    time_cmp,
)

LIMIT = polys._DIVISOR_LIMIT
SUBSETS = list(combinations(range(1, 5), 3))


def reference_segment_events(segment: int, pencils):
    """``_segment_events`` as it was before linear minors and root-free
    minors were read off without the full pipeline."""
    found = []
    for subset, d in pencils:
        if not d:
            raise IdenticallySingularSegment(f"segment {segment}: subset {subset} is singular throughout")
        if polys.degree(d) < 1:
            continue
        chain = polys.sturm_chain(polys.normal(d))
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

    return [SingularEvent(segment, *event) for event in sorted(found, key=cmp_to_key(order))]


def outcome(detect, pencils):
    """The events ``detect`` finds on segment 3, or the type and message of
    the ``PathError`` it raises."""
    try:
        return detect(3, pencils)
    except PathError as exc:
        return type(exc), str(exc)


def mul(*factors) -> polys.ZPoly:
    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return tuple(out)

    return reduce(times, factors, (1,))


@st.composite
def linear_factors(draw, inside=None):
    """q t - p with q on either side of the divisor limit and the root p/q
    off 0 and 1: inside (0, 1) when ``inside`` is True, outside [0, 1] when
    False, either when None."""
    q = draw(st.integers(1, 12) | st.integers(LIMIT - 2, LIMIT + 2) | st.integers(LIMIT, 40 * LIMIT))
    if inside is None:
        inside = draw(st.booleans())
    if inside:
        p = draw(st.integers(1, q - 1)) if q > 1 else 1
        q += q == 1
    else:
        p = draw(st.integers(-3 * q, -1) | st.integers(q + 1, 3 * q))
    return -p, q


# a linear factor times a nonzero content of either sign
linear_minors = st.builds(lambda c, f: mul((c,), f), st.integers(-3, 3).filter(bool), linear_factors())
# a factor with no root in (0, 1): a linear root outside [0, 1], t^2 + c,
# or b t^2 - a with its roots +-sqrt(a / b) past 1
outside_factors = (
    linear_factors(inside=False)
    | st.integers(1, 9).map(lambda c: (c, 0, 1))
    | st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda ba: (-(ba[0] + ba[1]), 0, ba[0]))
)
# a factor with roots in (0, 1): a linear one, or b t^2 - a with a < b
inside_factors = linear_factors(inside=True) | st.tuples(st.integers(1, 8), st.integers(1, 8)).map(
    lambda ab: (-ab[0], 0, ab[0] + ab[1])
)


@st.composite
def minors(draw, factors=outside_factors | inside_factors):
    """A nonzero multiple, of either sign, of a product of up to three
    ``factors``, each to the power 1 (most often), 2 or 3."""
    content = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
    terms = draw(st.lists(st.tuples(factors, st.sampled_from((1, 1, 1, 2, 3))), max_size=3))
    return mul((content,), *(factor for factor, power in terms for _ in range(power)))


@st.composite
def segments(draw, minor=minors()):
    """One to four (subset, minor) pairs with distinct subsets, in ascending
    order as ``subset_minors`` gives them."""
    subsets = sorted(draw(st.lists(st.sampled_from(SUBSETS), min_size=1, max_size=4, unique=True)))
    return [(s, draw(minor)) for s in subsets]


def agree(pencils):
    got, expected = outcome(_segment_events, pencils), outcome(reference_segment_events, pencils)
    assert got == expected, pencils
    return got


class TestAgainstTheFullPipeline:
    @settings(max_examples=300, deadline=None)
    @given(segments(linear_minors))
    @example([((1, 2, 3), (-1, LIMIT))])            # root 1/LIMIT: still the divisor search's
    @example([((1, 2, 3), (-1, LIMIT + 1))])        # past the limit: an interval
    @example([((1, 2, 3), (2, -2 * LIMIT - 2))])     # content 2 and a negative lead
    @example([((1, 2, 3), (1, LIMIT + 1))])         # past the limit, root outside
    @example([((1, 2, 3), (-1, 3)), ((1, 2, 4), (-LIMIT, 3 * LIMIT))])  # 1/3 twice: simultaneous
    def test_linear_minors(self, pencils):
        agree(pencils)

    @settings(max_examples=300, deadline=None)
    @given(segments(minors(outside_factors)))
    @example([((1, 2, 3), mul((1, 1), (1, 1), (-3, 1)))])        # (t + 1)^2 (t - 3)
    @example([((2, 3, 4), mul((2, 0, 1), (2, 0, 1), (-5, 0, 1)))])  # (t^2 + 2)^2 (t^2 - 5)
    def test_no_root_inside_and_repeated_factors_outside(self, pencils):
        assert agree(pencils) == []

    @settings(max_examples=300, deadline=None)
    @given(segments())
    @example([((1, 2, 3), (-1, 3)), ((1, 2, 4), ()), ((1, 3, 4), mul((-1, 2), (-1, 2)))])  # zero minor first
    @example([((1, 2, 3), mul((-1, 2), (-1, 2))), ((1, 2, 4), ())])  # tangency first
    def test_mixed_minors(self, pencils):
        agree(pencils)

    @pytest.mark.parametrize("pencils, error, message", [
        ([((1, 2, 3), mul((-1, 2), (-1, 2), (2, 1)))], TangentialEvent,
         r"^segment 3: subset \(1, 2, 3\) has a multiple root at t = 1/2$"),
        ([((1, 2, 3), mul((-1, 0, 2), (-1, 0, 2)))], TangentialEvent,
         r"^segment 3: subset \(1, 2, 3\) has a multiple root in \(0, 1\)$"),
        ([((1, 2, 3), (-1, 3)), ((1, 2, 4), mul((-1, 3), (1, 0, 1)))], SimultaneousEvents,
         r"^segment 3: subsets \(1, 2, 3\) and \(1, 2, 4\) degenerate at the same parameter$"),
        ([((1, 2, 4), (-1, LIMIT + 1)), ((2, 3, 4), mul((-1, LIMIT + 1), (1, 0, 1)))], SimultaneousEvents,
         r"^segment 3: subsets \(1, 2, 4\) and \(2, 3, 4\) degenerate at the same parameter$"),
    ])
    def test_errors_are_those_of_the_pipeline(self, pencils, error, message):
        """A tangency inside (0, 1) and a linear and a cubic minor that share
        a root, rational or past the divisor limit."""
        with pytest.raises(error, match=message):
            _segment_events(3, pencils)
        with pytest.raises(error, match=message):
            reference_segment_events(3, pencils)

    def test_linear_minors_take_no_sturm_chain(self, monkeypatch):
        """Only a linear root past the divisor limit is isolated; the rest is
        read off without a chain."""
        chains = []
        original = polys.sturm_chain
        monkeypatch.setattr(polys, "sturm_chain", lambda f: chains.append(f) or original(f))
        events = _segment_events(0, [((1, 2, 3), (-1, 3)), ((1, 2, 4), (5, 2)), ((1, 3, 4), (-6, 4)),
                                     ((2, 3, 4), (-1, LIMIT + 1))])
        assert [(e.t, e.subset) for e in events] == [
            (AlgebraicTime((-1, LIMIT + 1), Fraction(0), Fraction(1)), (2, 3, 4)),
            (Fraction(1, 3), (1, 2, 3)),
        ]
        assert chains == [(-1, LIMIT + 1)]
