"""Input guards of the library: each bad call raises its own error and message."""

import re
from fractions import Fraction

import pytest

from projbraid import polys
from projbraid.invariants import occurrence_index
from projbraid.projective import (
    Configuration,
    DegenerateFrameError,
    ProjectiveTransform,
    base_configuration,
    sign_string_of,
)
from projbraid.realization import PLPath
from projbraid.words import GroupParams, concat, parse_word

F = Fraction
P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)


def pt(*coords) -> tuple[int, ...]:
    return tuple(coords)


def base() -> Configuration:
    return base_configuration(P43, (1, 1))


GUARDS = {
    "configuration-point-count": (
        lambda: Configuration(P43, base().points[:3]),
        ValueError, "expected 4 points, got 3",
    ),
    "configuration-point-dimension": (
        lambda: Configuration(P43, base().points[:3] + (pt(1, 1, 1, 1),)),
        ValueError, "point dimension must equal k",
    ),
    "configuration-zero-row-before-point-count": (
        lambda: Configuration(P43, base().points[:2] + (pt(0, 0, 0),)),
        ValueError, "representative must be a nonzero vector",
    ),
    "path-keyframes-of-another-group": (
        lambda: PLPath(P54, (base(), base())),
        ValueError, "keyframe parameters disagree with the path",
    ),
    "point-fraction-coordinate": (
        lambda: Configuration(P43, base().points[:3] + (pt(1, F(1, 2), 0),)),
        TypeError, "coordinates must be integers, got (1, Fraction(1, 2), 0)",
    ),
    "point-bool-coordinate": (
        lambda: Configuration(P43, base().points[:3] + (pt(1, True, 0),)),
        TypeError, "coordinates must be integers, got (1, True, 0)",
    ),
    "non-square-transform": (
        lambda: ProjectiveTransform(((F(1), F(0), F(0)), (F(0), F(1), F(0)))),
        ValueError, "matrix must be square",
    ),
    "sign-string-last-point-on-x_k-zero": (
        lambda: sign_string_of(Configuration(P43, base().points[:3] + (pt(1, 1, 0),))),
        DegenerateFrameError, "last point lies on the hyperplane x_k = 0",
    ),
    "b-letter-zero": (lambda: P43.b_letter(0), ValueError, "b-index out of range: 0"),
    "b-letter-past-k-plus-1": (lambda: P43.b_letter(5), ValueError, "b-index out of range: 5"),
    "concat-of-nothing": (lambda: concat(), ValueError, "concat needs at least one word"),
    "concat-across-groups": (
        lambda: concat(parse_word("b1", P43), parse_word("b1", P54)),
        ValueError, "cannot concatenate words over different groups",
    ),
    "isolate-roots-root-at-endpoint": (
        lambda: polys.isolate_roots((0, 1), F(0), F(1)),
        ValueError, "isolation endpoints must not be roots",
    ),
    "occurrence-index-past-the-end": (
        lambda: occurrence_index(parse_word("b4 b4", P43), 2),
        ValueError, "position 2 out of bounds",
    ),
    "occurrence-index-negative": (
        lambda: occurrence_index(parse_word("b4 b4", P43), -1),
        ValueError, "position -1 out of bounds",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_error(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
