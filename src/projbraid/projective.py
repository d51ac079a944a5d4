"""Exact configurations of points in rational projective (k-1)-space.

Points are stored as explicit nonzero representative vectors in Q^k.  The
representative matters: piecewise linear paths interpolate the stored
vectors, and two vectors that differ by a negative scalar trace different
arcs through projective space.  The canonical representative (last nonzero
coordinate scaled to +1) is used for equality tests and for reading off
sign strings, never silently.

A marked configuration has its first points at the coordinate points
e_1, e_2, ...; one helper checks that, and the base configurations, the
sign string read off a configuration, the unit-determinant shear that
straightens point k and the sign snap all rest on it.

All predicates are exact; no floating point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import polys
from .invariants import SignString, check_sign_string
from .words import GroupParams

Vector = tuple[Fraction, ...]


class DegenerateFrameError(ValueError):
    """A frame request hit a degenerate subset of points."""


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of RP^(k-1), held as a chosen nonzero representative in Q^k."""

    coords: Vector

    def __post_init__(self) -> None:
        if not self.coords or all(c == 0 for c in self.coords):
            raise ValueError("representative must be a nonzero vector")

    def canonical(self) -> "ProjectivePoint":
        """The representative whose last nonzero coordinate is +1."""
        last = next(c for c in reversed(self.coords) if c != 0)
        return ProjectivePoint(tuple(c / last for c in self.coords))

    def scaled(self, factor: Fraction) -> "ProjectivePoint":
        if factor == 0:
            raise ValueError("scaling factor must be nonzero")
        return ProjectivePoint(tuple(c * factor for c in self.coords))

    def same_point(self, other: "ProjectivePoint") -> bool:
        return self.canonical().coords == other.canonical().coords

    def ratio_to(self, other: "ProjectivePoint") -> Fraction | None:
        """The scalar r with self = r * other, or None if not proportional."""
        r = None
        for a, b in zip(self.coords, other.coords):
            if b == 0:
                if a != 0:
                    return None
                continue
            cand = a / b
            if r is None:
                r = cand
            elif r != cand:
                return None
        return r


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of n points in RP^(k-1) for the group ``params``."""

    params: GroupParams
    points: tuple[ProjectivePoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) != self.params.n:
            raise ValueError(f"expected {self.params.n} points, got {len(self.points)}")
        for p in self.points:
            if len(p.coords) != self.params.k:
                raise ValueError("point dimension must equal k")

    def same_configuration(self, other: "Configuration") -> bool:
        return self.params == other.params and all(
            p.same_point(q) for p, q in zip(self.points, other.points)
        )


@dataclass(frozen=True)
class ProjectiveTransform:
    """An invertible k x k rational matrix acting on representatives."""

    matrix: tuple[Vector, ...]

    def __post_init__(self) -> None:
        k = len(self.matrix)
        if any(len(row) != k for row in self.matrix):
            raise ValueError("matrix must be square")
        if det(self.matrix) == 0:
            raise ValueError("matrix must be invertible")

    def determinant(self) -> Fraction:
        return det(self.matrix)

    def apply(self, point: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(
            tuple(sum(row[j] * point.coords[j] for j in range(len(row))) for row in self.matrix)
        )

    def apply_to_configuration(self, config: Configuration) -> Configuration:
        return Configuration(config.params, tuple(self.apply(p) for p in config.points))


def _forward_eliminate(rows) -> tuple[list[Fraction], int]:
    """Gaussian elimination over Q: the pivots found, and the number of row swaps.

    Columns are scanned left to right; a column without a nonzero entry
    below the pivots found so far is skipped, so the pivot count is the rank.
    """
    m = [list(row) for row in rows]
    pivots: list[Fraction] = []
    swaps = 0
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        if top == len(m):
            break
        pivot = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != top:
            m[top], m[pivot] = m[pivot], m[top]
            swaps += 1
        inv = m[top][col]
        for r in range(top + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [v - factor * w for v, w in zip(m[r], m[top])]
        pivots.append(inv)
    return pivots, swaps


def det(rows) -> Fraction:
    """Determinant of a square matrix, as the signed product of its pivots."""
    pivots, swaps = _forward_eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    result = Fraction(-1 if swaps % 2 else 1)
    for pivot in pivots:
        result *= pivot
    return result


def det_subset(config: Configuration, subset: tuple[int, ...]) -> Fraction:
    """Determinant of the representatives of the points named by ``subset``.

    Indices are 1-based and ascending.  The value depends on the stored
    representatives (so it scales exactly under a transform applied to the
    whole configuration); only its zero pattern and sign changes feed the
    event detection downstream.
    """
    if len(subset) != config.params.k:
        raise ValueError(f"subset must have k = {config.params.k} elements")
    if list(subset) != sorted(set(subset)):
        raise ValueError("subset must be ascending and distinct")
    if subset[0] < 1 or subset[-1] > config.params.n:
        raise ValueError(f"subset out of range 1..{config.params.n}")
    return det([config.points[i - 1].coords for i in subset])


def general_position_violation(config: Configuration) -> tuple[int, ...] | None:
    """First (k-1)-subset of points failing to span a (k-1)-dim subspace."""
    k = config.params.k
    for subset in combinations(range(1, config.params.n + 1), k - 1):
        pivots, _ = _forward_eliminate([config.points[i - 1].coords for i in subset])
        if len(pivots) < k - 1:
            return subset
    return None


def is_general_position(config: Configuration) -> bool:
    return general_position_violation(config) is None


def singular_subsets(config: Configuration) -> list[tuple[int, ...]]:
    """All k-subsets of points with vanishing determinant, ascending order."""
    return [
        subset
        for subset in combinations(range(1, config.params.n + 1), config.params.k)
        if det_subset(config, subset) == 0
    ]


def _unit_points(k: int) -> tuple[ProjectivePoint, ...]:
    """The coordinate points e_1, ..., e_k."""
    return tuple(ProjectivePoint(tuple(Fraction(int(i == j)) for j in range(k))) for i in range(k))


def _require_unit_points(config: Configuration, count: int) -> None:
    """Raise unless points 1..count are, projectively, e_1, ..., e_count."""
    for i, unit in enumerate(_unit_points(config.params.k)[:count]):
        if not config.points[i].same_point(unit):
            raise ValueError(f"point {i + 1} must be the {i + 1}-th coordinate point")


def base_configuration(params: GroupParams, signs: SignString) -> Configuration:
    """The marked configuration e_1, ..., e_k, (s_1, ..., s_{k-1}, 1)."""
    params.require_square()
    check_sign_string(signs, params)
    last = ProjectivePoint(tuple(Fraction(s) for s in signs) + (Fraction(1),))
    return Configuration(params, _unit_points(params.k) + (last,))


def sign_string_of(config: Configuration) -> SignString:
    """Read the sign string off a configuration with points 1..k at e_1..e_k.

    The last point is rescaled so its k-th coordinate is +1; nonsingularity
    forces every coordinate nonzero, and the signs of the first k-1
    coordinates are returned.
    """
    params = config.params
    params.require_square()
    k = params.k
    _require_unit_points(config, k)
    coords = config.points[k].coords
    if coords[k - 1] == 0:
        raise DegenerateFrameError("last point lies on the hyperplane x_k = 0")
    normalized = [c / coords[k - 1] for c in coords]
    if any(c == 0 for c in normalized[: k - 1]):
        raise DegenerateFrameError("last point lies on a coordinate hyperplane")
    return tuple(1 if c > 0 else -1 for c in normalized[: k - 1])


def sign_snap(config: Configuration) -> Configuration:
    """Move the last point straight to its sign vector, keeping its k-th coordinate.

    Points 1..k must be the coordinate points.  Along the segment from z to
    z_k * (s_1, ..., s_{k-1}, 1) no coordinate changes sign, so no subset
    determinant vanishes: the snap creates no event.
    """
    k = config.params.k
    signs = sign_string_of(config)
    z_k = config.points[k].coords[k - 1]
    target = ProjectivePoint(tuple(z_k * s for s in signs) + (z_k,))
    return Configuration(config.params, config.points[:k] + (target,))


def shear_family(config: Configuration) -> tuple[ProjectiveTransform, Configuration]:
    """The unit-determinant shear moving point k into e_k, fixing e_1..e_{k-1}.

    Requires points 1..k-1 to be the coordinate points and point k to lie off
    the hyperplane x_k = 0.  The family A(t) = I + t(A1 - I) differs from the
    identity only in the last column, whose k-th entry stays 1, so
    det A(t) = 1 identically; every subset determinant is constant along the
    orbit of the configuration.  Returns the end transform A1 and the
    transformed configuration.
    """
    params = config.params
    params.require_square()
    k = params.k
    _require_unit_points(config, k - 1)
    xk = config.points[k - 1].coords
    if xk[k - 1] == 0:
        raise DegenerateFrameError("point k lies on the hyperplane x_k = 0")
    shear_column = [-xk[j] / xk[k - 1] for j in range(k - 1)] + [Fraction(1)]
    rows = tuple(
        tuple(Fraction(int(i == j)) for j in range(k - 1)) + (shear_column[i],) for i in range(k)
    )
    # A1 equal to I outside its last column, with a last entry of 1, makes
    # every A(t) unitriangular: that is the proof of det A(t) = 1
    if any(rows[i][j] != int(i == j) for i in range(k) for j in range(k) if j < k - 1 or i == k - 1):
        raise AssertionError("shear family must have unit determinant")
    end = ProjectiveTransform(rows)
    return end, end.apply_to_configuration(config)


def poly_det(entries) -> polys.Poly:
    """Determinant of a matrix of polynomials, by cofactor expansion."""
    size = len(entries)
    if size == 1:
        return entries[0][0]
    result = polys.ZERO
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = polys.mul(entries[0][j], poly_det(minor))
        result = polys.add(result, term) if j % 2 == 0 else polys.sub(result, term)
    return result
