"""Exact configurations of points in rational projective (k-1)-space.

Points are stored as explicit nonzero representative vectors in Q^k.  The
representative matters: piecewise linear paths interpolate the stored
vectors, and two vectors that differ by a negative scalar trace different
arcs through projective space.  Points are equal when their representatives
are proportional (no canonical representative is formed), and sign strings
are read off after scaling the last point's k-th coordinate to +1.

A marked configuration has its first points at the coordinate points
e_1, e_2, ...; one helper checks that, and the base configurations, the
sign string read off a configuration, the unit-determinant shear that
straightens point k and the sign snap all rest on it.

All predicates are exact; no floating point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm

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

    def same_point(self, other: "ProjectivePoint") -> bool:
        return len(self.coords) == len(other.coords) and self.ratio_to(other) is not None

    def ratio_to(self, other: "ProjectivePoint") -> Fraction | None:
        """The scalar r with self = r * other, or None if not proportional."""
        if self.coords == other.coords:
            return Fraction(1)
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

    def apply(self, point: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(
            tuple(sum(row[j] * point.coords[j] for j in range(len(row))) for row in self.matrix)
        )

    def apply_to_configuration(self, config: Configuration) -> Configuration:
        return Configuration(config.params, tuple(self.apply(p) for p in config.points))


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its own denominators, and the product of those factors.

    The determinant of the integer rows is the determinant of ``rows`` times
    the returned scale; the rank is the same.
    """
    out = []
    scale = 1
    for row in rows:
        factor = lcm(*(c.denominator for c in row))
        out.append([c.numerator * (factor // c.denominator) for c in row])
        scale *= factor
    return out, scale


def _bareiss(m: list[list[int]], columns: int | None = None) -> tuple[int, int]:
    """Fraction-free elimination of an integer matrix, in place (Bareiss 1968).

    Pivots are sought in the first ``columns`` columns (all by default),
    left to right, and a column without a nonzero entry below the pivots
    found so far is skipped; each step still clears whole rows.  Returns the
    rank of those columns and the sign of the row permutation, -1 per swap.
    After each step every entry below the pivot rows is a minor of the
    row-permuted input, so the division by the previous pivot is exact; for
    a square matrix of full rank the last entry, times that sign, is the
    determinant.
    """
    rows = len(m)
    if columns is None:
        columns = len(m[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for col in range(columns):
        if rank == rows:
            break
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, rows):
            row = m[r]
            a = row[col]
            row[col:] = [0] + [(p * v - a * w) // prev for v, w in zip(row[col + 1 :], top[col + 1 :])]
        prev = p
        rank += 1
    return rank, sign


def det(rows) -> Fraction:
    """Determinant of a square rational matrix, by integer Bareiss elimination."""
    m, scale = _integer_rows(rows)
    rank, sign = _bareiss(m)
    return Fraction(sign * m[-1][-1], scale) if rank == len(m) else Fraction(0)


def _subset_ranks(config: Configuration, size: int):
    """Each ascending ``size``-subset of points (1-based) with the rank of its representatives.

    The representatives are cleared of denominators once; scaling a row
    changes no rank.
    """
    rows, _ = _integer_rows([p.coords for p in config.points])
    for subset in combinations(range(1, config.params.n + 1), size):
        yield subset, _bareiss([rows[i - 1][:] for i in subset])[0]


def general_position_violation(config: Configuration) -> tuple[int, ...] | None:
    """First (k-1)-subset of points failing to span a (k-1)-dim subspace."""
    k = config.params.k
    return next((subset for subset, rank in _subset_ranks(config, k - 1) if rank < k - 1), None)


def singular_subsets(config: Configuration) -> list[tuple[int, ...]]:
    """All k-subsets of points with vanishing determinant, ascending order."""
    k = config.params.k
    return [subset for subset, rank in _subset_ranks(config, k) if rank < k]


@lru_cache(maxsize=None)
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


def shear_family(config: Configuration) -> Configuration:
    """The configuration moved by the unit-determinant shear that takes point k
    into e_k and fixes e_1..e_{k-1}.

    Requires points 1..k-1 to be the coordinate points and point k to lie off
    the hyperplane x_k = 0.  The shear A1 is the identity except in its last
    column c = (-x_1/x_k, ..., -x_{k-1}/x_k, 1), x point k.  The family
    A(t) = I + t(A1 - I) is then upper unitriangular, so det A(t) = 1
    identically, and every subset determinant is constant along the orbit of
    the configuration: the motion creates no event.  Returns A1 applied to
    every point, A1 p = p + p_k (c - e_k), computed from the column alone.
    """
    params = config.params
    params.require_square()
    k = params.k
    _require_unit_points(config, k - 1)
    xk = config.points[k - 1].coords
    if xk[k - 1] == 0:
        raise DegenerateFrameError("point k lies on the hyperplane x_k = 0")
    shear_column = [-xk[j] / xk[k - 1] for j in range(k - 1)]
    sheared = tuple(
        ProjectivePoint(tuple(c + p.coords[-1] * s for c, s in zip(p.coords, shear_column)) + p.coords[-1:])
        for p in config.points
    )
    return Configuration(params, sheared)


def _interpolate(values: list[int]) -> polys.ZPoly:
    """The integer polynomial of degree at most D taking ``values`` at t = 0..D.

    Newton forward differences turn the D + 1 values into the coefficients
    times D!, and the division by D! is checked to be exact.
    """
    top = len(values) - 1
    differences = []
    while values:
        differences.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]

    # D! p(t) = sum_j differences[j] (D!/j!) t(t-1)...(t-j+1), in nested form
    scale = factorial(top)
    coeffs: list[int] = []
    for j in range(top, -1, -1):
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= j * c
        shifted[0] += differences[j] * (scale // factorial(j))
        coeffs = shifted
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if any(c % scale for c in coeffs):
        raise AssertionError("inexact division by D! in a pencil determinant")
    return tuple(c // scale for c in coeffs)


def pencil_minors(starts, ends) -> list[polys.ZPoly]:
    """The k + 1 maximal minors of the (k + 1) x k integer pencil with rows a + t (b - a).

    ``starts`` and ``ends`` hold the rows a and b; entry i is the
    determinant of the pencil without row i.  Only a row that moves
    (b != a) depends on t, so every minor has degree at most D, the number
    of moving rows, and is interpolated from t = 0..D.  At each t one
    elimination of [M(t) | I] over the first k columns gives all k + 1
    values: det [M | e_i] = (-1)^(i + k) times the minor without row i, and
    after k pivot steps the last row's identity part holds these
    determinants of the row-permuted matrix, so the swap sign restores
    them.  A rank below k makes every minor 0.
    """
    k = len(starts) - 1
    steps = [[q - p for p, q in zip(a, b)] for a, b in zip(starts, ends)]
    top = sum(1 for step in steps if any(step))
    unit = [[int(i == j) for j in range(k + 1)] for i in range(k + 1)]
    cofactor_signs = [(-1) ** (i + k) for i in range(k + 1)]

    values = []
    for t in range(top + 1):
        m = [[p + t * s for p, s in zip(a, step)] + e for a, step, e in zip(starts, steps, unit)]
        rank, sign = _bareiss(m, k)
        last = m[k][k:] if rank == k else [0] * (k + 1)
        values.append([sign * c * v for c, v in zip(cofactor_signs, last)])
    return [_interpolate(list(column)) for column in zip(*values)]


def poly_det(starts, ends) -> polys.ZPoly:
    """Determinant of the square integer linear pencil with rows a + t (b - a):
    the minor of ``pencil_minors`` that leaves out an appended zero row."""
    zero = [0] * len(starts)
    return pencil_minors([*starts, zero], [*ends, zero])[-1]
