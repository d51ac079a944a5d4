"""Exact configurations of points in projective (k-1)-space, held in Z^k.

A point is stored as an explicit nonzero integer representative vector, a
plain tuple of ints that ``Configuration`` checks.  A rational vector and
its multiples by positive integers name the same point of RP^(k-1), so a
rational point is held as its vector times a positive integer that clears
its denominators (``clear_denominators``; path files are read that way).
The representative matters: piecewise linear paths interpolate the stored
vectors, and two vectors that differ by a negative scalar trace different
arcs through projective space.  Points are equal when their
representatives are proportional, tested by cross-multiplication
(``same_point``; no canonical representative is formed), and a sign string
is read off the last point's coordinates, each times its k-th.

Why integers lose nothing: scaling point i by one positive L_i in every
keyframe of a path multiplies every k-subset determinant of every segment
by a positive constant, the product of the L_i over the subset.  No root,
sign, monic polynomial or isolating interval of those determinants
changes, so the events, their times and their order are those of the
rational path.  Scaling one keyframe alone by a positive factor
reparametrizes the segments at its ends: event times move, but every
event keeps its subset and its place in the order.

A marked configuration has its first points at the coordinate points
e_1, e_2, ...; one helper checks that, and the base configurations, the
sign string read off a configuration, the unit-determinant shear that
straightens point k and the sign snap all rest on it.

All predicates are exact; no floating point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm

from . import polys
from .invariants import SignString, check_sign_string
from .words import GroupParams

Vector = tuple[int, ...]


class DegenerateFrameError(ValueError):
    """A frame request hit a degenerate subset of points."""


def clear_denominators(values) -> list[int]:
    """``values`` (integers or ``Fraction``s) times the lcm of their denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def same_point(a: Vector, b: Vector) -> bool:
    """Whether two nonzero representatives name one point: whether they are
    proportional, tested by cross-multiplication."""
    if len(a) != len(b):
        return False
    j = next(j for j, y in enumerate(b) if y)
    return all(x * b[j] == y * a[j] for x, y in zip(a, b))


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of n points in RP^(k-1) for the group ``params``."""

    params: GroupParams
    points: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for p in self.points:
            # a Fraction would get through every later step but the exact
            # divisions of ``_bareiss``, which it would silently get wrong
            if type(p) is not tuple or not {int}.issuperset(map(type, p)):
                raise TypeError(f"coordinates must be integers, got {p!r}")
            if not any(p):
                raise ValueError("representative must be a nonzero vector")
        self.params.require_path_k()
        if len(self.points) != self.params.n:
            raise ValueError(f"expected {self.params.n} points, got {len(self.points)}")
        for p in self.points:
            if len(p) != self.params.k:
                raise ValueError("point dimension must equal k")

    def same_configuration(self, other: "Configuration") -> bool:
        return self.params == other.params and all(
            same_point(p, q) for p, q in zip(self.points, other.points)
        )


@dataclass(frozen=True)
class ProjectiveTransform:
    """An invertible k x k matrix acting on representatives.

    Rational entries are accepted, and the matrix is stored times the
    positive lcm of their denominators: one positive factor on every point
    of every keyframe it moves, so every subset determinant of a moved path
    is that of the rational transform's times a positive constant.
    """

    matrix: tuple[Vector, ...]

    def __post_init__(self) -> None:
        k = len(self.matrix)
        if any(len(row) != k for row in self.matrix):
            raise ValueError("matrix must be square")
        entries = clear_denominators([v for row in self.matrix for v in row])
        object.__setattr__(self, "matrix", tuple(tuple(entries[i : i + k]) for i in range(0, k * k, k)))
        if det(self.matrix) == 0:
            raise ValueError("matrix must be invertible")

    def apply(self, point: Vector) -> Vector:
        return tuple(sum(r * c for r, c in zip(row, point)) for row in self.matrix)

    def apply_to_configuration(self, config: Configuration) -> Configuration:
        return Configuration(config.params, tuple(self.apply(p) for p in config.points))


def _bareiss(m: list[list[int]], columns: int | None = None, limit: int | None = None,
             rank: int = 0, sign: int = 1) -> tuple[int, int]:
    """Fraction-free elimination of an integer matrix, in place (Bareiss 1968).

    Pivots are sought in the first ``columns`` columns (all by default),
    left to right, and a column without a nonzero entry below the pivots
    found so far is skipped; each step still clears whole rows, and a row
    whose entry in the pivot column is 0 is only rescaled by p / prev (left
    as it is when p == prev).  Returns the rank of those columns and the
    sign of the row permutation, -1 per swap.  After each step every entry
    below the pivot rows is a minor of the row-permuted input, so the
    division by the previous pivot is exact; for a square matrix of full
    rank the last entry, times that sign, is the determinant.

    Pivots come only from the first ``limit`` rows (all by default), and
    elimination stops at the first column that only a later row could pivot.
    A call with ``rank`` and ``sign`` that an earlier call returned on the
    same matrix resumes where it stopped: its last pivot is the first
    nonzero entry of row ``rank`` - 1.
    """
    rows = len(m)
    if columns is None:
        columns = len(m[0]) if m else 0
    if limit is None:
        limit = rows
    prev, first = 1, 0
    if rank:
        top = m[rank - 1]
        first = next(col for col, v in enumerate(top) if v)
        prev = top[first]
        first += 1
    for col in range(first, columns):
        if rank == limit:
            break
        pivot = next((r for r in range(rank, limit) if m[r][col]), None)
        if pivot is None:
            if any(m[r][col] for r in range(limit, rows)):
                break
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, rows):
            row = m[r]
            a = row[col]
            if a:
                row[col:] = [0] + [(p * v - a * w) // prev for v, w in zip(row[col + 1 :], top[col + 1 :])]
            elif p != prev:
                row[col + 1 :] = [p * v // prev for v in row[col + 1 :]]
        prev = p
        rank += 1
    return rank, sign


def det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    m = [list(row) for row in rows]
    if not all(type(v) is int for row in m for v in row):
        raise TypeError("det takes an integer matrix")
    rank, sign = _bareiss(m)
    return sign * m[-1][-1] if rank == len(m) else 0


def general_position_violation(config: Configuration) -> tuple[int, ...] | None:
    """First (k-1)-subset of points, in lexicographic order, that is linearly dependent.

    One elimination of [P | I_n], P the points as integer rows, over the
    first k columns leaves in the identity part of the rows below its rank r
    a basis K of the relations sum c_i p_i = 0 (n > k, so K is not empty).
    A subset F is dependent exactly when some nonzero relation vanishes off
    F, that is when the columns of K outside F have rank below n - r.
    """
    n, k = config.params.n, config.params.k
    m = [[*p, *(int(i == j) for j in range(n))] for i, p in enumerate(config.points)]
    rank, _ = _bareiss(m, k)
    relations = [row[k:] for row in m[rank:]]
    for subset in combinations(range(n), k - 1):
        outside = [j for j in range(n) if j not in subset]
        if _bareiss([[c[j] for j in outside] for c in relations])[0] < len(relations):
            return tuple(i + 1 for i in subset)
    return None


def subset_minors(starts, ends) -> list[tuple[tuple[int, ...], polys.ZPoly]]:
    """Each k-subset S of the points, ascending, with its determinant along
    the pencil whose rows ``starts`` and ``ends`` hold (``pencil_minors``).

    One ``pencil_minors`` call gives every subset: the subset without point
    m is minor m - 1, and the subsets in ascending order leave out n,
    n - 1, ..., 1.
    """
    subsets = combinations(range(1, len(starts) + 1), len(starts[0]))
    return list(zip(subsets, reversed(pencil_minors(starts, ends))))


def singular_subsets(config: Configuration) -> list[tuple[int, ...]]:
    """All k-subsets of points with vanishing determinant, ascending order."""
    return [s for s, d in subset_minors(config.points, config.points) if not d]


@lru_cache(maxsize=None)
def _unit_points(k: int) -> tuple[Vector, ...]:
    """The coordinate points e_1, ..., e_k."""
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


@lru_cache(maxsize=None)
def _cofactor_units(k: int) -> tuple[Vector, ...]:
    """The rows (-1)^(i + k) e_i, i = 0..k, of length k + 1: the signs alternate
    from row to row and row k is +e_k."""
    units = _unit_points(k + 1)
    return tuple(unit if (k - i) % 2 == 0 else tuple(-u for u in unit) for i, unit in enumerate(units))


def _require_unit_points(config: Configuration, count: int) -> None:
    """Raise unless points 1..count are, projectively, e_1, ..., e_count."""
    for i, unit in enumerate(_unit_points(config.params.k)[:count]):
        if not same_point(config.points[i], unit):
            raise ValueError(f"point {i + 1} must be the {i + 1}-th coordinate point")


def base_configuration(params: GroupParams, signs: SignString) -> Configuration:
    """The marked configuration e_1, ..., e_k, (s_1, ..., s_{k-1}, 1)."""
    check_sign_string(signs, params)
    return Configuration(params, _unit_points(params.k) + ((*signs, 1),))


def sign_string_of(config: Configuration) -> SignString:
    """Read the sign string off a configuration with points 1..k at e_1..e_k.

    The signs are those of the last point rescaled so its k-th coordinate
    is +1, read as the signs of each coordinate times the k-th;
    nonsingularity forces every coordinate nonzero, and the signs of the
    first k-1 coordinates are returned.
    """
    params = config.params
    k = params.k
    _require_unit_points(config, k)
    *coords, last = config.points[k]
    if last == 0:
        raise DegenerateFrameError("last point lies on the hyperplane x_k = 0")
    if not all(coords):
        raise DegenerateFrameError("last point lies on a coordinate hyperplane")
    return tuple(1 if c * last > 0 else -1 for c in coords)


def sign_snap(config: Configuration) -> Configuration:
    """Move the last point straight to its sign vector, keeping its k-th coordinate.

    Points 1..k must be the coordinate points.  Along the segment from z to
    z_k * (s_1, ..., s_{k-1}, 1) no coordinate changes sign, so no subset
    determinant vanishes: the snap creates no event.
    """
    k = config.params.k
    signs = sign_string_of(config)
    z_k = config.points[k][k - 1]
    target = tuple(z_k * s for s in signs) + (z_k,)
    return Configuration(config.params, config.points[:k] + (target,))


def shear_family(config: Configuration) -> Configuration:
    """The configuration moved by the unit-determinant shear that takes point k
    into e_k and fixes e_1..e_{k-1}, every point times |x_k|.

    Requires points 1..k-1 to be the coordinate points and point k to lie off
    the hyperplane x_k = 0.  The shear A1 is the identity except in its last
    column c = (-x_1/x_k, ..., -x_{k-1}/x_k, 1), x point k.  The family
    A(t) = I + t(A1 - I) is then upper unitriangular, so det A(t) = 1
    identically, and every subset determinant is constant along the orbit of
    the configuration: the motion creates no event.  Returns |x_k| A1 p for
    every point p, the integer vector |x_k| p + p_k (|x_k| c - |x_k| e_k);
    at x_k = -1 that is A1 p.  One factor for the whole keyframe moves none
    of its points.
    """
    params = config.params
    k = params.k
    _require_unit_points(config, k - 1)
    *column, xk = config.points[k - 1]
    if xk == 0:
        raise DegenerateFrameError("point k lies on the hyperplane x_k = 0")
    scale = abs(xk)
    if xk > 0:
        column = [-x for x in column]
    sheared = tuple(
        tuple(scale * c + p[-1] * s for c, s in zip(p, column)) + (scale * p[-1],) for p in config.points
    )
    return Configuration(params, sheared)


def _interpolate(values: list[list[int]]) -> list[polys.ZPoly]:
    """The integer polynomials of degree at most N, one per column of
    ``values``, whose values at t = 0..N are its rows.

    Newton forward differences, run once over the rows, turn the N + 1
    value vectors into the coefficients times N!, and each division by N!
    is checked to be exact.
    """
    top = len(values) - 1
    differences = []
    while values:
        differences.append(values[0])
        values = [[b - a for a, b in zip(u, v)] for u, v in zip(values, values[1:])]

    # D! p(t) = sum_j differences[j] (D!/j!) t(t-1)...(t-j+1), in nested form
    scale = factorial(top)
    coeffs: list[list[int]] = []
    for j in range(top, -1, -1):
        weight = scale // factorial(j)
        shifted = [[d * weight for d in differences[j]]] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = [x - j * y for x, y in zip(shifted[i], c)]
        coeffs = shifted
    minors = []
    for column in zip(*coeffs):
        if any(c % scale for c in column):
            raise AssertionError("inexact division by N! in a pencil determinant")
        minors.append(polys._trim(tuple(c // scale for c in column)))
    return minors


def pencil_minors(starts, ends) -> list[polys.ZPoly]:
    """The k + 1 maximal minors of the (k + 1) x k integer pencil with rows a + t (b - a).

    ``starts`` and ``ends`` hold the rows a and b; entry i is the
    determinant of the pencil without row i.  Row i is augmented by
    c_i e_i with c_i = (-1)^(i + k) (``_cofactor_units``), so that
    det [M | c_i e_i] is that minor itself.  One elimination of [M | C]
    over the first k columns leaves these determinants, of the
    row-permuted matrix, in the augmented part of its last row, and the
    swap sign restores them.  A rank below k makes every minor 0.

    Only a row that moves (s = b - a nonzero) depends on t, and a minor
    is a k x k determinant, so every minor has degree at most
    min(D, k), D the number of moving rows.  The fixed rows go first and
    are eliminated once, pivots taken from them alone; a Bareiss step is
    linear in each row below its pivot, so a moving row is reduced as the
    two rows [a | c_i e_i] and [s | 0].  When the fixed rows have rank k
    (then D <= 1), the last row's two parts are the minors' coefficients.
    Otherwise the elimination goes on from there at each
    t = 0..min(D, k), on the moving rows [a + t s | c_i e_i], and the
    minors are interpolated.
    """
    k = len(starts) - 1
    fixed, moving, sign, past = [], [], 1, 1
    for a, b, unit in zip(starts, ends, _cofactor_units(k)):
        step = [q - p for p, q in zip(a, b)]
        if any(step):
            moving += [[*a, *unit], step + [0] * (k + 1)]
            past = -past
        else:
            sign *= past   # moved up past every moving row before it
            fixed.append([*a, *unit])
    m = fixed + moving
    rank, sign = _bareiss(m, k, len(fixed), sign=sign) if fixed else (0, sign)
    if rank == k:
        parts = zip(*(row[k:] for row in m[k:]))
        return [polys._trim(part if sign > 0 else tuple(-v for v in part)) for part in parts]

    pivots, below, reduced = m[:rank], m[rank : len(fixed)], m[len(fixed) :]
    pairs = list(zip(reduced[::2], reduced[1::2]))
    values = []
    for t in range(min(len(pairs), k) + 1):
        rows = pivots + [row[:] for row in below] + [[v + t * w for v, w in zip(a, s)] for a, s in pairs]
        full, swaps = _bareiss(rows, k, rank=rank, sign=sign)
        last = rows[k][k:] if full == k else [0] * (k + 1)
        values.append(last if swaps > 0 else [-v for v in last])
    return _interpolate(values)


def poly_det(starts, ends) -> polys.ZPoly:
    """Determinant of the square integer linear pencil with rows a + t (b - a):
    the minor of ``pencil_minors`` that leaves out an appended zero row."""
    zero = [0] * len(starts)
    return pencil_minors([*starts, zero], [*ends, zero])[-1]
