"""Exact polynomial arithmetic and real root isolation."""

from fractions import Fraction

import pytest

from projbraid import polys
from projbraid.polys import (
    ONE,
    ZERO,
    add,
    count_roots,
    degree,
    derivative,
    divmod_exact,
    evaluate,
    gcd,
    isolate_roots,
    monic,
    mul,
    poly,
    rational_roots_in_unit_interval,
    refine_once,
    refine_to_exclude,
    squarefree_split,
    sub,
)

F = Fraction


def from_roots(*roots):
    f = ONE
    for r in roots:
        f = mul(f, poly(-F(r), 1))
    return f


class TestArithmetic:
    def test_trimming(self):
        assert poly(1, 2, 0, 0) == (F(1), F(2))
        assert poly(0) == ZERO
        assert degree(ZERO) == -1
        assert degree(poly(5)) == 0

    def test_add_sub_mul(self):
        f, g = poly(1, 1), poly(-1, 1)
        assert add(f, g) == poly(0, 2)
        assert sub(f, f) == ZERO
        assert mul(f, g) == poly(-1, 0, 1)

    def test_evaluate(self):
        f = poly(1, 2, 3)
        assert evaluate(f, F(2)) == 1 + 4 + 12
        assert evaluate(ZERO, F(5)) == 0

    def test_derivative(self):
        assert derivative(poly(1, 2, 3)) == poly(2, 6)
        assert derivative(poly(7)) == ZERO

    def test_divmod_exact(self):
        q, r = divmod_exact(poly(-1, 0, 1), poly(-1, 1))
        assert q == poly(1, 1) and r == ZERO
        q, r = divmod_exact(poly(0, 0, 1), poly(-1, 1))
        assert q == poly(1, 1) and r == poly(1)

    def test_gcd_is_monic_common_factor(self):
        f = from_roots(1, 2)
        g = from_roots(1, 3)
        assert gcd(f, g) == from_roots(1)
        assert gcd(f, ONE) == ONE

    def test_squarefree_part(self):
        f = polys.scale(mul(from_roots(1, 1, 1), from_roots(-2, F(1, 3), F(1, 3))), F(-3, 2))
        squarefree, multiple = squarefree_split(f)
        assert squarefree == from_roots(1, -2, F(1, 3))
        assert multiple == monic(mul(from_roots(1, 1), from_roots(F(1, 3))))
        assert squarefree_split(from_roots(1, -2)) == (from_roots(1, -2), ONE)
        assert squarefree_split(poly(5)) == (ONE, ONE)
        assert squarefree_split(ZERO) == (ZERO, ZERO)


class TestRootCounting:
    def test_simple_quadratic(self):
        f = poly(-2, 0, 1)
        assert count_roots(f, F(0), F(2)) == 1
        assert count_roots(f, F(-2), F(0)) == 1
        assert count_roots(f, F(2), F(9)) == 0

    def test_no_real_roots(self):
        assert count_roots(poly(1, 0, 1), F(-10), F(10)) == 0

    def test_multiple_roots_counted_once(self):
        f = mul(from_roots(1), from_roots(1))
        assert count_roots(f, F(0), F(2)) == 1


class TestRationalRoots:
    def test_finds_and_divides_out(self):
        f = poly(F(-1, 4), 0, 1)  # roots +-1/2
        found = rational_roots_in_unit_interval(f)
        assert found is not None
        roots, cofactor = found
        assert roots == [F(1, 2)]
        assert evaluate(cofactor, F(-1, 2)) == 0

    def test_no_rational_roots(self):
        found = rational_roots_in_unit_interval(poly(F(-1, 2), 0, 1))
        assert found is not None
        assert found[0] == []

    def test_gives_up_on_huge_coefficients(self):
        f = poly(-(10**9 + 7), 0, 1)
        assert rational_roots_in_unit_interval(f) is None

    def test_boundary_roots_excluded(self):
        # roots at 0 and 1 are not interior
        assert rational_roots_in_unit_interval(from_roots(0, 1))[0] == []


class TestIsolation:
    def test_single_irrational_root(self):
        f = poly(F(-1, 2), 0, 1)
        intervals = isolate_roots(f, F(0), F(1))
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert evaluate(f, lo) * evaluate(f, hi) < 0

    def test_separates_close_roots(self):
        f = from_roots(F(1, 4), F(3, 4))
        (a1, b1), (a2, b2) = isolate_roots(f, F(0), F(1))
        assert b1 <= a2
        assert a1 < F(1, 4) < b1
        assert a2 < F(3, 4) < b2

    def test_root_at_bisection_midpoint(self):
        f = from_roots(F(1, 8), F(1, 2), F(7, 8))
        intervals = isolate_roots(f, F(0), F(1))
        assert len(intervals) == 3
        for (lo, hi), root in zip(intervals, (F(1, 8), F(1, 2), F(7, 8))):
            assert lo < root < hi
            assert evaluate(f, lo) * evaluate(f, hi) < 0

    def test_refine_to_exclude(self):
        f = poly(F(-1, 2), 0, 1)
        lo, hi = refine_to_exclude(f, F(0), F(1), F(1, 5))
        assert not (lo < F(1, 5) < hi)
        assert count_roots(f, lo, hi) == 1

    def test_refine_collapses_on_exact_root(self):
        f = from_roots(F(1, 2))
        lo, hi = refine_to_exclude(f, F(0), F(1), F(1, 4))
        assert lo == hi == F(1, 2)

    def test_refine_once_shrinks(self):
        f = poly(F(-1, 2), 0, 1)
        lo, hi = refine_once(f, F(0), F(1))
        assert hi - lo < 1
        assert count_roots(f, lo, hi) == 1
