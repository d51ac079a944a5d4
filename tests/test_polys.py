"""Exact polynomial arithmetic and real root isolation on integer forms."""

import random
from fractions import Fraction
from math import gcd as igcd
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from projbraid import polys
from projbraid.polys import (
    ZERO,
    count_roots,
    degree,
    derivative,
    evaluate,
    gcd,
    isolate_roots,
    monic,
    rational_roots_in_unit_interval,
    refine_once,
    refine_to_exclude,
    squarefree_split,
    sturm_chain,
)

F = Fraction


def poly(*coeffs):
    """The trimmed rational polynomial with these coefficients (test-local;
    src builds no rational polynomial)."""
    return polys._trim(tuple(F(c) for c in coeffs))


def integer_form(f):
    """f times the positive lcm of its coefficient denominators (test-local)."""
    scale = lcm(*(c.denominator for c in f))
    return tuple(c.numerator * (scale // c.denominator) for c in f)


ONE = poly(1)


def mul(f, g):
    """Product of two coefficient tuples (test-local; src needs none)."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def from_roots(*roots):
    f = ONE
    for r in roots:
        f = mul(f, poly(-F(r), 1))
    return f


def Z(*coeffs):
    """The integer form of the rational polynomial with these coefficients."""
    return integer_form(poly(*coeffs))


def fraction_sturm_chain(f):
    """Sturm chain over Q by plain division: the reference for the Z chain."""
    chain = [f, derivative(f)]
    while chain[-1]:
        rem = list(chain[-2])
        g = chain[-1]
        while len(rem) >= len(g):
            c = rem[-1] / g[-1]
            shift = len(rem) - len(g)
            for j, b in enumerate(g):
                rem[shift + j] -= c * b
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    return [p for p in chain if p]


class TestArithmetic:
    def test_trimming(self):
        assert poly(1, 2, 0, 0) == (F(1), F(2))
        assert poly(0) == ZERO
        assert degree(ZERO) == -1
        assert degree(poly(5)) == 0

    def test_integer_form_scales_by_positive_lcm(self):
        assert integer_form(poly(F(-3, 2), F(1, 3))) == (-9, 2)
        assert integer_form(poly(F(2, 3), F(-4, 3))) == (2, -4)
        assert integer_form(ZERO) == ()
        assert monic((-9, 2)) == (F(-9, 2), F(1))

    def test_evaluate(self):
        # q^d f(p/q): f itself at integers, the sign of f elsewhere
        f = Z(1, 2, 3)
        assert evaluate(f, F(2)) == 1 + 4 + 12
        assert evaluate(f, F(1, 2)) == 4 * (1 + 1 + F(3, 4))
        assert evaluate(Z(1, -3), F(1, 2)) < 0 < evaluate(Z(1, -3), F(1, 4))
        assert evaluate(Z(0, 0, 1, -3), F(1, 3)) == 0
        assert evaluate((), F(5)) == 0

    def test_derivative(self):
        assert derivative(poly(1, 2, 3)) == poly(2, 6)
        assert derivative(poly(7)) == ZERO
        assert derivative((1, 2, 3)) == (2, 6)

    def test_exact_quotient(self):
        assert polys._exact_quotient((-1, 0, 1), (-1, 1)) == (1, 1)
        assert polys._exact_quotient((-1, 0, 4), (1, 2)) == (-1, 2)
        with pytest.raises(ArithmeticError):
            polys._exact_quotient((0, 0, 1), (-1, 1))
        with pytest.raises(ArithmeticError):
            polys._exact_quotient((1, 1), (0, 2))

    def test_gcd_is_monic_common_factor(self):
        f = integer_form(from_roots(1, 2))
        g = integer_form(from_roots(1, 3))
        assert monic(gcd(f, g)) == from_roots(1)
        # over Z the gcd is primitive with a positive leading coefficient
        assert gcd(tuple(-6 * c for c in f), tuple(4 * c for c in g)) == (-1, 1)
        assert gcd(f, (1,)) == (1,)
        assert gcd(f, ()) == f
        assert gcd((), ()) == ()

    def test_squarefree_part(self):
        f = tuple(F(-3, 2) * c for c in mul(from_roots(1, 1, 1), from_roots(-2, F(1, 3), F(1, 3))))
        squarefree, multiple = squarefree_split(integer_form(f))
        assert monic(squarefree) == from_roots(1, -2, F(1, 3))
        assert monic(multiple) == mul(from_roots(1, 1), from_roots(F(1, 3)))
        assert squarefree[-1] > 0 and multiple[-1] > 0
        assert squarefree_split(integer_form(from_roots(1, -2))) == (integer_form(from_roots(1, -2)), (1,))
        assert squarefree_split((5,)) == ((1,), (1,))
        assert squarefree_split(ZERO) == (ZERO, ZERO)


class TestSturmChain:
    def test_entries_are_positive_multiples_of_the_rational_chain(self):
        # the pseudo-remainders scale by |lc(b)|; a scale by lc(b) < 0 would
        # flip the sign of an entry and with it the variation counts
        rng = random.Random(5)
        for _ in range(40):
            f = poly(*(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 6))))
            if degree(f) < 1:
                continue
            z = integer_form(f)
            reference = fraction_sturm_chain(f)
            chain = sturm_chain(z)
            assert len(chain) == len(reference)
            for got, want in zip(chain, reference):
                ratio = F(got[-1]) / want[-1]
                assert ratio > 0
                assert tuple(ratio * c for c in want) == got



def reference_squarefree_split(f):
    """The split by its own Euclid, gcd(f, f') (test-local reference)."""
    multiple = gcd(f, derivative(f))
    if not multiple:
        return ZERO, ZERO
    return polys.normal(polys._exact_quotient(f, multiple)), multiple


# (factor, exponent): qt - p and bt^2 - a with roots inside (0, 1) or
# outside [0, 1], and t^2 + c with none; never a root at 0 or 1
root_factors = st.tuples(
    st.tuples(st.integers(1, 8), st.integers(2, 9)).filter(lambda pq: pq[0] < pq[1]).map(lambda pq: (-pq[0], pq[1]))
    | st.tuples(st.integers(-9, 9), st.integers(1, 4)).filter(lambda pq: pq[0] * pq[1] < 0 or pq[0] > pq[1]).map(
        lambda pq: (-pq[0], pq[1]))
    | st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda ab: ab[0] != ab[1]).map(lambda ab: (-ab[0], 0, ab[1]))
    | st.integers(1, 5).map(lambda c: (c, 0, 1)),
    st.integers(1, 3),
)


@st.composite
def multiple_root_polys(draw):
    """A nonzero multiple of a product of powers of root factors, degree at most 12."""
    f = (draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1))),)
    for factor, exponent in draw(st.lists(root_factors, max_size=3)):
        for _ in range(exponent):
            f = mul(f, factor)
    assume(degree(f) <= 12)
    return f


class TestSquarefreeFromSturmChain:
    @settings(max_examples=200, deadline=None)
    @given(multiple_root_polys())
    @example(mul(mul((-1, 2), (-1, 2)), (-1, 0, 2)))  # (2t - 1)^2 (2t^2 - 1): multiple root inside
    @example(mul(mul((1, 1), (1, 1)), (-1, 0, 2)))  # (t + 1)^2 (2t^2 - 1): multiple root outside
    @example((-4, 0, 8))  # a content and no multiple root
    def test_split_matches_euclid_and_sympy(self, f):
        sympy = pytest.importorskip("sympy")
        from projbraid.realization import TangentialEvent, _segment_events

        chain = sturm_chain(polys.normal(f))
        split = squarefree_split(f, chain)
        assert split == reference_squarefree_split(f) == squarefree_split(f) == squarefree_split(f, sturm_chain(f))
        squarefree, multiple = split
        reference = sympy.Poly([int(c) for c in reversed(f)], sympy.Symbol("t"))
        sqf = reference.sqf_part()
        assert monic(squarefree) == tuple(F(int(c.p), int(c.q)) for c in reversed(sqf.monic().all_coeffs()))
        repeated = reference.quo(sqf).monic()
        assert monic(multiple) == tuple(F(int(c.p), int(c.q)) for c in reversed(repeated.all_coeffs()))
        # a multiple root is tangential inside (0, 1) only; none sits at 0 or 1
        if degree(f) < 1:
            return
        if repeated.count_roots(0, 1) > 0:
            with pytest.raises(TangentialEvent):
                _segment_events(0, [((1, 2, 3), f)])
        else:
            assert len(_segment_events(0, [((1, 2, 3), f)])) == sqf.count_roots(0, 1)


class TestRootCounting:
    def test_simple_quadratic(self):
        f = Z(-2, 0, 1)
        assert count_roots(f, F(0), F(2)) == 1
        assert count_roots(f, F(-2), F(0)) == 1
        assert count_roots(f, F(2), F(9)) == 0

    def test_no_real_roots(self):
        assert count_roots(Z(1, 0, 1), F(-10), F(10)) == 0

    def test_multiple_roots_counted_once(self):
        f = integer_form(mul(from_roots(1), from_roots(1)))
        assert count_roots(f, F(0), F(2)) == 1

    def test_negative_leading_coefficient(self):
        f = Z(2, 0, -1)  # -(t^2 - 2)
        assert count_roots(f, F(0), F(2)) == 1
        assert count_roots(f, F(-2), F(2)) == 2


class TestRationalRoots:
    def test_finds_and_divides_out(self):
        f = Z(F(-1, 4), 0, 1)  # roots +-1/2
        found = rational_roots_in_unit_interval(f)
        assert found is not None
        roots, cofactor = found
        assert roots == [F(1, 2)]
        assert cofactor == (1, 2)
        assert evaluate(cofactor, F(-1, 2)) == 0

    def test_no_rational_roots(self):
        found = rational_roots_in_unit_interval(Z(F(-1, 2), 0, 1))
        assert found is not None
        assert found[0] == []

    def test_gives_up_on_huge_coefficients(self):
        f = Z(-(10**9 + 7), 0, 1)
        assert rational_roots_in_unit_interval(f) is None

    def test_boundary_roots_excluded(self):
        # roots at 0 and 1 are not interior
        assert rational_roots_in_unit_interval(integer_form(from_roots(0, 1)))[0] == []

    def test_candidates_in_lowest_terms(self):
        # 4t^3 + 12t^2 + 5t - 6: the pair (2, 4) names 1/2 again; it is found once
        f = integer_form(from_roots(F(1, 2), F(-3, 2), -2))
        assert f == (-6, 5, 12, 4)
        roots, cofactor = rational_roots_in_unit_interval(f)
        assert roots == [F(1, 2)]
        assert cofactor == (6, 7, 2)


def unpruned_rational_roots(f):
    """The divisor search evaluating every candidate p/q in lowest terms,
    without the f(1) and f(-1) divisibility filter (test-local reference)."""
    if degree(f) < 1:
        return [], f
    low = next(c for c in f if c)
    num_divs, den_divs = polys._divisors(low), polys._divisors(f[-1])
    if num_divs is None or den_divs is None:
        return None
    roots = sorted(
        F(p, q) for p in num_divs for q in den_divs if p < q and igcd(p, q) == 1 and evaluate(f, F(p, q)) == 0
    )
    remaining = f
    for r in roots:
        remaining = polys._exact_quotient(remaining, (-r.numerator, r.denominator))
    return roots, remaining


LIMIT = polys._DIVISOR_LIMIT
# (p, q) for a factor qt - p: roots in (0, 1), at 0, +-1 and outside
linear_factors = st.tuples(st.integers(-12, 12), st.integers(1, 12))
coefficients = st.integers(-9, 9) | st.sampled_from((LIMIT, -LIMIT, LIMIT + 1))


@st.composite
def rational_root_inputs(draw):
    """A product of linear factors and a cofactor whose coefficients may sit at
    the divisor limit, with a leading coefficient of either sign."""
    f = tuple(draw(st.lists(coefficients, min_size=1, max_size=4)))
    for p, q in draw(st.lists(linear_factors, max_size=4)):
        f = mul(f, (-p, q))
    f = polys._trim(f)
    if draw(st.booleans()):
        f = tuple(-c for c in f)
    return f


class TestRationalRootsAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(rational_root_inputs())
    @example(mul((0, 0, 1), (-1, 3)))  # t^2 (3t - 1): f(0) = 0, searched past the t^2
    @example(mul(mul((0, 1), (-1, 3)), (-1, 1)))  # f(0) = 0 and f(1) = 0, root 1/3
    @example(mul(mul((-1, 1), (1, 1)), (-2, 3)))  # f(1) = 0 = f(-1), root 2/3
    @example(mul((-1, 2), (LIMIT, 1)))  # constant term -LIMIT: searched, root 1/2
    @example(mul((-1, LIMIT), (1, 1)))  # leading coefficient LIMIT, root 1/LIMIT, f(-1) = 0
    @example(mul((-1, 2), (LIMIT + 1, 1)))  # constant term past the limit: None
    @example(tuple(-c for c in mul((-1, 2), (-3, 4))))  # negative leading coefficient
    def test_matches_unpruned_search_and_sympy(self, f):
        sympy = pytest.importorskip("sympy")
        found = rational_roots_in_unit_interval(f)
        assert found == unpruned_rational_roots(f)
        if found is None:
            assert max(abs(next(c for c in f if c)), abs(f[-1])) > LIMIT
            return
        roots, cofactor = found
        if degree(f) >= 1:
            factors = sympy.Poly([int(c) for c in reversed(f)], sympy.Symbol("t")).factor_list()[1]
            linear = {F(-int(g.nth(0)), int(g.nth(1))) for g, _ in factors if g.degree() == 1}
            assert roots == sorted(r for r in linear if 0 < r < 1)
        restored = cofactor
        for r in roots:
            restored = mul(restored, (-r.numerator, r.denominator))
        assert restored == f


class TestIsolation:
    def test_single_irrational_root(self):
        f = Z(F(-1, 2), 0, 1)
        intervals = isolate_roots(f, F(0), F(1))
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert evaluate(f, lo) * evaluate(f, hi) < 0

    def test_separates_close_roots(self):
        f = integer_form(from_roots(F(1, 4), F(3, 4)))
        (a1, b1), (a2, b2) = isolate_roots(f, F(0), F(1))
        assert b1 <= a2
        assert a1 < F(1, 4) < b1
        assert a2 < F(3, 4) < b2

    def test_root_at_bisection_midpoint(self):
        f = integer_form(from_roots(F(1, 8), F(1, 2), F(7, 8)))
        intervals = isolate_roots(f, F(0), F(1))
        assert len(intervals) == 3
        for (lo, hi), root in zip(intervals, (F(1, 8), F(1, 2), F(7, 8))):
            assert lo < root < hi
            assert evaluate(f, lo) * evaluate(f, hi) < 0

    def test_refine_to_exclude(self):
        f = Z(F(-1, 2), 0, 1)
        lo, hi = refine_to_exclude(f, F(0), F(1), F(1, 5))
        assert not (lo < F(1, 5) < hi)
        assert count_roots(f, lo, hi) == 1

    def test_refine_collapses_on_exact_root(self):
        f = integer_form(from_roots(F(1, 2)))
        lo, hi = refine_to_exclude(f, F(0), F(1), F(1, 4))
        assert lo == hi == F(1, 2)

    def test_interval_form(self):
        # (1/3, 1/2) over the common denominator 6, with the sign of f at 1/3
        f = Z(F(-1, 2), 0, 1)
        assert polys.interval(f, F(1, 3), F(1, 2)) == (2, 3, 6, -1)
        assert polys.interval(tuple(-c for c in f), F(0), F(1)) == (0, 1, 1, 1)

    def test_refine_once_shrinks(self, monkeypatch):
        f = Z(F(-1, 2), 0, 1)  # 2t^2 - 1, root 0.7071...
        iv = polys.interval(f, F(0), F(1))
        assert iv == (0, 1, 1, -1)
        evaluations = []
        homogeneous = polys._homogeneous
        monkeypatch.setattr(polys, "_homogeneous", lambda *args: evaluations.append(args) or homogeneous(*args))
        a, b, q, s = refine_once(f, iv)
        # one evaluation, at the midpoint; the sign at the lower end is carried
        assert evaluations == [(f, 1, 2)]
        assert (a, b, q, s) == (1, 2, 2, -1)
        assert count_roots(f, F(a, q), F(b, q)) == 1

    def test_refine_once_collapses_on_exact_root(self):
        f = integer_form(from_roots(F(1, 2)))
        assert refine_once(f, polys.interval(f, F(0), F(1))) == (1, 1, 2, 0)

    def test_refine_with_negative_leading_coefficient(self):
        f = Z(F(1, 2), 0, -1)  # root 1/sqrt(2) = 0.7071...
        iv = polys.interval(f, F(0), F(1))
        for _ in range(6):
            iv = refine_once(f, iv)
            a, b, q, s = iv
            assert F(a, q) < F(7071, 10000) < F(b, q)
            assert s == 1 and evaluate(f, F(a, q)) > 0


def segment_determinants(seed: int, per_k: int):
    """Determinants of k random points moving linearly, for k = 3, 4, 5: the
    integer polynomials event detection sees, each point's pair of
    representatives cleared of denominators by one positive factor.  Every
    other one is negated, so leading coefficients of both signs occur.  Only
    those of degree >= 1 that vanish at neither t = 0 nor t = 1 are kept."""
    from projbraid.projective import clear_denominators, poly_det

    rng = random.Random(seed)

    def coord() -> Fraction:
        return F(rng.randint(-6, 6), rng.randint(1, 3))

    out = []
    for k in (3, 4, 5):
        made = 0
        while made < per_k:
            pairs = []
            for _ in range(k):
                start, end = [coord() for _ in range(k)], [coord() for _ in range(k)]
                pairs.append(start + end)
            rows = [clear_denominators(pair) for pair in pairs]
            z = poly_det([row[:k] for row in rows], [row[k:] for row in rows])
            if degree(z) < 1 or evaluate(z, F(0)) == 0 or evaluate(z, F(1)) == 0:
                continue
            out.append(tuple(-c for c in z) if made % 2 else z)
            made += 1
    return out


class TestAgainstSympy:
    """The integer kernels against sympy on random segment determinants."""

    @pytest.fixture(scope="class")
    def sympy(self):
        return pytest.importorskip("sympy")

    @pytest.fixture(scope="class")
    def dets(self):
        dets = segment_determinants(11, 8)
        assert any(z[-1] < 0 for z in dets) and any(z[-1] > 0 for z in dets)
        return dets

    @staticmethod
    def to_sympy(sympy, f):
        t = sympy.Symbol("t")
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f)], t)

    @staticmethod
    def rational(value) -> Fraction:
        return F(int(value.p), int(value.q))

    def test_count_roots_on_unit_interval(self, sympy, dets):
        for z in dets:
            assert count_roots(z, F(0), F(1)) == len(self.to_sympy(sympy, z).intervals(inf=0, sup=1))

    def test_each_isolating_interval_holds_one_root(self, sympy, dets):
        for z in dets:
            squarefree = squarefree_split(z)[0]
            if z[-1] < 0:  # keep the negative leading coefficient
                squarefree = tuple(-c for c in squarefree)
            reference = self.to_sympy(sympy, z)
            intervals = isolate_roots(squarefree, F(0), F(1))
            assert len(intervals) == reference.count_roots(0, 1)
            for lo, hi in intervals:
                assert reference.eval(lo) != 0 and reference.eval(hi) != 0
                assert reference.count_roots(lo, hi) == 1
                a, b, q, s = refine_once(squarefree, polys.interval(squarefree, lo, hi))
                if a == b:
                    assert s == 0 and reference.eval(F(a, q)) == 0
                else:
                    assert s == sympy.sign(reference.eval(F(a, q)))
                    assert reference.count_roots(F(a, q), F(b, q)) == 1

    def test_rational_roots_are_the_linear_factors_in_unit_interval(self, sympy, dets):
        rng = random.Random(12)
        checked = 0
        for z in dets:
            f = z
            for _ in range(rng.randint(1, 2)):
                q = rng.randint(2, 9)
                f = mul(f, (-rng.randint(-1, q + 1), q))  # a root p/q in [-1/q, 1 + 1/q]
            squarefree = squarefree_split(f)[0]
            found = rational_roots_in_unit_interval(squarefree)
            if found is None:  # coefficients beyond the divisor search
                continue
            checked += 1
            roots, cofactor = found
            factors = self.to_sympy(sympy, f).factor_list()[1]
            linear = {-self.rational(g.nth(0)) / self.rational(g.nth(1)) for g, _ in factors if g.degree() == 1}
            assert roots == sorted(r for r in linear if 0 < r < 1)
            restored = cofactor
            for r in roots:
                restored = mul(restored, (-r.numerator, r.denominator))
            assert restored == squarefree
            # the cofactor is already normal: event times store it as it is
            assert integer_form(monic(cofactor)) == cofactor
        assert checked >= len(dets) // 2

    def test_gcd_matches_monic_sympy_gcd(self, sympy, dets):
        for a, b, h in zip(dets, dets[1:], dets[2:]):
            for f, g in ((a, b), (mul(a, h), mul(b, h)), (mul(a, mul(h, h)), mul(h, b))):
                expected = self.to_sympy(sympy, f).gcd(self.to_sympy(sympy, g)).monic()
                assert monic(gcd(f, g)) == tuple(self.rational(c) for c in reversed(expected.all_coeffs()))
