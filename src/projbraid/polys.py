"""Dense univariate polynomials over exact rationals.

Coefficient tuples run from the constant term upward and never carry a
trailing zero, so the zero polynomial is the empty tuple.  Everything here
is exact: the root isolation below returns either rational roots or open
intervals with certified sign changes, established through Sturm chains.
"""

from __future__ import annotations

from fractions import Fraction

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def poly(*coeffs) -> Poly:
    return _trim(tuple(Fraction(c) for c in coeffs))


def _trim(coeffs: tuple[Fraction, ...]) -> Poly:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def degree(f: Poly) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(f) - 1


def add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _trim(tuple(out))


def neg(f: Poly) -> Poly:
    return tuple(-c for c in f)


def sub(f: Poly, g: Poly) -> Poly:
    return add(f, neg(g))


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim(tuple(out))


def scale(f: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ZERO
    return tuple(a * c for a in f)


def evaluate(f: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def derivative(f: Poly) -> Poly:
    return _trim(tuple(f[i] * i for i in range(1, len(f))))


def divmod_exact(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over the rationals; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return ZERO, f
    quot = [Fraction(0)] * (dq + 1)
    lead = g[-1]
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1] / lead
        quot[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return _trim(tuple(quot)), _trim(tuple(rem))


def monic(f: Poly) -> Poly:
    if not f:
        return ZERO
    return scale(f, 1 / f[-1])


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    a, b = f, g
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return monic(a)


def squarefree_split(f: Poly) -> tuple[Poly, Poly]:
    """The monic squarefree part f / gcd(f, f'), and gcd(f, f').

    The first shares exactly the distinct roots of f; the second vanishes
    exactly at its multiple roots.  Both are zero for the zero polynomial.
    """
    multiple = gcd(f, derivative(f))
    if not multiple:
        return ZERO, ZERO
    q, r = divmod_exact(f, multiple)
    if r:
        raise AssertionError("gcd(f, f') must divide f")
    return monic(q), multiple


def sturm_chain(f: Poly) -> list[Poly]:
    """Sturm chain: f, f', then successive negated remainders."""
    chain = [f, derivative(f)]
    while chain[-1]:
        _, r = divmod_exact(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return [p for p in chain if p]


def _variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(f: Poly, lo: Fraction, hi: Fraction, chain: list[Poly] | None = None) -> int:
    """Number of distinct real roots in (lo, hi]; f must not vanish at lo."""
    if chain is None:
        chain = sturm_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def _divisors(value: int, limit: int = 10**8) -> list[int] | None:
    """All positive divisors, or None when the trial division would be too big."""
    value = abs(value)
    if value == 0 or value > limit:
        return None
    divs = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            divs.append(d)
            if d != value // d:
                divs.append(value // d)
        d += 1
    return divs


def rational_roots_in_unit_interval(f: Poly) -> tuple[list[Fraction], Poly] | None:
    """Rational roots of f inside (0, 1), plus the cofactor with them removed.

    Returns None when the integer coefficients are too large for the divisor
    search; callers then fall back to isolating intervals, which stay exact.
    """
    if degree(f) < 1:
        return [], f
    from math import gcd as igcd

    denom = 1
    for c in f:
        denom = denom * c.denominator // igcd(denom, c.denominator)
    ints = [int(c * denom) for c in f]
    shift = 0
    while ints[shift] == 0:
        shift += 1  # factor out t^shift; t = 0 is outside (0, 1)
    num_divs = _divisors(ints[shift])
    den_divs = _divisors(ints[-1])
    if num_divs is None or den_divs is None:
        return None
    roots = set()
    for p in num_divs:
        for q in den_divs:
            if p < q:  # only candidates strictly inside (0, 1)
                cand = Fraction(p, q)
                if evaluate(f, cand) == 0:
                    roots.add(cand)
    remaining = f
    ordered = sorted(roots)
    for r in ordered:
        quot, rem = divmod_exact(remaining, (-r, Fraction(1)))
        if rem:
            raise AssertionError(f"t - {r} must divide the polynomial it is a root of")
        remaining = quot
    return ordered, remaining


def _split_point(f: Poly, a: Fraction, b: Fraction) -> Fraction:
    """An interior point of (a, b) where f does not vanish.

    f has at most deg(f) roots, so among deg(f) + 1 equally spaced interior
    points at least one is free.
    """
    d = max(degree(f), 1)
    for j in range(1, d + 2):
        x = a + (b - a) * Fraction(j, d + 2)
        if evaluate(f, x) != 0:
            return x
    raise AssertionError("unreachable: more candidate points than roots")


def isolate_roots(f: Poly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals, each holding exactly one root of squarefree f.

    Requires f(lo) != 0 != f(hi).  Subdivision points are chosen off the
    roots, so every returned interval has nonzero endpoint values and, the
    enclosed root being simple, a certified sign change across it.
    """
    if evaluate(f, lo) == 0 or evaluate(f, hi) == 0:
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm_chain(f)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, b: Fraction) -> None:
        count = count_roots(f, a, b, chain)
        if count == 0:
            return
        if count == 1:
            if evaluate(f, a) * evaluate(f, b) >= 0:
                raise AssertionError(f"a simple root in ({a}, {b}) must change the sign of f")
            out.append((a, b))
            return
        mid = _split_point(f, a, b)
        recurse(a, mid)
        recurse(mid, b)

    recurse(lo, hi)
    return sorted(out)


def refine_to_exclude(f: Poly, lo: Fraction, hi: Fraction, point: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree f until ``point`` lies outside.

    Preserves the sign-change certificate; requires f(point) != 0.  Returns
    a collapsed interval (r, r) when a halving lands on the root r.
    """
    while lo < point < hi:
        lo, hi = refine_once(f, lo, hi)
    return lo, hi


def refine_once(f: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Halve an isolating interval of squarefree f (sign change preserved).

    Returns (mid, mid) when the midpoint is the root: it is rational after all.
    """
    mid = (lo + hi) / 2
    if evaluate(f, mid) == 0:
        return mid, mid
    if evaluate(f, lo) * evaluate(f, mid) < 0:
        return lo, mid
    return mid, hi
