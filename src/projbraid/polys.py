"""Dense univariate polynomials with exact coefficients, and real root isolation.

Coefficient tuples run from the constant term upward and never carry a
trailing zero, so the zero polynomial is the empty tuple.  Segment
determinants arrive with integer coefficients (``ZPoly``, from
``projective.pencil_minors``), and all root work runs on them; a ``Poly`` with
``Fraction`` coefficients is only the monic form the CLI prints.  A
positive scale changes no root and no sign, so every decision below is the
one the rational polynomial would give, without ``Fraction`` arithmetic on
coefficients:

* the sign of f(p/q), q > 0, is the sign of sum a_i p^i q^(d-i), taken by
  homogeneous Horner (``evaluate``);
* gcds and Sturm chains run Euclid over Z with primitive pseudo-remainders
  (Collins & Akritas 1976).  The dividend is scaled by |lc(b)|, never by
  lc(b), so each chain entry is a positive multiple of the rational one and
  sign variations are unchanged.

Everything is exact: the root isolation returns either rational roots or
open intervals with certified sign changes, established through Sturm chains.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd

Poly = tuple[Fraction, ...]
ZPoly = tuple[int, ...]

ZERO: Poly = ()


def _trim(coeffs: tuple) -> tuple:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def degree(f) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(f) - 1


def derivative(f):
    return _trim(tuple(f[i] * i for i in range(1, len(f))))


def monic(f) -> Poly:
    """The monic ``Fraction`` form of a rational or integer polynomial."""
    if not f:
        return ZERO
    lead = f[-1]
    return tuple(Fraction(c) / lead for c in f)


def _homogeneous(f: ZPoly, p: int, q: int) -> int:
    """sum f_i p^i q^(d-i): q^d f(p/q), with the sign of f(p/q) when q > 0."""
    if not f:
        return 0
    acc = f[-1]
    qpow = 1
    for c in reversed(f[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return acc


def evaluate(f: ZPoly, x: Fraction) -> int:
    """q^d f(x) for x = p/q in lowest terms: zero exactly where f is, and of
    the same sign, since q > 0.  Equal to f(x) at integer x."""
    return _homogeneous(f, x.numerator, x.denominator)


def _primitive(f: ZPoly) -> ZPoly:
    """f divided by the positive gcd of its coefficients."""
    content = igcd(*f)
    if content <= 1:
        return f
    return tuple(c // content for c in f)


def _pseudo_remainder(a: ZPoly, b: ZPoly) -> ZPoly:
    """The remainder of c * a by b for some c > 0, made primitive; b nonzero.

    Each elimination step multiplies the running remainder by
    |lc(b)| / g > 0, where g = gcd(|lc(b)|, leading term), so the result is
    a positive multiple of the rational remainder of a by b.
    """
    lead = b[-1]
    scale, flip = abs(lead), 1 if lead > 0 else -1
    db = len(b) - 1
    rem = list(a)
    while len(rem) > db:
        top = rem[-1]
        if top:
            g = igcd(top, scale)
            up, down = scale // g, flip * (top // g)
            shift = len(rem) - 1 - db
            if up != 1:
                rem = [c * up for c in rem]
            for j, c in enumerate(b):
                rem[shift + j] -= down * c
        rem.pop()
    return _primitive(_trim(tuple(rem)))


def _exact_quotient(a: ZPoly, b: ZPoly) -> ZPoly:
    """a / b over Z when b divides a with an integer quotient; b nonzero."""
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + db], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division over the integers")
        quot[i] = c
        if c:
            for j, v in enumerate(b):
                rem[i + j] -= c * v
    if any(rem):
        raise ArithmeticError("inexact polynomial division over the integers")
    return _trim(tuple(quot))


def _normal(f: ZPoly) -> ZPoly:
    """The primitive form of f with a positive leading coefficient."""
    f = _primitive(f)
    return tuple(-c for c in f) if f and f[-1] < 0 else f


def gcd(f: ZPoly, g: ZPoly) -> ZPoly:
    """Greatest common divisor over Z: primitive, positive leading coefficient."""
    a, b = _normal(f), _normal(g)
    while b:
        a, b = b, _pseudo_remainder(a, b)
    return _normal(a)


def squarefree_split(f: ZPoly) -> tuple[ZPoly, ZPoly]:
    """The squarefree part f / gcd(f, f'), and gcd(f, f'), both normal.

    The first shares exactly the distinct roots of f; the second vanishes
    exactly at its multiple roots.  Both are zero for the zero polynomial.
    """
    multiple = gcd(f, derivative(f))
    if not multiple:
        return ZERO, ZERO
    return _normal(_exact_quotient(f, multiple)), multiple


def sturm_chain(f: ZPoly) -> list[ZPoly]:
    """Sturm chain: f, f', then successive negated pseudo-remainders."""
    chain = [f, derivative(f)]
    while chain[-1]:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return [p for p in chain if p]


def _variations(chain: list[ZPoly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(f: ZPoly, lo: Fraction, hi: Fraction, chain: list[ZPoly] | None = None) -> int:
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


def rational_roots_in_unit_interval(f: ZPoly) -> tuple[list[Fraction], ZPoly] | None:
    """Rational roots of f inside (0, 1), plus the cofactor with them removed.

    A root p/q in lowest terms has p dividing the lowest nonzero coefficient
    and q the leading one.  Returns None when those coefficients are too
    large for the divisor search; callers then fall back to isolating
    intervals, which stay exact.
    """
    if degree(f) < 1:
        return [], f
    shift = 0
    while f[shift] == 0:
        shift += 1  # factor out t^shift; t = 0 is outside (0, 1)
    num_divs = _divisors(f[shift])
    den_divs = _divisors(f[-1])
    if num_divs is None or den_divs is None:
        return None
    roots = sorted(
        Fraction(p, q)
        for p in num_divs
        for q in den_divs
        if p < q and igcd(p, q) == 1 and _homogeneous(f, p, q) == 0
    )
    remaining = f
    for r in roots:
        remaining = _exact_quotient(remaining, (-r.numerator, r.denominator))
    return roots, remaining


def _split_point(f: ZPoly, a: Fraction, b: Fraction) -> Fraction:
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


def isolate_roots(f: ZPoly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
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


def refine_to_exclude(f: ZPoly, lo: Fraction, hi: Fraction, point: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree f until ``point`` lies outside.

    Preserves the sign-change certificate; requires f(point) != 0.  Returns
    a collapsed interval (r, r) when a halving lands on the root r.
    """
    while lo < point < hi:
        lo, hi = refine_once(f, lo, hi)
    return lo, hi


def refine_once(f: ZPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Halve an isolating interval of squarefree f (sign change preserved).

    Returns (mid, mid) when the midpoint is the root: it is rational after all.
    """
    mid = (lo + hi) / 2
    at_mid = evaluate(f, mid)
    if at_mid == 0:
        return mid, mid
    if evaluate(f, lo) * at_mid < 0:
        return lo, mid
    return mid, hi
