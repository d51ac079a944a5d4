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

Bisection and refinement run on integer endpoints.  An ``Interval`` is
(a, b, q, s): the open interval (a/q, b/q) with q > 0, not necessarily in
lowest terms, and s the sign of f at a/q.  Halving it doubles q and
evaluates f once, at the midpoint (a + b)/2q, since s is carried.  A
halving that lands on the root m/r returns the zero-width (m, m, r, 0):
s = 0 marks an interval collapsed onto its root, never halved again.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from math import isqrt, lcm

Poly = tuple[Fraction, ...]
ZPoly = tuple[int, ...]
Interval = tuple[int, int, int, int]

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
    return tuple(Fraction(c, lead) for c in f)


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


def normal(f: ZPoly) -> ZPoly:
    """The primitive form of f with a positive leading coefficient."""
    f = _primitive(f)
    return tuple(-c for c in f) if f and f[-1] < 0 else f


def gcd(f: ZPoly, g: ZPoly) -> ZPoly:
    """Greatest common divisor over Z: primitive, positive leading coefficient."""
    a, b = normal(f), normal(g)
    while b:
        a, b = b, _pseudo_remainder(a, b)
    return normal(a)


def squarefree_split(f: ZPoly, chain: list[ZPoly] | None = None) -> tuple[ZPoly, ZPoly]:
    """The squarefree part f / gcd(f, f'), and gcd(f, f'), both normal.

    The first shares exactly the distinct roots of f; the second vanishes
    exactly at its multiple roots.  Both are zero for the zero polynomial.
    gcd(f, f') is read off the last entry of the Sturm chain of f, whose
    remainder sequence is Euclid on (f, f'); ``chain``, when given, is that
    chain for f or any nonzero multiple of it, and is not computed again.
    """
    if not f:
        return ZERO, ZERO
    multiple = normal((chain or sturm_chain(f))[-1])
    return normal(_exact_quotient(f, multiple)), multiple


def sturm_chain(f: ZPoly) -> list[ZPoly]:
    """Sturm chain: f, f', then successive negated pseudo-remainders."""
    chain = [f, derivative(f)]
    while chain[-1]:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return [p for p in chain if p]


def _variations(chain: list[ZPoly], p: int, q: int) -> int:
    """Sign variations of the chain at p/q, q > 0."""
    signs = [v > 0 for v in (_homogeneous(g, p, q) for g in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(f: ZPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; f must not vanish at lo."""
    chain = sturm_chain(f)
    return _variations(chain, lo.numerator, lo.denominator) - _variations(chain, hi.numerator, hi.denominator)


_DIVISOR_LIMIT = 10**8


def _divisors(value: int) -> list[int] | None:
    """All positive divisors, or None when the trial division would be too big."""
    value = abs(value)
    if value == 0 or value > _DIVISOR_LIMIT:
        return None
    divs = []
    for d in range(1, isqrt(value) + 1):
        if value % d == 0:
            divs.append(d)
            if d != value // d:
                divs.append(value // d)
    return divs


def rational_roots_in_unit_interval(f: ZPoly) -> tuple[list[Fraction], ZPoly] | None:
    """Rational roots of f inside (0, 1), plus the cofactor with them removed.

    A root p/q in lowest terms has p dividing the lowest nonzero coefficient
    and q the leading one.  By Gauss's lemma f = (qt - p) g with g in Z[t],
    so q - p divides f(1) and q + p divides f(-1): a candidate is evaluated
    only when both hold.  Returns None when those coefficients are too large
    for the divisor search; callers then fall back to isolating intervals,
    which stay exact.
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
    at_one = sum(f)
    at_minus_one = sum(c if i % 2 == 0 else -c for i, c in enumerate(f))
    roots = sorted(
        Fraction(p, q)
        for p in num_divs
        for q in den_divs
        if p < q
        and at_one % (q - p) == 0
        and at_minus_one % (q + p) == 0
        and igcd(p, q) == 1
        and _homogeneous(f, p, q) == 0
    )
    remaining = f
    for r in roots:
        remaining = _exact_quotient(remaining, (-r.numerator, r.denominator))
    return roots, remaining


def interval(f: ZPoly, lo: Fraction, hi: Fraction) -> Interval:
    """The ``Interval`` form of the isolating interval (lo, hi) of f."""
    q = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    at_a = _homogeneous(f, a, q)
    return a, hi.numerator * (q // hi.denominator), q, (at_a > 0) - (at_a < 0)


def _split_point(f: ZPoly, a: int, b: int, q: int) -> tuple[int, int]:
    """An interior point m/r of (a/q, b/q) where f does not vanish, as (m, r).

    f has at most deg(f) roots, so among deg(f) + 1 equally spaced interior
    points at least one is free.
    """
    parts = max(degree(f), 1) + 2
    for j in range(1, parts):
        m = a * parts + (b - a) * j
        if _homogeneous(f, m, q * parts) != 0:
            return m, q * parts
    raise AssertionError("unreachable: more candidate points than roots")


def isolate_roots(
    f: ZPoly, lo: Fraction, hi: Fraction, chain: list[ZPoly] | None = None
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals, each holding exactly one root of squarefree f,
    in ascending order: the bisection appends the left half's first.

    Requires f(lo) != 0 != f(hi).  Subdivision points are chosen off the
    roots, so every returned interval has nonzero endpoint values and, the
    enclosed root being simple, a certified sign change across it.  The
    bisection runs on integer endpoints over a common denominator, and each
    point's Sturm variations are computed once, for both halves it bounds.
    ``chain`` is f's Sturm chain when the caller already has it.
    """
    a, b, q, at_lo = interval(f, lo, hi)
    if at_lo == 0 or _homogeneous(f, b, q) == 0:
        raise ValueError("isolation endpoints must not be roots")
    if chain is None:
        chain = sturm_chain(f)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(a: int, b: int, q: int, at_a: int, at_b: int) -> None:
        count = at_a - at_b
        if count == 0:
            return
        if count == 1:
            if _homogeneous(f, a, q) * _homogeneous(f, b, q) >= 0:
                raise AssertionError(f"a simple root in ({a}/{q}, {b}/{q}) must change the sign of f")
            out.append((Fraction(a, q), Fraction(b, q)))
            return
        mid, r = _split_point(f, a, b, q)
        at_mid = _variations(chain, mid, r)
        scale = r // q
        recurse(a * scale, mid, r, at_a, at_mid)
        recurse(mid, b * scale, r, at_mid, at_b)

    recurse(a, b, q, _variations(chain, a, q), _variations(chain, b, q))
    return out


def refine_to_exclude(f: ZPoly, lo: Fraction, hi: Fraction, point: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree f until ``point`` lies outside.

    Preserves the sign-change certificate; requires f(point) != 0.  Returns
    a collapsed interval (r, r) when a halving lands on the root r.
    """
    iv = interval(f, lo, hi)
    p, r = point.numerator, point.denominator
    while iv[0] * r < p * iv[2] < iv[1] * r:
        iv = refine_once(f, iv)
    return Fraction(iv[0], iv[2]), Fraction(iv[1], iv[2])


def refine_once(f: ZPoly, iv: Interval) -> Interval:
    """Halve an isolating ``Interval`` of squarefree f (sign change preserved)
    with one evaluation of f, at the midpoint; iv must not be collapsed.

    Returns the collapsed (m, m, 2q, 0) when the midpoint m/2q is the root:
    it is rational after all.
    """
    a, b, q, s = iv
    mid = a + b
    at_mid = _homogeneous(f, mid, 2 * q)
    if at_mid == 0:
        return mid, mid, 2 * q, 0
    if (at_mid > 0) == (s > 0):
        return mid, 2 * b, 2 * q, s
    return 2 * a, mid, 2 * q, s
