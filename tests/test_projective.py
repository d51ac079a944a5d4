"""Exact projective geometry: points, determinants, frames, shears, snaps."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from projbraid import polys, projective
from projbraid.projective import (
    Configuration,
    DegenerateFrameError,
    ProjectiveTransform,
    _bareiss,
    base_configuration,
    clear_denominators,
    det,
    general_position_violation,
    pencil_minors,
    poly_det,
    same_point,
    shear_family,
    sign_snap,
    sign_string_of,
    singular_subsets,
    subset_minors,
)
from projbraid.realization import PLPath, _segment_rows, detect_events, path_from_document
from projbraid.words import GroupParams

F = Fraction
P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)


def pt(*coords) -> tuple[int, ...]:
    return tuple(coords)


def config43(*rows) -> Configuration:
    return Configuration(P43, tuple(pt(*row) for row in rows))


def canonical(point: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The representative of the point whose last nonzero coordinate is +1."""
    last = next(c for c in reversed(point) if c != 0)
    return tuple(F(c, last) for c in point)


def chosen(config: Configuration, subset: tuple[int, ...]):
    """The stored representatives of the points named by ``subset`` (1-based)."""
    return [config.points[i - 1] for i in subset]


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class TestPoints:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            config43(E1, E2, E3, (0, 0, 0))

    def test_canonical_scales_last_nonzero_to_one(self):
        assert canonical(pt(2, 4, -2)) == (F(-1), F(-2), F(1))
        assert canonical(pt(3, 0, 0)) == (F(1), F(0), F(0))

    def test_same_point_ignores_scale(self):
        assert same_point(pt(1, 2, 3), pt(-2, -4, -6))
        assert not same_point(pt(1, 2, 3), pt(1, 2, 4))
        assert not same_point(pt(1, 2), pt(1, 2, 0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=2, max_size=5).filter(any),
        st.data(),
    )
    def test_same_point_agrees_with_canonical_coordinates(self, coords, data):
        # the other point is a nonzero rescaling of the first or an arbitrary
        # nonzero vector of the same length, zero coordinates included
        p = pt(*coords)
        if data.draw(st.booleans()):
            scale = data.draw(st.fractions(-5, 5).filter(bool))
            q = pt(*clear_denominators([c * scale for c in p]))
        else:
            size = len(coords)
            q = pt(*data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size).filter(any)))
        assert same_point(p, q) == (canonical(p) == canonical(q))
        assert same_point(q, p) == same_point(p, q)


class TestDeterminants:
    def test_det(self):
        rows = ((2, 0, 1), (1, 1, 0), (0, 3, 1))
        assert det(rows) == 5
        assert det(((1, 2), (2, 4))) == 0
        with pytest.raises(TypeError, match="integer matrix"):
            det(((F(1, 2), 0), (0, 1)))

    def test_det_subset_on_base(self):
        base = base_configuration(P43, (1, 1))
        assert det(chosen(base, (1, 2, 3))) == 1
        assert det(chosen(base, (1, 2, 4))) == 1
        assert det(chosen(base, (1, 3, 4))) == -1
        assert det(chosen(base, (2, 3, 4))) == 1
        assert singular_subsets(base) == []

    def test_det_subset_sees_stored_representatives(self):
        doubled = config43(E1, E2, E3, (2, 2, 2))
        assert det(chosen(doubled, (1, 2, 4))) == 2

    def test_transform_covariance(self):
        config = config43(E1, E2, (1, 2, 3), (1, 1, 1))
        t = ProjectiveTransform(((F(1), F(2), F(0)), (F(0), F(1), F(1)), (F(1), F(0), F(3))))
        moved = t.apply_to_configuration(config)
        scale = det(t.matrix)
        for subset in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            assert det(chosen(moved, subset)) == scale * det(chosen(config, subset))

    def test_det_and_rank_agree_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        for _ in range(300):
            size = rng.randint(1, 5)
            rows = [clear_denominators([F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(size)])
                    for _ in range(size)]
            assert det(rows) == sympy.Matrix(rows).det()
            if size >= 2 and all(any(row) for row in rows):
                config = Configuration(
                    GroupParams(size + 1, size), tuple(pt(*row) for row in rows) + (pt(*[1] * size),)
                )
                expected = next(
                    (
                        subset
                        for subset in combinations(range(1, size + 2), size - 1)
                        if sympy.Matrix([config.points[i - 1] for i in subset]).rank() < size - 1
                    ),
                    None,
                )
                assert general_position_violation(config) == expected


def poly_mul(f: polys.Poly, g: polys.Poly) -> polys.Poly:
    if not f or not g:
        return polys.ZERO
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return polys._trim(tuple(out))


def poly_add(f: polys.Poly, g: polys.Poly, sign: int = 1) -> polys.Poly:
    """f + sign * g."""
    out = [F(0)] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += sign * c
    return polys._trim(tuple(out))


def cofactor_det(entries) -> polys.Poly:
    """Determinant of a polynomial matrix by cofactor expansion along the first row."""
    if len(entries) == 1:
        return entries[0][0]
    result = polys.ZERO
    for j in range(len(entries)):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = poly_mul(entries[0][j], cofactor_det(minor))
        result = poly_add(result, term, 1 if j % 2 == 0 else -1)
    return result


def linear_entries(starts, ends) -> list[list[polys.Poly]]:
    """The pencil a + t (b - a) as a matrix of linear ``Fraction`` polynomials."""
    return [
        [polys._trim((F(p), F(q - p))) for p, q in zip(a, b)]
        for a, b in zip(starts, ends)
    ]


def random_pencils(seed: int, counts: dict[int, int]):
    """Seeded integer pencils (starts, ends).  Some rows stay put, so fewer
    rows move than the size; at every size from 2, one pencil has a row that
    passes through zero at an interior t and one is singular for every t."""
    rng = random.Random(seed)

    def row(size: int) -> list[int]:
        return [rng.randint(-5, 5) for _ in range(size)]

    for size, count in counts.items():
        for index in range(count):
            starts = [row(size) for _ in range(size)]
            ends = [a[:] if rng.random() < 0.3 else row(size) for a in starts]
            if size >= 2 and index == 0:
                # row 0 is a (1 - t (1 + c)), zero at t = 1 / (1 + c)
                c = rng.randint(1, 4)
                ends[0] = [-c * x for x in starts[0]]
            elif size >= 2 and index == 1:
                c = rng.choice((-3, -2, 2, 3))
                starts[1], ends[1] = [c * x for x in starts[0]], [c * x for x in ends[0]]
            yield starts, ends


PENCILS = {1: 20, 2: 30, 3: 30, 4: 20, 5: 10, 6: 4, 7: 2}


class TestPolyDet:
    def test_matches_cofactor_expansion(self):
        singular = static = 0
        for starts, ends in random_pencils(3, PENCILS):
            expected = cofactor_det(linear_entries(starts, ends))
            assert poly_det(starts, ends) == expected
            singular += expected == polys.ZERO
            static += any(a == b for a, b in zip(starts, ends))
        assert singular >= 6 and static >= 50

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Symbol("t")
        for starts, ends in random_pencils(4, PENCILS):
            rows = [[p + t * (q - p) for p, q in zip(a, b)] for a, b in zip(starts, ends)]
            matrix = DomainMatrix.from_Matrix(sympy.Matrix(rows))
            expected = sympy.Poly(matrix.domain.to_sympy(matrix.det()), t)
            got = sum((c * t**i for i, c in enumerate(poly_det(starts, ends))), sympy.S.Zero)
            assert sympy.Poly(got, t) == expected

    def test_constant_and_linear_examples(self):
        assert poly_det([[3]], [[3]]) == (3,)
        # det [[1, t], [t, 1]] = 1 - t^2
        assert poly_det([[1, 0], [0, 1]], [[1, 1], [1, 1]]) == (1, 0, -1)
        # the row (1 - 2t, 2 - 4t) vanishes at t = 1/2
        assert poly_det([[1, 2], [0, 1]], [[-1, -2], [0, 1]]) == (1, -2)
        assert poly_det([[1, 2], [2, 4]], [[0, 1], [0, 2]]) == polys.ZERO

    def test_segment_rows_keep_the_determinant(self):
        # rational keyframes, read as a path file reads them: each point
        # cleared by one factor over both keyframes, then divided by the gcd
        # of its pair in the segment's rows
        rng = random.Random(5)

        def point(k: int) -> list[Fraction]:
            return [F(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(k)]

        for k in range(3, 7):
            params = GroupParams(k + 1, k)
            for _ in range(4):
                begin = [point(k) for _ in range(k + 1)]
                finish = [p if rng.random() < 0.3 else point(k) for p in begin]
                if any(not any(p) for p in begin + finish):
                    continue
                frames = [[[str(c) for c in p] for p in frame] for frame in (begin, finish)]
                path, _ = path_from_document({"k": k, "n": k + 1, "keyframes": frames})
                starts, ends = _segment_rows(*path.keyframes)
                for subset in combinations(range(k + 1), k):
                    got = poly_det([starts[i] for i in subset], [ends[i] for i in subset])
                    entries = linear_entries([begin[i] for i in subset], [finish[i] for i in subset])
                    assert polys.monic(got) == polys.monic(cofactor_det(entries))


def static_matrices(seed: int):
    """Seeded (k + 1) x k integer matrices for k = 2..7: some with zero
    leading entries in their first rows, which force row swaps, some of
    rank below k, and some with a zero row below a row (0, ..., 0, c)."""
    rng = random.Random(seed)
    for index in range(240):
        k = 2 + index % 6
        m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k + 1)]
        kind = index // 6 % 4
        if kind == 1:
            for i in range(rng.randint(1, k)):
                lead = rng.randint(1, k - 1)
                m[i][:lead] = [0] * lead
        elif kind == 2:
            # every other row combines the same k - 2 rows (one at k = 2)
            basis = rng.sample(range(k + 1), max(k - 2, 1))
            for i in range(k + 1):
                if i not in basis:
                    coeffs = [rng.randint(-2, 2) for _ in basis]
                    m[i] = [sum(c * m[b][j] for c, b in zip(coeffs, basis)) for j in range(k)]
        elif kind == 3:
            m[0] = [0] * (k - 1) + [rng.choice((-3, 3))]
            m[1] = [0] * k
        yield m


class TestPencilMinors:
    def test_entry_i_is_the_determinant_without_row_i(self):
        # row 0 has a zero leading entry, so the elimination swaps rows
        m = [[0, 1], [2, 0], [3, 5]]
        assert pencil_minors(m, m) == [(10,), (-3,), (-2,)]
        assert [det([row for j, row in enumerate(m) if j != i]) for i in range(3)] == [10, -3, -2]

    def test_static_pencils_match_submatrix_determinants(self):
        deficient = swapped = 0
        for m in static_matrices(21):
            expected = [det([row for j, row in enumerate(m) if j != i]) for i in range(len(m))]
            assert pencil_minors(m, m) == [(int(d),) if d else () for d in expected]
            deficient += not any(expected)
            swapped += m[0][0] == 0
        assert deficient >= 40 and swapped >= 60

    def test_static_pencils_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        for m in static_matrices(22):
            got = pencil_minors(m, m)
            for i, minor in enumerate(got):
                expected = DomainMatrix.from_list([row for j, row in enumerate(m) if j != i], sympy.ZZ).det()
                assert (minor[0] if minor else 0) == expected

    def test_moving_pencils_match_cofactor_expansion(self):
        rng = random.Random(23)
        for k in range(2, 6):
            for _ in range(8):
                starts = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k + 1)]
                ends = [a[:] if rng.random() < 0.3 else [rng.randint(-4, 4) for _ in range(k)] for a in starts]
                starts[0][0] = 0
                got = pencil_minors(starts, ends)
                for i in range(k + 1):
                    rest = [j for j in range(k + 1) if j != i]
                    entries = linear_entries([starts[j] for j in rest], [ends[j] for j in rest])
                    assert got[i] == cofactor_det(entries)


def reference_bareiss(m: list[list[int]], columns: int | None = None, rescaled: list[int] | None = None):
    """``_bareiss`` without its zero-entry shortcut, limit or resume: every
    row below a pivot is recomputed in full, zero entry or not.  ``rescaled``, when given, gets
    one count per row whose entry under the pivot is 0 while p != prev and
    some later entry is nonzero, so that the rescale by p / prev shows."""
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
            if rescaled is not None and not a and p != prev and any(row[col + 1 :]):
                rescaled[0] += 1
            row[col:] = [0] + [(p * v - a * w) // prev for v, w in zip(row[col + 1 :], top[col + 1 :])]
        prev = p
        rank += 1
    return rank, sign


def reference_interpolate(values: list[int]) -> polys.ZPoly:
    """One column's integer polynomial through ``values`` at t = 0..D, by
    Newton forward differences and an exact division by D!."""
    top = len(values) - 1
    differences = []
    while values:
        differences.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
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
        raise AssertionError("inexact division by D!")
    return tuple(c // scale for c in coeffs)


def reference_pencil_minors(starts, ends) -> list[polys.ZPoly]:
    """``pencil_minors`` done densely: [M(t) | I] eliminated in full at every
    t = 0..D, then each minor interpolated on its own."""
    k = len(starts) - 1
    steps = [[q - p for p, q in zip(a, b)] for a, b in zip(starts, ends)]
    top = sum(1 for step in steps if any(step))
    unit = [[int(i == j) for j in range(k + 1)] for i in range(k + 1)]
    values = []
    for t in range(top + 1):
        m = [[p + t * s for p, s in zip(a, step)] + e for a, step, e in zip(starts, steps, unit)]
        rank, sign = reference_bareiss(m, k)
        last = m[k][k:] if rank == k else [0] * (k + 1)
        values.append([sign * (-1) ** (i + k) * v for i, v in enumerate(last)])
    return [reference_interpolate(list(column)) for column in zip(*values)]


PENCIL_KINDS = ("dense", "sparse", "unit-frame", "fixed-rank-below-k", "vanishing-row")


def drawn_pencils(seed: int, per_cell: int = 3):
    """(kind, k, D, starts, ends) for every kind of ``PENCIL_KINDS``, k = 2..7
    and D = 0..k + 1 moving rows, ``per_cell`` pencils each.

    dense: entries in -9..9; sparse: entries in {0, +-1, +-2}; unit-frame:
    the rows +-e_1, ..., +-e_k and a +-1 row, with the last point or point k
    among the moving rows, as on realized paths; fixed-rank-below-k: the
    fixed rows span fewer than k dimensions; vanishing-row: one moving row
    is zero at t = 0, 1 or 2, or at an interior t."""
    rng = random.Random(seed)
    for kind in PENCIL_KINDS:
        for k in range(2, 8):
            for moves in range(k + 2):
                for _ in range(per_cell):
                    yield (kind, k, moves, *_drawn_pencil(rng, kind, k, moves))


def _drawn_pencil(rng: random.Random, kind: str, k: int, moves: int):
    def dense() -> list[int]:
        return [rng.randint(-9, 9) for _ in range(k)]

    def sparse() -> list[int]:
        return [rng.choice((0, 0, 0, 1, -1, 2, -2)) for _ in range(k)]

    draw = dense if kind == "dense" else sparse
    if kind == "unit-frame":
        starts = [[rng.choice((1, -1)) * int(i == j) for j in range(k)] for i in range(k)]
        starts.append([rng.choice((1, -1)) for _ in range(k)])
        moving = [rng.choice((k - 1, k))] if moves else []
        moving += rng.sample([i for i in range(k + 1) if i not in moving], moves - len(moving))
    else:
        starts = [draw() for _ in range(k + 1)]
        moving = rng.sample(range(k + 1), moves)
    if kind == "fixed-rank-below-k":
        fixed = [i for i in range(k + 1) if i not in moving]
        basis = [draw() for _ in range(rng.randint(0, min(k - 1, len(fixed))))]
        for i in fixed:
            weights = [rng.randint(-2, 2) for _ in basis]
            starts[i] = [sum(w * row[j] for w, row in zip(weights, basis)) for j in range(k)]
    ends = [a[:] for a in starts]
    for i in moving:
        if kind == "unit-frame" and i == k:
            # the last point flips some of its signs, as a letter path moves it
            ends[i] = [-x if rng.random() < 0.5 else x for x in starts[i]]
        if ends[i] == starts[i]:
            ends[i] = [x + d for x, d in zip(starts[i], draw())]
        while ends[i] == starts[i]:
            ends[i] = dense()
    if kind == "vanishing-row" and moving:
        i = moving[0]
        base = [x or 1 for x in draw()]
        when = rng.choice(("t=0", "t=1", "t=2", "interior"))
        if when == "t=0":
            starts[i], ends[i] = [0] * k, base
        elif when == "t=1":
            starts[i], ends[i] = base, [0] * k
        elif when == "t=2":
            starts[i], ends[i] = [2 * x for x in base], base
        else:
            c = rng.randint(1, 4)
            starts[i], ends[i] = base, [-c * x for x in base]
    return starts, ends


class TestPencilMinorsReference:
    """``pencil_minors`` against the dense reference that evaluates [M(t) | I]
    at every t and interpolates each minor on its own."""

    @pytest.mark.parametrize("kind", PENCIL_KINDS)
    def test_matches_the_dense_reference(self, kind):
        drawn = zero = 0
        for _, k, moves, starts, ends in (p for p in drawn_pencils(41) if p[0] == kind):
            expected = reference_pencil_minors(starts, ends)
            assert pencil_minors(starts, ends) == expected, (k, moves, starts, ends)
            drawn += 1
            zero += not any(expected)
        assert drawn == 3 * sum(k + 2 for k in range(2, 8))
        if kind == "fixed-rank-below-k":
            assert zero >= 30

    def test_fixed_rows_of_rank_k_take_one_elimination(self, monkeypatch):
        """The fixed rows are eliminated once and, at rank k, the minors are
        read off without evaluating at any t; otherwise the elimination goes
        on once per t = 0..D."""
        calls = []
        original = projective._bareiss

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(projective, "_bareiss", counted)
        read_off = resumed = 0
        for kind, k, moves, starts, ends in drawn_pencils(42, per_cell=1):
            fixed = [a for a, b in zip(starts, ends) if a == b]
            calls.clear()
            assert pencil_minors(starts, ends) == reference_pencil_minors(starts, ends)
            if fixed and reference_bareiss([row[:] for row in fixed], k)[0] == k:
                assert len(calls) == 1
                read_off += 1
            else:
                assert len(calls) == 2 + moves
                resumed += 1
        assert read_off >= 20 and resumed >= 100

    def test_inexact_interpolation_is_refused(self):
        with pytest.raises(AssertionError, match="inexact division"):
            projective._interpolate([[0], [0], [1]])


class TestSingularSubsets:
    def test_matches_a_rank_test_per_subset(self):
        rng = random.Random(43)
        singular = 0
        for k in range(2, 8):
            params = GroupParams(k + 1, k)
            for index in range(20):
                if index % 2:
                    coords = subspace_points(rng, k, k + 1, rng.randint(1, k))
                else:
                    coords = [clear_denominators([F(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(k)])
                              for _ in range(k + 1)]
                    coords = [row if any(row) else [1] * k for row in coords]
                config = Configuration(params, tuple(tuple(row) for row in coords))
                expected = [
                    s for s in combinations(range(1, k + 2), k)
                    if reference_bareiss([coords[i - 1][:] for i in s])[0] < k
                ]
                assert singular_subsets(config) == expected
                singular += bool(expected)
        assert singular >= 60


class TestBareiss:
    def test_rank_and_determinant_agree_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(13)
        deficient = 0
        for _ in range(400):
            k = rng.randint(2, 7)
            rows = k - 1 if rng.random() < 0.5 else k
            leading = rng.randint(0, k - 1)
            m = [[0] * leading + [rng.randint(-2, 2) for _ in range(k - leading)] for _ in range(rows)]
            if rng.random() < 0.3:
                gap = rng.randrange(leading, k)
                for row in m:
                    row[gap] = 0
            expected = sympy.Matrix(m)
            eliminated = [row[:] for row in m]
            rank, sign = _bareiss(eliminated)
            assert rank == expected.rank()
            deficient += rank < rows
            if rows == k and rank == k:
                assert sign * eliminated[-1][-1] == expected.det()
        assert deficient >= 100

    def test_eliminated_matrix_matches_the_full_row_loop(self):
        """Whole eliminated matrices, not just rank and sign, on matrices with
        +-1 unit rows and negative pivots, where a row with a zero entry under
        a pivot p != prev is rescaled; some augmented by the identity and
        eliminated over their first k columns, as ``general_position_violation``
        eliminates them."""
        rng = random.Random(44)
        rescaled = [0]
        for index in range(600):
            k = rng.randint(2, 7)
            rows = rng.randint(k - 1, k + 2)
            m = []
            for _ in range(rows):
                if rng.random() < 0.4:
                    m.append([rng.choice((1, -1)) * int(j == rng.randrange(k)) for j in range(k)])
                else:
                    m.append([rng.choice((0, 0, 1, -1, 2, -2, -3)) for _ in range(k)])
            rng.shuffle(m)
            columns = None
            if index % 2:
                m = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(m)]
                columns = k
            got, expected = [row[:] for row in m], [row[:] for row in m]
            assert _bareiss(got, columns) == reference_bareiss(expected, columns, rescaled)
            assert got == expected, m
        assert rescaled[0] >= 300

    def test_pivot_limit_and_resume_finish_the_same_elimination(self):
        """Stopping at a pivot-row limit and resuming from the returned rank and
        sign leaves what one call without a limit leaves: the first rows are
        searched first either way."""
        rng = random.Random(45)
        stopped = 0
        for _ in range(300):
            k = rng.randint(2, 6)
            m = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(k)] + [int(i == j) for j in range(k + 1)]
                 for i in range(k + 1)]
            limit = rng.randint(0, k + 1)
            got, expected = [row[:] for row in m], [row[:] for row in m]
            rank, sign = _bareiss(got, k, limit)
            stopped += rank < min(limit, k)
            assert _bareiss(got, k, rank=rank, sign=sign) == reference_bareiss(expected, k)
            assert got == expected
        assert stopped >= 30


class TestGeneralPosition:
    def test_repeated_direction_detected(self):
        config = config43(E1, E2, (2, 0, 0), (1, 1, 1))
        assert general_position_violation(config) == (1, 3)

    def test_base_is_general(self):
        assert general_position_violation(base_configuration(P43, (-1, 1))) is None

    def test_coplanar_triple_at_k4(self):
        points = tuple(
            pt(*row)
            for row in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1))
        )
        config = Configuration(P54, points)
        assert general_position_violation(config) == (1, 2, 3)


def subspace_points(rng: random.Random, k: int, n: int, dim: int) -> list[list[int]]:
    """n points drawn from a random subspace of Q^k spanned by ``dim`` nonzero
    rows, some of them replaced by a multiple of an earlier point, each
    cleared of its denominators."""
    basis = []
    while len(basis) < dim:
        row = [rng.randint(-2, 2) for _ in range(k)]
        if any(row):
            basis.append(row)
    points: list[list[Fraction]] = []
    while len(points) < n:
        if points and rng.random() < 0.2:
            scale = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            points.append([scale * c for c in rng.choice(points)])
            continue
        weights = [rng.randint(-2, 2) for _ in basis]
        point = [F(sum(w * row[j] for w, row in zip(weights, basis)), rng.randint(1, 2)) for j in range(k)]
        if any(point):
            points.append(point)
    return [clear_denominators(point) for point in points]


class TestGeneralPositionReference:
    """``general_position_violation`` against sympy ranks of every (k-1)-subset,
    on points that span k, k - 1 or k - 2 dimensions, so that several
    independent relations among the points are common."""

    GROUPS = [GroupParams(k + 1, k) for k in range(2, 9)]

    @pytest.mark.parametrize("params", GROUPS, ids=lambda p: f"n{p.n}-k{p.k}")
    def test_first_dependent_subset_matches_sympy(self, params):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"general-position:{params.n}:{params.k}")
        n, k = params.n, params.k
        violations = 0
        for dim in (k, k - 1, k - 2):
            if dim < 1:
                continue
            for _ in range(4):
                points = subspace_points(rng, k, n, dim)
                config = Configuration(params, tuple(tuple(p) for p in points))
                expected = next(
                    (
                        tuple(i + 1 for i in subset)
                        for subset in combinations(range(n), k - 1)
                        if sympy.Matrix([points[i] for i in subset]).rank() < k - 1
                    ),
                    None,
                )
                assert general_position_violation(config) == expected
                violations += expected is not None
        # at k = 2 the subsets are single points, and no nonzero point is dependent
        assert violations >= 2 or k == 2


class TestGeneralPositionTime:
    """Dependence is read off one elimination, not off one rank per subset."""

    def test_unit_frame_at_the_path_cap(self):
        # C(65, 63) = 2080 subsets, none of them dependent
        k = 64
        units = tuple(pt(*[int(i == j) for j in range(k)]) for i in range(k))
        config = Configuration(GroupParams(k + 1, k), units + (pt(*[1] * k),))
        start = time.perf_counter()
        assert general_position_violation(config) is None
        assert time.perf_counter() - start < 1.0

    def test_configuration_over_the_path_cap(self):
        # C(1000, 999) is inside the subset cap; C(1000, 998) subsets are never enumerated
        start = time.perf_counter()
        with pytest.raises(ValueError, match="k=999 is beyond the cap of MAX_PATH_K = 64 for paths"):
            Configuration(GroupParams(1000, 999), ())
        assert time.perf_counter() - start < 1.0


class TestTransforms:
    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveTransform(((F(1), F(2)), (F(2), F(4))))

    def test_apply_is_linear_on_representatives(self):
        t = ProjectiveTransform(((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))))
        assert t.apply(pt(1, 2, 3)) == (2, 1, 3)


class TestBaseAndSigns:
    def test_base_configuration_layout(self):
        base = base_configuration(P43, (-1, 1))
        assert list(base.points[:3]) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert base.points[3] == (-1, 1, 1)

    def test_sign_string_roundtrip(self):
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert sign_string_of(base_configuration(P43, signs)) == signs

    def test_sign_string_ignores_representative_scale(self):
        config = config43(E1, E2, (0, 0, -3), (2, -2, -2))
        assert sign_string_of(config) == (-1, 1)

    def test_sign_string_needs_unit_points(self):
        with pytest.raises(ValueError):
            sign_string_of(config43(E1, E2, (1, 1, 1), (1, 1, 1)))

    def test_sign_string_rejects_boundary(self):
        with pytest.raises(DegenerateFrameError):
            sign_string_of(config43(E1, E2, E3, (0, 1, 1)))


def shear_matrix(config: Configuration) -> tuple[tuple[Fraction, ...], ...]:
    """The shear that ``shear_family`` documents, as a full rational matrix:
    the identity with last column (-x_1/x_k, ..., -x_{k-1}/x_k, 1), x point k."""
    k = config.params.k
    xk = config.points[k - 1]
    column = [F(-xk[j], xk[k - 1]) for j in range(k - 1)] + [F(1)]
    return tuple(tuple(F(int(i == j)) for j in range(k - 1)) + (column[i],) for i in range(k))


def scaled(config: Configuration, factor: int) -> Configuration:
    """Every point of the configuration times ``factor``."""
    return Configuration(config.params, tuple(pt(*(factor * c for c in p)) for p in config.points))


def marked_configurations(k: int, count: int = 10):
    """Seeded configurations with points 1..k-1 at e_1..e_(k-1) and point k off x_k = 0."""
    rng = random.Random(f"shear:{k}")
    params = GroupParams(k + 1, k)
    units = base_configuration(params, (1,) * (k - 1)).points[: k - 1]
    for _ in range(count):
        head = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k - 1)]
        point_k = pt(*clear_denominators([*head, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))]))
        while True:
            point_n = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
            if any(point_n):
                break
        yield Configuration(params, units + (point_k, pt(*clear_denominators(point_n))))


class TestShear:
    def test_frozen_example(self):
        config = config43(E1, E2, (-2, -2, -1), (1, 1, 1))
        sheared = shear_family(config)
        assert sheared.points[2] == (0, 0, -1)
        assert sheared.points[3] == (-1, -1, 1)
        assert sheared.points[0] == (1, 0, 0)
        end = shear_matrix(config)
        assert end == ((1, 0, -2), (0, 1, -2), (0, 0, 1))
        assert det(ProjectiveTransform(end).matrix) == 1

    def test_scales_the_keyframe_by_the_last_coordinate_of_point_k(self):
        # x_k = 2: A1 has column (-1/2, -3/2, 1), and the keyframe is 2 A1
        config = config43(E1, E2, (1, 3, 2), (1, 1, 1))
        sheared = shear_family(config)
        assert list(sheared.points) == [(2, 0, 0), (0, 2, 0), (0, 0, 4), (1, -1, 2)]
        assert sheared.same_configuration(ProjectiveTransform(shear_matrix(config)).apply_to_configuration(config))

    def test_fixes_hyperplane_points(self):
        config = config43(E1, E2, (1, 2, 3), (0, 1, 2))
        sheared = shear_family(config)
        assert same_point(sheared.points[0], E1)
        assert same_point(sheared.points[1], E2)
        assert same_point(sheared.points[2], E3)

    def test_rejects_point_on_hyperplane(self):
        with pytest.raises(DegenerateFrameError):
            shear_family(config43(E1, E2, (1, 1, 0), (1, 1, 1)))

    def test_needs_pinned_frame(self):
        with pytest.raises(ValueError):
            shear_family(config43(E1, (1, 1, 0), E3, (1, 1, 1)))

    def test_family_has_unit_determinant(self):
        # the argument of the shear_family docstring, checked symbolically
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for k in range(3, 7):
            for config in marked_configurations(k, 5):
                a = sympy.Matrix(shear_matrix(config))
                identity = sympy.eye(k)
                assert sympy.expand((identity + t * (a - identity)).det()) == 1

    @pytest.mark.parametrize("k", range(2, 8))
    def test_configuration_is_the_end_transform_applied(self, k):
        # |x_k| A1 is an integer matrix, stored as it is
        for config in marked_configurations(k):
            scale = abs(config.points[k - 1][-1])
            end = ProjectiveTransform(tuple(tuple(scale * v for v in row) for row in shear_matrix(config)))
            assert shear_family(config) == end.apply_to_configuration(config)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_subset_determinants_are_constant_along_the_shear(self, k):
        # the shear family runs from |x_k| times the configuration to |x_k| A1
        # times it, the keyframe ``shear_family`` returns
        for config in marked_configurations(k):
            scale = abs(config.points[k - 1][-1])
            pencils = subset_minors(*_segment_rows(scaled(config, scale), shear_family(config)))
            assert len(pencils) == k + 1
            assert all(polys.degree(d) <= 0 for _, d in pencils)


class TestSignSnap:
    def test_frozen_example(self):
        config = config43(E1, E2, E3, (3, -2, 1))
        end = sign_snap(config)
        assert end.points[:3] == config.points[:3]
        assert end.points[3] == (1, -1, 1)

    def test_scaled_representative(self):
        config = config43(E1, E2, E3, (6, -4, 2))
        end = sign_snap(config)
        assert same_point(end.points[3], (1, -1, 1))

    def test_negative_last_coordinate_keeps_scale(self):
        end = sign_snap(config43(E1, E2, E3, (3, -2, -1)))
        assert end.points[3] == (1, -1, -1)

    def test_rejects_coordinate_zero(self):
        with pytest.raises(DegenerateFrameError):
            sign_snap(config43(E1, E2, E3, (0, 2, 1)))

    def test_creates_no_event(self):
        for last in ((3, -2, 1), (-5, 1, 2), (1, 7, -3), (3, -2, -6)):
            config = config43(E1, E2, E3, last)
            assert detect_events(PLPath(P43, (config, sign_snap(config)))) == []
