"""Exact projective geometry: points, determinants, frames, shears, snaps."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from projbraid import polys
from projbraid.projective import (
    Configuration,
    DegenerateFrameError,
    ProjectivePoint,
    ProjectiveTransform,
    _bareiss,
    base_configuration,
    det,
    general_position_violation,
    pencil_minors,
    poly_det,
    shear_family,
    sign_snap,
    sign_string_of,
    singular_subsets,
)
from projbraid.realization import PLPath, _segment_pencils, _segment_rows, detect_events
from projbraid.words import GroupParams

F = Fraction
P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)


def pt(*coords) -> ProjectivePoint:
    return ProjectivePoint(tuple(F(c) for c in coords))


def config43(*rows) -> Configuration:
    return Configuration(P43, tuple(pt(*row) for row in rows))


def canonical(point: ProjectivePoint) -> tuple[Fraction, ...]:
    """The representative of the point whose last nonzero coordinate is +1."""
    last = next(c for c in reversed(point.coords) if c != 0)
    return tuple(c / last for c in point.coords)


def chosen(config: Configuration, subset: tuple[int, ...]):
    """The stored representatives of the points named by ``subset`` (1-based)."""
    return [config.points[i - 1].coords for i in subset]


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class TestPoints:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0)

    def test_canonical_scales_last_nonzero_to_one(self):
        assert canonical(pt(2, 4, -2)) == (F(-1), F(-2), F(1))
        assert canonical(pt(3, 0, 0)) == (F(1), F(0), F(0))

    def test_same_point_ignores_scale(self):
        assert pt(1, 2, 3).same_point(pt(-2, -4, -6))
        assert not pt(1, 2, 3).same_point(pt(1, 2, 4))

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
            q = ProjectivePoint(tuple(c * scale for c in p.coords))
        else:
            size = len(coords)
            q = pt(*data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size).filter(any)))
        assert p.same_point(q) == (canonical(p) == canonical(q))
        assert q.same_point(p) == p.same_point(q)

    def test_ratio_to(self):
        assert pt(-2, -4, -6).ratio_to(pt(1, 2, 3)) == F(-2)
        assert pt(1, 0, 0).ratio_to(pt(0, 1, 0)) is None
        assert pt(2, 0, 4).ratio_to(pt(1, 0, 2)) == F(2)


class TestDeterminants:
    def test_det(self):
        rows = ((F(2), F(0), F(1)), (F(1), F(1), F(0)), (F(0), F(3), F(1)))
        assert det(rows) == F(5)
        assert det(((F(1), F(2)), (F(2), F(4)))) == 0

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
            rows = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(size)] for _ in range(size)]
            assert det(rows) == sympy.Matrix(rows).det()
            if size >= 2 and all(any(row) for row in rows):
                config = Configuration(
                    GroupParams(size + 1, size), tuple(pt(*row) for row in rows) + (pt(*[1] * size),)
                )
                expected = next(
                    (
                        subset
                        for subset in combinations(range(1, size + 2), size - 1)
                        if sympy.Matrix([config.points[i - 1].coords for i in subset]).rank() < size - 1
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
                start = Configuration(params, tuple(pt(*p) for p in begin))
                end = Configuration(params, tuple(pt(*p) for p in finish))
                starts, ends = _segment_rows(start, end)
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


class TestTransforms:
    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveTransform(((F(1), F(2)), (F(2), F(4))))

    def test_apply_is_linear_on_representatives(self):
        t = ProjectiveTransform(((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))))
        assert t.apply(pt(1, 2, 3)).coords == (F(2), F(1), F(3))


class TestBaseAndSigns:
    def test_base_configuration_layout(self):
        base = base_configuration(P43, (-1, 1))
        assert [p.coords for p in base.points[:3]] == [
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        ]
        assert base.points[3].coords == (F(-1), F(1), F(1))

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


def shear_matrix(config: Configuration) -> ProjectiveTransform:
    """The shear that ``shear_family`` documents, as a full matrix: the
    identity with last column (-x_1/x_k, ..., -x_{k-1}/x_k, 1), x point k."""
    k = config.params.k
    xk = config.points[k - 1].coords
    column = [-xk[j] / xk[k - 1] for j in range(k - 1)] + [F(1)]
    return ProjectiveTransform(tuple(
        tuple(F(int(i == j)) for j in range(k - 1)) + (column[i],) for i in range(k)
    ))


def marked_configurations(k: int, count: int = 10):
    """Seeded configurations with points 1..k-1 at e_1..e_(k-1) and point k off x_k = 0."""
    rng = random.Random(f"shear:{k}")
    params = GroupParams(k + 1, k)
    units = base_configuration(params, (1,) * (k - 1)).points[: k - 1]
    for _ in range(count):
        head = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k - 1)]
        point_k = pt(*head, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        while True:
            point_n = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
            if any(point_n):
                break
        yield Configuration(params, units + (point_k, pt(*point_n)))


class TestShear:
    def test_frozen_example(self):
        config = config43(E1, E2, (-2, -2, -1), (1, 1, 1))
        sheared = shear_family(config)
        assert sheared.points[2].coords == (F(0), F(0), F(-1))
        assert sheared.points[3].coords == (F(-1), F(-1), F(1))
        assert sheared.points[0].coords == (F(1), F(0), F(0))
        end = shear_matrix(config)
        assert end.matrix == ((1, 0, -2), (0, 1, -2), (0, 0, 1))
        assert det(end.matrix) == 1

    def test_fixes_hyperplane_points(self):
        config = config43(E1, E2, (1, 2, 3), (0, 1, 2))
        sheared = shear_family(config)
        assert sheared.points[0].coords == (F(1), F(0), F(0))
        assert sheared.points[1].coords == (F(0), F(1), F(0))
        assert sheared.points[2].same_point(pt(*E3))

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
                a = sympy.Matrix(shear_matrix(config).matrix)
                identity = sympy.eye(k)
                assert sympy.expand((identity + t * (a - identity)).det()) == 1

    @pytest.mark.parametrize("k", range(2, 8))
    def test_configuration_is_the_end_transform_applied(self, k):
        for config in marked_configurations(k):
            assert shear_family(config) == shear_matrix(config).apply_to_configuration(config)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_subset_determinants_are_constant_along_the_shear(self, k):
        for config in marked_configurations(k):
            pencils = _segment_pencils(*_segment_rows(config, shear_family(config)))
            assert len(pencils) == k + 1
            assert all(polys.degree(d) <= 0 for _, d in pencils)


class TestSignSnap:
    def test_frozen_example(self):
        config = config43(E1, E2, E3, (3, -2, 1))
        end = sign_snap(config)
        assert end.points[:3] == config.points[:3]
        assert end.points[3].coords == (F(1), F(-1), F(1))

    def test_scaled_representative(self):
        config = config43(E1, E2, E3, (6, -4, 2))
        end = sign_snap(config)
        assert end.points[3].same_point(pt(1, -1, 1))

    def test_negative_last_coordinate_keeps_scale(self):
        end = sign_snap(config43(E1, E2, E3, (3, -2, -1)))
        assert end.points[3].coords == (F(1), F(-1), F(-1))

    def test_rejects_coordinate_zero(self):
        with pytest.raises(DegenerateFrameError):
            sign_snap(config43(E1, E2, E3, (0, 2, 1)))

    def test_creates_no_event(self):
        for last in ((3, -2, 1), (-5, 1, 2), (1, 7, -3), (F(1, 2), F(-1, 3), -1)):
            config = config43(E1, E2, E3, last)
            assert detect_events(PLPath(P43, (config, sign_snap(config)))) == []
