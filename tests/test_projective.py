"""Exact projective geometry: points, determinants, frames, shears, snaps."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from projbraid import polys
from projbraid.projective import (
    Configuration,
    DegenerateFrameError,
    ProjectivePoint,
    ProjectiveTransform,
    _bareiss,
    base_configuration,
    det,
    det_subset,
    general_position_violation,
    is_general_position,
    poly_det,
    shear_family,
    sign_snap,
    sign_string_of,
    singular_subsets,
)
from projbraid.realization import PLPath, detect_events
from projbraid.words import GroupParams

F = Fraction
P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)


def pt(*coords) -> ProjectivePoint:
    return ProjectivePoint(tuple(F(c) for c in coords))


def config43(*rows) -> Configuration:
    return Configuration(P43, tuple(pt(*row) for row in rows))


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class TestPoints:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0)

    def test_canonical_scales_last_nonzero_to_one(self):
        assert pt(2, 4, -2).canonical().coords == (F(-1), F(-2), F(1))
        assert pt(3, 0, 0).canonical().coords == (F(1), F(0), F(0))

    def test_same_point_ignores_scale(self):
        assert pt(1, 2, 3).same_point(pt(-2, -4, -6))
        assert not pt(1, 2, 3).same_point(pt(1, 2, 4))

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
        assert det_subset(base, (1, 2, 3)) == 1
        assert det_subset(base, (1, 2, 4)) == 1
        assert det_subset(base, (1, 3, 4)) == -1
        assert det_subset(base, (2, 3, 4)) == 1
        assert singular_subsets(base) == []

    def test_det_subset_sees_stored_representatives(self):
        doubled = config43(E1, E2, E3, (2, 2, 2))
        assert det_subset(doubled, (1, 2, 4)) == 2

    def test_transform_covariance(self):
        config = config43(E1, E2, (1, 2, 3), (1, 1, 1))
        t = ProjectiveTransform(((F(1), F(2), F(0)), (F(0), F(1), F(1)), (F(1), F(0), F(3))))
        moved = t.apply_to_configuration(config)
        scale = t.determinant()
        for subset in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            assert det_subset(moved, subset) == scale * det_subset(config, subset)

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

    def test_subset_validation(self):
        base = base_configuration(P43, (1, 1))
        with pytest.raises(ValueError):
            det_subset(base, (1, 2))
        with pytest.raises(ValueError):
            det_subset(base, (2, 1, 3))
        with pytest.raises(ValueError):
            det_subset(base, (1, 2, 5))


def poly_mul(f: polys.Poly, g: polys.Poly) -> polys.Poly:
    if not f or not g:
        return polys.ZERO
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return polys.poly(*out)


def poly_add(f: polys.Poly, g: polys.Poly, sign: int = 1) -> polys.Poly:
    """f + sign * g."""
    out = [F(0)] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += sign * c
    return polys.poly(*out)


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


def random_pencils(seed: int, counts: dict[int, int]):
    """Seeded square polynomial matrices: entries of degree -1 (zero) to 2 with
    denominators up to 12, and at every size from 2 one with a zero row and one
    that is singular for every t."""
    rng = random.Random(seed)

    def entry() -> polys.Poly:
        degree = rng.choice((-1, 0, 0, 1, 1, 2))
        return polys.poly(*(F(rng.randint(-4, 4), rng.randint(1, 12)) for _ in range(degree + 1)))

    for size, count in counts.items():
        for index in range(count):
            rows = [[entry() for _ in range(size)] for _ in range(size)]
            if size >= 2 and index == 0:
                rows[rng.randrange(size)] = [polys.ZERO] * size
            elif size >= 2 and index == 1:
                factor = polys.poly(F(rng.randint(1, 5), rng.randint(1, 12)), rng.randint(-2, 2))
                rows[1] = [poly_mul(factor, e) for e in rows[0]]
            yield rows


PENCILS = {1: 20, 2: 30, 3: 30, 4: 20, 5: 10, 6: 4, 7: 2}


class TestPolyDet:
    def test_matches_cofactor_expansion(self):
        singular = 0
        for rows in random_pencils(3, PENCILS):
            expected = cofactor_det(rows)
            assert poly_det(rows) == expected
            singular += expected == polys.ZERO
        assert singular >= 12

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Symbol("t")

        def expression(f: polys.Poly):
            return sum((sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(f)), sympy.S.Zero)

        for rows in random_pencils(4, PENCILS):
            matrix = DomainMatrix.from_Matrix(sympy.Matrix([[expression(e) for e in row] for row in rows]))
            expected = matrix.domain.to_sympy(matrix.det())
            assert sympy.Poly(expression(poly_det(rows)), t) == sympy.Poly(expected, t)

    def test_constant_and_linear_examples(self):
        assert poly_det([[polys.poly(F(1, 2))]]) == (F(1, 2),)
        # det [[1, t], [t, 1]] = 1 - t^2
        assert poly_det([[polys.poly(1), polys.poly(0, 1)], [polys.poly(0, 1), polys.poly(1)]]) == (F(1), F(0), F(-1))
        assert poly_det([[polys.poly(1), polys.ZERO], [polys.ZERO, polys.ZERO]]) == polys.ZERO


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
            rank, pivot = _bareiss([row[:] for row in m])
            assert rank == expected.rank()
            deficient += rank < rows
            if rows == k and rank == k:
                assert pivot == expected.det()
        assert deficient >= 100


class TestGeneralPosition:
    def test_repeated_direction_detected(self):
        config = config43(E1, E2, (2, 0, 0), (1, 1, 1))
        assert general_position_violation(config) == (1, 3)
        assert not is_general_position(config)

    def test_base_is_general(self):
        assert is_general_position(base_configuration(P43, (-1, 1)))

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


class TestShear:
    def test_frozen_example(self):
        config = config43(E1, E2, (-2, -2, -1), (1, 1, 1))
        end, sheared = shear_family(config)
        assert end.matrix == ((1, 0, -2), (0, 1, -2), (0, 0, 1))
        assert sheared.points[2].coords == (F(0), F(0), F(-1))
        assert sheared.points[3].coords == (F(-1), F(-1), F(1))
        assert sheared.points[0].coords == (F(1), F(0), F(0))
        assert end.determinant() == 1

    def test_fixes_hyperplane_points(self):
        config = config43(E1, E2, (1, 2, 3), (0, 1, 2))
        _, sheared = shear_family(config)
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
        # the symbolic counterpart of the structural check in shear_family
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(11)
        for k in range(3, 7):
            params = GroupParams(k + 1, k)
            units = base_configuration(params, (1,) * (k - 1)).points[: k - 1]
            for _ in range(5):
                last_coordinate = rng.choice([-3, -2, -1, 1, 2, 3])
                head = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k - 1)]
                point_k = pt(*head, last_coordinate)
                point_n = pt(*[rng.randint(1, 5) for _ in range(k)])
                end, _ = shear_family(Configuration(params, units + (point_k, point_n)))
                a = sympy.Matrix(end.matrix)
                identity = sympy.eye(k)
                assert sympy.expand((identity + t * (a - identity)).det()) == 1


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
