import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from diskgeom import (
    BadDimension,
    Circle,
    CircleVector,
    ComplexRoots,
    DegenerateTriple,
    DiskGeomError,
    Halfplane,
    InvalidIndex,
    NotNormalized,
    NotTangent,
    Quadruple,
    canonical_simplex_config,
    descartes_residual,
    gramian,
    inner,
    invert4,
    lift,
    minkowski_metric,
    normalize,
    project,
    solve_fourth_curvature,
    solve_fourth_disk,
    tangency_residual,
    tangent_disk_with_curvature,
    verify_generalized,
    vieta_reflect,
)
from diskgeom.descartes import worst_tangency
from diskgeom.minkowski import halfplane_geometry

curvature = st.floats(-10.0, 100.0)
# 0, or a double of magnitude 2^-21 to 2^20: scaled by 2^j for |j| <= 450, it and its squares stay normal
SCALABLE = st.builds(math.ldexp, st.just(0.0) | st.floats(0.5, 1.0) | st.floats(-1.0, -0.5), st.integers(-20, 20))


def reference_solution_line(rows, rhs):
    """The numpy full-pivot elimination the solvers used before they ran on
    Python floats: the reference the solvers must match bit for bit."""
    a = np.hstack([np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float).reshape(3, 1)])
    pivot_cols = []
    free_cols = [0, 1, 2, 3]
    for k in range(3):
        best_val = -1.0
        best = (k, free_cols[0])
        for i in range(k, 3):
            for j in free_cols:
                v = abs(a[i, j])
                if v > best_val:
                    best_val = v
                    best = (i, j)
        i, j = best
        if best_val <= 0.0:
            raise DegenerateTriple("tangency constraints are rank deficient")
        if i != k:
            a[[k, i]] = a[[i, k]]
        for i2 in range(k + 1, 3):
            factor = a[i2, j] / a[k, j]
            a[i2] = a[i2] - factor * a[k]
            a[i2, j] = 0.0
        pivot_cols.append(j)
        free_cols.remove(j)
    pivots = [abs(a[k, c]) for k, c in enumerate(pivot_cols)]
    if min(pivots) < 1e-10 * max(pivots):
        raise DegenerateTriple(
            f"pivot ratio {min(pivots) / max(pivots):.3e} below rank tolerance 1e-10"
        )
    free_col = free_cols[0]

    def back(use_rhs, free_val):
        x = np.zeros(4)
        x[free_col] = free_val
        for k in (2, 1, 0):
            c = pivot_cols[k]
            s = a[k, 4] if use_rhs else 0.0
            for j in range(4):
                if j != c:
                    s -= a[k, j] * x[j]
            x[c] = s / a[k, c]
        return x

    return back(True, 0.0), back(False, 1.0)


def reference_roots_on_line(point, direction):
    p, d = CircleVector(*point.tolist()), CircleVector(*direction.tolist())
    alpha = inner(d, d)
    if alpha == 0.0:
        raise DegenerateTriple("solution line is light-like")
    b = inner(p, d)
    c0 = inner(p, p) + 1.0
    disc = b * b - alpha * c0
    gate = 1e-12 * max(1.0, b * b, abs(alpha * c0))
    if disc < -gate:
        raise ComplexRoots(f"discriminant {disc!r} is negative")
    sq = math.sqrt(max(disc, 0.0))
    q = -(b + math.copysign(sq, b))
    if q != 0.0:
        t1, t2 = q / alpha, c0 / q
    else:
        t1 = t2 = 0.0
    # the solver's Python floats give inf and nan here without a warning, so numpy gives none either
    with np.errstate(over="ignore", invalid="ignore"):
        ends = point + t1 * direction, point + t2 * direction
    roots = sorted(map(normalize, ends), key=lambda v: (-v.beta, -v.xdot, -v.ydot, -v.gamma))
    return roots[0], roots[1]


def reference_solve_fourth_disk(c1, c2, c3, tol=1e-6):
    triple = (c1, c2, c3)
    rows = np.stack([minkowski_metric(2) @ v.as_array() for v in triple])
    line = reference_solution_line(rows, np.ones(3))
    worst, (i, j) = worst_tangency(triple)
    if worst > tol:
        raise NotTangent(f"disks {i} and {j} are not tangent, residual {worst!r} exceeds {tol!r}")
    return reference_roots_on_line(*line)


def reference_tangent_disk_with_curvature(c1, c2, curvature):
    rows = np.stack(
        [
            minkowski_metric(2) @ c1.as_array(),
            minkowski_metric(2) @ c2.as_array(),
            np.array([0.0, 0.0, 1.0, 0.0]),
        ]
    )
    return reference_roots_on_line(
        *reference_solution_line(rows, np.array([1.0, 1.0, float(curvature)]))
    )


def outcome(fn, *args):
    """repr of the result, or the exception type and message."""
    try:
        return repr(fn(*args))
    except DiskGeomError as exc:
        return f"{type(exc).__name__}: {exc}"


# small integers and signed zeros hit exact ties, zero pivots and the
# sign of zero results; wide floats hit ordinary rounding
component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
raw_vector = st.builds(CircleVector, component, component, component, component)


@st.composite
def tangent_triples(draw):
    """Three mutually externally tangent circles, lifted."""
    r1, r2, r3 = (draw(st.floats(1e-3, 10.0)) for _ in range(3))
    x, y = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    d12, d13, d23 = r1 + r2, r1 + r3, r2 + r3
    cos_phi = (d12 * d12 + d13 * d13 - d23 * d23) / (2.0 * d12 * d13)
    phi = math.acos(max(-1.0, min(1.0, cos_phi))) * draw(st.sampled_from([1.0, -1.0]))
    return (
        lift(Circle((x, y), r1)),
        lift(Circle((x + d12 * math.cos(theta), y + d12 * math.sin(theta)), r2)),
        lift(Circle((x + d13 * math.cos(theta + phi), y + d13 * math.sin(theta + phi)), r3)),
    )


def equilateral_triple():
    # unit circles on a side-2 equilateral triangle
    return (
        lift(Circle((0.0, 0.0), 1.0)),
        lift(Circle((2.0, 0.0), 1.0)),
        lift(Circle((1.0, math.sqrt(3.0)), 1.0)),
    )


class TestDescartesResidual:
    def test_integral_quadruple(self):
        assert descartes_residual(-1, 2, 2, 3) == 0.0

    def test_four_units(self):
        assert descartes_residual(1, 1, 1, 1) == 8.0

    def test_solved_root(self):
        assert abs(descartes_residual(1, 1, 1, 3 + 2 * math.sqrt(3))) <= 1e-12

    # the four-term formula descartes_residual had before it became the n = 2 Soddy-Gosset
    # residual: the same bits for every double, nan and signed zeros included
    @given(st.floats(), st.floats(), st.floats(), st.floats())
    def test_matches_the_four_term_formula(self, a, b, c, d):
        s = a + b + c + d
        expected = s * s - 2.0 * (a * a + b * b + c * c + d * d)
        assert repr(descartes_residual(a, b, c, d)) == repr(expected)


class TestSolveFourthCurvature:
    def test_integral_triple(self):
        assert solve_fourth_curvature(2, 2, 3) == (15.0, -1.0)

    def test_three_units(self):
        hi, lo = solve_fourth_curvature(1, 1, 1)
        assert hi == pytest.approx(3 + 2 * math.sqrt(3), rel=1e-15)
        assert lo == pytest.approx(3 - 2 * math.sqrt(3), rel=1e-14)

    def test_two_halfplanes(self):
        assert solve_fourth_curvature(0, 0, 1) == (1.0, 1.0)

    def test_matches_polynomial_roots(self):
        # oracle: companion-matrix roots of d^2 - 2sd + (2q - s^2);
        # simple roots only, np.roots splits double roots at sqrt(eps)
        for a, b, c in [(1, 1, 1), (2, 2, 3), (5, 8, 8), (0.25, 4.5, 7.125)]:
            s = a + b + c
            q = a * a + b * b + c * c
            expected = sorted(np.roots([1.0, -2.0 * s, 2.0 * q - s * s]).real, reverse=True)
            hi, lo = solve_fourth_curvature(a, b, c)
            assert hi == pytest.approx(expected[0], rel=1e-9, abs=1e-9)
            assert lo == pytest.approx(expected[1], rel=1e-9, abs=1e-9)

    def test_complex_roots_rejected(self):
        with pytest.raises(ComplexRoots):
            solve_fourth_curvature(1, 1, -1)

    def test_nan_rejected(self):
        message = r"^ab\+bc\+ca = nan is not a number, no real fourth curvature$"
        with pytest.raises(ComplexRoots, match=message):
            solve_fourth_curvature(math.nan, 1, 1)

    # solved on the curvatures over the power of 2 near the largest, then scaled back
    def test_huge_triple_does_not_overflow(self):
        assert solve_fourth_curvature(1e200, 1e200, 1e200) == (6.464101615137755e200, -4.641016151377544e199)

    def test_tiny_triple_does_not_underflow(self):
        hi, lo = solve_fourth_curvature(1e-200, 2e-200, 3e-200)
        assert hi == pytest.approx((6.0 + 2.0 * math.sqrt(11.0)) * 1e-200, rel=1e-15, abs=0.0)
        assert lo == pytest.approx((6.0 - 2.0 * math.sqrt(11.0)) * 1e-200, rel=1e-14, abs=0.0)

    # ab+bc+ca = -2e-13 for (1e-6, 1e-6, -6e-7): above -1e-12, but the gate acts on the triple over 2^-20
    def test_small_triple_without_real_root_rejected(self):
        message = r"^ab\+bc\+ca = -1\.99+\d*e-13 is negative, no real fourth curvature$"
        with pytest.raises(ComplexRoots, match=message):
            solve_fourth_curvature(1e-6, 1e-6, -6e-7)

    @given(st.lists(SCALABLE, min_size=3, max_size=3), st.integers(-450, 450))
    def test_dilation_scales_the_roots_bit_for_bit(self, triple, j):
        try:
            want = [math.ldexp(x, j).hex() for x in solve_fourth_curvature(*triple)]
        except ComplexRoots:
            with pytest.raises(ComplexRoots):
                solve_fourth_curvature(*(math.ldexp(x, j) for x in triple))
            return
        assert [x.hex() for x in solve_fourth_curvature(*(math.ldexp(x, j) for x in triple))] == want

    # ab+bc+ca = -2^-46 for (1, 2^-23, -2^-23), within the gate's 1e-12, so it gives the double root 1; the gate
    # acts on the scaled triple, so 2^13 times that triple gives 2^13 twice, where ab+bc+ca = -2^-20 used to raise
    def test_gate_is_relative_to_the_largest_curvature(self):
        assert solve_fourth_curvature(1.0, 2.0**-23, -(2.0**-23)) == (1.0, 1.0)
        assert solve_fourth_curvature(2.0**13, 2.0**-10, -(2.0**-10)) == (2.0**13, 2.0**13)

    @given(curvature, curvature, curvature)
    def test_roots_satisfy_residual(self, a, b, c):
        assume(a * b + b * c + c * a >= 0.0)
        for d in solve_fourth_curvature(a, b, c):
            scale = max(1.0, a * a + b * b + c * c + d * d)
            assert abs(descartes_residual(a, b, c, d)) <= 1e-9 * scale

    @given(curvature, curvature, curvature)
    def test_roots_sum_to_twice_triple_sum(self, a, b, c):
        assume(a * b + b * c + c * a >= 0.0)
        hi, lo = solve_fourth_curvature(a, b, c)
        s = a + b + c
        assert hi + lo == pytest.approx(2.0 * s, rel=1e-12, abs=1e-10 * max(1.0, abs(s)))


class TestTangencyResidual:
    def test_exact_quadruple(self, int_quadruple):
        assert tangency_residual(int_quadruple.vectors) == 0.0

    def test_equilateral_triple(self):
        assert tangency_residual(equilateral_triple()) <= 1e-12

    def test_gap_is_reported(self):
        vectors = [
            lift(Circle((0.0, 0.0), 1.0)),
            lift(Circle((5.0, 0.0), 1.0)),
            lift(Circle((2.0, 0.0), 1.0)),
        ]
        # the (0,0)/(5,0) pair has product (25 - 2) / 2 = 11.5
        assert tangency_residual(vectors) == pytest.approx(10.5, abs=1e-12)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            tangency_residual([CircleVector(0, 0, 1, -1)] * 2)

    def test_worst_pair_is_named(self):
        vectors = [
            lift(Circle((0.0, 0.0), 1.0)),
            lift(Circle((2.0, 0.0), 1.0)),
            lift(Circle((5.0, 0.0), 1.0)),
        ]
        # (0,0)/(5,0) has product 11.5; the tangent (0,0)/(2,0) pair has 1
        assert worst_tangency(vectors) == (pytest.approx(10.5, abs=1e-12), (0, 2))
        assert worst_tangency(equilateral_triple())[0] == tangency_residual(equilateral_triple())

    def test_first_nan_pair_is_the_worst(self):
        a, b, _ = equilateral_triple()
        nan_x, nan_y = CircleVector(math.nan, 0.0, 1.0, 0.0), CircleVector(0.0, math.nan, 1.0, 0.0)
        residual, pair = worst_tangency([a, b, nan_x])
        assert math.isnan(residual) and pair == (0, 2)
        residual, pair = worst_tangency([a, nan_x, nan_y])
        assert math.isnan(residual) and pair == (0, 1)


class TestSolversMatchReference:
    """The Python-float solvers reproduce the numpy elimination bit for bit,
    signed zeros included: the gasket seed, and so every gasket byte, comes
    from them."""

    @given(tangent_triples(), st.floats(-1e3, 1e3))
    def test_tangent_triples(self, triple, curvature):
        assert outcome(solve_fourth_disk, *triple) == outcome(reference_solve_fourth_disk, *triple)
        args = (triple[0], triple[1], curvature)
        assert outcome(tangent_disk_with_curvature, *args) == outcome(
            reference_tangent_disk_with_curvature, *args
        )

    @given(raw_vector, raw_vector, raw_vector, st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.5]))
    @example(  # a subnormal curvature: t1 * direction meets inf * 0
        CircleVector(0.0, 1.0, 0.0, 1.0), CircleVector(0.0, -1.0, 2.225073858507e-311, 0.0),
        CircleVector(1.0, 0.0, 0.0, 0.0), 0.0,
    )
    def test_raw_vectors(self, c1, c2, c3, curvature):
        # a huge tol lets non-tangent triples reach the root computation
        assert outcome(lambda *triple: solve_fourth_disk(*triple, tol=1e300), c1, c2, c3) == outcome(
            reference_solve_fourth_disk, c1, c2, c3, 1e300
        )
        assert outcome(tangent_disk_with_curvature, c1, c2, curvature) == outcome(
            reference_tangent_disk_with_curvature, c1, c2, curvature
        )


class TestSolveFourthDisk:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -math.inf], ids=repr)
    def test_tolerance_is_a_finite_number_of_at_least_zero(self, tol):
        with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {re.escape(repr(tol))}$"):
            solve_fourth_disk(*equilateral_triple(), tol=tol)

    def test_equilateral_unit_circles(self):
        triple = equilateral_triple()
        inner_disk, outer_disk = solve_fourth_disk(*triple)
        assert inner_disk.beta == pytest.approx(3 + 2 * math.sqrt(3), abs=1e-9)
        assert outer_disk.beta == pytest.approx(3 - 2 * math.sqrt(3), abs=1e-9)
        centroid = (1.0, math.sqrt(3.0) / 3.0)
        for root in (inner_disk, outer_disk):
            circle = project(root)
            assert circle.center[0] == pytest.approx(centroid[0], abs=1e-9)
            assert circle.center[1] == pytest.approx(centroid[1], abs=1e-9)
            for v in triple:
                assert inner(root, v) == pytest.approx(1.0, abs=1e-9)
            assert abs(descartes_residual(1, 1, 1, root.beta)) <= 1e-9

    def test_inner_disk_distance_oracle(self):
        # independent check: tangency means center distance r_i + r_new
        triple = equilateral_triple()
        inner_disk, _ = solve_fourth_disk(*triple)
        circle = project(inner_disk)
        for center in [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]:
            d = math.hypot(circle.center[0] - center[0], circle.center[1] - center[1])
            assert d == pytest.approx(1.0 + circle.radius, abs=1e-9)

    def test_strip_configuration(self):
        low = lift(Halfplane((0.0, 1.0), 0.0))
        high = lift(Halfplane((0.0, -1.0), -2.0))
        middle = lift(Circle((0.0, 1.0), 1.0))
        right, left = solve_fourth_disk(low, high, middle)
        assert project(right) == Circle((2.0, 1.0), 1.0)
        assert project(left) == Circle((-2.0, 1.0), 1.0)
        for root in (right, left):
            assert tangency_residual([low, high, middle, root]) <= 1e-9

    def test_repeated_disk_rejected(self):
        v = lift(Circle((0.0, 0.0), 1.0))
        w = lift(Circle((2.0, 0.0), 1.0))
        with pytest.raises(DegenerateTriple):
            solve_fourth_disk(v, v, w)

    def test_nearly_repeated_disk_names_the_rank_bound(self):
        v = lift(Circle((0.0, 0.0), 1.0))
        w = lift(Circle((2.0, 0.0), 1.0))
        nearly_w = lift(Circle((2.0, 1e-12), 1.0))
        with pytest.raises(DegenerateTriple, match=r"^pivot ratio 5\.000e-13 below rank tolerance 1e-10$"):
            solve_fourth_disk(v, w, nearly_w)

    def test_nan_coefficient_is_rank_deficient(self):
        # the pivot search never picks a nan, so its constraint row runs out of pivots
        a, b, _ = equilateral_triple()
        with pytest.raises(DegenerateTriple):
            solve_fourth_disk(a, b, CircleVector(math.nan, 0.0, 1.0, 0.0))

    def test_not_tangent_rejected(self):
        with pytest.raises(NotTangent):
            solve_fourth_disk(
                lift(Circle((0.0, 0.0), 1.0)),
                lift(Circle((5.0, 0.0), 1.0)),
                lift(Circle((0.0, 5.0), 1.0)),
            )

    def test_roots_are_vieta_partners(self):
        triple = equilateral_triple()
        hi, lo = solve_fourth_disk(*triple)
        q = Quadruple((*triple, hi))
        reflected = vieta_reflect(q, 3).vectors[3]
        assert np.allclose(reflected.as_array(), lo.as_array(), atol=1e-9)

    def test_solutions_verify_generalized(self):
        triple = equilateral_triple()
        for root in solve_fourth_disk(*triple):
            assert verify_generalized([*triple, root]) <= 1e-8


class TestTangentDiskWithCurvature:
    def test_prescribed_curvature_pair(self):
        c1 = lift(Circle((-0.5, 0.0), 0.5))
        c2 = lift(Circle((0.5, 0.0), 0.5))
        first, second = tangent_disk_with_curvature(c1, c2, -1.0)
        # curvature -1 disk tangent to both is the enclosing unit disk
        assert project(first) == Circle((0.0, 0.0), -1.0)
        assert project(second) == Circle((0.0, 0.0), -1.0)

    def test_nan_curvature_fails_the_discriminant(self):
        c1, c2 = lift(Circle((-1.0, 0.0), 1.0)), lift(Circle((1.0, 0.0), 1.0))
        with pytest.raises(ComplexRoots, match=r"^discriminant nan is not a number$"):
            tangent_disk_with_curvature(c1, c2, math.nan)

    def test_mirror_pair_ordered_upper_first(self):
        c1 = lift(Circle((-1.0, 0.0), 1.0))
        c2 = lift(Circle((1.0, 0.0), 1.0))
        up, down = tangent_disk_with_curvature(c1, c2, 1.0)
        assert project(up).center[1] == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert project(down).center[1] == pytest.approx(-math.sqrt(3.0), abs=1e-12)


class TestVietaReflect:
    def test_curvature_recurrence(self, int_quadruple):
        reflected = vieta_reflect(int_quadruple, 0)
        assert reflected.vectors[0].beta == 15.0

    def test_involution(self, int_quadruple):
        twice = vieta_reflect(vieta_reflect(int_quadruple, 2), 2)
        for got, want in zip(twice.vectors, int_quadruple.vectors):
            assert np.allclose(got.as_array(), want.as_array(), atol=1e-12)

    def test_gramian_invariance(self):
        triple = equilateral_triple()
        hi, _ = solve_fourth_disk(*triple)
        q = Quadruple((*triple, hi))
        for slot in range(4):
            reflected = vieta_reflect(q, slot)
            assert np.allclose(
                gramian(reflected.vectors), gramian(q.vectors), atol=1e-12
            )

    def test_symmetric_seed_reflection_recovers_inner_disk(self):
        triple = equilateral_triple()
        hi, lo = solve_fourth_disk(*triple)
        q = Quadruple((*triple, lo))
        recovered = vieta_reflect(q, 3).vectors[3]
        assert np.allclose(recovered.as_array(), hi.as_array(), atol=1e-9)

    def test_invalid_index(self, int_quadruple):
        with pytest.raises(InvalidIndex):
            vieta_reflect(int_quadruple, 4)

    @pytest.mark.parametrize("index", [1.0, True, np.float64(2.0), "1", None], ids=repr)
    def test_non_integer_index(self, int_quadruple, index):
        with pytest.raises(InvalidIndex, match=f"^reflection slot must be 0..3, got {re.escape(repr(index))}$"):
            vieta_reflect(int_quadruple, index)

    def test_numpy_integer_index(self, int_quadruple):
        assert vieta_reflect(int_quadruple, np.int64(2)) == vieta_reflect(int_quadruple, 2)

    def test_curvature_row_annihilated_by_inverse_gramian(self, int_quadruple):
        f = gramian(int_quadruple.vectors)
        finv = invert4(f)
        b = np.array(int_quadruple.curvatures)
        assert abs(b @ finv @ b) <= 1e-9


class TestQuadrupleValidate:
    def test_exact_quadruple_passes(self, int_quadruple):
        int_quadruple.validate()

    def test_non_tangent_fails(self):
        q = Quadruple(
            (
                lift(Circle((0.0, 0.0), 1.0)),
                lift(Circle((5.0, 0.0), 1.0)),
                lift(Circle((0.0, 5.0), 1.0)),
                lift(Circle((5.0, 5.0), 1.0)),
            )
        )
        with pytest.raises(NotTangent):
            q.validate()

    def test_non_tangent_names_the_pair(self):
        corners = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
        q = Quadruple(tuple(lift(Circle(c, 1.0)) for c in corners))
        # the diagonal pairs have product (50 - 2) / 2 = 24; (0, 3) comes first
        message = r"^disks 0 and 3 are not tangent, residual 23\.0 exceeds 1e-06$"
        with pytest.raises(NotTangent, match=message):
            q.validate()

    def test_nan_vector_fails(self, int_quadruple):
        vectors = (*int_quadruple.vectors[:3], CircleVector(math.nan, 0.0, 1.0, 0.0))
        with pytest.raises(NotNormalized, match=r"^vector 3 \(nan, 0\.0, 1\.0, 0\.0\) has <v,v> = nan, "):
            Quadruple(vectors).validate()

    def test_three_vectors_rejected(self, int_quadruple):
        with pytest.raises(ValueError, match="expected 4 vectors, got 3"):
            Quadruple(int_quadruple.vectors[:3]).validate()

    def test_unnormalized_vector_names_vector_and_bound(self, int_quadruple):
        vectors = list(int_quadruple.vectors)
        vectors[2] = CircleVector(*(2.0 * x for x in vectors[2]))
        with pytest.raises(NotNormalized) as info:
            Quadruple(tuple(vectors)).validate()
        assert str(info.value) == f"vector 2 {tuple(vectors[2])!r} has <v,v> = -4.0, expected -1 within 1e-06"


# n = 3: a ball of each sign of radius and a halfspace, all exact (the radius is a power of two
# and hypot(0.0, 0.6, -0.8) rounds to 1.0), so the lift and the projection invert each other bit for bit
@pytest.mark.parametrize(
    "disk", [Circle((0.5, -2.0, 3.0), 2.0), Circle((0.5, -2.0, 3.0), -2.0), Halfplane((0.0, 0.6, -0.8), 2.5)], ids=repr
)
def test_lift_and_project_round_trip_in_three_dimensions(disk):
    v = lift(disk)
    assert v.dim == 3 and project(v) == disk
    if isinstance(disk, Halfplane):
        assert halfplane_geometry(v) == (*disk.normal, disk.offset)


def balls(*dims: int) -> tuple[CircleVector, ...]:
    """One lifted unit ball at the origin per given dimension."""
    return tuple(lift(Circle((0.0,) * n, 1.0)) for n in dims)


# one wording for every count rule: the count that the first vector's n asks for, the dimensions given,
# and the rule itself; tangent_disk_with_curvature takes n balls, which its curvature makes n+1 constraints
@pytest.mark.parametrize(
    "call, vectors, need, rule",
    [
        pytest.param(solve_fourth_disk, balls(3, 3, 3), 4, "n+1", id="solve_fourth_disk-count"),
        pytest.param(solve_fourth_disk, balls(2, 2, 3), 3, "n+1", id="solve_fourth_disk-mixed"),
        pytest.param(lambda *v: tangent_disk_with_curvature(*v, 1.0), balls(3, 3), 3, "n", id="tangent-count"),
        pytest.param(lambda *v: tangent_disk_with_curvature(*v, 1.0), balls(2, 3), 2, "n", id="tangent-mixed"),
        pytest.param(lambda *v: vieta_reflect(Quadruple(v), 0), balls(3, 3, 3, 3), 5, "n+2", id="vieta_reflect-count"),
        pytest.param(lambda *v: vieta_reflect(Quadruple(v), 0), balls(2, 2, 2, 3), 4, "n+2", id="vieta_reflect-mixed"),
        pytest.param(lambda *v: Quadruple(v).validate(), balls(3, 3, 3, 3), 5, "n+2", id="validate-count"),
        pytest.param(lambda *v: Quadruple(v).validate(), balls(3, 2, 2, 2, 2), 5, "n+2", id="validate-mixed"),
    ],
)
def test_counts_name_the_rule_and_dimensions(call, vectors, need, rule):
    dims = tuple(v.dim for v in vectors)
    message = f"expected {need} vectors, got {len(vectors)} of dimensions {dims}: {rule} of one dimension n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*vectors)


def test_tol_is_keyword_only():
    message = "expected 3 vectors, got 4 of dimensions (2, 2, 2, None): n+1 of one dimension n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_fourth_disk(*equilateral_triple(), 1e-9)


def test_one_dimensional_balls_are_refused():
    segment = CircleVector((0.0,), 1.0, -1.0)  # normalized, but lift takes no ball of n = 1
    with pytest.raises(BadDimension, match="^dimension must be >= 2, got 1$"):
        vieta_reflect(Quadruple((segment,) * 3), 0)  # n+2 vectors of n = 1: it would divide by n-1 = 0
    with pytest.raises(BadDimension, match="^dimension must be >= 2, got 1$"):
        project(segment)


# the canonical configurations of n = 3..8, from every side, in units of eps * max |component|;
# the worst ratios measured over every slot were 7.2 (dropped ball), 10.5 (other root) and 0.44
# (reflecting twice), so each bound leaves about 3x headroom or more
SOLVE_BOUND = 32.0
TWICE_BOUND = 2.0


@pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
@pytest.mark.parametrize("n", range(3, 9))
def test_every_dimension_solves_and_reflects(n, outer):
    vectors = tuple(lift(s) for s in canonical_simplex_config(n, outer))
    q = Quadruple(vectors)
    q.validate()
    for k in range(n + 2):
        reflected = vieta_reflect(q, k)
        scale = sys.float_info.epsilon * max(abs(x) for v in (*vectors, reflected.vectors[k]) for x in v)
        roots = solve_fourth_disk(*vectors[:k], *vectors[k + 1 :])
        dropped = min(roots, key=lambda r: distance(r, vectors[k]))
        other = roots[1] if dropped is roots[0] else roots[0]
        assert distance(dropped, vectors[k]) <= SOLVE_BOUND * scale
        assert distance(other, reflected.vectors[k]) <= SOLVE_BOUND * scale
        twice = vieta_reflect(reflected, k)
        assert max(map(distance, twice.vectors, vectors)) <= TWICE_BOUND * scale


def distance(u: CircleVector, v: CircleVector) -> float:
    """Largest componentwise difference of two lifted vectors."""
    return max(abs(a - b) for a, b in zip(u, v, strict=True))
