import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from diskgeom import (
    BadDimension,
    Circle,
    CircleVector,
    DegenerateConfiguration,
    Halfplane,
    NSphere,
    NonFiniteOutput,
    NonUnitNormal,
    NotNormalized,
    NotSpacelike,
    SingularMatrix,
    ZeroRadius,
    canonical_simplex_config,
    gramian,
    inner,
    inner_geometric,
    intersection_angle,
    invert4,
    invert_matrix,
    lift,
    lift_sphere,
    minkowski_metric,
    minkowski_metric_inv,
    normalize,
    project,
    verify_generalized,
)

EPS = float(np.finfo(float).eps)


@st.composite
def circles(draw, max_center=1e3, min_radius=1e-3, max_radius=1e3):
    x = draw(st.floats(-max_center, max_center))
    y = draw(st.floats(-max_center, max_center))
    mag = draw(st.floats(min_radius, max_radius))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return Circle((x, y), sign * mag)


# 0, or a double of magnitude 2^-21 to 2^20: scaled by 2^j for |j| <= 450, it and its squares stay normal
SCALABLE = st.builds(math.ldexp, st.just(0.0) | st.floats(0.5, 1.0) | st.floats(-1.0, -0.5), st.integers(-20, 20))
# 0, or a double of magnitude 2^-301 to 2^300
MODERATE = st.builds(math.ldexp, st.just(0.0) | st.floats(0.5, 1.0) | st.floats(-1.0, -0.5), st.integers(-300, 300))


@st.composite
def halfplanes(draw):
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    offset = draw(st.floats(-1e3, 1e3))
    return Halfplane((math.cos(angle), math.sin(angle)), offset)


def normalization_error_budget(v: CircleVector) -> float:
    # floating-point error model: the lift components carry roundings
    # proportional to the squared reduced coordinates
    scale = v.xdot * v.xdot + v.ydot * v.ydot + abs(v.beta * v.gamma) + 1.0
    return 64.0 * EPS * scale


class TestLift:
    def test_unit_circle(self):
        assert tuple(lift(Circle((0, 0), 1))) == (0.0, 0.0, 1.0, -1.0)

    def test_offset_circle(self):
        assert tuple(lift(Circle((3, 4), 1))) == (3.0, 4.0, 1.0, 24.0)

    def test_signed_radius(self):
        assert tuple(lift(Circle((0, 0), -2))) == (0.0, 0.0, -0.5, 2.0)

    def test_halfplane(self):
        assert tuple(lift(Halfplane((0, 1), 0))) == (0.0, -1.0, 0.0, 0.0)

    def test_halfplane_is_large_circle_limit(self):
        # the halfplane {p : n.p <= c} is the R -> inf limit of the disk of
        # radius R centered at (c - R) n; R = 1e6 pins the limit numerically
        n = (0.6, 0.8)
        c = 1.5
        big = 1e6
        limit = lift(Circle(((c - big) * n[0], (c - big) * n[1]), big))
        exact = lift(Halfplane(n, c))
        assert np.allclose(limit.as_array(), exact.as_array(), atol=1e-4)

    def test_zero_radius_rejected(self):
        with pytest.raises(ZeroRadius):
            lift(Circle((0, 0), 0))

    def test_nonfinite_radius_rejected(self):
        with pytest.raises(ZeroRadius):
            lift(Circle((0, 0), math.inf))

    # 1/r overflows for these subnormal radii; inner_geometric needs no curvature and still takes them
    @pytest.mark.parametrize("r", [5e-324, -5e-324, 1e-310])
    def test_radius_of_overflowing_curvature_rejected(self, r):
        message = f"^radius {r!r} is too small: its curvature 1/r is past the double range$"
        with pytest.raises(ZeroRadius, match=message):
            lift(Circle((0, 0), r))
        with pytest.raises(ZeroRadius, match=message):
            lift(Circle((0.0, 0.0, 0.0), r))
        assert inner_geometric(Circle((0, 0), r), Circle((2 * r, 0), r)) == pytest.approx(1.0)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(NonUnitNormal):
            lift(Halfplane((1, 1), 0))

    def test_nan_normal_rejected(self):
        with pytest.raises(NonUnitNormal, match=r"^halfplane normal must be unit length, \|n\| = nan$"):
            lift(Halfplane((math.nan, 0.0), 0.0))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_center_rejected(self, x):
        with pytest.raises(ValueError, match=rf"^center must be finite, got {x!r}$"):
            lift(Circle((0.0, x), 1.0))
        with pytest.raises(ValueError, match=rf"^center must be finite, got {x!r}$"):
            inner_geometric(Circle((0.0, 0.0), 1.0), Circle((x, 0.0), 1.0))

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_nonfinite_offset_rejected(self, offset):
        with pytest.raises(ValueError, match=rf"^offset must be finite, got {offset!r}$"):
            lift(Halfplane((1.0, 0.0), offset))

    def test_huge_center_lifts_to_inf(self):
        assert lift(Circle((1e200, 0.0), 1.0)).gamma == math.inf

    # the curvature 1/r is finite, but the reduced center c/r is not
    @pytest.mark.parametrize("center", [(1e10, 0.0), (0.0, -1e10), (1e10, 0.0, 0.0)])
    def test_reduced_center_past_the_double_range_rejected(self, center):
        message = rf"^radius 1e-300 is too small for center {re.escape(repr(center))}: c/r is past the double range$"
        with pytest.raises(ZeroRadius, match=message):
            lift(Circle(center, 1e-300))
        assert lift(Circle(center, 1e-298)).dim == len(center)  # c/r = 1e308 is finite

    @given(circles(max_center=10, min_radius=0.5, max_radius=10))
    def test_moderate_circles_normalize_tightly(self, c):
        v = lift(c)
        assert abs(inner(v, v) + 1.0) <= 1e-12

    @given(st.one_of(circles(), halfplanes()))
    def test_lift_is_normalized(self, d):
        v = lift(d)
        assert abs(inner(v, v) + 1.0) <= normalization_error_budget(v)


class TestProject:
    def test_unit_circle_roundtrip(self):
        assert project(CircleVector(0, 0, 1, -1)) == Circle((0.0, 0.0), 1.0)

    def test_halfplane_roundtrip(self):
        hp = project(CircleVector(0, -1, 0, 0))
        assert isinstance(hp, Halfplane)
        assert hp.normal == (0.0, 1.0)
        assert hp.offset == 0.0

    def test_lightlike_rejected(self):
        with pytest.raises(NotNormalized):
            project(CircleVector(0, 0, 1, 0))

    @given(circles(min_radius=0.1))
    def test_circle_roundtrip(self, c):
        # center/radius ratios beyond ~3e4 push the lift's floating-point
        # normalization residual over project's 1e-6 gate, so stay below
        back = project(lift(c))
        assert isinstance(back, Circle)
        assert back.radius == pytest.approx(c.radius, rel=1e-9)
        for got, want in zip(back.center, c.center):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * abs(c.radius))

    def test_extreme_ratio_hits_normalization_gate(self):
        v = lift(Circle((0.0, 130.0), 1e-3))
        with pytest.raises(NotNormalized):
            project(v)

    def test_nan_fails_the_normalization_gate(self):
        with pytest.raises(NotNormalized, match=r"^<v,v> = nan, expected -1 within 1e-06$"):
            project(CircleVector(math.nan, 0.0, 1.0, 0.0))

    def test_normalization_error_names_the_bound(self):
        with pytest.raises(NotNormalized, match=r"^<v,v> = -4\.0, expected -1 within 1e-06$"):
            project(CircleVector(0.0, 0.0, 2.0, -2.0))

    @given(halfplanes())
    def test_halfplane_roundtrip_property(self, hp):
        back = project(lift(hp))
        assert isinstance(back, Halfplane)
        dot = back.normal[0] * hp.normal[0] + back.normal[1] * hp.normal[1]
        assert dot == pytest.approx(1.0, abs=1e-12)
        assert back.offset == pytest.approx(hp.offset, rel=1e-9, abs=1e-9)


class TestNormalize:
    def test_scales_down(self):
        assert tuple(normalize((0, 0, 2, -2))) == (0.0, 0.0, 1.0, -1.0)

    def test_identity_on_normalized(self):
        assert tuple(normalize((0, 0, 1, -1))) == (0.0, 0.0, 1.0, -1.0)

    def test_unit_xdot_vector(self):
        assert tuple(normalize((1, 0, 0, 0))) == (1.0, 0.0, 0.0, 0.0)

    def test_lightlike_rejected(self):
        with pytest.raises(NotSpacelike):
            normalize((0, 0, 1, 0))

    def test_timelike_rejected(self):
        with pytest.raises(NotSpacelike):
            normalize((0, 0, 1, 1))

    def test_nan_rejected(self):
        with pytest.raises(NotSpacelike, match=r"^<v,v> = nan is not a number$"):
            normalize((math.nan, 0, 1, 0))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
    def test_planar_matches_the_four_component_formula(self, components):
        # the planar formula normalize had before it took every n: same bits, signed zeros too
        x, y, b, g = components
        s = -(x * x) - y * y + b * g
        if s >= -1e-12:
            with pytest.raises(NotSpacelike):
                normalize(components)
            return
        scale = 1.0 / math.sqrt(-s)
        want = np.array([x * scale, y * scale, b * scale, g * scale])
        assert np.array(tuple(normalize(components))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_scaled_lift_of_every_dimension(self, n):
        v = lift(Circle(tuple(0.5 * k - 1.0 for k in range(n)), 0.75))
        got = normalize([2.0 * x for x in v])
        assert got.dim == n
        # the lift itself is normalized only to its rounding, eps * |c|^2 / r^2
        budget = 64.0 * EPS * (1.0 + sum(c * c for c in v.coords))
        assert np.allclose(got.as_array(), v.as_array(), rtol=budget, atol=0.0)

    def test_too_few_components(self):
        with pytest.raises(BadDimension, match="need n\\+2 >= 4 components, got 3"):
            normalize((0.0, 1.0, -1.0))

    # <v,v> overflows to -inf, or to nan as -inf + inf, so the scaled components decide
    def test_overflowing_self_product_is_scaled(self):
        assert tuple(normalize([1e200, 0, 1, 0])) == (1.0, 0.0, 1e-200, 0.0)
        assert tuple(normalize([2.0**601, 0.0, 2.0**600, 2.0**600])) == tuple(normalize([2.0, 0.0, 1.0, 1.0]))
        with pytest.raises(NotSpacelike, match="is not negative$"):
            normalize([1.0, 0.0, 1e200, 1e200])

    @given(st.lists(SCALABLE, min_size=4, max_size=6), st.integers(-450, 450))
    def test_dilation_keeps_the_bits(self, components, j):
        scaled = [math.ldexp(x, j) for x in components]
        u, v = CircleVector(*components), CircleVector(*scaled)
        assume(inner(u, u) < -1e-12 and inner(v, v) < -1e-12)  # the space-like gate is absolute
        assert [x.hex() for x in normalize(scaled)] == [x.hex() for x in normalize(components)]


class TestInner:
    def test_self_product(self):
        v = CircleVector(0, 0, 1, -1)
        assert inner(v, v) == -1.0

    def test_external_tangency(self):
        assert inner(lift(Circle((0, 0), 1)), lift(Circle((2, 0), 1))) == 1.0

    def test_concentric(self):
        assert inner(lift(Circle((0, 0), 1)), lift(Circle((0, 0), 2))) == -1.25

    @given(circles(), circles())
    def test_symmetric(self, c1, c2):
        u, v = lift(c1), lift(c2)
        assert inner(u, v) == inner(v, u)


class TestInnerGeometric:
    def test_tangent(self):
        assert inner_geometric(Circle((0, 0), 1), Circle((2, 0), 1)) == 1.0

    def test_overlapping(self):
        assert inner_geometric(Circle((0, 0), 1), Circle((1, 0), 1)) == -0.5

    def test_identical(self):
        assert inner_geometric(Circle((0, 0), 1), Circle((0, 0), 1)) == -1.0

    def test_zero_radius_rejected(self):
        with pytest.raises(ZeroRadius):
            inner_geometric(Circle((0, 0), 0), Circle((1, 0), 1))

    def test_halfplane_delegates_to_lift(self):
        hp = Halfplane((0, 1), 0)
        c = Circle((0, 1), 1)
        assert inner_geometric(hp, c) == inner(lift(hp), lift(c))

    @given(circles(), circles())
    def test_agrees_with_lifted_product(self, c1, c2):
        u, v = lift(c1), lift(c2)
        algebraic = inner(u, v)
        geometric = inner_geometric(c1, c2)
        # term-magnitude error model on top of the headline bound
        terms = (
            abs(u.xdot * v.xdot)
            + abs(u.ydot * v.ydot)
            + 0.5 * (abs(u.beta * v.gamma) + abs(v.beta * u.gamma))
            + abs(geometric)
            + 1.0
        )
        tol = 1e-10 * max(1.0, abs(geometric)) + 64.0 * EPS * terms
        assert abs(algebraic - geometric) <= tol

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    def test_external_tangency_gives_one(self, r1, r2):
        c1 = Circle((0.0, 0.0), r1)
        c2 = Circle((r1 + r2, 0.0), r2)
        assert inner_geometric(c1, c2) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    def test_internal_tangency_gives_minus_one(self, r1, r2):
        c1 = Circle((0.0, 0.0), r1)
        c2 = Circle((r1 - r2, 0.0), r2)
        assert inner_geometric(c1, c2) == pytest.approx(-1.0, abs=1e-12)

    # 2*r1*r2 underflows to 0 below r = 1e-162; the lengths are scaled by a power of 2 first
    @pytest.mark.parametrize("r", [1e-170, 1e-300, 2.0**-1074])
    def test_tiny_tangent_disks_give_one(self, r):
        assert inner_geometric(Circle((0.0, 0.0), r), Circle((2.0 * r, 0.0), r)) == 1.0
        assert intersection_angle(Circle((0.0, 0.0), r), Circle((2.0 * r, 0.0), r)) == 0.0

    # a subnormal radius beside a unit one: a unit of at least 2^-500 of the largest length keeps squares finite
    def test_subnormal_radius_beside_a_unit_disk_is_finite(self):
        assert inner_geometric(Circle((0, 0), 5e-324), Circle((1, 0), 1)) == 0.0

    # two tiny disks far from the origin: the unit follows the radii and the center difference, not the centers
    def test_tiny_disks_far_out(self):
        assert inner_geometric(Circle((1.0, 0.0), 1e-200), Circle((1.0, 0.0), 1e-200)) == -1.0
        assert inner_geometric(Circle((1e100, 0.0), 1e-100), Circle((1e100, 3e-100), 2e-100)) == pytest.approx(1.0)

    # radii 2^538 apart: in a unit near sqrt|r1*r2| both squares stay normal, so d^2 - r1^2 cancels to 0
    # and -r2^2 is left, as in the unscaled formula
    def test_radii_far_apart_keep_their_squares(self):
        assert inner_geometric(Circle((0.0, 0.0), 2.0**240), Circle((2.0**240, 0.0), 2.0**-298)) == -(2.0**-539)

    # a center difference past the double range is the package's error, where it used to give nan or inf
    @pytest.mark.parametrize("r", [2.0**1023, 1.0, 5e-324])
    def test_center_difference_past_the_double_range(self, r):
        big = 2.0**1023
        centers = re.escape(f"{(big, 0.0)!r} and {(-big, 0.0)!r}")
        with pytest.raises(NonFiniteOutput, match=f"^centers {centers} are further apart than the double range$"):
            inner_geometric(Circle((big, 0.0), r), Circle((-big, 0.0), r))

    # a halfplane beside a finite circle whose reduced center c/r overflows: lift refuses the circle
    def test_halfplane_beside_an_unliftable_circle(self):
        with pytest.raises(ZeroRadius, match=r"c/r is past the double range$"):
            inner_geometric(Halfplane((1.0, 0.0), 0.0), Circle((1e10, 0.0), 1e-300))

    # 2*r1*r2 underflows even so: the product is past the double range, or below it where
    # d^2 - r1^2 - r2^2 is an exact 0
    def test_underflowing_radius_product(self):
        assert inner_geometric(Circle((5e-324, 5e-324), 5e-324), Circle((5e-324, 0.5), 5e-324)) == math.inf
        assert inner_geometric(Circle((5e-324, 5e-324), -5e-324), Circle((5e-324, 0.5), 5e-324)) == -math.inf
        p = inner_geometric(Circle((0.0, 0.0), 5e-324), Circle((1e300, 0.0), 1e300))
        assert p == 0.0 and math.copysign(1.0, p) == -1.0

    @given(st.lists(SCALABLE, min_size=6, max_size=6), st.integers(-450, 450))
    def test_dilation_keeps_the_bits(self, xs, j):
        x1, y1, r1, x2, y2, r2 = xs
        assume(r1 != 0.0 and r2 != 0.0)
        want = inner_geometric(Circle((x1, y1), r1), Circle((x2, y2), r2))
        x1, y1, r1, x2, y2, r2 = (math.ldexp(x, j) for x in xs)
        assert inner_geometric(Circle((x1, y1), r1), Circle((x2, y2), r2)).hex() == want.hex()

    # that scaling is exact, so where the unscaled formula neither underflows nor nears overflow
    # it gives the same bits
    @given(st.lists(MODERATE, min_size=6, max_size=6))
    def test_scaling_keeps_the_bits_of_the_unscaled_formula(self, xs):
        x1, y1, r1, x2, y2, r2 = xs
        assume(r1 != 0.0 and r2 != 0.0)
        s = (x2 - x1) * (x2 - x1) + (y2 - y1) * (y2 - y1)
        unscaled = (s - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
        if abs(unscaled) < sys.float_info.max / 16:
            assert inner_geometric(Circle((x1, y1), r1), Circle((x2, y2), r2)) == unscaled


class TestIntersectionAngle:
    def test_tangent_is_zero(self):
        assert intersection_angle(Circle((0, 0), 1), Circle((2, 0), 1)) == 0.0

    def test_orthogonal(self):
        angle = intersection_angle(Circle((0, 0), 1), Circle((math.sqrt(2), 0), 1))
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_disjoint_is_none(self):
        assert intersection_angle(Circle((0, 0), 1), Circle((5, 0), 1)) is None

    def test_overflowing_squares_give_the_angle(self):
        # the squared center distance and radii would overflow; they are taken in the unit of the largest length
        assert intersection_angle(Circle((1e200, 0.0), 1e200), Circle((0.0, 0.0), 1e200)) == math.acos(-0.5)

    def test_nan_product_is_none(self):
        # 0 * inf in the Minkowski product: the far circle's co-curvature overflows in its lift
        assert intersection_angle(Halfplane((1.0, 0.0), 0.0), Circle((1e200, 0.0), 1.0)) is None


class TestGramian:
    def test_identical_vectors(self):
        v = CircleVector(0, 0, 1, -1)
        f = gramian([v, v, v, v])
        assert np.array_equal(f, -np.ones((4, 4)))

    def test_descartes_configuration(self, int_quadruple):
        f = gramian(int_quadruple.vectors)
        expected = np.ones((4, 4)) - 2.0 * np.eye(4)
        assert np.array_equal(f, expected)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(7)
        vectors = [
            lift(Circle((rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.2, 3)))
            for _ in range(4)
        ]
        f = gramian(vectors)
        d = np.column_stack([v.as_array() for v in vectors])
        assert np.allclose(f, d.T @ minkowski_metric(2) @ d, atol=1e-11)
        assert np.array_equal(f, f.T)
        assert np.allclose(np.diag(f), -1.0, atol=1e-9)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            gramian([CircleVector(0, 0, 1, -1)] * 3)

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            gramian([CircleVector(0, 0, 1, -1)] * 3 + [CircleVector((0, 0, 0), 1, -1)])

    @staticmethod
    def check_against_inner(vectors):
        """Exactly symmetric, and each entry equals the pairwise inner()
        within the README error model: both round at eps * max(1, |c|^2/r^2)."""
        f = gramian(vectors)
        assert np.array_equal(f, f.T)
        pairwise = np.array([[inner(u, v) for v in vectors] for u in vectors])
        scale = max(
            1.0, max(sum(c * c for c in v.coords) + abs(v.beta * v.gamma) for v in vectors)
        )
        assert np.all(np.abs(f - pairwise) <= 16.0 * EPS * scale)

    @given(st.lists(circles(max_center=100.0, max_radius=10.0), min_size=4, max_size=4))
    def test_planar_matches_pairwise_inner(self, disks):
        self.check_against_inner([lift(d) for d in disks])

    @pytest.mark.parametrize("outer", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_simplex_matches_pairwise_inner(self, n, outer):
        self.check_against_inner([lift_sphere(s) for s in canonical_simplex_config(n, outer)])


class TestInvert4:
    def test_identity(self):
        assert np.allclose(invert4(np.eye(4)), np.eye(4), atol=1e-15)

    def test_descartes_gramian(self):
        f = np.ones((4, 4)) - 2.0 * np.eye(4)
        assert np.allclose(invert4(f), f / 4.0, atol=1e-12)
        assert np.allclose(f @ f, 4.0 * np.eye(4), atol=1e-12)

    def test_repeated_column_rejected(self):
        m = np.eye(4)
        m[:, 1] = m[:, 0]
        with pytest.raises(SingularMatrix):
            invert4(m)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            invert4(np.eye(3))

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrix):
            invert_matrix(np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_named(self, bad):
        m = np.eye(4)
        m[2, 1] = bad
        with pytest.raises(SingularMatrix, match=rf"non-finite entry {bad!r} at \(2, 1\)"):
            invert_matrix(m)

    # an exact zero pivot makes det take log(0); the caller gets SingularMatrix, not numpy's RuntimeWarning
    def test_zero_pivot_raises_no_warning(self):
        m = [[0, 0, 1, 0], [5e-324, 1e-160, -1, 0], [0, 1e-300, -0.0, -1], [5e-324, 0, -1, 1e-300]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="^determinant 0.0 of the matrix scaled by 1/1.0 is below"):
                invert_matrix(m)

    def test_huge_entries_do_not_overflow_the_gate(self):
        # scale**4 overflows a double; the gate must still decide
        assert np.allclose(invert_matrix(1e300 * np.eye(4)), 1e-300 * np.eye(4), rtol=1e-15, atol=0)
        with pytest.raises(SingularMatrix):
            invert_matrix(np.full((4, 4), 1e300))

    def test_product_is_identity(self):
        rng = np.random.default_rng(11)
        m = rng.uniform(-2, 2, (4, 4))
        assert np.allclose(m @ invert4(m), np.eye(4), atol=1e-9)


class TestVerifyGeneralized:
    def test_exact_quadruple(self, int_quadruple):
        assert verify_generalized(int_quadruple.vectors) < 1e-9

    def test_random_circles_in_general_position(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            vectors = [
                lift(
                    Circle(
                        (rng.uniform(-10, 10), rng.uniform(-10, 10)),
                        rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1, 1),
                    )
                )
                for _ in range(4)
            ]
            f = gramian(vectors)
            if np.linalg.cond(f) > 1e6:
                continue
            assert verify_generalized(vectors) <= 1e-8
            checked += 1

    def test_repeated_disk_rejected(self):
        v = lift(Circle((0, 0), 1))
        w = lift(Circle((3, 0), 1))
        u = lift(Circle((0, 3), 1))
        with pytest.raises(DegenerateConfiguration):
            verify_generalized([v, v, w, u])


def test_metric_inverse_is_exact():
    assert np.array_equal(minkowski_metric(2) @ minkowski_metric_inv(2), np.eye(4))
    assert np.array_equal(minkowski_metric(2), minkowski_metric(2).T)


def test_mixed_dimensions_rejected():
    planar = [lift(Circle((3.0 * k, 0.0), 1.0)) for k in range(3)]
    sphere = lift_sphere(NSphere((0.0, 0.0, 3.0), 1.0))
    with pytest.raises(ValueError):
        inner(planar[0], sphere)
    with pytest.raises(ValueError):
        gramian([*planar, sphere])
    with pytest.raises(ValueError):
        verify_generalized([*planar, sphere])


def test_lift_rejects_one_dimension():
    with pytest.raises(BadDimension, match="dimension must be >= 2, got 1"):
        lift(Circle((1.0,), 1.0))


def test_gramian_of_nothing():
    with pytest.raises(ValueError, match="no vectors given"):
        gramian([])


def test_invert_matrix_rejects_non_square():
    with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
        invert_matrix(np.ones((2, 3)))
