import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskgeom import (
    BadDimension,
    Circle,
    DegenerateConfiguration,
    NonFiniteOutput,
    NSphere,
    ZeroRadius,
    canonical_simplex_config,
    descartes_residual,
    gramian,
    inner_sphere,
    lift,
    lift_sphere,
    minkowski_metric,
    minkowski_metric_inv,
    soddy_gosset_residual,
    solve_fourth_curvature,
    verify_generalized,
    verify_generalized_n,
)


class TestMetric:
    def test_block_structure(self):
        g = minkowski_metric(3)
        assert g.shape == (5, 5)
        assert np.array_equal(g[:3, :3], -np.eye(3))
        assert g[3, 4] == 0.5 and g[4, 3] == 0.5

    @pytest.mark.parametrize("n", range(2, 7))
    def test_inverse_is_exact(self, n):
        assert np.array_equal(
            minkowski_metric(n) @ minkowski_metric_inv(n), np.eye(n + 2)
        )

    @pytest.mark.parametrize("n", range(2, 5))
    def test_cached_and_read_only(self, n):
        # one shared array per n, so a caller must not be able to change it
        for metric in (minkowski_metric, minkowski_metric_inv):
            assert metric(n) is metric(n)
            with pytest.raises(ValueError):
                metric(n)[0, 0] = 1.0

    def test_low_dimension_rejected(self):
        with pytest.raises(BadDimension):
            minkowski_metric(1)


# one rule for every dimension argument: an integer >= 2, where numpy integers count and bools do not
DIMENSION_CALLS = {
    "minkowski_metric": minkowski_metric,
    "soddy_gosset_residual": lambda n: soddy_gosset_residual([1.0, 1.0, 1.0, 1.0, 1.0], n),
    "canonical_simplex_config": canonical_simplex_config,
}


@pytest.mark.parametrize("call", DIMENSION_CALLS.values(), ids=DIMENSION_CALLS)
@pytest.mark.parametrize("n", [2.5, float("nan"), True, 1], ids=repr)
def test_dimension_must_be_an_integer_of_two_or_more(call, n):
    with pytest.raises(BadDimension, match=f"^{re.escape(f'dimension must be >= 2, got {n!r}')}$"):
        call(n)


@pytest.mark.parametrize("call", DIMENSION_CALLS.values(), ids=DIMENSION_CALLS)
def test_numpy_integer_dimension(call):
    # repr tells a numpy scalar from a float, so the result matches in type and bits
    assert repr(call(np.int64(3))) == repr(call(3))


def test_float_dimension_misses_the_cached_metric():
    minkowski_metric(3)
    with pytest.raises(BadDimension):
        minkowski_metric(3.0)


class TestLiftSphere:
    def test_unit_sphere(self):
        v = lift_sphere(NSphere((0.0, 0.0, 0.0), 1.0))
        assert v.coords == (0.0, 0.0, 0.0)
        assert (v.beta, v.gamma) == (1.0, -1.0)

    def test_signed_radius(self):
        v = lift_sphere(NSphere((1.0, 1.0, 1.0), -1.0))
        assert v.coords == (-1.0, -1.0, -1.0)
        assert (v.beta, v.gamma) == (-1.0, -2.0)

    def test_planar_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = rng.uniform(-10, 10, 2)
            r = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1, 1)
            planar = lift(Circle((x, y), r))
            spatial = lift_sphere(NSphere((x, y), r))
            assert spatial.coords == (planar.xdot, planar.ydot)
            assert spatial.beta == planar.beta
            assert spatial.gamma == planar.gamma

    def test_zero_radius_rejected(self):
        with pytest.raises(ZeroRadius):
            lift_sphere(NSphere((0.0, 0.0, 0.0), 0.0))


# magnitudes up to 1e100 keep |c|^2 / r, the largest lifted component, finite
coordinate = st.floats(-1e100, 1e100)


@st.composite
def balls(draw):
    n = draw(st.integers(2, 8))
    center = tuple(draw(st.lists(coordinate, min_size=n, max_size=n)))
    magnitude = draw(st.floats(1e-100, 1e100))
    return Circle(center, draw(st.sampled_from([1.0, -1.0])) * magnitude)


def float64_bytes(values) -> bytes:
    return np.array(list(values), dtype=np.float64).tobytes()


@given(balls())
def test_lift_is_its_formula_bit_for_bit(ball):
    """One lift for every n: c_i/r, 1/r and (|c|^2 - r^2)/r with |c|^2 summed left to right."""
    c, r = ball.center, ball.radius
    s = 0.0
    for x in c:
        s += x * x
    got = float64_bytes(lift(ball))
    assert got == float64_bytes([*(x / r for x in c), 1.0 / r, (s - r * r) / r])
    if ball.dim == 2:  # the planar lift this one replaced
        x, y = c
        assert got == float64_bytes([x / r, y / r, 1.0 / r, (x * x + y * y - r * r) / r])


class TestVerifyGeneralizedN:
    def test_simplex_configuration(self):
        vectors = [lift_sphere(s) for s in canonical_simplex_config(3)]
        assert verify_generalized_n(vectors) < 1e-8

    def test_planar_consistency(self):
        rng = np.random.default_rng(5)
        circles = [
            Circle((rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.3, 3))
            for _ in range(4)
        ]
        planar = verify_generalized([lift(c) for c in circles])
        spatial = verify_generalized_n([lift_sphere(NSphere(c.center, c.radius)) for c in circles])
        assert spatial == pytest.approx(planar, rel=1e-6, abs=1e-12)

    def test_repeated_sphere_rejected(self):
        spheres = canonical_simplex_config(3)
        spheres[1] = spheres[0]
        with pytest.raises(DegenerateConfiguration):
            verify_generalized_n([lift_sphere(s) for s in spheres])

    def test_wrong_count_rejected(self):
        vectors = [lift_sphere(s) for s in canonical_simplex_config(3)]
        with pytest.raises(ValueError):
            verify_generalized_n(vectors[:4])


class TestSoddyGossetResidual:
    def test_planar_case_is_descartes(self):
        assert soddy_gosset_residual([-1, 2, 2, 3], 2) == 0.0
        assert soddy_gosset_residual([-1, 2, 2, 3], 2) == descartes_residual(-1, 2, 2, 3)

    def test_three_dimensional_root(self):
        # oracle: (4+d)^2 = 3(4+d^2) reduces to d^2 - 4d - 2 = 0
        d = max(np.roots([1.0, -4.0, -2.0]).real)
        assert d == pytest.approx(2 + math.sqrt(6), rel=1e-12)
        assert abs(soddy_gosset_residual([1, 1, 1, 1, d], 3)) <= 1e-12

    def test_five_unit_spheres(self):
        assert soddy_gosset_residual([1, 1, 1, 1, 1], 3) == 10.0

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            soddy_gosset_residual([1, 1, 1], 3)

    def test_low_dimension_rejected(self):
        with pytest.raises(BadDimension):
            soddy_gosset_residual([1, 1, 1], 1)

    # where the sums overflow, the residual is taken on the curvatures over a power of 2 and scaled back
    def test_overflowing_sums_of_a_tangent_quadruple(self):
        assert soddy_gosset_residual([-(2.0**520), 2.0**521, 2.0**521, 3.0 * 2.0**520], 2) == 0.0

    def test_residual_past_the_double_range_is_an_error(self):
        message = r"^the residual of curvatures \[1e\+200, 1e\+200, 1e\+200, 1e\+200\] is past the double range$"
        with pytest.raises(NonFiniteOutput, match=message):
            soddy_gosset_residual([1e200] * 4, 2)


class TestCanonicalSimplexConfig:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("outer", [False, True])
    def test_all_pairs_tangent(self, n, outer):
        spheres = canonical_simplex_config(n, outer=outer)
        assert len(spheres) == n + 2
        vectors = [lift_sphere(s) for s in spheres]
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert inner_sphere(vectors[i], vectors[j]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_curvatures_satisfy_soddy_gosset(self, n):
        for outer in (False, True):
            b = [1.0 / s.radius for s in canonical_simplex_config(n, outer=outer)]
            scale = sum(abs(x) for x in b) ** 2
            assert abs(soddy_gosset_residual(b, n)) <= 1e-9 * scale

    def test_planar_curvature_matches_fourth_circle_roots(self):
        hi, lo = solve_fourth_curvature(1, 1, 1)
        inner_cfg = canonical_simplex_config(2)
        outer_cfg = canonical_simplex_config(2, outer=True)
        assert 1.0 / inner_cfg[-1].radius == pytest.approx(hi, abs=1e-9)
        assert 1.0 / outer_cfg[-1].radius == pytest.approx(lo, abs=1e-9)

    def test_three_dimensional_central_curvature(self):
        cfg = canonical_simplex_config(3)
        assert 1.0 / cfg[-1].radius == pytest.approx(2 + math.sqrt(6), abs=1e-9)

    def test_vertices_form_regular_simplex(self):
        for n in range(2, 7):
            spheres = canonical_simplex_config(n)
            centers = [np.array(s.center) for s in spheres[:-1]]
            for i in range(len(centers)):
                for j in range(i + 1, len(centers)):
                    assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(2.0, abs=1e-12)
            assert np.linalg.norm(sum(centers)) <= 1e-12

    def test_low_dimension_rejected(self):
        with pytest.raises(BadDimension):
            canonical_simplex_config(1)

    @pytest.mark.parametrize("outer", [False, True])
    def test_vertices_match_the_numpy_helmert_construction_bit_for_bit(self, outer):
        for n in range(2, 41):
            spheres = canonical_simplex_config(n, outer)
            # tobytes tells -0.0 from 0.0
            assert np.array([s.center for s in spheres[:-1]]).tobytes() == helmert_simplex(n).tobytes()
            assert [s.radius for s in spheres[:-1]] == [1.0] * (n + 1)


def helmert_simplex(n: int) -> np.ndarray:
    """Vertices (n+1, n) of the regular n-simplex with edge 2, formed on numpy arrays as the reference."""
    h = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        scale = 1.0 / math.sqrt(k * (k + 1))
        h[k - 1, :k] = scale
        h[k - 1, k] = -k * scale
    return math.sqrt(2.0) * h.T


def test_all_tangent_gramian_has_closed_form_inverse():
    for n in range(2, 7):
        m = n + 2
        f = np.ones((m, m)) - 2.0 * np.eye(m)
        closed = np.ones((m, m)) / (2.0 * n) - np.eye(m) / 2.0
        assert np.allclose(f @ closed, np.eye(m), atol=1e-12)


def test_simplex_gramian_matches_all_tangent_form():
    vectors = [lift_sphere(s) for s in canonical_simplex_config(4)]
    f = gramian(vectors)
    assert np.allclose(f, np.ones((6, 6)) - 2.0 * np.eye(6), atol=1e-9)
