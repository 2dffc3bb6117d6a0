"""Every public function returns or raises the package's own errors, and warns nothing.

The arguments mix extreme doubles (subnormals, values near the overflow
threshold) with ordinary ones.  A ValueError is the library's invalid
argument, as in the CLI; an ArithmeticError, a numpy warning or any other
exception fails the property.
"""

import math
import re
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import diskgeom
from diskgeom import (
    Circle,
    CircleVector,
    DiskGeomError,
    GenerationLimits,
    Halfplane,
    Quadruple,
    canonical_quadruple,
    generate,
    render_svg,
)
from diskgeom.gasket import csv_chunks

EXTREMES = [s * v for v in (5e-324, 1e-310, 1e-160, 1e155, 1e300, 1.7976931348623157e308) for s in (1.0, -1.0)]
FLOATS = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
)
CIRCLES = st.builds(Circle, st.tuples(FLOATS, FLOATS), FLOATS)
UNIT_NORMALS = st.floats(0.0, 2.0 * math.pi).map(lambda t: (math.cos(t), math.sin(t)))
DISKS = st.one_of(CIRCLES, st.builds(Halfplane, st.one_of(UNIT_NORMALS, st.tuples(FLOATS, FLOATS)), FLOATS))
RAW_VECTORS = st.builds(CircleVector, FLOATS, FLOATS, FLOATS, FLOATS)
SEEDS = st.lists(FLOATS, min_size=3, max_size=4)


@st.composite
def quadruple_vectors(draw) -> tuple[CircleVector, ...]:
    """The four vectors that canonical_quadruple places for drawn curvatures, or else four raw vectors."""
    try:
        return canonical_quadruple(draw(SEEDS)).vectors
    except (DiskGeomError, ValueError):
        return tuple(draw(RAW_VECTORS) for _ in range(4))


# lift raises for no finite circle of nonzero radius and no halfplane of unit normal
LIFTABLE = st.one_of(CIRCLES.filter(lambda c: c.radius != 0.0), st.builds(Halfplane, UNIT_NORMALS, FLOATS))
VECTORS = st.one_of(RAW_VECTORS, LIFTABLE.map(diskgeom.lift))
LIMITS = st.builds(
    GenerationLimits,
    max_depth=st.integers(0, 3),
    max_curvature=st.one_of(st.none(), st.floats(min_value=5e-324, max_value=1.7976931348623157e308)),
    max_count=st.one_of(st.none(), st.integers(4, 60)),
)

# the arguments of each public function; render_svg and csv_chunks have a test of their own below
CALLS = {
    "lift": st.tuples(DISKS),
    "project": st.tuples(VECTORS),
    "inner_geometric": st.tuples(DISKS, DISKS),
    "intersection_angle": st.tuples(DISKS, DISKS),
    "normalize": st.tuples(st.lists(FLOATS, min_size=4, max_size=6)),
    "solve_fourth_curvature": st.tuples(FLOATS, FLOATS, FLOATS),
    "solve_fourth_disk": st.one_of(st.tuples(VECTORS, VECTORS, VECTORS), quadruple_vectors().map(lambda q: q[:3])),
    "tangent_disk_with_curvature": st.tuples(quadruple_vectors().map(lambda q: q[0]), VECTORS, FLOATS)
    | quadruple_vectors().flatmap(lambda q: st.tuples(st.just(q[0]), st.just(q[1]), FLOATS)),
    "canonical_quadruple": st.tuples(SEEDS),
    "generate": st.tuples(quadruple_vectors().map(Quadruple), LIMITS),
    "verify_generalized": st.tuples(st.one_of(quadruple_vectors(), st.lists(VECTORS, min_size=3, max_size=5))),
    "invert_matrix": st.tuples(st.lists(st.lists(FLOATS, min_size=4, max_size=4), min_size=4, max_size=4)),
    "soddy_gosset_residual": st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.lists(FLOATS, min_size=n + 2, max_size=n + 2), st.just(n))
    ),
}


def _call(f, *args):
    """f(*args), or None when it raises the package's own error; every warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f(*args)
        except (DiskGeomError, ValueError):
            return None


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_public_function_raises_only_its_own_errors(name, data):
    _call(getattr(diskgeom, name), *data.draw(CALLS[name]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, st.integers(0, 3), st.booleans())
@example([7.229512648309836, -5e-324, 2.848878310662481e-145], 1, False)  # a subnormal curvature
@example([1.7, -5.9e-309, 6.0], 1, False)  # a finite circle that reaches past the double range
@example([0.0, -2.2250738585072014e-308, 0.5], 0, False)  # a halfplane line longer than the double range
def test_gasket_text_is_finite(seed, depth, fill_by_depth):
    quad = _call(canonical_quadruple, seed)
    gasket = quad and _call(generate, quad, GenerationLimits(max_depth=depth))
    if gasket is None:
        return
    for text in (_call(render_svg, gasket, fill_by_depth), _call(lambda g: "".join(csv_chunks(g)), gasket)):
        assert text is None or not re.search(r"\b(inf|nan)\b", text)
