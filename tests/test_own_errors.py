"""Every public function returns or raises the package's own errors, and warns nothing.

The arguments mix extreme doubles (subnormals, values near the overflow
threshold) with ordinary ones.  A ValueError is the library's invalid
argument, as in the CLI; an ArithmeticError, a numpy warning or any other
exception fails the property.  A second property puts inf, -inf or nan
among ordinary doubles: the call must then raise, or return only finite
doubles.
"""

import dataclasses
import math
import re
import warnings
from collections.abc import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
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
# doubles whose sums and products stay far from overflow and underflow, so that
# only a non-finite argument can make a non-finite result
ORDINARY = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, -1.0]), st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)
)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
UNIT_NORMALS = st.floats(0.0, 2.0 * math.pi).map(lambda t: (math.cos(t), math.sin(t)))
LIMITS = st.builds(
    GenerationLimits,
    max_depth=st.integers(0, 3),
    max_curvature=st.one_of(st.none(), st.floats(min_value=5e-324, max_value=1.7976931348623157e308)),
    max_count=st.one_of(st.none(), st.integers(4, 60)),
)


@st.composite
def quadruple_vectors(draw, seeds, raw_vectors) -> tuple[CircleVector, ...]:
    """The four vectors that canonical_quadruple places for drawn curvatures, or else four raw vectors."""
    try:
        return canonical_quadruple(draw(seeds)).vectors
    except (DiskGeomError, ValueError):
        return tuple(draw(raw_vectors) for _ in range(4))


def calls(floats, lifted) -> dict:
    """The arguments of each public function, their doubles drawn from floats; lifted vectors from lifted.

    render_svg and csv_chunks have a test of their own below.
    """
    circles = st.builds(Circle, st.tuples(floats, floats), floats)
    disks = st.one_of(circles, st.builds(Halfplane, st.one_of(UNIT_NORMALS, st.tuples(floats, floats)), floats))
    raw_vectors = st.builds(CircleVector, floats, floats, floats, floats)
    seeds = st.lists(floats, min_size=3, max_size=4)
    # lift raises for no finite circle whose curvature 1/r and reduced center c/r are finite,
    # and for no halfplane of unit normal
    liftable = st.one_of(
        st.builds(Circle, st.tuples(lifted, lifted), lifted).filter(
            lambda c: c.radius != 0.0 and all(map(math.isfinite, (1.0 / c.radius, *(x / c.radius for x in c.center))))
        ),
        st.builds(Halfplane, UNIT_NORMALS, lifted),
    )
    vectors = st.one_of(raw_vectors, liftable.map(diskgeom.lift))
    quadruples = quadruple_vectors(seeds, raw_vectors)
    return {
        "lift": st.tuples(disks),
        "project": st.tuples(vectors),
        "inner_geometric": st.tuples(disks, disks),
        "intersection_angle": st.tuples(disks, disks),
        "normalize": st.tuples(st.lists(floats, min_size=4, max_size=6)),
        "solve_fourth_curvature": st.tuples(floats, floats, floats),
        "solve_fourth_disk": st.one_of(st.tuples(vectors, vectors, vectors), quadruples.map(lambda q: q[:3])),
        "tangent_disk_with_curvature": st.tuples(quadruples.map(lambda q: q[0]), vectors, floats)
        | quadruples.flatmap(lambda q: st.tuples(st.just(q[0]), st.just(q[1]), floats)),
        "canonical_quadruple": st.tuples(seeds),
        "generate": st.tuples(quadruples.map(Quadruple), LIMITS),
        "verify_generalized": st.tuples(st.one_of(quadruples, st.lists(vectors, min_size=3, max_size=5))),
        "invert_matrix": st.tuples(st.lists(st.lists(floats, min_size=4, max_size=4), min_size=4, max_size=4)),
        "soddy_gosset_residual": st.integers(2, 4).flatmap(
            lambda n: st.tuples(st.lists(floats, min_size=n + 2, max_size=n + 2), st.just(n))
        ),
    }


CALLS = calls(FLOATS, FLOATS)
# a non-finite double among ordinary ones; lifted vectors stay finite, as lift refuses the rest
NON_FINITE_CALLS = calls(st.one_of(NON_FINITE, ORDINARY), ORDINARY)
# project takes one vector, which the property keeps only when it holds a non-finite double:
# a raw vector with one at a drawn slot
NON_FINITE_CALLS["project"] = st.tuples(
    st.builds(
        lambda xs, k, bad: CircleVector(*xs[:k], bad, *xs[k + 1 :]),
        st.lists(st.one_of(NON_FINITE, ORDINARY), min_size=4, max_size=4),
        st.integers(0, 3),
        NON_FINITE,
    )
)
SEEDS = st.lists(FLOATS, min_size=3, max_size=4)


def _doubles(obj) -> Iterator[float]:
    """Every float in obj, looking into arrays, tuples, lists, sequences and dataclasses."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, np.ndarray):
        yield from obj.astype(float).ravel().tolist()
    elif isinstance(obj, Sequence):  # no public function takes or returns a str
        for item in obj:
            yield from _doubles(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _doubles(getattr(obj, field.name))


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


@pytest.mark.parametrize("name", NON_FINITE_CALLS)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_non_finite_argument_raises_or_gives_finite_doubles(name, data):
    args = data.draw(NON_FINITE_CALLS[name])
    assume(not all(map(math.isfinite, _doubles(args))))
    result = _call(getattr(diskgeom, name), *args)
    assert all(map(math.isfinite, _doubles(result))), result


@pytest.mark.parametrize(
    "name, args, message",
    [
        # <v,v> = -inf passes the space-like gate, and inf * 0 would make a nan component
        ("normalize", ([math.inf, 0.0, 1.0, 0.0],), "component must be finite, got inf"),
        # ab+bc+ca = inf passes the real-root gate, and inf - inf would make a nan root
        ("solve_fourth_curvature", (math.inf, 1.0, 1.0), "curvature must be finite, got inf"),
        # (sum b)^2 - n * sum(b^2) would be inf - inf
        ("soddy_gosset_residual", ([math.inf, 1.0, 1.0, 1.0], 2), "curvature must be finite, got inf"),
    ],
)
def test_infinite_argument_is_named(name, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(diskgeom, name)(*args)


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
