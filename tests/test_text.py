import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import diskgeom
from diskgeom._text import WIDTH, join_rows, repr_rows, text_rows


def assert_reprs(values):
    """Each row of repr_rows is repr(float(v)) followed by NULs only."""
    values = np.asarray(values, np.float64)
    want = [repr(v).encode().ljust(WIDTH, b"\0") for v in values.tolist()]
    assert [row.tobytes() for row in repr_rows(values)] == want


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_any_bit_pattern(patterns):
    assert_reprs(np.array(patterns, np.uint64).view(np.float64))


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_any_float(values):
    assert_reprs(values)


def test_powers_of_two():
    assert_reprs([2.0**e for e in range(-1074, 1024)] + [-(2.0**e) for e in range(-1074, 1024)])


def test_powers_of_ten():
    # the nearest double to each 10^k that does not underflow to zero or overflow
    assert_reprs([float(f"1e{k}") for k in range(-323, 309)] + [10.0**k for k in range(-323, 309)])


def test_neighbours_of_layout_switches():
    # repr switches to exponent form below 1e-4 and from 1e16 on
    values = []
    for edge in (1e-5, 1e-4, 1e15, 1e16):
        for direction in (-np.inf, np.inf):
            v = edge
            for _ in range(4):
                v = np.nextafter(v, direction)
                values.append(v)
        values.append(edge)
    assert_reprs(values + [-v for v in values])


def test_zeros_subnormals_and_extremes():
    tiny, big = np.finfo(np.float64).smallest_normal, np.finfo(np.float64).max
    edges = [0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0), big, np.nextafter(big, 0.0)]
    assert_reprs(edges + [-v for v in edges] + [np.inf, -np.inf, np.nan])


def test_strided_and_empty_input():
    columns = np.array([[0.5, -2.0, 1e300], [3.0, 1e-7, -0.0]])
    assert repr_rows(columns[:, 1])[1].tobytes() == b"1e-07".ljust(WIDTH, b"\0")
    assert repr_rows(np.empty(0)).shape == (0, WIDTH)


def test_join_rows_drops_padding():
    values = [0.25, -1e-9, 1e22]
    depths = text_rows(["7", "12", "148"])
    text = "".join(join_rows("<", depths, ",", repr_rows(values), ">\n"))
    assert text == "".join(f"<{d},{v!r}>\n" for d, v in zip((7, 12, 148), values))


def test_tables_are_built_on_first_use():
    # importing the CLI leaves the power and mask tables unbuilt, so set-up does not pay for them
    src = os.path.dirname(os.path.dirname(diskgeom.__file__))
    code = (
        "import diskgeom.cli, diskgeom._text as t; "
        "print(t._tables.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]
