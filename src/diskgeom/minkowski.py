"""Minkowski-space model of balls in any dimension n >= 2; disks are n = 2.

A ball with center c in R^n and signed radius r (negative for the
unbounded outside of its sphere) lifts to the space-like (n+2)-vector
(c/r, 1/r, (|c|^2 - r^2)/r); a halfspace is the curvature-0 limit of that
map, the ball of curvature 0 (the paper's Remark 1, in every n).  Under the
metric g (negative unit block on the reduced coordinates, half-swap block
on curvature/co-curvature) the product of two lifted vectors equals the
inversive product (d^2 - r1^2 - r2^2) / (2 r1 r2), so tangency,
intersection angles and the whole configuration calculus become linear
algebra on lifted vectors.  One ball type, one halfspace type, one vector
type, one lift and one projection serve every n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

# numpy is imported in the functions that use it: lift, project and the solvers start without it
from .errors import (
    BadDimension,
    DegenerateConfiguration,
    NonFiniteOutput,
    NonUnitNormal,
    NotNormalized,
    NotSpacelike,
    SingularMatrix,
    ZeroRadius,
)


@functools.lru_cache(maxsize=None, typed=True)  # typed: 3.0 == 3 must not reach the cached matrix of 3
def _block_metric(n: int, swap: float) -> np.ndarray:
    import numpy as np
    check_dimension(n)
    g = np.diag([-1.0] * n + [0.0, 0.0])
    g[n, n + 1] = g[n + 1, n] = swap
    # cached and shared by every caller, so nobody may write to it
    g.setflags(write=False)
    return g


def minkowski_metric(n: int) -> np.ndarray:
    """Read-only (n+2)x(n+2) metric: -identity block plus the half-swap curvature block."""
    return _block_metric(n, 0.5)


def minkowski_metric_inv(n: int) -> np.ndarray:
    """Read-only exact inverse of minkowski_metric(n)."""
    return _block_metric(n, 2.0)


# every gate is written "not x <= bound", so that a nan fails it
_UNIT_NORMAL_TOL = 1e-12
NORM_TOL = 1e-6  # |<v,v> + 1| of a normalized vector, for project and Quadruple.validate
_SPACELIKE_TOL = 1e-12
_SINGULAR_GATE = 1e-12


@dataclass(frozen=True)
class Circle:
    """Ball in n-space, a disk for n = 2; radius < 0 marks the unbounded complement."""

    center: tuple[float, ...]
    radius: float

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Halfplane:
    """Curvature-0 ball {p : normal . p <= offset} with unit normal in n-space, a halfplane for n = 2."""

    normal: tuple[float, ...]
    offset: float


Disk = Circle | Halfplane


@dataclass(frozen=True, init=False)
class CircleVector:
    """Lifted ball: reduced center coords, curvature beta, co-curvature gamma.

    Built from its components, CircleVector(xdot, ydot, beta, gamma) for a
    disk, or as CircleVector(coords, beta, gamma) for any n.
    """

    coords: tuple[float, ...]
    beta: float
    gamma: float

    def __init__(self, *components) -> None:
        *coords, beta, gamma = components
        if len(coords) == 1:  # CircleVector(coords, beta, gamma)
            (coords,) = coords
        object.__setattr__(self, "coords", tuple(coords))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def dim(self) -> int:
        return len(self.coords)

    xdot = property(lambda self: self._planar(0))
    ydot = property(lambda self: self._planar(1))

    def _planar(self, k: int) -> float:
        # the planar names of coords[0] and coords[1]; no code of the package reads them
        if len(self.coords) != 2:
            raise BadDimension(f"planar code needs a lifted disk (n = 2), got n = {len(self.coords)}")
        return self.coords[k]

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([*self.coords, self.beta, self.gamma])

    def __iter__(self):
        return iter((*self.coords, self.beta, self.gamma))


def lift(d: Disk) -> CircleVector:
    """Map a ball or a halfspace of any dimension n >= 2 to its normalized (n+2)-vector."""
    if isinstance(d, Halfplane):
        check_dimension(len(d.normal))
        norm = math.hypot(*d.normal)
        if not abs(norm - 1.0) <= _UNIT_NORMAL_TOL:
            raise NonUnitNormal(f"halfplane normal must be unit length, |n| = {norm!r}")
        check_finite((d.offset,), "offset")
        # 0.0 - x coerces ints and flushes negative zeros
        return CircleVector(tuple(0.0 - x for x in d.normal), 0.0, 0.0 - 2.0 * d.offset)
    check_dimension(d.dim)
    r = _radius(d)
    if not math.isfinite(1.0 / r):  # a subnormal radius; inner_geometric takes it, as it needs no curvature
        raise ZeroRadius(f"radius {r!r} is too small: its curvature 1/r is past the double range")
    s = 0.0
    for c in d.center:  # left to right, so a disk gives x*x + y*y
        s += c * c
    if not math.isfinite(s):  # an overflow, or a nan or inf coordinate
        check_finite(d.center, "center")
    gamma = (s - r * r) / r
    if math.isinf(gamma) and math.inf in (abs(c / r) for c in d.center):  # |c/r| > max makes gamma overflow too
        raise ZeroRadius(f"radius {r!r} is too small for center {d.center!r}: c/r is past the double range")
    return CircleVector(tuple(c / r for c in d.center), 1.0 / r, gamma)


def _radius(d: Circle) -> float:
    if d.radius == 0.0 or not math.isfinite(d.radius):
        raise ZeroRadius(f"radius must be finite and nonzero, got {d.radius!r}")
    return d.radius


def power_unit(values: Iterable[float]) -> float:
    """The power of 2 that brings the largest |value| into [1, 2); dividing by it is exact unless tiny."""
    return 2.0 ** (math.frexp(max(map(abs, values)))[1] - 1)


def check_finite(values: Iterable[float], what: str) -> None:
    """Raise ValueError naming the first of values that is not finite."""
    for x in values:
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x!r}")


def project(v: CircleVector) -> Disk:
    """Invert the lift in any n >= 2; beta == 0 exactly maps back to a halfspace."""
    check_dimension(v.dim)
    check_normalized(v)
    if v.beta != 0.0:
        r = 1.0 / v.beta
        return Circle(tuple([c * r for c in v.coords]), r)
    *normal, offset = halfplane_geometry(v)
    return Halfplane(tuple(normal), offset)


def halfplane_geometry(v: CircleVector) -> tuple[float, ...]:
    """(n_1, ..., n_n, offset): the unit normal and offset of a curvature-0 vector."""
    norm = math.hypot(*v.coords)
    return (*(-c / norm for c in v.coords), -0.5 * v.gamma / norm)


def check_normalized(v: CircleVector, what: str = "") -> None:
    """Raise NotNormalized, its message led by what, unless |<v,v> + 1| <= NORM_TOL."""
    s = inner(v, v)
    if not abs(s + 1.0) <= NORM_TOL:
        raise NotNormalized(f"{what}<v,v> = {s!r}, expected -1 within {NORM_TOL!r}")


def check_dimension(n: int) -> None:
    """Raise BadDimension unless n is an integer >= 2; bools are refused, numpy integers accepted."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__") or n < 2:  # __index__ marks an integer
        raise BadDimension(f"dimension must be >= 2, got {n!r}")


def normalize(components: Iterable[float]) -> CircleVector:
    """Scale a raw space-like (n+2)-vector, n >= 2, to self-product -1, preserving orientation."""
    xs = [float(c) for c in components]
    if len(xs) < 4:
        raise BadDimension(f"need n+2 >= 4 components, got {len(xs)}")
    v = CircleVector(*xs)
    s = inner(v, v)
    if not math.isfinite(s) and all(map(math.isfinite, xs)):  # an overflow: normalize the scaled components
        unit = power_unit(xs)
        return normalize([x / unit for x in xs])
    if not s < -_SPACELIKE_TOL:
        raise NotSpacelike(f"<v,v> = {s!r} is {'not a number' if math.isnan(s) else 'not negative'}")
    if s == -math.inf:  # an infinite component, which would scale to nan
        check_finite(xs, "component")
    scale = 1.0 / math.sqrt(-s)
    return CircleVector(*[x * scale for x in xs])


def inner(u, v) -> float:
    """Minkowski product of two lifted vectors (coords, beta, gamma) of any n.

    Vectors of different dimensions raise ValueError.
    """
    s = -0.0  # -0.0 - a*b is exactly -(a*b), signed zeros included
    for a, b in zip(u.coords, v.coords, strict=True):
        s -= a * b
    return s + 0.5 * (u.beta * v.gamma + v.beta * u.gamma)


def inner_geometric(d1: Disk, d2: Disk) -> float:
    """Inversive product from center distance and signed radii.

    Halfplane arguments fall back to the Minkowski product of the lifts,
    where the curvature-0 limit is well defined.
    """
    if isinstance(d1, Halfplane) or isinstance(d2, Halfplane):
        return inner(lift(d1), lift(d2))
    r1, r2 = _radius(d1), _radius(d2)
    xs = [b - a for a, b in zip(d1.center, d2.center, strict=True)]  # balls of different dimensions raise ValueError
    if not all(map(math.isfinite, xs)):  # a nan or inf coordinate, or a difference past the double range
        check_finite((*d1.center, *d2.center), "center")
        raise NonFiniteOutput(f"centers {d1.center!r} and {d2.center!r} are further apart than the double range")
    # degree 0 in the lengths: a unit near sqrt|r1*r2| keeps 2*r1*r2 normal, >= 2^-500 of the largest squares finite
    unit = power_unit((math.sqrt(abs(r1)) * math.sqrt(abs(r2)), 2.0**-500 * max(map(abs, (r1, r2, *xs)))))
    r1, r2, s = r1 / unit, r2 / unit, 0.0
    for x in xs:
        s += (x / unit) * (x / unit)
    n, p = s - r1 * r1 - r2 * r2, 2.0 * r1 * r2  # p == 0: the product is past the range, or below it if n == 0
    return n / p if p else (math.copysign(math.inf, n * p) if n else -p)


def intersection_angle(d1: Disk, d2: Disk) -> float | None:
    """Angle between the boundary circles, or None when the disks miss each other."""
    p = inner_geometric(d1, d2)
    return math.acos(p) if abs(p) <= 1.0 else None  # a nan product misses too


def _rows_and_gramian(vectors: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """(n+2, n+2) array whose rows are n+2 lifted vectors (coords, beta, gamma), and their Gramian."""
    import numpy as np
    if not vectors:
        raise ValueError("no vectors given")
    # np.array raises ValueError on vectors of different dimensions
    rows = np.array([tuple(v) for v in vectors], dtype=float)
    m, k = rows.shape
    n = k - 2
    if m != k:
        raise ValueError(f"need n+2 = {n + 2} vectors for n = {n}, got {m}")
    coords, beta, gamma = rows[:, :n], rows[:, n], rows[:, n + 1]
    # huge finite inputs may overflow to inf or nan here; invert_matrix
    # rejects a non-finite Gramian, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        bg = np.multiply.outer(beta, gamma)
        # bg + bg.T adds the same two products in either order, and numpy forms
        # a @ a.T as one symmetric rank-k update, so f is exactly symmetric
        return rows, 0.5 * (bg + bg.T) - coords @ coords.T


def gramian(vectors: Sequence) -> np.ndarray:
    """Symmetric matrix of pairwise products of n+2 lifted vectors in n-space."""
    return _rows_and_gramian(vectors)[1]


def invert_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse by partially pivoted elimination, gated on a scaled determinant.

    Non-finite entries raise SingularMatrix naming the first such entry.
    """
    import numpy as np
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    scale = float(np.abs(m).max())
    if not math.isfinite(scale):  # max propagates nan and keeps inf
        i, j = np.argwhere(~np.isfinite(m))[0].tolist()
        raise SingularMatrix(f"non-finite entry {float(m[i, j])!r} at ({i}, {j})")
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    # det(m / scale) = det(m) / scale^n, without overflowing scale^n; the gate, not a warning, reports a 0 pivot
    with np.errstate(divide="ignore"):
        det = float(np.linalg.det(m / scale))
    if abs(det) < _SINGULAR_GATE:
        raise SingularMatrix(
            f"determinant {det!r} of the matrix scaled by 1/{scale!r} is below {_SINGULAR_GATE!r}"
        )
    return np.linalg.inv(m)


def invert4(m: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 matrix; raises SingularMatrix at the determinant gate."""
    import numpy as np
    if np.shape(m) != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {np.shape(m)}")
    return invert_matrix(m)


def configuration_identity(vectors: Sequence) -> tuple[np.ndarray, np.ndarray, float]:
    """Gramian f, its inverse and the max-abs residual of D f^-1 D^T = G.

    D holds the n+2 lifted vectors as columns.  For any configuration with
    invertible Gramian the product reconstructs the inverse metric exactly,
    so the residual measures only numerical noise and input inconsistency.
    Raises SingularMatrix at the inversion gate.
    """
    import numpy as np
    rows, f = _rows_and_gramian(vectors)
    finv = invert_matrix(f)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as an inf/nan residual
        resid = rows.T @ finv @ rows - minkowski_metric_inv(len(f) - 2)
    return f, finv, float(np.abs(resid).max())


def verify_generalized(vectors: Sequence) -> float:
    """Residual of configuration_identity; a singular Gramian is a DegenerateConfiguration."""
    try:
        return configuration_identity(vectors)[2]
    except SingularMatrix as exc:
        raise DegenerateConfiguration(str(exc)) from exc
