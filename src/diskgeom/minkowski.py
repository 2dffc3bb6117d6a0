"""Minkowski-space model of balls in any dimension n >= 2; disks are n = 2.

A ball with center c in R^n and signed radius r (negative for the
unbounded outside of its sphere) lifts to the space-like (n+2)-vector
(c/r, 1/r, (|c|^2 - r^2)/r); halfplanes are the curvature-0 limit of that
map for n = 2.  Under the metric g (negative unit block on the reduced
coordinates, half-swap block on curvature/co-curvature) the product of two
lifted vectors equals the inversive product (d^2 - r1^2 - r2^2) / (2 r1 r2),
so tangency, intersection angles and the whole configuration calculus
become linear algebra on lifted vectors.  One ball type, one vector type
and one lift serve every n; the planar solvers read a vector's xdot/ydot,
which exist only for n = 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadDimension,
    DegenerateConfiguration,
    NonUnitNormal,
    NotNormalized,
    NotSpacelike,
    SingularMatrix,
    ZeroRadius,
)


@functools.cache
def _block_metric(n: int, swap: float) -> np.ndarray:
    if n < 2:
        raise BadDimension(f"dimension must be >= 2, got {n!r}")
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


MINKOWSKI_METRIC = minkowski_metric(2)
MINKOWSKI_METRIC_INV = minkowski_metric_inv(2)

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
    """Curvature-0 disk {p : normal . p <= offset} with unit normal."""

    normal: tuple[float, float]
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
        # every planar-only path reads the reduced center through xdot/ydot
        if len(self.coords) != 2:
            raise BadDimension(f"planar code needs a lifted disk (n = 2), got n = {len(self.coords)}")
        return self.coords[k]

    def as_array(self) -> np.ndarray:
        return np.array([*self.coords, self.beta, self.gamma])

    def __iter__(self):
        return iter((*self.coords, self.beta, self.gamma))


def lift(d: Disk) -> CircleVector:
    """Map a ball of any dimension n >= 2, or a halfplane, to its normalized (n+2)-vector."""
    if isinstance(d, Halfplane):
        nx, ny = d.normal
        norm = math.hypot(nx, ny)
        if not abs(norm - 1.0) <= _UNIT_NORMAL_TOL:
            raise NonUnitNormal(f"halfplane normal must be unit length, |n| = {norm!r}")
        # 0.0 - x coerces ints and flushes negative zeros
        return CircleVector(0.0 - nx, 0.0 - ny, 0.0, 0.0 - 2.0 * d.offset)
    if d.dim < 2:
        raise BadDimension(f"dimension must be >= 2, got {d.dim!r}")
    r = d.radius
    if r == 0.0 or not math.isfinite(r):
        raise ZeroRadius(f"radius must be finite and nonzero, got {r!r}")
    s = 0.0
    for c in d.center:  # left to right, so a disk gives x*x + y*y
        s += c * c
    return CircleVector(tuple(c / r for c in d.center), 1.0 / r, (s - r * r) / r)


def project(v: CircleVector) -> Disk:
    """Invert the lift; beta == 0 exactly maps back to a halfplane."""
    check_normalized(v)
    if v.beta != 0.0:
        r = 1.0 / v.beta
        return Circle((v.xdot * r, v.ydot * r), r)
    nx, ny, offset = halfplane_geometry(v)
    return Halfplane((nx, ny), offset)


def halfplane_geometry(v: CircleVector) -> tuple[float, float, float]:
    """Unit normal (nx, ny) and offset of a curvature-0 vector."""
    norm = math.hypot(v.xdot, v.ydot)
    return -v.xdot / norm, -v.ydot / norm, -0.5 * v.gamma / norm


def check_normalized(v: CircleVector, what: str = "") -> None:
    """Raise NotNormalized, its message led by what, unless |<v,v> + 1| <= NORM_TOL."""
    s = inner(v, v)
    if not abs(s + 1.0) <= NORM_TOL:
        raise NotNormalized(f"{what}<v,v> = {s!r}, expected -1 within {NORM_TOL!r}")


def normalize(components: Iterable[float]) -> CircleVector:
    """Scale a raw space-like (n+2)-vector, n >= 2, to self-product -1, preserving orientation."""
    xs = [float(c) for c in components]
    if len(xs) < 4:
        raise BadDimension(f"need n+2 >= 4 components, got {len(xs)}")
    v = CircleVector(*xs)
    s = inner(v, v)
    if not s < -_SPACELIKE_TOL:
        raise NotSpacelike(f"<v,v> = {s!r} is not negative")
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
    r1, r2 = d1.radius, d2.radius
    for r in (r1, r2):
        if r == 0.0 or not math.isfinite(r):
            raise ZeroRadius(f"radius must be finite and nonzero, got {r!r}")
    s = 0.0  # balls of different dimensions raise ValueError
    for a, b in zip(d1.center, d2.center, strict=True):
        s += (b - a) * (b - a)
    return (s - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)


def intersection_angle(d1: Disk, d2: Disk) -> float | None:
    """Angle between the boundary circles, or None when the disks miss each other."""
    p = inner_geometric(d1, d2)
    if abs(p) > 1.0:
        return None
    return math.acos(p)


def _lifted_rows(vectors: Sequence) -> np.ndarray:
    """(n+2, n+2) array whose rows are n+2 lifted vectors (coords, beta, gamma)."""
    if not vectors:
        raise ValueError("no vectors given")
    # np.array raises ValueError on vectors of different dimensions
    rows = np.array([v.as_array() for v in vectors], dtype=float)
    m, k = rows.shape
    if m != k:
        n = k - 2
        raise ValueError(f"need n+2 = {n + 2} vectors for n = {n}, got {m}")
    return rows


def _gramian_of_rows(rows: np.ndarray) -> np.ndarray:
    n = len(rows) - 2
    coords, beta, gamma = rows[:, :n], rows[:, n], rows[:, n + 1]
    # huge finite inputs may overflow to inf or nan here; invert_matrix
    # rejects a non-finite Gramian, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        bg = np.multiply.outer(beta, gamma)
        # bg + bg.T adds the same two products in either order, and numpy forms
        # a @ a.T as one symmetric rank-k update, so f is exactly symmetric
        return 0.5 * (bg + bg.T) - coords @ coords.T


def gramian(vectors: Sequence) -> np.ndarray:
    """Symmetric matrix of pairwise products of n+2 lifted vectors in n-space."""
    return _gramian_of_rows(_lifted_rows(vectors))


def invert_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse by partially pivoted elimination, gated on a scaled determinant.

    Non-finite entries raise SingularMatrix naming the first such entry.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    scale = float(np.abs(m).max())
    if not math.isfinite(scale):  # max propagates nan and keeps inf
        i, j = np.argwhere(~np.isfinite(m))[0].tolist()
        raise SingularMatrix(f"non-finite entry {float(m[i, j])!r} at ({i}, {j})")
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    # det(m / scale) = det(m) / scale^n, without overflowing scale^n
    det = float(np.linalg.det(m / scale))
    if abs(det) < _SINGULAR_GATE:
        raise SingularMatrix(
            f"determinant {det!r} of the matrix scaled by 1/{scale!r} is below {_SINGULAR_GATE!r}"
        )
    return np.linalg.inv(m)


def invert4(m: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 matrix; raises SingularMatrix at the determinant gate."""
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
    rows = _lifted_rows(vectors)
    f = _gramian_of_rows(rows)
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
