"""Tangent-sphere identities in arbitrary dimension.

(n-1)-spheres in n-space lift to space-like unit vectors in an
(n+2)-dimensional Minkowski space exactly as planar disks do for n = 2, so
the ball type, the lifted vector, the lift, the product, the Gramian and
the configuration identity are minkowski's; the n-dimensional names below
are aliases of them.  The all-tangent Gramian (diagonal -1, off-diagonal 1)
has inverse J/(2n) - I/2, and the vanishing curvature-curvature entry of
the inverse metric turns that into the curvature identity
(sum b)^2 = n * sum(b^2).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import BadDimension
from .minkowski import Circle, CircleVector, gramian, inner, lift, verify_generalized

# the n-dimensional names of the shared kernel
NSphere = Circle
NVector = CircleVector
lift_sphere = lift
inner_sphere = inner
gramian_n = gramian
verify_generalized_n = verify_generalized


def soddy_gosset_residual(curvatures: Sequence[float], n: int) -> float:
    """(sum b)^2 - n * sum(b^2) over n+2 curvatures; zero on tangent configurations."""
    if n < 2:
        raise BadDimension(f"dimension must be >= 2, got {n!r}")
    bs = [float(b) for b in curvatures]
    if len(bs) != n + 2:
        raise ValueError(f"need n+2 = {n + 2} curvatures for n = {n}, got {len(bs)}")
    s = q = 0.0
    for b in bs:  # left to right: the sum of Python 3.12 and later compensates, so its bits differ
        s += b
        q += b * b
    return s * s - n * q


def _simplex_vertices(n: int) -> np.ndarray:
    """Vertices of the regular n-simplex with edge 2 centered at the origin.

    Scaled standard basis vectors of R^(n+1) mapped isometrically onto the
    sum-zero subspace through the Helmert orthonormal basis.
    """
    h = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        scale = 1.0 / math.sqrt(k * (k + 1))
        h[k - 1, :k] = scale
        h[k - 1, k] = -k * scale
    return math.sqrt(2.0) * h.T


def canonical_simplex_config(n: int, outer: bool = False) -> list[Circle]:
    """n+1 unit spheres at simplex vertices plus the central tangent sphere.

    The central sphere has radius R-1 (inscribed) or -(R+1) (enclosing)
    where R = sqrt(2n/(n+1)) is the circumradius; all pairs end up
    externally tangent.
    """
    if n < 2:
        raise BadDimension(f"dimension must be >= 2, got {n!r}")
    verts = _simplex_vertices(n)
    circumradius = math.sqrt(2.0 * n / (n + 1.0))
    central = -(circumradius + 1.0) if outer else circumradius - 1.0
    spheres = [Circle(tuple(float(x) for x in v), 1.0) for v in verts]
    spheres.append(Circle((0.0,) * n, central))
    return spheres
