"""The canonical tangent configuration of n+2 spheres in n-space.

n+1 unit spheres sit at the vertices of a regular n-simplex and the
(n+2)-th is centered at its origin.  Balls of every dimension are
minkowski's Circle; their curvature relation (sum b)^2 = n * sum(b^2) is
descartes.soddy_gosset_residual.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadDimension
from .minkowski import Circle


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
    spheres = [Circle(tuple(v), 1.0) for v in verts.tolist()]
    spheres.append(Circle((0.0,) * n, central))
    return spheres
