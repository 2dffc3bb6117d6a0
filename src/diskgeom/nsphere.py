"""The canonical tangent configuration of n+2 spheres in n-space.

n+1 unit spheres sit at the vertices of a regular n-simplex and the
(n+2)-th is centered at its origin.  Balls of every dimension are
minkowski's Circle; their curvature relation (sum b)^2 = n * sum(b^2) is
descartes.soddy_gosset_residual.
"""

from __future__ import annotations

import math

from .minkowski import Circle, check_dimension


def canonical_simplex_config(n: int, outer: bool = False) -> list[Circle]:
    """n+1 unit spheres at simplex vertices plus the central tangent sphere.

    The central sphere has radius R-1 (inscribed) or -(R+1) (enclosing)
    where R = sqrt(2n/(n+1)) is the circumradius; all pairs end up
    externally tangent.
    """
    check_dimension(n)
    circumradius = math.sqrt(2.0 * n / (n + 1.0))
    central = -(circumradius + 1.0) if outer else circumradius - 1.0
    # the regular n-simplex with edge 2: vertex i is sqrt(2) e_i of R^(n+1) in coordinates of the
    # Helmert orthonormal basis k = 1..n of the sum-zero subspace, which also centers it at the origin
    root2, scales = math.sqrt(2.0), [1.0 / math.sqrt(k * (k + 1)) for k in range(1, n + 1)]
    spheres = [
        Circle(tuple(root2 * (s if i < k else -k * s if i == k else 0.0) for k, s in enumerate(scales, 1)), 1.0)
        for i in range(n + 1)
    ]
    spheres.append(Circle((0.0,) * n, central))
    return spheres
