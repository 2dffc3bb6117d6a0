"""Solvers for mutually tangent disk configurations.

External tangency of two disks means their lifted vectors have product 1,
so a disk tangent to three given ones solves three linear constraints plus
the quadratic normalization <X,X> = -1.  The two roots of that system are
swapped by the reflection c -> 2(sum of the other three) - c, the step that
grows Apollonian gaskets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ComplexRoots,
    DegenerateTriple,
    InvalidIndex,
    NotTangent,
)
from .minkowski import CircleVector, check_normalized, inner, normalize
from .nsphere import soddy_gosset_residual

# every gate is written "not x <= bound", so that a nan fails it
_RANK_TOL = 1e-10
_PAIRS_TOL = 1e-12
TANGENT_TOL = 1e-6  # |<u,v> - 1| of a tangent pair, for validate, solve_fourth_disk and solve4


@dataclass(frozen=True)
class Quadruple:
    """Four mutually tangent circle vectors."""

    vectors: tuple[CircleVector, CircleVector, CircleVector, CircleVector]

    @property
    def curvatures(self) -> tuple[float, float, float, float]:
        return tuple(v.beta for v in self.vectors)

    def validate(self) -> None:
        """Check normalization of each member and pairwise tangency."""
        if len(self.vectors) != 4:
            raise ValueError(f"expected 4 vectors, got {len(self.vectors)}")
        for k, v in enumerate(self.vectors):
            check_normalized(v, f"vector {k} {tuple(v)!r} has ")
        _check_tangent(self.vectors, TANGENT_TOL)


def descartes_residual(a: float, b: float, c: float, d: float) -> float:
    """(a+b+c+d)^2 - 2(a^2+b^2+c^2+d^2), the Soddy-Gosset residual at n = 2; zero on tangent quadruples."""
    return soddy_gosset_residual((a, b, c, d), 2)


def solve_fourth_curvature(a: float, b: float, c: float) -> tuple[float, float]:
    """Both curvatures completing a tangent triple, larger root first.

    The larger-magnitude root is computed directly and the other from the
    product of roots, so nearly cancelling sums do not lose precision.
    """
    pairs = a * b + b * c + c * a
    if not pairs >= -_PAIRS_TOL:
        raise ComplexRoots(f"ab+bc+ca = {pairs!r} is negative, no real fourth curvature")
    root = 2.0 * math.sqrt(max(pairs, 0.0))
    s = a + b + c
    if s >= 0.0:
        hi = s + root
        lo = (s * s - root * root) / hi if hi != 0.0 else 0.0
    else:
        lo = s - root
        hi = (s * s - root * root) / lo
    return hi, lo


def tangency_residual(vectors: Sequence[CircleVector]) -> float:
    """Max deviation of pairwise products from 1 over distinct pairs."""
    return worst_tangency(vectors)[0]


def worst_tangency(vectors: Sequence[CircleVector]) -> tuple[float, tuple[int, int]]:
    """Largest |<u,v> - 1| over distinct pairs, and the first pair that attains it; nan is the largest."""
    if len(vectors) not in (3, 4):
        raise ValueError(f"expected 3 or 4 vectors, got {len(vectors)}")
    worst, pair = 0.0, (0, 1)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            r = abs(inner(vectors[i], vectors[j]) - 1.0)
            if math.isnan(r):  # no pair is worse
                return r, (i, j)
            if r > worst:
                worst, pair = r, (i, j)
    return worst, pair


def _check_tangent(vectors: Sequence[CircleVector], tol: float) -> None:
    """Raise NotTangent naming the worst pair when its residual exceeds tol."""
    worst, (i, j) = worst_tangency(vectors)
    if not worst <= tol:
        raise NotTangent(f"disks {i} and {j} are not tangent, residual {worst!r} exceeds {tol!r}")


def _solution_line(rows: list[list[float]], rhs: list[float]) -> tuple[list[float], list[float]]:
    """Particular point and null direction of the 3x4 system rows @ x = rhs.

    Gaussian elimination with full pivoting over rows and columns; a pivot
    ratio below _RANK_TOL marks the constraints as rank deficient.  Runs on
    Python floats: each step rounds as the same numpy float64 step would.
    """
    a = [[*row, h] for row, h in zip(rows, rhs)]
    pivot_cols: list[int] = []
    free_cols = [0, 1, 2, 3]
    for k in range(3):
        best_val = -1.0
        best = (k, free_cols[0])
        for i in range(k, 3):
            row = a[i]
            for j in free_cols:
                v = abs(row[j])
                if v > best_val:
                    best_val = v
                    best = (i, j)
        i, j = best
        if not best_val > 0.0:
            raise DegenerateTriple("tangency constraints are rank deficient")
        a[k], a[i] = a[i], a[k]
        pivot_row = a[k]
        for i2 in range(k + 1, 3):
            factor = a[i2][j] / pivot_row[j]
            a[i2] = [x - factor * y for x, y in zip(a[i2], pivot_row)]
            a[i2][j] = 0.0
        pivot_cols.append(j)
        free_cols.remove(j)
    pivots = [abs(a[k][c]) for k, c in enumerate(pivot_cols)]
    if not min(pivots) >= _RANK_TOL * max(pivots):
        raise DegenerateTriple(
            f"pivot ratio {min(pivots) / max(pivots):.3e} below rank tolerance {_RANK_TOL!r}"
        )
    free_col = free_cols[0]

    def back(use_rhs: bool, free_val: float) -> list[float]:
        x = [0.0] * 4
        x[free_col] = free_val
        for k in (2, 1, 0):
            c = pivot_cols[k]
            row = a[k]
            s = row[4] if use_rhs else 0.0
            for j in range(4):
                if j != c:
                    s -= row[j] * x[j]
            x[c] = s / row[c]
        return x

    return back(True, 0.0), back(False, 1.0)


def _root_order(v: CircleVector) -> tuple[float, float, float, float]:
    # larger curvature first; remaining components break exact ties
    return (-v.beta, -v.xdot, -v.ydot, -v.gamma)


def _roots_on_line(point: list[float], direction: list[float]) -> tuple[CircleVector, CircleVector]:
    """Intersect the affine line point + t*direction with <X,X> = -1."""
    p, d = CircleVector(*point), CircleVector(*direction)
    alpha = inner(d, d)
    if alpha == 0.0:
        raise DegenerateTriple("solution line is light-like")
    b = inner(p, d)
    c0 = inner(p, p) + 1.0
    disc = b * b - alpha * c0
    gate = 1e-12 * max(1.0, b * b, abs(alpha * c0))
    if not disc >= -gate:
        raise ComplexRoots(f"discriminant {disc!r} is negative")
    sq = math.sqrt(max(disc, 0.0))
    q = -(b + math.copysign(sq, b))
    if q != 0.0:
        t1, t2 = q / alpha, c0 / q
    else:
        t1 = t2 = 0.0
    roots = sorted(
        (
            normalize([x + t1 * y for x, y in zip(point, direction)]),
            normalize([x + t2 * y for x, y in zip(point, direction)]),
        ),
        key=_root_order,
    )
    return roots[0], roots[1]


def _tangency_row(v: CircleVector) -> list[float]:
    """Coefficients of x -> <v, x>, the row MINKOWSKI_METRIC @ v with its signed zeros."""
    return [0.0 - v.xdot, 0.0 - v.ydot, 0.5 * v.gamma + 0.0, 0.5 * v.beta + 0.0]


def solve_fourth_disk(
    c1: CircleVector, c2: CircleVector, c3: CircleVector, tol: float = TANGENT_TOL
) -> tuple[CircleVector, CircleVector]:
    """Both disks tangent to a mutually tangent triple, larger curvature first."""
    triple = (c1, c2, c3)
    # rank check first so repeated disks report degeneracy, not non-tangency
    line = _solution_line([_tangency_row(v) for v in triple], [1.0, 1.0, 1.0])
    _check_tangent(triple, tol)
    return _roots_on_line(*line)


def tangent_disk_with_curvature(
    c1: CircleVector, c2: CircleVector, curvature: float
) -> tuple[CircleVector, CircleVector]:
    """Both disks of prescribed curvature tangent to two tangent disks."""
    rows = [_tangency_row(c1), _tangency_row(c2), [0.0, 0.0, 1.0, 0.0]]
    return _roots_on_line(*_solution_line(rows, [1.0, 1.0, float(curvature)]))


def vieta_reflect(q: Quadruple, index: int) -> Quadruple:
    """Swap slot `index` for the other root of its tangency system.

    Componentwise c' = 2(c_j + c_k + c_l) - c_i.  An involution that
    preserves every pairwise product, hence maps quadruples to quadruples.
    """
    if index not in (0, 1, 2, 3):
        raise InvalidIndex(f"reflection slot must be 0..3, got {index!r}")
    cs = q.vectors
    others = [cs[j] for j in range(4) if j != index]
    old = cs[index]
    new = CircleVector(
        2.0 * (others[0].xdot + others[1].xdot + others[2].xdot) - old.xdot,
        2.0 * (others[0].ydot + others[1].ydot + others[2].ydot) - old.ydot,
        2.0 * (others[0].beta + others[1].beta + others[2].beta) - old.beta,
        2.0 * (others[0].gamma + others[1].gamma + others[2].gamma) - old.gamma,
    )
    replaced = list(cs)
    replaced[index] = new
    return Quadruple(tuple(replaced))
