"""Solvers for mutually tangent balls in any dimension n >= 2; disks are n = 2.

External tangency of two balls means their lifted vectors have product 1,
so a ball tangent to n+1 given ones solves n+1 linear constraints plus the
quadratic normalization <X,X> = -1.  Its two roots are swapped by the
reflection c -> (2/(n-1))(sum of the other n+1) - c, which for disks is
c -> 2(sum of the other three) - c, the step that grows Apollonian gaskets.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import ComplexRoots, DegenerateTriple, InvalidIndex, NonFiniteOutput, NotTangent
from .minkowski import CircleVector, _dimension, check_dimension, check_finite, check_normalized, inner, normalize
from .minkowski import power_unit

# every gate is written "not x <= bound", so that a nan fails it
_RANK_TOL = 1e-10
_PAIRS_TOL = 1e-12
TANGENT_TOL = 1e-6  # |<u,v> - 1| of a tangent pair, for validate, solve_fourth_disk and solve4


@dataclass(frozen=True)
class Quadruple:
    """n+2 mutually tangent lifted balls in n-space: four disks for n = 2."""

    vectors: tuple[CircleVector, ...]

    @property
    def curvatures(self) -> tuple[float, ...]:
        return tuple(v.beta for v in self.vectors)

    def validate(self) -> None:
        """Check the count n+2, normalization of each member and pairwise tangency."""
        _dimension(self.vectors, 2)
        for k, v in enumerate(self.vectors):
            check_normalized(v, f"vector {k} {tuple(v)!r} has ")
        _check_tangent(self.vectors, TANGENT_TOL)


def soddy_gosset_residual(curvatures: Sequence[float], n: int) -> float:
    """(sum b)^2 - n * sum(b^2) over n+2 curvatures; zero on tangent configurations.

    The all-tangent Gramian has inverse J/(2n) - I/2; the inverse metric's zero b-b entry gives this.
    """
    check_dimension(n)
    bs = [float(b) for b in curvatures]
    if len(bs) != n + 2:
        raise ValueError(f"need n+2 = {n + 2} curvatures for n = {n}, got {len(bs)}")
    residual = _soddy_gosset(bs, float(n))  # float(n): a numpy integer n gives a float too
    if not math.isfinite(residual):  # an overflow, or a non-finite curvature
        check_finite(bs, "curvature")
        unit = power_unit(bs)  # degree 2: the residual of the scaled curvatures times unit^2
        residual = _soddy_gosset([b / unit for b in bs], float(n)) * unit * unit
        if not math.isfinite(residual):
            raise NonFiniteOutput(f"the residual of curvatures {bs!r} is past the double range")
    return residual


def _soddy_gosset(bs: list[float], n: float) -> float:
    s = q = 0.0
    for b in bs:  # left to right: the sum of Python 3.12 and later compensates, so its bits differ
        s += b
        q += b * b
    return s * s - n * q


def descartes_residual(a: float, b: float, c: float, d: float) -> float:
    """(a+b+c+d)^2 - 2(a^2+b^2+c^2+d^2), the Soddy-Gosset residual at n = 2; zero on tangent quadruples."""
    # the four-term formula's bits for every double: unlike soddy_gosset_residual it refuses no curvature
    return _soddy_gosset([float(a), float(b), float(c), float(d)], 2.0)


def solve_fourth_curvature(a: float, b: float, c: float) -> tuple[float, float]:
    """Both curvatures completing a tangent triple, larger root first.

    The larger-magnitude root is computed directly and the other from the
    product of roots, so nearly cancelling sums do not lose precision.
    """
    unit = power_unit((a, b, c))  # the roots have degree 1: solved scaled, then scaled back
    a, b, c = a / unit, b / unit, c / unit
    pairs = a * b + b * c + c * a
    if not pairs >= -_PAIRS_TOL:  # scaled, so relative to the largest curvature squared
        why = "is negative" if pairs < 0.0 else "is not a number"
        full = pairs * unit * unit
        shown = f"{pairs!r} * 2**{2 * math.log2(unit):g}" if math.isinf(full) or abs(full) < 2.0**-1022 else full
        raise ComplexRoots(f"ab+bc+ca = {shown} {why}, no real fourth curvature")
    if not math.isfinite(pairs):  # an infinite curvature: scaled finite ones give |ab+bc+ca| <= 12
        check_finite((a, b, c), "curvature")
    root = 2.0 * math.sqrt(max(pairs, 0.0))
    s = a + b + c
    far = s + root if s >= 0.0 else s - root
    near = (s * s - root * root) / far if far != 0.0 else 0.0
    return (far * unit, near * unit) if s >= 0.0 else (near * unit, far * unit)


def tangency_residual(vectors: Sequence[CircleVector]) -> float:
    """Max deviation of pairwise products from 1 over distinct pairs; nan is the largest."""
    _dimension(vectors, 1, 2)
    return _worst_pair(vectors)[0]


def _worst_pair(vectors: Sequence[CircleVector]) -> tuple[float, tuple[int, int]]:
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
    """Raise NotTangent naming the worst pair when its residual exceeds tol; callers have checked the count."""
    worst, (i, j) = _worst_pair(vectors)
    if not worst <= tol:
        raise NotTangent(f"disks {i} and {j} are not tangent, residual {worst!r} exceeds {tol!r}")


def _solution_line(rows: list[list[float]], rhs: list[float]) -> tuple[list[float], list[float]]:
    """Particular point (free unknown 0) and null direction (free unknown 1) of the m x (m+1) system rows @ x = rhs.

    Gaussian elimination with full pivoting over rows and columns; a pivot
    ratio below _RANK_TOL marks the constraints as rank deficient.  Runs on
    Python floats: each step rounds as the same numpy float64 step would.
    """
    m = len(rows)
    a = [[*row, h] for row, h in zip(rows, rhs)]
    pivot_cols: list[int] = []
    free_cols = list(range(m + 1))
    for k in range(m):
        best_val = -1.0
        best = (k, free_cols[0])
        for i in range(k, m):
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
        for i2 in range(k + 1, m):
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
    line = [[0.0] * (m + 1), [0.0] * (m + 1)]  # the point, then the direction: free unknown 0, then 1
    line[1][free_cols[0]] = 1.0
    for c, row in zip(reversed(pivot_cols), reversed(a)):
        for x, s in zip(line, (row[m + 1], 0.0)):  # the direction solves the system with a zero rhs
            for j in range(m + 1):
                if j != c:
                    s -= row[j] * x[j]
            x[c] = s / row[c]
    return line[0], line[1]


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
        raise ComplexRoots(f"discriminant {disc!r} is {'negative' if disc < 0.0 else 'not a number'}")
    sq = math.sqrt(max(disc, 0.0))
    q = -(b + math.copysign(sq, b))
    if q != 0.0:
        t1, t2 = q / alpha, c0 / q
    else:
        t1 = t2 = 0.0
    ends = [[x + t * y for x, y in zip(point, direction)] for t in (t1, t2)]
    try:
        roots = [normalize(xs) for xs in ends]
    except ValueError:  # an end overflowed to inf, which normalize would blame on its caller; a nan is NotSpacelike
        end = next(xs for xs in ends if math.inf in map(abs, xs))
        raise NonFiniteOutput(f"root {end!r} on the solution line is past the double range") from None
    # larger curvature first; the other components break exact ties
    hi, lo = sorted(roots, key=lambda v: (-v.beta, *map(operator.neg, v.coords), -v.gamma))
    return hi, lo


def _tangency_row(v: CircleVector) -> list[float]:
    """Coefficients of x -> <v, x>, the row minkowski_metric(n) @ v with its signed zeros."""
    return [0.0 - c for c in v.coords] + [0.5 * v.gamma + 0.0, 0.5 * v.beta + 0.0]


def solve_fourth_disk(*balls: CircleVector, tol: float = TANGENT_TOL) -> tuple[CircleVector, CircleVector]:
    """Both balls tangent to n+1 mutually tangent balls in n-space (a triple of disks), larger curvature first."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    _dimension(balls, 1)
    # rank check first so repeated balls report degeneracy, not non-tangency
    line = _solution_line([_tangency_row(v) for v in balls], [1.0] * len(balls))
    _check_tangent(balls, tol)
    return _roots_on_line(*line)


def tangent_disk_with_curvature(
    c1: CircleVector, c2: CircleVector, curvature: float
) -> tuple[CircleVector, CircleVector]:
    """Both disks of prescribed curvature tangent to two tangent disks (n = 2 only)."""
    _dimension((c1, c2), 0)
    rows = [_tangency_row(c1), _tangency_row(c2), [0.0, 0.0, 1.0, 0.0]]
    return _roots_on_line(*_solution_line(rows, [1.0, 1.0, float(curvature)]))


def vieta_reflect(q: Quadruple, index: int) -> Quadruple:
    """Swap slot `index` for the other root of its tangency system.

    Componentwise c' = (2/(n-1)) (sum of the other n+1) - c, for disks 2(c_j + c_k + c_l) - c_i.
    An involution that preserves every pairwise product, hence maps quadruples to quadruples.
    """
    cs = q.vectors
    n = _dimension(cs, 2)
    if isinstance(index, bool) or not hasattr(type(index), "__index__") or index not in range(n + 2):
        raise InvalidIndex(f"reflection slot must be 0..{n + 1}, got {index!r}")
    # the other n+1 in slot order, then the replaced one; summed left to right, as the builtin sum of
    # Python 3.12 and later compensates, and from -0.0, as -0.0 + x is exactly x, signed zeros included
    rows = zip(*cs[:index], *cs[index + 1 :], cs[index])
    c = CircleVector(*(2.0 / (n - 1) * functools.reduce(operator.add, others, -0.0) - d for *others, d in rows))
    return Quadruple((*cs[:index], c, *cs[index + 1 :]))
