"""Apollonian gasket generation by breadth-first tangency reflections."""

from __future__ import annotations

import colorsys
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .descartes import (
    Quadruple,
    descartes_residual,
    solve_fourth_disk,
    tangent_disk_with_curvature,
    vieta_reflect,
)
from .errors import ComplexRoots, DiskGeomError, EmptyGasket, InvalidSeed
from .minkowski import Circle, CircleVector, Halfplane, halfplane_geometry, lift

SPECTRUM_QUANTUM = 1e-7


@dataclass(frozen=True)
class GenerationLimits:
    """Stopping rules for gasket growth; at least one must be set."""

    max_depth: int | None = None
    max_curvature: float | None = None
    max_count: int | None = None

    def __post_init__(self) -> None:
        if self.max_depth is None and self.max_curvature is None and self.max_count is None:
            raise ValueError("at least one generation limit must be set")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth!r}")
        if self.max_curvature is not None and not self.max_curvature > 0.0:
            raise ValueError(f"max_curvature must be > 0, got {self.max_curvature!r}")
        if self.max_count is not None and self.max_count < 4:
            raise ValueError(f"max_count must cover the 4 seed disks, got {self.max_count!r}")


@dataclass(frozen=True)
class GasketDisk:
    """One stored disk with its BFS depth and the quadruple it came from."""

    vector: CircleVector
    depth: int
    quadruple_id: int


@dataclass(frozen=True)
class Gasket:
    seed: Quadruple
    limits: GenerationLimits
    disks: tuple[GasketDisk, ...]
    quadruples: tuple[Quadruple, ...]
    quadruple_depths: tuple[int, ...]


def generate(seed: Quadruple, limits: GenerationLimits) -> Gasket:
    """Breadth-first reflection closure of the seed under the given limits.

    Each frontier quadruple reflects at every slot except the one that
    created it (the reflection is an involution, so that slot would only
    regenerate the parent).  Children are visited in slot order, which makes
    the stored disk sequence deterministic.  A disk above max_curvature
    prunes its whole quadruple.
    """
    try:
        seed.validate()
    except DiskGeomError as exc:
        raise InvalidSeed(str(exc)) from exc
    disks = [GasketDisk(v, 0, 0) for v in seed.vectors]
    quads = [seed]
    qdepths = [0]
    queue: deque[tuple[int, int, int]] = deque([(0, -1, 0)])
    full = False
    while queue and not full:
        qid, born_slot, depth = queue.popleft()
        if limits.max_depth is not None and depth + 1 > limits.max_depth:
            continue
        q = quads[qid]
        for slot in range(4):
            if slot == born_slot:
                continue
            child = vieta_reflect(q, slot)
            new = child.vectors[slot]
            if limits.max_curvature is not None and new.beta > limits.max_curvature:
                continue
            if limits.max_count is not None and len(disks) >= limits.max_count:
                full = True
                break
            disks.append(GasketDisk(new, depth + 1, qid))
            quads.append(child)
            qdepths.append(depth + 1)
            queue.append((len(quads) - 1, slot, depth + 1))
    return Gasket(seed, limits, tuple(disks), tuple(quads), tuple(qdepths))


def curvature_spectrum(g: Gasket) -> list[tuple[float, int]]:
    """Curvature histogram in bins of relative width SPECTRUM_QUANTUM, ascending."""
    counts: dict[float, tuple[float, int]] = {}
    for disk in g.disks:
        b = disk.vector.beta
        step = SPECTRUM_QUANTUM * max(1.0, abs(b))
        q = round(b / step) * step
        if q in counts:
            val, n = counts[q]
            counts[q] = (val, n + 1)
        else:
            counts[q] = (b, 1)
    return sorted(counts.values())


def canonical_quadruple(curvatures: Sequence[float]) -> Quadruple:
    """Deterministic geometric realization of a 3- or 4-curvature seed.

    The two largest curvatures of the leading triple are placed tangent at
    the origin with centers on the x axis (a curvature-0 entry becomes the
    halfplane x >= 0); the third disk comes from the prescribed-curvature
    tangency solve and the fourth from the full tangency solve.  A
    3-curvature seed is completed with the smaller (enclosing) root.
    """
    ks = [float(k) for k in curvatures]
    if len(ks) not in (3, 4):
        raise InvalidSeed(f"seed needs 3 or 4 curvatures, got {len(ks)}")
    a, b, c = ks[:3]
    pairs = a * b + b * c + c * a
    if pairs < -1e-12:
        raise ComplexRoots(f"ab+bc+ca = {pairs!r} is negative, seed admits no real quadruple")
    order = sorted(range(3), key=lambda i: -ks[i])
    k1, k2, k3 = (ks[i] for i in order)
    if k1 <= 0.0:
        raise InvalidSeed("seed needs at least one positive curvature to fix a scale")
    r1 = 1.0 / k1
    v1 = lift(Circle((-r1, 0.0), r1))
    if k2 != 0.0:
        r2 = 1.0 / k2
        v2 = lift(Circle((r2, 0.0), r2))
    else:
        v2 = lift(Halfplane((-1.0, 0.0), 0.0))
    v3 = tangent_disk_with_curvature(v1, v2, k3)[0]
    placed = {order[0]: v1, order[1]: v2, order[2]: v3}
    triple = tuple(placed[i] for i in range(3))
    roots = solve_fourth_disk(*triple)
    if len(ks) == 4:
        d = ks[3]
        scale = max(1.0, sum(abs(k) for k in ks) ** 2)
        resid = descartes_residual(a, b, c, d)
        if abs(resid) > 1e-6 * scale:
            raise InvalidSeed(f"curvatures violate the tangency relation, residual {resid!r}")
        fourth = min(roots, key=lambda v: abs(v.beta - d))
        if abs(fourth.beta - d) > 1e-6 * max(1.0, abs(d)):
            raise InvalidSeed(f"fourth curvature {d!r} matches neither tangent root")
    else:
        fourth = roots[1]
    return Quadruple((*triple, fourth))


@dataclass(frozen=True)
class RenderStyle:
    fill_by_depth: bool = False
    fill: str = "none"
    stroke: str = "#000000"
    stroke_width: float | None = None


def _depth_fill(depth: int) -> str:
    # golden-angle hue steps keep fills distinct across depth levels
    h = (depth * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(h, 0.55, 0.95)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _center_radius(v: CircleVector) -> tuple[float, float, float]:
    r = 1.0 / v.beta
    # + 0.0 flushes negative zeros out of rendered coordinates
    return v.xdot * r + 0.0, v.ydot * r + 0.0, r


def render_svg(g: Gasket, style: RenderStyle | None = None) -> str:
    """SVG 1.1 document: one circle element per disk, lines for halfplanes.

    The viewport fits the enclosing disk when one exists, otherwise the
    bounding box of all circles, with a 2% margin.  Disks of negative
    curvature are drawn as unfilled outlines.
    """
    if not g.disks:
        raise EmptyGasket("no disks to render")
    style = style or RenderStyle()
    circles: list[tuple[float, float, float, int, bool]] = []
    lines: list[tuple[float, float, float]] = []
    for disk in g.disks:
        v = disk.vector
        if v.beta == 0.0:
            lines.append(halfplane_geometry(v))
        else:
            cx, cy, r = _center_radius(v)
            circles.append((cx, cy, abs(r), disk.depth, r < 0.0))
    enclosing = [c for c in circles if c[4]]
    if enclosing:
        cx, cy, r, _, _ = max(enclosing, key=lambda c: c[2])
        xmin, xmax, ymin, ymax = cx - r, cx + r, cy - r, cy + r
    elif circles:
        xmin = min(c[0] - c[2] for c in circles)
        xmax = max(c[0] + c[2] for c in circles)
        ymin = min(c[1] - c[2] for c in circles)
        ymax = max(c[1] + c[2] for c in circles)
    else:
        xmin = ymin = -1.0
        xmax = ymax = 1.0
    margin = 0.02 * max(xmax - xmin, ymax - ymin)
    xmin -= margin
    ymin -= margin
    width = xmax + margin - xmin
    height = ymax + margin - ymin
    sw = style.stroke_width if style.stroke_width is not None else 0.005 * max(width, height)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{xmin!r} {ymin!r} {width!r} {height!r}">',
    ]
    reach = width + height
    for nx, ny, offset in lines:
        ax, ay = nx * offset, ny * offset
        dx, dy = -ny, nx
        parts.append(
            f'<line x1="{ax - reach * dx!r}" y1="{ay - reach * dy!r}" '
            f'x2="{ax + reach * dx!r}" y2="{ay + reach * dy!r}" '
            f'stroke="{style.stroke}" stroke-width="{sw!r}"/>'
        )
    for cx, cy, r, depth, outline in circles:
        if outline:
            fill = "none"
        elif style.fill_by_depth:
            fill = _depth_fill(depth)
        else:
            fill = style.fill
        parts.append(
            f'<circle cx="{cx!r}" cy="{cy!r}" r="{r!r}" fill="{fill}" '
            f'stroke="{style.stroke}" stroke-width="{sw!r}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
