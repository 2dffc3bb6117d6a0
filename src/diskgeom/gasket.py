"""Apollonian gasket generation by level-synchronous tangency reflections.

A gasket is a reflection tree: non-backtracking reflection words give every
packing circle exactly once.  It is grown one depth level at a time on numpy
arrays and stored as arrays (numpy is imported only where they are built or
read); the disk and quadruple objects of the public API are built on access.
"""

from __future__ import annotations

import colorsys
import itertools
import math
import numbers
import operator
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .descartes import Quadruple, solve_fourth_curvature, solve_fourth_disk, tangent_disk_with_curvature
from .errors import DiskGeomError, EmptyGasket, InvalidSeed, NonFiniteOutput
from .minkowski import Circle, CircleVector, Halfplane, halfplane_geometry, lift

# rows that the SVG and CSV writers turn into text at a time, bounding their memory
CHUNK_ROWS = 4096
# numpy dtype name of the depth, parent and member stores, whose values stay below the disk count
INDEX = "int32"


@dataclass(frozen=True)
class GenerationLimits:
    """Stopping rules for gasket growth; at least one must be set."""

    max_depth: int | None = None
    max_curvature: float | None = None
    max_count: int | None = None

    def __post_init__(self) -> None:
        if self.max_depth is None and self.max_curvature is None and self.max_count is None:
            raise ValueError("at least one generation limit must be set")
        for name in ("max_depth", "max_count"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not hasattr(type(value), "__index__")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # kept as a Python int, so the store sizes computed from it cannot wrap around
            object.__setattr__(self, name, None if value is None else operator.index(value))
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth!r}")
        cap = self.max_curvature  # past the largest float a cap never prunes, so never ends a run
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, numbers.Real) or not 0 < cap <= sys.float_info.max
        ):
            raise ValueError(f"max_curvature must be a finite real number > 0, got {cap!r}")
        if self.max_count is not None and self.max_count < 4:
            raise ValueError(f"max_count must cover the 4 seed disks, got {self.max_count!r}")


@dataclass(frozen=True)
class GasketDisk:
    """One stored disk with its reflection depth and the quadruple it came from."""

    vector: CircleVector
    depth: int
    quadruple_id: int


class _ArraySequence(Sequence):
    """Immutable sequence over read-only numpy arrays; items are built on access.

    Subclasses name their arrays in __slots__, the first one giving the
    length, and build item k in _item.  The arrays are not copied.
    """

    __slots__ = ()

    def __init__(self, *arrays) -> None:
        import numpy as np
        for name, array in zip(self.__slots__, arrays, strict=True):
            view = np.asarray(array).view()
            view.flags.writeable = False
            setattr(self, name, view)

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self._item(i) for i in range(len(self))[k])
        return self._item(range(len(self))[k])


class GasketDisks(_ArraySequence):
    """Stored disks: lifted vectors (N,4), int32 (INDEX) depths (N,) and parent quadruple ids (N,)."""

    __slots__ = ("vectors", "depths", "quadruple_ids")

    def _item(self, k: int) -> GasketDisk:
        return GasketDisk(
            CircleVector(*self.vectors[k].tolist()), int(self.depths[k]), int(self.quadruple_ids[k])
        )


class GasketQuadruples(_ArraySequence):
    """Explored quadruples as int32 (INDEX) rows (M,4) of indices into the disk vectors (N,4)."""

    __slots__ = ("members", "vectors")

    def _item(self, k: int) -> Quadruple:
        return Quadruple(tuple(CircleVector(*v) for v in self.vectors[self.members[k]].tolist()))


@dataclass(frozen=True, eq=False)
class Gasket:
    """A grown gasket: its disks and the quadruples explored to find them."""

    disks: GasketDisks
    quadruples: GasketQuadruples

    @property
    def quadruple_depths(self) -> np.ndarray:
        """Read-only depth (M,) of each explored quadruple."""
        # quadruple k >= 1 added disk k + 3, and disk 3 is a depth-0 seed disk
        return self.disks.depths[3:]


def _stores(size: int, old: Sequence[np.ndarray] = (), n: int = 0) -> list[np.ndarray]:
    """Vector, depth, parent and quadruple member stores for size disks, with old's first n."""
    import numpy as np
    try:
        if size > np.iinfo(INDEX).max + 1:
            raise ValueError(f"disk indices past {np.iinfo(INDEX).max} do not fit {INDEX}")
        stores = [np.empty((size, 4)), np.empty(size, INDEX), np.empty(size, INDEX), np.empty((size, 4), INDEX)]
    except (MemoryError, ValueError) as exc:  # ValueError: longer than any numpy array or INDEX
        raise DiskGeomError(f"cannot allocate the arrays of {size} disks: {exc}") from None
    for store, rows in zip(stores, old):
        store[:n] = rows[:n]
    return stores


def generate(seed: Quadruple, limits: GenerationLimits) -> Gasket:
    """Level-by-level reflection closure of the seed under the given limits.

    Each frontier quadruple reflects at every slot except the one that
    created it (the reflection is an involution, so that slot would only
    regenerate the parent).  Children are laid out parent-major, then in
    slot order, which makes the stored disk sequence deterministic.  A disk
    above max_curvature prunes its whole quadruple; max_count cuts the
    level it is reached in.  A circle whose radius or center is not a
    finite double raises NonFiniteOutput.
    """
    try:
        seed.validate()
    except DiskGeomError as exc:
        raise InvalidSeed(str(exc)) from exc
    if seed.vectors[0].dim != 2:  # validate accepts n+2 balls of any n; the stores hold disks
        raise InvalidSeed(f"a gasket grows from planar disks (n = 2), got a seed of n = {seed.vectors[0].dim}")
    if limits.max_depth is None and limits.max_count is None and 0.0 in seed.curvatures:
        raise InvalidSeed(
            f"seed vector {seed.curvatures.index(0.0)} is a halfplane, so a curvature limit "
            "alone never ends the growth; set a depth or count limit"
        )
    # Without pruning the size is known: 4 seed disks, then 4 * 3^(d-1) at level d.
    # Past depth 40 that is longer than any array, so the power is not formed.
    size, d = limits.max_count, limits.max_depth
    if limits.max_curvature is None and d is not None:
        if d <= 40:
            size = min(4 + 2 * (3**d - 1), size or math.inf)
        elif size is None:
            raise DiskGeomError(f"cannot allocate the arrays of 4 + 2 * (3**{d} - 1) disks")
    import numpy as np
    # disk vectors, depths, parent quadruple ids and quadruple members; rows past n are spare
    try:
        stores = _stores(size or 4)
    except DiskGeomError:
        if limits.max_curvature is None:  # the run holds exactly size disks
            raise
        stores = _stores(4)  # max_count only caps a pruned run, which then grows as it goes
    vectors, depths, parents, members = stores
    vectors[:4] = [tuple(v) for v in seed.vectors]
    depths[:4] = parents[:4] = 0
    # member row k >= 4 holds the quadruple disk k made, row 3 the seed; the one member of a frontier
    # quadruple at or past level made it, so its slot would give the parent back (the seed has none)
    members[3] = range(4)
    n, first, level, depth = 4, 3, 4, 0  # disks so far, first frontier row, first disk of its level
    while (
        first < n
        and (limits.max_depth is None or depth < limits.max_depth)
        and (limits.max_count is None or n < limits.max_count)
    ):
        depth, start = depth + 1, n
        # blocks of quadruples bound the temporaries to about CHUNK_ROWS children
        for lo in range(first, start, CHUNK_ROWS // 3):
            frontier = members[lo : min(lo + CHUNK_ROWS // 3, start)]
            keep = frontier < level
            if limits.max_curvature is not None:
                beta = vectors[:, 2][frontier]
                for i in range(4):  # the slots kept when slot i is reflected are k + (i <= k), ascending
                    a, b, c = (beta[:, k + (i <= k)] for k in range(3))
                    child = 2.0 * (a + b + c) - beta[:, i]
                    keep[:, i] &= ~(child > limits.max_curvature)
            parent, slot = np.nonzero(keep)
            if limits.max_count is not None:
                parent, slot = parent[: limits.max_count - n], slot[: limits.max_count - n]
            rows, new = np.arange(len(parent)), slice(n, n + len(parent))
            if new.stop > len(vectors):  # at least doubling keeps deep, narrow runs linear
                vectors, depths, parents, members = stores = _stores(max(2 * n, new.stop), stores, n)
            quads = members[new]
            np.take(frontier, parent, axis=0, out=quads, mode="clip")  # "raise" would buffer
            # vieta_reflect's order of operations, so the values match it bit for bit,
            # over the kept slots k + (slot <= k) as in the pruning above
            a, b, c = (quads[rows, k + (slot <= k)] for k in range(3))
            # one expression, so numpy reuses its temporaries in place
            vectors[new] = 2.0 * (vectors[a] + vectors[b] + vectors[c]) - vectors[quads[rows, slot]]
            quads[rows, slot] = n + rows
            depths[new] = depth
            parents[new] = lo - 3 + parent
            n = new.stop
        first = level = start
    if n < len(vectors):
        vectors, depths, parents, members = _stores(n, stores, n)
    for lo in range(0, n, CHUNK_ROWS):  # every circle must be one that the writers can draw
        chunk = vectors[lo : lo + CHUNK_ROWS]
        with np.errstate(all="ignore"):
            bad = (chunk[:, 2] != 0.0) & ~np.isfinite(_circles(chunk)[:3]).all(axis=0)
        if bad.any():
            raise NonFiniteOutput(f"disk {lo + int(bad.argmax())} has a non-finite radius or center")
    return Gasket(GasketDisks(vectors, depths, parents), GasketQuadruples(members[3:], vectors))


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
    solve_fourth_curvature(*ks[:3])  # raises ComplexRoots when the triple has no real fourth disk
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
        fourth = min(roots, key=lambda v: abs(v.beta - d))
        bound = 1e-6 * max(1.0, abs(d))
        if not abs(fourth.beta - d) <= bound:
            raise InvalidSeed(f"fourth curvature {d!r} matches neither tangent root within {bound!r}")
    else:
        fourth = roots[1]
    return Quadruple((*triple, fourth))


def _depth_fill(depth: int) -> str:
    # golden-angle hue steps keep fills distinct across depth levels
    h = (depth * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(h, 0.55, 0.95)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def render_svg(g: Gasket, fill_by_depth: bool = False) -> str:
    """SVG 1.1 document: one circle element per disk, lines for halfplanes.

    The viewport fits the enclosing disk when one exists, otherwise the
    bounding box of all circles, with a 2% margin.  Disks of negative
    curvature are drawn as unfilled outlines; fill_by_depth colors the
    others by their depth.
    """
    return "".join(svg_chunks(g, fill_by_depth))


def _circles(vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Centers, radii and negative curvature of disk vectors whose curvature is nonzero."""
    r = 1.0 / vectors[:, 2]
    # + 0.0 flushes negative zeros out of rendered coordinates
    return vectors[:, 0] * r + 0.0, vectors[:, 1] * r + 0.0, abs(r), r < 0.0


def svg_chunks(g: Gasket, fill_by_depth: bool = False) -> Iterator[str]:
    """render_svg's document as pieces of at most CHUNK_ROWS circle elements each.

    EmptyGasket, and NonFiniteOutput for a viewport or a halfplane's line
    that is not finite, are raised by this call, before the first piece is taken.
    """
    import numpy as np
    from ._text import join_rows, repr_rows, text_rows
    if not g.disks:
        raise EmptyGasket("no disks to render")
    vectors, depths = g.disks.vectors, g.disks.depths
    halfplanes = np.flatnonzero(vectors[:, 2] == 0.0).tolist()
    lines = [halfplane_geometry(CircleVector(*v)) for v in vectors[halfplanes].tolist()]

    def circle_chunks() -> Iterator[tuple[np.ndarray, ...]]:
        # _circles and the depths of the circles among CHUNK_ROWS disks at a time
        for lo in range(0, len(vectors), CHUNK_ROWS):
            chunk = vectors[lo : lo + CHUNK_ROWS]
            circle = chunk[:, 2] != 0.0
            yield (*_circles(chunk[circle]), depths[lo : lo + CHUNK_ROWS][circle])

    enclosing = vectors[vectors[:, 2] < 0.0]
    if len(enclosing):  # the largest enclosing disk frames the picture
        frames = [_circles(enclosing[[np.argmax(np.abs(1.0 / enclosing[:, 2]))]])]
    else:  # or else all circles do
        frames = circle_chunks()
    with np.errstate(over="ignore"):  # a finite circle may reach past the double range
        boxes = [
            ((cx - r).min(), (cy - r).min(), (cx + r).max(), (cy + r).max())
            for cx, cy, r, *_ in frames
            if len(r)
        ]
    xmin, ymin = np.min(boxes, axis=0)[:2].tolist() if boxes else (-1.0, -1.0)
    xmax, ymax = np.max(boxes, axis=0)[2:].tolist() if boxes else (1.0, 1.0)
    margin = 0.02 * max(xmax - xmin, ymax - ymin)
    xmin -= margin
    ymin -= margin
    width = xmax + margin - xmin
    height = ymax + margin - ymin
    if not all(map(math.isfinite, (xmin, ymin, width, height))):  # which also bound the stroke width
        raise NonFiniteOutput(f"the SVG viewport {xmin!r} {ymin!r} {width!r} {height!r} is not finite")
    stroke = f'stroke="#000000" stroke-width="{0.005 * max(width, height)!r}"/>\n'
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{xmin!r} {ymin!r} {width!r} {height!r}">\n',
    ]
    reach = width + height  # inf past half the double range, so every line end is checked
    for k, (nx, ny, offset) in zip(halfplanes, lines):
        ax, ay = nx * offset + 0.0, ny * offset + 0.0  # a flushed anchor flushes the endpoints too
        dx, dy = -ny, nx
        ends = (ax - reach * dx, ay - reach * dy, ax + reach * dx, ay + reach * dy)
        if not all(map(math.isfinite, ends)):
            raise NonFiniteOutput(f"disk {k}'s SVG line {' '.join(map(repr, ends))} is not finite")
        head.append('<line x1="%r" y1="%r" x2="%r" y2="%r" ' % ends + stroke)

    fills = text_rows([*map(_depth_fill, range(depths.max() + 1 if fill_by_depth else 0)), "none"])

    def circles(chunk: tuple[np.ndarray, ...]) -> Iterator[str]:
        cx, cy, r, outline, depths = chunk
        x, y, rr = map(repr_rows, (cx, cy, r))
        fill = fills[np.where(outline | (not fill_by_depth), -1, depths)]
        return join_rows('<circle cx="', x, '" cy="', y, '" r="', rr, '" fill="', fill, f'" {stroke}')

    return itertools.chain(head, itertools.chain.from_iterable(map(circles, circle_chunks())), ["</svg>\n"])


def csv_chunks(g: Gasket) -> Iterator[str]:
    """The gasket CSV, depth,curvature,x,y, in pieces of at most CHUNK_ROWS rows each."""
    import numpy as np
    from ._text import join_rows, repr_rows, text_rows
    disks = g.disks
    yield "depth,curvature,x,y\n"
    depth_text = text_rows([str(d) for d in range(disks.depths.max(initial=0) + 1)])
    for lo in range(0, len(disks), CHUNK_ROWS):
        vectors = disks.vectors[lo : lo + CHUNK_ROWS]
        beta = vectors[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            # + 0.0 flushes negative zeros out of the output
            fields = np.vstack([beta, vectors[:, :2].T / beta + 0.0])  # curvature, x, y
        for k in np.flatnonzero(beta == 0.0).tolist():
            # boundary anchor point of the halfplane
            nx, ny, offset = halfplane_geometry(CircleVector(*vectors[k].tolist()))
            fields[1:, k] = nx * offset + 0.0, ny * offset + 0.0
        # every field is an int or a float repr, so no field ever needs CSV quoting
        b, x, y = map(repr_rows, fields)
        yield from join_rows(depth_text[disks.depths[lo : lo + CHUNK_ROWS]], ",", b, ",", x, ",", y, "\n")
