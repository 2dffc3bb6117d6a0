"""Command line surface: JSON disk documents in, reports, SVG and CSV out."""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .descartes import (
    Quadruple,
    descartes_residual,
    solve_fourth_disk,
    worst_tangency,
)
from .errors import (
    BadDimension,
    ComplexRoots,
    DegenerateTriple,
    DiskGeomError,
    EmptyGasket,
    InvalidIndex,
    InvalidSeed,
    NonUnitNormal,
    NotNormalized,
    NotSpacelike,
    NotTangent,
    SingularMatrix,
    ZeroRadius,
)
from .gasket import (
    GasketDisks,
    GenerationLimits,
    RenderStyle,
    canonical_quadruple,
    generate,
    render_svg,
)
from .minkowski import (
    Circle,
    CircleVector,
    Disk,
    Halfplane,
    configuration_identity,
    halfplane_geometry,
    lift,
    project,
)
from .nsphere import NSphere, lift_sphere

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DEGENERATE_CONFIG = 3
EXIT_NOT_TANGENT = 4
EXIT_DEGENERATE_TRIPLE = 5
EXIT_INVALID_SEED = 6
EXIT_NOT_NORMALIZED = 7

_NORMAL_DOC_TOL = 1e-9


class DocumentError(ValueError):
    """Malformed input document or arguments; maps to exit code 2."""


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal; integral values drop the decimal point."""
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _reject_constant(token: str) -> float:
    raise DocumentError(f"non-finite number {token!r} not allowed")


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{what} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise DocumentError(f"{what} must be finite, got {value!r}")
    return x


def _point(value: Any, what: str, length: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise DocumentError(f"{what} must be an array of {length} numbers")
    return tuple(_number(v, what) for v in value)


def _parse_circle(entry: dict, label: str) -> Circle:
    center = _point(entry.get("center"), f"{label} center", 2)
    radius = _number(entry.get("radius"), f"{label} radius")
    if radius == 0.0:
        raise DocumentError(f"{label} radius must be nonzero")
    return Circle(center, radius)


def _parse_halfplane(entry: dict, label: str) -> Halfplane:
    normal = _point(entry.get("normal"), f"{label} normal", 2)
    offset = _number(entry.get("offset"), f"{label} offset")
    norm = math.hypot(*normal)
    if abs(norm - 1.0) > _NORMAL_DOC_TOL:
        raise DocumentError(f"{label} normal must be unit length, |n| = {norm!r}")
    return Halfplane((normal[0] / norm, normal[1] / norm), offset / norm)


def _parse_sphere(entry: dict, label: str, dim: int) -> NSphere:
    center = entry.get("center")
    if not isinstance(center, list) or len(center) != dim:
        raise DocumentError(f"{label} center must be an array of {dim} numbers")
    radius = _number(entry.get("radius"), f"{label} radius")
    if radius == 0.0:
        raise DocumentError(f"{label} radius must be nonzero")
    return NSphere(tuple(_number(v, f"{label} center") for v in center), radius)


def load_document(path: str) -> tuple[str, Any]:
    """Read a disk document; returns ("planar", [Disk]) or ("spheres", (n, [NSphere]))."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    entries = doc.get("disks")
    if not isinstance(entries, list) or not entries:
        raise DocumentError("document must hold a non-empty 'disks' array")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "type" not in entry:
            raise DocumentError(f"disk {k} must be an object with a 'type' field")
    types = {entry["type"] for entry in entries}
    unknown = types - {"circle", "halfplane", "sphere"}
    if unknown:
        raise DocumentError(f"unknown disk type {sorted(unknown)[0]!r}")
    if "sphere" in types:
        if types != {"sphere"}:
            raise DocumentError("sphere records cannot be mixed with planar disks")
        dim = doc.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
            raise DocumentError("sphere documents need an integer 'dim' >= 2")
        spheres = [_parse_sphere(e, f"sphere {k}", dim) for k, e in enumerate(entries)]
        return "spheres", (dim, spheres)
    if "dim" in doc and doc["dim"] != 2:
        raise DocumentError("planar documents must have dim 2 when 'dim' is present")
    disks: list[Disk] = []
    for k, entry in enumerate(entries):
        if entry["type"] == "circle":
            disks.append(_parse_circle(entry, f"disk {k}"))
        else:
            disks.append(_parse_halfplane(entry, f"disk {k}"))
    return "planar", disks


def disk_record(d: Disk) -> dict:
    if isinstance(d, Circle):
        return {"type": "circle", "center": [d.center[0], d.center[1]], "radius": d.radius}
    return {"type": "halfplane", "normal": [d.normal[0], d.normal[1]], "offset": d.offset}


def _print_matrix(name: str, m: np.ndarray) -> None:
    print(f"{name} =")
    for row in m:
        print("  " + " ".join(fmt_float(v) for v in row))


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def cmd_verify(args: argparse.Namespace) -> int:
    kind, payload = load_document(args.input)
    if kind == "planar":
        if len(payload) != 4:
            raise DocumentError(f"expected 4 disks, got {len(payload)}")
        vectors = [lift(x) for x in payload]
    else:
        dim, spheres = payload
        if len(spheres) != dim + 2:
            raise DocumentError(f"expected n+2 = {dim + 2} spheres for dim {dim}, got {len(spheres)}")
        vectors = [lift_sphere(s) for s in spheres]
    f, finv, residual = configuration_identity(vectors)
    passed = residual <= args.tol
    if args.json:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "gramian": f.tolist(),
                "inverse": finv.tolist(),
                "residual": residual,
                "pass": passed,
            }
        )
    else:
        _print_matrix("f", f)
        _print_matrix("F = f^-1", finv)
        print(f"residual = {residual!r}")
        print(f"{'PASS' if passed else 'FAIL'} (tol = {args.tol!r})")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_solve4(args: argparse.Namespace) -> int:
    kind, payload = load_document(args.input)
    if kind != "planar" or len(payload) != 3:
        raise DocumentError("solve4 needs a planar document with exactly 3 disks")
    vectors = [lift(d) for d in payload]
    try:
        roots = solve_fourth_disk(*vectors, tol=args.tol)
    except NotTangent:
        worst, pair = worst_tangency(vectors)
        raise NotTangent(
            f"disks {pair[0]} and {pair[1]} are not tangent, residual {worst!r}"
        ) from None
    curvatures = [v.beta for v in vectors]
    solutions = []
    for root in roots:
        record = disk_record(project(root))
        record["curvature"] = root.beta
        record["descartes_residual"] = descartes_residual(*curvatures, root.beta)
        solutions.append(record)
    _emit_json({"schema_version": SCHEMA_VERSION, "solutions": solutions})
    return EXIT_OK


def _parse_seed(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DocumentError(f"invalid --seed value {text!r}: {exc}") from exc
    if len(values) not in (3, 4):
        raise DocumentError(f"--seed needs 3 or 4 comma-separated curvatures, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise DocumentError("--seed curvatures must be finite")
    return values


def _write_gasket_csv(path: str, disks: GasketDisks) -> None:
    vectors = disks.vectors
    beta = vectors[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        # + 0.0 flushes negative zeros out of the output
        xs = (vectors[:, 0] / beta + 0.0).tolist()
        ys = (vectors[:, 1] / beta + 0.0).tolist()
    for k in np.flatnonzero(beta == 0.0).tolist():
        # boundary anchor point of the halfplane
        nx, ny, offset = halfplane_geometry(CircleVector(*vectors[k].tolist()))
        xs[k], ys[k] = nx * offset, ny * offset
    # every field is an int or a float repr, so no field ever needs CSV quoting
    rows = zip(disks.depths.tolist(), beta.tolist(), xs, ys)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("depth,curvature,x,y\n")
        fh.write("".join(f"{d},{b!r},{x!r},{y!r}\n" for d, b, x, y in rows))


def cmd_gasket(args: argparse.Namespace) -> int:
    if args.seed is not None:
        quad = canonical_quadruple(_parse_seed(args.seed))
    else:
        kind, payload = load_document(args.input)
        if kind != "planar" or len(payload) != 4:
            raise DocumentError("gasket documents need exactly 4 planar disks")
        quad = Quadruple(tuple(lift(d) for d in payload))
    if args.depth is None and args.max_curvature is None and args.max_count is None:
        raise DocumentError("set at least one of --depth, --max-curvature, --max-count")
    try:
        limits = GenerationLimits(
            max_depth=args.depth,
            max_curvature=args.max_curvature,
            max_count=args.max_count,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    result = generate(quad, limits)
    if args.csv:
        _write_gasket_csv(args.csv, result.disks)
    if args.svg:
        svg = render_svg(result, RenderStyle(fill_by_depth=args.fill_by_depth))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    beta = result.disks.vectors[:, 2]
    radii = np.abs(1.0 / beta[beta != 0.0])
    print(f"disks: {len(result.disks)}")
    print(f"min radius: {fmt_float(radii.min()) if len(radii) else 'n/a'}")
    return EXIT_OK


def cmd_soddy(args: argparse.Namespace) -> int:
    if args.dim < 2:
        raise DocumentError(f"--dim must be >= 2, got {args.dim}")
    expected = args.dim + 2
    if len(args.curvatures) != expected:
        raise DocumentError(
            f"expected n+2 = {expected} curvatures for dim {args.dim}, got {len(args.curvatures)}"
        )
    if not all(math.isfinite(b) for b in args.curvatures):
        raise DocumentError("curvatures must be finite")
    s = sum(args.curvatures)
    residual = s * s - args.dim * sum(b * b for b in args.curvatures)
    scale = sum(abs(b) for b in args.curvatures) ** 2
    passed = abs(residual) <= args.tol * scale
    print(f"residual = {residual!r}")
    print(f"{'PASS' if passed else 'FAIL'} (tol*scale = {args.tol * scale!r})")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_lift(args: argparse.Namespace) -> int:
    a, b, c = args.values
    if not all(math.isfinite(v) for v in args.values):
        raise DocumentError("lift arguments must be finite")
    if args.kind == "circle":
        disk: Disk = Circle((a, b), c)
    else:
        norm = math.hypot(a, b)
        if abs(norm - 1.0) > _NORMAL_DOC_TOL:
            raise DocumentError(f"halfplane normal must be unit length, |n| = {norm!r}")
        disk = Halfplane((a / norm, b / norm), c / norm)
    v = lift(disk)
    if args.json:
        _emit_json({"schema_version": SCHEMA_VERSION, "vector": list(v)})
    else:
        print(" ".join(fmt_float(x) for x in v))
    return EXIT_OK


def cmd_project(args: argparse.Namespace) -> int:
    if not all(math.isfinite(v) for v in args.components):
        raise DocumentError("project arguments must be finite")
    disk = project(CircleVector(*args.components))
    if args.json:
        record = disk_record(disk)
        record["schema_version"] = SCHEMA_VERSION
        _emit_json(record)
    elif isinstance(disk, Circle):
        print(f"circle {fmt_float(disk.center[0])} {fmt_float(disk.center[1])} {fmt_float(disk.radius)}")
    else:
        print(f"halfplane {fmt_float(disk.normal[0])} {fmt_float(disk.normal[1])} {fmt_float(disk.offset)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskgeom",
        description="Tangent-disk geometry: verify configurations, solve tangency "
        "problems, grow Apollonian gaskets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify",
        help="check the configuration identity for 4 disks or n+2 spheres",
    )
    p.add_argument("input", help="JSON disk document")
    p.add_argument("--tol", type=float, default=1e-8, help="pass/fail residual gate")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve4", help="both disks tangent to 3 mutually tangent disks")
    p.add_argument("input", help="JSON document with exactly 3 disks")
    p.add_argument("--tol", type=float, default=1e-6, help="tangency gate on the input triple")
    p.set_defaults(func=cmd_solve4)

    p = sub.add_parser("gasket", help="grow an Apollonian gasket, emit CSV/SVG")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--seed", help="3 or 4 comma-separated curvatures")
    src.add_argument("--input", help="JSON document with a tangent quadruple")
    p.add_argument("--depth", type=int, help="max reflection depth")
    p.add_argument("--max-curvature", type=float, help="drop disks above this curvature")
    p.add_argument("--max-count", type=int, help="total disk cap")
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--csv", help="write depth,curvature,x,y rows here")
    p.add_argument("--fill-by-depth", action="store_true", help="color SVG fills by depth")
    p.set_defaults(func=cmd_gasket)

    p = sub.add_parser("soddy", help="n-dimensional tangent-curvature residual")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension n")
    p.add_argument("--tol", type=float, default=1e-8, help="relative pass gate")
    p.add_argument("curvatures", nargs="+", type=float, help="n+2 curvature values")
    p.set_defaults(func=cmd_soddy)

    p = sub.add_parser("lift", help="print the 4-vector of a circle or halfplane")
    p.add_argument("kind", choices=["circle", "halfplane"])
    p.add_argument(
        "values",
        nargs=3,
        type=float,
        metavar="V",
        help="circle: X Y R; halfplane: NX NY OFFSET",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("project", help="print the disk behind a 4-vector")
    p.add_argument("components", nargs=4, type=float, metavar="C", help="XDOT YDOT BETA GAMMA")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_project)

    return parser


_ERROR_CODES: list[tuple[type, int]] = [
    (SingularMatrix, EXIT_DEGENERATE_CONFIG),
    (NotTangent, EXIT_NOT_TANGENT),
    (DegenerateTriple, EXIT_DEGENERATE_TRIPLE),
    (ComplexRoots, EXIT_INVALID_SEED),
    (InvalidSeed, EXIT_INVALID_SEED),
    (NotNormalized, EXIT_NOT_NORMALIZED),
    (NotSpacelike, EXIT_NOT_NORMALIZED),
    (ZeroRadius, EXIT_PARSE),
    (NonUnitNormal, EXIT_PARSE),
    (BadDimension, EXIT_PARSE),
    (InvalidIndex, EXIT_PARSE),
    (EmptyGasket, EXIT_PARSE),
]


def _join_seed_flag(argv: list[str]) -> list[str]:
    # lets "--seed -1,2,2,3" survive argparse's option detection
    out = list(argv)
    for i, tok in enumerate(out[:-1]):
        if tok == "--seed" and out[i + 1].startswith("-"):
            out[i : i + 2] = [f"--seed={out[i + 1]}"]
            break
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_join_seed_flag(args_list))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DiskGeomError as exc:
        for err_type, code in _ERROR_CODES:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
