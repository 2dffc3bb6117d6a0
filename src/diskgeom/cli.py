"""Command line surface: JSON disk documents in, reports, SVG and CSV out."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Iterable, Sequence, TextIO

import numpy as np

from .descartes import TANGENT_TOL, Quadruple, descartes_residual, solve_fourth_disk
from .errors import (
    ComplexRoots,
    DegenerateTriple,
    DiskGeomError,
    InvalidSeed,
    NotNormalized,
    NotSpacelike,
    NotTangent,
    SingularMatrix,
)
from .gasket import GenerationLimits, canonical_quadruple, csv_chunks, generate, svg_chunks
from .minkowski import Circle, CircleVector, Disk, Halfplane, configuration_identity, lift, project
from .nsphere import soddy_gosset_residual

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


class NonFiniteOutput(DiskGeomError):
    """A report value overflowed to inf or nan; maps to exit code 3."""


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


def _parse_circle(entry: dict, label: str, dim: int) -> Circle:
    """A circle record (dim 2) or a sphere record of the document's dim."""
    center = _point(entry.get("center"), f"{label} center", dim)
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


def load_document(path: str) -> tuple[str, int, list[Disk]]:
    """Read a disk document; returns ("planar", 2, disks) or ("spheres", n, spheres)."""
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
        return "spheres", dim, [_parse_circle(e, f"sphere {k}", dim) for k, e in enumerate(entries)]
    if "dim" in doc and doc["dim"] != 2:
        raise DocumentError("planar documents must have dim 2 when 'dim' is present")
    disks = [
        _parse_circle(e, f"disk {k}", 2) if e["type"] == "circle" else _parse_halfplane(e, f"disk {k}")
        for k, e in enumerate(entries)
    ]
    return "planar", 2, disks


def disk_record(d: Disk) -> dict:
    # + 0.0 flushes negative zeros, as the text mode and the CSV do
    if isinstance(d, Circle):
        return {"type": "circle", "center": [d.center[0] + 0.0, d.center[1] + 0.0], "radius": d.radius}
    nx, ny = d.normal
    return {"type": "halfplane", "normal": [nx + 0.0, ny + 0.0], "offset": d.offset + 0.0}


def _print_matrix(name: str, m: np.ndarray) -> None:
    print(f"{name} =")
    for row in m:
        print("  " + " ".join(fmt_float(v) for v in row))


def _emit_json(obj: dict) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:  # JSON has no inf or nan, so name the first field holding one
        shown = {k: json.dumps(v) for k, v in obj.items()}
        key = next(k for k, dumped in shown.items() if "Infinity" in dumped or "NaN" in dumped)
        raise NonFiniteOutput(f"{key} holds a non-finite value: {obj[key]!r}") from None
    print(text)


def cmd_verify(args: argparse.Namespace) -> int:
    _, _, disks = load_document(args.input)
    f, finv, residual = configuration_identity([lift(d) for d in disks])
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
    kind, _, disks = load_document(args.input)
    if kind != "planar" or len(disks) != 3:
        raise DocumentError("solve4 needs a planar document with exactly 3 disks")
    vectors = [lift(d) for d in disks]
    roots = solve_fourth_disk(*vectors, tol=args.tol)
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


def _open_output(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def _write_output(fh: TextIO, pieces: Iterable[str]) -> None:
    """Write the pieces and close fh; an OSError, from the last flush too, names the file."""
    try:
        with fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise DocumentError(f"cannot write {fh.name}: {exc}") from exc


def _write_in_child(fh: TextIO, pieces: Iterable[str]) -> int:
    """Fork a process that writes the pieces to fh, and return its pid for waitpid.

    The child leaves only through os._exit, so it never returns into main,
    never flushes the stdout buffer it inherited and never runs the caller's
    cleanup.  fh must hold no buffered text when this is called.
    """
    pid = os.fork()
    if pid == 0:
        code = EXIT_PARSE
        try:
            _write_output(fh, pieces)
            code = EXIT_OK
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(code)
    return pid


def cmd_gasket(args: argparse.Namespace) -> int:
    if args.seed is not None:
        quad = canonical_quadruple(_parse_seed(args.seed))
    else:
        kind, _, disks = load_document(args.input)
        if kind != "planar" or len(disks) != 4:
            raise DocumentError("gasket documents need exactly 4 planar disks")
        quad = Quadruple(tuple(lift(d) for d in disks))
    limits = GenerationLimits(max_depth=args.depth, max_curvature=args.max_curvature, max_count=args.max_count)
    result = generate(quad, limits)
    # svg_chunks does its array work, and raises EmptyGasket, before a file is opened
    svg = svg_chunks(result, args.fill_by_depth) if args.svg else None
    if args.csv and args.svg and hasattr(os, "fork"):
        # both writers are bound by float formatting, so the SVG takes the second core
        with _open_output(args.csv) as csv_fh, _open_output(args.svg) as svg_fh:
            pid = _write_in_child(svg_fh, svg)
            try:
                _write_output(csv_fh, csv_chunks(result))
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            raise DocumentError(f"cannot write {args.svg}: writer process exited with status {code}")
    else:
        if args.csv:
            _write_output(_open_output(args.csv), csv_chunks(result))
        if args.svg:
            _write_output(_open_output(args.svg), svg)
    # 1/x rounds monotonically, so the largest |curvature| gives the smallest radius
    top = np.abs(result.disks.vectors[:, 2]).max(initial=0.0)
    print(f"disks: {len(result.disks)}")
    print(f"min radius: {fmt_float(1.0 / top) if top else 'n/a'}")
    return EXIT_OK


def cmd_soddy(args: argparse.Namespace) -> int:
    if not all(math.isfinite(b) for b in args.curvatures):
        raise DocumentError("curvatures must be finite")
    residual = soddy_gosset_residual(args.curvatures, args.dim)
    scale = sum(abs(b) for b in args.curvatures) ** 2
    passed = abs(residual) <= args.tol * scale
    print(f"residual = {residual!r}")
    print(f"{'PASS' if passed else 'FAIL'} (tol*scale = {args.tol * scale!r})")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_lift(args: argparse.Namespace) -> int:
    a, b, c = args.values
    if args.kind == "circle":
        disk: Disk = _parse_circle({"center": [a, b], "radius": c}, "circle", 2)
    else:
        disk = _parse_halfplane({"normal": [a, b], "offset": c}, "halfplane")
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
    p.add_argument("--tol", type=float, default=TANGENT_TOL, help="tangency gate on the input triple")
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


# every other error, such as a ValueError, ZeroRadius or EmptyGasket, exits EXIT_PARSE
_ERROR_CODES: list[tuple[type, int]] = [
    (SingularMatrix, EXIT_DEGENERATE_CONFIG),
    (NonFiniteOutput, EXIT_DEGENERATE_CONFIG),
    (NotTangent, EXIT_NOT_TANGENT),
    (DegenerateTriple, EXIT_DEGENERATE_TRIPLE),
    (ComplexRoots, EXIT_INVALID_SEED),
    (InvalidSeed, EXIT_INVALID_SEED),
    (NotNormalized, EXIT_NOT_NORMALIZED),
    (NotSpacelike, EXIT_NOT_NORMALIZED),
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
    except (ValueError, DiskGeomError) as exc:  # ValueError: the library's invalid arguments
        print(f"error: {exc}", file=sys.stderr)
        codes = (code for err_type, code in _ERROR_CODES if isinstance(exc, err_type))
        return next(codes, EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
