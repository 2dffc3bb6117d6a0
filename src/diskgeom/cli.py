"""Command line surface: JSON disk documents in, reports, SVG and CSV out."""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import math
import os
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from .descartes import TANGENT_TOL, Quadruple, descartes_residual, soddy_gosset_residual, solve_fourth_disk
from .errors import (
    ComplexRoots,
    DegenerateTriple,
    DiskGeomError,
    InvalidSeed,
    NonFiniteOutput,
    NotNormalized,
    NotSpacelike,
    NotTangent,
    SingularMatrix,
)
from .minkowski import Circle, CircleVector, Disk, Halfplane, configuration_identity, lift, power_unit, project

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


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal; integral values drop the decimal point."""
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token!r} not allowed")


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # a JSON integer past the double range; its digits are not echoed
        raise ValueError(f"{what} must be finite, got an integer of {len(str(abs(value)))} digits") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return x


def _tol(value: float) -> float:
    if _number(value, "--tol") < 0.0:
        raise ValueError(f"--tol must be >= 0, got {value!r}")
    return value


def _point(value: Any, what: str, length: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"{what} must be an array of {length} numbers")
    return tuple(_number(v, what) for v in value)


def _parse_circle(entry: dict, label: str, dim: int) -> Circle:
    """A circle record (dim 2) or a sphere record of the document's dim."""
    center = _point(entry.get("center"), f"{label} center", dim)
    radius = _number(entry.get("radius"), f"{label} radius")
    if radius == 0.0:
        raise ValueError(f"{label} radius must be nonzero")
    return Circle(center, radius)


def _parse_halfplane(entry: dict, label: str) -> Halfplane:
    normal = _point(entry.get("normal"), f"{label} normal", 2)
    offset = _number(entry.get("offset"), f"{label} offset")
    norm = math.hypot(*normal)
    if abs(norm - 1.0) > _NORMAL_DOC_TOL:
        raise ValueError(f"{label} normal must be unit length, |n| = {norm!r}")
    return Halfplane((normal[0] / norm, normal[1] / norm), offset / norm)


def load_document(path: str) -> tuple[str, list[Disk]]:
    """Read a disk document; returns ("planar", disks) or ("spheres", spheres)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also a NaN token, an integer past 4300 digits, or deep nesting
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("document root must be an object")
    entries = doc.get("disks")
    if not isinstance(entries, list) or not entries:
        raise ValueError("document must hold a non-empty 'disks' array")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "type" not in entry:
            raise ValueError(f"disk {k} must be an object with a 'type' field")
        if entry["type"] not in ("circle", "halfplane", "sphere"):  # == only: a JSON array is not hashable
            raise ValueError(f"unknown disk type {entry['type']!r}")
    types = {entry["type"] for entry in entries}
    if "sphere" in types:
        if types != {"sphere"}:
            raise ValueError("sphere records cannot be mixed with planar disks")
        dim = doc.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
            raise ValueError("sphere documents need an integer 'dim' >= 2")
        return "spheres", [_parse_circle(e, f"sphere {k}", dim) for k, e in enumerate(entries)]
    if "dim" in doc and doc["dim"] != 2:
        raise ValueError("planar documents must have dim 2 when 'dim' is present")
    disks = [
        _parse_circle(e, f"disk {k}", 2) if e["type"] == "circle" else _parse_halfplane(e, f"disk {k}")
        for k, e in enumerate(entries)
    ]
    return "planar", disks


def disk_record(d: Disk) -> dict:
    # + 0.0 flushes negative zeros, as the text mode and the CSV do
    if isinstance(d, Circle):
        return {"type": "circle", "center": [d.center[0] + 0.0, d.center[1] + 0.0], "radius": d.radius}
    nx, ny = d.normal
    return {"type": "halfplane", "normal": [nx + 0.0, ny + 0.0], "offset": d.offset + 0.0}


def _print_matrix(name: str, m: Iterable[Iterable[float]]) -> None:
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
    tol = _tol(args.tol)
    _, disks = load_document(args.input)
    f, finv, residual = configuration_identity([lift(d) for d in disks])
    passed = residual <= tol
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
        print(f"{'PASS' if passed else 'FAIL'} (tol = {tol!r})")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_solve4(args: argparse.Namespace) -> int:
    tol = _tol(args.tol)
    kind, disks = load_document(args.input)
    if kind != "planar" or len(disks) != 3:
        raise ValueError("solve4 needs a planar document with exactly 3 disks")
    vectors = [lift(d) for d in disks]
    roots = solve_fourth_disk(*vectors, tol=tol)
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
        raise ValueError(f"invalid --seed value {text!r}: {exc}") from exc
    if len(values) not in (3, 4):
        raise ValueError(f"--seed needs 3 or 4 comma-separated curvatures, got {len(values)}")
    return [_number(v, "--seed curvature") for v in values]


def _open_output(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_output(fh: TextIO, pieces: Iterable[str]) -> None:
    """Write the pieces and close fh; an OSError, from the last flush too, names the file."""
    try:
        with fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write {fh.name}: {exc}") from exc


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
    from .gasket import GenerationLimits, canonical_quadruple, csv_chunks, generate, svg_chunks

    if args.seed is not None:
        quad = canonical_quadruple(_parse_seed(args.seed))
    else:
        kind, disks = load_document(args.input)
        if kind != "planar" or len(disks) != 4:
            raise ValueError("gasket documents need exactly 4 planar disks")
        quad = Quadruple(tuple(lift(d) for d in disks))
    limits = GenerationLimits(max_depth=args.depth, max_curvature=args.max_curvature, max_count=args.max_count)
    result = generate(quad, limits)  # raises NonFiniteOutput for a circle past the double range
    outputs = [(args.csv, csv_chunks(result))] if args.csv else []
    if args.svg:  # svg_chunks does its array work, and raises its errors, before a file is opened
        outputs.append((args.svg, svg_chunks(result, args.fill_by_depth)))
    with contextlib.ExitStack() as opened:  # every output is opened before any is written
        jobs = [(opened.enter_context(_open_output(path)), pieces) for path, pieces in outputs]
        # both writers are bound by float formatting, so where os.fork exists the SVG takes the second core
        pid = _write_in_child(*jobs.pop()) if len(jobs) == 2 and hasattr(os, "fork") else None
        try:
            for fh, pieces in jobs:
                _write_output(fh, pieces)
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) if pid else EXIT_OK
    if code == EXIT_PARSE:  # the writer process has printed why
        return EXIT_PARSE
    if code:
        raise ValueError(f"cannot write {args.svg}: writer process exited with status {code}")
    # 1/x rounds monotonically, so the largest |curvature| gives the smallest radius
    b = result.disks.vectors[:, 2]
    top = max(b.max(initial=0.0), -b.min(initial=0.0))  # np.abs would copy the column
    print(f"disks: {len(result.disks)}")
    print(f"min radius: {fmt_float(1.0 / top) if top else 'n/a'}")
    return EXIT_OK


def cmd_soddy(args: argparse.Namespace) -> int:
    curvatures, tol = [_number(b, "curvature") for b in args.curvatures], _tol(args.tol)
    unit = power_unit(curvatures)  # relation and gate have degree 2: decided scaled, then float products scale back
    residual = soddy_gosset_residual([b / unit for b in curvatures], args.dim)
    scale = sum(abs(b) / unit for b in curvatures) ** 2
    passed = abs(residual) <= tol * scale
    print(f"residual = {residual * unit * unit!r}")
    print(f"{'PASS' if passed else 'FAIL'} (tol*scale = {tol * scale * unit * unit!r})")
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
    disk = project(CircleVector(*(_number(v, "project component") for v in args.components)))
    if args.json:
        record = disk_record(disk)
        record["schema_version"] = SCHEMA_VERSION
        _emit_json(record)
    elif isinstance(disk, Circle):
        print(f"circle {fmt_float(disk.center[0])} {fmt_float(disk.center[1])} {fmt_float(disk.radius)}")
    else:
        print(f"halfplane {fmt_float(disk.normal[0])} {fmt_float(disk.normal[1])} {fmt_float(disk.offset)}")
    return EXIT_OK


COMMANDS = ("verify", "solve4", "gasket", "soddy", "lift", "project")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or, for one of COMMANDS, a parser with only that subparser under the same usage."""
    parser = argparse.ArgumentParser(
        prog="diskgeom",
        description="Tangent-disk geometry: verify configurations, solve tangency "
        "problems, grow Apollonian gaskets.",
    )
    # the full parser keeps no metavar, so a missing command is still named "command"
    sub = parser.add_subparsers(dest="command", required=True, metavar=command and "{%s}" % ",".join(COMMANDS))

    def subcommand(name: str, func: Callable, summary: str) -> Iterator[argparse.ArgumentParser]:
        """Yield the subparser of name, bound to func, when argv named name or no command; else nothing."""
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            p.set_defaults(func=func)
            yield p

    for p in subcommand("verify", cmd_verify, "check the configuration identity for 4 disks or n+2 spheres"):
        p.add_argument("input", help="JSON disk document")
        p.add_argument("--tol", type=float, default=1e-8, help="pass/fail residual gate")
        p.add_argument("--json", action="store_true", help="machine-readable report")
    for p in subcommand("solve4", cmd_solve4, "both disks tangent to 3 mutually tangent disks"):
        p.add_argument("input", help="JSON document with exactly 3 disks")
        p.add_argument("--tol", type=float, default=TANGENT_TOL, help="tangency gate on the input triple")
    for p in subcommand("gasket", cmd_gasket, "grow an Apollonian gasket, emit CSV/SVG"):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--seed", help="3 or 4 comma-separated curvatures")
        src.add_argument("--input", help="JSON document with a tangent quadruple")
        p.add_argument("--depth", type=int, help="max reflection depth")
        p.add_argument("--max-curvature", type=float, help="drop disks above this curvature")
        p.add_argument("--max-count", type=int, help="total disk cap")
        p.add_argument("--svg", help="write an SVG rendering here")
        p.add_argument("--csv", help="write depth,curvature,x,y rows here")
        p.add_argument("--fill-by-depth", action="store_true", help="color SVG fills by depth")
    for p in subcommand("soddy", cmd_soddy, "n-dimensional tangent-curvature residual"):
        p.add_argument("--dim", type=int, required=True, help="ambient dimension n")
        p.add_argument("--tol", type=float, default=1e-8, help="relative pass gate")
        p.add_argument("curvatures", nargs="+", type=float, help="n+2 curvature values")
    for p in subcommand("lift", cmd_lift, "print the 4-vector of a circle or halfplane"):
        p.add_argument("kind", choices=["circle", "halfplane"])
        p.add_argument("values", nargs=3, type=float, metavar="V", help="circle: X Y R; halfplane: NX NY OFFSET")
        p.add_argument("--json", action="store_true")
    for p in subcommand("project", cmd_project, "print the disk behind a 4-vector"):
        p.add_argument("components", nargs=4, type=float, metavar="C", help="XDOT YDOT BETA GAMMA")
        p.add_argument("--json", action="store_true")

    return parser


# every other error, such as a ValueError, ZeroRadius or EmptyGasket, exits EXIT_PARSE
_ERROR_CODES: list[tuple[type | tuple[type, ...], int]] = [
    ((SingularMatrix, NonFiniteOutput), EXIT_DEGENERATE_CONFIG),
    (NotTangent, EXIT_NOT_TANGENT),
    (DegenerateTriple, EXIT_DEGENERATE_TRIPLE),
    ((ComplexRoots, InvalidSeed), EXIT_INVALID_SEED),
    ((NotNormalized, NotSpacelike), EXIT_NOT_NORMALIZED),
]


def _join_seed_flag(argv: Sequence[str]) -> list[str]:
    # lets "--seed -1,2,2,3" survive argparse's option detection
    out = list(argv)
    for i, tok in enumerate(out[:-1]):
        if tok == "--seed" and out[i + 1].startswith("-"):
            out[i : i + 2] = [f"--seed={out[i + 1]}"]
            break
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:  # every report, argparse's help too, is captured, so stdout is written, and can fail, in one place
        with contextlib.redirect_stdout(io.StringIO()) as report:
            argv = _join_seed_flag(sys.argv[1:] if argv is None else argv)
            args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
            code = args.func(args)
    except SystemExit as exc:  # argparse printed the help or a usage error
        code = exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except (ValueError, DiskGeomError) as exc:  # ValueError: the library's invalid arguments
        print(f"error: {exc}", file=sys.stderr)
        code = next((mapped for err_type, mapped in _ERROR_CODES if isinstance(exc, err_type)), EXIT_PARSE)
    if report.tell():
        try:
            if sys.stdout is None:  # Python found fd 1 closed at startup
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            print(report.getvalue(), end="", flush=True)
        except OSError as exc:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            if sys.stdout is not None:  # devnull takes what stays buffered, so Python's flush at exit cannot fail
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
