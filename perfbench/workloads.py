"""Inputs, operations and output checks of the diskgeom benchmark workloads.

Shared by the end-to-end runs (run.py, child.py) and the traced pass
(tracing.py), so every mode runs the same inputs through the same checks.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

EPS = sys.float_info.epsilon
# Residual bounds are ERROR_ULPS * eps * scale, where scale follows the
# README error model (a lifted disk rounds at eps*|c|^2/r^2).  The worst
# measured ratio residual/(eps*scale) was 1.45 over 40,000 planar roots and
# 0.53 over every n-sphere configuration, so 16 leaves a wide margin.
ERROR_ULPS = 16.0
# verify_generalized inverts the Gramian of the lifted disks and multiplies
# it back by D, so the eps*scale rounding of each Gramian entry comes back
# amplified by |D|^2, which is about scale: its residual is bounded by
# GRAMIAN_ULPS * eps * scale^2.  The worst measured ratio
# residual/(eps*scale^2) was 368 over 600,000 planar quadruples (the
# 99.9th percentile was 92), so 4096 leaves a margin for the heavy tail.
GRAMIAN_ULPS = 4096.0

# Closed-loop gasket workloads: one CLI process per operation.  Their inputs
# are fixed because the outputs are checked byte for byte against digests
# recorded at the seed commit (the ROADMAP regression contract).
GASKETS = {
    "gasket_depth": {
        "argv": ["gasket", "--seed", "-1,2,2,3", "--depth", "10"],
        "curvatures": (-1.0, 2.0, 2.0, 3.0),
        "disks": 4 + 2 * (3**10 - 1),
        "csv_sha256": "b44154504ae9b12812e964247a160bfc6ca3153d79fa2fdc91319d1ffa67ca17",
        "svg_sha256": "40ae66cdf1cfc7dc6c11d15d442e72a816f394d92cf77f3f782ea98fb2244513",
    },
    "gasket_pruned": {
        "argv": [
            "gasket", "--seed", "0.7,1.3,2.9", "--max-curvature", "5000",
            "--max-count", "100000", "--fill-by-depth",
        ],
        "curvatures": (0.7, 1.3, 2.9),
        "disks": 100000,
        "csv_sha256": "067e7857172b8d805bdd7f512d1440d86d8aaafe1255497b8e451aebe376cfe9",
        "svg_sha256": "223123c8536edd8694992fd9001d92a650dbe6ba84996d32ab03f807ab4ba751",
    },
}
QUERIES = "queries"
WORKLOADS = (*GASKETS, QUERIES)


def gasket_argv(name: str, csv_path: Path, svg_path: Path) -> list[str]:
    return [*GASKETS[name]["argv"], "--csv", str(csv_path), "--svg", str(svg_path)]


def check_gasket(name: str, stdout: str, csv_path: Path, svg_path: Path) -> list[str]:
    """Problems with one gasket run's outputs; empty when all match."""
    spec = GASKETS[name]
    problems = []
    counts = [line.split(":", 1)[1].strip() for line in stdout.splitlines() if line.startswith("disks:")]
    if counts != [str(spec["disks"])]:
        problems.append(f"summary disk count {counts!r}, expected {spec['disks']}")
    for path, key in ((csv_path, "csv_sha256"), (svg_path, "svg_sha256")):
        if not path.is_file():
            problems.append(f"{path.name} not written")
            continue
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        if digest != spec[key]:
            problems.append(f"{path.name} sha256 {digest}, expected {spec[key]}")
    return problems


# ---------------------------------------------------------------- queries

# Planar triples use the acceptance-corpus range: centers within +-100 and
# radii log-uniform in [1e-3, 10].  Part of this range is rejected by the
# kernel's absolute tolerances today; those rejections are kept and counted.
CENTER_LIMIT = 100.0
LOG10_RADIUS = (-3.0, 1.0)
PLANAR_POOL = 20000
DOCUMENT_POOL = 128
NSPHERE_DIMS = range(2, 9)
# Each block of 20 queries holds 10 planar, 9 n-sphere and 1 document query
# in a seeded order, so the proportions are fixed and the order is not.
# There is no usage data to weight the kinds by.  The rule is instead an
# equal share of busy time per kind at the seed commit, where one query
# took about 230 us (planar), 260 us (n-sphere) and 2.2 ms (document).
MIX_BLOCK = ("planar",) * 10 + ("nsphere",) * 9 + ("document",)
QUERY_KINDS = ("planar", "nsphere", "document")
# CLI exit codes that mean "valid input refused", by the error they report.
REJECTION_EXITS = {
    1: "CheckFailed",
    3: "SingularMatrix",
    4: "NotTangent",
    5: "DegenerateTriple",
    6: "InvalidSeed",
    7: "NotNormalized",
}


def _radius(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(*LOG10_RADIUS)


def tangent_triple(rng: random.Random) -> tuple[tuple[float, float, float], ...]:
    """Three mutually externally tangent circles (x, y, r), all centers in range."""
    while True:
        x1, y1 = rng.uniform(-CENTER_LIMIT, CENTER_LIMIT), rng.uniform(-CENTER_LIMIT, CENTER_LIMIT)
        r1, r2, r3 = _radius(rng), _radius(rng), _radius(rng)
        d12, d13, d23 = r1 + r2, r1 + r3, r2 + r3
        theta = rng.uniform(0.0, 2.0 * math.pi)
        cos_phi = (d12 * d12 + d13 * d13 - d23 * d23) / (2.0 * d12 * d13)
        phi = math.copysign(math.acos(max(-1.0, min(1.0, cos_phi))), rng.random() - 0.5)
        x2, y2 = x1 + d12 * math.cos(theta), y1 + d12 * math.sin(theta)
        x3, y3 = x1 + d13 * math.cos(theta + phi), y1 + d13 * math.sin(theta + phi)
        if max(abs(x2), abs(y2), abs(x3), abs(y3)) <= CENTER_LIMIT:
            return (x1, y1, r1), (x2, y2, r2), (x3, y3, r3)


def inner_soddy(triple) -> tuple[float, float, float]:
    """Fourth circle inside the triple's gap, by the complex Descartes theorem."""
    ks = [1.0 / r for _, _, r in triple]
    zs = [complex(x, y) for x, y, _ in triple]
    k4 = sum(ks) + 2.0 * math.sqrt(ks[0] * ks[1] + ks[1] * ks[2] + ks[2] * ks[0])
    base = sum(k * z for k, z in zip(ks, zs))
    root = 2.0 * cmath.sqrt(
        ks[0] * ks[1] * zs[0] * zs[1] + ks[1] * ks[2] * zs[1] * zs[2] + ks[2] * ks[0] * zs[2] * zs[0]
    )
    r4 = 1.0 / k4

    def miss(z: complex) -> float:
        return max(abs(abs(z - zi) - (ri + r4)) for zi, (_, _, ri) in zip(zs, triple))

    z4 = min(((base + root) / k4, (base - root) / k4), key=miss)
    return z4.real, z4.imag, r4


def lift_xyr(x: float, y: float, r: float) -> tuple[float, float, float, float]:
    """The README lift, computed here so checks do not trust the kernel's own."""
    return x / r, y / r, 1.0 / r, (x * x + y * y - r * r) / r


def _scale(vectors) -> float:
    """max(1, |c|^2/r^2) over lifted disks: the README error model's scale."""
    return max(1.0, max(v[0] * v[0] + v[1] * v[1] + abs(v[2] * v[3]) for v in vectors))


def _gramian_ok(residual, vectors) -> bool:
    return 0.0 <= residual <= GRAMIAN_ULPS * EPS * _scale(vectors) ** 2


def _tangency_ok(root, triple_vectors) -> bool:
    """Each pair product is 1 within ERROR_ULPS*eps*max(|c|^2/r^2) of the four disks."""
    bound = ERROR_ULPS * EPS * _scale([tuple(root), *triple_vectors])
    for v in triple_vectors:
        product = -root[0] * v[0] - root[1] * v[1] + 0.5 * (root[2] * v[3] + v[2] * root[3])
        if not abs(product - 1.0) <= bound:
            return False
    return True


def _projection_ok(root, disk) -> bool:
    """`project` inverts the lift: center (xdot, ydot)/beta and radius 1/beta."""
    xdot, ydot, beta, _ = root
    got = (*disk.center, disk.radius)
    expected = (xdot / beta, ydot / beta, 1.0 / beta)
    return all(abs(g - e) <= ERROR_ULPS * EPS * abs(e) for g, e in zip(got, expected))


class QueryCorpus:
    """Seeded query inputs; documents are written to `work` on construction."""

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.seed = seed
        self.triples = [tangent_triple(rng) for _ in range(PLANAR_POOL)]
        self.documents = []
        for k in range(DOCUMENT_POOL):
            circles = list(tangent_triple(rng))
            path = work / f"doc{k}.json"
            if k % 2:
                circles.append(inner_soddy(circles))
                argv = ["verify", str(path), "--json"]
            else:
                argv = ["solve4", str(path)]
            disks = [{"type": "circle", "center": [x, y], "radius": r} for x, y, r in circles]
            path.write_text(json.dumps({"disks": disks}), encoding="utf-8")
            self.documents.append((argv, circles))

    def stream(self):
        """Endless (kind, payload) sequence; the same seed gives the same sequence."""
        rng = random.Random(self.seed + 1)
        block = list(MIX_BLOCK)
        planar = 0
        while True:
            rng.shuffle(block)
            for kind in block:
                if kind == "planar":
                    yield kind, self.triples[planar % PLANAR_POOL]
                    planar += 1
                elif kind == "nsphere":
                    yield kind, (rng.choice(NSPHERE_DIMS), rng.random() < 0.5)
                else:
                    yield kind, rng.choice(self.documents)


def run_query(dg, kind: str, payload):
    """One query through the public API of `dg` (the diskgeom package).

    Names are looked up on the package at call time so the traced pass can
    wrap them.  Returns what the output check needs.
    """
    if kind == "planar":
        vectors = [dg.lift(dg.Circle((x, y), r)) for x, y, r in payload]
        roots = dg.solve_fourth_disk(*vectors)
        residual = dg.verify_generalized([*vectors, roots[0]])
        return roots, residual, [dg.project(root) for root in roots]
    if kind == "nsphere":
        n, outer = payload
        vectors = [dg.lift_sphere(s) for s in dg.canonical_simplex_config(n, outer)]
        residual = dg.verify_generalized_n(vectors)
        soddy = dg.soddy_gosset_residual([v.beta for v in vectors], n)
        return vectors, residual, soddy
    argv, _ = payload
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dg.cli.main(argv)
    return code, out.getvalue()


def _judge(kind: str, payload, result) -> str:
    if kind == "planar":
        (roots, residual, disks), triple_vectors = result, [lift_xyr(*c) for c in payload]
        roots = [tuple(r) for r in roots]
        ok = (
            all(_tangency_ok(r, triple_vectors) for r in roots)
            and _gramian_ok(residual, [*triple_vectors, roots[0]])
            and len(disks) == len(roots)
            and all(_projection_ok(r, d) for r, d in zip(roots, disks))
        )
        return "ok" if ok else "failed"
    if kind == "nsphere":
        (n, _), (vectors, residual, soddy) = payload, result
        biggest = max(1.0, max(abs(c) for v in vectors for c in v.as_array()))
        curvature_sum = sum(abs(v.beta) for v in vectors)
        ok = residual <= ERROR_ULPS * EPS * (n + 2) * biggest**2 and abs(soddy) <= (
            ERROR_ULPS * EPS * n * curvature_sum**2
        )
        return "ok" if ok else "failed"
    (argv, circles), (code, stdout) = payload, result
    vectors = [lift_xyr(*c) for c in circles]
    if argv[0] == "solve4":
        if code != 0:
            return REJECTION_EXITS.get(code, "failed")
        solutions = json.loads(stdout)["solutions"]
        roots = [lift_xyr(*s["center"], s["radius"]) for s in solutions]
        return "ok" if len(roots) == 2 and all(_tangency_ok(r, vectors) for r in roots) else "failed"
    if code not in (0, 1):
        return REJECTION_EXITS.get(code, "failed")
    # The CLI's own --tol decides pass or fail.  The residual is judged
    # against the error model instead, so that a change of gate shows up
    # in accept_rate and not as wrong output.
    report = json.loads(stdout)
    if report["pass"] != (code == 0) or not _gramian_ok(report["residual"], vectors):
        return "failed"
    return "ok" if code == 0 else REJECTION_EXITS[1]


def attempt(dg, kind: str, payload):
    """Run one query; returns (result, None), or (None, outcome) when it raised."""
    try:
        return run_query(dg, kind, payload), None
    except dg.DiskGeomError as exc:
        return None, type(exc).__name__
    except Exception as exc:  # a crash is a wrong answer: report it, keep measuring
        print(f"query {kind} crashed: {exc!r}", file=sys.stderr)
        return None, "failed"


def classify(kind: str, payload, result, raised: str | None) -> str:
    """'ok', the name of a valid-input rejection, or 'failed' for wrong output."""
    if raised is not None:
        return raised
    try:
        return _judge(kind, payload, result)
    except (AttributeError, KeyError, TypeError, ValueError):  # malformed output
        return "failed"


def tally(outcomes: dict) -> tuple[int, int, dict[str, int]]:
    """(attempted, failed, rejections by type) from an outcome counter."""
    rejected = {k: v for k, v in outcomes.items() if k not in ("ok", "failed")}
    return sum(outcomes.values()), outcomes.get("failed", 0), rejected
