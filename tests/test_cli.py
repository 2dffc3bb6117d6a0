import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diskgeom import DiskGeomError, Gasket, GenerationLimits, canonical_quadruple, generate, render_svg
from diskgeom import cli
from diskgeom.cli import main
from diskgeom.gasket import CHUNK_ROWS, GasketDisks, GasketQuadruples, _depth_fill, csv_chunks, svg_chunks
from diskgeom.minkowski import halfplane_geometry

QUAD_DOC = {
    "disks": [
        {"type": "circle", "center": [0.0, 0.0], "radius": -1.0},
        {"type": "circle", "center": [-0.5, 0.0], "radius": 0.5},
        {"type": "circle", "center": [0.5, 0.0], "radius": 0.5},
        {"type": "circle", "center": [0.0, 2.0 / 3.0], "radius": 1.0 / 3.0},
    ]
}

TRIPLE_DOC = {
    "disks": [
        {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "circle", "center": [2.0, 0.0], "radius": 1.0},
        {"type": "circle", "center": [1.0, math.sqrt(3.0)], "radius": 1.0},
    ]
}

STRIP_TRIPLE_DOC = {
    "disks": [
        {"type": "halfplane", "normal": [0.0, 1.0], "offset": 0.0},
        {"type": "halfplane", "normal": [0.0, -1.0], "offset": -2.0},
        {"type": "circle", "center": [0.0, 1.0], "radius": 1.0},
    ]
}

# three unit circles plus the inner tangent circle; irrational geometry,
# so the identity residual is tiny but nonzero
EQUILATERAL_QUAD_DOC = {
    "disks": TRIPLE_DOC["disks"]
    + [
        {
            "type": "circle",
            "center": [1.0, 1.0 / math.sqrt(3.0)],
            "radius": 2.0 / math.sqrt(3.0) - 1.0,
        }
    ]
}

# four unit circles at the corners of a square of side 5
NON_TANGENT_QUAD_DOC = {
    "disks": [
        {"type": "circle", "center": [x, y], "radius": 1.0}
        for x, y in [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
    ]
}

SPHERE_DOC = {
    "dim": 3,
    "disks": [
        {"type": "sphere", "center": c, "radius": r}
        for c, r in [
            ([1.0, 1.0, 1.0], 1.0),
            ([1.0, -1.0, -1.0], 1.0),
            ([-1.0, 1.0, -1.0], 1.0),
            ([-1.0, -1.0, 1.0], 1.0),
            ([0.0, 0.0, 0.0], math.sqrt(3.0) - 1.0),
        ]
    ],
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestVerify:
    def test_quadruple_passes(self, tmp_path, capsys):
        code = main(["verify", write_doc(tmp_path, QUAD_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "f =" in out and "F = f^-1" in out and "residual" in out

    def test_json_report(self, tmp_path, capsys):
        code = main(["verify", write_doc(tmp_path, QUAD_DOC), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["schema_version"] == 1
        assert report["pass"] is True
        assert report["residual"] < 1e-9
        assert len(report["gramian"]) == 4
        assert len(report["inverse"]) == 4

    def test_sphere_document(self, tmp_path, capsys):
        code = main(["verify", write_doc(tmp_path, SPHERE_DOC), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["pass"] is True
        assert len(report["gramian"]) == 5

    def test_tiny_tolerance_fails_check(self, tmp_path, capsys):
        code = main(["verify", write_doc(tmp_path, EQUILATERAL_QUAD_DOC), "--tol", "1e-30"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_three_disks_is_parse_error(self, tmp_path, capsys):
        code = main(["verify", write_doc(tmp_path, TRIPLE_DOC)])
        assert code == 2
        assert capsys.readouterr().err == "error: need n+2 = 4 vectors for n = 2, got 3\n"

    def test_one_sphere_is_parse_error(self, tmp_path, capsys):
        doc = {"dim": 3, "disks": SPHERE_DOC["disks"][:1]}
        assert main(["verify", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "error: need n+2 = 5 vectors for n = 3, got 1\n"

    def test_repeated_disk_is_degenerate(self, tmp_path):
        doc = {"disks": [QUAD_DOC["disks"][0]] * 2 + QUAD_DOC["disks"][2:]}
        assert main(["verify", write_doc(tmp_path, doc)]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"disks": [{"type": "circle", "center": [NaN, 0], "radius": 1}]}')
        assert main(["verify", str(path)]) == 2

    def test_zero_radius_rejected(self, tmp_path):
        doc = {"disks": [{"type": "circle", "center": [0, 0], "radius": 0}] * 4}
        assert main(["verify", write_doc(tmp_path, doc)]) == 2

    # a numpy RuntimeWarning would reach a real user's stderr ahead of the error line
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize(
        "x, message",
        [
            # x^2 overflows in the lift, so the Gramian holds a nan
            (1e200, "non-finite entry nan at (0, 0)"),
            # the lift is finite but the Gramian entries near 1e300
            (1e150, "is below 1e-12"),
        ],
    )
    def test_huge_center_is_degenerate(self, tmp_path, capsys, x, message, mode):
        doc = {"disks": [{"type": "circle", "center": [x, 0.0], "radius": 1.0}] + QUAD_DOC["disks"][1:]}
        code = main(["verify", write_doc(tmp_path, doc), *mode])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and message in err


class TestSolve4:
    def test_equilateral(self, tmp_path, capsys):
        code = main(["solve4", write_doc(tmp_path, TRIPLE_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["schema_version"] == 1
        sols = out["solutions"]
        assert len(sols) == 2
        assert sols[0]["curvature"] == pytest.approx(3 + 2 * math.sqrt(3), abs=1e-9)
        assert sols[1]["curvature"] == pytest.approx(3 - 2 * math.sqrt(3), abs=1e-9)
        for sol in sols:
            assert sol["type"] == "circle"
            assert sol["center"][0] == pytest.approx(1.0, abs=1e-9)
            assert sol["center"][1] == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-9)
            assert abs(sol["descartes_residual"]) <= 1e-9

    def test_strip_triple(self, tmp_path, capsys):
        code = main(["solve4", write_doc(tmp_path, STRIP_TRIPLE_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        centers = sorted(sol["center"][0] for sol in out["solutions"])
        assert centers == pytest.approx([-2.0, 2.0], abs=1e-9)
        assert all(sol["radius"] == pytest.approx(1.0, abs=1e-9) for sol in out["solutions"])

    def test_roundtrip_through_verify(self, tmp_path, capsys):
        main(["solve4", write_doc(tmp_path, TRIPLE_DOC)])
        solution = json.loads(capsys.readouterr().out)["solutions"][0]
        doc = {"disks": TRIPLE_DOC["disks"] + [solution]}
        assert main(["verify", write_doc(tmp_path, doc, "roundtrip.json")]) == 0

    def test_not_tangent(self, tmp_path, capsys):
        doc = {
            "disks": [
                {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
                {"type": "circle", "center": [5.0, 0.0], "radius": 1.0},
                {"type": "circle", "center": [0.0, 5.0], "radius": 1.0},
            ]
        }
        code = main(["solve4", write_doc(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 4
        assert err == "error: disks 1 and 2 are not tangent, residual 23.0 exceeds 1e-06\n"

    def test_repeated_disk(self, tmp_path):
        doc = {"disks": [TRIPLE_DOC["disks"][0]] * 2 + [TRIPLE_DOC["disks"][1]]}
        assert main(["solve4", write_doc(tmp_path, doc)]) == 5

    # a subnormal radius has no finite curvature, so lift names it rather than the solver failing on an inf
    def test_radius_of_overflowing_curvature(self, tmp_path, capsys):
        doc = {"disks": [{"type": "circle", "center": [0.0, 0.0], "radius": 5e-324}] + TRIPLE_DOC["disks"][1:]}
        assert main(["solve4", write_doc(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == "error: radius 5e-324 is too small: its curvature 1/r is past the double range\n"

    def test_wrong_count(self, tmp_path):
        assert main(["solve4", write_doc(tmp_path, QUAD_DOC)]) == 2


# a finite curvature but a reduced center c/r past the double range: each subcommand that lifts names the
# disk and exits 2, where solve4, verify, gasket --input and lift used to exit 5, 3, 6 and 0
@pytest.mark.parametrize(
    "argv",
    [
        ["solve4", "{triple}"],
        ["verify", "{quad}"],
        ["gasket", "--input", "{quad}", "--depth", "1"],
        ["lift", "circle", "1e10", "0", "1e-300"],
    ],
)
def test_reduced_center_past_the_double_range_is_named(argv, tmp_path, capsys):
    far = {"type": "circle", "center": [1e10, 0.0], "radius": 1e-300}
    triple = write_doc(tmp_path, {"disks": [far] + TRIPLE_DOC["disks"][1:]}, "triple.json")
    quad = write_doc(tmp_path, {"disks": [far] + QUAD_DOC["disks"][1:]}, "quad.json")
    assert main([a.format(triple=triple, quad=quad) for a in argv]) == 2
    message = "radius 1e-300 is too small for center (10000000000.0, 0.0): c/r is past the double range"
    assert capsys.readouterr().err == f"error: {message}\n"


def empty_gasket(seed, limits):
    disks = GasketDisks(np.empty((0, 4)), np.empty(0, np.intp), np.empty(0, np.intp))
    return Gasket(disks, GasketQuadruples(np.empty((0, 4), np.intp), disks.vectors))


class TestGasket:
    def test_csv_census(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(["gasket", "--seed", "-1,2,2,3", "--depth", "1", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "disks: 8" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "depth,curvature,x,y"
        assert len(lines) == 9
        curvatures = sorted(float(line.split(",")[1]) for line in lines[1:])
        assert curvatures == pytest.approx([-1, 2, 2, 3, 3, 6, 6, 15], abs=1e-9)

    def test_halfplane_rows_print_no_negative_zero(self, tmp_path):
        # the boundary y = 0 of the first halfplane passes through the origin, its anchor point
        doc = {"disks": [*STRIP_TRIPLE_DOC["disks"], {"type": "circle", "center": [2.0, 1.0], "radius": 1.0}]}
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        outputs = ["--csv", str(csv_path), "--svg", str(svg_path)]
        assert main(["gasket", "--input", write_doc(tmp_path, doc), "--depth", "1", *outputs]) == 0
        for path in (csv_path, svg_path):
            text = path.read_text()
            assert "0.0" in text and "-0.0" not in re.split(r'[\s,"]', text)

    def test_svg_depth_zero(self, tmp_path):
        svg_path = tmp_path / "out.svg"
        code = main(["gasket", "--seed", "-1,2,2,3", "--depth", "0", "--svg", str(svg_path)])
        assert code == 0
        assert svg_path.read_text().count("<circle ") == 4

    def test_document_seed(self, tmp_path, capsys):
        code = main(
            ["gasket", "--input", write_doc(tmp_path, QUAD_DOC), "--depth", "2"]
        )
        assert code == 0
        assert "disks: 20" in capsys.readouterr().out

    def test_non_tangent_document_seed(self, tmp_path, capsys):
        assert main(["gasket", "--input", write_doc(tmp_path, NON_TANGENT_QUAD_DOC), "--depth", "1"]) == 6
        err = capsys.readouterr().err
        assert err == "error: disks 0 and 3 are not tangent, residual 23.0 exceeds 1e-06\n"

    @pytest.mark.parametrize(
        "scale, code, err",
        [
            # lifted, these miss <v,v> = -1 by up to 1.5e-8: within the 1e-6 of project and validate
            (1e-2, 0, ""),
            # and these by 1.9e-6, past it
            (1e-3, 6, "error: vector 1 (60002.0, 80000.0, 1000.0, 10000240.002999999) has "
             "<v,v> = -1.0000019073486328, expected -1 within 1e-06\n"),
        ],
    )
    def test_document_seed_normalization_gate(self, scale, code, err, tmp_path, capsys):
        disks = []
        for d in EQUILATERAL_QUAD_DOC["disks"]:
            (x, y), r = d["center"], d["radius"]
            center = [x * scale + 60.0, y * scale + 80.0]
            disks.append({"type": "circle", "center": center, "radius": r * scale})
        assert main(["gasket", "--input", write_doc(tmp_path, {"disks": disks}), "--depth", "1"]) == code
        assert capsys.readouterr().err == err

    def test_overflowing_document_seed(self, tmp_path, capsys):
        # the lifts overflow, so <v,v> is nan, which fails the normalization gate
        disks = [{"type": "circle", "center": [1e200, 2.0 * k], "radius": 1.0} for k in range(4)]
        doc, csv_path = write_doc(tmp_path, {"disks": disks}), tmp_path / "out.csv"
        assert main(["gasket", "--input", doc, "--depth", "1", "--csv", str(csv_path)]) == 6
        assert capsys.readouterr().err == (
            "error: vector 0 (1e+200, 0.0, 1.0, inf) has <v,v> = nan, expected -1 within 1e-06\n"
        )
        assert not csv_path.exists()

    def test_document_seed_needs_four_disks(self, tmp_path, capsys):
        assert main(["gasket", "--input", write_doc(tmp_path, TRIPLE_DOC), "--depth", "1"]) == 2
        assert capsys.readouterr().err == "error: gasket documents need exactly 4 planar disks\n"

    @pytest.mark.parametrize(
        "seed, message",
        [
            ("1,x,2", "invalid --seed value '1,x,2': could not convert string to float: 'x'"),
            ("1,2", "--seed needs 3 or 4 comma-separated curvatures, got 2"),
            ("inf,1,1", "--seed curvature must be finite, got inf"),
        ],
    )
    def test_bad_seed_argument(self, seed, message, capsys):
        assert main(["gasket", "--seed", seed, "--depth", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_triple_seed(self, tmp_path, capsys):
        code = main(["gasket", "--seed", "1,1,1", "--depth", "0"])
        assert code == 0
        assert "disks: 4" in capsys.readouterr().out

    def test_invalid_seed(self, capsys):
        assert main(["gasket", "--seed", "1,1,-1", "--depth", "1"]) == 6

    def test_descartes_violation(self):
        assert main(["gasket", "--seed", "1,1,1,5", "--depth", "1"]) == 6

    def test_halfplane_seed_with_only_a_curvature_limit(self, capsys):
        assert main(["gasket", "--seed", "0,1,2", "--max-curvature", "10"]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: seed vector 0 is a halfplane") and err.count("\n") == 1

    # the exact size of a depth-limited run is allocated up front, so a size no
    # machine holds fails at once (MemoryError at depth 30, a numpy ValueError at 40)
    @pytest.mark.parametrize("depth, count", [(30, 411782264189300), (40, 24315330918113857604)])
    def test_unallocatable_depth_fails_fast(self, depth, count, tmp_path, capsys):
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        args = ["gasket", "--seed", "-1,2,2,3", "--depth", str(depth)]
        assert main(args + ["--csv", str(csv_path), "--svg", str(svg_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: cannot allocate the arrays of {count} disks: ")
        assert not csv_path.exists() and not svg_path.exists()

    # a radius of 1e310 is not a double: the CSV got an inf center and the SVG a nan viewBox
    @pytest.mark.parametrize("seed", ["1,1,1e-310", "1,1,-1e-310"])
    def test_circle_past_the_double_range_fails_before_a_file_opens(self, seed, tmp_path, capsys):
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        assert main(["gasket", f"--seed={seed}", "--depth", "1", "--csv", str(csv_path), "--svg", str(svg_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: disk 2 has a non-finite radius or center\n"
        assert not csv_path.exists() and not svg_path.exists()

    def test_svg_viewport_past_the_double_range_fails_before_a_file_opens(self, tmp_path, capsys):
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        argv = ["gasket", "--seed=1.7,-5.9e-309,6", "--depth", "1", "--csv", str(csv_path), "--svg", str(svg_path)]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the SVG viewport -inf -inf inf inf is not finite\n"
        assert not csv_path.exists() and not svg_path.exists()

    def test_empty_gasket_rejected_before_svg_is_opened(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("diskgeom.gasket.generate", empty_gasket)
        svg_path = tmp_path / "out.svg"
        assert main(["gasket", "--seed", "-1,2,2,3", "--depth", "1", "--svg", str(svg_path)]) == 2
        assert "no disks" in capsys.readouterr().err
        assert not svg_path.exists()

    def test_empty_gasket_has_no_min_radius(self, monkeypatch, capsys):
        monkeypatch.setattr("diskgeom.gasket.generate", empty_gasket)
        assert main(["gasket", "--seed", "-1,2,2,3", "--depth", "1"]) == 0
        assert capsys.readouterr().out == "disks: 0\nmin radius: n/a\n"

    @pytest.mark.parametrize("both", [False, True], ids=["alone", "both"])
    @pytest.mark.parametrize("flag", ["--csv", "--svg"])
    def test_missing_output_directory(self, flag, both, tmp_path, monkeypatch, capsys):
        bad, other = str(tmp_path / "missing" / "out"), tmp_path / "other"
        args = ["gasket", "--seed", "-1,2,2,3", "--depth", "1", flag, bad]
        if both:
            args += ["--svg" if flag == "--csv" else "--csv", str(other)]
        for forks in (True, False):  # where os.fork exists, and where it does not
            if not forks:
                monkeypatch.delattr(os, "fork", raising=False)
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1
            if both:  # every output is opened, the CSV first, before any is written
                assert (other.read_bytes() == b"") if flag == "--svg" else not other.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_svg_writer_failure_reaches_exit_code(self, tmp_path, capfd):
        csv_path = tmp_path / "out.csv"
        args = ["gasket", "--seed", "-1,2,2,3", "--depth", "3", "--csv", str(csv_path), "--svg", "/dev/full"]
        assert main(args) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1
        assert "No space left on device" in err
        assert csv_path.read_text().count("\n") == 1 + 56

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_writer_leaves_no_output_or_zombie(self, tmp_path, capfd):
        args = ["gasket", "--seed", "-1,2,2,3", "--depth", "3"]
        args += ["--csv", str(tmp_path / "out.csv"), "--svg", str(tmp_path / "out.svg")]
        for _ in range(2):
            assert main(args) == 0
            out, err = capfd.readouterr()
            assert out.count("disks:") == 1 and err == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_infinite_curvature_limit(self, capsys):
        # with a depth limit too, so that a cap let through could not grow without end
        assert main(["gasket", "--seed", "2,2,3", "--max-curvature", "inf", "--depth", "1"]) == 2
        assert capsys.readouterr().err == "error: max_curvature must be a finite real number > 0, got inf\n"

    def test_missing_limits(self, capsys):
        code = main(["gasket", "--seed", "-1,2,2,3"])
        assert code == 2
        assert "at least one" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["gasket", "--seed", "-1,2,2,3", "--depth", "3"]
        outputs = []
        for run in range(2):
            csv_path = tmp_path / f"run{run}.csv"
            svg_path = tmp_path / f"run{run}.svg"
            code = main(args + ["--csv", str(csv_path), "--svg", str(svg_path)])
            assert code == 0
            outputs.append(
                (
                    capsys.readouterr().out,
                    csv_path.read_bytes(),
                    svg_path.read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


class TestSoddy:
    def test_planar_quadruple(self, capsys):
        code = main(["soddy", "--dim", "2", "--", "-1", "2", "2", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "residual = 0" in out

    def test_three_dimensional_root(self):
        code = main(["soddy", "--dim", "3", "--", "1", "1", "1", "1", "4.449489742783178"])
        assert code == 0

    def test_failing_configuration(self, capsys):
        code = main(["soddy", "--dim", "3", "--", "1", "1", "1", "1", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "residual = 10" in out

    def test_wrong_count(self, capsys):
        assert main(["soddy", "--dim", "3", "--", "1", "1", "1"]) == 2
        assert capsys.readouterr().err == "error: need n+2 = 5 curvatures for n = 3, got 3\n"

    def test_negative_dimension(self, capsys):
        # the dimension is checked before the count
        assert main(["soddy", "--dim", "-5", "--", "1"]) == 2
        assert capsys.readouterr().err == "error: dimension must be >= 2, got -5\n"

    def test_dimension_below_two(self, capsys):
        # n + 2 = 3 curvatures for n = 1, so the count passes and the dimension is refused
        assert main(["soddy", "--dim", "1", "1", "1", "1"]) == 2
        assert capsys.readouterr().err == "error: dimension must be >= 2, got 1\n"

    def test_infinite_curvature(self, capsys):
        assert main(["soddy", "--dim", "2", "--", "inf", "1", "1", "1"]) == 2
        assert capsys.readouterr().err == "error: curvature must be finite, got inf\n"

    @pytest.mark.parametrize(
        "curvatures, code, out",
        [
            ("-1 2 2 3", 0, "residual = 0.0\nPASS (tol*scale = 6.4e-07)\n"),
            ("1 1 1 1", 1, "residual = 8.0\nFAIL (tol*scale = 1.6e-07)\n"),
            ("0.7 1.3 2.9 9.1", 1, "residual = 9.200000000000017\nFAIL (tol*scale = 1.96e-06)\n"),
        ],
    )
    def test_report_of_ordinary_curvatures(self, curvatures, code, out, capsys):
        # scaling by a power of 2 and back is exact here, so the lines are those of the unscaled sums
        assert main(["soddy", "--dim", "2", "--", *curvatures.split()]) == code
        assert capsys.readouterr().out == out

    # the verdict is taken on the curvatures scaled by a power of 2, so it does not depend on
    # their scale; the printed values are scaled back and overflow to inf or underflow to 0.0
    def test_huge_tangent_quadruple_passes(self, capsys):
        assert main(["soddy", "--dim", "2", "--", "-1e155", "2e155", "2e155", "3e155"]) == 0
        assert capsys.readouterr().out == "residual = 0.0\nPASS (tol*scale = 6.4e+303)\n"

    def test_overflowing_residual_fails(self, capsys):
        assert main(["soddy", "--dim", "3", "--", "0", "-0", "1e200", "-0", "-1"]) == 1
        assert capsys.readouterr().out == "residual = -inf\nFAIL (tol*scale = inf)\n"

    def test_tiny_equal_curvatures_fail(self, capsys):
        # as 1 1 1 1 do, whose residual is 8
        assert main(["soddy", "--dim", "2", "--", "1e-300", "1e-300", "1e-300", "1e-300"]) == 1
        assert capsys.readouterr().out == "residual = 0.0\nFAIL (tol*scale = 0.0)\n"

    def test_tiny_tangent_quadruple_passes(self, capsys):
        assert main(["soddy", "--dim", "2", "--", "-1e-160", "2e-160", "2e-160", "3e-160"]) == 0
        assert capsys.readouterr().out == "residual = 0.0\nPASS (tol*scale = 0.0)\n"


class TestLiftProject:
    def test_lift_circle(self, capsys):
        assert main(["lift", "circle", "0", "0", "1"]) == 0
        assert capsys.readouterr().out == "0 0 1 -1\n"

    def test_lift_halfplane(self, capsys):
        assert main(["lift", "halfplane", "0", "1", "0"]) == 0
        assert capsys.readouterr().out == "0 -1 0 0\n"

    def test_lift_json(self, capsys):
        assert main(["lift", "circle", "3", "4", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["vector"] == [3.0, 4.0, 1.0, 24.0]

    def test_lift_zero_radius(self):
        assert main(["lift", "circle", "0", "0", "0"]) == 2

    def test_lift_overflow_prints_inf(self, capsys):
        # x^2 overflows, so gamma is inf; formatting it must not raise
        assert main(["lift", "circle", "1e200", "0", "1"]) == 0
        assert capsys.readouterr().out == "1e+200 0 1 inf\n"

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["lift", "circle", "1e200", "0", "1"], "vector"),
            (["project", "1", "0", "1e-320", "0"], "center"),
        ],
    )
    def test_json_overflow_is_an_error(self, argv, field, capsys):
        # JSON has no inf or nan, so the report is refused rather than printed
        assert main([*argv, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} holds a non-finite value: [")
        assert captured.err.count("\n") == 1

    def test_project_circle(self, capsys):
        assert main(["project", "0", "0", "1", "-1"]) == 0
        assert capsys.readouterr().out == "circle 0 0 1\n"

    def test_project_halfplane(self, capsys):
        assert main(["project", "0", "-1", "0", "0"]) == 0
        assert capsys.readouterr().out == "halfplane 0 1 0\n"

    def test_project_json(self, capsys):
        assert main(["project", "0", "0", "0.5", "-2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "circle"
        assert report["radius"] == 2.0

    def test_project_lightlike(self, capsys):
        assert main(["project", "0", "0", "1", "0"]) == 7

    def test_project_halfplane_json(self, capsys):
        assert main(["project", "0", "-1", "0", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"type": "halfplane", "normal": [0.0, 1.0], "offset": 0.0, "schema_version": 1}

    def test_project_json_has_no_negative_zeros(self, capsys):
        assert main(["project", "0", "-1", "0", "0", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "type": "halfplane",\n  "normal": [\n    0.0,\n    1.0\n  ],\n'
            '  "offset": 0.0,\n  "schema_version": 1\n}\n'
        )

    def test_project_overflow_is_not_normalized(self, capsys):
        # <v,v> overflows to -inf + inf = nan, which fails the normalization gate
        assert main(["project", "1e200", "0", "1e200", "1e200"]) == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: <v,v> = nan, expected -1 within 1e-06\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # lift reads its arguments as a document record does, so its error names the field
            (["lift", "circle", "inf", "0", "1"], "circle center must be finite, got inf"),
            (["lift", "halfplane", "0", "1", "inf"], "halfplane offset must be finite, got inf"),
            (["project", "inf", "0", "1", "0"], "project component must be finite, got inf"),
            (["project", "0", "0", "1", "nan"], "project component must be finite, got nan"),
        ],
    )
    def test_infinite_argument(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_lift_zero_radius(self, capsys):
        assert main(["lift", "circle", "0", "0", "0"]) == 2
        assert capsys.readouterr().err == "error: circle radius must be nonzero\n"

    def test_roundtrip_formats_compose(self, capsys):
        main(["lift", "circle", "0.5", "-2.5", "3"])
        vector = capsys.readouterr().out.split()
        main(["project", *vector])
        disk = capsys.readouterr().out.split()
        assert disk == ["circle", "0.5", "-2.5", "3"]


UNIT_CIRCLE = '{"type": "circle", "center": [0, 0], "radius": 1}'

# argv for the full parser, then for each command: help, a missing positional, a bad value, an option
# with its value missing, and an unrecognized argument; DOC marks a path to QUAD_DOC
PARSER_CORPUS = [[], ["-h"], ["--help"], ["--he"], ["frobnicate"], ["VERIFY"], ["--", "verify", "DOC"]] + [
    [command, *args.split()]
    for command, cases in {
        "verify": ["-h", "", "DOC --tol x", "DOC --tol", "DOC extra", "DOC --json"],
        "solve4": ["-h", "", "DOC --tol x", "DOC --tol", "DOC extra"],
        "gasket": ["-h", "--depth 1", "--seed=1,1,1 --depth x", "--seed=1,1,1 --depth", "--seed=1,1,1 extra"],
        "soddy": ["-h", "--dim 2", "--dim x 1", "--dim 2 1 1 1 1 --tol", "--dim 2 1 1 1 1 --bogus"],
        "lift": ["-h", "circle", "ellipse 1 2 3", "circle 1 2", "circle 1 2 3 extra"],
        "project": ["-h", "", "1 2 3 x", "1 2 3", "1 2 3 4 5"],
    }.items()
    for args in cases
]


# every --tol, of verify, solve4 and soddy, is a finite number >= 0, checked before the input is read
@pytest.mark.parametrize(
    "tol, message",
    [
        ("nan", "--tol must be finite, got nan"),
        ("inf", "--tol must be finite, got inf"),
        ("-1", "--tol must be >= 0, got -1.0"),
    ],
)
@pytest.mark.parametrize(
    "argv", [["verify", "QUAD"], ["solve4", "TRIPLE"], ["soddy", "--dim", "2", "1", "1", "1", "1"]], ids=" ".join
)
def test_tolerance_is_a_finite_number_of_at_least_zero(argv, tol, message, tmp_path, capsys):
    docs = {"QUAD": write_doc(tmp_path, QUAD_DOC), "TRIPLE": write_doc(tmp_path, TRIPLE_DOC)}
    assert main([argv[0], "--tol", tol, *(docs.get(arg, arg) for arg in argv[1:])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_command_is_named(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.endswith("diskgeom: error: the following arguments are required: command\n")

    def test_mixed_sphere_and_circle(self, tmp_path):
        doc = {
            "dim": 3,
            "disks": [
                {"type": "sphere", "center": [0, 0, 0], "radius": 1},
                {"type": "circle", "center": [0, 0], "radius": 1},
            ],
        }
        assert main(["verify", write_doc(tmp_path, doc)]) == 2

    def test_sphere_without_dim(self, tmp_path):
        doc = {"disks": [{"type": "sphere", "center": [0, 0, 0], "radius": 1}] * 5}
        assert main(["verify", write_doc(tmp_path, doc)]) == 2

    def test_bad_normal(self, tmp_path):
        doc = {"disks": [{"type": "halfplane", "normal": [1, 1], "offset": 0}] * 4}
        assert main(["verify", write_doc(tmp_path, doc)]) == 2

    def test_sphere_count_mismatch(self, tmp_path):
        doc = {"dim": 3, "disks": [SPHERE_DOC["disks"][0]] * 4}
        assert main(["verify", write_doc(tmp_path, doc)]) == 2

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("[]", "document root must be an object"),
            ("{}", "document must hold a non-empty 'disks' array"),
            ('{"disks": []}', "document must hold a non-empty 'disks' array"),
            ('{"disks": [{"center": [0, 0], "radius": 1}]}', "disk 0 must be an object with a 'type' field"),
            ('{"disks": [{"type": "ellipse"}]}', "unknown disk type 'ellipse'"),
            # a type JSON cannot hash, and unknown types of two JSON kinds: the first is named
            ('{"disks": [{"type": ["circle"]}]}', "unknown disk type ['circle']"),
            ('{"disks": [{"type": 1}, {"type": "x"}]}', "unknown disk type 1"),
            ('{"dim": 3, "disks": [%s]}' % UNIT_CIRCLE, "planar documents must have dim 2"),
            ('{"disks": [%s]}' % UNIT_CIRCLE.replace("1}", '"1"}'), "disk 0 radius must be a number"),
            # JSON reads 1e999 as inf without a non-finite token
            ('{"disks": [%s]}' % UNIT_CIRCLE.replace("1}", "1e999}"), "disk 0 radius must be finite"),
            (
                '{"disks": [%s]}' % UNIT_CIRCLE.replace("[0, 0]", "[0, 0, 0]"),
                "disk 0 center must be an array of 2 numbers",
            ),
        ],
    )
    def test_malformed_document(self, text, fragment, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fragment}")

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_narrowed_parser_prints_what_the_full_parser_prints(self, argv, tmp_path, monkeypatch, capsys):
        argv = [write_doc(tmp_path, QUAD_DOC) if arg == "DOC" else arg for arg in argv]
        build, commands = cli.build_parser, []

        def narrowed(command=None):
            commands.append(command)
            return build(command)

        runs = []
        for parser in (narrowed, lambda command: build()):
            monkeypatch.setattr(cli, "build_parser", parser)
            runs.append((main(argv), *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert commands == [argv[0] if argv and argv[0] in cli.COMMANDS else None]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_narrowed_parser_keeps_the_usage(self, command):
        assert cli.build_parser(command).format_usage() == cli.build_parser().format_usage()

    def test_every_call_builds_its_parser(self, monkeypatch, capsys):
        # a parser kept between calls would keep the handler it was built with, which a tracer replaces
        argv = ["soddy", "--dim", "2", "-1", "2", "2", "3"]
        assert main(argv) == 0
        monkeypatch.setattr(cli, "cmd_soddy", lambda args: 42)
        assert main(argv) == 42


# sha256 of `gasket --seed S --depth 8 --csv --svg` (13,124 disks each); the
# 0,0,1,1 seed covers the halfplane rows and lines
GOLDEN_DEPTH_8 = {
    "-1,2,2,3": (
        "44c5e7a8b0d5c3f6ef4ef164e5d013ac821c704ffe6977fbe11eb8ed29a60aa6",
        "c0d0ccc452e1a74b5f4d86510f56482155f726b01120bfdfb5d72679d73a3995",
    ),
    "0,0,1,1": (
        "16927cf357ab8031bf9e8c380c836d8f11f2ff32d16c0c57adddae038dc44d82",
        "2da11ba9e5fb02473701c2954cb3cc85d295fa164aed7e28d5a15edeb99001fd",
    ),
    "-2,3,6,7": (
        "c3fdd0d038817ff15c5244c2f0050b662579faa45c9c2d37ea60c283f00f3413",
        "7f2d81b80bbce78dcaba3b980386fc671ea76a589fcac6f56cb0a17671c2ea9d",
    ),
    "0.7,1.3,2.9": (
        "08580a0494dde9536e9c543e145827fad407d94ebad581c427fad43e8012e2fb",
        "c12a3b1f27c080e005156708b9694dc21692fdaf6774d4052fe64981fbd5ff8d",
    ),
}


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """Run `python -m diskgeom.cli` on argv in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-m", "diskgeom.cli", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


def test_module_run_matches_main(tmp_path, capsys):
    outputs = []
    for run in ("module", "main"):
        csv_path, svg_path = tmp_path / f"{run}.csv", tmp_path / f"{run}.svg"
        argv = ["gasket", "--seed", "-1,2,2,3", "--depth", "4"]
        argv += ["--csv", str(csv_path), "--svg", str(svg_path)]
        if run == "module":
            done = run_module(*argv)
            assert (done.returncode, done.stderr) == (0, "")
            out = done.stdout
        else:
            assert main(argv) == 0
            out = capsys.readouterr().out
        outputs.append((out, csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith("disks: 164\n")


# every public name of the package; gasket and nsphere, and the names they export, load on first use
PUBLIC_NAMES = """
    BadDimension Circle CircleVector ComplexRoots DegenerateConfiguration DegenerateTriple Disk DiskGeomError
    EmptyGasket Gasket GasketDisk GenerationLimits Halfplane InvalidIndex InvalidSeed NSphere NonUnitNormal
    NotNormalized NotSpacelike NotTangent Quadruple SingularMatrix ZeroRadius canonical_quadruple
    canonical_simplex_config descartes descartes_residual errors gasket generate gramian inner inner_geometric
    inner_sphere intersection_angle invert4 invert_matrix lift lift_sphere minkowski minkowski_metric
    minkowski_metric_inv normalize nsphere project render_svg soddy_gosset_residual solve_fourth_curvature
    solve_fourth_disk tangency_residual tangent_disk_with_curvature verify_generalized verify_generalized_n
    vieta_reflect __version__
""".split()

# run in a fresh interpreter: argv holds a 3-disk and a 4-disk document, then the public names
NUMPY_ON_DEMAND = """
import json, sys
import diskgeom, diskgeom.cli
triple, quad, *names = sys.argv[1:]
floats_only = [
    ["solve4", triple], ["soddy", "--dim", "2", "--", "-1", "2", "2", "3"],
    ["lift", "circle", "0", "0", "1"], ["project", "0", "0", "1", "-1"],
]
codes = [diskgeom.cli.main(argv) for argv in floats_only]
numpy_before = "numpy" in sys.modules
codes += [diskgeom.cli.main(["verify", quad]), diskgeom.cli.main(["gasket", "--seed", "-1,2,2,3", "--depth", "2"])]
numpy_after = "numpy" in sys.modules
missing = [name for name in names if not hasattr(diskgeom, name)]
for name in names:  # an ImportError fails the run
    exec(f"from diskgeom import {name}")
try:
    diskgeom.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([codes, numpy_before, numpy_after, missing, unknown]))
"""


# solve4, soddy, lift and project compute in Python floats, so a process that runs only them never
# imports numpy; verify and gasket import it when they run
def test_numpy_loads_only_for_verify_and_gasket(tmp_path):
    docs = [write_doc(tmp_path, TRIPLE_DOC, "triple.json"), write_doc(tmp_path, QUAD_DOC, "quad.json")]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-c", NUMPY_ON_DEMAND, *docs, *PUBLIC_NAMES]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    codes, numpy_before, numpy_after, missing, unknown = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 6
    assert (numpy_before, numpy_after) == (False, True)
    assert missing == []
    assert unknown == "module 'diskgeom' has no attribute 'no_such_name'"


# run in a fresh interpreter: seeding, limits and the gasket refusals that come before growth
NUMPY_FOR_ARRAYS_ONLY = """
import contextlib, io, json, sys
import diskgeom, diskgeom.cli
diskgeom.canonical_quadruple((-1, 2, 2))
diskgeom.canonical_quadruple((-1, 2, 2, 3))
diskgeom.GenerationLimits(max_depth=3)
refusals = [
    ["--seed", "1,1,-5", "--depth", "3"], ["--seed", "1,2,3,4", "--depth", "3"],
    ["--seed", "0,1,1", "--max-curvature", "10"], ["--seed", "-1,2,2,3", "--max-curvature", "inf"],
]
with contextlib.redirect_stderr(io.StringIO()) as err:
    codes = [diskgeom.cli.main(["gasket", *argv]) for argv in refusals]
numpy_before = "numpy" in sys.modules
codes.append(diskgeom.cli.main(["gasket", "--seed", "-1,2,2,3", "--depth", "2"]))
print(json.dumps([codes, err.getvalue().splitlines(), numpy_before, "numpy" in sys.modules]))
"""


# gasket imports numpy only where it builds or reads arrays, so a run that it refuses never loads numpy
def test_gasket_seeds_and_refusals_load_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", NUMPY_FOR_ARRAYS_ONLY], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    codes, errors, numpy_before, numpy_after = json.loads(done.stdout.splitlines()[-1])
    assert codes == [6, 6, 6, 2, 0]
    assert errors == [
        "error: ab+bc+ca = -9.0 is negative, no real fourth curvature",
        "error: fourth curvature 4.0 matches neither tangent root within 4e-06",
        "error: seed vector 0 is a halfplane, so a curvature limit alone never ends the growth; "
        "set a depth or count limit",
        "error: max_curvature must be a finite real number > 0, got inf",
    ]
    assert (numpy_before, numpy_after) == (False, True)


# run in a fresh interpreter: the numpy flags after the plain imports and after an n-sphere query,
# then the star import's names and dir(diskgeom)
STAR_IMPORT = """
import json, sys
import diskgeom, diskgeom.cli, diskgeom.nsphere
plain = "numpy" in sys.modules
diskgeom.nsphere.canonical_simplex_config(5)
diskgeom.canonical_simplex_config(5, outer=True)
nsphere = "numpy" in sys.modules
listed = dir(diskgeom)
namespace = {}
exec("from diskgeom import *", namespace)
print(json.dumps([plain, nsphere, sorted(set(namespace) - {"__builtins__"}), listed]))
"""


# the check above, extended: nsphere computes in Python floats, and cli imports no numpy itself
def test_star_import_binds_every_public_name_and_nsphere_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", STAR_IMPORT], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    plain, nsphere, star, listed = json.loads(done.stdout.splitlines()[-1])
    assert (plain, nsphere) == (False, False)
    # the 54 public names, the gasket names that load lazily included, and NonFiniteOutput
    public = set(PUBLIC_NAMES) - {"__version__"}
    assert len(public) == 54
    assert star == sorted(public | {"NonFiniteOutput"})
    assert set(star) | {"__version__"} <= set(listed)


def test_module_run_error_exit(tmp_path):
    done = run_module("gasket", "--input", write_doc(tmp_path, NON_TANGENT_QUAD_DOC), "--depth", "1")
    assert done.returncode == 6
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


CLOSED_STDOUT_ARGV = {
    "help": ["--help"],
    "gasket help": ["gasket", "--help"],
    "verify": ["verify", "QUAD"],
    "solve4": ["solve4", "TRIPLE"],
    "gasket": ["gasket", "--seed", "-1,2,2,3", "--depth", "3", "--csv", "CSV", "--svg", "SVG"],
    "soddy": ["soddy", "--dim", "2", "--", "-1", "2", "2", "3"],
    "lift": ["lift", "halfplane", "0", "1", "0", "--json"],
    "project": ["project", "0", "0", "1", "-1"],
}


# how stdout fails for a subprocess: the test id suffix of the fault, and the reason its error line gives
STDOUT_FAULTS = {
    "pipe": ("", "[Errno 32] Broken pipe"),  # a pipe whose reader is gone before the run starts
    "full": (" (stdout full)", "[Errno 28] No space left on device"),
    "closed": (" (stdout closed)", "[Errno 9] Bad file descriptor"),
}
# each CLOSED_STDOUT_ARGV command exits 0 on an open stdout, so its one error line names stdout;
# a run that fails before it writes stdout gives only its own error, whatever stdout is
STDOUT_FAULT_CASES = {
    f"{name}{shell}": (argv, fault, f"error: cannot write stdout: {reason}\n")
    for fault, (shell, reason) in STDOUT_FAULTS.items()
    for name, argv in CLOSED_STDOUT_ARGV.items()
} | {
    f"verify missing{shell}": (
        ["verify", "MISSING"], fault, "error: cannot read MISSING: [Errno 2] No such file or directory: 'MISSING'\n"
    )
    for fault, (shell, _) in STDOUT_FAULTS.items()
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(("argv", "fault", "expected_err"), STDOUT_FAULT_CASES.values(), ids=STDOUT_FAULT_CASES)
def test_closed_stdout_is_a_write_error(argv, fault, expected_err, unbuffered, tmp_path):
    if fault == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    paths = {
        "QUAD": write_doc(tmp_path, EQUILATERAL_QUAD_DOC),
        "TRIPLE": write_doc(tmp_path, TRIPLE_DOC, "triple.json"),
        "CSV": str(tmp_path / "out.csv"),
        "SVG": str(tmp_path / "out.svg"),
        "MISSING": str(tmp_path / "missing.json"),
    }
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "diskgeom.cli", *(paths.get(arg, arg) for arg in argv)]
    if fault == "pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open("/dev/full" if fault == "full" else os.devnull, os.O_WRONLY)
    try:
        # preexec_fn runs in the child after fd 1 is set up, so it closes fd 1 as the shell's ">&-" does
        preexec = (lambda: os.close(1)) if fault == "closed" else None
        done = subprocess.run(argv, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, preexec_fn=preexec)
    finally:
        os.close(stdout)
    assert (done.returncode, done.stderr) == (2, expected_err.replace("MISSING", paths["MISSING"]))


@pytest.mark.parametrize("seed", sorted(GOLDEN_DEPTH_8))
def test_gasket_depth_8_golden(seed, tmp_path, capsys):
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    args = ["gasket", "--seed", seed, "--depth", "8", "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(args) == 0
    assert "disks: 13124" in capsys.readouterr().out
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path))
    assert digests == GOLDEN_DEPTH_8[seed]


# sha256 of the CSV and SVG on the limit paths the depth-8 golden misses:
# curvature pruning, a max-count cut inside a level, depth fills, halfplanes,
# and the bounding-box viewport of a seed without an enclosing disk or a line
GOLDEN_LIMITS = {
    "2,3,6,23 --depth 6": (
        1460,
        "627767079d2a2184b83a57964af6b9bb6bc97d942cfb88ec03bcdbb100fe328e",
        "f82b3bcd9f8de28e4c8a2e4fd66edad66bfd04736e048b39d0d1b8fc475a1500",
    ),
    "0.7,1.3,2.9 --max-curvature 500 --max-count 5000 --fill-by-depth": (
        5000,
        "78e4658d4ef939b811e786047262a470739d3d3d08f18a4ae101c8685731000b",
        "5947bee0cbc453edd0ed4af71aefe570d8838cbba61938ef710cfdb9580d003e",
    ),
    "0,0,1,1 --max-curvature 200 --max-count 3001": (
        3001,
        "ded00f25f0dc557b597772f75d66931d6a49745129a166e8cd3679d2e4801f09",
        "2433235a44e46681826ac06355f354281a01a07667b8d061096d6fc473e5f787",
    ),
    "-2,3,6,7 --depth 6 --max-curvature 400": (
        303,
        "2e72ead0774020748b11c001ae0bc0530ef8d0cdd019170b287bcb0786bdf354",
        "5359f26509f8b938c45002aa1a38466a828d968a37537752072957f30b4be7bd",
    ),
}


# stdout of runs whose smallest radius is a reflected disk, a disk of a
# pruned and count-cut level, and a disk beside two halfplanes
GASKET_SUMMARIES = {
    "-1,2,2,3 --depth 8": (13124, "4.463687898942106e-05"),
    "0.7,1.3,2.9 --max-curvature 5000 --max-count 100000": (100000, "0.00020000125301707571"),
    "0,0,1 --depth 6": (1460, "0.0012376237623762376"),
    "2,2,3 --depth 7": (4376, "0.00012896569512509673"),
}


@pytest.mark.parametrize("flags", sorted(GASKET_SUMMARIES))
def test_gasket_summary(flags, capsys):
    assert main(["gasket", "--seed", *flags.split()]) == 0
    count, radius = GASKET_SUMMARIES[flags]
    assert capsys.readouterr().out == f"disks: {count}\nmin radius: {radius}\n"


# with both outputs the SVG is written by a forked child where os.fork exists;
# the second run pins the in-process writes of both outputs to the same digests
@pytest.mark.parametrize("flags", sorted(GOLDEN_LIMITS))
def test_gasket_limits_golden(flags, tmp_path, monkeypatch, capsys):
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    args = ["gasket", "--seed", *flags.split(), "--csv", str(csv_path), "--svg", str(svg_path)]
    count, *want = GOLDEN_LIMITS[flags]
    for forks in (True, False):
        if not forks:
            monkeypatch.delattr(os, "fork", raising=False)
        assert main(args) == 0
        assert f"disks: {count}\n" in capsys.readouterr().out
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path)]
        assert digests == want


# this pins the writes of a single output against the same digests
@pytest.mark.parametrize("flags", sorted(GOLDEN_LIMITS))
def test_gasket_outputs_alone_match_golden(flags, tmp_path, capsys):
    _, *want = GOLDEN_LIMITS[flags]
    for key, digest in zip(("csv", "svg"), want):
        path = tmp_path / f"out.{key}"
        assert main(["gasket", "--seed", *flags.split(), f"--{key}", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", sorted(GOLDEN_DEPTH_8))
def test_svg_chunks_join_to_render_svg(seed):
    seed_quad = canonical_quadruple([float(k) for k in seed.split(",")])
    g = generate(seed_quad, GenerationLimits(max_depth=8))
    chunks = list(svg_chunks(g))
    assert "".join(chunks) == render_svg(g)
    assert max(chunk.count("<circle ") for chunk in chunks) <= CHUNK_ROWS


def reference_csv(disks) -> str:
    """The gasket CSV written one f-string row at a time: the reference for the column writer."""
    rows = ["depth,curvature,x,y\n"]
    for disk in disks:
        xdot, ydot, beta, _ = disk.vector
        if beta == 0.0:
            nx, ny, offset = halfplane_geometry(disk.vector)
            x, y = nx * offset + 0.0, ny * offset + 0.0
        else:
            x, y = xdot / beta + 0.0, ydot / beta + 0.0
        rows.append(f"{disk.depth},{beta!r},{x!r},{y!r}\n")
    return "".join(rows)


def reference_svg(g, fill_by_depth: bool) -> str:
    """render_svg with one f-string circle element per disk: the reference for the column writer.

    The header, viewport and halfplane lines are taken from render_svg, whose
    code for them is shared; the stroke width is read back from the viewBox.
    """
    text = render_svg(g, fill_by_depth)
    head = text[: text.index("<circle ")]
    width, height = map(float, re.search(r'viewBox="\S+ \S+ (\S+) (\S+)"', head).groups())
    stroke = f'stroke="#000000" stroke-width="{0.005 * max(width, height)!r}"/>\n'
    circles = []
    for disk in g.disks:
        xdot, ydot, beta, _ = disk.vector
        if beta != 0.0:
            r = 1.0 / beta
            fill = _depth_fill(disk.depth) if fill_by_depth and r > 0.0 else "none"
            cx, cy = xdot * r + 0.0, ydot * r + 0.0
            circles.append(f'<circle cx="{cx!r}" cy="{cy!r}" r="{abs(r)!r}" fill="{fill}" {stroke}')
    return head + "".join(circles) + "</svg>\n"


# the depth-8 goldens, a halfplane seed, and depths past 100 for the depth and fill tables
REFERENCE_RUNS = [f"{seed} --depth 8" for seed in sorted(GOLDEN_DEPTH_8)] + [
    "0,1,4 --depth 6",
    "0,0,1,1 --max-curvature 1.5 --max-count 300 --fill-by-depth",
]


@pytest.mark.parametrize("flags", REFERENCE_RUNS)
def test_gasket_writers_match_reference(flags, tmp_path, capsys):
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    seed, *rest = flags.split()
    assert main(["gasket", f"--seed={seed}", *rest, "--csv", str(csv_path), "--svg", str(svg_path)]) == 0
    args = cli.build_parser().parse_args(["gasket", f"--seed={seed}", *rest])
    limits = GenerationLimits(args.depth, args.max_curvature, args.max_count)
    g = generate(canonical_quadruple(cli._parse_seed(seed)), limits)
    if args.fill_by_depth:
        assert g.disks.depths.max() >= 100  # three-digit depths and fill table rows
    assert csv_path.read_bytes() == reference_csv(g.disks).encode()
    assert svg_path.read_bytes() == reference_svg(g, args.fill_by_depth).encode()


@pytest.fixture(scope="module")
def depth_10_gasket():
    return generate(canonical_quadruple((-1.0, 2.0, 2.0, 3.0)), GenerationLimits(max_depth=10))


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# the writers format a bounded number of rows at a time, so their memory does
# not grow with the 118,100 disks (whole-document writers peaked at 28 and 61 MB);
# the bound is about twice the measured peaks of 1.42 MB (CSV) and 1.15 MB (SVG)
def test_csv_writer_memory_is_bounded(depth_10_gasket, tmp_path):
    def write():
        with open(tmp_path / "out.csv", "w", encoding="utf-8", newline="") as fh:
            fh.writelines(csv_chunks(depth_10_gasket))

    assert traced_peak_mb(write) <= 3.0


def test_svg_writer_memory_is_bounded(depth_10_gasket, tmp_path):
    def write():
        with open(tmp_path / "out.svg", "w", encoding="utf-8") as fh:
            fh.writelines(svg_chunks(depth_10_gasket))

    assert traced_peak_mb(write) <= 3.0


# generate writes each level into stores of the final size, so it holds little
# beyond its result (whole-level temporaries and closing copies peaked at 2.0x)
def test_generate_memory_is_bounded_by_its_result():
    seed = canonical_quadruple((-1.0, 2.0, 2.0, 3.0))
    gaskets = []
    peak = traced_peak_mb(lambda: gaskets.append(generate(seed, GenerationLimits(max_depth=10))))
    (g,) = gaskets
    arrays = (g.disks.vectors, g.disks.depths, g.disks.quadruple_ids, g.quadruples.members)
    assert peak * 2**20 <= 1.25 * sum(a.nbytes for a in arrays)


# a stored disk is a 32-byte vector plus int32 depth, parent id and quadruple row
def test_stores_take_56_bytes_per_disk(depth_10_gasket):
    g = depth_10_gasket
    indices = (g.disks.depths, g.disks.quadruple_ids, g.quadruples.members)
    assert [a.dtype for a in indices] == [np.int32] * 3
    assert sum(a.nbytes for a in (g.disks.vectors, *indices)) <= 56 * len(g.disks)


# a run whose disk indices overflow int32 fails before any store is allocated
def test_indices_past_int32_are_not_allocated():
    seed = canonical_quadruple((-1.0, 2.0, 2.0, 3.0))
    count, top = 2**31 + 1, 2**31 - 1
    message = f"^cannot allocate the arrays of {count} disks: disk indices past {top} do not fit int32$"

    def run():
        with pytest.raises(DiskGeomError, match=message):
            generate(seed, GenerationLimits(max_depth=20, max_count=count))

    assert traced_peak_mb(run) <= 1.0


# the smallest radius comes from the column's extremes, not from a copy of its
# absolute values (0.94 MB); the bound is about twice the 0.24 MB peak of a
# first call, later calls peak at 0.04 MB
def test_gasket_summary_memory_is_bounded(depth_10_gasket, monkeypatch, capsys):
    monkeypatch.setattr("diskgeom.gasket.generate", lambda seed, limits: depth_10_gasket)
    peak = traced_peak_mb(lambda: main(["gasket", "--seed", "-1,2,2,3", "--depth", "10"]))
    assert capsys.readouterr().out == "disks: 118100\nmin radius: 5.343764361366721e-06\n"
    assert peak <= 0.5


# the viewport comes from chunk-wise extremes, not whole-gasket coordinate arrays (3.9 MB)
def test_svg_viewport_memory_is_bounded(depth_10_gasket):
    assert traced_peak_mb(lambda: next(iter(svg_chunks(depth_10_gasket)))) <= 1.0


# the edges of the double range, signed zeros and subnormals included
EXTREME_VALUES = ["0", "-0"] + [
    sign + v
    for v in ("5e-324", "1e-300", "1e-160", "1e155", "1e200", "1e300", "1.7976931348623157e308")
    for sign in ("", "-")
]


def extreme_draws(width: int, seed: int) -> list[tuple[str, ...]]:
    """Each extreme value in all width places, then 10 seeded mixes of extreme and ordinary values."""
    rng, pool = random.Random(seed), EXTREME_VALUES + ["1", "-1", "2", "3", "0.5"]
    mixes = [tuple(rng.choice(pool) for _ in range(width)) for _ in range(10)]
    return [(v,) * width for v in EXTREME_VALUES] + mixes


def extreme_document(values: tuple[str, ...]) -> dict:
    """Circles from the values three at a time, then a halfplane y <= offset from a leftover value."""
    disks = [
        {"type": "circle", "center": [float(x), float(y)], "radius": float(r)}
        for x, y, r in zip(*[iter(values)] * 3)
    ]
    if len(values) % 3:
        disks.append({"type": "halfplane", "normal": [0.0, 1.0], "offset": float(values[-1])})
    return {"disks": disks}


# "--" keeps argparse from reading a negative value as an option; DOC marks a document argument
EXTREME_RUNS = [
    (prefix, values)
    for seed, (prefix, width) in enumerate([
        (("soddy", "--dim", "2", "--"), 4),
        (("soddy", "--dim", "3", "--"), 5),
        (("project", "--"), 4),
        (("lift", "circle", "--"), 3),
        (("lift", "halfplane", "--"), 3),
        (("verify", "DOC"), 12),
        (("verify", "DOC"), 10),
        (("solve4", "DOC"), 9),
        (("solve4", "DOC"), 7),
        (("gasket", "--depth", "2", "--seed"), 3),
        (("gasket", "--depth", "2", "--seed"), 4),
    ])
    for values in extreme_draws(width, seed)
]
# gaskets that write both files; OUT marks a path in a fresh directory, which a failed run leaves empty
EXTREME_RUNS += [
    (("gasket", "--depth", "1", "--csv", "OUT.csv", "--svg", "OUT.svg", "--seed"), ("1", "1", b))
    for b in ("1e-310", "-1e-310")
]
# a gasket of finite circles whose SVG viewport is not finite
EXTREME_RUNS.append(
    (("gasket", "--depth", "1", "--csv", "OUT.csv", "--svg", "OUT.svg", "--seed"), ("1.7", "-5.9e-309", "6"))
)
# a finite viewport whose halfplane lines reach past the double range
EXTREME_RUNS.append(
    (
        ("gasket", "--depth", "0", "--csv", "OUT.csv", "--svg", "OUT.svg", "--seed"),
        ("0", "-2.2250738585072014e-308", "0.5"),
    )
)


@pytest.mark.parametrize("prefix, values", EXTREME_RUNS, ids=lambda x: " ".join(x))
def test_extreme_values_exit_with_a_documented_code(prefix, values, request, capsys):
    if prefix[-1] == "DOC":
        argv = [*prefix[:-1], write_doc(request.getfixturevalue("tmp_path"), extreme_document(values))]
    elif prefix[-1] == "--seed":
        argv = [*prefix[:-1], "--seed=" + ",".join(values)]
    else:
        argv = [*prefix, *values]
    outputs = [arg for arg in argv if arg.startswith("OUT.")]
    if outputs:
        out_dir = request.getfixturevalue("tmp_path")
        argv = [str(out_dir / arg) if arg in outputs else arg for arg in argv]
    code = main(argv)  # no exception may escape
    out, err = capsys.readouterr()
    assert code in range(8)  # the README's exit codes
    if code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
    else:
        assert err == "" and ("FAIL" in out) == (code == 1)
    if outputs:
        assert sorted(p.name for p in out_dir.iterdir()) == ([] if code >= 2 else sorted(outputs))
        assert not any(re.search(r"\b(inf|nan)\b", p.read_text(encoding="utf-8")) for p in out_dir.iterdir())


# documents that json or float() cannot hold: each names its file or field in one short line
OVERSIZED_DOCUMENTS = [
    ('{"disks": [%s]}' % UNIT_CIRCLE.replace("1}", "1" + "0" * 400 + "}"), "disk 0 radius must be finite"),
    ('{"disks": ' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON in DOC: maximum recursion depth"),
    ('{"disks": [%s]}' % UNIT_CIRCLE.replace("1}", "1" + "0" * 5000 + "}"), "invalid JSON in DOC: Exceeds the"),
]


@pytest.mark.parametrize("command", [["verify"], ["solve4"], ["gasket", "--depth", "1", "--input"]])
@pytest.mark.parametrize(
    "text, fragment", OVERSIZED_DOCUMENTS, ids=["400-digit radius", "deep nesting", "5001-digit radius"]
)
def test_oversized_document_is_a_parse_error(command, text, fragment, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert main([*command, str(path)]) == 2  # no exception may escape
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 300
    assert err.startswith(f"error: {fragment.replace('DOC', str(path))}")


# any JSON value; json.dumps writes a drawn inf or nan as the Infinity and NaN tokens the reader rejects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers(-3, 3) | st.floats(-4.0, 4.0)
RADII = st.sampled_from([-1, 1, 2]) | st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)


@st.composite
def documents(draw):
    """A planar or sphere document whose parts are each, now and then, any JSON value instead.

    The root, dim and disks array are replaced one time in eight, a record and each of its
    fields one time in 32, so that about a sixth of the verify runs get past parsing.
    """

    def part(plausible, odds):
        return draw(JSON_VALUES if draw(st.integers(1, odds)) == odds else plausible)

    dim = draw(st.sampled_from([2, 3]))
    records = [
        {
            "type": part(st.sampled_from(["circle", "halfplane"] if dim == 2 else ["sphere"]), 32),
            "center": part(st.lists(NUMBERS, min_size=dim, max_size=dim), 32),
            "radius": part(RADII, 32),
            "normal": part(st.sampled_from([[0, 1], [0, -1], [1, 0], [-1, 0]]), 32),
            "offset": part(NUMBERS, 32),
        }
        for _ in range(draw(st.sampled_from([dim + 2, dim + 1])))  # verify and gasket need 4 disks, solve4 3
    ]
    disks = part(st.just([part(st.just(record), 32) for record in records]), 8)
    return part(st.just({"dim": part(st.just(dim), 8), "disks": disks}), 8)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
@example(doc={"disks": [{"type": ["circle"]}]})
@example(doc={"disks": [{"type": 1}, {"type": "x"}]})
@example(doc={"disks": [{"type": {"circle": 1}}]})
def test_any_json_document_exits_with_a_documented_code(doc, tmp_path, capsys):
    path = write_doc(tmp_path, doc)
    for command in (["verify"], ["verify", "--json"], ["solve4"], ["gasket", "--depth", "1", "--input"]):
        code = main([*command, path])  # no exception may escape
        out, err = capsys.readouterr()
        assert code in range(8)  # the README's exit codes
        if code >= 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
        else:
            assert err == ""
