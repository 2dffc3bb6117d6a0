import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from diskgeom import Gasket, GenerationLimits, canonical_quadruple, generate, render_svg
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

    def test_wrong_count(self, tmp_path):
        assert main(["solve4", write_doc(tmp_path, QUAD_DOC)]) == 2


def empty_gasket(seed, limits):
    disks = GasketDisks(np.empty((0, 4)), np.empty(0, np.intp), np.empty(0, np.intp))
    return Gasket(seed, limits, disks, GasketQuadruples(np.empty((0, 4), np.intp), disks.vectors))


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
        "seed, fragment",
        [
            ("1,x,2", "invalid --seed value '1,x,2'"),
            ("1,2", "--seed needs 3 or 4 comma-separated curvatures, got 2"),
            ("inf,1,1", "--seed curvatures must be finite"),
        ],
    )
    def test_bad_seed_argument(self, seed, fragment, capsys):
        assert main(["gasket", "--seed", seed, "--depth", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fragment}")

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

    def test_empty_gasket_rejected_before_svg_is_opened(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "generate", empty_gasket)
        svg_path = tmp_path / "out.svg"
        assert main(["gasket", "--seed", "-1,2,2,3", "--depth", "1", "--svg", str(svg_path)]) == 2
        assert "no disks" in capsys.readouterr().err
        assert not svg_path.exists()

    def test_empty_gasket_has_no_min_radius(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "generate", empty_gasket)
        assert main(["gasket", "--seed", "-1,2,2,3", "--depth", "1"]) == 0
        assert capsys.readouterr().out == "disks: 0\nmin radius: n/a\n"

    @pytest.mark.parametrize("both", [False, True], ids=["alone", "both"])
    @pytest.mark.parametrize("flag", ["--csv", "--svg"])
    def test_missing_output_directory(self, flag, both, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "out")
        args = ["gasket", "--seed", "-1,2,2,3", "--depth", "1", flag, bad]
        if both:
            args += ["--svg" if flag == "--csv" else "--csv", str(tmp_path / "other")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_svg_writer_failure_reaches_exit_code(self, tmp_path, capfd):
        csv_path = tmp_path / "out.csv"
        args = ["gasket", "--seed", "-1,2,2,3", "--depth", "3", "--csv", str(csv_path), "--svg", "/dev/full"]
        assert main(args) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write /dev/full: ")
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
        assert capsys.readouterr().err == "error: curvatures must be finite\n"


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
        "argv, command",
        [
            (["lift", "circle", "inf", "0", "1"], "lift"),
            (["lift", "halfplane", "0", "1", "inf"], "lift"),
            (["project", "inf", "0", "1", "0"], "project"),
        ],
    )
    def test_infinite_argument(self, argv, command, capsys):
        assert main(argv) == 2
        # lift reads its arguments as a document record does, so its error names the field
        expected = {
            "circle": "circle center must be finite, got inf",
            "halfplane": "halfplane offset must be finite, got inf",
        }.get(argv[1], f"{command} arguments must be finite")
        assert capsys.readouterr().err == f"error: {expected}\n"

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


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

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


def test_module_run_error_exit(tmp_path):
    done = run_module("gasket", "--input", write_doc(tmp_path, NON_TANGENT_QUAD_DOC), "--depth", "1")
    assert done.returncode == 6
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


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


@pytest.mark.parametrize("flags", sorted(GOLDEN_LIMITS))
def test_gasket_limits_golden(flags, tmp_path, capsys):
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    args = ["gasket", "--seed", *flags.split(), "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(args) == 0
    count, *want = GOLDEN_LIMITS[flags]
    assert f"disks: {count}\n" in capsys.readouterr().out
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path)]
    assert digests == want


# with both outputs the SVG is written by a forked child where os.fork exists,
# and the goldens above pin those bytes; this pins the in-process writes of a
# single output against the same digests
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
            x, y = nx * offset, ny * offset
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


# the viewport comes from chunk-wise extremes, not whole-gasket coordinate arrays (3.9 MB)
def test_svg_viewport_memory_is_bounded(depth_10_gasket):
    assert traced_peak_mb(lambda: next(iter(svg_chunks(depth_10_gasket)))) <= 1.0
