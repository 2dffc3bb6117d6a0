import hashlib
import json
import math

import pytest

from diskgeom.cli import main

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
        assert "expected 4 disks" in capsys.readouterr().err

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
        assert err == "error: disks 1 and 2 are not tangent, residual 23.0\n"

    def test_repeated_disk(self, tmp_path):
        doc = {"disks": [TRIPLE_DOC["disks"][0]] * 2 + [TRIPLE_DOC["disks"][1]]}
        assert main(["solve4", write_doc(tmp_path, doc)]) == 5

    def test_wrong_count(self, tmp_path):
        assert main(["solve4", write_doc(tmp_path, QUAD_DOC)]) == 2


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

    def test_triple_seed(self, tmp_path, capsys):
        code = main(["gasket", "--seed", "1,1,1", "--depth", "0"])
        assert code == 0
        assert "disks: 4" in capsys.readouterr().out

    def test_invalid_seed(self, capsys):
        assert main(["gasket", "--seed", "1,1,-1", "--depth", "1"]) == 6

    def test_descartes_violation(self):
        assert main(["gasket", "--seed", "1,1,1,5", "--depth", "1"]) == 6

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

    def test_roundtrip_formats_compose(self, capsys):
        main(["lift", "circle", "0.5", "-2.5", "3"])
        vector = capsys.readouterr().out.split()
        main(["project", *vector])
        disk = capsys.readouterr().out.split()
        assert disk == ["circle", "0.5", "-2.5", "3"]


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


@pytest.mark.parametrize("seed", sorted(GOLDEN_DEPTH_8))
def test_gasket_depth_8_golden(seed, tmp_path, capsys):
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    args = ["gasket", "--seed", seed, "--depth", "8", "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(args) == 0
    assert "disks: 13124" in capsys.readouterr().out
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path))
    assert digests == GOLDEN_DEPTH_8[seed]


# sha256 of the CSV and SVG on the limit paths the depth-8 golden misses:
# curvature pruning, a max-count cut inside a level, depth fills and halfplanes
GOLDEN_LIMITS = {
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


@pytest.mark.parametrize("flags", sorted(GOLDEN_LIMITS))
def test_gasket_limits_golden(flags, tmp_path, capsys):
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    args = ["gasket", "--seed", *flags.split(), "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(args) == 0
    count, *want = GOLDEN_LIMITS[flags]
    assert f"disks: {count}\n" in capsys.readouterr().out
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path)]
    assert digests == want
