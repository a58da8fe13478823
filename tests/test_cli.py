import hashlib
import json

import pytest

from equitower.cli import build_parser, main


@pytest.fixture()
def collinear_points(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps([{"x": "0", "y": "0"}, {"x": "1", "y": "0"}, {"x": "3", "y": "0"}]))
    return str(path)


@pytest.fixture()
def staircase_points(tmp_path):
    path = tmp_path / "linf.json"
    path.write_text(json.dumps([{"x": "0", "y": "0"}, {"x": "2", "y": "1"}, {"x": "4", "y": "0"}]))
    return str(path)


class TestEval:
    def test_metric_betweenness_true_exits_zero(self, collinear_points):
        code = main(
            ["eval", "--formula", "(rel GAMMA a b c)", "--points", collinear_points,
             "--norm", "l2", "--impl", "PSI=oracle"]
        )
        assert code == 0

    def test_box_norm_discrimination_exits_one(self, staircase_points):
        code = main(
            ["eval", "--formula", "(rel B a b c)", "--points", staircase_points,
             "--norm", "linf", "--depth-B", "1"]
        )
        assert code == 1

    def test_unknown_relation_exits_two(self, collinear_points):
        assert main(["eval", "--formula", "(rel NOPE a b)", "--points", collinear_points]) == 2

    def test_missing_points_is_an_error(self):
        assert main(["eval", "--formula", "(rel GAMMA a b c)"]) == 2

    def test_explain_names_the_settling_binding(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps([{"x": "0", "y": "0"}, {"x": "1", "y": "0"}]))
        assert main(
            ["eval", "--formula", "(exists (z) (equi a z a b))", "--points", str(path),
             "--norm", "l2", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "witness: z :=" in out
        assert main(
            ["eval", "--formula", "(forall (z) (= z a))", "--points", str(path),
             "--norm", "l2", "--explain"]
        ) == 1
        assert "refuter: z :=" in capsys.readouterr().out

    def test_universe_file_round_trip(self, tmp_path, collinear_points):
        uni_path = tmp_path / "uni.json"
        code = main(
            ["closure", "--relation", "B", "--points", collinear_points, "--norm", "l2",
             "--output", str(uni_path)]
        )
        assert code == 0
        code = main(
            ["eval", "--formula", "(rel B a b c)", "--points", collinear_points,
             "--universe", str(uni_path), "--norm", "l2"]
        )
        assert code == 0


class TestVerifyLayer:
    def test_pass_exits_zero_and_writes_a_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            ["verify-layer", "--relation", "BETA:2", "--samples", "40", "--seed", "9",
             "--norm", "l1", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["agreements"] == 40 and payload["counterexamples"] == []

    def test_strict_mode_gap_exits_one(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            ["verify-layer", "--relation", "B", "--samples", "300", "--seed", "9",
             "--norm", "l2", "--mode", "strict-paper", "--output", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["counterexamples"]

    def test_refinement_stage_exits_two(self):
        assert main(["verify-layer", "--relation", "PHI:3", "--samples", "5", "--seed", "1"]) == 2


class TestDeterminism:
    def test_identical_seed_and_config_give_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify-layer", "--relation", "GAMMA", "--samples", "60", "--seed", "31",
                "--norm", "linf"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_axiom_reports_are_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["check-axioms", "--axiom", "cde", "--samples", "150", "--seed", "8", "--norm", "l1"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_vogt_reports_are_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        maps = tmp_path / "maps.json"
        maps.write_text(
            json.dumps(
                [
                    {"kind": "affine", "matrix": ["1", "1", "0", "1"], "shift": ["0", "0"],
                     "label": "shear", "expect": "violating"},
                ]
            )
        )
        argv = ["vogt", "--maps", str(maps), "--quadruples", "100", "--triples", "50",
                "--seed", "77", "--norm", "l2"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


# SHA-256 of `vogt --seed 42 --quadruples 150 --triples 100 --output FILE` on the
# built-in map suite.  A change to sampling, classification or report layout
# that moves any byte of these reports shows up here.
GOLDEN_VOGT_SHA256 = {
    ("l1", "exact"): "0bc718210ba3cf4233c5f3e72c75a775dcf1f4ebbe5c9723493fdd6302f49f76",
    ("linf", "exact"): "500f43411ca1b950e213919c2ed17b2d6c5c697ac8932e68c1a5bae72852c059",
    ("l2", "exact"): "6b456870634c4745c67e16043f57e98d3b4984538340f1b28023b46010c249c8",
    ("l2", "float"): "63d92a2f79d963e9fbf093bd0293a16fdbb571add92995c4bc70542e14e2c99f",
}


@pytest.mark.parametrize("norm,backend", sorted(GOLDEN_VOGT_SHA256))
def test_vogt_report_bytes_are_pinned(tmp_path, norm, backend):
    out = tmp_path / "vogt.json"
    argv = ["vogt", "--seed", "42", "--quadruples", "150", "--triples", "100",
            "--norm", norm, "--backend", backend, "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VOGT_SHA256[norm, backend]


# SHA-256 of the seeded reports of the layers and the axiom that build
# l1/linf sphere meets: `verify-layer --seed 5 --samples 40` and
# `check-axioms --axiom g --seed 5 --constructions 400` on the exact backend.
GOLDEN_WITNESS_SHA256 = {
    ("EQUIV2", "l1"): "b8c7f972267a026dcf03eccb88c75ccc21bedcf20d77d73a24d7716e0c1978d0",
    ("EQUIV2", "linf"): "08c4661a532aeda0ae12ff902f3c602821553fb50949ea9bdd429395970c62b5",
    ("LE", "l1"): "c8929bbb163c7932c201e913cf10f75ee27bc08601a952325117db083b8cb6f0",
    ("LE", "linf"): "13725d003f6a46c40c7d775c30697a47f445d8358c8963f0808720ed98bd75b6",
    ("PSI:2:1", "l1"): "c4bf1caeef067d98bc915df4fcee40b167c74720862ceb9c242cf22911a883d2",
    ("PSI:2:1", "linf"): "1460491a004b6fc574ff387235b69a9b56a686554c838804af618ba7867786e4",
    ("DELTA:3", "l1"): "e51b4dc647d511b4512705d0a5e1fc552b7a89f3eb0b6b5b08acdc8280f83a2e",
    ("DELTA:3", "linf"): "30df39e09472cfbc1e86ef371b8195bbbf1600d63eb789a45bcc0e8485498083",
    ("g", "l1"): "3efd637bbdfa4a756875fcd558c94e1f4ea67ea5529c5315ff7be8dee70dff9f",
    ("g", "linf"): "306763f21f71e899d3fb464a7a1510bc4073fd97dc6cd973ec29cdbf8799c126",
}


@pytest.mark.parametrize("target,norm", sorted(GOLDEN_WITNESS_SHA256))
def test_witness_report_bytes_are_pinned(tmp_path, target, norm):
    out = tmp_path / "report.json"
    if target == "g":
        argv = ["check-axioms", "--axiom", "g", "--constructions", "400"]
    else:
        argv = ["verify-layer", "--relation", target, "--samples", "40"]
    assert main(argv + ["--seed", "5", "--norm", norm, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_WITNESS_SHA256[target, norm]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-layer", "--relation", "DELTA:3", "--norm", "linf", "--samples", "60"],
        ["verify-layer", "--relation", "PSI:2:1", "--norm", "l1", "--samples", "60"],
        ["check-axioms", "--norm", "l1"],
    ],
    ids=["delta-linf", "psi-l1", "axioms-l1"],
)
def test_float_box_norm_constructions_pass(tmp_path, argv):
    # rounded float inputs may pass the tolerant annulus test yet miss the
    # exact annulus; the construction must still find the meeting point
    out = tmp_path / "report.json"
    assert main(argv + ["--backend", "float", "--seed", "1", "--output", str(out)]) == 0


class TestHelp:
    def test_every_flag_documents_its_default(self):
        parser = build_parser()
        for command, flags in {
            "eval": ["--formula", "--points", "--universe", "--impl", "--norm", "--backend",
                     "--tolerance", "--depth-K", "--depth-N", "--depth-B", "--chain-max",
                     "--phi-depth", "--mode", "--explain"],
            "verify-layer": ["--relation", "--samples", "--seed", "--output"],
            "check-axioms": ["--axiom", "--samples", "--constructions", "--chain-cap", "--seed"],
            "vogt": ["--maps", "--quadruples", "--triples", "--seed"],
            "closure": ["--relation", "--points", "--output"],
            "expand": ["--relation", "--depth-K"],
        }.items():
            sub = next(
                action for action in parser._actions if hasattr(action, "choices") and action.choices
            ).choices[command]
            text = sub.format_help()
            for flag in flags:
                assert flag in text, (command, flag)
            assert "default" in text

    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()
