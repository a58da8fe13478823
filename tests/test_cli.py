import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import equitower
from equitower.cli import build_parser, main
from equitower.preservation import PlaneMap


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

    @pytest.mark.parametrize("item", ["FOO=formula", "=formula", "GAMMA=maybe", "GAMMA=Formula", "GAMMA"])
    def test_impl_names_a_known_relation_and_mode(self, collinear_points, capsys, item):
        argv = ["eval", "--formula", "(rel GAMMA a b c)", "--points", collinear_points, "--impl", item]
        assert main(argv) == 2
        _assert_one_line_error(capsys, repr(item))

    def test_impl_last_setting_wins_and_explain_prints_the_formula_set(self, collinear_points, capsys):
        argv = ["eval", "--formula", "(rel GAMMA a b c)", "--points", collinear_points, "--explain"]
        assert main([*argv, "--impl", "psi=formula", "--impl", "PSI=oracle", "--impl", "b=formula"]) == 0
        assert "\n  formula mode: B, GAMMA\n" in capsys.readouterr().out
        assert main([*argv, "--impl", "GAMMA=oracle"]) == 0
        assert "\n  formula mode: none\n" in capsys.readouterr().out

    def test_oracle_mode_top_needs_no_closure_recipe(self, tmp_path, capsys):
        # PARALLELOGRAM has an oracle but no closure recipe; in oracle mode it reads no universe
        path = tmp_path / "square.json"
        path.write_text(json.dumps([{"x": x, "y": y} for x, y in (("0", "0"), ("1", "0"), ("1", "1"), ("0", "1"))]))
        argv = ["eval", "--formula", "(rel PARALLELOGRAM a b c d)", "--points", str(path), "--impl", "PARALLELOGRAM=oracle"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

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

    def test_one_step_delta_needs_no_chain_on_exact_l2(self, tmp_path):
        # DELTA(1) is one atom: its closure builds no chain, so no irrational l2 step is refused
        out = tmp_path / "rep.json"
        code = main(
            ["verify-layer", "--relation", "DELTA:1", "--norm", "l2", "--seed", "3",
             "--samples", "100", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["backend"] == "exact"
        assert payload["samples"] == payload["agreements"] == 100


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
    ("l1", "float"): "9405e6ce0fd56c8aa8a88a401ed344fbc36a8c660608fb4d77beb1ac2e8df3fb",
    ("linf", "float"): "a9d7f790692b4d917080368a7440fa30d49b44734aeeb57b032246f2e4759f95",
    ("lp:3", "float"): "5256c6ca43b10dd570555230394be894ef8778d8e2b8493a7cbe19ee3c9c0798",
}


@pytest.mark.parametrize("norm,backend", sorted(GOLDEN_VOGT_SHA256))
def test_vogt_report_bytes_are_pinned(tmp_path, norm, backend):
    out = tmp_path / "vogt.json"
    argv = ["vogt", "--seed", "42", "--quadruples", "150", "--triples", "100",
            "--norm", norm, "--backend", backend, "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VOGT_SHA256[norm, backend]


# A map file with a nonlinear map, a shear with a nonzero shift and one
# similarity: its reports carry forward and betweenness witness records and
# the images of nonlinear maps, which the built-in suite pins do not cover.
VOGT_MAP_FILE = [
    {"kind": "nonlinear", "family": "square_shift", "label": "square_shift", "expect": "violating"},
    {"kind": "affine", "matrix": ["1", "1", "0", "1"], "shift": ["3", "-1/2"], "label": "shear+shift",
     "expect": "violating"},
    {"kind": "affine", "matrix": ["0", "-2", "2", "0"], "shift": ["5/3", "1"], "label": "similarity",
     "expect": "bidirectional-preserving"},
]
# SHA-256 of `vogt --maps FILE --seed 42 --quadruples 150 --triples 100 --output FILE`.
GOLDEN_VOGT_MAPS_SHA256 = {
    ("l1", "exact"): "fb2a3484d9a4fef4c854efc0c534c7ca5257047ea2cc0a016a159565f95ace3d",
    ("l2", "exact"): "cf91df852f7eea302e0765fc5921d0e737bfcc87fc9796040dfec0c79fcd1584",
    ("l2", "float"): "46d8b3ba35d4e4fbd6f1c984ad0cd7e98fbcd78e3e1eba0375c3ba2803b09b17",
}


@pytest.mark.parametrize("norm,backend", sorted(GOLDEN_VOGT_MAPS_SHA256))
def test_vogt_map_file_report_bytes_are_pinned(tmp_path, norm, backend):
    maps, out = tmp_path / "maps.json", tmp_path / "vogt.json"
    maps.write_text(json.dumps(VOGT_MAP_FILE))
    argv = ["vogt", "--maps", str(maps), "--seed", "42", "--quadruples", "150", "--triples", "100",
            "--norm", norm, "--backend", backend, "--output", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert [sorted(m["first_witnesses"]) for m in report["maps"]] == [["betweenness", "forward"], ["forward"], []]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VOGT_MAPS_SHA256[norm, backend]


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


def test_float_lp_suite_passes_at_tangency(tmp_path):
    # axiom g draws tangent spheres (r = |p - q| or p + q) on a fifth of its instances
    out = tmp_path / "report.json"
    argv = ["check-axioms", "--norm", "lp:3", "--backend", "float", "--seed", "5",
            "--samples", "300", "--constructions", "150", "--output", str(out)]
    assert main(argv) == 0
    assert all(rep["violations"] == [] for rep in json.loads(out.read_text()))


# SHA-256 of float lp reports, which hold the stream of the verify samplers:
# `check-axioms --seed 5` at default flags, and
# `verify-layer --relation REL --seed 3 --samples 100` for three layers.
GOLDEN_FLOAT_LP_AXIOM_SHA256 = {
    "lp:3": "71bf43d2b84cbccc5c475a7c7e59c96f5640b971a23ffc8b0ec8eefe5bc6dbbc",
    "lp:3/2": "51ca33eb44b0882c1872aa697eff41c8b98da431b639364a076cd0043d3dbfeb",
}
GOLDEN_FLOAT_LP_LAYER_SHA256 = {
    ("EQUIV2", "lp:3"): "752a9b04cad230add6b392f78e37e994692138df5d37f15a9243283efee8308f",
    ("PSI:3:2", "lp:3"): "a651eb6c333ac31db242f88a0d78bd534e3a9d4cd864a2b309004f94f349c1c6",
    ("DELTA:4", "lp:3"): "de9e8a09a7fb129c1e51eb6242d9876100977a8a943796d79193dc927e60ff68",
    ("EQUIV2", "lp:3/2"): "eb8d1ec42b43772d97685400756df9958b37b51ccff0368a32c6d2007adab706",
    ("PSI:3:2", "lp:3/2"): "775bf0972fd4a3c8bd1c2cd41050b43b17fb83f7445ae376543f6a64bf1bad4a",
    ("DELTA:4", "lp:3/2"): "b20f3e4a4fe9c1b1432c1ca53900a37709f3953aad7362e150973c90a2407ebf",
}


@pytest.mark.parametrize("norm", sorted(GOLDEN_FLOAT_LP_AXIOM_SHA256))
def test_float_lp_axiom_report_bytes_are_pinned(tmp_path, norm):
    out = tmp_path / "report.json"
    argv = ["check-axioms", "--norm", norm, "--backend", "float", "--seed", "5", "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FLOAT_LP_AXIOM_SHA256[norm]


@pytest.mark.parametrize("norm", ["lp:3", "lp:3/2"])
@pytest.mark.parametrize(
    "relation",
    ["PSI:3:2", "PSI:5:3", "DELTA:4", "DELTA:6", "EQUIV2", "LE", "PHI:0", "ALPHA:3", "BETA:3",
     "GAMMA", "B", "NEQ", "COLLINEAR", "DELTA:2", "PSI:2:1"],
)
def test_float_lp_chains_construct_off_the_grid(tmp_path, relation, norm):
    # witness rounds and chains meet lp spheres at tangency and off the
    # line of centres; every construction must meet both lengths
    out = tmp_path / "rep.json"
    argv = ["verify-layer", "--relation", relation, "--norm", norm, "--backend", "float",
            "--seed", "3", "--samples", "100", "--output", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["samples"] == payload["agreements"] == 100
    if (relation, norm) in GOLDEN_FLOAT_LP_LAYER_SHA256:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FLOAT_LP_LAYER_SHA256[relation, norm]


def test_float_lp_equiv2_meets_near_tangent_spheres(tmp_path):
    # sample 96 asks for two spheres of radius 4.664056349 whose centres lie
    # 2.6e-7 short of tangency, so they cross just off the line of centres
    out = tmp_path / "rep.json"
    argv = ["verify-layer", "--relation", "EQUIV2", "--norm", "lp:3/2", "--backend", "float",
            "--seed", "5", "--samples", "100", "--output", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["samples"] == payload["agreements"] == 100


# SHA-256 of the seeded axiom reports: the whole suite from
# `check-axioms --axiom all --samples 300 --constructions 150 --seed 5`, and
# each axiom alone from
# `check-axioms --axiom X --samples 200 --constructions 100 --chain-cap 6 --seed 9`.
GOLDEN_AXIOM_SHA256 = {
    ("all", "l1", "exact"): "58c6583fa4abb23afcc9306f7d9f91fd866211fe40a6bee2b39d3e8e6b4fa60f",
    ("all", "l2", "exact"): "d42bbf34a6d88034c74525e0f52e4d5842f0378ef64c590697f662950ae430f0",
    ("all", "linf", "exact"): "34c594bd54e5557d7a3a053cd8f8c7519e29f1d64f4427af2b8fa007cacb7dee",
    ("all", "l2", "float"): "9fb56f2c74e6d325e2779b80a267d416d38044beaaf44f4b94ba8ba69b34e457",
    ("a", "l1", "exact"): "cfb61892b9e8b4558d164c77c1b24ca191cdd4ea7d0fa2010a1fee06b4e234ce",
    ("b", "l1", "exact"): "8c8a75a3ed4f07792bbc85ee90371c6174b210f57efd4519818830581d8aed72",
    ("cde", "l1", "exact"): "87263bf1ddf6a01e8a42360d06b4e01f27914491088f26d997622c287a69dff8",
    ("f", "l1", "exact"): "fefde943544a2a33eb4153b6b9bd353a2c4e9f1baedd947813a4253ed8832c4e",
    ("g", "l1", "exact"): "757dd045863e13368818c15a505b3112a69ec25b3eb690cd8033678dcbc49f5d",
    ("h", "l1", "exact"): "48288fb9ba4e8b0b20a4879c235fa02ff0971a91f076de8fea1738162afe7679",
    ("i", "l1", "exact"): "c6320051738a08ffa589cdeb4486635717cf3c385011602ebf2089d6da7010dd",
    ("a", "l2", "float"): "3a462dca57399cac218697c63e724255f7d7f02d341ba69969c5a97c4c256af0",
    ("b", "l2", "float"): "5da0e3ffd7215a096c3e0a71462820d6fb48517d1012ca52e6edb45bb2ebfd0c",
    ("cde", "l2", "float"): "7997981516b52ecb6d0638b88fa740fc4b13692d0a4b08b89331651abc0aac68",
    ("f", "l2", "float"): "3d70b736d08f65d9aecec492359b4f42c7ed618a128df663ca56a8651ea3449e",
    ("g", "l2", "float"): "85c74e7640386c8a659dcc13d15e3b456d598239eb8fa39785b867deb4b83db7",
    ("h", "l2", "float"): "ce4e78e608212f94423ce79ae1ba87a10a68c2be088274e9c5cb9f56a98367ca",
    ("i", "l2", "float"): "960cd5134c0adab1ee63a05b1c1000d1428ac825029f9a1613f9ad4637c6aeb2",
}


@pytest.mark.parametrize("axiom,norm,backend", sorted(GOLDEN_AXIOM_SHA256))
def test_axiom_report_bytes_are_pinned(tmp_path, axiom, norm, backend):
    out = tmp_path / "report.json"
    if axiom == "all":
        sizes = ["--samples", "300", "--constructions", "150", "--seed", "5"]
    else:
        sizes = ["--samples", "200", "--constructions", "100", "--chain-cap", "6", "--seed", "9"]
    argv = ["check-axioms", "--axiom", axiom, "--norm", norm, "--backend", backend, "--output", str(out)]
    assert main(argv + sizes) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_AXIOM_SHA256[axiom, norm, backend]


# SHA-256 of the stdout of `expand --relation LABEL` at default truncation
# (one label per relation and index shape, plus B in strict-paper mode).
GOLDEN_EXPAND_SHA256 = {
    ("EQUIV2",): "0b07ca8610343d5cd286083a5c89e2103cf16cbfaf4eeb7d52c3b990fd35d7bd",
    ("PHI:0",): "39a2d656336f2c2d1b1f4b42878bd86a87aadbc313b55c79f0788537763e9e11",
    ("PHI:2",): "6cc83e6a7dfa6a16e1ed7ca1e4b6cddbef64af9916b3bb0731b0a9d7ed3c91be",
    ("M",): "c8eb64ba2327286bfc064d7a7061684b234a61fba3c79c781d2cca049e74ae9e",
    ("ALPHA:1",): "c3595b88c198db59ce5859afac90d4722d89e354ce59804c78c87ac77f5adec4",
    ("ALPHA:3",): "400be8ba07ae67ee343ed8d0534653fcddce9f5a0bee8613b88e2696e4712edf",
    ("BETA:1",): "9f9186332a0180343075bbd32aea296adbd0815c6b99d8ea4a71577f756554ac",
    ("BETA:3",): "09876ee1415295c510e4680ec74e003e40c9a2588dea41a1e5376607b22b332f",
    ("PSI:1:1",): "65f5f69b0d8ccd8dc91f538029a318eed225d606b48a1993aca0bd492c80a818",
    ("PSI:3:2",): "3e0032215046259a20405d4868b929392865fcec3712355508e907679a12a40f",
    ("GAMMA",): "fbbcae8a086a74b6a9423d59e3639430eb7ff1780bbc0eb0a8e831fade4a6c56",
    ("B",): "51e39d8b2e54771bb1a2003da8c0780452168f83bec08a74efc118d86e23661f",
    ("B", "--mode", "strict-paper"): "c594964f09bfb3fa68eb5e084abbb6e7c50b3975e5c4711dc6f30e2646289fcf",
    ("DELTA:1",): "5d724a7819819c3828829d8259af5395fd050b3390eab598fb0f37493193df52",
    ("DELTA:4",): "d828da52c8eee7d3c89441dabb6cf016ea43a45bb8aff67dc6bef2c60129b846",
    ("NEQ",): "26b4f67f4526a2e4510eec2d5dcbec9c448eb01907f81308dfb1834f422ff7de",
    ("LE",): "b8cea8025ab98e9a23cb30915d8e2cd242e8c4345eee707bc434f50021f5a0ea",
    ("COLLINEAR",): "2a0438f019986902779a8e8b04362d58382bec130525d948aba22a32acc4b113",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_EXPAND_SHA256), ids=" ".join)
def test_expand_output_is_pinned(capsys, args):
    assert main(["expand", "--relation", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EXPAND_SHA256[args]


# SHA-256 of `verify-layer --relation REL --seed 9 --samples 15 --output FILE`
# on l1 (and linf) for the layers whose closures need no sphere meets.
GOLDEN_LAYER_SHA256 = {
    ("PHI:0", "l1", "exact"): "20c3001319f46fce53297fe174b74185520aac1e3abe191758a93e9ef1f9b1a4",
    ("ALPHA:3", "l1", "exact"): "b5682099a5bad343ed6a3b7f9c44a635e1dfb06fa088ee084332f684b6cadf86",
    ("BETA:3", "l1", "exact"): "463eeb7015807a937773e651a0d42155a2d0033b6a401b82949c857ce382200b",
    ("GAMMA", "l1", "exact"): "8913b1de83e37a71102e301dad8faa16bd6e6779d51c6eead6b213077c44cce2",
    ("B", "l1", "exact"): "9d42d60252e746143bc482de02763ae9d36f3a7b6af46916fe864ff5a229247e",
    ("COLLINEAR", "l1", "exact"): "6151a5e47c20826e0cd7e96e68c98fd49423fdac7af3fb1efc55d502193a0197",
    ("NEQ", "l1", "exact"): "36571948bafdaed82dc0d7379c4cb1471c32790d5e84cff12afb775ffb077608",
    ("DELTA:6", "l1", "exact"): "e7f590e3398edc3131ad9276d1754d22d05f96df3c56b1efe3e1e638c7a2cac1",
    ("B", "l1", "float"): "5064fa2a598a54dea7c3d03a3dde1de4e7a5a082cd75c0298659c3126e511791",
    ("B", "linf", "float"): "6841ca6ad0722d9ea13f7ef7a56130c4c6bfb0308d6568630ea64bd52f0d1e18",
}


@pytest.mark.parametrize("relation,norm,backend", sorted(GOLDEN_LAYER_SHA256))
def test_layer_report_bytes_are_pinned(tmp_path, relation, norm, backend):
    out = tmp_path / "report.json"
    argv = ["verify-layer", "--relation", relation, "--seed", "9", "--samples", "15",
            "--norm", norm, "--backend", backend, "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_LAYER_SHA256[relation, norm, backend]


def _nested(depth: int, inner: str, wrap: str) -> str:
    text = inner
    for _ in range(depth):
        text = wrap.format(text)
    return text


def _assert_one_line_error(capsys, fragment: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err and "Traceback" not in err


class TestDeepNesting:
    @pytest.mark.parametrize(
        "inner,wrap,depth",
        [("(= x x)", "(exists (x) {})", 350), ("(= a a)", "(not {})", 1200)],
        ids=["exists-evaluator", "not-parser"],
    )
    def test_deep_formula_is_a_usage_error(self, tmp_path, capsys, inner, wrap, depth):
        formula = tmp_path / "deep.txt"
        formula.write_text(_nested(depth, inner, wrap))
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": "0", "y": "0"}]))
        assert main(["eval", "--formula", str(formula), "--points", str(points)]) == 2
        _assert_one_line_error(capsys, "recursion limit")

    def test_deep_layer_is_a_usage_error(self, capsys):
        argv = ["verify-layer", "--relation", "DELTA:400", "--norm", "l1", "--seed", "1", "--samples", "2"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "recursion limit")

    def test_deep_expansion_is_a_usage_error(self, capsys):
        assert main(["expand", "--relation", "DELTA:2000"]) == 2
        _assert_one_line_error(capsys, "recursion limit")


class TestNonFiniteTolerance:
    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_layer_check_refuses(self, capsys, tolerance):
        argv = ["verify-layer", "--relation", "LE", "--norm", "l2", "--backend", "float",
                "--tolerance", tolerance, "--seed", "1", "--samples", "40"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "finite")

    def test_eval_and_axioms_refuse(self, tmp_path, capsys):
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": "0", "y": "0"}, {"x": "1", "y": "0"}]))
        argv = ["eval", "--formula", "(equi a b a b)", "--points", str(points),
                "--backend", "float", "--tolerance", "nan"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "finite")
        argv = ["check-axioms", "--axiom", "a", "--backend", "float", "--tolerance", "nan",
                "--seed", "1", "--samples", "20"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "finite")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-9"])
    def test_exact_backend_refuses_what_it_ignores(self, tmp_path, capsys, tolerance):
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": "0", "y": "0"}, {"x": "1", "y": "0"}]))
        argv = ["eval", "--formula", "(equi a b a b)", "--points", str(points), f"--tolerance={tolerance}"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "finite and nonnegative")
        argv = ["vogt", "--seed", "1", "--quadruples", "5", "--triples", "5", "--norm", "l1",
                f"--tolerance={tolerance}"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "finite and nonnegative")

    @pytest.mark.parametrize("tolerance", ["1", "10", "1e300"])
    def test_tolerance_of_one_or_more_is_refused_at_once(self, capsys, tolerance):
        # at tolerance >= 1 every two lengths compare equal, so samplers that
        # redraw until two points differ would never stop
        argv = ["verify-layer", "--relation", "GAMMA", "--norm", "l1", "--backend", "float",
                "--tolerance", tolerance, "--seed", "1", "--samples", "20"]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        _assert_one_line_error(capsys, f"got {float(tolerance)}")

    def test_exact_backend_ignores_a_valid_tolerance(self, tmp_path, capsys):
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": "0", "y": "0"}, {"x": "1", "y": "0"}]))
        for tolerance in ("0", "0.25"):
            argv = ["eval", "--formula", "(equi a b a b)", "--points", str(points), "--tolerance", tolerance]
            assert main(argv) == 0
        assert capsys.readouterr().out == "true\ntrue\n"
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        assert "ignored, on the exact backend" in " ".join(capsys.readouterr().out.split())


class TestHostilePoints:
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_float_coordinates_are_refused(self, tmp_path, capsys, bad):
        # float_eq holds whenever one side is infinite, so (0,0)-(inf,0) would
        # compare equal to (0,0)-(1,0)
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": 0, "y": 0}, {"x": bad, "y": 0}, {"x": 0, "y": 0}, {"x": 1, "y": 0}]))
        argv = ["eval", "--formula", "(equi a b c d)", "--points", str(points), "--norm", "l2", "--backend", "float"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "finite")

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_coordinates_whose_differences_overflow_are_refused(self, tmp_path, capsys, norm):
        # 1e308 - (-1e308) is inf, and float_eq(inf, 1) holds
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": 1e308, "y": 0}, {"x": -1e308, "y": 0}, {"x": 0, "y": 0}, {"x": 1, "y": 0}]))
        argv = ["eval", "--formula", "(equi a b c d)", "--points", str(points), "--norm", norm, "--backend", "float"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "|c| <=")

    def test_lp_lengths_past_the_double_range_end_without_a_traceback(self, tmp_path, capsys):
        # |x|^3 of a coordinate difference near 8e307 overflows the double range
        points = tmp_path / "pts.json"
        corners = [{"x": 0, "y": 0}, {"x": 4e307, "y": 0}, {"x": -4e307, "y": 4e307}, {"x": 0.5, "y": 3}]
        points.write_text(json.dumps(corners))
        argv = ["closure", "--relation", "EQUIV2", "--points", str(points), "--norm", "lp:3", "--backend", "float"]
        assert main(argv) == 0
        assert isinstance(json.loads(capsys.readouterr().out), list)

    def test_lp_lengths_below_the_double_range_keep_distinct_points_apart(self, tmp_path, capsys):
        # 0.5^2000 underflows to 0, so the unscaled lp:2000 length of (0.5, 0) would read 0
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": 0, "y": 0}, {"x": 0.5, "y": 0}]))
        argv = ["eval", "--formula", "(= a b)", "--points", str(points), "--norm", "lp:2000", "--backend", "float"]
        assert main(argv) == 1
        assert capsys.readouterr().out == "false\n"

    def test_lp_sphere_meets_below_the_double_range_end_without_a_traceback(self, capsys):
        # the unit-ball point of an lp:1e300 sphere meet divided by an underflowed length
        argv = ["verify-layer", "--relation", "DELTA:2", "--samples", "2", "--seed", "95", "--norm", "lp:1e300",
                "--backend", "float"]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_length_sums_past_the_double_range_are_refused(self, tmp_path, capsys):
        # in l1, d(a,b) + d(b,c) is inf, and float_eq(inf, d(a,c)) would hold
        corners = [(4.4e307, 4.4e307), (-4.4e307, -4.4e307), (4.4e307, 4.3e307)]
        argv = ["eval", "--formula", "(rel GAMMA a b c)", "--impl", "GAMMA=oracle", "--norm", "l1", "--backend", "float"]
        for scale, code in ((1e-307, 1), (1.0, 2)):  # scaled down, the same points are not between
            points = tmp_path / f"pts-{scale}.json"
            points.write_text(json.dumps([{"x": x * scale, "y": y * scale} for x, y in corners]))
            assert main([*argv, "--points", str(points)]) == code
        _assert_one_line_error(capsys, "overflows")

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_length_ratios_past_the_double_range_are_refused(self, tmp_path, capsys, norm):
        # GAMMA's adaptive N is ceil(factor * d(a,c) / d(a,b)), which is inf here
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": 0, "y": 0}, {"x": 1, "y": 0}, {"x": 4e307, "y": 0}]))
        argv = ["eval", "--formula", "(rel GAMMA a b c)", "--points", str(points), "--norm", norm, "--backend", "float"]
        assert main(argv) == 2
        _assert_one_line_error(capsys, "overflows")


class TestFloatPointFiles:
    """A float plane reads the exact "p/q" strings an exact point file holds."""

    def _closure(self, tmp_path, capsys, name, records):
        points = tmp_path / name
        points.write_text(json.dumps(records))
        argv = ["closure", "--relation", "M", "--points", str(points), "--norm", "l2", "--backend", "float"]
        code = main(argv)
        return code, capsys.readouterr()

    def test_ratio_strings_give_the_universe_of_their_decimals(self, tmp_path, capsys):
        ratios = [{"x": "1/4", "y": "-3/8"}, {"x": 0, "y": "2"}, {"x": "5/2", "y": 1}]
        decimals = [{"x": 0.25, "y": -0.375}, {"x": 0, "y": 2}, {"x": 2.5, "y": 1}]
        code, ratio_out = self._closure(tmp_path, capsys, "ratios.json", ratios)
        assert code == 0 and ratio_out.err == ""
        code, decimal_out = self._closure(tmp_path, capsys, "decimals.json", decimals)
        assert code == 0 and ratio_out.out == decimal_out.out

    def test_a_third_is_rounded_once(self, tmp_path, capsys):
        code, out = self._closure(tmp_path, capsys, "third.json", [{"x": "1/3", "y": "2"}, {"x": 0, "y": 0}, {"x": 1, "y": 1}])
        assert code == 0
        assert json.loads(out.out)[0] == {"tag": "input", "x": 1 / 3, "y": 2.0}

    @pytest.mark.parametrize("bad", ["inf", "-1e400", "1" + "0" * 400 + "/3"], ids=["inf", "-1e400", "10^400/3"])
    def test_non_finite_coordinates_are_still_refused(self, tmp_path, capsys, bad):
        code, out = self._closure(tmp_path, capsys, "pts.json", [{"x": 0, "y": 0}, {"x": bad, "y": 0}, {"x": 1, "y": 1}])
        assert code == 2
        assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
        assert "pts.json, record 1:" in out.err and "finite" in out.err

    @pytest.mark.parametrize("bad", [None, [1], "1/0", "x"], ids=["null", "list", "1/0", "x"])
    def test_a_bad_record_is_named(self, tmp_path, capsys, bad):
        code, out = self._closure(tmp_path, capsys, "pts.json", [{"x": 0, "y": 0}, {"x": 1, "y": 1}, {"x": 2, "y": bad}])
        assert code == 2
        assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
        assert "pts.json, record 2:" in out.err and "Traceback" not in out.err


_BIG_INT = "1" + "0" * 400  # a JSON integer past the double range

_RUN = ["--seed", "1", "--quadruples", "5", "--triples", "5"]
_VOGT = ["vogt", *_RUN, "--maps"]
_EVAL = ["eval", "--formula", "(= a b)", "--points", "PTS"]  # PTS: a sound two-point file
_FLOAT = ["--norm", "l2", "--backend", "float"]
_HOSTILE_FILES = {
    # id: (argv before the hostile file, its text, fragments the one error line must hold)
    "maps-int-record": (_VOGT, "[1]", ["record 0:", "JSON object"]),
    "maps-scalar": (_VOGT, "3", ["must hold a JSON list"]),
    "maps-int-matrix": (_VOGT, '[{"matrix": 5}]', ["record 0:", "matrix[4]"]),
    "maps-list-label": (_VOGT, '[{"label": [1], "expect": "violating"}]', ["record 0:", "label"]),
    "maps-zero-denominator": (_VOGT, '[{"shift": ["1/0", 0]}]', ["record 0:", "1/0"]),
    "maps-list-family": (_VOGT, '[{"kind": "nonlinear", "family": [1]}]', ["record 0:", "family"]),
    "universe-int-tag": ([*_EVAL, "--explain", "--universe"], '[{"x": 0, "y": 0}, {"x": 1, "y": 0, "tag": 5}]',
                         ["record 1:", "tag"]),
    "universe-list-tag": ([*_EVAL, "--explain", "--universe"], '[{"x": 0, "y": 0, "tag": [1]}]', ["record 0:", "tag"]),
    "universe-object": ([*_EVAL, "--universe"], '{"a": 1}', ["must hold a JSON list"]),
    "universe-bad-string": ([*_EVAL, *_FLOAT, "--universe"], '[{"x": "a", "y": 0}]', ["record 0:", "'a'"]),
    "universe-huge-int": ([*_EVAL, *_FLOAT, "--universe"], f'[{{"x": {_BIG_INT}, "y": 0}}]', ["record 0:", "finite"]),
    "points-huge-int": (["eval", "--formula", "(= a b)", *_FLOAT, "--points"],
                        f'[{{"x": 0, "y": 0}}, {{"x": -{_BIG_INT}, "y": 0}}]', ["record 1:", "finite"]),
}


class TestHostileInputFiles:
    """Every input file goes through one checked reader: a JSON list of
    objects, each record parsed, a refusal naming the file and the record."""

    @pytest.mark.parametrize("case", sorted(_HOSTILE_FILES))
    def test_refused_with_one_named_error(self, tmp_path, capsys, case):
        argv, text, fragments = _HOSTILE_FILES[case]
        bad = tmp_path / "hostile.json"
        bad.write_text(text)
        points = tmp_path / "pts.json"
        points.write_text(json.dumps([{"x": 0, "y": 0}, {"x": 1, "y": 0}]))
        assert main([str(points) if arg == "PTS" else arg for arg in argv] + [str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(fragment in err for fragment in ["hostile.json", *fragments]), err

    def test_a_map_coefficient_past_the_double_range_names_the_map(self, tmp_path, capsys):
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps([{"label": "huge", "matrix": ["1e400", 0, 0, 1]}]))
        assert main(["vogt", *_RUN, "--backend", "float", "--maps", str(maps)]) == 2
        _assert_one_line_error(capsys, "map 'huge'")

    def test_each_map_config_is_read_once(self, tmp_path, monkeypatch):
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps([{"label": "id", "expect": "bidirectional-preserving"}]))
        calls = []
        real = PlaneMap.from_config
        monkeypatch.setattr(PlaneMap, "from_config", staticmethod(lambda cfg: calls.append(cfg) or real(cfg)))
        assert main(["vogt", *_RUN, "--maps", str(maps), "--output", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1


class TestHostileNorms:
    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("norm", ["lp:1/0", "lp:1e400"])
    @pytest.mark.parametrize(
        "argv",
        [["verify-layer", "--relation", "LE", "--seed", "1", "--samples", "2"], ["vogt", *_RUN],
         ["check-axioms", "--axiom", "a", "--seed", "1", "--samples", "2", "--constructions", "2"]],
        ids=["verify-layer", "vogt", "check-axioms"],
    )
    def test_refused_with_one_error(self, capsys, argv, norm, backend):
        assert main(argv + ["--norm", norm, "--backend", backend]) == 2
        _assert_one_line_error(capsys, "")


class TestInternalErrors:
    def test_an_unexpected_exception_exits_three_with_its_traceback(self, capsys, monkeypatch):
        def broken(rel, trunc):
            raise RuntimeError("broken expansion")

        monkeypatch.setattr("equitower.cli.expand_schema", broken)
        assert main(["expand", "--relation", "LE"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: broken expansion\n"), err
        assert "Traceback" in err and "error:" not in err.replace("internal error:", "")

class TestChainCap:
    def test_cap_reaches_axiom_i_inside_the_suite(self, tmp_path):
        suite, single = tmp_path / "all.json", tmp_path / "i.json"
        sizes = ["--samples", "20", "--constructions", "40", "--norm", "l1", "--chain-cap", "3"]
        assert main(["check-axioms", "--axiom", "all", "--seed", "5", "--output", str(suite)] + sizes) == 0
        assert main(["check-axioms", "--axiom", "i", "--seed", "11", "--output", str(single)] + sizes) == 0
        by_axiom = {rep["axiom"]: rep for rep in json.loads(suite.read_text())}
        assert by_axiom["i"] == json.loads(single.read_text())[0]

    def test_cap_below_two_is_a_usage_error(self, capsys):
        assert main(["check-axioms", "--axiom", "i", "--chain-cap", "1", "--seed", "1"]) == 2
        _assert_one_line_error(capsys, "got 1")


class TestHelp:
    def test_package_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH=str(Path(equitower.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "equitower", "--help"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: equitower")

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
