import pytest

from equitower import L1, L2, LINF, Space, TruncationParams, lp
from equitower.formulas.schemas import SchemaError
from equitower.formulas.verify import (
    SPHERE_BOUND_LAYERS,
    verification_space,
    verify_layer,
)
from equitower.oracles import ALPHA, BETA, DELTA, GAMMA, PHI, PSI, RelationId

TR = TruncationParams()

SAMPLED_RELATIONS = [
    RelationId("EQUIV2"),
    BETA(3),
    ALPHA(4),
    PSI(4, 2),
    GAMMA,
    RelationId("B"),
    DELTA(5),
    RelationId("NEQ"),
    RelationId("LE"),
    RelationId("COLLINEAR"),
    PHI(0),
]


class TestBackendPolicy:
    def test_sphere_bound_layers_verify_on_floats_in_l2(self):
        assert SPHERE_BOUND_LAYERS == {"EQUIV2", "PSI", "DELTA", "LE"}
        assert verification_space(RelationId("EQUIV2"), L2).backend == "float"
        assert verification_space(PSI(2, 1), L2).backend == "float"
        assert verification_space(DELTA(3), L2).backend == "float"
        assert verification_space(RelationId("LE"), L2).backend == "float"

    def test_everything_else_verifies_exactly(self):
        assert verification_space(GAMMA, L2).backend == "exact"
        assert verification_space(RelationId("B"), L2).backend == "exact"
        assert verification_space(RelationId("NEQ"), L2).backend == "exact"
        for norm in (L1, LINF):
            for rel in SAMPLED_RELATIONS:
                assert verification_space(rel, norm).backend == "exact"

    def test_minkowski_p_norms_are_float_only(self):
        assert verification_space(GAMMA, lp("3/2")).backend == "float"


class TestVerifyLayer:
    @pytest.mark.parametrize("norm", [L1, L2, LINF], ids=lambda n: n.kind)
    @pytest.mark.parametrize("rel", SAMPLED_RELATIONS, ids=lambda r: r.label())
    def test_formula_matches_oracle_on_biased_samples(self, norm, rel):
        space = verification_space(rel, norm)
        report = verify_layer(space, rel, TR, samples=80, seed=101)
        assert report.samples == 80
        assert report.passed, report.counterexamples[0]

    @pytest.mark.parametrize("norm", [L1, LINF], ids=lambda n: n.kind)
    def test_one_step_delta_is_the_sphere(self, norm):
        # DELTA(1) expands to d(z0,zn) = d(z0,x): one step reaches the sphere, not the ball
        space = verification_space(DELTA(1), norm)
        report = verify_layer(space, DELTA(1), TR, samples=100, seed=3)
        assert report.agreements == report.samples == 100, report.counterexamples[0]

    def test_report_shape(self):
        space = verification_space(BETA(2), L1)
        report = verify_layer(space, BETA(2), TR, samples=10, seed=5)
        payload = report.to_dict()
        assert payload["relation"] == "BETA(2)"
        assert payload["norm"] == "l1"
        assert payload["backend"] == "exact"
        assert payload["seed"] == 5
        assert payload["trunc"]["K"] == TR.K
        assert payload["agreements"] == 10

    def test_refinement_stages_and_midpoint_are_excluded(self):
        with pytest.raises(SchemaError):
            verify_layer(Space(L1, "exact"), PHI(3), TR, 5, seed=1)
        with pytest.raises(SchemaError):
            verify_layer(Space(L1, "exact"), RelationId("M"), TR, 5, seed=1)
        with pytest.raises(SchemaError):
            verify_layer(Space(L1, "exact"), RelationId("PARALLELOGRAM"), TR, 5, seed=1)

    def test_strict_paper_mode_records_the_dyadic_gap(self):
        trunc = TruncationParams(b_mode="strict-paper")
        space = Space(L2, "exact")
        report = verify_layer(space, RelationId("B"), trunc, samples=300, seed=7)
        assert not report.passed
        gap = report.counterexamples[0]
        assert gap["oracle"] is True and gap["formula"] is False
