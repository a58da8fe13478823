import json
from fractions import Fraction

import pytest

from equitower import L1, L2, LINF, Point, Space, axioms
from equitower.axioms import (
    check_axiom_a,
    check_axiom_g,
    check_axiom_h,
    check_axiom_i,
    run_axiom,
    run_axiom_suite,
)
from equitower.geometry import point_from_record, point_to_record
from equitower.oracles import oracle_B
from equitower.reports import stable_json_dumps

F = Fraction
NORMS = [L1, L2, LINF]


def pt(x, y):
    return Point(F(x), F(y))


@pytest.mark.parametrize("norm", NORMS, ids=lambda n: n.kind)
def test_full_suite_small_scale(norm):
    space = Space(norm, "exact")
    reports = run_axiom_suite(space, samples=400, seed=1234, constructions=120)
    for report in reports:
        assert report.passed, (report.axiom, report.violations[0])
    assert {r.axiom for r in reports} == {"a", "b", "cde", "f", "g", "h", "i"}


def test_float_backend_suite():
    space = Space(L2, "float", 1e-9)
    reports = run_axiom_suite(space, samples=300, seed=99, constructions=100)
    assert all(r.passed for r in reports)


class TestSpecificConstructions:
    def test_transport_lands_on_the_opposite_ray(self):
        # |ab| = 2 transported from a away from c lands at (-2, 0)
        space = Space(L2, "float", 1e-9)
        a, b, c = Point(0.0, 0.0), Point(0.0, 2.0), Point(1.0, 0.0)
        t = space.length_value(a, b) / space.length_value(a, c)
        d = Point(a.x + t * (a.x - c.x), a.y + t * (a.y - c.y))
        assert d == pytest.approx((-2.0, 0.0))
        assert oracle_B(space, c, a, d)
        assert space.eq_dist(a, b, a, d)

    def test_isosceles_homothety_example(self):
        # o=(0,0), a=(2,0), a'=(0,2) in l1 (both at distance 2), b=(3,0) => b'=(0,3)
        space = Space(L1, "exact")
        o, a, a2, b = pt(0, 0), pt(2, 0), pt(0, 2), pt(3, 0)
        scale = F(3, 2)
        b2 = Point(o.x + scale * (a2.x - o.x), o.y + scale * (a2.y - o.y))
        assert b2 == pt(0, 3)
        assert space.eq_dist(o, a, o, a2)
        assert space.eq_dist(o, b, o, b2)

    def test_archimedean_example_reaches_seven_halves_in_five_steps(self):
        space = Space(L2, "exact")
        x1 = pt(0, 0)
        step = pt(1, 0)
        target = pt("7/2", 0)
        xs = [Point(x1.x + F(i) * step.x, x1.y + F(i) * step.y) for i in range(8)]
        found = next(n for n in range(2, 8) if oracle_B(space, x1, target, xs[n - 1]))
        assert found == 5

    def test_equilateral_triangle_in_float_euclidean(self):
        report = check_axiom_g(Space(L2, "exact"), samples=1, seed=12)
        assert report.backend == "float"  # exact l2 delegates construction to floats


class TestReportBookkeeping:
    def test_incomplete_archimedean_chains_are_not_violations(self):
        space = Space(L2, "exact")
        report = check_axiom_i(space, samples=60, seed=3, chain_cap=3)
        assert report.passed
        assert report.incomplete >= 0

    def test_chain_cap_below_two_is_refused(self):
        with pytest.raises(ValueError, match="got 1"):
            check_axiom_i(Space(L1, "exact"), samples=5, seed=3, chain_cap=1)

    def test_axiom_h_embeds_the_order_formula_comparison(self):
        space = Space(L1, "exact")
        report = check_axiom_h(space, samples=50, seed=4, schnabel_samples=40)
        assert report.passed
        assert report.extra["order_formula"]["agreements"] == 40

    def test_reports_serialize(self):
        space = Space(LINF, "exact")
        rep = check_axiom_a(space, 20, seed=5)
        payload = rep.to_dict()
        assert payload["axiom"] == "a" and payload["violations"] == []


def never_between(space, a, b, c):
    return False


def between_without_endpoints(space, a, b, c):
    return oracle_B(space, a, b, c) and not space.points_eq(a, b) and not space.points_eq(b, c)


@pytest.mark.parametrize(
    "axiom,fault,clause,space",
    [
        ("b", never_between, "transport/uniqueness", Space(L1, "exact")),
        ("b", never_between, "transport/uniqueness", Space(L2, "exact")),
        ("b", never_between, "transport/uniqueness", Space(L2, "float", 1e-9)),
        ("f", between_without_endpoints, "f conclusion B(b,c,c')", Space(L1, "exact")),
        ("f", between_without_endpoints, "f conclusion B(b,c,c')", Space(L2, "exact")),
        ("i", never_between, "i ray guard", Space(LINF, "exact")),
        ("i", never_between, "i ray guard", Space(L2, "float", 1e-9)),
    ],
    ids=["b-l1-exact", "b-l2-exact", "b-l2-float", "f-l1-exact", "f-l2-exact", "i-linf-exact", "i-l2-float"],
)
def test_a_planted_fault_is_recorded_for_replay(monkeypatch, axiom, fault, clause, space):
    # a betweenness that is never true, or that drops its endpoints, breaks
    # the axiom; each violation names its clause and records its points so
    # that they read back, after the report's JSON, as the same points
    monkeypatch.setattr(axioms, "oracle_B", fault)
    rep = run_axiom(axiom, space, samples=60, constructions=60, seed=5)
    assert not rep.passed
    assert {v["clause"] for v in rep.violations} == {clause}
    replayed = json.loads(stable_json_dumps(rep.to_dict()))["violations"]
    assert len(replayed) == len(rep.violations)
    for violation in replayed:
        for record in violation["points"].values():
            assert point_to_record(space, point_from_record(space, record)) == record
