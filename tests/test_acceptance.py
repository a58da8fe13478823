"""Acceptance suite: every criterion at its stated scale, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is pure Python over exact rationals and takes a few
minutes at full scale.
"""

import random
import time
from fractions import Fraction

import pytest

from equitower import (
    ImplMap,
    L1,
    L2,
    LINF,
    Point,
    Space,
    TruncationParams,
    Universe,
    eval_formula,
    lp,
)
from equitower.closure import closure_for_relation
from equitower.formulas.evaluator import schema_query
from equitower.formulas.generate import random_formula
from equitower.formulas.ast import format_formula
from equitower.formulas.parser import parse_formula
from equitower.formulas.verify import sample_instance, verification_space, verify_layer
from equitower.oracles import (
    ALPHA,
    BETA,
    DELTA,
    GAMMA,
    PHI,
    PSI,
    RelationId,
    oracle_B,
    oracle_gamma,
    oracle_truth,
)
from equitower.preservation import (
    ANISOTROPIC,
    SHEAR_X,
    check_equidistance_preservation,
    run_similarity_sweep,
    similarity_suite,
)
from equitower.sampling import collinear_triple, rand_point
from equitower.axioms import (
    check_axiom_a,
    check_axiom_b,
    check_axiom_c_d_e,
    check_axiom_f,
    check_axiom_g,
    check_axiom_h,
    check_axiom_i,
)
from equitower.cli import main as cli_main

import brute_force

F = Fraction
NORMS = (L1, L2, LINF)
TR = TruncationParams()


def pt(x, y):
    return Point(F(x), F(y))


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} [{name}]: PASS")


ORACLE_RELATIONS = [
    RelationId("EQUIV2"),
    PHI(0),
    RelationId("M"),
    ALPHA(3),
    ALPHA(1),
    BETA(2),
    PSI(3, 2),
    PSI(1, 1),
    GAMMA,
    RelationId("B"),
    DELTA(4),
    RelationId("NEQ"),
    RelationId("LE"),
    RelationId("COLLINEAR"),
    RelationId("PARALLELOGRAM"),
]


def _oracle_instance(space, rng, rel):
    """Relation-shaped sample; reuses the verify samplers where they exist."""
    name = rel.name
    if name in ("M", "COLLINEAR", "PARALLELOGRAM"):
        pts = [rand_point(space, rng) for _ in range(rel.arity())]
        roll = rng.random()
        if name == "M" and roll < 0.5:
            a, c = pts[0], pts[2]
            from equitower.geometry import midpoint

            return (a, midpoint(a, c), c)
        if name == "COLLINEAR" and roll < 0.5:
            return collinear_triple(space, rng)
        if name == "PARALLELOGRAM" and roll < 0.5:
            a, b = pts[0], pts[1]
            w = rand_point(space, rng)
            return (a, b, Point(b.x + w.x, b.y + w.y), Point(a.x + w.x, a.y + w.y))
        return tuple(pts)
    return sample_instance(space, rng, rel, TR)


def test_acceptance_1_oracle_ground_truth():
    started = time.perf_counter()
    rng = random.Random(20240501)
    mismatches = 0
    for norm in NORMS:
        space = Space(norm, "exact")
        kind = norm.kind
        for _ in range(10_000):
            for rel in ORACLE_RELATIONS:
                pts = _oracle_instance(space, rng, rel)
                got = oracle_truth(space, rel, pts)
                want = brute_force.brute_truth(kind, rel.name, rel.indices, pts)
                if got != want:
                    mismatches += 1
                    assert mismatches == 0, (norm.kind, rel.label(), pts, got, want)
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60.0, f"oracle ground truth took {elapsed:.1f}s"
    _report(1, f"oracle ground truth, {elapsed:.1f}s")


def _truncated_gamma(space, pts, trunc):
    query, params = schema_query(GAMMA)
    uni = Universe(space, pts)
    return eval_formula(query, space, uni, dict(zip(params, pts)), trunc, ImplMap.layered("GAMMA"))


def test_acceptance_2_gamma_truncation_bound():
    band = F(1, 32)  # 2^(1-K) at K = 6
    trunc6 = TruncationParams(K=6)
    for norm in NORMS:
        space = Space(norm, "exact")
        rng = random.Random(20240502)
        checked_true = 0
        for i in range(1000):
            if i % 3 == 0:  # grazing triples: tiny but nonzero defect
                a, _, c = collinear_triple(space, rng)
                delta = F(rng.randint(1, 4), 512)
                b = Point(a.x + (1 + delta) * (c.x - a.x), a.y + (1 + delta) * (c.y - a.y))
                pts = (a, b, c)
            else:
                pts = sample_instance(space, rng, GAMMA, trunc6)
            if space.points_eq(pts[0], pts[1]) or space.points_eq(pts[1], pts[2]) or space.points_eq(pts[0], pts[2]):
                continue
            if _truncated_gamma(space, pts, trunc6):
                checked_true += 1
                assert space.path_defect_at_most(*pts, band), (norm.kind, pts)
        assert checked_true >= 200, f"too few truncated-true triples in {norm.kind}"
    # exact-equality triples satisfy the truncated tower at every depth up to 10
    for norm in NORMS:
        space = Space(norm, "exact")
        rng = random.Random(20240602)
        for _ in range(1000):
            pts = collinear_triple(space, rng)
            if space.points_eq(pts[0], pts[1]) or space.points_eq(pts[1], pts[2]):
                continue
            for K in range(1, 11):
                assert _truncated_gamma(space, pts, TruncationParams(K=K)), (norm.kind, pts, K)
    _report(2, "truncated metric-betweenness bound")


def test_acceptance_3_strict_convexity_discrimination():
    space = Space(L2, "exact")
    rng = random.Random(20240503)
    checked = 0
    while checked < 10_000:
        pts = sample_instance(space, rng, GAMMA, TR)
        a, b, c = pts
        if space.points_eq(a, b) or space.points_eq(b, c) or space.points_eq(a, c):
            continue
        checked += 1
        assert oracle_gamma(space, a, b, c) == oracle_B(space, a, b, c), pts
    box = Space(LINF, "exact")
    trio = (pt(0, 0), pt(2, 1), pt(4, 0))
    assert oracle_gamma(box, *trio)
    assert not oracle_B(box, *trio)
    trunc = TruncationParams(b_depth=1)
    query, params = schema_query(RelationId("B"))
    uni = closure_for_relation(box, RelationId("B"), trio, trunc)
    verdict = eval_formula(query, box, uni, dict(zip(params, trio)), trunc, ImplMap.layered("B"))
    assert verdict is False
    _report(3, "strict-convexity discrimination")


def test_acceptance_4_paper_gap_regression():
    space = Space(L2, "exact")
    trio = (pt(0, 0), pt(2, 0), pt(4, 0))
    query, params = schema_query(RelationId("B"))
    strict = TruncationParams(b_mode="strict-paper")
    uni = closure_for_relation(space, RelationId("B"), trio, strict)
    assert eval_formula(query, space, uni, dict(zip(params, trio)), strict, ImplMap.layered("B")) is False
    assert oracle_B(space, *trio) is True
    # repaired mode agrees with the oracle across dyadic-heavy samples
    repaired = TruncationParams(b_mode="repaired")
    rng = random.Random(20240504)
    for _ in range(10_000):
        pts = sample_instance(space, rng, RelationId("B"), repaired)
        uni = closure_for_relation(space, RelationId("B"), pts, repaired)
        got = eval_formula(query, space, uni, dict(zip(params, pts)), repaired, ImplMap.layered("B"))
        assert got == oracle_B(space, *pts), pts
    _report(4, "literal-tower gap pinned; repaired tower agrees")


LAYER_PLAN = (
    [RelationId("EQUIV2")]
    + [BETA(k) for k in range(1, 5)]
    + [ALPHA(n) for n in range(1, 7)]
    + [PSI(n, k) for n in range(1, 9) for k in range(1, 5)]
    + [GAMMA]
    + [DELTA(n) for n in range(2, 9)]
    + [RelationId("NEQ"), RelationId("LE"), RelationId("B")]
)


def _family_samples(rel) -> int:
    # each family receives >= 1000 samples per norm, split across its indices
    if rel.name == "BETA":
        return 250
    if rel.name == "ALPHA":
        return 170
    if rel.name == "PSI":
        return 32
    if rel.name == "DELTA":
        return 143
    return 1000


def test_acceptance_5_layer_verification():
    for norm in NORMS:
        family_counts: dict[str, int] = {}
        for rel in LAYER_PLAN:
            space = verification_space(rel, norm)
            assert space.tolerance in (0.0, 1e-9)
            samples = _family_samples(rel)
            report = verify_layer(space, rel, TR, samples, seed=20240505)
            assert report.passed, (norm.kind, rel.label(), report.counterexamples[0])
            family_counts[rel.name] = family_counts.get(rel.name, 0) + report.samples
        for family, total in family_counts.items():
            assert total >= 1000, (family, total)
    _report(5, "layer verification, zero counterexamples")


@pytest.mark.parametrize("p", ["3", "3/2"])
def test_acceptance_5_layer_verification_on_float_lp(p):
    # strictly convex non-Euclidean planes reach the tower only through
    # float lp sphere meets; the same plan must agree on every sample
    for rel in LAYER_PLAN:
        space = verification_space(rel, lp(p))
        report = verify_layer(space, rel, TR, _family_samples(rel), seed=20240505)
        assert report.passed, (p, rel.label(), report.counterexamples[0])
    _report(5, f"layer verification on float lp({p}), zero counterexamples")


def test_acceptance_6_axiom_suite():
    seed = 20240506
    for norm in NORMS:
        space = Space(norm, "exact")
        for name, checker in (("a", check_axiom_a), ("cde", check_axiom_c_d_e), ("f", check_axiom_f)):
            report = checker(space, 100_000, seed)
            assert report.passed, (norm.kind, name, report.violations[0])
        report = check_axiom_h(space, 100_000, seed, schnabel_samples=200)
        assert report.passed, (norm.kind, "h", report.violations[0])
        for name, checker in (("b", check_axiom_b), ("g", check_axiom_g)):
            report = checker(space, 1000, seed)
            assert report.passed, (norm.kind, name, report.violations[0])
            assert report.witnesses + report.not_applicable + report.skipped == report.samples
        report = check_axiom_i(space, 1000, seed, chain_cap=12)
        assert report.passed, (norm.kind, "i", report.violations[0])
        assert report.incomplete == 0
        assert report.witnesses == report.samples
    _report(6, "axiom suite")


def test_acceptance_7_preservation_harness():
    for norm in NORMS:
        space = Space(norm, "exact")
        maps = similarity_suite(space)
        reports = run_similarity_sweep(space, maps, quadruples=10_000, triples=10_000, seed=20240507)
        for rep in reports:
            assert rep.quadruples == 10_000 and rep.triples > 0
            assert rep.forward_violations == 0 and rep.backward_violations == 0, rep.map_label
            assert rep.b_violations == 0, rep.map_label
    space = Space(L2, "exact")
    for dirty in (SHEAR_X, ANISOTROPIC):
        rep = check_equidistance_preservation(space, dirty, 1000, seed=20240508)
        assert rep.forward_violations > 0, dirty.label
        witness = rep.first_witnesses["forward"]
        a, b, c, d = (pt(r["x"], r["y"]) for r in witness)
        assert space.eq_dist(a, b, c, d)
        fa, fb, fc, fd = (dirty.apply(p) for p in (a, b, c, d))
        assert not space.eq_dist(fa, fb, fc, fd)
    _report(7, "map preservation sweep")


def test_acceptance_8_determinism_and_round_trip(tmp_path):
    pairs = []
    for stem, argv in (
        ("layer", ["verify-layer", "--relation", "GAMMA", "--samples", "150", "--seed", "42", "--norm", "linf"]),
        ("axiom", ["check-axioms", "--axiom", "cde", "--samples", "300", "--seed", "42", "--norm", "l1"]),
        ("vogt", ["vogt", "--quadruples", "150", "--triples", "100", "--seed", "42", "--norm", "l2"]),
    ):
        out1 = tmp_path / f"{stem}1.json"
        out2 = tmp_path / f"{stem}2.json"
        assert cli_main(argv + ["--output", str(out1)]) == 0
        assert cli_main(argv + ["--output", str(out2)]) == 0
        pairs.append((out1.read_bytes(), out2.read_bytes()))
    for blob1, blob2 in pairs:
        assert blob1 == blob2
    rng = random.Random(20240509)
    for _ in range(1000):
        f = random_formula(rng, depth=4)
        text = format_formula(f)
        parsed = parse_formula(text)
        assert parsed == f
        assert format_formula(parsed) == text
    _report(8, "determinism and parse/print round-trip")
