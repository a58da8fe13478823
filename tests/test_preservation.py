import random
from fractions import Fraction

import pytest

from equitower import L1, L2, LINF, Point, Space, preservation
from equitower.geometry import affine_combination, p_add, point_from_record, point_to_record
from equitower.oracles import oracle_B
from equitower.preservation import (
    ANISOTROPIC,
    CUBIC_X,
    SHEAR_X,
    MapError,
    PlaneMap,
    check_B_preservation,
    check_equidistance_preservation,
    compose,
    linear_map,
    run_experiment,
    run_similarity_sweep,
    similarity,
    similarity_suite,
    translation,
)
from equitower.sampling import (
    equal_length_mate,
    isometry_generators,
    rand_fraction,
    rand_point,
    rand_unit_fraction,
)

F = Fraction
S2 = Space(L2, "exact")


def pt(x, y):
    return Point(F(x), F(y))


class TestMapAlgebra:
    def test_apply_examples(self):
        assert translation(1, 2).apply(pt(0, 0)) == pt(1, 2)
        ident = isometry_generators(S2)[0]
        assert similarity(2, ident).apply(pt(1, 1)) == pt(2, 2)
        assert SHEAR_X.apply(pt(1, 1)) == pt(2, 1)
        assert CUBIC_X.apply(pt(-2, 3)) == pt(-8, 3)

    def test_singular_linear_part_rejected(self):
        with pytest.raises(MapError):
            linear_map(1, 2, 2, 4)
        with pytest.raises(MapError):
            similarity(0, isometry_generators(S2)[0])
        with pytest.raises(MapError):
            PlaneMap("nonlinear", family="nope")

    def test_from_config_builds_the_map(self):
        rotate = similarity(F(1, 2), isometry_generators(S2)[1], (3, -2))
        for cfg, m in (
            ({"kind": "affine", "matrix": ["1", "1", "0", "1"], "shift": ["0", "0"], "label": "shear(x+y,y)"}, SHEAR_X),
            ({"kind": "nonlinear", "family": "cubic_x", "label": "cubic(x^3,y)"}, CUBIC_X),
            ({"matrix": ["3/10", "-2/5", "2/5", "0.3"], "shift": [3, "-2"], "label": "similarity(scale=1/2)"}, rotate),
        ):
            assert PlaneMap.from_config(cfg) == m

    def test_composition_is_exact(self):
        suite = similarity_suite(S2)
        comp = compose(suite[1], suite[7])
        assert comp.kind == "affine"
        probe = pt("3/7", "-2/5")
        assert comp.apply(probe) == suite[1].apply(suite[7].apply(probe))


class TestClassification:
    def test_similarities_preserve_both_directions(self):
        for space in (S2, Space(L1, "exact"), Space(LINF, "exact")):
            for m in similarity_suite(space)[:8]:
                rep = check_equidistance_preservation(space, m, 250, seed=21)
                rep = check_B_preservation(space, m, 250, seed=22, report=rep)
                assert rep.classification == "bidirectional-preserving"
                assert rep.b_violations == 0

    def test_shear_produces_a_forward_witness(self):
        rep = check_equidistance_preservation(S2, SHEAR_X, 1000, seed=23)
        assert rep.classification == "violating"
        assert "forward" in rep.first_witnesses
        a, b, c, d = (pt(r["x"], r["y"]) for r in rep.first_witnesses["forward"])
        assert S2.eq_dist(a, b, c, d)
        fa, fb, fc, fd = (SHEAR_X.apply(p) for p in (a, b, c, d))
        assert not S2.eq_dist(fa, fb, fc, fd)

    def test_anisotropic_scale_is_caught(self):
        rep = check_equidistance_preservation(S2, ANISOTROPIC, 1000, seed=24)
        assert rep.forward_violations > 0

    def test_cubic_family_violates_but_preserves_special_triples(self):
        rep = check_equidistance_preservation(S2, CUBIC_X, 1000, seed=25)
        assert rep.classification == "violating"
        # the flat x-axis triple transports fine: images stay collinear in order
        from equitower.oracles import oracle_B

        triple = (pt(-1, 0), pt(0, 0), pt(1, 0))
        images = tuple(CUBIC_X.apply(p) for p in triple)
        assert oracle_B(S2, *triple) and oracle_B(S2, *images)

    def test_similarity_composition_stays_clean(self):
        suite = similarity_suite(S2)
        comp = compose(suite[3], suite[11])
        rep = check_equidistance_preservation(S2, comp, 500, seed=26)
        rep = check_B_preservation(S2, comp, 500, seed=27, report=rep)
        assert rep.classification == "bidirectional-preserving"
        assert rep.b_violations == 0

    def test_bidirectional_maps_preserve_betweenness_on_samples(self):
        # the weak transport claim under test: no sampled bidirectional map broke B
        suite = similarity_suite(S2)[:6] + [SHEAR_X, ANISOTROPIC]
        summary = run_experiment(S2, suite, quadruples=200, triples=200, seed=28)
        for entry in summary["maps"]:
            if entry["classification"] == "bidirectional-preserving":
                assert entry["b_violations"] == 0

    def test_experiment_expectations(self):
        maps = [SHEAR_X]
        summary = run_experiment(
            S2, maps, 300, 100, seed=29, expectations={SHEAR_X.label: "violating"}
        )
        assert summary["expectation_mismatches"] == 0
        summary_bad = run_experiment(
            S2, maps, 300, 100, seed=29, expectations={SHEAR_X.label: "bidirectional-preserving"}
        )
        assert summary_bad["expectation_mismatches"] == 1

    def test_empty_map_list(self):
        summary = run_experiment(S2, [], 10, 10, seed=30)
        assert summary["maps"] == []

    @pytest.mark.parametrize("space", [S2, Space(L1, "float", 1e-9)], ids=["l2-exact", "l1-float"])
    def test_a_collapsing_map_is_forward_only(self, monkeypatch, space):
        # every image segment has length 0: equal segments stay equal, unequal ones become equal
        monkeypatch.setitem(preservation.NONLINEAR_FAMILIES, "collapse", lambda p: Point(p.x * 0, p.y * 0))
        rep = check_equidistance_preservation(space, PlaneMap("nonlinear", family="collapse"), 200, seed=31)
        assert rep.classification == "forward-only" == rep.to_dict()["classification"]
        assert rep.forward_violations == 0 < rep.backward_violations
        assert set(rep.first_witnesses) == {"backward"}
        a, b, c, d = (point_from_record(space, r) for r in rep.first_witnesses["backward"])
        assert not space.eq_dist(a, b, c, d)


# ----------------------------------------------------------------------
# differential check: every entry point against a pointwise reference
# ----------------------------------------------------------------------

DIFF_PLANES = [Space(L1, "exact"), Space(L2, "exact"), Space(LINF, "exact"), Space(L2, "float")]


def _ref_quadruples(space, rng, n):
    """The harness's quadruple draws, written out from the samplers."""
    out = []
    for _ in range(n):
        a, c, b = rand_point(space, rng), rand_point(space, rng), rand_point(space, rng)
        if rng.random() < 0.5:
            d = p_add(c, equal_length_mate(space, rng, Point(b.x - a.x, b.y - a.y)))
        else:
            d = rand_point(space, rng)
        out.append((a, b, c, d))
    return out


def _ref_triples(space, rng, n):
    out = []
    for _ in range(n):
        a, c = rand_point(space, rng), rand_point(space, rng)
        t = rng.choice((F(0), F(1), rand_unit_fraction(rng)))
        out.append((a, affine_combination(a, c, t), c))
    return out


def _ref_classify(space, plane_map, quads, triples):
    """Counts and first witnesses from mapping every point and asking the
    space and the betweenness oracle about the images."""
    f = plane_map.apply
    counts = {"quadruples": len(quads), "triples": len(triples),
              "forward_violations": 0, "backward_violations": 0, "b_violations": 0}
    witnesses = {}
    for pts in quads:
        pre = space.eq_dist(*pts)
        post = space.eq_dist(*(f(p) for p in pts))
        if pre != post:
            kind = "forward" if pre else "backward"
            counts[f"{kind}_violations"] += 1
            witnesses.setdefault(kind, [point_to_record(space, p) for p in pts])
    for pts in triples:
        if oracle_B(space, *pts) and not oracle_B(space, *(f(p) for p in pts)):
            counts["b_violations"] += 1
            witnesses.setdefault("betweenness", [point_to_record(space, p) for p in pts])
    return counts, witnesses


def _observed(rep):
    counts = {k: getattr(rep, k) for k in ("quadruples", "triples", "forward_violations",
                                           "backward_violations", "b_violations")}
    return counts, rep.first_witnesses


def _diff_maps(space):
    suite = similarity_suite(space)
    return suite[::5] + [SHEAR_X, ANISOTROPIC, CUBIC_X, compose(suite[7], SHEAR_X, label="sim∘shear")]


@pytest.mark.parametrize("space", DIFF_PLANES, ids=lambda s: s.label())
def test_entry_points_match_a_pointwise_reference(space):
    maps = _diff_maps(space)
    quads, triples, seed = 120, 60, 4242
    summary = run_experiment(space, maps, quads, triples, seed)
    for index, plane_map in enumerate(maps):
        want = _ref_classify(
            space, plane_map,
            _ref_quadruples(space, random.Random(seed + 1000 * index), quads),
            _ref_triples(space, random.Random(seed + 1000 * index + 1), triples),
        )
        entry = summary["maps"][index]
        assert ({k: entry[k] for k in want[0]}, entry["first_witnesses"]) == want, plane_map.label
        rep = check_equidistance_preservation(space, plane_map, quads, seed + 1000 * index)
        rep = check_B_preservation(space, plane_map, triples, seed + 1000 * index + 1, rep)
        assert _observed(rep) == want, plane_map.label
    assert any(e["forward_violations"] for e in summary["maps"])
    assert any(e["b_violations"] for e in summary["maps"])
    if space.backend != "exact":
        return
    rng = random.Random(seed)
    pool = (_ref_quadruples(space, rng, quads), _ref_triples(space, rng, triples))
    for plane_map, rep in zip(maps, run_similarity_sweep(space, maps, quads, triples, seed)):
        assert _observed(rep) == _ref_classify(space, plane_map, *pool), plane_map.label


def test_sweep_runs_on_floats_like_the_reference():
    space = Space(L2, "float")
    maps = _diff_maps(space)
    rng = random.Random(77)
    pool = (_ref_quadruples(space, rng, 120), _ref_triples(space, rng, 60))
    for plane_map, rep in zip(maps, run_similarity_sweep(space, maps, 120, 60, 77)):
        assert _observed(rep) == _ref_classify(space, plane_map, *pool), plane_map.label


def test_integer_betweenness_agrees_with_the_oracle():
    from equitower.preservation import _int_between

    rng = random.Random(5)

    def lattice_point():
        return Point(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))

    for _ in range(2000):
        a, c = lattice_point(), lattice_point()
        # t ranges over [-1, 2] in thirds, so b also lands off the segment
        b = affine_combination(a, c, F(rng.randint(-3, 6), 3)) if rng.random() < 0.7 else lattice_point()
        px, py, qx, qy = (int(3 * v) for v in (b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y))
        assert _int_between(px, py, qx, qy) == oracle_B(S2, a, b, c), (a, b, c)


def test_float_rand_point_equals_rounded_rand_fraction():
    space = Space(L2, "float")
    drawn, ref = random.Random(99), random.Random(99)
    for _ in range(20_000):
        p = rand_point(space, drawn)
        x, y = float(rand_fraction(ref)), float(rand_fraction(ref))
        assert (p.x, p.y) == (x, y) and isinstance(p.x, float) and isinstance(p.y, float)
    assert drawn.random() == ref.random()
