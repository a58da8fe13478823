import random
from fractions import Fraction

import pytest

from equitower import ExactBackendRefusedError, L1, L2, LINF, Point, Space, TruncationParams
from equitower.closure import (
    IncompleteClosureError,
    add_refuters,
    close_for_alpha_beta,
    close_for_delta,
    close_for_psi,
    close_midpoints,
    closure_for_relation,
    dyadic_chain,
)
from equitower import universe
from equitower.geometry import GeometryError
from equitower.oracles import DELTA, PSI, RelationId
from equitower.universe import TAG_REFUTER, TAG_SPHERE, UniverseOverflowError

F = Fraction
S1 = Space(L1, "exact")
S2 = Space(L2, "exact")
SI = Space(LINF, "exact")


def pt(x, y):
    return Point(F(x), F(y))


class TestMidpointClosure:
    def test_depth_one_adds_the_midpoint(self):
        uni = close_midpoints(S2, [pt(0, 0), pt(1, 0)], 1)
        assert uni.contains(pt("1/2", 0))
        assert len(uni) == 3

    def test_depth_two_adds_quarter_points(self):
        uni = close_midpoints(S2, [pt(0, 0), pt(1, 0)], 2)
        assert uni.contains(pt("1/4", 0)) and uni.contains(pt("3/4", 0))

    def test_depth_zero_rejected(self):
        with pytest.raises(GeometryError):
            close_midpoints(S2, [pt(0, 0)], 0)

    def test_overflow_guard(self, monkeypatch):
        monkeypatch.setattr(universe, "SIZE_CAP", 100)
        pts = [pt(i, j) for i in range(5) for j in range(5)]
        with pytest.raises(UniverseOverflowError):
            close_midpoints(S2, pts, 3)

    def test_deterministic_and_fixpoint_cases(self):
        first = close_midpoints(S2, [pt(0, 0), pt(2, 0), pt(0, 2)], 2)
        second = close_midpoints(S2, [pt(0, 0), pt(2, 0), pt(0, 2)], 2)
        assert first.points == second.points
        # a singleton is closed under midpoints: re-closing adds nothing
        solo = close_midpoints(S2, [pt(5, 5)], 3)
        assert solo.points == (pt(5, 5),)


class TestRayAndDyadicClosure:
    def test_alpha_multiples(self):
        uni = close_for_alpha_beta(S2, pt(0, 0), pt(1, 0), 3, 0)
        for i in (2, 3):
            assert uni.contains(pt(i, 0))

    def test_beta_dyadics(self):
        uni = close_for_alpha_beta(S2, pt(0, 0), pt(1, 0), 0, 2)
        assert uni.contains(pt("1/4", 0))

    def test_minimal_case(self):
        uni = close_for_alpha_beta(S2, pt(0, 0), pt(1, 0), 1, 1)
        assert set(uni.points) == {pt(0, 0), pt(1, 0), pt("1/2", 0)}

    def test_degenerate_pair_rejected(self):
        with pytest.raises(GeometryError):
            close_for_alpha_beta(S2, pt(1, 1), pt(1, 1), 2, 2)

    def test_dyadic_chain(self):
        chain = dyadic_chain(pt(0, 0), pt(8, 0), 3)
        assert len(chain) == 9 and chain[1] == pt(1, 0)


class TestPsiClosure:
    def test_witness_validates_in_float_euclidean(self):
        space = Space(L2, "float", 1e-9)
        a, b, c, d = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 0.0), Point(0.0, 1.0)
        uni = close_for_psi(space, a, b, c, d, 2, 1)
        sphere_points = [p for p, t in zip(uni.points, uni.tags) if t == TAG_SPHERE]
        assert len(sphere_points) == 1
        e = sphere_points[0]
        assert abs(space.length_value(c, e) - 1.0) <= 1e-9
        assert abs(space.length_value(d, e) - 0.5) <= 1e-9

    def test_false_instance_gets_scaffolding_only(self):
        uni = close_for_psi(S1, pt(0, 0), pt(1, 0), pt(0, 0), pt(10, 0), 2, 1)
        assert not any(t == TAG_SPHERE for t in uni.tags)

    def test_exact_taxicab_witness(self):
        uni = close_for_psi(S1, pt(0, 0), pt(2, 0), pt(0, 0), pt(0, 1), 2, 1)
        sphere_points = [p for p, t in zip(uni.points, uni.tags) if t == TAG_SPHERE]
        assert len(sphere_points) == 1
        e = sphere_points[0]
        assert S1.length_value(pt(0, 0), e) == 2
        assert S1.length_value(pt(0, 1), e) == 1

    def test_exact_euclidean_refused_when_irrational(self):
        with pytest.raises(ExactBackendRefusedError):
            close_for_psi(S2, pt(0, 0), pt(1, 0), pt(0, 0), pt(0, 1), 2, 1)


class TestDeltaClosure:
    def test_straight_chain(self):
        uni = close_for_delta(S1, pt(0, 0), pt(1, 0), pt(3, 0), 4)
        assert uni.contains(pt(1, 0)) and uni.contains(pt(2, 0)) and uni.contains(pt(3, 0))

    def test_remainder_resolved_by_detour(self):
        uni = close_for_delta(S1, pt(0, 0), pt(1, 0), pt("5/2", 0), 4)
        apexes = [p for p, t in zip(uni.points, uni.tags) if t == TAG_SPHERE]
        assert apexes, "detour apex expected"
        # the full-steps-then-detour route has length 4
        walk = [pt(0, 0), pt(1, 0), pt(2, 0)]
        last_leg = [p for p in apexes if S1.length_value(pt(2, 0), p) == 1 and S1.length_value(p, pt("5/2", 0)) == 1]
        assert last_leg, "two equal steps must close the remaining gap"

    def test_degenerate_step_rejected(self):
        with pytest.raises(GeometryError):
            close_for_delta(S1, pt(0, 0), pt(0, 0), pt(1, 0), 4)

    def test_unreachable_target_reported(self):
        with pytest.raises(IncompleteClosureError):
            close_for_delta(S1, pt(0, 0), pt(1, 0), pt(100, 0), 4)

    def test_every_step_validates(self):
        rng = random.Random(5)
        for space in (S1, SI):
            for _ in range(60):
                x = pt(rng.randint(-5, 5), rng.randint(-5, 5))
                y = pt(x.x + rng.randint(1, 3), x.y + rng.randint(0, 3))
                z = pt(rng.randint(-9, 9), rng.randint(-9, 9))
                try:
                    uni = close_for_delta(space, x, y, z, 8)
                except IncompleteClosureError:
                    continue
                for p, t in zip(uni.points, uni.tags):
                    if t == TAG_SPHERE:
                        # apexes sit one step from their two anchors by construction;
                        # at minimum they lie a step away from some universe point
                        assert any(space.eq_dist(p, q, x, y) for q in uni.points if q != p)


class TestRefuters:
    def test_equiv2_refuters(self):
        pts = (pt(0, 0), pt(4, 0), pt(1, 1), pt(2, 1))
        uni = add_refuters(S2, RelationId("EQUIV2"), pts)
        assert uni.contains(pt(2, 0)) and uni.contains(pt(1, 0))
        tags = {t for p, t in zip(uni.points, uni.tags) if p in (pt(2, 0), pt(1, 0))}
        assert tags == {TAG_REFUTER}

    def test_le_refuter_is_the_midpoint(self):
        pts = (pt(0, 0), pt(9, 9), pt(0, 0), pt(2, 0))
        uni = add_refuters(S2, RelationId("LE"), pts)
        assert uni.contains(pt(1, 0))

    def test_neq_far_point_outreaches_the_chain_bound(self):
        pts = (pt(0, 0), pt(1, 0))
        uni = add_refuters(S2, RelationId("NEQ"), pts, chain_max=4)
        far = [p for p, t in zip(uni.points, uni.tags) if t == TAG_REFUTER]
        assert len(far) == 1
        assert not S2.le_dist_scaled(pt(0, 0), far[0], 4, pt(0, 0), pt(1, 0))

    def test_unknown_refuter_recipe(self):
        with pytest.raises(GeometryError):
            add_refuters(S2, RelationId("GAMMA"), (pt(0, 0), pt(1, 0), pt(2, 0)))


class TestRelationClosure:
    def test_equiv2_true_instance_contains_witnesses(self):
        pts = (pt(0, 0), pt(4, 0), pt(1, 1), pt(3, 1))
        uni = closure_for_relation(S1, RelationId("EQUIV2"), pts, TruncationParams())
        assert uni.contains(pt(2, 0))  # doubles as the distance witness e and refuter x
        assert uni.contains(pt(1, 0))
        assert uni.contains(pt(2, 1))  # midpoint of (c, d)

    def test_closure_is_idempotent_per_relation(self):
        trunc = TruncationParams()
        cases = [
            (S1, RelationId("EQUIV2"), (pt(0, 0), pt(4, 0), pt(1, 1), pt(3, 1))),
            (S1, RelationId("LE"), (pt(0, 0), pt(1, 0), pt(0, 0), pt(2, 0))),
            (S2, RelationId("B"), (pt(0, 0), pt(1, 0), pt(4, 0))),
            (S1, DELTA(4), (pt(0, 0), pt(1, 0), pt(3, 0))),
            (S1, PSI(2, 1), (pt(0, 0), pt(2, 0), pt(0, 0), pt(0, 1))),
        ]
        for space, rel, pts in cases:
            uni = closure_for_relation(space, rel, pts, trunc)
            again = closure_for_relation(space, rel, pts, trunc)
            assert again.points == uni.points
            merged = uni.add(again.points, "input")
            assert len(merged) == len(uni)

    def test_b_closure_contains_all_dyadic_levels(self):
        uni = closure_for_relation(S2, RelationId("B"), (pt(0, 0), pt("1/3", 0), pt(1, 0)), TruncationParams(b_depth=3))
        for i in range(9):
            assert uni.contains(pt(F(i, 8), 0))

    def test_neq_adds_refuter_only_for_equal_points(self):
        tr = TruncationParams()
        same = closure_for_relation(S2, RelationId("NEQ"), (pt(1, 1), pt(1, 1)), tr)
        assert any(t == TAG_REFUTER for t in same.tags)
        diff = closure_for_relation(S2, RelationId("NEQ"), (pt(1, 1), pt(2, 1)), tr)
        assert not any(t == TAG_REFUTER for t in diff.tags)
