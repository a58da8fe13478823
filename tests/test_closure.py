import hashlib
import random
from fractions import Fraction

import pytest

from equitower import ExactBackendRefusedError, L1, L2, LINF, Point, Space, TruncationParams
from equitower.closure import (
    IncompleteClosureError,
    close_for_delta,
    close_for_psi,
    close_midpoints,
    closure_for_relation,
    dyadic_chain,
)
from equitower import universe
from equitower.formulas.verify import sample_instance, verification_space
from equitower.geometry import GeometryError
from equitower.oracles import DELTA, PSI, RelationId
from equitower.reports import stable_json_dumps
from equitower.universe import TAG_CHAIN, TAG_REFUTER, TAG_SPHERE, UniverseOverflowError

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
        uni = closure_for_relation(S2, RelationId("ALPHA", (3,)), (pt(0, 0), pt(1, 0), pt(5, 5)), TruncationParams())
        for i in (2, 3):
            assert uni.contains(pt(i, 0))
        assert not uni.contains(pt(4, 0))

    def test_beta_dyadics(self):
        uni = closure_for_relation(S2, RelationId("BETA", (2,)), (pt(0, 0), pt(1, 0), pt(5, 5)), TruncationParams())
        assert uni.contains(pt("1/4", 0)) and uni.contains(pt("1/2", 0))
        assert not uni.contains(pt("1/8", 0))

    def test_minimal_case(self):
        a, b, half = pt(0, 0), pt(1, 0), pt("1/2", 0)
        uni = closure_for_relation(S2, RelationId("BETA", (1,)), (a, b, half), TruncationParams())
        assert uni.points == (a, b, half)
        uni = closure_for_relation(S2, RelationId("ALPHA", (1,)), (a, b, b), TruncationParams())
        assert uni.points == (a, b)

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


def refuters(uni):
    return [p for p, t in zip(uni.points, uni.tags) if t == TAG_REFUTER]


class TestRefuters:
    def test_equiv2_refuters(self):
        # x = mid(a,b) and y = mid(a,x)
        pts = (pt(0, 0), pt(4, 0), pt(1, 1), pt(2, 1))
        uni = closure_for_relation(S1, RelationId("EQUIV2"), pts, TruncationParams())
        assert refuters(uni) == [pt(2, 0), pt(1, 0)]

    def test_le_refuter_is_the_midpoint(self):
        pts = (pt(0, 0), pt(9, 9), pt(0, 0), pt(2, 0))
        uni = closure_for_relation(S2, RelationId("LE"), pts, TruncationParams())
        assert refuters(uni) == [pt(1, 0)]

    def test_neq_refuter_for_equal_points(self):
        uni = closure_for_relation(S2, RelationId("NEQ"), (pt(1, 1), pt(1, 1)), TruncationParams())
        assert refuters(uni) == [pt(2, 1)]

    def test_unknown_refuter_recipe(self):
        with pytest.raises(GeometryError):
            closure_for_relation(S2, RelationId("PARALLELOGRAM"), (pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)), TruncationParams())


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

    def test_exact_l2_sphere_witness_is_refused(self):
        # the refuter pair (2,0), (1,0) asks for a z-witness on two unit circles
        pts = (pt(0, 0), pt(4, 0), pt(1, 1), pt(2, 1))
        with pytest.raises(ExactBackendRefusedError):
            closure_for_relation(S2, RelationId("EQUIV2"), pts, TruncationParams())

    def test_delta_apexes_are_sphere_witnesses(self):
        # 5/2 steps of length 1: two full steps, then a detour over an apex
        pts = (pt(0, 0), pt(1, 0), pt("5/2", 0))
        uni = closure_for_relation(S1, DELTA(3), pts, TruncationParams())
        assert uni.to_records() == close_for_delta(S1, *pts, 3).to_records()
        tags = dict(zip(uni.points, uni.tags))
        assert tags[pt(2, 0)] == TAG_CHAIN
        apexes = [p for p in uni.points if p.y != 0]
        assert apexes and all(tags[p] == TAG_SPHERE for p in apexes)


# SHA-256 of the closure records of 100 seeded `sample_instance` draws (seed
# 11) per relation, on exact l1, exact linf and `verification_space` l2.  M
# takes PHI(0)'s draws (a, b, x) as (a, x, b).  A closure that raises
# contributes its exception type and message.
GOLDEN_CLOSURE_SHA256 = {
    ("EQUIV2", "l1"): "618b1bf26f8627915658f162ee265d4facd7dcf85e86e8bebe30e4129e9c65cb",
    ("LE", "l1"): "a81eb71c81eda4907fcec9dc85193d84a070f1babcf956e4955a017caacec333",
    ("NEQ", "l1"): "ec23f5b25f8318bebaa571abfa631baa11dea975c37e4c62fde316d3be98b1cd",
    ("ALPHA:3", "l1"): "dfc6ab612eeb6f0c1d1b0b7cd8ec9d2be058b525dbd8be04aff6afaf8d7dfbdf",
    ("BETA:2", "l1"): "59c8c1ffbd5433fa17e384b3028e79ea888c9263ac88458770ce5209d0dbd220",
    ("PSI:3:2", "l1"): "00664f2573e3f25e7838f138d24fa7e00cd7f65563fa9db30cc6aeb957802e63",
    ("GAMMA", "l1"): "28bf05606b73ea2b87725ebd892956c112da79135e4b5d3978e17e9e618ea4cb",
    ("COLLINEAR", "l1"): "c8f896fb561f0535511075d1ee57db270864cff32ccc42f0cd57ed5db2ad5066",
    ("B", "l1"): "7dda5f160f957c1ef08b3cb5b29341a34e9b91d6ee1582557b153687edb2ef18",
    ("DELTA:3", "l1"): "6fc11a7c573bbcf01d2f93d0aa5e163d8a771019cae72d7b02bdb3e260a95355",
    ("DELTA:6", "l1"): "606a447eb47f3d765b61588f1fdf182773d230fd614ea0eb7498312e3a1395fe",
    ("PHI:0", "l1"): "2bef9789843e23a232ab50cb20089fb44a30d9a42510803fe1b76b1647c529de",
    ("M", "l1"): "75a3f90b080c4d1ff01de3843cc110694e08c7e2dbab2ab4f5b8f8ad3fe9fd80",
    ("EQUIV2", "linf"): "bc8b671ca989b94591d1745d0ec7bb4e805b42bfb82cd515a266706b8be6833d",
    ("LE", "linf"): "11dbcaa8961c000f2ec6f43444142415e52fd41ddb1fa12314f48694d6c853b5",
    ("NEQ", "linf"): "ec23f5b25f8318bebaa571abfa631baa11dea975c37e4c62fde316d3be98b1cd",
    ("ALPHA:3", "linf"): "dfc6ab612eeb6f0c1d1b0b7cd8ec9d2be058b525dbd8be04aff6afaf8d7dfbdf",
    ("BETA:2", "linf"): "59c8c1ffbd5433fa17e384b3028e79ea888c9263ac88458770ce5209d0dbd220",
    ("PSI:3:2", "linf"): "e16d5c39871453578ec21d71f23530161ea5bf9ea7174947c6de727c203bf5e1",
    ("GAMMA", "linf"): "7d5ae5c2aae5b869c6aab275558144321a661944d6ffabc77732e2965924ea54",
    ("COLLINEAR", "linf"): "773534614c880666baaab1e80e76e011ab39757d894459778d95c73e93b83c21",
    ("B", "linf"): "45bc55c4eda85bd5f5ee32afc242ae4516f65bf30cf64189faec018423ecaad7",
    ("DELTA:3", "linf"): "bf9e071eba72ba9bde9d9a1b55feb5d165fba3426c9084a2163991cb0a681f8d",
    ("DELTA:6", "linf"): "2a2f162af41a2bef02f7ce564b4549c6d0127d1fc5d0759792e475674571b1f7",
    ("PHI:0", "linf"): "99ce855bdadd53da69a30c77075e49d28d2e8ae7683488307e2e62d77dcfcf11",
    ("M", "linf"): "e09e14cc4199595cf5de83ee4d224b23a44e259b6fae2bf562e4cf9fd47f87ed",
    ("EQUIV2", "l2"): "b38dd0d2152233f168b307faf4aefe2eee7f15ca7090fc28445c7ce4c28b6a23",
    ("LE", "l2"): "25451ea23ee51ee107a832ec3ea6553cb214c30a959440a507ed596dde112d3b",
    ("NEQ", "l2"): "ec23f5b25f8318bebaa571abfa631baa11dea975c37e4c62fde316d3be98b1cd",
    ("ALPHA:3", "l2"): "dfc6ab612eeb6f0c1d1b0b7cd8ec9d2be058b525dbd8be04aff6afaf8d7dfbdf",
    ("BETA:2", "l2"): "59c8c1ffbd5433fa17e384b3028e79ea888c9263ac88458770ce5209d0dbd220",
    ("PSI:3:2", "l2"): "38778cb7a35c7182ad06a3c33fdddafce70889f54064e1433db5fd1a023231e1",
    ("GAMMA", "l2"): "d6c5774edd653b6ee176575889dc6e284bd1f9dd7addce0e9fc8f2b0fd88d5f9",
    ("COLLINEAR", "l2"): "4fc38dd15ef87fbb0c34f793ad6979600cffa9bd3a1f2e06d98e3b4c17a90e6c",
    ("B", "l2"): "b0e20aec64c43cbd27a8ec0d80f0adfeb0dadcd834ed3f48928d76bada770f73",
    ("DELTA:3", "l2"): "df5ae7ac5eb006c79094abf69fb305010511fca9261cf2a215e048fd9dccaf85",
    ("DELTA:6", "l2"): "1ed97c361dd225ccf80cf589a905654d889f2e20aa50f4e75b0506408d1b2134",
    ("PHI:0", "l2"): "c2b0a8d2fa63252b3bd6b659c1e949976f33bea0b46b850f1fc4757ae7f524af",
    ("M", "l2"): "92a7fd49a7027b3e18bc6f194aff74a04ec6ba550be5af14ba7dab804c7ffa75",
}
PIN_NORMS = {"l1": L1, "linf": LINF, "l2": L2}


def closure_digest(label: str, norm: str, samples: int = 100, seed: int = 11) -> str:
    rel = RelationId.parse(label)
    draw = RelationId("PHI", (0,)) if rel.name == "M" else rel
    space = verification_space(rel, PIN_NORMS[norm])
    trunc = TruncationParams()
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        pts = sample_instance(space, rng, draw, trunc)
        if rel.name == "M":
            pts = (pts[0], pts[2], pts[1])
        try:
            out.append(closure_for_relation(space, rel, pts, trunc).to_records())
        except GeometryError as exc:
            out.append([type(exc).__name__, str(exc)])
    return hashlib.sha256(stable_json_dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("label,norm", sorted(GOLDEN_CLOSURE_SHA256))
def test_closure_records_are_pinned(label, norm):
    assert closure_digest(label, norm) == GOLDEN_CLOSURE_SHA256[label, norm]
