import random
from fractions import Fraction

import pytest

from equitower import ImplMap, L2, LINF, Point, Space, TruncationParams, Universe, eval_formula
from equitower.closure import closure_for_relation
from equitower.formulas.evaluator import EvalError, schema_query
from equitower.formulas.generate import random_formula
from equitower.formulas.parser import parse_formula
from equitower.oracles import GAMMA, RelationId, oracle_truth
from equitower.sampling import rand_point
from equitower.formulas.verify import sample_instance

F = Fraction
S2 = Space(L2, "exact")
SI = Space(LINF, "exact")
TR = TruncationParams()


def pt(x, y):
    return Point(F(x), F(y))


def gamma_eval(space, pts, trunc, adaptive=True):
    q, params = schema_query(GAMMA)
    tr = TruncationParams(
        K=trunc.K, N=trunc.N, b_depth=trunc.b_depth, chain_max=trunc.chain_max,
        phi_depth=trunc.phi_depth, adaptive_n=adaptive, b_mode=trunc.b_mode,
    )
    uni = Universe(space, pts)
    return eval_formula(q, space, uni, dict(zip(params, pts)), tr, ImplMap.layered("GAMMA"))


class TestEvalBasics:
    def test_existential_finds_a_universe_witness(self):
        uni = Universe(S2, [pt(0, 0), pt(1, 0)])
        f = parse_formula("(exists (z) (equi a z a b))")
        assert eval_formula(f, S2, uni, {"a": pt(0, 0), "b": pt(1, 0)}, TR, ImplMap())

    def test_universal_identity(self):
        uni = Universe(S2, [pt(0, 0), pt(2, 3), pt(-1, 5)])
        f = parse_formula("(forall (z) (= z z))")
        assert eval_formula(f, S2, uni, {}, TR, ImplMap())

    def test_empty_connectives(self):
        uni = Universe(S2, [pt(0, 0)])
        assert eval_formula(parse_formula("(and)"), S2, uni, {}, TR, ImplMap())
        assert not eval_formula(parse_formula("(or)"), S2, uni, {}, TR, ImplMap())

    def test_unbound_variable_is_an_error(self):
        uni = Universe(S2, [pt(0, 0)])
        with pytest.raises(EvalError):
            eval_formula(parse_formula("(= a b)"), S2, uni, {"a": pt(0, 0)}, TR, ImplMap())

    def test_unbound_index_variable_is_an_error(self):
        uni = Universe(S2, [pt(0, 0)])
        f = parse_formula("(rel DELTA n a a a)")
        with pytest.raises(EvalError):
            eval_formula(f, S2, uni, {"a": pt(0, 0)}, TR, ImplMap())

    def test_countable_bounds_come_from_truncation(self):
        uni = Universe(S2, [pt(0, 0), pt(1, 0), pt(9, 0)])
        val = {"x": pt(0, 0), "y": pt(1, 0), "z": pt(9, 0)}
        f = parse_formula("(bigor n 2 (rel DELTA n x y z))")
        assert not eval_formula(f, S2, uni, val, TruncationParams(N=8), ImplMap())
        assert eval_formula(f, S2, uni, val, TruncationParams(N=9), ImplMap())

    def test_point_constants_evaluate(self):
        uni = Universe(S2, [pt(0, 0)])
        f = parse_formula("(= (pt 1/2 0) (pt 1/2 0))")
        assert eval_formula(f, S2, uni, {}, TR, ImplMap())


class TestNeqExample:
    def test_chain_closed_universe(self):
        space = S2
        x, y = pt(0, 0), pt(1, 0)
        uni = Universe(space, [x, y, pt(2, 0), pt(3, 0)])
        q, params = schema_query(RelationId("NEQ"))
        val = dict(zip(params, (x, y)))
        assert eval_formula(q, space, uni, val, TruncationParams(chain_max=8), ImplMap.layered("NEQ"))
        val_eq = dict(zip(params, (x, x)))
        uni_refuted = uni.add([pt(100, 0)], "refuter")
        assert not eval_formula(q, space, uni_refuted, val_eq, TR, ImplMap.layered("NEQ"))


class TestMonotonicity:
    def test_existential_positive_grows_with_universe(self):
        rng = random.Random(77)
        space = S2
        names = ("a", "b", "c", "d", "p", "q", "r", "w")
        for _ in range(120):
            f = random_formula(rng, depth=3, existential_positive=True)
            pts = [rand_point(space, rng) for _ in range(6)]
            small = Universe(space, pts[:3])
            big = Universe(space, pts)
            val = {n: rand_point(space, rng) for n in names}
            impl = ImplMap()
            try:
                small_true = eval_formula(f, space, small, val, TR, impl)
            except Exception:
                continue  # oracle index errors from generated indices are fine here
            if small_true:
                assert eval_formula(f, space, big, val, TR, impl)

    def test_gamma_true_set_shrinks_with_depth(self):
        rng = random.Random(78)
        rel = GAMMA
        for _ in range(60):
            pts = sample_instance(S2, rng, rel, TR)
            deep = gamma_eval(S2, pts, TruncationParams(K=8))
            shallow = gamma_eval(S2, pts, TruncationParams(K=3))
            if deep:
                assert shallow

    def test_neq_true_set_grows_with_chain_bound(self):
        space = S2
        x, y, z = pt(0, 0), pt(1, 0), pt(6, 0)
        uni = Universe(space, [x, y, z])
        q, params = schema_query(RelationId("NEQ"))
        val = dict(zip(params, (x, y)))
        verdicts = [
            eval_formula(q, space, uni, val, TruncationParams(chain_max=cm), ImplMap.layered("NEQ"))
            for cm in (2, 4, 6, 8)
        ]
        assert verdicts == [False, False, True, True]

    def test_b_true_set_shrinks_with_depth(self):
        # an off-segment max-norm point accepted at depth 1 but killed at depth 2
        a, b, c = pt(0, 0), pt(2, 1), pt(8, 0)
        q, params = schema_query(RelationId("B"))
        val = dict(zip(params, (a, b, c)))
        verdicts = {}
        for depth in (1, 2, 3):
            tr = TruncationParams(b_depth=depth)
            uni = closure_for_relation(SI, RelationId("B"), (a, b, c), tr)
            verdicts[depth] = eval_formula(q, SI, uni, val, tr, ImplMap.layered("B"))
        assert verdicts == {1: True, 2: False, 3: False}


class TestAdaptiveGamma:
    def test_adaptive_and_unrolled_agree(self):
        rng = random.Random(79)
        for space in (S2, SI):
            for _ in range(40):
                pts = sample_instance(space, rng, GAMMA, TR)
                trunc = TruncationParams(K=4, N=40)
                plain = gamma_eval(space, pts, trunc, adaptive=False)
                # adaptive bound >= unrolled bound on these bounded samples
                adaptive = gamma_eval(space, pts, trunc, adaptive=True)
                want = oracle_truth(space, GAMMA, pts)
                assert adaptive == want
                if plain:
                    assert adaptive

    def test_window_scan_equals_ascending_scan(self):
        rng = random.Random(80)
        for _ in range(40):
            pts = sample_instance(S2, rng, GAMMA, TR)
            fast = gamma_eval(S2, pts, TruncationParams(K=5))
            # force the ascending scan by evaluating the unrolled expansion
            # at the same per-query bound the adaptive path would use
            a, b, c = pts
            if S2.points_eq(a, b):
                n_bound = TR.N
            else:
                n_bound = S2.scaled_ratio_ceil(2**5, (b, c), (a, b)) + 2
            slow = gamma_eval(S2, pts, TruncationParams(K=5, N=n_bound), adaptive=False)
            assert fast == slow


class TestBRegression:
    def test_strict_paper_rejects_the_midpoint(self):
        a, b, c = pt(0, 0), pt(2, 0), pt(4, 0)
        q, params = schema_query(RelationId("B"))
        val = dict(zip(params, (a, b, c)))
        for mode, expected in (("strict-paper", False), ("repaired", True)):
            tr = TruncationParams(b_mode=mode)
            uni = closure_for_relation(S2, RelationId("B"), (a, b, c), tr)
            got = eval_formula(q, S2, uni, val, tr, ImplMap.layered("B"))
            assert got == expected
        assert oracle_truth(S2, RelationId("B"), (a, b, c))

    def test_strict_paper_still_accepts_off_grid_points(self):
        a, b, c = pt(0, 0), pt("4/3", 0), pt(4, 0)
        q, params = schema_query(RelationId("B"))
        tr = TruncationParams(b_mode="strict-paper")
        uni = closure_for_relation(S2, RelationId("B"), (a, b, c), tr)
        assert eval_formula(q, S2, uni, dict(zip(params, (a, b, c))), tr, ImplMap.layered("B"))
