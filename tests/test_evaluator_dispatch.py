"""The evaluator's dispatch table against the ``isinstance`` ladder of
``reference_eval``, plus the contracts of binding in place: the caller's
valuation comes back unchanged, connectives stay lazy, and oracle dispatches
go through ``evaluator.oracle_truth``.  The reference keeps no memo, so the
DELTA and NEQ comparisons check the tabled quantifier searches too."""

import random
import time
from fractions import Fraction

import pytest

from equitower import L1, L2, LINF, ImplMap, Point, Space, TruncationParams, Universe
from equitower.closure import closure_for_relation
from equitower.formulas import evaluator
from equitower.formulas.evaluator import EvalError, _Evaluator, schema_query
from equitower.formulas.generate import random_formula
from equitower.formulas.parser import parse_formula
from equitower.formulas.verify import sample_instance, verify_layer
from equitower.oracles import GAMMA, RelationId, oracle_gamma

from reference_eval import ReferenceEvaluator

F = Fraction
S1 = Space(L1, "exact")
SINF = Space(LINF, "exact")
S2F = Space(L2, "float", 1e-9)
SMALL = TruncationParams(K=2, N=3, chain_max=3, b_depth=1)
NAMES = ("a", "b", "c", "d", "p", "q", "r", "w")


def pt(x, y):
    return Point(F(x), F(y))


def grid_points(space, rng, k):
    """``k`` points of a 3 x 3 grid, where equal lengths are common."""
    coord = float if space.backend == "float" else F
    return [Point(coord(rng.randint(0, 2)), coord(rng.randint(0, 2))) for _ in range(k)]


def outcome(ev, f, pv):
    try:
        return "value", ev.run(f, pv, {})
    except Exception as exc:  # generated indices and unbound names raise; the error must match too
        return "error", type(exc), str(exc)


@pytest.mark.parametrize("space", [S1, S2F], ids=["l1-exact", "l2-float"])
def test_table_agrees_with_the_reference_ladder(space):
    rng = random.Random(2024)
    impls = (ImplMap(), ImplMap(frozenset({"DELTA", "NEQ", "EQUIV2"})))
    errors = 0
    for i in range(400):
        f = random_formula(rng, depth=4)
        universe = Universe(space, grid_points(space, rng, 3))
        bound = rng.sample(NAMES, rng.randint(4, len(NAMES)))  # some names left unbound
        pv = dict(zip(bound, grid_points(space, rng, len(bound))))
        impl = impls[i % 2]
        want = outcome(ReferenceEvaluator(space, universe, SMALL, impl), f, dict(pv))
        got = outcome(_Evaluator(space, universe, SMALL, impl), f, dict(pv))
        assert got == want, f
        errors += want[0] == "error"
    assert 0 < errors < 400  # both outcomes are exercised


class TestBindingInPlace:
    def setup_method(self):
        self.a, self.b, self.outer = pt(0, 0), pt(1, 0), pt(5, 5)
        self.ev = _Evaluator(S1, Universe(S1, [self.a, self.b]), SMALL, ImplMap())

    def check(self, text, pv):
        before = dict(pv)
        got = self.ev.run(parse_formula(text), pv, {})
        assert pv == before and all(pv[n] is before[n] for n in before)
        return got

    def test_shadowing_quantifier_restores_the_outer_binding(self):
        pv = {"a": self.a, "x": self.outer}
        assert self.check("(exists (x) (= x a))", pv)
        assert not self.check("(forall (x) (= x a))", pv)
        assert self.check("(and (exists (x) (= x a)) (= x x) (not (= x a)))", pv)

    def test_duplicate_names_bind_the_innermost(self):
        pv = {"a": self.a}
        assert self.check("(exists (x x) (= x a))", pv)
        assert not self.check("(forall (x x) (= x a))", pv)
        assert "x" not in pv

    @pytest.mark.parametrize("outer", [False, True], ids=["unbound", "shadowed"])
    def test_an_error_mid_search_restores_the_valuation(self, outer):
        pv = {"a": self.a, **({"x": self.outer} if outer else {})}
        before = dict(pv)
        # x = a settles the conjunction false; x = b reaches the unbound zz
        f = parse_formula("(exists (x y) (and (not (= x a)) (= y zz)))")
        with pytest.raises(EvalError, match="zz"):
            self.ev.run(f, pv, {})
        assert pv == before

    def test_connectives_stay_lazy(self):
        pv = {"a": self.a}
        assert self.check("(or (= a a) (= a zz))", pv)
        with pytest.raises(EvalError, match="zz"):
            self.ev.run(parse_formula("(and (= a a) (= a zz))"), pv, {})
        assert pv == {"a": self.a}


def test_literal_indices_are_validated_once(monkeypatch):
    built = []

    def counting(name, indices=()):
        built.append((name, indices))
        return RelationId(name, indices)

    monkeypatch.setattr(evaluator, "RelationId", counting)
    monkeypatch.setattr(evaluator, "_LITERAL_RELS", {})
    a = pt(0, 0)
    ev = _Evaluator(S1, Universe(S1, [a]), SMALL, ImplMap())
    f = parse_formula("(and (rel DELTA 3 x x x) (rel DELTA 3 x x x) (bigand n (rel DELTA n x x x)))")
    assert ev.run(f, {"x": a}, {}) and ev.run(f, {"x": a}, {})
    # the literal id is built once; the index variable's ids on every evaluation
    assert built == [("DELTA", (3,)), ("DELTA", (1,)), ("DELTA", (2,)), ("DELTA", (1,)), ("DELTA", (2,))]
    with pytest.raises(EvalError, match="unbound index variable 'n'"):
        ev.run(parse_formula("(rel DELTA n x x x)"), {"x": a}, {})


@pytest.mark.parametrize("rel,lower", [(RelationId("NEQ"), {"DELTA"}), (GAMMA, {"PSI"})])
def test_oracle_dispatches_go_through_the_module_global(monkeypatch, rel, lower):
    # the benchmark counts formulas.oracle_dispatches_per_verdict by rebinding this name
    seen = []
    honest = evaluator.oracle_truth

    def counting(space, r, points):
        seen.append(r.name)
        return honest(space, r, points)

    monkeypatch.setattr(evaluator, "oracle_truth", counting)
    report = verify_layer(S1, rel, TruncationParams(), samples=20, seed=11)
    assert report.passed
    assert seen and set(seen) == lower


CHAINS = ImplMap(frozenset({"DELTA", "NEQ"}))


def chain_relations(trunc):
    return [RelationId("DELTA", (n,)) for n in range(2, trunc.chain_max + 1)] + [RelationId("NEQ")]


def assert_tabling_agrees(space, trunc, cases):
    """The tabled evaluator and the memo-free reference agree on each
    (relation, points, universe) case, and both verdicts occur."""
    seen = set()
    for rel, pts, universe in cases:
        query, params = schema_query(rel)
        pv = dict(zip(params, pts))
        want = ReferenceEvaluator(space, universe, trunc, CHAINS).run(query, dict(pv), {})
        assert _Evaluator(space, universe, trunc, CHAINS).run(query, pv, {}) == want, (rel, pts)
        seen.add(want)
    assert seen == {False, True}


@pytest.mark.parametrize("space", [S1, SINF, S2F], ids=["l1-exact", "linf-exact", "l2-float"])
def test_tabled_chains_agree_with_the_reference_on_closures(space):
    rng = random.Random(31)
    trunc = TruncationParams()
    samples = [(rel, sample_instance(space, rng, rel, trunc)) for rel in chain_relations(trunc) for _ in range(6)]
    assert_tabling_agrees(
        space, trunc, [(rel, pts, closure_for_relation(space, rel, pts, trunc)) for rel, pts in samples]
    )


@pytest.mark.parametrize("space", [S1, SINF, S2F], ids=["l1-exact", "linf-exact", "l2-float"])
@pytest.mark.parametrize("k,chain_max", [(3, 8), (4, 6), (5, 4)])
def test_tabled_chains_agree_with_the_reference_on_grids(space, k, chain_max):
    # equal lengths abound on a grid; the untabled reference is exponential in
    # the chain length, so the larger grids stop at shorter chains
    coord = float if space.backend == "float" else int
    grid = Universe(space, [Point(coord(i), coord(j)) for i in range(k) for j in range(k)])
    rng = random.Random(k)
    trunc = TruncationParams(chain_max=chain_max)
    cases = [
        (rel, [rng.choice(grid.points) for _ in schema_query(rel)[1]], grid)
        for rel in chain_relations(trunc)
        for _ in range(6)
    ]
    assert_tabling_agrees(space, trunc, cases)


class CountingSearches(_Evaluator):
    searches = 0

    def search(self, names, body, pv, iv, want):
        self.searches += 1
        return super().search(names, body, pv, iv, want)


def test_a_false_long_chain_on_a_grid_is_found_in_polynomial_time():
    # every z_i is re-entered from many z_(i-1); untabled, this search grows
    # about 8x per chain step and took several seconds
    grid = Universe(SINF, [pt(i, j) for i in range(7) for j in range(7)])
    query, params = schema_query(RelationId("DELTA", (8,)))
    ev = CountingSearches(SINF, grid, TruncationParams(), CHAINS)
    start = time.perf_counter()
    assert not ev.run(query, dict(zip(params, (pt(0, 0), pt(1, 0), pt(40, 0)))), {})
    assert time.perf_counter() - start < 0.5
    assert ev.searches <= 8 * len(grid)


@pytest.mark.parametrize("space", [S1, S2F], ids=["l1-exact", "l2-float"])
@pytest.mark.parametrize(
    "impl", [ImplMap.layered("GAMMA"), ImplMap(frozenset({"GAMMA", "PSI"}))], ids=["psi-oracle", "psi-formula"]
)
def test_gamma_with_a_equal_to_b_dispatches_no_psi(monkeypatch, space, impl):
    # every disjunct is PSI(n, k) on (a, b, ...), false when a = b, so the
    # verdict needs no dispatch at any of the N multipliers
    seen = []
    honest = evaluator.oracle_truth

    def counting(space, r, points):
        seen.append(r.name)
        return honest(space, r, points)

    monkeypatch.setattr(evaluator, "oracle_truth", counting)
    coord = float if space.backend == "float" else F
    a, c = Point(coord(1), coord(2)), Point(coord(5), coord(7))
    query, params = schema_query(GAMMA)
    ev = _Evaluator(space, Universe(space, [a, c]), TruncationParams(N=10**4), impl)
    assert ev.run(query, dict(zip(params, (a, a, c))), {}) is oracle_gamma(space, a, a, c) is False
    assert seen == []
