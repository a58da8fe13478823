"""The evaluator's dispatch table against the ``isinstance`` ladder of
``reference_eval``, plus the contracts of binding in place: the caller's
valuation comes back unchanged, connectives stay lazy, and oracle dispatches
go through ``evaluator.oracle_truth``."""

import random
from fractions import Fraction

import pytest

from equitower import L1, L2, ImplMap, Point, Space, TruncationParams, Universe
from equitower.formulas import evaluator
from equitower.formulas.evaluator import EvalError, _Evaluator
from equitower.formulas.generate import random_formula
from equitower.formulas.parser import parse_formula
from equitower.formulas.verify import verify_layer
from equitower.oracles import GAMMA, RelationId

from reference_eval import ReferenceEvaluator

F = Fraction
S1 = Space(L1, "exact")
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
    impls = (ImplMap(), ImplMap.from_dict({"DELTA": "formula", "NEQ": "formula", "EQUIV2": "formula"}))
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
