"""Reference interpreter for the formula evaluator: the ``isinstance`` ladder.

Dispatches each node through a chain of ``isinstance`` tests, reads every
term through a checked lookup and binds each quantified variable in a fresh
copy of the valuation (``{**pv, name: p}``).  Relation dispatch
(``schema_truth``) and GAMMA's direct tower walk are inherited from
``equitower.formulas.evaluator._Evaluator``, so expansions are evaluated by
this ladder too.  The tests compare verdicts and errors of the package's
dispatch table with this one.
"""

from equitower.formulas.ast import (
    And,
    AtomEq,
    AtomEqui,
    Const,
    CountableAnd,
    CountableOr,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    SchemaRef,
)
from equitower.formulas.evaluator import EvalError, _Evaluator
from equitower.oracles import RelationId


class ReferenceEvaluator(_Evaluator):
    def term_point(self, t, pv):
        if isinstance(t, Const):
            return t.point
        p = pv.get(t.name)
        if p is None:
            raise EvalError(f"unbound point variable {t.name!r}")
        return p

    def run(self, f, pv, iv):
        space = self.space
        if isinstance(f, AtomEqui):
            return space.eq_dist(
                self.term_point(f.t1, pv),
                self.term_point(f.t2, pv),
                self.term_point(f.t3, pv),
                self.term_point(f.t4, pv),
            )
        if isinstance(f, AtomEq):
            return space.points_eq(self.term_point(f.t1, pv), self.term_point(f.t2, pv))
        if isinstance(f, Not):
            return not self.run(f.body, pv, iv)
        if isinstance(f, And):
            return all(self.run(g, pv, iv) for g in f.items)
        if isinstance(f, Or):
            return any(self.run(g, pv, iv) for g in f.items)
        if isinstance(f, Implies):
            return (not self.run(f.left, pv, iv)) or self.run(f.right, pv, iv)
        if isinstance(f, Exists):
            return self._quantify(f.vars, f.body, pv, iv, want=True)
        if isinstance(f, ForAll):
            return not self._quantify(f.vars, f.body, pv, iv, want=False)
        if isinstance(f, CountableAnd):
            for i in range(f.start, self.trunc.K + 1):
                if not self.run(f.body, pv, {**iv, f.var: i}):
                    return False
            return True
        if isinstance(f, CountableOr):
            for i in range(f.start, self.trunc.N + 1):
                if self.run(f.body, pv, {**iv, f.var: i}):
                    return True
            return False
        if isinstance(f, SchemaRef):
            return self.schema_truth(self.resolve_rel(f, iv), self.resolve_terms(f, pv))
        raise EvalError(f"not a formula node: {f!r}")

    def _quantify(self, names, body, pv, iv, want):
        """True iff some assignment of universe points to ``names`` makes
        ``body`` evaluate to ``want`` (ForAll negates the want=False search)."""
        if not names:
            return self.run(body, pv, iv) == want
        head, rest = names[0], names[1:]
        for p in self.universe.points:
            if self._quantify(rest, body, {**pv, head: p}, iv, want):
                return True
        return False

    def resolve_rel(self, ref, iv):
        indices = []
        for arg in ref.index_args:
            if isinstance(arg, int):
                indices.append(arg)
            else:
                value = iv.get(arg)
                if value is None:
                    raise EvalError(f"unbound index variable {arg!r}")
                indices.append(value)
        return RelationId(ref.name, tuple(indices))

    def resolve_terms(self, ref, pv):
        return tuple(self.term_point(t, pv) for t in ref.terms)
