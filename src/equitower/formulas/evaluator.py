"""Bounded model checking over finite point universes.

Point quantifiers range over a :class:`~equitower.universe.Universe`;
countable connectives range over truncated integer index sets (``bigand``
up to K, ``bigor`` up to N).  A :class:`SchemaRef` dispatches through an
:class:`ImplMap`, the set of formula-mode relations: a relation in the set
has its expansion evaluated with the reference's arguments bound to the
expansion's formal parameters, and any other calls its analytic oracle.

Bounded universal quantification over-approximates plane-wide truth: the
verdict is faithful only on universes that contain the relevant witnesses
and refuters (see :mod:`equitower.closure`).

Evaluation is one table, ``type(node) -> step``, one small step per node
kind.  A quantifier binds in place: it sets ``pv[name]``, recurses, and on
exit (by exception too) restores the shadowed value or drops the name.
Terms that are all variables are read by plain lookups; constants and
unbound names take the checked read.  References with literal indices get
their validated :class:`RelationId` from a cache keyed by (name, indices).

Quantifier searches are tabled, exactly: with universe, space, truncation
and impl map fixed, a quantifier's verdict is a function of the node, its
free points and its index bindings, memoised under that key (a search that
raises stores nothing).  Only a node under a quantifier binding a name it
does not mention is tabled, the one way a key recurs: DELTA(n)'s inner links
(n links then cost O(n |U|^2) atoms, not |U|^n), but not LE, EQUIV2 or PSI.

GAMMA in formula mode with ``adaptive_n`` is evaluated by iterating its
truncated double tower directly: per query the disjunction bound is raised
to ``ceil(2^K * d(b,c)/d(a,b)) + 2`` and the scan starts near the only
multiplier window that can possibly fire (the disjunction is commutative,
so scan order cannot change the verdict, only the time to find it).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Point, Space
from ..oracles import RelationId, oracle_truth
from ..universe import Universe
from .ast import (
    And,
    AtomEq,
    AtomEqui,
    Const,
    CountableAnd,
    CountableOr,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    SchemaRef,
    Term,
    Var,
    children,
    free_point_vars,
)
from .schemas import TruncationParams, expand_schema, schema_params

_UNBOUND = object()
_LITERAL_RELS: dict[tuple, RelationId] = {}  # a pure memo: (name, literal indices) -> validated id


class EvalError(ValueError):
    """Unbound variable or malformed query."""


@dataclass(frozen=True)
class ImplMap:
    """The relations evaluated by their expansions (formula mode); every
    other relation is answered by its oracle."""

    formulas: frozenset[str] = frozenset()

    @staticmethod
    def layered(top: str) -> "ImplMap":
        """Top relation as a formula, every lower layer as its oracle."""
        return ImplMap(frozenset((top,)))


class _Evaluator:
    def __init__(self, space: Space, universe: Universe, trunc: TruncationParams, impl: ImplMap):
        self.space = space
        self.universe = universe
        self.trunc = trunc
        self.impl = impl
        self.memo: dict[tuple, tuple[Formula, bool]] = {}

    def run(self, f: Formula, pv: dict[str, Point], iv: dict[str, int]) -> bool:
        step = _STEPS.get(type(f))
        if step is None:
            raise EvalError(f"not a formula node: {f!r}")
        return step(self, f, pv, iv)

    def _equi(self, f: AtomEqui, pv: dict[str, Point], iv: dict[str, int]) -> bool:
        try:
            a, b, c, d = pv[f.t1.name], pv[f.t2.name], pv[f.t3.name], pv[f.t4.name]
        except (AttributeError, KeyError):  # a constant or an unbound name
            a, b, c, d = (_term_point(t, pv) for t in (f.t1, f.t2, f.t3, f.t4))
        return self.space.eq_dist(a, b, c, d)

    def _eq(self, f: AtomEq, pv: dict[str, Point], iv: dict[str, int]) -> bool:
        try:
            a, b = pv[f.t1.name], pv[f.t2.name]
        except (AttributeError, KeyError):
            a, b = _term_point(f.t1, pv), _term_point(f.t2, pv)
        return self.space.points_eq(a, b)

    def _and(self, f: And, pv: dict[str, Point], iv: dict[str, int]) -> bool:
        for g in f.items:
            if not self.run(g, pv, iv):
                return False
        return True

    def _or(self, f: Or, pv: dict[str, Point], iv: dict[str, int]) -> bool:
        for g in f.items:
            if self.run(g, pv, iv):
                return True
        return False

    def _ref(self, f: SchemaRef, pv: dict[str, Point], iv: dict[str, int]) -> bool:
        rel = _LITERAL_RELS.get((f.name, f.index_args)) or self.resolve_rel(f, iv)
        try:
            points = tuple([pv[t.name] for t in f.terms])
        except (AttributeError, KeyError):
            points = tuple(_term_point(t, pv) for t in f.terms)
        return self.schema_truth(rel, points)

    def tabled(self, f: Exists | ForAll, pv: dict[str, Point], iv: dict[str, int], want: bool) -> bool:
        """``search`` over ``f.vars``, memoised when ``f`` is tabled."""
        names = getattr(f, "memo_names", _UNBOUND)
        if names is _UNBOUND:
            names = _plan(f)  # None: the outermost quantifier is untabled
        if names is None:
            return self.search(f.vars, f.body, pv, iv, want)
        key = (id(f), *map(pv.get, names), *iv.items())
        hit = self.memo.get(key)
        if hit is None:  # a search that raises stores nothing; holding f keeps its id unique
            hit = self.memo[key] = (f, self.search(f.vars, f.body, pv, iv, want))
        return hit[1]

    def search(
        self, names: tuple[str, ...], body: Formula, pv: dict[str, Point], iv: dict[str, int], want: bool
    ) -> bool:
        """True iff some assignment of universe points to ``names`` makes
        ``body`` evaluate to ``want`` (ForAll negates the want=False search)."""
        if not names:
            return self.run(body, pv, iv) == want
        name, rest = names[0], names[1:]
        shadowed = pv.get(name, _UNBOUND)
        try:
            for p in self.universe.points:
                pv[name] = p
                if self.search(rest, body, pv, iv, want) if rest else self.run(body, pv, iv) == want:
                    return True
            return False
        finally:
            if shadowed is _UNBOUND:
                pv.pop(name, None)
            else:
                pv[name] = shadowed

    def count(
        self, f: CountableAnd | CountableOr, bound: int, pv: dict[str, Point], iv: dict[str, int], want: bool
    ) -> bool:
        """True iff ``f.body`` evaluates to ``want`` for some index from ``f.start`` to ``bound``."""
        for i in range(f.start, bound + 1):
            if self.run(f.body, pv, {**iv, f.var: i}) == want:
                return True
        return False

    def resolve_rel(self, ref: SchemaRef, iv: dict[str, int]) -> RelationId:
        indices = tuple(arg if isinstance(arg, int) else iv.get(arg) for arg in ref.index_args)
        if None in indices:
            raise EvalError(f"unbound index variable {ref.index_args[indices.index(None)]!r}")
        rel = RelationId(ref.name, indices)
        if indices == ref.index_args:
            _LITERAL_RELS[(ref.name, indices)] = rel
        return rel

    def schema_truth(self, rel: RelationId, points: tuple[Point, ...]) -> bool:
        if rel.name not in self.impl.formulas:
            return oracle_truth(self.space, rel, points)
        if rel.name == "GAMMA" and self.trunc.adaptive_n:
            return self.gamma_truncated(*points)
        expansion = expand_schema(rel, self.trunc)
        params = schema_params(rel)
        return self.run(expansion, dict(zip(params, points)), {})

    # ------------------------------------------------------------------
    # GAMMA: direct iteration of the truncated double tower
    # ------------------------------------------------------------------

    def gamma_truncated(self, a: Point, b: Point, c: Point) -> bool:
        if self.space.points_eq(a, b):  # every disjunct is a PSI whose first pair is (a, b): all false
            return False
        trunc = self.trunc
        n_bound = self.space.scaled_ratio_ceil(2**trunc.K, (b, c), (a, b)) + 2
        for k in range(1, trunc.K + 1):
            guess = self.space.scaled_ratio_ceil(2**k, (b, c), (a, b))
            if not any(self._gamma_disjunct(n, k, a, b, c) for n in self._window_order(guess, n_bound)):
                return False
        return True

    def _window_order(self, guess: int, n_bound: int):
        window = [n for n in range(max(1, guess - 2), min(n_bound, guess + 2) + 1)]
        seen = set(window)
        yield from window
        for n in range(1, n_bound + 1):
            if n not in seen:
                yield n

    def _gamma_disjunct(self, n: int, k: int, a: Point, b: Point, c: Point) -> bool:
        return self.schema_truth(RelationId("PSI", (n, k)), (a, b, b, c)) and self.schema_truth(
            RelationId("PSI", (n + 2**k, k)), (a, b, a, c)
        )


def _term_point(t: Term, pv: dict[str, Point]) -> Point:
    if isinstance(t, Const):
        return t.point
    p = pv.get(t.name)
    if p is None:
        raise EvalError(f"unbound point variable {t.name!r}")
    return p


def _plan(root: Exists | ForAll) -> None:
    """Set ``memo_names`` on each quantifier in ``root``: its free names if tabled, else None."""

    def walk(g: Formula, outer: frozenset[str]) -> None:
        if isinstance(g, (Exists, ForAll)):
            names = tuple(free_point_vars(g))
            object.__setattr__(g, "memo_names", names if outer.difference(names) else None)  # frozen node
            outer |= frozenset(g.vars)
        for child in children(g):
            if type(child) in _STEPS:
                walk(child, outer)

    walk(root, frozenset())


_STEPS = {
    AtomEqui: _Evaluator._equi,
    AtomEq: _Evaluator._eq,
    Not: lambda ev, f, pv, iv: not ev.run(f.body, pv, iv),
    And: _Evaluator._and,
    Or: _Evaluator._or,
    Implies: lambda ev, f, pv, iv: (not ev.run(f.left, pv, iv)) or ev.run(f.right, pv, iv),
    Exists: lambda ev, f, pv, iv: ev.tabled(f, pv, iv, True),
    ForAll: lambda ev, f, pv, iv: not ev.tabled(f, pv, iv, False),
    CountableAnd: lambda ev, f, pv, iv: not ev.count(f, ev.trunc.K, pv, iv, False),
    CountableOr: lambda ev, f, pv, iv: ev.count(f, ev.trunc.N, pv, iv, True),
    SchemaRef: _Evaluator._ref,
}


def eval_formula(
    f: Formula,
    space: Space,
    universe: Universe,
    valuation: dict[str, Point],
    trunc: TruncationParams,
    impl: ImplMap,
) -> bool:
    """Bounded truth value of ``f`` under ``valuation``.

    Existential-positive formulas (no Not/Implies/ForAll) are monotone
    under universe growth: enlarging the universe never flips true to
    false.
    """
    for name, p in valuation.items():
        space.check_point(p)
    return _Evaluator(space, universe, trunc, impl).run(f, dict(valuation), {})


def schema_query(rel: RelationId) -> tuple[Formula, tuple[str, ...]]:
    """A SchemaRef query formula for ``rel`` plus its parameter names."""
    params = schema_params(rel)
    return SchemaRef(rel.name, rel.indices, tuple(Var(p) for p in params)), params
