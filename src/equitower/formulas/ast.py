"""Formula AST for the quantified fragment over equidistance and equality.

Atoms are segment equidistance ``(equi a b c d)`` and point equality
``(= a b)``.  ``SchemaRef`` defers a named relation (GAMMA, PSI, ...) whose
treatment, expand as a formula or call its oracle, is chosen at
evaluation time.  ``CountableAnd``/``CountableOr`` carry an unbounded
conjunction/disjunction intent over an integer index; they only become
evaluable under truncation bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ..geometry import Point
from ..scalars import format_exact


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    point: Point


Term = Union[Var, Const]
IndexArg = Union[int, str]


@dataclass(frozen=True)
class AtomEqui:
    t1: Term
    t2: Term
    t3: Term
    t4: Term


@dataclass(frozen=True)
class AtomEq:
    t1: Term
    t2: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    items: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    vars: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class ForAll:
    vars: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class CountableAnd:
    var: str
    start: int
    body: "Formula"


@dataclass(frozen=True)
class CountableOr:
    var: str
    start: int
    body: "Formula"


@dataclass(frozen=True)
class SchemaRef:
    name: str
    index_args: tuple[IndexArg, ...]
    terms: tuple[Term, ...]


Formula = Union[
    AtomEqui,
    AtomEq,
    Not,
    And,
    Or,
    Implies,
    Exists,
    ForAll,
    CountableAnd,
    CountableOr,
    SchemaRef,
]


def conj(*items: Formula) -> Formula:
    flat = tuple(items)
    return flat[0] if len(flat) == 1 else And(flat)


def disj(*items: Formula) -> Formula:
    flat = tuple(items)
    return flat[0] if len(flat) == 1 else Or(flat)


def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    x, y = t.point
    fx = format_exact(x) if isinstance(x, (Fraction, int)) else repr(x)
    fy = format_exact(y) if isinstance(y, (Fraction, int)) else repr(y)
    return f"(pt {fx} {fy})"


def format_formula(f: Formula) -> str:
    """Canonical s-expression text; ``parse_formula`` inverts it exactly."""
    if isinstance(f, AtomEqui):
        return f"(equi {_term_text(f.t1)} {_term_text(f.t2)} {_term_text(f.t3)} {_term_text(f.t4)})"
    if isinstance(f, AtomEq):
        return f"(= {_term_text(f.t1)} {_term_text(f.t2)})"
    if isinstance(f, Not):
        return f"(not {format_formula(f.body)})"
    if isinstance(f, And):
        inner = " ".join(format_formula(g) for g in f.items)
        return f"(and {inner})" if inner else "(and)"
    if isinstance(f, Or):
        inner = " ".join(format_formula(g) for g in f.items)
        return f"(or {inner})" if inner else "(or)"
    if isinstance(f, Implies):
        return f"(implies {format_formula(f.left)} {format_formula(f.right)})"
    if isinstance(f, Exists):
        return f"(exists ({' '.join(f.vars)}) {format_formula(f.body)})"
    if isinstance(f, ForAll):
        return f"(forall ({' '.join(f.vars)}) {format_formula(f.body)})"
    if isinstance(f, CountableAnd):
        if f.start == 1:
            return f"(bigand {f.var} {format_formula(f.body)})"
        return f"(bigand {f.var} {f.start} {format_formula(f.body)})"
    if isinstance(f, CountableOr):
        if f.start == 1:
            return f"(bigor {f.var} {format_formula(f.body)})"
        return f"(bigor {f.var} {f.start} {format_formula(f.body)})"
    if isinstance(f, SchemaRef):
        parts = [f.name]
        parts.extend(str(i) for i in f.index_args)
        parts.extend(_term_text(t) for t in f.terms)
        return f"(rel {' '.join(parts)})"
    raise TypeError(f"not a formula node: {f!r}")


def free_point_vars(f: Formula) -> list[str]:
    """Free point variables, in order of first appearance."""
    seen: list[str] = []

    def note(name: str, bound: frozenset[str]) -> None:
        if name not in bound and name not in seen:
            seen.append(name)

    def walk_term(t: Term, bound: frozenset[str]) -> None:
        if isinstance(t, Var):
            note(t.name, bound)

    def walk(g: Formula, bound: frozenset[str]) -> None:
        if isinstance(g, AtomEqui):
            for t in (g.t1, g.t2, g.t3, g.t4):
                walk_term(t, bound)
        elif isinstance(g, AtomEq):
            walk_term(g.t1, bound)
            walk_term(g.t2, bound)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, (And, Or)):
            for item in g.items:
                walk(item, bound)
        elif isinstance(g, Implies):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, (Exists, ForAll)):
            walk(g.body, bound | frozenset(g.vars))
        elif isinstance(g, (CountableAnd, CountableOr)):
            walk(g.body, bound)  # the countable index is not a point variable
        elif isinstance(g, SchemaRef):
            for t in g.terms:
                walk_term(t, bound)
        else:
            raise TypeError(f"not a formula node: {g!r}")

    walk(f, frozenset())
    return seen
