"""Formula AST for the quantified fragment over equidistance and equality.

Atoms are segment equidistance ``(equi a b c d)`` and point equality
``(= a b)``.  ``SchemaRef`` defers a named relation (GAMMA, PSI, ...) whose
treatment, expand as a formula or call its oracle, is chosen at
evaluation time.  ``CountableAnd``/``CountableOr`` carry an unbounded
conjunction/disjunction intent over an integer index; they only become
evaluable under truncation bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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


# node class -> DSL head; a form prints as ``(head extras... children...)``
_HEADS = {AtomEqui: "equi", AtomEq: "=", Not: "not", And: "and", Or: "or", Implies: "implies", Exists: "exists",
          ForAll: "forall", CountableAnd: "bigand", CountableOr: "bigor", SchemaRef: "rel"}
FORMS = {head: cls for cls, head in _HEADS.items()}
_PARTS = (Var, Const, *_HEADS)


def children(node: Formula) -> tuple:
    """The node's terms and subformulas, in dataclass field order."""
    if type(node) not in _HEADS:
        raise TypeError(f"not a formula node: {node!r}")
    values = [getattr(node, f.name) for f in fields(node)]
    flat = [v for value in values for v in (value if isinstance(value, tuple) else (value,))]
    return tuple(v for v in flat if isinstance(v, _PARTS))


def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    x, y = t.point
    fx = format_exact(x) if isinstance(x, (Fraction, int)) else repr(x)
    fy = format_exact(y) if isinstance(y, (Fraction, int)) else repr(y)
    return f"(pt {fx} {fy})"


def _extras(f: Formula) -> list[str]:
    """What a form prints between its head and its children."""
    if isinstance(f, (Exists, ForAll)):
        return [f"({' '.join(f.vars)})"]
    if isinstance(f, (CountableAnd, CountableOr)):
        return [f.var] if f.start == 1 else [f.var, str(f.start)]
    if isinstance(f, SchemaRef):
        return [f.name, *map(str, f.index_args)]
    return []


def format_formula(f: Formula) -> str:
    """Canonical s-expression text; ``parse_formula`` inverts it exactly."""
    kids = []
    for g in children(f):  # a loop, not a comprehension: one frame per level of nesting
        kids.append(_term_text(g) if isinstance(g, (Var, Const)) else format_formula(g))
    return f"({' '.join([_HEADS[type(f)], *_extras(f), *kids])})"


def free_point_vars(f: Formula) -> list[str]:
    """Free point variables, in order of first appearance."""
    seen: list[str] = []
    stack = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, Var):
            if g.name not in bound and g.name not in seen:
                seen.append(g.name)
        elif not isinstance(g, Const):
            if isinstance(g, (Exists, ForAll)):
                bound |= frozenset(g.vars)  # a countable's index is not a point variable
            stack.extend((child, bound) for child in reversed(children(g)))
    return seen
