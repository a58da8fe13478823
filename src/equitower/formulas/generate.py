"""Seeded random formula generation, used by round-trip and monotonicity
property checks."""

from __future__ import annotations

import random
from fractions import Fraction

from ..geometry import Point
from ..oracles import RELATIONS
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
)

_VAR_POOL = ("a", "b", "c", "d", "p", "q", "r", "w")


def _term(rng: random.Random, index_vars: tuple[str, ...]) -> Term:
    if rng.random() < 0.12:
        return Const(
            Point(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            )
        )
    return Var(rng.choice(_VAR_POOL))


def _schema_ref(rng: random.Random, index_vars: tuple[str, ...]) -> SchemaRef:
    name = rng.choice(sorted(RELATIONS))
    spec = RELATIONS[name]
    index_args: list[int | str] = []
    for _ in range(spec.n_indices):
        if index_vars and rng.random() < 0.4:
            index_args.append(rng.choice(index_vars))
        else:
            index_args.append(rng.randint(1, 6))
    terms = tuple(_term(rng, index_vars) for _ in spec.params)
    return SchemaRef(name, tuple(index_args), terms)


def random_formula(
    rng: random.Random,
    depth: int = 4,
    existential_positive: bool = False,
    index_vars: tuple[str, ...] = (),
) -> Formula:
    """A random well-formed formula of bounded depth.

    With ``existential_positive`` no negation, implication, or universal
    quantifier is produced (the fragment monotone under universe growth).
    """
    atoms = ("equi", "eq", "rel")
    if depth <= 0:
        kind = rng.choice(atoms)
    else:
        kinds = ["equi", "eq", "rel", "and", "or", "exists", "bigand", "bigor"]
        if not existential_positive:
            kinds += ["not", "implies", "forall"]
        kind = rng.choice(kinds)
    if kind == "equi":
        t = tuple(_term(rng, index_vars) for _ in range(4))
        return AtomEqui(*t)
    if kind == "eq":
        return AtomEq(_term(rng, index_vars), _term(rng, index_vars))
    if kind == "rel":
        return _schema_ref(rng, index_vars)
    if kind == "not":
        return Not(random_formula(rng, depth - 1, existential_positive, index_vars))
    if kind in ("and", "or"):
        items = tuple(
            random_formula(rng, depth - 1, existential_positive, index_vars)
            for _ in range(rng.randint(0, 3))
        )
        return And(items) if kind == "and" else Or(items)
    if kind == "implies":
        return Implies(
            random_formula(rng, depth - 1, existential_positive, index_vars),
            random_formula(rng, depth - 1, existential_positive, index_vars),
        )
    if kind in ("exists", "forall"):
        names = tuple(rng.sample(_VAR_POOL, rng.randint(1, 2)))
        body = random_formula(rng, depth - 1, existential_positive, index_vars)
        return Exists(names, body) if kind == "exists" else ForAll(names, body)
    fresh = f"i{rng.randint(1, 9)}"
    body = random_formula(rng, depth - 1, existential_positive, index_vars + (fresh,))
    start = rng.choice((1, 1, 0, 2))
    return CountableAnd(fresh, start, body) if kind == "bigand" else CountableOr(fresh, start, body)
