"""Named relation schemas: expansion of each defined relation into the
equidistance/equality fragment, under explicit truncation bounds.

Countable conjunctions and disjunctions are unrolled at expansion time
(GAMMA's double tower, B's depth tower, NEQ's chain disjunction), so the
result contains only finite connectives, quantifiers over point variables,
atoms, and SchemaRefs to lower layers.

Chained existentials are emitted in nested single-variable form with each
chain constraint placed as early as its variables allow; conjunction and
existential quantification commute, so this is logically identical to the
flat prefix form while letting the bounded evaluator prune dead branches.

``B`` ships in two modes.  ``strict-paper`` is the literal reading: b must
sit metrically strictly between two consecutive dyadic chain points, which
(because GAMMA requires pairwise-distinct arguments) rejects b exactly on
the dyadic grid, the plain midpoint included.  ``repaired`` (default)
adds the disjunct that b coincides with a chain point, restoring agreement
with affine betweenness.  Both behaviors are pinned by regression tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

from ..oracles import RELATIONS, RelationId
from .ast import (
    And,
    AtomEq,
    AtomEqui,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    SchemaRef,
    Var,
    conj,
    disj,
    free_point_vars,
)

B_MODES = ("repaired", "strict-paper")


class SchemaError(ValueError):
    """No expansion for this relation/index combination."""


@dataclass(frozen=True)
class TruncationParams:
    """Finite bounds replacing the countable connectives.

    ``K`` bounds conjunctions over the dyadic depth index k; ``N`` bounds
    disjunctions over the multiplier index n (with ``adaptive_n`` the
    evaluator raises N per GAMMA query to ceil(2^K * d(b,c)/d(a,b)) + 2 so
    the intended multiplier is never cut off); ``b_depth`` bounds B's
    subdivision tower; ``chain_max`` bounds chain lengths for DELTA/NEQ;
    ``phi_depth`` bounds the midpoint-refinement stages inside M.
    """

    K: int = 6
    N: int = 64
    b_depth: int = 3
    chain_max: int = 8
    phi_depth: int = 2
    adaptive_n: bool = True
    b_mode: str = "repaired"

    def __post_init__(self) -> None:
        if min(self.K, self.N, self.b_depth) < 1:
            raise SchemaError("K, N, and b_depth must be >= 1")
        if self.chain_max < 2:
            raise SchemaError("chain_max must be >= 2")
        if self.phi_depth < 0:
            raise SchemaError("phi_depth must be >= 0")
        if self.b_mode not in B_MODES:
            raise SchemaError(f"b_mode must be one of {B_MODES}")

    def to_dict(self) -> dict:
        return asdict(self)


def _equi(*names_or_terms) -> AtomEqui:
    terms = tuple(Var(t) if isinstance(t, str) else t for t in names_or_terms)
    return AtomEqui(*terms)


def _eq(t1, t2) -> AtomEq:
    return AtomEq(Var(t1) if isinstance(t1, str) else t1, Var(t2) if isinstance(t2, str) else t2)


def _mid(a: str, b: str, c: str) -> SchemaRef:
    return SchemaRef("M", (), (Var(a), Var(b), Var(c)))


def _gamma(a: str, b: str, c: str) -> SchemaRef:
    return SchemaRef("GAMMA", (), (Var(a), Var(b), Var(c)))


def _chain_exists(conjuncts: list[Formula], outer: tuple[str, ...], leaf_extra: Formula | None = None) -> Formula:
    """Nest ``conjuncts`` so each sits just inside single-variable
    quantifiers over the names it mentions first, leaving out ``outer``
    (the relation's formal points); ``leaf_extra`` joins the innermost body."""
    seen = set(outer)
    binders = []
    for conjunct in conjuncts:
        binders.append([name for name in free_point_vars(conjunct) if name not in seen])
        seen.update(binders[-1])
    body = leaf_extra
    for conjunct, names in reversed(list(zip(conjuncts, binders))):
        body = conjunct if body is None else And((conjunct, body))
        for name in reversed(names):
            body = Exists((name,), body)
    return body


def _expand_equiv2(trunc: TruncationParams) -> Formula:
    exists_e = Exists(("e",), And((_equi("a", "e", "c", "d"), _equi("b", "e", "c", "d"))))
    # the universal part is equivalent to d(a,b) >= 2 d(c,d): the pair
    # x = mid(a,b), y = mid(a,x) minimizes d(x,y) at d(a,b)/4, and the
    # consequent's z exists exactly when d(c,d) <= 2 d(x,y)
    universal = ForAll(
        ("x", "y"),
        Implies(
            And((_equi("x", "a", "x", "b"), _equi("y", "a", "y", "x"))),
            Exists(("z",), And((_equi("z", "c", "x", "y"), _equi("z", "d", "x", "y")))),
        ),
    )
    return And((exists_e, universal))


def _expand_phi(trunc: TruncationParams, n: int) -> Formula:
    stage0 = And((_equi("x", "a", "x", "b"), SchemaRef("EQUIV2", (), (Var("a"), Var("b"), Var("x"), Var("a")))))
    if n == 0:
        return stage0
    inner = ForAll(
        ("x3",),
        Implies(
            SchemaRef("PHI", (0,), (Var("a"), Var("b"), Var("x3"))),
            Exists(
                ("x1", "x2", "y"),
                And(
                    (
                        SchemaRef("PHI", (0,), (Var("a"), Var("b"), Var("x1"))),
                        SchemaRef("PHI", (0,), (Var("a"), Var("b"), Var("x2"))),
                        SchemaRef("EQUIV2", (), (Var("x"), Var("y"), Var("x3"), Var("x"))),
                        SchemaRef("LE", (), (Var("x"), Var("y"), Var("x1"), Var("x2"))),
                    )
                ),
            ),
        ),
    )
    return And((SchemaRef("PHI", (n - 1,), (Var("a"), Var("b"), Var("x"))), inner))


def _expand_midpoint(trunc: TruncationParams) -> Formula:
    # the refinement tower runs on the endpoint pair (a, c) with b as the
    # candidate midpoint
    stages = tuple(
        SchemaRef("PHI", (i,), (Var("a"), Var("c"), Var("b"))) for i in range(trunc.phi_depth + 1)
    )
    return And((Not(_eq("a", "c")),) + stages)


def _expand_alpha(trunc: TruncationParams, n: int) -> Formula:
    distinct = Not(_eq("a", "b"))
    if n == 1:
        return And((distinct, _eq("x", "b")))
    names = ["a", "b"] + [f"x{i}" for i in range(1, n - 1)] + ["x"]
    conjuncts: list[Formula] = [
        _mid(names[i], names[i + 1], names[i + 2]) for i in range(n - 1)
    ]
    return And((distinct, _chain_exists(conjuncts, RELATIONS["ALPHA"].params)))


def _expand_beta(trunc: TruncationParams, k: int) -> Formula:
    distinct = Not(_eq("a", "b"))
    ys = [f"y{i}" for i in range(1, k)] + ["y"]
    conjuncts: list[Formula] = [_mid("a", ys[0], "b")]
    conjuncts.extend(_mid("a", ys[i], ys[i - 1]) for i in range(1, k))
    return And((distinct, _chain_exists(conjuncts, RELATIONS["BETA"].params)))


def _expand_psi(trunc: TruncationParams, n: int, k: int) -> Formula:
    witness = Exists(
        ("v",),
        And(
            (
                SchemaRef("BETA", (k,), (Var("a"), Var("b"), Var("v"))),
                Exists(
                    ("u",),
                    And(
                        (
                            SchemaRef("ALPHA", (n,), (Var("a"), Var("v"), Var("u"))),
                            Exists(
                                ("e",),
                                And((_equi("c", "e", "a", "u"), _equi("d", "e", "a", "v"))),
                            ),
                        )
                    ),
                ),
            )
        ),
    )
    return And((Not(_eq("a", "b")), Not(_eq("c", "d")), witness))


def gamma_disjunct(n: int, k: int) -> Formula:
    """The k-stage disjunct at multiplier n inside GAMMA's tower."""
    return And(
        (
            SchemaRef("PSI", (n, k), (Var("a"), Var("b"), Var("b"), Var("c"))),
            SchemaRef("PSI", (n + 2**k, k), (Var("a"), Var("b"), Var("a"), Var("c"))),
        )
    )


def _expand_gamma(trunc: TruncationParams) -> Formula:
    layers = tuple(
        disj(*(gamma_disjunct(n, k) for n in range(1, trunc.N + 1))) for k in range(1, trunc.K + 1)
    )
    return conj(*layers)


def b_chain_points(level: int) -> list[str]:
    return [f"m{i}" for i in range(1, 2**level)]


def _expand_b_level(level: int, mode: str) -> Formula:
    mids = b_chain_points(level)
    names = ["a"] + mids + ["c"]
    hits: list[Formula] = [_gamma(names[j], "b", names[j + 1]) for j in range(len(names) - 1)]
    if mode == "repaired":
        hits = [_eq("b", m) for m in mids] + hits
    hit = disj(*hits)
    conjuncts: list[Formula] = [_mid(names[i], names[i + 1], names[i + 2]) for i in range(len(names) - 2)]
    return _chain_exists(conjuncts, RELATIONS["B"].params, leaf_extra=hit)


def _expand_b(trunc: TruncationParams) -> Formula:
    tower = conj(*(_expand_b_level(n, trunc.b_mode) for n in range(1, trunc.b_depth + 1)))
    return Or((_eq("a", "b"), _eq("b", "c"), tower))


def _expand_delta(trunc: TruncationParams, n: int) -> Formula:
    if n == 1:
        return _equi("z0", "zn", "z0", "x")
    names = ["z0"] + [f"z{i}" for i in range(1, n)] + ["zn"]
    conjuncts: list[Formula] = [
        _equi(names[i], names[i + 1], "z0", "x") for i in range(n)
    ]
    return _chain_exists(conjuncts, RELATIONS["DELTA"].params)


def _expand_neq(trunc: TruncationParams) -> Formula:
    chains = tuple(
        SchemaRef("DELTA", (n,), (Var("x"), Var("y"), Var("z"))) for n in range(2, trunc.chain_max + 1)
    )
    return ForAll(("z",), disj(*chains))


def _expand_le(trunc: TruncationParams) -> Formula:
    return ForAll(
        ("m",),
        Exists(
            ("s",),
            Implies(
                _equi("c", "m", "d", "m"),
                And((_equi("a", "b", "c", "s"), _equi("c", "m", "s", "m"))),
            ),
        ),
    )


def _expand_collinear(trunc: TruncationParams) -> Formula:
    return Or(
        (
            SchemaRef("B", (), (Var("x"), Var("y"), Var("z"))),
            SchemaRef("B", (), (Var("y"), Var("z"), Var("x"))),
            SchemaRef("B", (), (Var("z"), Var("x"), Var("y"))),
        )
    )


# relation name -> expander called as ``expander(trunc, *indices)``
_EXPANSIONS = {
    "EQUIV2": _expand_equiv2,
    "PHI": _expand_phi,
    "M": _expand_midpoint,
    "ALPHA": _expand_alpha,
    "BETA": _expand_beta,
    "PSI": _expand_psi,
    "GAMMA": _expand_gamma,
    "B": _expand_b,
    "DELTA": _expand_delta,
    "NEQ": _expand_neq,
    "LE": _expand_le,
    "COLLINEAR": _expand_collinear,
}


@lru_cache(maxsize=4096)
def _expand_cached(rel: RelationId, trunc: TruncationParams) -> Formula:
    return _EXPANSIONS[rel.name](trunc, *rel.indices)


def schema_params(rel: RelationId) -> tuple[str, ...]:
    if rel.name not in _EXPANSIONS:
        raise SchemaError(f"{rel.name} has no formula expansion (analytic predicate only)")
    return RELATIONS[rel.name].params


def expand_schema(rel: RelationId, trunc: TruncationParams) -> Formula:
    """Expansion of ``rel`` under ``trunc``; free variables are
    :func:`schema_params` in order."""
    schema_params(rel)  # raises for analytic-only relations
    return _expand_cached(rel, trunc)
