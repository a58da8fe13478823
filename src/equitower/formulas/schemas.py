"""Named relation schemas: expansion of each defined relation into the
equidistance/equality fragment, under explicit truncation bounds.

Countable conjunctions and disjunctions are unrolled at expansion time
(GAMMA's double tower, B's depth tower, NEQ's chain disjunction), so the
result contains only finite connectives, quantifiers over point variables,
atoms, and SchemaRefs to lower layers.

Each expander writes its definition as formula-language text, the same
text that ``expand`` prints; :func:`_expand_cached` parses it once per
relation and truncation.

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
from .ast import Formula
from .parser import parse_formula

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


def _join(head: str, items: list[str]) -> str:
    """``(head items...)``, or the lone item bare."""
    return items[0] if len(items) == 1 else f"({head} {' '.join(items)})"


def _chain(links: list[tuple[str, ...]], outer: tuple[str, ...], leaf: str | None = None) -> str:
    """Nest each link ``(head, *names)`` just inside single-variable
    quantifiers over the names it mentions first, leaving out ``outer``
    (the relation's formal points); ``leaf`` joins the innermost body."""
    seen, binders = set(outer), []
    for _, *names in links:
        binders.append([name for name in dict.fromkeys(names) if name not in seen])
        seen.update(binders[-1])
    body = leaf
    for (head, *names), new in reversed(list(zip(links, binders))):
        link = f"({head} {' '.join(names)})"
        body = link if body is None else f"(and {link} {body})"
        for name in reversed(new):
            body = f"(exists ({name}) {body})"
    return body


def _expand_equiv2(trunc: TruncationParams) -> str:
    # the universal part is equivalent to d(a,b) >= 2 d(c,d): the pair
    # x = mid(a,b), y = mid(a,x) minimizes d(x,y) at d(a,b)/4, and the
    # consequent's z exists exactly when d(c,d) <= 2 d(x,y)
    return (
        "(and (exists (e) (and (equi a e c d) (equi b e c d)))"
        " (forall (x y) (implies (and (equi x a x b) (equi y a y x))"
        " (exists (z) (and (equi z c x y) (equi z d x y))))))"
    )


def _expand_phi(trunc: TruncationParams, n: int) -> str:
    if n == 0:
        return "(and (equi x a x b) (rel EQUIV2 a b x a))"
    return (
        f"(and (rel PHI {n - 1} a b x) (forall (x3) (implies (rel PHI 0 a b x3)"
        " (exists (x1 x2 y) (and (rel PHI 0 a b x1) (rel PHI 0 a b x2) (rel EQUIV2 x y x3 x) (rel LE x y x1 x2))))))"
    )


def _expand_midpoint(trunc: TruncationParams) -> str:
    # the refinement tower runs on the endpoint pair (a, c) with b as the
    # candidate midpoint
    stages = " ".join(f"(rel PHI {i} a c b)" for i in range(trunc.phi_depth + 1))
    return f"(and (not (= a c)) {stages})"


def _expand_alpha(trunc: TruncationParams, n: int) -> str:
    if n == 1:
        return "(and (not (= a b)) (= x b))"
    names = ["a", "b"] + [f"x{i}" for i in range(1, n - 1)] + ["x"]
    links = [("rel M", *names[i : i + 3]) for i in range(n - 1)]
    return f"(and (not (= a b)) {_chain(links, RELATIONS['ALPHA'].params)})"


def _expand_beta(trunc: TruncationParams, k: int) -> str:
    ys = ["b"] + [f"y{i}" for i in range(1, k)] + ["y"]
    links = [("rel M", "a", ys[i], ys[i - 1]) for i in range(1, k + 1)]
    return f"(and (not (= a b)) {_chain(links, RELATIONS['BETA'].params)})"


def _expand_psi(trunc: TruncationParams, n: int, k: int) -> str:
    return (
        f"(and (not (= a b)) (not (= c d)) (exists (v) (and (rel BETA {k} a b v)"
        f" (exists (u) (and (rel ALPHA {n} a v u) (exists (e) (and (equi c e a u) (equi d e a v))))))))"
    )


def gamma_disjunct(n: int, k: int) -> str:
    """The k-stage disjunct at multiplier n inside GAMMA's tower."""
    return f"(and (rel PSI {n} {k} a b b c) (rel PSI {n + 2**k} {k} a b a c))"


def _expand_gamma(trunc: TruncationParams) -> str:
    layers = [_join("or", [gamma_disjunct(n, k) for n in range(1, trunc.N + 1)]) for k in range(1, trunc.K + 1)]
    return _join("and", layers)


def _expand_b_level(level: int, mode: str) -> str:
    mids = [f"m{i}" for i in range(1, 2**level)]
    names = ["a"] + mids + ["c"]
    hits = [f"(rel GAMMA {names[j]} b {names[j + 1]})" for j in range(len(names) - 1)]
    if mode == "repaired":
        hits = [f"(= b {m})" for m in mids] + hits
    links = [("rel M", *names[i : i + 3]) for i in range(len(names) - 2)]
    return _chain(links, RELATIONS["B"].params, leaf=_join("or", hits))


def _expand_b(trunc: TruncationParams) -> str:
    tower = _join("and", [_expand_b_level(n, trunc.b_mode) for n in range(1, trunc.b_depth + 1)])
    return f"(or (= a b) (= b c) {tower})"


def _expand_delta(trunc: TruncationParams, n: int) -> str:
    names = ["z0"] + [f"z{i}" for i in range(1, n)] + ["zn"]
    links = [("equi", names[i], names[i + 1], "z0", "x") for i in range(n)]
    return _chain(links, RELATIONS["DELTA"].params)


def _expand_neq(trunc: TruncationParams) -> str:
    chains = [f"(rel DELTA {n} x y z)" for n in range(2, trunc.chain_max + 1)]
    return f"(forall (z) {_join('or', chains)})"


def _expand_le(trunc: TruncationParams) -> str:
    return "(forall (m) (exists (s) (implies (equi c m d m) (and (equi a b c s) (equi c m s m)))))"


def _expand_collinear(trunc: TruncationParams) -> str:
    return "(or (rel B x y z) (rel B y z x) (rel B z x y))"


# relation name -> expander called as ``expander(trunc, *indices)``; it returns DSL text
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
    return parse_formula(_EXPANSIONS[rel.name](trunc, *rel.indices))


def schema_params(rel: RelationId) -> tuple[str, ...]:
    if rel.name not in _EXPANSIONS:
        raise SchemaError(f"{rel.name} has no formula expansion (analytic predicate only)")
    return RELATIONS[rel.name].params


def expand_schema(rel: RelationId, trunc: TruncationParams) -> Formula:
    """Expansion of ``rel`` under ``trunc``; free variables are
    :func:`schema_params` in order."""
    schema_params(rel)  # raises for analytic-only relations
    return _expand_cached(rel, trunc)
