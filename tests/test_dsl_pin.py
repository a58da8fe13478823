"""Byte pins for the formula language: printer, free-variable walk,
every schema expansion over a grid of truncations, and the parser's error
text (message, line and column) on a seeded corpus of broken inputs.

Each pin is the SHA-256 of one long transcript, so any change in a printed
byte, a variable order, an expansion's shape or a parse error's wording or
position fails here."""

import hashlib
import itertools
import random

from equitower.formulas.ast import format_formula, free_point_vars
from equitower.formulas.generate import random_formula
from equitower.formulas.parser import ParseError, parse_formula
from equitower.formulas.schemas import B_MODES, TruncationParams, expand_schema
from equitower.oracles import RelationId

PRINT_SHA256 = "b225e5b78451c1ca74cad49a680f9582e703d889787356bb8b13a1b8d5544e6f"
EXPAND_SHA256 = "78e0f743653d81955375eb1297853cd92f947c2e62f90bcf65d7e3d957a64ff1"
PARSE_SHA256 = "ef9e22d5d1a1a9f75e690f1ff11e7d5e96a1bc4d08d7be4ca90f16f2040a3d58"

# every expandable relation with the index values the grid visits
_FAMILIES = {
    "EQUIV2": [()],
    "PHI": [(n,) for n in range(4)],
    "M": [()],
    "ALPHA": [(n,) for n in range(1, 6)],
    "BETA": [(k,) for k in range(1, 6)],
    "PSI": [(n, k) for n in range(1, 5) for k in range(1, 4)],
    "GAMMA": [()],
    "B": [()],
    "DELTA": [(n,) for n in range(1, 7)],
    "NEQ": [()],
    "LE": [()],
    "COLLINEAR": [()],
}

_JUNK = ("(", ")", "()", "rel", "pt", "equi", "=", "not", "bigand", "exists", "1/0", "1.5e", "-3", "+7",
         "NOPE", "psi", "x", "(pt 1)", "(pt a b)", "(rel)", "(rel 5)", ";c\n", "\n", "(x)", "((and))")

# one text for each refusal the random corpus may miss
_FIXED = ("", "; a comment only", "x", ")", "()", "((and))", "(and))", "(and a)", "(not)", "(not (= a b) (= a b))",
          "(implies (= a b))", "(implies (= a b) (= a b) (= a b))", "(exists () (= a b))", "(forall x (= a b))",
          "(exists (a 1) (= a b))", "(exists (and) (= a b))", "(exists (x) a)", "(bigor i 1 2 (= a b))",
          "(bigor (i) (= a b))", "(bigand k x (= a b))", "(bigand 3 (= a b))", "(bigand k 2)", "(rel)", "(rel (x) a)",
          "(rel PSI i 1 a b c d)", "(rel PSI (x) 1 a b c d)", "(rel PSI and 1 a b c d)", "(rel psi 1 2 a b c d)",
          "(equi a b c)", "(= a)", "(pt 1 2)", "(= (pt 1) a)", "(= (pt (x) 1) a)", "(= (pt 1/0 2) a)",
          "(= (pt 1.5 -2/3) a)", "(= (foo 1 2) a)", "(= () a)", "  \n  (and\n (= a b)\n  (nope))", "(frob a)")


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _print_transcript():
    rng = random.Random(20211)
    for _ in range(2000):
        f = random_formula(rng, depth=rng.randint(0, 5))
        yield format_formula(f)
        yield " ".join(free_point_vars(f))


def _expand_transcript():
    for K, N, b_depth, chain_max, phi_depth, b_mode in itertools.product(
        (1, 2, 3), (1, 3), (1, 2, 4), (2, 5), (0, 2), B_MODES
    ):
        trunc = TruncationParams(K=K, N=N, b_depth=b_depth, chain_max=chain_max, phi_depth=phi_depth, b_mode=b_mode)
        for name, family in _FAMILIES.items():
            for indices in family:
                f = expand_schema(RelationId(name, indices), trunc)
                yield repr(f)
                yield format_formula(f)


def _broken(rng: random.Random, text: str) -> str:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    how = rng.randrange(6)
    if how == 0:  # cut
        return text[: rng.randrange(len(text) + 1)]
    if how == 1:  # unbalance
        return text + ")" if rng.random() < 0.5 else "(" + text
    if how == 2:  # a token replaced by junk
        tokens[rng.randrange(len(tokens))] = rng.choice(_JUNK)
    elif how == 3:  # a token dropped
        del tokens[rng.randrange(len(tokens))]
    elif how == 4:  # relations renamed or given bad indices
        tokens = [rng.choice(("NOPE", "0", "x", "-1", "(", "pt")) if t.isupper() or t.isdigit() else t for t in tokens]
    else:  # tokens spread over lines
        return "\n".join(" ".join(tokens[i : i + 3]) for i in range(0, len(tokens), 3))
    return " ".join(tokens)


def _parse_transcript():
    rng = random.Random(20212)
    texts = [_broken(rng, format_formula(random_formula(rng, depth=rng.randint(0, 4)))) for _ in range(3000)]
    for text in (*_FIXED, *texts):
        try:
            yield "ok " + format_formula(parse_formula(text))
        except ParseError as exc:
            yield f"error {exc} | {exc.line} {exc.column}"


def test_printer_and_free_variables_are_pinned():
    assert _digest(_print_transcript()) == PRINT_SHA256


def test_expansions_are_pinned():
    assert _digest(_expand_transcript()) == EXPAND_SHA256


def test_parse_errors_are_pinned():
    assert _digest(_parse_transcript()) == PARSE_SHA256
