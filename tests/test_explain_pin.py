"""Byte pin for ``eval --explain``'s witness and refuter lines.

Seeded random formulas under a top ``exists`` or ``forall`` (variable lists
of one to three names, repeats allowed) are evaluated over small exact l1,
l2 and linf universes of grid points, where equal lengths are common.  For
each, the transcript holds the formula, its verdict (or the error it
raises) and what ``_explain_top_quantifier`` prints; the pin is the SHA-256
of that transcript, so any change in which binding is named, or how, fails
here."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

from equitower import L1, L2, LINF, ImplMap, Point, Space, TruncationParams, Universe, eval_formula
from equitower.cli import _explain_top_quantifier
from equitower.formulas.ast import Exists, ForAll, format_formula, free_point_vars
from equitower.formulas.generate import random_formula

EXPLAIN_SHA256 = "58da6416b19936ea7768be84fbbcb0782a1740575cbcfeb7be3cd68e95a04c01"
TRUNC = TruncationParams(K=2, N=3, chain_max=3, b_depth=1, phi_depth=1)
POOL = ("a", "b", "c", "d", "p", "q", "r", "w")
FORMULA_MODE = ("EQUIV2", "NEQ", "DELTA", "COLLINEAR", "LE", "M")
PER_PLANE = 200
GRID = [Point(Fraction(x), Fraction(y)) for x in range(3) for y in range(3)]


def _transcript(counts: dict):
    rng = random.Random(20231)
    for norm in (L1, L2, LINF):
        space = Space(norm, "exact")
        for _ in range(PER_PLANE):
            body = random_formula(rng, depth=rng.randint(0, 3))
            names = tuple(rng.choice(POOL) for _ in range(rng.randint(1, 3)))
            formula = (Exists if rng.random() < 0.5 else ForAll)(names, body)
            universe = Universe(space, rng.sample(GRID, rng.randint(2, 5)))
            valuation = {name: rng.choice(GRID) for name in free_point_vars(formula)}
            impl = ImplMap.layered(rng.choice(FORMULA_MODE)) if rng.random() < 0.3 else ImplMap()
            yield f"{norm.label()} {format_formula(formula)}"
            try:
                verdict = eval_formula(formula, space, universe, valuation, TRUNC, impl)
            except Exception as exc:  # generated indices and constants may be refused; the refusal is pinned
                yield f"error {type(exc).__name__}: {exc}"
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                _explain_top_quantifier(formula, space, universe, valuation, TRUNC, impl, verdict)
            counts["settled"] += bool(out.getvalue())
            yield f"{verdict} {out.getvalue()}"


def test_explain_lines_are_pinned():
    counts = {"settled": 0}
    h = hashlib.sha256()
    for line in _transcript(counts):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    assert counts["settled"] >= 200
    assert h.hexdigest() == EXPLAIN_SHA256
