"""A standing fuzzer for the command line (Hypothesis).

Each subcommand is run in-process on drawn arguments: formula text from
``random_formula``, then cut, unbalanced, or given unknown relations and bad
indices; points, universe and map files of every JSON shape, with hostile
scalars (``"1/0"``, ``"nan"``, integers past the double range, non-ASCII
digits, ``null``, lists); and hostile flag values.  The property: the exit
code is 0, 1 or 2, an exit 2 prints exactly one ``error:`` line, and no run
prints a traceback.

Depth flags, sample counts and file sizes are kept small.  There is no work
budget yet, so a deep B tower (``expand --relation B --depth-B 22``) or a wide
quantifier block over a large universe runs for as long as it takes.

Tier-1 runs a fixed sample of 200 examples per subcommand; with
``CLI_FUZZ_EXAMPLES=N`` each subcommand runs N fresh random examples.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from equitower.cli import main
from equitower.formulas.ast import format_formula, free_point_vars
from equitower.formulas.generate import random_formula
from equitower.oracles import RELATIONS

_EXAMPLES = int(os.environ.get("CLI_FUZZ_EXAMPLES", "0"))
FUZZ = settings(
    max_examples=_EXAMPLES or 200,
    derandomize=not _EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_BIG = 10**400
HOSTILE_SCALARS = st.sampled_from(
    ["1/0", "nan", "inf", "-inf", "1e400", "-1e400", "1/3", " 3 ", "", "a", "١٢", "３", "0x10",
     None, True, [1], {"a": 1}, _BIG, -_BIG, float("nan"), float("inf"), 1e308, 4.4e307, 1e-320]
)
COORDS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.floats(-4, 4),
    HOSTILE_SCALARS,
)
JSON_VALUES = st.recursive(
    st.one_of(HOSTILE_SCALARS, st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
POINT_RECORDS = st.fixed_dictionaries(
    {}, optional={"x": COORDS, "y": COORDS, "tag": st.one_of(st.sampled_from(["input", "refuter"]), JSON_VALUES)}
)
# well-formed records, so that most drawn files reach the commands behind the reader
SOUND_POINTS = st.fixed_dictionaries({"x": st.integers(-3, 3).map(str), "y": st.integers(-3, 3).map(str)})
POINT_FILES = st.one_of(st.lists(st.one_of(SOUND_POINTS, POINT_RECORDS), max_size=4), JSON_VALUES)
MAP_RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.one_of(st.sampled_from(["affine", "nonlinear", "shear"]), JSON_VALUES),
        "family": st.one_of(st.sampled_from(["cubic_x", "square_shift", "sine"]), JSON_VALUES),
        "label": st.one_of(st.sampled_from(["m", "n"]), JSON_VALUES),
        "matrix": st.one_of(st.lists(COORDS, min_size=4, max_size=4), JSON_VALUES),
        "shift": st.one_of(st.lists(COORDS, min_size=2, max_size=2), JSON_VALUES),
        "expect": st.one_of(st.sampled_from(["violating", "bidirectional-preserving"]), JSON_VALUES),
    },
)
MAP_FILES = st.one_of(st.lists(MAP_RECORDS, max_size=3), JSON_VALUES)

RELATION_LABELS = st.one_of(
    st.sampled_from(["GAMMA", "LE", "EQUIV2", "PSI:2:1", "B", "DELTA:3", "NEQ", "ALPHA:2", "BETA:2", "COLLINEAR",
                     "PHI:1", "M", "PARALLELOGRAM"]),
    st.builds(lambda name, ix: ":".join([name, *map(str, ix)]),
              st.sampled_from(sorted(RELATIONS) + ["NOPE", "psi", ""]), st.lists(st.integers(-1, 4), max_size=3)),
    st.sampled_from(["PSI:a:1", "DELTA:", ":", "DELTA:1e3"]),
)

# flag -> (sound values, hostile values); each value is a list of arguments
SPACE = {
    "plane": ([["--norm", n, "--backend", b] for n, b in [("l1", "exact"), ("l2", "exact"), ("linf", "exact"),
                                                          ("l1", "float"), ("l2", "float"), ("lp:3", "float"),
                                                          ("LP:3/2", "float")]],
              [["--norm", n, "--backend", "float"] for n in ["lp:1/0", "lp:1e400", "lp:1", "lp:0", "lp:-3", "lp:abc",
                                                              "lp:", "l3", "", "lp:1.0000000001"]]
              + [["--norm", "lp:3"], ["--backend", "quantum"]]),
    "tolerance": ([[], ["--tolerance", "1e-12"]], [["--tolerance", t] for t in ["0.5", "1", "-1", "nan", "inf", "x"]]),
}
TRUNC = {
    "K": ([["--depth-K", "1"], ["--depth-K", "2"]], [["--depth-K", "0"], ["--depth-K", "x"]]),
    "N": ([["--depth-N", "2"], ["--depth-N", "4"]], [["--depth-N", "0"], ["--depth-N", "-3"]]),
    "B": ([["--depth-B", "1"], ["--depth-B", "2"]], [["--depth-B", "0"]]),
    "chain": ([["--chain-max", "2"], ["--chain-max", "3"]], [["--chain-max", "1"]]),
    "phi": ([["--phi-depth", "0"], ["--phi-depth", "1"]], [["--phi-depth", "-1"]]),
    "static": ([[], ["--static-n"]], [["--static-n", "1"]]),
    "mode": ([[], ["--mode", "strict-paper"]], [["--mode", "lenient"]]),
}
COUNTS = (["1", "2", "0"], ["-1", "x", "1e2"])
SEED = ([["--seed", "7"], ["--seed", "-5"]], [["--seed", "x"], ["--seed", "1.5"], []])


@st.composite
def flags(draw, table):
    """One argument list per entry of ``table``; in about a third of the draws one entry is hostile."""
    bad = draw(st.sampled_from([None] * 2 * len(table) + list(table)))
    argv = []
    for name, (sound, hostile) in table.items():
        argv += draw(st.sampled_from(hostile if name == bad else sound))
    return argv


def _counted(*flag_names):
    return {name: ([[name, v] for v in COUNTS[0]], [[name, v] for v in COUNTS[1]]) for name in flag_names}


def _mangle(rng: random.Random, text: str, how: int) -> str:
    """``text`` cut, unbalanced, or given unknown relations and bad indices (how 1..4; 0 keeps it)."""
    if how == 1:
        return text[: rng.randrange(len(text) + 1)]
    if how == 2:
        return rng.choice(["(", ")", "(("]) + text if rng.random() < 0.5 else text + rng.choice([")", "(", "))"])
    if how == 3:
        return text.replace("(rel ", f"(rel {rng.choice(['NOPE', 'pt', '(x)', '7', 'and'])} ", 1)
    if how == 4:
        return " ".join(rng.choice(["-1", "0", "k", "(", "1/0", "99"]) if t.isdigit() else t for t in text.split(" "))
    return text


FIXED_TEXTS = st.sampled_from(["(rel GAMMA a b c)", "(rel B a b c)", "(rel DELTA 2 a b c)", "(rel NEQ a b)",
                               "(rel LE a b c d)", "(rel PSI 2 1 a b c d)", "(exists (z) (equi a z a b))",
                               "(forall (z) (= z a))", "", "(", "x"])


@st.composite
def formula_texts(draw, max_depth: int):
    """Formula text and the free variables of the formula it came from."""
    if draw(st.booleans()):
        text = draw(FIXED_TEXTS)
        return text, sorted(set("abcd").intersection(text))
    rng = draw(st.randoms())
    formula = random_formula(rng, depth=draw(st.integers(0, max_depth)))
    return _mangle(rng, format_formula(formula), draw(st.sampled_from([0, 0, 1, 2, 3, 4]))), free_point_vars(formula)


@st.composite
def sized_points(draw, size: int):
    """A points file of ``size`` sound records, or now and then one of any shape."""
    return draw(st.one_of(*[st.lists(SOUND_POINTS, min_size=size, max_size=size)] * 3, POINT_FILES))


def _file(directory: Path, name: str, content) -> str:
    path = directory / name
    path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    return str(path)


def _check(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    text = err.getvalue()
    assert code in (0, 1, 2), (code, argv, text)
    assert "Traceback" not in text, (argv, text)
    if code == 2:
        assert sum("error:" in line for line in text.splitlines()) == 1, (argv, text)


@st.composite
def eval_inputs(draw):
    """Formula text, a points file (or None) and a universe ("auto" or a file).  An auto universe
    closes over the points, so it gets shallow formulas with at most three free variables."""
    universe = draw(st.one_of(sized_points(3), sized_points(4), st.just("auto")))
    text, names = draw(formula_texts(1 if universe == "auto" else 2))
    size = len(names) if universe != "auto" or len(names) <= 3 else 1
    return text, draw(st.one_of(sized_points(size), st.none())), universe


@FUZZ
@given(eval_inputs(), st.lists(st.sampled_from(["PSI=formula", "GAMMA=oracle", "M=formula", "NOPE=formula", "M=maybe",
                                                "x"]), max_size=2),
       st.booleans(), flags({**SPACE, **TRUNC}))
def test_eval(inputs, impls, explain, options):
    formula, points, universe = inputs
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["eval", "--formula", formula, *options]
        if points is not None:
            argv += ["--points", _file(Path(tmp), "points.json", points)]
        argv += ["--universe", universe if universe == "auto" else _file(Path(tmp), "universe.json", universe)]
        for impl in impls:
            argv += ["--impl", impl]
        _check(argv + (["--explain"] if explain else []))


@FUZZ
@given(RELATION_LABELS, flags(TRUNC))
def test_expand(relation, options):
    _check(["expand", "--relation", relation, *options])


@FUZZ
@given(RELATION_LABELS, flags({**SPACE, **TRUNC, **_counted("--samples"), "seed": SEED}))
def test_verify_layer(relation, options):
    _check(["verify-layer", "--relation", relation, *options])


@FUZZ
@given(st.sampled_from(["a", "b", "cde", "f", "g", "h", "i", "all", "z"]),
       flags({**SPACE, **_counted("--samples", "--constructions", "--chain-cap"), "seed": SEED}))
def test_check_axioms(axiom, options):
    _check(["check-axioms", "--axiom", axiom, *options])


@FUZZ
@given(st.one_of(st.none(), MAP_FILES), flags({**SPACE, **_counted("--quadruples", "--triples"), "seed": SEED}))
def test_vogt(maps, options):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["vogt", *options]
        _check(argv + ([] if maps is None else ["--maps", _file(Path(tmp), "maps.json", maps)]))


@st.composite
def relation_points(draw):
    """A relation label and a points file, most often of the relation's arity."""
    label = draw(RELATION_LABELS)
    spec = RELATIONS.get(label.split(":")[0].upper())
    return label, draw(sized_points(len(spec.params) if spec else 2))


@FUZZ
@given(relation_points(), flags({**SPACE, **TRUNC}))
def test_closure(relation_and_points, options):
    relation, points = relation_and_points
    with tempfile.TemporaryDirectory() as tmp:
        _check(["closure", "--relation", relation, "--points", _file(Path(tmp), "points.json", points), *options])
