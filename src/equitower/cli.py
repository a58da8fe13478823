"""Batch command-line front end.

Subcommands: eval, expand, verify-layer, check-axioms, vogt, closure,
version.  Exit codes follow one convention everywhere (0 for true/pass,
1 for false/fail, 2 for errors) so shell pipelines can branch on semantic
outcomes.  Every sampling subcommand takes a seed, and identical
configuration plus seed produces byte-identical report files.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import __version__
from .axioms import CHECKERS, run_axiom, run_axiom_suite
from .closure import IncompleteClosureError, close_midpoints, closure_for_relation
from .formulas.ast import Exists, ForAll, SchemaRef, format_formula, free_point_vars
from .formulas.evaluator import ImplMap, _Evaluator, eval_formula
from .formulas.parser import parse_formula
from .formulas.schemas import TruncationParams, expand_schema
from .formulas.verify import verify_layer
from .geometry import (
    EXACT,
    FLOAT,
    GeometryError,
    NormSpec,
    Space,
    lp,
    point_from_record,
)
from .oracles import RELATIONS, OracleError, RelationId
from .preservation import (
    ANISOTROPIC,
    CUBIC_X,
    SHEAR_X,
    PlaneMap,
    run_experiment,
    similarity_suite,
)
from .reports import read_json, stable_json_dumps, write_report
from .scalars import parse_exact
from .universe import TAG_INPUT, Universe

USER_ERRORS = (OracleError, GeometryError, ValueError, OSError)


def _add_space_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--norm", default="l2", help="plane norm: l1, l2, linf, or lp:P with rational P > 1")
    parser.add_argument("--backend", default=EXACT, choices=(EXACT, FLOAT), help="scalar backend")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="float-backend comparison tolerance (checked, then ignored, on the exact backend)")


def _add_trunc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth-K", type=int, default=6, dest="depth_k", help="bound for conjunctions over the dyadic index k")
    parser.add_argument("--depth-N", type=int, default=64, dest="depth_n", help="bound for disjunctions over the multiplier index n")
    parser.add_argument("--depth-B", type=int, default=3, dest="depth_b", help="subdivision depth of the betweenness tower")
    parser.add_argument("--chain-max", type=int, default=8, help="bound for chain lengths in DELTA/NEQ")
    parser.add_argument("--phi-depth", type=int, default=2, help="midpoint-refinement stages inside M")
    parser.add_argument("--static-n", action="store_true", help="disable the per-query adaptive N for GAMMA")
    parser.add_argument("--mode", default="repaired", choices=("repaired", "strict-paper"), help="B tower mode")


def _space_from_args(args) -> Space:
    name = args.norm.lower()
    if name.startswith("lp:"):
        norm = lp(parse_exact(name[3:]))
    elif name in ("l1", "l2", "linf"):
        norm = NormSpec(name)
    else:
        raise GeometryError(f"bad --norm {args.norm!r}")
    checked = Space(norm, FLOAT, args.tolerance)  # refuses a bad --tolerance even where exact ignores it
    return checked if args.backend == FLOAT else Space(norm, EXACT)


def _trunc_from_args(args) -> TruncationParams:
    return TruncationParams(
        K=args.depth_k,
        N=args.depth_n,
        b_depth=args.depth_b,
        chain_max=args.chain_max,
        phi_depth=args.phi_depth,
        adaptive_n=not args.static_n,
        b_mode=args.mode,
    )


def _read_records(path: str, what: str, parse) -> list:
    """``parse`` of each record in a file holding a JSON list of objects;
    a refusal names the file and the record."""
    records = read_json(path)
    if not isinstance(records, list):
        raise GeometryError(f"{what} file {path} must hold a JSON list of records")
    parsed = []
    for i, rec in enumerate(records):
        try:
            if not isinstance(rec, dict):
                raise GeometryError(f"a record is a JSON object, got {rec!r}")
            parsed.append(parse(rec))
        except (GeometryError, ValueError) as exc:
            raise GeometryError(f"{what} file {path}, record {i}: {exc}") from exc
    return parsed


def _load_points(space: Space, path: str):
    return _read_records(path, "points", lambda rec: point_from_record(space, rec))


def _universe_record(space: Space, rec: dict) -> tuple:
    tag = rec.get("tag", TAG_INPUT)
    if not isinstance(tag, str):
        raise GeometryError(f"a provenance tag is a string, got {tag!r}")
    return point_from_record(space, rec), tag


def _emit(args, payload) -> None:
    """Write the report to ``--output``, or print it."""
    if args.output:
        write_report(args.output, payload)
    else:
        print(stable_json_dumps(payload))


def _impl_from_args(args, top_name: str | None) -> ImplMap:
    """The formula-mode set: the top relation, then each ``--impl REL=oracle|formula``
    in order, the last setting of a relation winning."""
    modes = {} if top_name is None else {top_name: "formula"}
    for item in args.impl or ():
        name, _, how = item.partition("=")
        if name.upper() not in RELATIONS or how not in ("oracle", "formula"):
            raise GeometryError(f"--impl takes REL=oracle or REL=formula, REL one of {', '.join(RELATIONS)}; got {item!r}")
        modes[name.upper()] = how
    return ImplMap(frozenset(name for name, how in modes.items() if how == "formula"))


def cmd_eval(args) -> int:
    space = _space_from_args(args)
    trunc = _trunc_from_args(args)
    text = args.formula
    if "(" not in text and Path(text).is_file():
        text = Path(text).read_text(encoding="utf-8")
    formula = parse_formula(text)
    names = free_point_vars(formula)
    points = _load_points(space, args.points) if args.points else []
    if len(points) < len(names):
        raise GeometryError(
            f"formula has {len(names)} free variable(s) {names} but the points file holds {len(points)}"
        )
    valuation = dict(zip(names, points))
    top_name = formula.name if isinstance(formula, SchemaRef) else None
    impl = _impl_from_args(args, top_name)
    if args.universe == "auto":
        if isinstance(formula, SchemaRef) and all(isinstance(i, int) for i in formula.index_args):
            rel = RelationId(formula.name, tuple(formula.index_args))
            inputs = tuple(points[: len(names)])
            if rel.name in impl.formulas:
                universe = closure_for_relation(space, rel, inputs, trunc)
            else:  # an oracle-mode top reads no universe, so it needs no closure recipe
                universe = Universe(space, inputs)
        else:
            universe = close_midpoints(space, points, depth=2) if points else Universe(space, [])
    else:
        records = _read_records(args.universe, "universe", lambda rec: _universe_record(space, rec))
        universe = Universe(space, [p for p, _ in records], [tag for _, tag in records])
    verdict = eval_formula(formula, space, universe, valuation, trunc, impl)
    print("true" if verdict else "false")
    if args.explain:
        for name, p in valuation.items():
            print(f"  {name} := ({p.x}, {p.y})")
        print(f"  universe: {len(universe)} points ({', '.join(sorted(set(universe.tags)))})")
        print(f"  formula mode: {', '.join(sorted(impl.formulas)) or 'none'}")
        _explain_top_quantifier(formula, space, universe, valuation, trunc, impl, verdict)
    return 0 if verdict else 1


def _explain_top_quantifier(formula, space, universe, valuation, trunc, impl, verdict) -> None:
    """For a top-level quantifier, name the binding that settled the verdict:
    the witness of a true existential or the refuter of a false universal, the
    first in universe order.  Each variable takes the first point from which
    the evaluator's search over the variables after it still settles it."""
    goal = {Exists: True, ForAll: False}.get(type(formula))
    if goal is None or goal != verdict:
        return
    ev, pv, picks = _Evaluator(space, universe, trunc, impl), dict(valuation), []
    for i, name in enumerate(formula.vars):
        rest = formula.vars[i + 1 :]
        p = pv[name] = next(q for q in universe.points if ev.search(rest, formula.body, {**pv, name: q}, {}, goal))
        picks.append(f"{name} := ({p.x}, {p.y})")
    print(f"  {'witness' if goal else 'refuter'}: {', '.join(picks)}")


def cmd_expand(args) -> int:
    rel = RelationId.parse(args.relation)
    trunc = _trunc_from_args(args)
    print(format_formula(expand_schema(rel, trunc)))
    return 0


def cmd_verify_layer(args) -> int:
    space = _space_from_args(args)
    trunc = _trunc_from_args(args)
    rel = RelationId.parse(args.relation)
    report = verify_layer(space, rel, trunc, args.samples, args.seed)
    payload = report.to_dict()
    _emit(args, payload)
    return 0 if report.passed else 1


def cmd_check_axioms(args) -> int:
    space = _space_from_args(args)
    if args.axiom == "all":
        reports = run_axiom_suite(space, args.samples, args.seed, args.constructions, args.chain_cap)
    elif args.axiom in CHECKERS:
        reports = [run_axiom(args.axiom, space, args.samples, args.constructions, args.seed, args.chain_cap)]
    else:
        raise GeometryError(f"unknown axiom {args.axiom!r}; use one of {sorted(CHECKERS)} or all")
    payload = [r.to_dict() for r in reports]
    _emit(args, payload)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"axiom {r.axiom}: {status} ({r.samples} samples, {len(r.violations)} violations)", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _default_map_suite(space: Space) -> tuple[list[PlaneMap], dict[str, str]]:
    maps = similarity_suite(space)
    expectations = {m.label: "bidirectional-preserving" for m in maps}
    for known_bad in (SHEAR_X, ANISOTROPIC, CUBIC_X):
        maps.append(known_bad)
        expectations[known_bad.label] = "violating"
    return maps, expectations


def cmd_vogt(args) -> int:
    space = _space_from_args(args)
    if args.maps:
        configs = _read_records(args.maps, "maps", lambda cfg: (PlaneMap.from_config(cfg), cfg))
        maps = [m for m, _ in configs]
        expectations = {m.label: cfg["expect"] for m, cfg in configs if "expect" in cfg}
    else:
        maps, expectations = _default_map_suite(space)
    summary = run_experiment(space, maps, args.quadruples, args.triples, args.seed, expectations)
    _emit(args, summary)
    return 0 if summary["expectation_mismatches"] == 0 else 1


def cmd_closure(args) -> int:
    space = _space_from_args(args)
    trunc = _trunc_from_args(args)
    rel = RelationId.parse(args.relation)
    points = tuple(_load_points(space, args.points))
    if len(points) != rel.arity():
        raise GeometryError(f"{rel.label()} needs {rel.arity()} points, file holds {len(points)}")
    try:
        universe = closure_for_relation(space, rel, points, trunc)
    except IncompleteClosureError as exc:
        print(f"incomplete closure: {exc}", file=sys.stderr)
        return 1
    payload = universe.to_records()
    _emit(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equitower",
        description="Workbench for the equidistance-only definition tower over normed rational planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p_eval = sub.add_parser("eval", help="evaluate a formula over a finite universe", formatter_class=fmt)
    p_eval.add_argument("--formula", required=True, help="DSL text or a path to a file holding it")
    p_eval.add_argument("--points", help="JSON point file bound to free variables in first-appearance order")
    p_eval.add_argument("--universe", default="auto", help="universe JSON file, or 'auto' for a witness closure")
    p_eval.add_argument("--impl", action="append", help="relation treatment override REL=oracle|formula (repeatable)")
    p_eval.add_argument("--explain", action="store_true", help="print variable bindings and universe provenance")
    _add_space_flags(p_eval)
    _add_trunc_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_expand = sub.add_parser("expand", help="print a relation's formula expansion", formatter_class=fmt)
    p_expand.add_argument("--relation", required=True, help="relation label, e.g. GAMMA or PSI:3:2")
    _add_trunc_flags(p_expand)
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify-layer", help="compare a relation's formula with its oracle", formatter_class=fmt)
    p_verify.add_argument("--relation", required=True, help="relation label, e.g. GAMMA or BETA:2")
    p_verify.add_argument("--samples", type=int, default=1000, help="number of sampled instances")
    p_verify.add_argument("--seed", type=int, required=True, help="PRNG seed (recorded in the report)")
    p_verify.add_argument("--output", help="write the layer report to this path")
    _add_space_flags(p_verify)
    _add_trunc_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify_layer)

    p_axioms = sub.add_parser("check-axioms", help="check the congruence axioms on a coordinate model", formatter_class=fmt)
    p_axioms.add_argument("--axiom", default="all", help="one of a, b, cde, f, g, h, i, or all")
    p_axioms.add_argument("--samples", type=int, default=10000, help="universal instantiations per axiom")
    p_axioms.add_argument("--constructions", type=int, default=1000, help="existential constructions per axiom")
    p_axioms.add_argument("--chain-cap", type=int, default=12, help="chain cap for the unbounded-reach axiom")
    p_axioms.add_argument("--seed", type=int, required=True, help="PRNG seed (recorded in the report)")
    p_axioms.add_argument("--output", help="write the axiom reports to this path")
    _add_space_flags(p_axioms)
    p_axioms.set_defaults(func=cmd_check_axioms)

    p_vogt = sub.add_parser("vogt", help="classify plane maps by equidistance/betweenness transport", formatter_class=fmt)
    p_vogt.add_argument("--maps", help="JSON map-suite file; omit for the built-in similarity suite")
    p_vogt.add_argument("--quadruples", type=int, default=2000, help="equidistance samples per map")
    p_vogt.add_argument("--triples", type=int, default=2000, help="betweenness samples per map")
    p_vogt.add_argument("--seed", type=int, required=True, help="PRNG seed (recorded in the report)")
    p_vogt.add_argument("--output", help="write the experiment summary to this path")
    _add_space_flags(p_vogt)
    p_vogt.set_defaults(func=cmd_vogt)

    p_closure = sub.add_parser("closure", help="emit the witness/refuter closure for a relation instance", formatter_class=fmt)
    p_closure.add_argument("--relation", required=True, help="relation label, e.g. DELTA:4")
    p_closure.add_argument("--points", required=True, help="JSON point file with the relation's arguments")
    p_closure.add_argument("--output", help="write the universe file to this path")
    _add_space_flags(p_closure)
    _add_trunc_flags(p_closure)
    p_closure.set_defaults(func=cmd_closure)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=lambda args: (print(__version__), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error: input nested too deeply (past the recursion limit of {limit} frames)", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input: exit 1 would read as "false"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
