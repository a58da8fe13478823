import inspect
import random
import re
from fractions import Fraction

import pytest

from equitower import L1, Point, Space, TruncationParams
from equitower.closure import closure_for_relation
from equitower.formulas.ast import (
    And,
    AtomEq,
    AtomEqui,
    Const,
    CountableAnd,
    CountableOr,
    Exists,
    Not,
    Or,
    SchemaRef,
    Var,
    format_formula,
    free_point_vars,
)
from equitower.formulas.generate import random_formula
from equitower.formulas.parser import ParseError, parse_formula
from equitower.formulas.schemas import _EXPANSIONS, SchemaError, expand_schema, schema_params
from equitower.formulas.verify import _SAMPLERS, sample_instance
from equitower.oracles import ALPHA, BETA, DELTA, GAMMA, PSI, RELATIONS, RelationId

F = Fraction


def pt(x, y):
    return Point(F(x), F(y))


class TestParser:
    def test_atoms(self):
        assert parse_formula("(equi a b c d)") == AtomEqui(Var("a"), Var("b"), Var("c"), Var("d"))
        assert parse_formula("(= a b)") == AtomEq(Var("a"), Var("b"))
        assert parse_formula("(rel M a b c)") == SchemaRef("M", (), (Var("a"), Var("b"), Var("c")))

    def test_first_conjunct_of_the_double_length_definition(self):
        f = parse_formula("(exists (e) (and (equi a e c d) (equi b e c d)))")
        assert f == Exists(
            ("e",),
            And((AtomEqui(Var("a"), Var("e"), Var("c"), Var("d")),
                 AtomEqui(Var("b"), Var("e"), Var("c"), Var("d")))),
        )

    def test_indexed_schema_refs_and_countables(self):
        f = parse_formula("(bigor n 2 (rel DELTA n x y z))")
        assert f == CountableOr("n", 2, SchemaRef("DELTA", ("n",), (Var("x"), Var("y"), Var("z"))))
        g = parse_formula("(bigand k (rel PSI n k a b b c))")
        assert isinstance(g, CountableAnd) and g.start == 1

    def test_point_constants(self):
        f = parse_formula("(= a (pt 1/2 -3))")
        assert f == AtomEq(Var("a"), Const(pt("1/2", -3)))

    def test_comments_and_whitespace(self):
        f = parse_formula("; heading\n(and (= a b) ; tail\n  (= b c))")
        assert isinstance(f, And) and len(f.items) == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("(equi a b c)", "four terms"),
            ("(rel WAT a b)", "unknown relation"),
            ("(rel GAMMA a b)", "GAMMA takes"),
            ("(exists x (= x x))", "variable list"),
            ("(= a b", "unclosed"),
            (") (= a b)", "unbalanced"),
            ("(= a b) extra", "trailing"),
            ("(frob a)", "unknown form"),
            ("", "empty input"),
        ],
    )
    def test_errors_carry_positions(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert fragment in str(err.value)
        assert "line" in str(err.value)

    # whitespace is what str.isspace says (only "\n" ends a line); ";" opens a
    # comment anywhere, even glued to an atom; an error reads (message, line, column)
    @pytest.mark.parametrize(
        "text,want",
        [
            ("(=\ta\tb)\t", "(= a b)"),
            ("(= a b)\r\n", "(= a b)"),
            ("(and\r\n(= a b)\r\n  (nope))", ("unknown form 'nope'", 3, 4)),
            ("(=\x0ba\x0cb)", "(= a b)"),
            ("(= a\x85b\xa0)", "(= a b)"),
            ("\x1c(= a\x1fb)", "(= a b)"),
            ("(=\u3000a b)", "(= a b)"),
            ("(= a\u200bb)", ("(= ...) takes two terms", 1, 1)),
            ("(= a b;c\n)", "(= a b)"),
            ("(= a b) ; no newline", "(= a b)"),
            ("(= a b ; no newline", ("unclosed '('", 1, 1)),
            ("(and\t(= a b)\t(frob a))", ("unknown form 'frob'", 1, 15)),
            ("(and\u2028(= a b)\u2028 (frob a))", ("unknown form 'frob'", 1, 16)),
            ("(= a b)\u2028x", ("trailing input after formula", 1, 9)),
        ],
    )
    def test_tokenizer_edge_cases(self, text, want):
        if isinstance(want, str):
            assert format_formula(parse_formula(text)) == want
            return
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        message, line, column = want
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)

    def test_error_position_is_accurate(self):
        with pytest.raises(ParseError) as err:
            parse_formula("(and (= a b)\n  (rel WAT a b))")
        assert err.value.line == 2
        assert err.value.column == 8

    def test_round_trip_on_generated_formulas(self):
        rng = random.Random(123)
        for _ in range(300):
            f = random_formula(rng, depth=4)
            text = format_formula(f)
            again = parse_formula(text)
            assert again == f
            assert format_formula(again) == text

    def test_free_variable_order(self):
        f = parse_formula("(and (equi q w q w) (exists (z) (= z a)))")
        assert free_point_vars(f) == ["q", "w", "a"]


class TestExpansions:
    def test_phi_zero_matches_the_displayed_form(self):
        f = expand_schema(RelationId("PHI", (0,)), TruncationParams())
        assert f == And(
            (
                AtomEqui(Var("x"), Var("a"), Var("x"), Var("b")),
                SchemaRef("EQUIV2", (), (Var("a"), Var("b"), Var("x"), Var("a"))),
            )
        )

    def test_delta_two_matches_the_displayed_form(self):
        f = expand_schema(DELTA(2), TruncationParams())
        assert f == Exists(
            ("z1",),
            And(
                (
                    AtomEqui(Var("z0"), Var("z1"), Var("z0"), Var("x")),
                    AtomEqui(Var("z1"), Var("zn"), Var("z0"), Var("x")),
                )
            ),
        )

    def test_strict_b_at_depth_one_matches_the_derived_form(self):
        trunc = TruncationParams(b_depth=1, b_mode="strict-paper")
        f = expand_schema(RelationId("B"), trunc)
        assert f == Or(
            (
                AtomEq(Var("a"), Var("b")),
                AtomEq(Var("b"), Var("c")),
                Exists(
                    ("m1",),
                    And(
                        (
                            SchemaRef("M", (), (Var("a"), Var("m1"), Var("c"))),
                            Or(
                                (
                                    SchemaRef("GAMMA", (), (Var("a"), Var("b"), Var("m1"))),
                                    SchemaRef("GAMMA", (), (Var("m1"), Var("b"), Var("c"))),
                                )
                            ),
                        )
                    ),
                ),
            )
        )

    def test_repaired_b_adds_chain_point_disjuncts(self):
        trunc = TruncationParams(b_depth=1, b_mode="repaired")
        text = format_formula(expand_schema(RelationId("B"), trunc))
        assert "(= b m1)" in text

    def test_alpha_chains(self):
        assert expand_schema(ALPHA(1), TruncationParams()) == And(
            (Not(AtomEq(Var("a"), Var("b"))), AtomEq(Var("x"), Var("b")))
        )
        assert expand_schema(ALPHA(2), TruncationParams()) == And(
            (Not(AtomEq(Var("a"), Var("b"))), SchemaRef("M", (), (Var("a"), Var("b"), Var("x"))))
        )
        text = format_formula(expand_schema(ALPHA(4), TruncationParams()))
        assert "(rel M a b x1)" in text and "(rel M b x1 x2)" in text and "(rel M x1 x2 x)" in text

    def test_beta_chains(self):
        assert format_formula(expand_schema(BETA(1), TruncationParams())) == (
            "(and (not (= a b)) (rel M a y b))"
        )
        text = format_formula(expand_schema(BETA(3), TruncationParams()))
        assert "(rel M a y1 b)" in text and "(rel M a y2 y1)" in text and "(rel M a y y2)" in text

    def test_psi_nests_its_three_witnesses(self):
        text = format_formula(expand_schema(PSI(2, 1), TruncationParams()))
        assert "(rel BETA 1 a b v)" in text
        assert "(rel ALPHA 2 a v u)" in text
        assert "(equi c e a u)" in text and "(equi d e a v)" in text

    def test_gamma_pairs_shifted_multipliers(self):
        trunc = TruncationParams(K=2, N=3)
        text = format_formula(expand_schema(GAMMA, trunc))
        assert "(rel PSI 1 1 a b b c)" in text and "(rel PSI 3 1 a b a c)" in text
        assert "(rel PSI 3 2 a b b c)" in text and "(rel PSI 7 2 a b a c)" in text

    def test_neq_spans_chain_lengths(self):
        text = format_formula(expand_schema(RelationId("NEQ"), TruncationParams(chain_max=4)))
        assert text.startswith("(forall (z)")
        assert "(rel DELTA 2 x y z)" in text and "(rel DELTA 4 x y z)" in text
        assert "(rel DELTA 5" not in text

    def test_order_formula(self):
        text = format_formula(expand_schema(RelationId("LE"), TruncationParams()))
        assert text == (
            "(forall (m) (exists (s) (implies (equi c m d m) (and (equi a b c s) (equi c m s m)))))"
        )

    def test_midpoint_tower_depth(self):
        text = format_formula(expand_schema(RelationId("M"), TruncationParams(phi_depth=2)))
        assert "(rel PHI 0 a c b)" in text and "(rel PHI 2 a c b)" in text

    def test_analytic_only_relations_refuse_expansion(self):
        with pytest.raises(SchemaError):
            expand_schema(RelationId("PARALLELOGRAM"), TruncationParams())
        with pytest.raises(SchemaError):
            schema_params(RelationId("PARALLELOGRAM"))

    def test_layer_tables_agree_with_the_relation_table(self):
        recipes = set(re.findall(r'"([A-Z][A-Z0-9]*)"', inspect.getsource(closure_for_relation)))
        assert set(_EXPANSIONS) | set(_SAMPLERS) | recipes <= set(RELATIONS)
        trunc = TruncationParams()
        space = Space(L1, "exact")
        rng = random.Random(5)
        for name, spec in RELATIONS.items():
            rel = RelationId(name, (2,) * spec.n_indices)
            if name in _EXPANSIONS:
                assert set(free_point_vars(expand_schema(rel, trunc))) <= set(spec.params), name
            if name in _SAMPLERS:
                for _ in range(20):
                    assert len(sample_instance(space, rng, rel, trunc)) == rel.arity(), name

    def test_truncation_validation(self):
        with pytest.raises(SchemaError):
            TruncationParams(K=0)
        with pytest.raises(SchemaError):
            TruncationParams(chain_max=1)
        with pytest.raises(SchemaError):
            TruncationParams(b_mode="fancy")
