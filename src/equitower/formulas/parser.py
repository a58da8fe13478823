"""Hand-rolled s-expression parser for the formula DSL.

Grammar::

    formula := (equi t t t t) | (= t t) | (and f...) | (or f...)
             | (not f) | (implies f g)
             | (exists (x...) f) | (forall (x...) f)
             | (bigand k [start] f) | (bigor n [start] f)
             | (rel NAME idx... t...)
    t       := symbol | (pt X Y)        -- X, Y integers, 'p/q', or decimals
    idx     := integer | symbol          -- symbols name bigand/bigor indices

Errors carry 1-based line and column of the offending token.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import fields
from fractions import Fraction

from ..geometry import Point
from ..oracles import RELATIONS
from .ast import (
    FORMS,
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

RESERVED = {*FORMS, "pt"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_Token = namedtuple("_Token", "text line column")
_Node = namedtuple("_Node", "atom items line column")  # an atom token, or a parenthesized list of nodes
_TOKEN_RE = re.compile(r"[()]|[^\s();]+")


def _tokenize(text: str) -> list[_Token]:
    """The tokens of each line up to its first ';'; only a newline ends a line."""
    return [
        _Token(m.group(), line, m.start() + 1)
        for line, row in enumerate(text.split("\n"), 1)
        for m in _TOKEN_RE.finditer(row.partition(";")[0])
    ]


def _read(tokens: list[_Token], pos: int) -> tuple[_Node, int]:
    if pos >= len(tokens):
        raise ParseError("unexpected end of input", 0, 0)
    tok = tokens[pos]
    if tok.text == "(":
        items: list[_Node] = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unclosed '('", tok.line, tok.column)
            if tokens[pos].text == ")":
                return _Node(None, items, tok.line, tok.column), pos + 1
            node, pos = _read(tokens, pos)
            items.append(node)
    if tok.text == ")":
        raise ParseError("unbalanced ')'", tok.line, tok.column)
    return _Node(tok, None, tok.line, tok.column), pos + 1


def _want_symbol(node: _Node, what: str) -> str:
    if node.atom is None:
        raise ParseError(f"expected {what}, found a list", node.line, node.column)
    text = node.atom.text
    if text in RESERVED or _is_int(text):
        raise ParseError(f"expected {what}, found {text!r}", node.line, node.column)
    return text


def _is_int(text: str) -> bool:
    body = text[1:] if text[:1] in "+-" else text
    return body.isdigit()


def _parse_coordinate(node: _Node) -> object:
    if node.atom is None:
        raise ParseError("expected a coordinate", node.line, node.column)
    text = node.atom.text
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad coordinate {text!r}", node.line, node.column) from None


def _parse_term(node: _Node) -> Term:
    if node.atom is not None:
        return Var(_want_symbol(node, "a variable"))
    items = node.items or []
    if not items or items[0].atom is None or items[0].atom.text != "pt":
        raise ParseError("expected a variable or (pt X Y)", node.line, node.column)
    if len(items) != 3:
        raise ParseError("(pt X Y) takes two coordinates", node.line, node.column)
    return Const(Point(_parse_coordinate(items[1]), _parse_coordinate(items[2])))


def _parse_var_list(node: _Node) -> tuple[str, ...]:
    if node.items is None:
        raise ParseError("expected a variable list (x ...)", node.line, node.column)
    if not node.items:
        raise ParseError("quantifier needs at least one variable", node.line, node.column)
    return tuple(_want_symbol(item, "a variable") for item in node.items)


def _parse_formula(node: _Node) -> Formula:
    if node.atom is not None:
        raise ParseError(f"expected a formula, found {node.atom.text!r}", node.line, node.column)
    items = node.items or []
    if not items:
        raise ParseError("empty form", node.line, node.column)
    head_node = items[0]
    if head_node.atom is None:
        raise ParseError("form head must be a symbol", head_node.line, head_node.column)
    head = head_node.atom.text
    rest = items[1:]

    cls = FORMS.get(head)
    if cls in _FIXED_ARITY:
        parse_arg, words = _FIXED_ARITY[cls]
        if len(rest) != len(fields(cls)):
            raise ParseError(f"({head} ...) takes {words}", node.line, node.column)
        return cls(*map(parse_arg, rest))
    if cls in (And, Or):
        return cls(tuple(_parse_formula(r) for r in rest))
    if cls in (Exists, ForAll):
        if len(rest) != 2:
            raise ParseError(f"({head} ...) takes a variable list and a body", node.line, node.column)
        return cls(_parse_var_list(rest[0]), _parse_formula(rest[1]))
    if cls in (CountableAnd, CountableOr):
        if len(rest) not in (2, 3):
            raise ParseError(f"({head} var [start] body)", node.line, node.column)
        var = _want_symbol(rest[0], "an index variable")
        if len(rest) == 3 and (rest[1].atom is None or not _is_int(rest[1].atom.text)):
            raise ParseError("start bound must be an integer", rest[1].line, rest[1].column)
        return cls(var, int(rest[1].atom.text) if len(rest) == 3 else 1, _parse_formula(rest[-1]))
    if cls is SchemaRef:
        if not rest:
            raise ParseError("(rel NAME ...) needs a relation name", node.line, node.column)
        name_node = rest[0]
        if name_node.atom is None:
            raise ParseError("relation name must be a symbol", name_node.line, name_node.column)
        name = name_node.atom.text.upper()
        spec = RELATIONS.get(name)
        if spec is None:
            raise ParseError(f"unknown relation {name!r}", name_node.line, name_node.column)
        n_idx, arity = spec.n_indices, len(spec.params)
        args = rest[1:]
        if len(args) != n_idx + arity:
            raise ParseError(f"{name} takes {n_idx} index argument(s) and {arity} term(s)", node.line, node.column)
        index_args: list[int | str] = []
        for arg in args[:n_idx]:
            if arg.atom is not None and _is_int(arg.atom.text):
                index_args.append(int(arg.atom.text))
            elif arg.atom is not None and arg.atom.text not in RESERVED:
                index_args.append(arg.atom.text)
            else:
                raise ParseError("index argument must be an integer or index variable", arg.line, arg.column)
        terms = tuple(_parse_term(arg) for arg in args[n_idx:])
        return SchemaRef(name, tuple(index_args), terms)
    raise ParseError(f"unknown form {head!r}", head_node.line, head_node.column)


# the forms with a fixed number of arguments: class -> (argument parser, that number in words)
_FIXED_ARITY = {
    AtomEqui: (_parse_term, "four terms"),
    AtomEq: (_parse_term, "two terms"),
    Not: (_parse_formula, "one formula"),
    Implies: (_parse_formula, "two formulas"),
}


def parse_formula(text: str) -> Formula:
    """Parse DSL text into a Formula; raises :class:`ParseError` with position."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        trailing = tokens[pos]
        raise ParseError("trailing input after formula", trailing.line, trailing.column)
    return _parse_formula(node)
