"""Propositional completion filters.

Grammar::

    expr := term ("or" term)*
    term := atom ("and" atom)*
    atom := ident ":" ("T" | "F") | "(" expr ")"

``and`` binds tighter than ``or``.  Keywords and the T/F literals are case
insensitive.  An identifier names a fact on the end container (by ID or name)
or a common property that resolves to exactly one fact there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional, Union

from .model import Network


class FilterError(Exception):
    pass


class FilterSyntaxError(FilterError):
    pass


class FilterBindError(FilterError):
    pass


@dataclass(frozen=True)
class Atom:
    ident: str
    required: bool
    fact_id: Optional[int] = None


@dataclass(frozen=True)
class And:
    left: "FilterExpr"
    right: "FilterExpr"


@dataclass(frozen=True)
class Or:
    left: "FilterExpr"
    right: "FilterExpr"


FilterExpr = Union[Atom, And, Or]

_TOKEN = re.compile(r"\s*(\(|\)|:|[A-Za-z_][A-Za-z0-9_]*|[0-9]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FilterSyntaxError(f"unexpected character at position {pos}")
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg):
        at = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
        raise FilterSyntaxError(f"{msg} at position {at}")

    def expr(self) -> FilterExpr:
        node = self.term()
        while self.peek() is not None and self.peek().lower() == "or":
            self.take()
            node = Or(node, self.term())
        return node

    def term(self) -> FilterExpr:
        node = self.atom()
        while self.peek() is not None and self.peek().lower() == "and":
            self.take()
            node = And(node, self.atom())
        return node

    def atom(self) -> FilterExpr:
        tok = self.peek()
        if tok is None:
            self.fail("expected an atom")
        if tok == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.take()
            return node
        if tok.lower() in ("and", "or") or tok in (")", ":"):
            self.fail(f"unexpected {tok!r}")
        ident, _ = self.take()
        if self.peek() != ":":
            self.fail("expected ':'")
        self.take()
        val = self.peek()
        if val is None or val.upper() not in ("T", "F"):
            self.fail("expected T or F")
        self.take()
        return Atom(ident=ident, required=(val.upper() == "T"))


def parse_filter(text: str) -> FilterExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise FilterSyntaxError("empty filter")
    p = _Parser(tokens, text)
    node = p.expr()
    if p.i != len(tokens):
        p.fail("trailing input")
    return node


def format_filter(expr: FilterExpr) -> str:
    """Print an expression; ``parse_filter(format_filter(e))`` rebuilds ``e``
    up to binding."""
    def go(e, parent, rhs):
        if isinstance(e, Atom):
            return f"{e.ident}:{'T' if e.required else 'F'}"
        op = "and" if isinstance(e, And) else "or"
        s = f"{go(e.left, op, False)} {op} {go(e.right, op, True)}"
        # Parenthesize under higher precedence, and on the right of the same
        # operator: parsing is left-associative, so a bare right nest would
        # come back reshaped.
        if (parent == "and" and isinstance(e, Or)) or (parent == op and rhs):
            return f"({s})"
        return s

    return go(expr, None, False)


def bind_filter(expr: FilterExpr, net: Network, end_container: int) -> FilterExpr:
    """Resolve every atom identifier against the end container.

    Resolution tries, in order: a fact of the end container matched by name,
    a fact of the end container matched by numeric ID, then a common property
    (by name or numeric ID) carried by exactly one of the container's facts.
    """
    container = net.containers_by_id.get(end_container)
    if container is None:
        raise FilterBindError(f"unknown end container {end_container}")
    key = ("container", container.id)

    def resolve(ident: str) -> int:
        for f in container.facts:
            if f.name == ident:
                return f.id
        if ident.isdigit():
            fid = int(ident)
            if fid in net.base_values[key]:
                return fid
        prop = None
        for p in net.common_properties:
            if p.name == ident or (ident.isdigit() and p.id == int(ident)):
                prop = p.id
                break
        if prop is not None:
            fid = net.prop_fact[key].get(prop)
            if fid is not None:
                return fid
        raise FilterBindError(
            f"cannot resolve {ident!r} on container {container.name or container.id}"
        )

    def go(e):
        if isinstance(e, Atom):
            return replace(e, fact_id=resolve(e.ident))
        if isinstance(e, And):
            return And(go(e.left), go(e.right))
        return Or(go(e.left), go(e.right))

    return go(expr)


def filter_atoms(expr: Optional[FilterExpr]) -> Iterator[Atom]:
    """Every atom of ``expr``, left to right; none for no filter."""
    if isinstance(expr, Atom):
        yield expr
    elif expr is not None:
        yield from filter_atoms(expr.left)
        yield from filter_atoms(expr.right)


def evaluate_filter(expr: FilterExpr, fact_values: Mapping[int, bool]) -> bool:
    """Evaluate a bound expression against the end container's fact values."""
    if isinstance(expr, Atom):
        if expr.fact_id is None:
            raise FilterError(f"atom {expr.ident!r} was not bound")
        return fact_values.get(expr.fact_id) == expr.required
    if isinstance(expr, And):
        return evaluate_filter(expr.left, fact_values) and evaluate_filter(expr.right, fact_values)
    return evaluate_filter(expr.left, fact_values) or evaluate_filter(expr.right, fact_values)
