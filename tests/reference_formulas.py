"""Reference formula parser: a tokenizer, a method-per-rule descent and a
separate depth walk.

This is the parser `fincat.formulas` used before parsing became one scan and
one index-reading pass that returns each node's depth with the node.  It
reads the same grammar, builds the same trees and raises the same errors,
with each position at the offending token's first character.  It is slow but
transparently correct, and the property tests compare the two.  It is not
part of the package.
"""

from __future__ import annotations

import re

from fincat.errors import ParseError
from fincat.formulas import (
    MAX_DEPTH,
    And,
    Atom,
    Box,
    Dia,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
)

_KEYWORDS = {"box", "dia", "forall", "exists"}
_PREFIXES = {"!": Not, "box": Box, "dia": Dia}

_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<punct>[()!&|,.])|(?P<name>[A-Za-z_][A-Za-z_0-9]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            pos = len(text) - len(rest)
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        start = match.start(match.lastgroup)
        if match.lastgroup == "arrow":
            tokens.append(("->", "->", start))
        elif match.lastgroup == "punct":
            tok = match.group("punct")
            tokens.append((tok, tok, start))
        else:
            name = match.group("name")
            kind = name if name in _KEYWORDS else "name"
            tokens.append((kind, name, start))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of formula")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok[1]!r} at position {tok[2]}"
            )
        return tok

    def nest(self, levels: int) -> None:
        """Go ``levels`` parser levels down, or raise beyond MAX_DEPTH."""
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels")

    def parse(self) -> Formula:
        formula = self.implies()
        if self.pos != len(self.tokens):
            tok = self.tokens[self.pos]
            raise ParseError(f"trailing input {tok[1]!r} at position {tok[2]}")
        return formula

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            self.nest(1)
            right = self.implies()
            self.depth -= 1
            return Implies(left, right)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek() == "|":
            self.next()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind = self.peek()
        if kind in _PREFIXES:
            self.next()
            self.nest(1)
            body = self.unary()
            self.depth -= 1
            return _PREFIXES[kind](body)
        if kind in ("forall", "exists"):
            _, word, _ = self.next()
            var = self.variable()
            self.expect(".")
            self.nest(4)
            body = self.implies()
            self.depth -= 4
            return Forall(var, body) if word == "forall" else Exists(var, body)
        return self.primary()

    def variable(self) -> int:
        tok = self.expect("name")
        match = re.fullmatch(r"v([0-9]+)", tok[1])
        if match is None:
            raise ParseError(
                f"expected a variable like v1 but found {tok[1]!r} at position {tok[2]}"
            )
        index = int(match.group(1))
        if index == 0:
            raise ParseError("variables are numbered from v1")
        return index

    def primary(self) -> Formula:
        kind = self.peek()
        if kind == "(":
            self.next()
            self.nest(5)
            inner = self.implies()
            self.depth -= 5
            self.expect(")")
            return inner
        tok = self.expect("name")
        if self.peek() == "(":
            self.next()
            args = [self.variable()]
            while self.peek() == ",":
                self.next()
                args.append(self.variable())
            self.expect(")")
            return Atom(tok[1], tuple(args))
        return Atom(tok[1])


def parse_formula(text: str) -> Formula:
    """Parse, then walk the tree once more for its depth."""
    formula = _Parser(text).parse()
    if formula_depth(formula) - 1 > MAX_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels")
    return formula


def formula_depth(formula: Formula) -> int:
    """Tree depth with atoms at depth 1, found without recursion."""
    deepest, stack = 0, [(formula, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, (Not, Box, Dia, Forall, Exists)):
            stack.append((node.body, depth + 1))
        elif not isinstance(node, Atom):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest
