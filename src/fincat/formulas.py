"""Formula trees and a text syntax shared by the modal and first-order
evaluators.

Grammar (binding loosest to tightest): quantifiers and implication, then
`|`, then `&`, then the prefixes `!`, `box`, `dia`.  Atoms are bare names
for propositional use, or `R(v1,v2)` with numbered variables for
first-order use.  Quantifiers are written `forall vK. ...` / `exists vK. ...`
and extend as far right as possible.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import ParseError, record


@record
class Atom:
    """`p` (propositional, no args) or `R(v1,...,vk)` (first-order)."""

    name: str
    args: tuple[int, ...] = ()


@record
class Not:
    """`!body`: negation."""
    body: "Formula"


@record
class And:
    """`left & right`: conjunction."""
    left: "Formula"
    right: "Formula"


@record
class Or:
    """`left | right`: disjunction."""
    left: "Formula"
    right: "Formula"


@record
class Implies:
    """`left -> right`: implication."""
    left: "Formula"
    right: "Formula"


@record
class Box:
    """`box body`: true where every accessible world satisfies the body."""
    body: "Formula"


@record
class Dia:
    """`dia body`: true where some accessible world satisfies the body."""
    body: "Formula"


@record
class Forall:
    """`forall vK. body`: universal quantification over variable ``var``."""
    var: int
    body: "Formula"


@record
class Exists:
    """`exists vK. body`: existential quantification over variable ``var``."""
    var: int
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Box, Dia, Forall, Exists]

_KEYWORDS = {"box", "dia", "forall", "exists"}
_PREFIXES = {"!": Not, "box": Box, "dia": Dia}

#: The deepest formula :func:`parse_formula` accepts.  The parser goes one
#: level down for a prefix operator or the right side of ``->``, four for a
#: quantifier body (implication, disjunction, conjunction and the prefixes
#: each take a call) and five for a parenthesised group; and no atom may sit
#: under more than this many operators, as the evaluators recurse once per
#: operator.  Both then stay well inside Python's default recursion limit.
MAX_DEPTH = 900

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
        if match.lastgroup == "arrow":
            tokens.append(("->", "->", match.start()))
        elif match.lastgroup == "punct":
            tok = match.group("punct")
            tokens.append((tok, tok, match.start()))
        else:
            name = match.group("name")
            kind = name if name in _KEYWORDS else "name"
            tokens.append((kind, name, match.start()))
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
    """Parse the documented syntax into a formula tree; a formula nested
    deeper than :data:`MAX_DEPTH` raises ParseError."""
    formula = _Parser(text).parse()
    if formula_depth(formula) - 1 > MAX_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels")
    return formula


_SYMBOLS = {Not: "!", Box: "box ", Dia: "dia ", And: " & ", Or: " | ", Implies: " -> "}


def formula_to_text(formula: Formula) -> str:
    """Render a tree in the same syntax: an operand other than an atom is
    parenthesized, except a prefix under a prefix.  One call per level, so
    every tree :func:`parse_formula` returns renders."""
    if isinstance(formula, Atom):
        if formula.args:
            return f"{formula.name}({','.join(f'v{i}' for i in formula.args)})"
        return formula.name
    if isinstance(formula, (Forall, Exists)):
        word = "forall" if isinstance(formula, Forall) else "exists"
        return f"{word} v{formula.var}. {formula_to_text(formula.body)}"
    if isinstance(formula, (Not, Box, Dia)):
        body = formula_to_text(formula.body)
        if not isinstance(formula.body, (Atom, Not, Box, Dia)):
            body = f"({body})"
        return _SYMBOLS[type(formula)] + body
    if isinstance(formula, (And, Or, Implies)):
        left, right = formula_to_text(formula.left), formula_to_text(formula.right)
        if not isinstance(formula.left, Atom):
            left = f"({left})"
        if not isinstance(formula.right, Atom):
            right = f"({right})"
        return left + _SYMBOLS[type(formula)] + right
    raise TypeError(f"not a formula: {formula!r}")


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
