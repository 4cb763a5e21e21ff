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
#: quantifier body and five for a parenthesised group, never fewer than the
#: Python frames each takes; and no atom may sit under more than this many
#: operators, as the evaluators recurse once per operator.  Both then stay
#: well inside Python's default recursion limit.
MAX_DEPTH = 900
_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH} levels"

#: One token per match: an arrow, a punctuation mark, a name, or (group 4)
#: a character no token starts with.
_TOKEN = re.compile(r"\s*(?:(->)|([()!&|,.])|([A-Za-z_][A-Za-z_0-9]*)|(\S))")
_VARIABLE = re.compile(r"v([0-9]+)")


class _Descent:
    """Recursive descent over token lists read by index; ``kinds`` ends in
    None.  Each rule takes its nesting level and returns (node, tree depth)."""

    def __init__(self, kinds: list[str | None], words: list[str], starts: list[int]):
        self.kinds, self.words, self.starts, self.i = kinds, words, starts, 0

    def expected(self, kind: str) -> ParseError:
        i = self.i
        if self.kinds[i] is None:
            return ParseError("unexpected end of formula")
        return ParseError(f"expected {kind!r} but found {self.words[i]!r} at position {self.starts[i]}")

    def implies(self, level: int) -> tuple[Formula, int]:
        left, depth = self.disjunction(level)
        if self.kinds[self.i] != "->":
            return left, depth
        self.i += 1
        if level + 1 > MAX_DEPTH:
            raise ParseError(_TOO_DEEP)
        right, right_depth = self.implies(level + 1)
        return Implies(left, right), (depth if depth > right_depth else right_depth) + 1

    def disjunction(self, level: int) -> tuple[Formula, int]:
        left, depth = self.conjunction(level)
        while self.kinds[self.i] == "|":
            self.i += 1
            right, right_depth = self.conjunction(level)
            left, depth = Or(left, right), (depth if depth > right_depth else right_depth) + 1
        return left, depth

    def conjunction(self, level: int) -> tuple[Formula, int]:
        left, depth = self.unary(level)
        while self.kinds[self.i] == "&":
            self.i += 1
            right, right_depth = self.unary(level)
            left, depth = And(left, right), (depth if depth > right_depth else right_depth) + 1
        return left, depth

    def unary(self, level: int) -> tuple[Formula, int]:
        i = self.i
        kind = self.kinds[i]
        if kind in _PREFIXES:
            self.i = i + 1
            if level + 1 > MAX_DEPTH:
                raise ParseError(_TOO_DEEP)
            body, depth = self.unary(level + 1)
            return _PREFIXES[kind](body), depth + 1
        if kind == "forall" or kind == "exists":
            self.i = i + 1
            var = self.variable()
            if self.kinds[self.i] != ".":
                raise self.expected(".")
            self.i += 1
            if level + 4 > MAX_DEPTH:
                raise ParseError(_TOO_DEEP)
            body, depth = self.implies(level + 4)
            return (Forall if kind == "forall" else Exists)(var, body), depth + 1
        if kind == "(":
            self.i = i + 1
            if level + 5 > MAX_DEPTH:
                raise ParseError(_TOO_DEEP)
            inner, depth = self.implies(level + 5)
            if self.kinds[self.i] != ")":
                raise self.expected(")")
            self.i += 1
            return inner, depth
        if kind != "name":
            raise self.expected("name")
        if self.kinds[i + 1] != "(":
            self.i = i + 1
            return Atom(self.words[i]), 1
        self.i = i + 2
        args = [self.variable()]
        while self.kinds[self.i] == ",":
            self.i += 1
            args.append(self.variable())
        if self.kinds[self.i] != ")":
            raise self.expected(")")
        self.i += 1
        return Atom(self.words[i], tuple(args)), 1

    def variable(self) -> int:
        i = self.i
        if self.kinds[i] != "name":
            raise self.expected("name")
        word = self.words[i]
        match = _VARIABLE.fullmatch(word)
        if match is None:
            raise ParseError(f"expected a variable like v1 but found {word!r} at position {self.starts[i]}")
        index = int(match[1])
        if not index:
            raise ParseError("variables are numbered from v1")
        self.i = i + 1
        return index


def parse_formula(text: str) -> Formula:
    """Parse the documented syntax into a formula tree: one scan for the
    tokens, then one descent.  A formula nested deeper than
    :data:`MAX_DEPTH` raises ParseError."""
    kinds, words, starts = [], [], []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {match[4]!r} at position {match.start(4)}")
        word = match[group]
        kinds.append("name" if group == 3 and word not in _KEYWORDS else word)
        words.append(word)
        starts.append(match.start(group))
    end = len(kinds)
    kinds.append(None)
    descent = _Descent(kinds, words, starts)
    formula, depth = descent.implies(0)
    if descent.i != end:
        raise ParseError(f"trailing input {words[descent.i]!r} at position {starts[descent.i]}")
    if depth - 1 > MAX_DEPTH:
        raise ParseError(_TOO_DEEP)
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
