"""The one-pass parser against the method-per-rule reference parser in
`reference_formulas.py`: the same trees on rendered formulas spaced at
random, the same tree or the same error text on texts one token away from a
formula, and the same verdict at and one past MAX_DEPTH for each nesting
form."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_formulas as ref
from fincat.errors import ParseError
from fincat.formulas import (
    MAX_DEPTH,
    And,
    Atom,
    Box,
    Dia,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    formula_to_text,
    parse_formula,
)

TOO_DEEP = f"error: formula nested deeper than {MAX_DEPTH} levels"

variables = st.integers(1, 12)
atoms = st.one_of(
    st.sampled_from([Atom("p"), Atom("q"), Atom("_r2"), Atom("boxed"), Atom("v1")]),
    st.builds(
        Atom,
        st.sampled_from(["E", "R", "forall_", "v2"]),
        st.lists(variables, min_size=1, max_size=3).map(tuple),
    ),
)
formulas = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(Box, inner),
        st.builds(Dia, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Forall, variables, inner),
        st.builds(Exists, variables, inner),
    ),
    max_leaves=12,
)
SPACES = ["", " ", "  ", "\t", "\n", " \r\n "]


def words(formula) -> list[str]:
    return [word for _, word, _ in ref._tokenize(formula_to_text(formula))]


def outcome(parse, text: str) -> str:
    """The rendered tree, or the error text; strings, because == on a tree
    900 levels deep passes the recursion limit."""
    try:
        return formula_to_text(parse(text))
    except ParseError as err:
        return f"error: {err}"


@given(formulas, st.data())
def test_spaced_renderings_parse_to_the_tree(formula, data):
    tokens = words(formula)
    text = data.draw(st.sampled_from(SPACES))
    for before, after in zip(tokens, tokens[1:]):
        space = data.draw(st.sampled_from(SPACES))
        if not space and (before[-1].isalnum() or before[-1] == "_") and (after[0].isalnum() or after[0] == "_"):
            space = " "
        text += before + space
    text += tokens[-1] + data.draw(st.sampled_from(SPACES))
    assert parse_formula(text) == formula == ref.parse_formula(text)


PIECES = ["$", "-", ">", "->", "v0", "v1", "v07", "x", ".", ",", " ", "\t", "(", ")", "!", "&", "|",
          "box", "dia", "forall", "exists", "p", "E"]


@given(formulas, st.sampled_from(["insert", "delete", "replace"]), st.data())
def test_texts_one_token_off_give_the_same_tree_or_error(formula, edit, data):
    tokens = words(formula)
    at = data.draw(st.integers(0, len(tokens) if edit == "insert" else len(tokens) - 1))
    if edit == "delete":
        del tokens[at]
    else:
        tokens[at : at + (edit == "replace")] = [data.draw(st.sampled_from(PIECES))]
    text = data.draw(st.sampled_from(["", " ", "  "])).join(tokens)
    assert outcome(parse_formula, text) == outcome(ref.parse_formula, text)


# Each nesting form at parser level n, or with n operators above its deepest
# atom: quantifiers go down four levels and parentheses five, so prefixes make
# up the remainder, and a chain with an operator at its left end counts it.
NESTINGS = {
    "!": lambda n: "!" * n + "p",
    "box": lambda n: "box " * n + "p",
    "dia": lambda n: "dia " * n + "p",
    "->": lambda n: " -> ".join(["p"] * (n + 1)),
    "forall": lambda n: "forall v1. " * (n // 4) + "!" * (n % 4) + "E(v1)",
    "exists": lambda n: "exists v2. " * (n // 4) + "!" * (n % 4) + "p",
    "()": lambda n: "(" * (n // 5) + "!" * (n % 5) + "p" + ")" * (n // 5),
    "&": lambda n: " & ".join(["p"] * (n + 1)),
    "|": lambda n: "|".join(["q"] * (n + 1)),
    "! under &": lambda n: "!" + " & ".join(["p"] * n),
    "forall under &": lambda n: "(forall v1. p)" + " & p" * (n - 1),
    "-> under |": lambda n: "(p -> q)" + " | p" * (n - 1),
}


@pytest.mark.parametrize("form", NESTINGS)
@pytest.mark.parametrize("n", [MAX_DEPTH, MAX_DEPTH + 1])
def test_nesting_at_and_past_the_limit(form, n):
    text = NESTINGS[form](n)
    got = outcome(parse_formula, text)
    assert got == outcome(ref.parse_formula, text)
    assert (got == TOO_DEEP) == (n > MAX_DEPTH)


@pytest.mark.parametrize(
    "text, message",
    [
        ("!" * (MAX_DEPTH + 1) + "p )", TOO_DEEP),
        ("(" * (MAX_DEPTH // 5 + 1) + "p", TOO_DEEP),
        (" & ".join(["p"] * (MAX_DEPTH + 2)) + " )", f"error: trailing input ')' at position {4 * MAX_DEPTH + 6}"),
    ],
    ids=["depth-then-syntax", "depth-then-end", "syntax-then-depth"],
)
def test_the_first_error_wins(text, message):
    assert outcome(parse_formula, text) == outcome(ref.parse_formula, text) == message
