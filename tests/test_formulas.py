import pytest

from fincat.errors import ParseError
from fincat.formulas import (
    And,
    Atom,
    Box,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    formula_to_text,
    parse_formula,
)

from reference_formulas import formula_depth


class TestParsing:
    def test_precedence_of_and_over_or(self):
        assert parse_formula("p | q & r") == Or(Atom("p"), And(Atom("q"), Atom("r")))

    def test_implication_is_right_associative_and_loosest(self):
        assert parse_formula("p -> q -> r") == Implies(
            Atom("p"), Implies(Atom("q"), Atom("r"))
        )
        assert parse_formula("p & q -> r") == Implies(
            And(Atom("p"), Atom("q")), Atom("r")
        )

    def test_unary_prefixes_bind_tightly(self):
        assert parse_formula("!p & box q") == And(Not(Atom("p")), Box(Atom("q")))

    def test_quantifier_extends_to_the_right(self):
        parsed = parse_formula("forall v1. E(v1,v1) -> E(v1,v1)")
        assert isinstance(parsed, Forall)
        assert isinstance(parsed.body, Implies)

    def test_parenthesized_quantifier_body(self):
        parsed = parse_formula("(exists v1. E(v1,v1)) -> p")
        assert isinstance(parsed, Implies)
        assert isinstance(parsed.left, Exists)

    def test_atom_arguments(self):
        assert parse_formula("E(v1,v2)") == Atom("E", (1, 2))

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p & & q")
        assert "position" in str(err.value)

    @pytest.mark.parametrize("text, position", [("p $", 2), ("p & $q", 4), ("  $", 2), ("$", 0)])
    def test_an_unknown_character_is_named_at_its_own_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert str(err.value) == f"unexpected character '$' at position {position}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p q", "trailing input 'q' at position 2"),
            ("p &   & q", "expected 'name' but found '&' at position 6"),
            ("forall   x. p", "expected a variable like v1 but found 'x' at position 9"),
            ("E(v1  v2)", "expected ')' but found 'v2' at position 6"),
            ("exists v1  p", "expected '.' but found 'p' at position 11"),
            ("forall v0. p", "variables are numbered from v1"),
            ("box (p |", "unexpected end of formula"),
        ],
    )
    def test_errors_name_the_token_at_its_own_position(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert str(err.value) == message

    def test_trailing_whitespace_is_not_an_error(self):
        assert parse_formula("p & q \t\n") == And(Atom("p"), Atom("q"))

    def test_rejects_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_rejects_bad_variables(self):
        with pytest.raises(ParseError):
            parse_formula("forall x. p")
        with pytest.raises(ParseError):
            parse_formula("E(v0)")


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "!p",
            "p & q | r",
            "box p -> dia q",
            "forall v1. exists v2. E(v1,v2)",
            "E(v1,v2) -> E(v2,v1)",
            "box !dia (p & !q)",
        ],
    )
    def test_round_trip(self, text):
        parsed = parse_formula(text)
        assert parse_formula(formula_to_text(parsed)) == parsed

    def test_renders_the_deepest_prefix_chain(self):
        # Strings, not trees: == on a 900-deep tree passes the recursion limit.
        assert formula_to_text(parse_formula("!" * 900 + "p")) == "!" * 900 + "p"


class TestMeasures:
    def test_depth(self):
        assert formula_depth(parse_formula("p")) == 1
        assert formula_depth(parse_formula("!p & q")) == 3
