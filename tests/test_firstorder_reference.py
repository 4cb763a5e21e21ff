"""The mask evaluator of `fincat.firstorder` against the set-valued one kept in
`reference_orders`, on random structures over at most four elements with a
nullary, a unary and a binary relation, contexts 0-2, formulas of depth at most four
and budgets from 1 to 100,000.  The formulas include stray variables, wrong
binders, unknown relations, arity mismatches and modal operators, so the
two must also raise the same errors in the same order."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_orders as ref
from fincat.builders import NamedFiniteSet
from fincat.firstorder import (
    AssignmentSet,
    FORelation,
    FOStructure,
    all_assignments,
    projection_adjoints,
    tarski_denotation,
    verify_generalization_rule,
)
from fincat.formulas import And, Atom, Box, Dia, Exists, Forall, Implies, Not, Or, parse_formula

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
BUDGETS = st.sampled_from([1, 5, 20, 100_000, 100_000, 100_000])
CONTEXTS = st.integers(0, 2)
ARITIES = {"P": 0, "U": 1, "E": 2}
KINDS = ["atom", "not", "and", "or", "implies", "forall", "exists"]


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the two sides must fail alike
        return type(exc), str(exc)


@st.composite
def subsets(draw, carrier, context):
    tuples = all_assignments(carrier, context)
    keep = draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
    return AssignmentSet(context, frozenset(t for t, k in zip(tuples, keep) if k))


@st.composite
def structures(draw):
    carrier = NamedFiniteSet("A", tuple(f"a{i}" for i in range(draw(st.integers(0, 4)))))
    relations = {
        name: FORelation(arity, draw(subsets(carrier, arity)).tuples)
        for name, arity in ARITIES.items()
    }
    return FOStructure(carrier, relations)


@st.composite
def formulas(draw, context, depth=4):
    """A formula that fits the context, except that about one node in ten
    makes a mistake: a stray variable, an unknown relation or a wrong arity
    at an atom, a wrong binder at a quantifier, a modal operator for `!`."""
    slip = draw(st.sampled_from([False] * 9 + [True]))
    kind = "atom" if depth == 1 else draw(st.sampled_from(KINDS))
    if kind == "atom":
        name = draw(st.sampled_from([n for n, k in ARITIES.items() if context or not k]))
        args = tuple(draw(st.integers(1, context)) for _ in range(ARITIES[name]))
        if not slip:
            return Atom(name, args)
        return draw(st.sampled_from(
            [Atom("U", (context + 1,)), Atom("F", args), Atom(name, args + (1,))]
        ))
    if kind in ("forall", "exists"):
        wrong = [v for v in range(1, context + 3) if v != context + 1]
        var = draw(st.sampled_from(wrong)) if slip else context + 1
        body = draw(formulas(context + 1, depth - 1))
        return (Forall if kind == "forall" else Exists)(var, body)
    if kind == "not":
        op = draw(st.sampled_from([Box, Dia])) if slip else Not
        return op(draw(formulas(context, depth - 1)))
    op = {"and": And, "or": Or, "implies": Implies}[kind]
    return op(draw(formulas(context, depth - 1)), draw(formulas(context, depth - 1)))


@st.composite
def evaluations(draw):
    context = draw(CONTEXTS)
    return draw(structures()), draw(formulas(context)), context, draw(BUDGETS)


def _case(formula, elements=(), context=0, budget=20):
    relations = {name: FORelation(arity, frozenset()) for name, arity in ARITIES.items()}
    m = FOStructure(NamedFiniteSet("A", elements), relations)
    return m, parse_formula(formula), context, budget


@SETTINGS
@given(evaluations())
# on an empty carrier every block of the projection is empty: exists gives
# the empty set, forall all of A^0
@example(_case("exists v1. U(v1)"))
@example(_case("forall v1. U(v1)"))
@example(_case("forall v1. exists v2. U(v2)"))
# the budget is checked before the variables of an atom
@example(_case("E(v1,v3)", ("a", "b"), context=2, budget=1))
def test_denotation_matches_the_reference(case):
    m, formula, context, budget = case
    assert outcome(tarski_denotation, m, formula, context, budget) == outcome(
        ref.tarski_denotation, m, formula, context, budget
    )


def _images(adjoints, carrier, context, budget, s):
    exists_op, forall_op = adjoints(carrier, context, budget)
    return outcome(exists_op, s), outcome(forall_op, s)


@SETTINGS
@given(st.data(), structures(), CONTEXTS, BUDGETS, st.integers(0, 2))
def test_projection_adjoints_match_the_reference(data, m, context, budget, shift):
    # a set one context off (shift 0 or 2) is a context mismatch
    s = data.draw(subsets(m.carrier, context + shift))
    assert outcome(_images, projection_adjoints, m.carrier, context, budget, s) == outcome(
        _images, ref.projection_adjoints, m.carrier, context, budget, s
    )


@SETTINGS
@given(st.data(), evaluations())
def test_generalization_rule_matches_the_reference(data, case):
    m, formula, context, budget = case
    gamma = data.draw(subsets(m.carrier, context))
    assert outcome(verify_generalization_rule, gamma, formula, m, budget) == outcome(
        ref.verify_generalization_rule, gamma, formula, m, budget
    )
