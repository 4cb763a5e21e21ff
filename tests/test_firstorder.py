import itertools

import pytest

from fincat.builders import NamedFiniteSet
from fincat.errors import ContextMismatch, ContextOverflow, UnknownAtom
from fincat.firstorder import (
    AssignmentSet,
    FORelation,
    FOStructure,
    all_assignments,
    projection_adjoints,
    satisfies,
    tarski_denotation,
    verify_generalization_rule,
)
from fincat.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    parse_formula,
)
from fincat.logic import (
    SubsetOf,
    check_quantifier_adjunctions,
    direct_image,
    universal_image,
)
from reference_orders import projection_function

AB = NamedFiniteSet("A", ("a", "b"))


def edge_structure():
    return FOStructure(AB, {"E": FORelation(2, frozenset({("a", "b")}))})


def reflexive_structure():
    return FOStructure(
        AB, {"E": FORelation(2, frozenset({("a", "a"), ("b", "b"), ("a", "b")}))}
    )


def unary_structure():
    return FOStructure(AB, {"R": FORelation(1, frozenset({("a",)}))})


class TestDenotation:
    def test_atomic_lookup(self):
        result = tarski_denotation(unary_structure(), parse_formula("R(v1)"), 1)
        assert result.tuples == {("a",)}

    def test_exists_selects_sources(self):
        result = tarski_denotation(
            edge_structure(), parse_formula("exists v2. E(v1,v2)"), 1
        )
        assert result.tuples == {("a",)}

    def test_forall_requires_all_extensions(self):
        result = tarski_denotation(
            edge_structure(), parse_formula("forall v2. E(v1,v2)"), 1
        )
        assert result.tuples == frozenset()

    def test_connectives_match_pointwise_satisfaction(self):
        m = edge_structure()
        formula = parse_formula("E(v1,v2) -> !E(v2,v1) & (E(v1,v1) | E(v1,v2))")
        denotation = tarski_denotation(m, formula, 2)
        for s in all_assignments(AB, 2):
            assert (s in denotation.tuples) == satisfies(m, formula, s)

    def test_context_overflow_on_stray_variable(self):
        with pytest.raises(ContextOverflow):
            tarski_denotation(edge_structure(), parse_formula("E(v1,v3)"), 2)

    def test_quantifier_must_bind_the_next_variable(self):
        with pytest.raises(ContextOverflow):
            tarski_denotation(edge_structure(), parse_formula("exists v3. E(v1,v3)"), 1)

    def test_unknown_relation(self):
        with pytest.raises(UnknownAtom):
            tarski_denotation(edge_structure(), parse_formula("F(v1)"), 1)

    def test_arity_mismatch(self):
        with pytest.raises(UnknownAtom):
            tarski_denotation(edge_structure(), parse_formula("E(v1)"), 1)


class TestProjectionAdjoints:
    def test_full_set_projects_fully_both_ways(self):
        exists_op, forall_op = projection_adjoints(AB, 1)
        full = AssignmentSet(2, frozenset(all_assignments(AB, 2)))
        assert exists_op(full).tuples == frozenset(all_assignments(AB, 1))
        assert forall_op(full).tuples == frozenset(all_assignments(AB, 1))

    def test_single_tuple_example(self):
        exists_op, forall_op = projection_adjoints(AB, 1)
        s = AssignmentSet(2, frozenset({("a", "a")}))
        assert exists_op(s).tuples == {("a",)}
        assert forall_op(s).tuples == frozenset()

    def test_agreement_with_function_images_on_all_subsets(self):
        exists_op, forall_op = projection_adjoints(AB, 1)
        projection = projection_function(AB, 1)
        tuples = all_assignments(AB, 2)
        for mask in range(2 ** len(tuples)):
            chosen = frozenset(t for i, t in enumerate(tuples) if mask & (1 << i))
            s = AssignmentSet(2, chosen)
            as_subset = SubsetOf(projection.dom, chosen)
            assert exists_op(s).tuples == direct_image(projection, as_subset).members
            assert forall_op(s).tuples == universal_image(projection, as_subset).members

    def test_adjunction_to_inverse_image_of_the_projection(self):
        projection = projection_function(AB, 1)
        report = check_quantifier_adjunctions(projection, cap=len(projection.dom.elements))
        assert report.ok

    def test_context_mismatch(self):
        exists_op, _ = projection_adjoints(AB, 1)
        with pytest.raises(ContextMismatch):
            exists_op(AssignmentSet(1, frozenset({("a",)})))


def formulas_up_to_depth(max_depth: int, context: int, relations: dict[str, int]):
    """Every formula tree over the given relation signature, by depth.

    Atoms use any variables available in the context; quantifiers bind the
    next variable, so deeper levels see larger contexts.
    """
    by_depth: dict[tuple[int, int], list] = {}

    def atoms(ctx: int) -> list:
        result = []
        for name, arity in relations.items():
            for combo in itertools.product(range(1, ctx + 1), repeat=arity):
                result.append(Atom(name, combo))
        return result

    def build(depth: int, ctx: int) -> list:
        key = (depth, ctx)
        if key in by_depth:
            return by_depth[key]
        if depth == 1:
            by_depth[key] = atoms(ctx)
            return by_depth[key]
        shallower = build(depth - 1, ctx)
        result = list(shallower)
        result.extend(Not(f) for f in shallower)
        for left in shallower:
            for right in shallower:
                result.append(And(left, right))
                result.append(Or(left, right))
                result.append(Implies(left, right))
        inner = build(depth - 1, ctx + 1)
        result.extend(Forall(ctx + 1, f) for f in inner)
        result.extend(Exists(ctx + 1, f) for f in inner)
        by_depth[key] = result
        return result

    return build(max_depth, context)


class TestQuantifierBridge:
    def test_adjoint_route_equals_pointwise_tarski_up_to_depth_two(self):
        m = edge_structure()
        for context in (0, 1, 2):
            for formula in formulas_up_to_depth(2, context, {"E": 2}):
                denotation = tarski_denotation(m, formula, context)
                expected = frozenset(
                    s
                    for s in all_assignments(AB, context)
                    if satisfies(m, formula, s)
                )
                assert denotation.tuples == expected, formula


class TestGeneralizationRule:
    def test_empty_assumptions_hold_vacuously(self):
        gamma = AssignmentSet(1, frozenset())
        assert verify_generalization_rule(gamma, parse_formula("E(v1,v2)"), edge_structure())

    def test_vacuous_generalization_over_a_reflexive_relation(self):
        m = reflexive_structure()
        gamma = tarski_denotation(m, parse_formula("E(v1,v1)"), 1)
        body = parse_formula("E(v1,v1)")  # v2 unused
        assert verify_generalization_rule(
            AssignmentSet(1, gamma.tuples), body, m
        )

    def test_full_assumptions_fail_against_a_partial_relation(self):
        m = edge_structure()
        gamma = AssignmentSet(1, frozenset(all_assignments(AB, 1)))
        assert not verify_generalization_rule(gamma, parse_formula("E(v1,v2)"), m)

    def test_both_sides_computed_explicitly_agree(self):
        m = edge_structure()
        for mask in range(4):
            members = frozenset(
                t for i, t in enumerate(all_assignments(AB, 1)) if mask & (1 << i)
            )
            gamma = AssignmentSet(1, members)
            formula = parse_formula("E(v1,v2)")
            shared = verify_generalization_rule(gamma, formula, m)
            body = tarski_denotation(m, formula, 2)
            _, forall_op = projection_adjoints(AB, 1)
            assert shared == (gamma.tuples <= forall_op(body).tuples)

    def test_assumptions_outside_the_carrier_entail_nothing(self):
        gamma = AssignmentSet(1, frozenset({("z",)}))
        tautology = parse_formula("E(v1,v2) | !E(v1,v2)")
        assert not verify_generalization_rule(gamma, tautology, edge_structure())

    def test_context_mismatch_is_reported(self):
        gamma = AssignmentSet(1, frozenset())
        with pytest.raises(ContextMismatch):
            verify_generalization_rule(gamma, parse_formula("E(v1,v4)"), edge_structure())
