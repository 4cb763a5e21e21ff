"""Tarskian semantics over finite structures, with quantifiers evaluated
both directly and as adjoints to the projection that drops the last
assignment coordinate.

Contexts are explicit: a formula evaluated in context n may use variables
v1..vn, and a quantifier occurring there must bind exactly v(n+1).  The
denotation of a formula is the set of satisfying assignment tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .builders import FiniteFunction, NamedFiniteSet
from .core import DEFAULT_BUDGET
from .errors import (
    ContextMismatch,
    ContextOverflow,
    EnumerationBudgetExceeded,
    UnknownAtom,
)
from .formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
)
from .logic import SubsetOf, Universe, direct_image, universal_image


@dataclass(frozen=True)
class FORelation:
    """An interpreted relation: fixed arity, set of tuples over the carrier."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t!r} does not have arity {self.arity}")


@dataclass(frozen=True)
class FOStructure:
    """A finite carrier with named interpreted relations."""

    carrier: Universe
    relations: Mapping[str, FORelation]

    def __post_init__(self):
        carrier = set(self.carrier.elements)
        for name, rel in self.relations.items():
            for t in rel.tuples:
                for entry in t:
                    if entry not in carrier:
                        raise ValueError(
                            f"relation {name!r} mentions unknown element {entry!r}"
                        )

    def relation(self, name: str) -> FORelation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownAtom(f"structure has no relation {name!r}") from None


@dataclass(frozen=True)
class AssignmentSet:
    """A set of assignment tuples in a fixed context size."""

    context: int
    tuples: frozenset

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.context:
                raise ContextMismatch(
                    f"tuple {t!r} does not fit context of size {self.context}"
                )

    def sorted_tuples(self) -> tuple:
        return tuple(sorted(self.tuples))


def all_assignments(carrier: Universe, context: int) -> tuple:
    """A^context in lexicographic order of the carrier's element order."""
    return tuple(itertools.product(carrier.elements, repeat=context))


def tuple_universe(carrier: Universe, context: int, budget: int = DEFAULT_BUDGET) -> Universe:
    """The universe of assignment tuples of a given context size."""
    size = len(carrier.elements) ** context
    if size > budget:
        raise EnumerationBudgetExceeded(
            f"{size} assignment tuples exceed the budget of {budget}"
        )
    return NamedFiniteSet(
        f"{carrier.name}^{context}", all_assignments(carrier, context)
    )


def projection_function(carrier: Universe, context: int, budget: int = DEFAULT_BUDGET) -> FiniteFunction:
    """The projection A^(n+1) -> A^n dropping the last coordinate."""
    big = tuple_universe(carrier, context + 1, budget)
    small = tuple_universe(carrier, context, budget)
    return FiniteFunction(big, small, {t: t[:-1] for t in big.elements})


def projection_adjoints(carrier: Universe, context: int, budget: int = DEFAULT_BUDGET):
    """The two quantifier operators on assignment sets, as explicit formulas.

    Returns (exists_op, forall_op), each mapping an AssignmentSet over
    A^(n+1) to one over A^n:

        exists_op(S) = { s | some a extends s into S }
        forall_op(S) = { s | every a extends s into S }

    Both are the adjoints of inverse image along the projection; the
    first-order evaluator re-derives them through direct_image and
    universal_image and insists the answers agree.
    """
    size = len(carrier.elements) ** (context + 1)
    if size > budget:
        raise EnumerationBudgetExceeded(
            f"{size} assignment tuples exceed the budget of {budget}"
        )
    smaller = all_assignments(carrier, context)

    def exists_op(s: AssignmentSet) -> AssignmentSet:
        _require_context(s, context + 1)
        members = frozenset(
            t
            for t in smaller
            if any(t + (a,) in s.tuples for a in carrier.elements)
        )
        return AssignmentSet(context, members)

    def forall_op(s: AssignmentSet) -> AssignmentSet:
        _require_context(s, context + 1)
        members = frozenset(
            t
            for t in smaller
            if all(t + (a,) in s.tuples for a in carrier.elements)
        )
        return AssignmentSet(context, members)

    return exists_op, forall_op


def _require_context(s: AssignmentSet, expected: int) -> None:
    if s.context != expected:
        raise ContextMismatch(
            f"assignment set has context {s.context}, expected {expected}"
        )


def satisfies(m: FOStructure, formula: Formula, assignment: tuple) -> bool:
    """Pointwise satisfaction: one assignment, evaluated clause by clause.

    This is the element-level oracle the set-valued denotation is checked
    against; quantifiers loop over the carrier and extend the assignment.
    """
    context = len(assignment)
    if isinstance(formula, Atom):
        rel = _atom_relation(m, formula, context)
        return tuple(assignment[i - 1] for i in formula.args) in rel.tuples
    if isinstance(formula, Not):
        return not satisfies(m, formula.body, assignment)
    if isinstance(formula, And):
        return satisfies(m, formula.left, assignment) and satisfies(
            m, formula.right, assignment
        )
    if isinstance(formula, Or):
        return satisfies(m, formula.left, assignment) or satisfies(
            m, formula.right, assignment
        )
    if isinstance(formula, Implies):
        return (not satisfies(m, formula.left, assignment)) or satisfies(
            m, formula.right, assignment
        )
    if isinstance(formula, Forall):
        _require_binds_next(formula.var, context)
        return all(
            satisfies(m, formula.body, assignment + (a,))
            for a in m.carrier.elements
        )
    if isinstance(formula, Exists):
        _require_binds_next(formula.var, context)
        return any(
            satisfies(m, formula.body, assignment + (a,))
            for a in m.carrier.elements
        )
    raise UnknownAtom(f"modal operators have no first-order reading: {formula!r}")


def _atom_relation(m: FOStructure, atom: Atom, context: int) -> FORelation:
    """The relation an atom names, once its arity and variables fit the context."""
    rel = m.relation(atom.name)
    if len(atom.args) != rel.arity:
        raise UnknownAtom(
            f"relation {atom.name!r} has arity {rel.arity}, "
            f"atom supplies {len(atom.args)} arguments"
        )
    for index in atom.args:
        if index > context:
            raise ContextOverflow(
                f"variable v{index} exceeds context of size {context}"
            )
    return rel


def _require_binds_next(var: int, context: int) -> None:
    if var != context + 1:
        raise ContextOverflow(
            f"quantifier binds v{var} but only v{context + 1} may be bound "
            f"in context of size {context}"
        )


def tarski_denotation(
    m: FOStructure, formula: Formula, context: int, budget: int = DEFAULT_BUDGET
) -> AssignmentSet:
    """The set of satisfying assignments in the given context.

    Propositional connectives are computed as set operations over the tuple
    universe.  Each quantifier is evaluated twice -- by its explicit
    extension clause and as the corresponding adjoint of inverse image along
    the projection -- and the two answers must coincide.
    """
    universe_tuples = all_assignments(m.carrier, context)
    if len(universe_tuples) > budget:
        raise EnumerationBudgetExceeded(
            f"{len(universe_tuples)} assignment tuples exceed the budget of {budget}"
        )
    if isinstance(formula, Atom):
        rel = _atom_relation(m, formula, context)
        members = frozenset(
            t
            for t in universe_tuples
            if tuple(t[i - 1] for i in formula.args) in rel.tuples
        )
        return AssignmentSet(context, members)
    if isinstance(formula, Not):
        inner = tarski_denotation(m, formula.body, context, budget)
        return AssignmentSet(context, frozenset(universe_tuples) - inner.tuples)
    if isinstance(formula, (And, Or, Implies)):
        left = tarski_denotation(m, formula.left, context, budget)
        right = tarski_denotation(m, formula.right, context, budget)
        if isinstance(formula, And):
            return AssignmentSet(context, left.tuples & right.tuples)
        if isinstance(formula, Or):
            return AssignmentSet(context, left.tuples | right.tuples)
        return AssignmentSet(
            context, (frozenset(universe_tuples) - left.tuples) | right.tuples
        )
    if isinstance(formula, (Forall, Exists)):
        _require_binds_next(formula.var, context)
        body = tarski_denotation(m, formula.body, context + 1, budget)
        exists_op, forall_op = projection_adjoints(m.carrier, context, budget)
        direct = (
            forall_op(body) if isinstance(formula, Forall) else exists_op(body)
        )
        projection = projection_function(m.carrier, context, budget)
        body_subset = SubsetOf(projection.dom, body.tuples)
        via_adjoint = (
            universal_image(projection, body_subset)
            if isinstance(formula, Forall)
            else direct_image(projection, body_subset)
        )
        if via_adjoint.members != direct.tuples:
            raise RuntimeError(
                "quantifier clause and projection adjoint disagree -- internal bug"
            )
        return direct
    raise UnknownAtom(f"modal operators have no first-order reading: {formula!r}")


def verify_generalization_rule(
    gamma: AssignmentSet, formula: Formula, m: FOStructure, budget: int = DEFAULT_BUDGET
) -> bool:
    """Check the two sides of the bidirectional generalization rule.

    With n the context of gamma, the rule equates gamma entailing the
    universally quantified formula (in context n) with the inverse image of
    gamma entailing the formula itself (in context n+1).  Side conditions on
    free variables hold automatically because gamma lives in context n.
    Returns the shared truth value; disagreement would be a bug and raises.
    """
    n = gamma.context
    try:
        body = tarski_denotation(m, formula, n + 1, budget)
    except ContextOverflow as exc:
        raise ContextMismatch(
            f"formula does not fit context {n + 1}: {exc}"
        ) from exc
    _, forall_op = projection_adjoints(m.carrier, n, budget)
    lhs = gamma.tuples <= forall_op(body).tuples
    expanded = frozenset(
        t + (a,) for t in gamma.tuples for a in m.carrier.elements
    )
    rhs = expanded <= body.tuples
    if lhs != rhs:
        raise RuntimeError(
            "generalization rule sides disagree -- internal bug"
        )
    return lhs
