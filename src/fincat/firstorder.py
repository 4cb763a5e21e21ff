"""Tarskian semantics over finite structures, with each quantifier evaluated
once, as an adjoint to inverse image along the projection that drops the
last assignment coordinate.

Contexts are explicit: a formula evaluated in context n may use variables
v1..vn, and a quantifier occurring there must bind exactly v(n+1).  The
denotation of a formula is the set of satisfying assignment tuples; while
it is computed, a set of tuples over A^n is an int mask whose bit i stands
for the i-th tuple of `all_assignments`, listed once per context.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import itemgetter
from typing import Mapping

from .core import DEFAULT_BUDGET, Lazy
from .errors import ContextMismatch, ContextOverflow, EnumerationBudgetExceeded, UnknownAtom, record
from .formulas import And, Atom, Exists, Forall, Formula, Implies, Not, Or
from .galois import digits, mask_of, select
from .logic import Universe


@record
class FORelation:
    """An interpreted relation: fixed arity, set of tuples over the carrier."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t!r} does not have arity {self.arity}")


@record
class FOStructure:
    """A finite carrier with named interpreted relations."""

    carrier: Universe
    relations: Mapping[str, FORelation]

    def __post_init__(self):
        carrier = self.carrier.positions
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


@record
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


def _require_tuples(carrier: Universe, context: int, budget: int) -> None:
    """Raise unless the |A|^context assignment tuples fit in the budget."""
    base = len(carrier.elements)
    if base > 1 and context > budget.bit_length():  # then 2^context > budget
        raise EnumerationBudgetExceeded(
            f"{base}^{context} assignment tuples exceed the budget of {budget}"
        )
    size = base ** context
    if size > budget:
        raise EnumerationBudgetExceeded(
            f"{size} assignment tuples exceed the budget of {budget}"
        )


def _encode(carrier: Universe, s: AssignmentSet) -> int:
    """The mask over A^n, in `all_assignments` order, of the tuples in ``s``."""
    return mask_of(t in s.tuples for t in all_assignments(carrier, s.context))


def _decode(context: int, tuples: tuple, mask: int) -> AssignmentSet:
    return AssignmentSet(context, frozenset(select(tuples, mask)))


def _image(mask: int, base: int, size: int, forall: bool) -> int:
    """The direct (or universal) image of a mask over A^(n+1) along the
    projection to A^n, with ``base`` = |A| and ``size`` = |A|^n.  As
    index(t + (a,)) = index(t)*|A| + pos(a), the projection is i -> i // |A|:
    tuple j is kept when its block of |A| bits is non-zero (or full)."""
    bits = digits(mask, size * base)
    blocks = (bits[j * base:(j + 1) * base] for j in range(size))
    return mask_of(("0" not in b) if forall else ("1" in b) for b in blocks)


def _inverse_image(mask: int, base: int, size: int) -> int:
    """The inverse image along the projection A^(n+1) -> A^n: each of the
    ``size`` bits over A^n repeated |A| = ``base`` times."""
    return mask_of(b == "1" for b in digits(mask, size) for _ in range(base))


def projection_adjoints(carrier: Universe, context: int, budget: int = DEFAULT_BUDGET):
    """The two quantifier operators on assignment sets, as explicit formulas.

    Returns (exists_op, forall_op), each mapping an AssignmentSet over
    A^(n+1) to one over A^n:

        exists_op(S) = { s | some a extends s into S }
        forall_op(S) = { s | every a extends s into S }

    They are the direct and universal images along the projection, the left
    and right adjoints of its inverse image; `tarski_denotation` evaluates
    every quantifier with the same fold.
    """
    _require_tuples(carrier, context + 1, budget)
    size = len(carrier.elements) ** context

    def quantify(s: AssignmentSet, forall: bool) -> AssignmentSet:
        _require_context(s, context + 1)
        image = _image(_encode(carrier, s), len(carrier.elements), size, forall)
        return _decode(context, all_assignments(carrier, context), image)

    return partial(quantify, forall=False), partial(quantify, forall=True)


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


def _denote(m: FOStructure, formula: Formula, context: int, budget: int, assignments: Lazy) -> int:
    """The mask over A^context of the assignments that satisfy ``formula``;
    ``assignments[n]`` is the `all_assignments` of context n."""
    _require_tuples(m.carrier, context, budget)
    base = len(m.carrier.elements)
    if isinstance(formula, Atom):
        rel = _atom_relation(m, formula, context)
        tuples = assignments[context]
        picks = [map(itemgetter(i - 1), tuples) for i in formula.args]
        keys = zip(*picks) if picks else [()] * len(tuples)
        return mask_of(map(rel.tuples.__contains__, keys))
    full = (1 << base ** context) - 1
    if isinstance(formula, Not):
        return full ^ _denote(m, formula.body, context, budget, assignments)
    if isinstance(formula, (And, Or, Implies)):
        left = _denote(m, formula.left, context, budget, assignments)
        right = _denote(m, formula.right, context, budget, assignments)
        if isinstance(formula, And):
            return left & right
        if isinstance(formula, Or):
            return left | right
        return (full ^ left) | right
    if isinstance(formula, (Forall, Exists)):
        _require_binds_next(formula.var, context)
        body = _denote(m, formula.body, context + 1, budget, assignments)
        return _image(body, base, base ** context, isinstance(formula, Forall))
    raise UnknownAtom(f"modal operators have no first-order reading: {formula!r}")


def tarski_denotation(
    m: FOStructure, formula: Formula, context: int, budget: int = DEFAULT_BUDGET
) -> AssignmentSet:
    """The set of satisfying assignments in the given context.

    Every subformula denotes a mask over A^n in `all_assignments` order.
    Atoms take one pass over the tuples, connectives are bit operations, and
    each quantifier is the direct or universal image of its body along the
    projection that drops the last coordinate.  Only the answer is decoded
    into tuples.
    """
    assignments = Lazy(partial(all_assignments, m.carrier))
    mask = _denote(m, formula, context, budget, assignments)
    return _decode(context, assignments[context], mask)


def verify_generalization_rule(
    gamma: AssignmentSet, formula: Formula, m: FOStructure, budget: int = DEFAULT_BUDGET
) -> bool:
    """Check the two sides of the bidirectional generalization rule.

    With n the context of gamma, the rule equates gamma entailing the
    universally quantified formula (in context n) with the inverse image of
    gamma entailing the formula itself (in context n+1).  Side conditions on
    free variables hold automatically because gamma lives in context n.
    A gamma with a tuple outside A^n entails neither side.
    Returns the shared truth value; disagreement would be a bug and raises.
    """
    n = gamma.context
    try:
        body = _denote(m, formula, n + 1, budget, Lazy(partial(all_assignments, m.carrier)))
    except ContextOverflow as exc:
        raise ContextMismatch(
            f"formula does not fit context {n + 1}: {exc}"
        ) from exc
    base = len(m.carrier.elements)
    assumed = _encode(m.carrier, gamma)
    inside = assumed.bit_count() == len(gamma.tuples)
    lhs = inside and not assumed & ~_image(body, base, base ** n, True)
    rhs = inside and not _inverse_image(assumed, base, base ** n) & ~body
    if lhs != rhs:
        raise RuntimeError(
            "generalization rule sides disagree -- internal bug"
        )
    return lhs
