"""Pair-set reference implementation of the order and subset operators,
and the set-valued first-order evaluator.

This is the representation `fincat.galois` and `fincat.logic` used before
orders and subsets became bitmasks: a poset is a frozenset of related pairs
and every operator scans those pairs, and a subset is the frozenset of its
members.  The first-order section is the frozenset evaluator
`fincat.firstorder` used before denotations became masks over A^n.  They
are slow but transparently correct, and the property tests compare the
mask implementations against them.  They are not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from fincat.builders import FiniteFunction, FiniteRelation, NamedFiniteSet
from fincat.core import DEFAULT_BUDGET
from fincat.errors import (
    ContextMismatch,
    ContextOverflow,
    EnumerationBudgetExceeded,
    InvalidPoset,
    NotDownClosed,
    NotMonotone,
    UniverseMismatch,
    UnknownAtom,
    UnknownElement,
)
from fincat.firstorder import (
    AssignmentSet,
    FOStructure,
    _atom_relation,
    _require_binds_next,
    _require_context,
    _require_tuples,
    all_assignments,
)
from fincat.formulas import And, Atom, Box, Exists, Forall, Formula, Implies, Not, Or
from fincat import logic
from fincat.logic import CheckReport, Universe


class RefPoset:
    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.leq = frozenset(leq)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidPoset("duplicate elements")
        known = set(self.elements)
        for x, y in self.leq:
            if x not in known or y not in known:
                raise InvalidPoset(f"relation mentions unknown element in ({x!r}, {y!r})")
        for x in self.elements:
            if (x, x) not in self.leq:
                raise InvalidPoset(f"relation is not reflexive at {x!r}")
        for x, y in self.leq:
            for y2, z in self.leq:
                if y == y2 and (x, z) not in self.leq:
                    raise InvalidPoset(f"relation is not transitive: {x!r} <= {y!r} <= {z!r}")
        for x, y in self.leq:
            if x != y and (y, x) in self.leq:
                raise InvalidPoset(f"relation is not antisymmetric on {x!r}, {y!r}")

    @classmethod
    def from_relation(cls, elements, pairs):
        elems = tuple(elements)
        rel = {(x, x) for x in elems} | {tuple(p) for p in pairs}
        grown = True
        while grown:
            grown = False
            for x, y in tuple(rel):
                for y2, z in tuple(rel):
                    if y == y2 and (x, z) not in rel:
                        rel.add((x, z))
                        grown = True
        return cls(elems, rel)

    def le(self, x, y):
        for e in (x, y):
            if e not in self.elements:
                raise UnknownElement(f"unknown element {e!r}")
        return (x, y) in self.leq

    def least_of(self, subset):
        items = [x for x in self.elements if x in set(subset)]
        for cand in items:
            if all(self.le(cand, other) for other in items):
                return cand
        return None

    def greatest_of(self, subset):
        items = [x for x in self.elements if x in set(subset)]
        for cand in items:
            if all(self.le(other, cand) for other in items):
                return cand
        return None

    def glb(self, x, y):
        return self.greatest_of([z for z in self.elements if self.le(z, x) and self.le(z, y)])

    def lub(self, x, y):
        return self.least_of([z for z in self.elements if self.le(x, z) and self.le(y, z)])


def closure(elements, pairs):
    """The reflexive-transitive closure of ``pairs`` as a pair set: what each
    element reaches by a depth-first search over the pairs."""
    after = {x: set() for x in elements}
    for x, y in pairs:
        after[x].add(y)
    closed = set()
    for x in elements:
        seen, stack = {x}, [x]
        while stack:
            for y in after[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        closed |= {(x, y) for y in seen}
    return frozenset(closed)


def order_violation(elements, leq):
    """The InvalidPoset text of the first failed order law, in element order:
    reflexivity at the first element, then the first x <= y <= z (least x,
    then y, then z) without x <= z, then the first x, y related both ways;
    None for a partial order."""
    at = {x: i for i, x in enumerate(elements)}
    above = {x: set() for x in elements}
    for x, y in leq:
        above[x].add(y)
    for x in elements:
        if x not in above[x]:
            return f"relation is not reflexive at {x!r}"
    for x in elements:
        for y in sorted(above[x], key=at.get):
            if above[y] - above[x]:
                z = min(above[y] - above[x], key=at.get)
                return f"relation is not transitive: {x!r} <= {y!r} <= {z!r}"
    for x in elements:
        for y in sorted(above[x], key=at.get):
            if y != x and x in above[y]:
                return f"relation is not antisymmetric on {x!r}, {y!r}"
    return None


class PairOrder:
    """A relation read through ``elements`` and ``le`` only, unchecked: enough
    for :func:`monotone_witness` and :func:`adjunction_witness` on orders too
    large for :class:`RefPoset`, whose checks scan all pairs of pairs."""

    def __init__(self, elements, leq):
        self.elements, self.leq = tuple(elements), frozenset(leq)

    def le(self, x, y):
        return (x, y) in self.leq


def monotone_witness(dom: RefPoset, cod: RefPoset, graph):
    """Raise NotMonotone on the first (x, y) in element order with x <= y
    and unordered images, with the text the map constructor must give.
    Only ``elements`` and ``le`` of the two orders are read."""
    for x in dom.elements:
        for y in dom.elements:
            if dom.le(x, y) and not cod.le(graph[x], graph[y]):
                raise NotMonotone(
                    f"{x!r} <= {y!r} but images {graph[x]!r}, {graph[y]!r} are not ordered",
                    witness=(x, y),
                )


def left_adjoint(dom: RefPoset, cod: RefPoset, graph):
    """Left adjoint of g = (dom -> cod, graph) as a dict cod -> dom, or None."""
    result = {}
    for x in cod.elements:
        approximants = [y for y in dom.elements if cod.le(x, graph[y])]
        best = dom.least_of(approximants)
        if best is None:
            return None
        result[x] = best
    return result


def right_adjoint(dom: RefPoset, cod: RefPoset, graph):
    """Right adjoint of f = (dom -> cod, graph) as a dict cod -> dom, or None."""
    result = {}
    for z in cod.elements:
        greatest = dom.greatest_of([x for x in dom.elements if cod.le(graph[x], z)])
        if greatest is None:
            return None
        result[z] = greatest
    return result


def approximation(dom: RefPoset, cod: RefPoset, graph, x):
    """The approximants of x along g = (dom -> cod, graph) in domain element
    order, the least of them or None, and the status: "found", "no-least" or
    "empty"."""
    approximants = tuple(y for y in dom.elements if cod.le(x, graph[y]))
    best = dom.least_of(approximants)
    return approximants, best, "found" if best is not None else "no-least" if approximants else "empty"


def greatest_below(dom: RefPoset, cod: RefPoset, graph, z):
    """The greatest x with graph[x] <= z, or None."""
    return dom.greatest_of([x for x in dom.elements if cod.le(graph[x], z)])


def adjunction_witness(P: RefPoset, Q: RefPoset, f, g):
    """First pair (x, z), in element order, violating ``x <= g(z) iff
    f(x) <= z`` for f = (P -> Q, graph) and g = (Q -> P, graph), or None."""
    for x in P.elements:
        for z in Q.elements:
            if P.le(x, g[z]) != Q.le(f[x], z):
                return (x, z)
    return None


def unit_counit_violations(P: RefPoset, Q: RefPoset, f, g):
    """Violated laws among: id <= g∘f, f∘g <= id, f∘g∘f = f, g∘f∘g = g,
    each reported by name with its first failing element; f and g are
    graphs as in :func:`adjunction_witness`."""
    laws = (
        (P, lambda x: P.le(x, g[f[x]]), "unit: {0!r} is not below g(f({0!r}))"),
        (Q, lambda z: Q.le(f[g[z]], z), "counit: f(g({0!r})) is not below {0!r}"),
        (P, lambda x: f[g[f[x]]] == f[x], "f∘g∘f = f fails at {0!r}"),
        (Q, lambda z: g[f[g[z]]] == g[z], "g∘f∘g = g fails at {0!r}"),
    )
    failed = []
    for poset, holds, message in laws:
        for e in poset.elements:
            if not holds(e):
                failed.append(message.format(e))
                break
    return tuple(failed)


def is_down_closed(p: RefPoset, subset):
    return all(x in subset for y in subset for x in p.elements if p.le(x, y))


def down_sets(p: RefPoset):
    order = {x: i for i, x in enumerate(p.elements)}
    found = [
        frozenset(x for i, x in enumerate(p.elements) if mask & (1 << i))
        for mask in range(2 ** len(p.elements))
    ]
    closed = [s for s in found if is_down_closed(p, s)]
    closed.sort(key=lambda s: (len(s), sorted(order[x] for x in s)))
    return tuple(closed)


def heyting_implication(p: RefPoset, x, y):
    for name, subset in (("X", x), ("Y", y)):
        if not is_down_closed(p, subset):
            raise NotDownClosed(f"{name} = {sorted(map(str, subset))!r} is not a down-set")
    return max((z for z in down_sets(p) if (z & x) <= y), key=len)


# -- frozenset subsets ------------------------------------------------------
#
# The subset operators and adjunction checkers `fincat.logic` used before
# subsets became int masks: a subset is its characteristic member set, and
# every operator and checker builds and compares those sets.  The checkers
# call the operators through this module's globals, so a test can swap one
# operator here and its mask body in `fincat.logic` for the same fault.

@dataclass(frozen=True)
class RefSubset:
    """A subset of a universe, stored as its characteristic member set."""

    universe: Universe
    members: frozenset

    def __post_init__(self):
        stray = self.members - set(self.universe.elements)
        if stray:
            raise UniverseMismatch(
                f"members {sorted(map(str, stray))!r} are not in universe "
                f"{self.universe.name!r}"
            )

    @classmethod
    def of(cls, universe: Universe, members) -> "RefSubset":
        return cls(universe, frozenset(members))

    @classmethod
    def full(cls, universe: Universe) -> "RefSubset":
        return cls(universe, frozenset(universe.elements))

    @classmethod
    def empty(cls, universe: Universe) -> "RefSubset":
        return cls(universe, frozenset())

    def _require_same(self, other: "RefSubset") -> None:
        if self.universe != other.universe:
            raise UniverseMismatch(
                f"subsets of {self.universe.name!r} and {other.universe.name!r} combined"
            )

    def complement(self) -> "RefSubset":
        return RefSubset(self.universe, frozenset(self.universe.elements) - self.members)

    def union(self, other: "RefSubset") -> "RefSubset":
        self._require_same(other)
        return RefSubset(self.universe, self.members | other.members)

    def intersect(self, other: "RefSubset") -> "RefSubset":
        self._require_same(other)
        return RefSubset(self.universe, self.members & other.members)

    def included_in(self, other: "RefSubset") -> bool:
        self._require_same(other)
        return self.members <= other.members

    def sorted_members(self) -> tuple:
        order = {x: i for i, x in enumerate(self.universe.elements)}
        return tuple(sorted(self.members, key=order.__getitem__))


def subsets(universe: Universe):
    """All subsets in a fixed order (bitmask over the element order)."""
    elems = universe.elements
    for mask in range(2 ** len(elems)):
        yield RefSubset(universe, frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1))


def direct_image(f: FiniteFunction, s: RefSubset) -> RefSubset:
    if s.universe != f.dom:
        raise UniverseMismatch("subset is not over the function's domain")
    return RefSubset(f.cod, frozenset(f(x) for x in s.members))


def inverse_image(f: FiniteFunction, t: RefSubset) -> RefSubset:
    if t.universe != f.cod:
        raise UniverseMismatch("subset is not over the function's codomain")
    return RefSubset(f.dom, frozenset(x for x in f.dom.elements if f(x) in t.members))


def universal_image(f: FiniteFunction, s: RefSubset) -> RefSubset:
    if s.universe != f.dom:
        raise UniverseMismatch("subset is not over the function's domain")
    missed = {f(x) for x in f.dom.elements if x not in s.members}
    return RefSubset(f.cod, frozenset(y for y in f.cod.elements if y not in missed))


def box(r: FiniteRelation, t: RefSubset) -> RefSubset:
    if t.universe != r.cod:
        raise UniverseMismatch("target set is not over the relation's codomain")
    escaping = {x for (x, y) in r.pairs if y not in t.members}
    return RefSubset(r.dom, frozenset(x for x in r.dom.elements if x not in escaping))


def relation_post_image(r: FiniteRelation, s: RefSubset) -> RefSubset:
    if s.universe != r.dom:
        raise UniverseMismatch("subset is not over the relation's domain")
    return RefSubset(r.cod, frozenset(y for (x, y) in r.pairs if x in s.members))


def boolean_implication(x: RefSubset, y: RefSubset) -> RefSubset:
    return x.complement().union(y)


def _require_cap(cap: int, *universes: Universe) -> None:
    if any(len(u.elements) > cap for u in universes):
        raise EnumerationBudgetExceeded(f"universe larger than the cap of {cap} elements")


def check_quantifier_adjunctions(f: FiniteFunction, cap: int = 4) -> CheckReport:
    _require_cap(cap, f.dom, f.cod)
    witnesses: list[str] = []
    checked = 0
    for s in subsets(f.dom):
        for t in subsets(f.cod):
            checked += 1
            left = direct_image(f, s).included_in(t)
            right = s.included_in(inverse_image(f, t))
            if left != right:
                witnesses.append(
                    f"direct-image adjunction fails at S={s.sorted_members()!r}, "
                    f"T={t.sorted_members()!r}"
                )
            left = inverse_image(f, t).included_in(s)
            right = t.included_in(universal_image(f, s))
            if left != right:
                witnesses.append(
                    f"universal-image adjunction fails at S={s.sorted_members()!r}, "
                    f"T={t.sorted_members()!r}"
                )
    return CheckReport(ok=not witnesses, checked=checked, witnesses=tuple(witnesses))


def check_box_adjunction(r: FiniteRelation, cap: int = 4) -> CheckReport:
    _require_cap(cap, r.dom, r.cod)
    witnesses: list[str] = []
    checked = 0
    for s in subsets(r.dom):
        for t in subsets(r.cod):
            checked += 1
            if relation_post_image(r, s).included_in(t) != s.included_in(box(r, t)):
                witnesses.append(
                    f"box adjunction fails at S={s.sorted_members()!r}, "
                    f"T={t.sorted_members()!r}"
                )
    return CheckReport(ok=not witnesses, checked=checked, witnesses=tuple(witnesses))


def check_implication_adjunction(universe: Universe, cap: int = 4) -> CheckReport:
    _require_cap(cap, universe)
    witnesses: list[str] = []
    checked = 0
    for x in subsets(universe):
        for y in subsets(universe):
            for z in subsets(universe):
                checked += 1
                lhs = x.intersect(y).included_in(z)
                rhs = x.included_in(boolean_implication(y, z))
                if lhs != rhs:
                    witnesses.append(
                        f"implication adjunction fails at X={x.sorted_members()!r}, "
                        f"Y={y.sorted_members()!r}, Z={z.sorted_members()!r}"
                    )
    return CheckReport(ok=not witnesses, checked=checked, witnesses=tuple(witnesses))


def eval_modal(access: FiniteRelation, valuation, formula: Formula) -> RefSubset:
    """Worlds satisfying a propositional modal formula; ``valuation`` maps
    each atom to a RefSubset of the worlds, ``access.dom``."""
    if isinstance(formula, Atom):
        return valuation[formula.name]
    if isinstance(formula, Not):
        return eval_modal(access, valuation, formula.body).complement()
    if isinstance(formula, (And, Or, Implies)):
        left = eval_modal(access, valuation, formula.left)
        right = eval_modal(access, valuation, formula.right)
        if isinstance(formula, And):
            return left.intersect(right)
        return left.union(right) if isinstance(formula, Or) else boolean_implication(left, right)
    inner = eval_modal(access, valuation, formula.body)
    if isinstance(formula, Box):
        return box(access, inner)
    return box(access, inner.complement()).complement()  # Dia


# -- first-order denotations ---------------------------------------------
#
# The set-valued Tarskian evaluator `fincat.firstorder` used before
# denotations became masks over A^n: every connective rebuilds the tuple
# universe, and every quantifier is evaluated twice, by its extension clause
# and as the image along an explicit projection function, the two answers
# compared.  The budget, context and atom checks are the package's own;
# `logic.universal_image` is qualified, as this module has its own above.

def tuple_universe(carrier: Universe, context: int, budget: int = DEFAULT_BUDGET) -> Universe:
    """The universe of assignment tuples of a given context size."""
    _require_tuples(carrier, context, budget)
    return NamedFiniteSet(
        f"{carrier.name}^{context}", all_assignments(carrier, context)
    )


def projection_function(
    carrier: Universe, context: int, budget: int = DEFAULT_BUDGET
) -> FiniteFunction:
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
    _require_tuples(carrier, context + 1, budget)
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


def tarski_denotation(
    m: FOStructure, formula: Formula, context: int, budget: int = DEFAULT_BUDGET
) -> AssignmentSet:
    """The set of satisfying assignments in the given context.

    Propositional connectives are computed as set operations over the tuple
    universe.  Each quantifier is evaluated twice -- by its explicit
    extension clause and as the corresponding adjoint of inverse image along
    the projection -- and the two answers must coincide.
    """
    _require_tuples(m.carrier, context, budget)
    universe_tuples = all_assignments(m.carrier, context)
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
        body_subset = logic.SubsetOf(projection.dom, body.tuples)
        via_adjoint = (
            logic.universal_image(projection, body_subset)
            if isinstance(formula, Forall)
            else logic.direct_image(projection, body_subset)
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
