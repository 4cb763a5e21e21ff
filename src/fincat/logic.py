"""Logical operators realized as adjoints on powersets of finite universes.

The three images of a function (direct, inverse, universal), the modal
operator [R] alias weakest precondition with its left adjoint, Boolean and
Heyting implication, and the exhaustive verifiers for each adjunction
equivalence.  Subsets of a named universe are characteristic member sets and
every check runs over ALL subset pairs or triples.

The universal image (the codomain minus the images of the elements outside
the subset) and ``box`` are one pass over the graph or the pairs: O(|dom| +
|cod|) and O(|pairs| + |dom|).  Subsets of a poset are the int masks of
:class:`~fincat.galois.FinitePoset`: S is down-closed when ``downs[i]`` lies
inside S for each i in S, one AND per member; ``down_sets`` tests all 2^n
masks, O(2^n·n), and ``heyting_implication`` scans the down-sets, one AND each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .builders import FiniteFunction, FiniteRelation, NamedFiniteSet, subset_label
from .errors import (
    EnumerationBudgetExceeded,
    NotDownClosed,
    UniverseMismatch,
    UnknownAtom,
)
from .formulas import And, Atom, Box, Dia, Formula, Implies, Not, Or
from .galois import FinitePoset, bits

#: Universes are named finite sets; the alias keeps the logic-level name.
Universe = NamedFiniteSet


@dataclass(frozen=True)
class SubsetOf:
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
    def of(cls, universe: Universe, members) -> "SubsetOf":
        return cls(universe, frozenset(members))

    @classmethod
    def full(cls, universe: Universe) -> "SubsetOf":
        return cls(universe, frozenset(universe.elements))

    @classmethod
    def empty(cls, universe: Universe) -> "SubsetOf":
        return cls(universe, frozenset())

    def _require_same(self, other: "SubsetOf") -> None:
        if self.universe != other.universe:
            raise UniverseMismatch(
                f"subsets of {self.universe.name!r} and {other.universe.name!r} combined"
            )

    def complement(self) -> "SubsetOf":
        return SubsetOf(self.universe, frozenset(self.universe.elements) - self.members)

    def union(self, other: "SubsetOf") -> "SubsetOf":
        self._require_same(other)
        return SubsetOf(self.universe, self.members | other.members)

    def intersect(self, other: "SubsetOf") -> "SubsetOf":
        self._require_same(other)
        return SubsetOf(self.universe, self.members & other.members)

    def included_in(self, other: "SubsetOf") -> bool:
        self._require_same(other)
        return self.members <= other.members

    def sorted_members(self) -> tuple:
        order = {x: i for i, x in enumerate(self.universe.elements)}
        return tuple(sorted(self.members, key=order.__getitem__))


def subsets(universe: Universe) -> Iterator[SubsetOf]:
    """All subsets in a fixed order (bitmask over the element order)."""
    elems = universe.elements
    for mask in range(2 ** len(elems)):
        yield SubsetOf(universe, frozenset(elems[i] for i in bits(mask)))


def direct_image(f: FiniteFunction, s: SubsetOf) -> SubsetOf:
    """{ y | some x in s has f(x) = y } -- the left adjoint of inverse image."""
    if s.universe != f.dom:
        raise UniverseMismatch("subset is not over the function's domain")
    return SubsetOf(f.cod, frozenset(f(x) for x in s.members))


def inverse_image(f: FiniteFunction, t: SubsetOf) -> SubsetOf:
    """{ x | f(x) in t }."""
    if t.universe != f.cod:
        raise UniverseMismatch("subset is not over the function's codomain")
    return SubsetOf(f.dom, frozenset(x for x in f.dom.elements if f(x) in t.members))


def universal_image(f: FiniteFunction, s: SubsetOf) -> SubsetOf:
    """{ y | every x with f(x) = y lies in s } -- the right adjoint of inverse image."""
    if s.universe != f.dom:
        raise UniverseMismatch("subset is not over the function's domain")
    missed = {f(x) for x in f.dom.elements if x not in s.members}
    return SubsetOf(f.cod, frozenset(y for y in f.cod.elements if y not in missed))


def _require_cap(cap: int, *universes: Universe) -> None:
    if any(len(u.elements) > cap for u in universes):
        raise EnumerationBudgetExceeded(f"universe larger than the cap of {cap} elements")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive law check with the instances that failed."""

    ok: bool
    checked: int
    witnesses: tuple[str, ...]


def check_quantifier_adjunctions(f: FiniteFunction, cap: int = 4) -> CheckReport:
    """Verify both adjunction equivalences of the image triple over ALL
    subset pairs of the function's universes."""
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


def box(r: FiniteRelation, t: SubsetOf) -> SubsetOf:
    """[R]T: sources all of whose R-successors land in T.

    Read over program states this is the weakest precondition of T under R;
    it is the right adjoint of the post-image operator.
    """
    if t.universe != r.cod:
        raise UniverseMismatch("target set is not over the relation's codomain")
    escaping = {x for (x, y) in r.pairs if y not in t.members}
    return SubsetOf(r.dom, frozenset(x for x in r.dom.elements if x not in escaping))


#: Program-logic name for the same operator.
wp = box


def relation_post_image(r: FiniteRelation, s: SubsetOf) -> SubsetOf:
    """{ y | some x in s is related to y } -- the left adjoint of box."""
    if s.universe != r.dom:
        raise UniverseMismatch("subset is not over the relation's domain")
    return SubsetOf(r.cod, frozenset(y for (x, y) in r.pairs if x in s.members))


def check_box_adjunction(r: FiniteRelation, cap: int = 4) -> CheckReport:
    """Verify post-image ⊣ box over ALL subset pairs."""
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


@dataclass(frozen=True)
class KripkeFrame:
    """Worlds, an accessibility relation over them, and an atom valuation."""

    worlds: Universe
    access: FiniteRelation
    valuation: Mapping[str, SubsetOf]

    def __post_init__(self):
        if self.access.dom != self.worlds or self.access.cod != self.worlds:
            raise UniverseMismatch("accessibility relation must live on the worlds")
        for atom, value in self.valuation.items():
            if value.universe != self.worlds:
                raise UniverseMismatch(f"valuation of {atom!r} is not over the worlds")

    def atom_set(self, name: str) -> SubsetOf:
        try:
            return self.valuation[name]
        except KeyError:
            raise UnknownAtom(f"no valuation for atom {name!r}") from None


def eval_modal(frame: KripkeFrame, formula: Formula) -> SubsetOf:
    """Worlds satisfying the formula; box is evaluated through the [R]
    operator and dia is its ¬[R]¬ dual."""
    if isinstance(formula, Atom):
        if formula.args:
            raise UnknownAtom(
                f"modal atoms are propositional, got {formula.name!r} with arguments"
            )
        return frame.atom_set(formula.name)
    if isinstance(formula, Not):
        return eval_modal(frame, formula.body).complement()
    if isinstance(formula, And):
        return eval_modal(frame, formula.left).intersect(eval_modal(frame, formula.right))
    if isinstance(formula, Or):
        return eval_modal(frame, formula.left).union(eval_modal(frame, formula.right))
    if isinstance(formula, Implies):
        return boolean_implication(
            eval_modal(frame, formula.left), eval_modal(frame, formula.right)
        )
    if isinstance(formula, Box):
        return box(frame.access, eval_modal(frame, formula.body))
    if isinstance(formula, Dia):
        return box(frame.access, eval_modal(frame, formula.body).complement()).complement()
    raise UnknownAtom(f"quantifiers are not modal operators: {formula!r}")


def boolean_implication(x: SubsetOf, y: SubsetOf) -> SubsetOf:
    """X => Y as complement(X) ∪ Y."""
    return x.complement().union(y)


def check_implication_adjunction(universe: Universe, cap: int = 4) -> CheckReport:
    """Verify X ∩ Y ⊆ Z iff X ⊆ (Y => Z) for ALL subset triples."""
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


def _closed(p: FinitePoset, mask: int) -> bool:
    return all(p.downs[i] | mask == mask for i in bits(mask))


def is_down_closed(p: FinitePoset, subset: frozenset) -> bool:
    return _closed(p, p.mask(subset))


def _down_set_masks(p: FinitePoset) -> list[int]:
    closed = [mask for mask in range(1 << len(p.elements)) if _closed(p, mask)]
    closed.sort(key=lambda mask: (mask.bit_count(), list(bits(mask))))
    return closed


def down_sets(p: FinitePoset) -> tuple[frozenset, ...]:
    """All down-closed subsets, ordered by size then by element order."""
    return tuple(frozenset(p.members(mask)) for mask in _down_set_masks(p))


def heyting_implication(p: FinitePoset, x: frozenset, y: frozenset) -> frozenset:
    """The largest down-set Z with Z ∩ X ⊆ Y, found by exhaustive search.

    This is intuitionistic implication in the down-set lattice of the poset;
    the candidate scan doubles as the adjunction check, since the result must
    contain every candidate.
    """
    for name, subset in (("X", x), ("Y", y)):
        if not is_down_closed(p, subset):
            raise NotDownClosed(f"{name} = {sorted(map(str, subset))!r} is not a down-set")
    outside = p.mask(x) & ~p.mask(y)
    candidates = [z for z in _down_set_masks(p) if not z & outside]
    best = max(candidates, key=int.bit_count)
    if any(z & ~best for z in candidates):
        raise RuntimeError("down-set candidates have no largest member -- internal bug")
    return frozenset(p.members(best))


def powerset_poset(universe: Universe) -> tuple[FinitePoset, dict[str, frozenset]]:
    """The inclusion order on all subsets, with canonical string labels.

    Returns the poset and the label -> subset decoding table, so powerset
    operators can be replayed as monotone maps between posets.  Subsets come
    in mask order, so a ⊆ b is the mask test ``a & ~b == 0``.
    """
    labelled = [(subset_label(s.members, universe), s.members) for s in subsets(universe)]
    labels = tuple(label for label, _ in labelled)
    everything = range(len(labels))
    leq = frozenset((labels[a], labels[b]) for a in everything for b in everything if not a & ~b)
    return FinitePoset(labels, leq), dict(labelled)
