"""Logical operators realized as adjoints on powersets of finite universes.

The three images of a function (direct, inverse, universal), the modal
operator [R] alias weakest precondition with its left adjoint, Boolean and
Heyting implication, and the exhaustive verifiers for each adjunction
equivalence.  A subset of a named universe is an int mask, bit i standing for
``universe.elements[i]``; every check runs over ALL subset pairs or triples.
A function or relation is read as the rows it is stored as, the successor
mask of each source.  Each operator is one int body, ``_post``, ``_box``,
``_universal`` or ``_implies``, shared by the public function and the
checkers, which compute each operator once per mask.  ``down_sets`` adds a
poset's elements one at a time, below before above, in O(n·#down-sets).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .builders import FiniteFunction, FiniteRelation, NamedFiniteSet, subset_label
from .errors import EnumerationBudgetExceeded, NotDownClosed, UniverseMismatch, UnknownAtom, record
from .formulas import And, Atom, Box, Dia, Formula, Implies, Not, Or
from .galois import FinitePoset, bits

#: Universes are named finite sets; the alias keeps the logic-level name.
Universe = NamedFiniteSet
_MIXED = "subsets of {!r} and {!r} combined"


def _full(universe: Universe) -> int:
    return (1 << len(universe.elements)) - 1


def _names(universe: Universe, mask: int) -> tuple:
    return tuple(universe.elements[i] for i in bits(mask))


@record(init=False)
class SubsetOf:
    """A subset of a universe as an int mask, bit i standing for
    ``universe.elements[i]``; equality and hashing read the two fields, and
    ``members`` is the frozenset the mask decodes to."""

    universe: Universe
    mask: int

    def __init__(self, universe: Universe, members):
        at, members = universe.positions, set(members)
        if stray := members - at.keys():
            raise UniverseMismatch(
                f"members {sorted(map(str, stray))!r} are not in universe {universe.name!r}"
            )
        vars(self).update(universe=universe, mask=sum(1 << at[x] for x in members))

    @classmethod
    def of(cls, universe: Universe, members) -> "SubsetOf":
        return cls(universe, members)

    @classmethod
    def full(cls, universe: Universe) -> "SubsetOf":
        return _subset(universe, _full(universe))

    @classmethod
    def empty(cls, universe: Universe) -> "SubsetOf":
        return _subset(universe, 0)

    @property
    def members(self) -> frozenset:
        return frozenset(_names(self.universe, self.mask))

    def complement(self) -> "SubsetOf":
        return _subset(self.universe, _full(self.universe) & ~self.mask)

    def union(self, other: "SubsetOf") -> "SubsetOf":
        _require_over(other, self.universe)
        return _subset(self.universe, self.mask | other.mask)

    def intersect(self, other: "SubsetOf") -> "SubsetOf":
        _require_over(other, self.universe)
        return _subset(self.universe, self.mask & other.mask)

    def included_in(self, other: "SubsetOf") -> bool:
        _require_over(other, self.universe)
        return not self.mask & ~other.mask

    def sorted_members(self) -> tuple:
        return _names(self.universe, self.mask)


def _require_over(s: SubsetOf, universe: Universe, message: str = _MIXED) -> None:
    """Refuse a subset of another universe; ``message`` may name both."""
    if s.universe is not universe and s.universe != universe:
        raise UniverseMismatch(message.format(universe.name, s.universe.name))


def _subset(universe: Universe, mask: int) -> SubsetOf:
    subset = object.__new__(SubsetOf)
    subset.__dict__["universe"], subset.__dict__["mask"] = universe, mask
    return subset


def subsets(universe: Universe) -> Iterator[SubsetOf]:
    """All subsets in a fixed order (bitmask over the element order)."""
    return (_subset(universe, mask) for mask in range(1 << len(universe.elements)))


def _post(rows: tuple[int, ...], s: int) -> int:
    """Everything some member of ``s`` reaches."""
    found = 0
    for i in bits(s):
        found |= rows[i]
    return found


def _box(rows: tuple[int, ...], t: int) -> int:
    """The sources all of whose successors lie in ``t``."""
    return sum(1 << i for i, row in enumerate(rows) if not row & ~t)


def _universal(rows: tuple[int, ...], s: int, cod_full: int) -> int:
    """The targets reached from no element outside ``s``."""
    return cod_full & ~_post(rows, ((1 << len(rows)) - 1) & ~s)


def _implies(full: int, y: int, z: int) -> int:
    return full & ~y | z


def direct_image(f: FiniteFunction, s: SubsetOf) -> SubsetOf:
    """{ y | some x in s has f(x) = y } -- the left adjoint of inverse image."""
    _require_over(s, f.dom, "subset is not over the function's domain")
    return _subset(f.cod, _post(f.rows, s.mask))


def inverse_image(f: FiniteFunction, t: SubsetOf) -> SubsetOf:
    """{ x | f(x) in t }: box along the graph, whose rows are single bits."""
    _require_over(t, f.cod, "subset is not over the function's codomain")
    return _subset(f.dom, _box(f.rows, t.mask))


def universal_image(f: FiniteFunction, s: SubsetOf) -> SubsetOf:
    """{ y | every x with f(x) = y lies in s } -- the right adjoint of inverse image."""
    _require_over(s, f.dom, "subset is not over the function's domain")
    return _subset(f.cod, _universal(f.rows, s.mask, _full(f.cod)))


def _require_cap(cap: int, *universes: Universe) -> None:
    if any(len(u.elements) > cap for u in universes):
        raise EnumerationBudgetExceeded(f"universe larger than the cap of {cap} elements")


@record
class CheckReport:
    """Outcome of an exhaustive law check with the instances that failed."""

    ok: bool
    checked: int
    witnesses: tuple[str, ...]


def _at(arrow, s: int, t: int) -> str:
    return f"S={_names(arrow.dom, s)!r}, T={_names(arrow.cod, t)!r}"


def check_quantifier_adjunctions(f: FiniteFunction, cap: int = 4) -> CheckReport:
    """Verify ∃f ⊣ f⁻¹ ⊣ ∀f over ALL subset pairs of the function's universes."""
    _require_cap(cap, f.dom, f.cod)
    rows, cod_full = f.rows, _full(f.cod)
    dom_masks, cod_masks = range(1 << len(f.dom.elements)), range(cod_full + 1)
    direct = [_post(rows, s) for s in dom_masks]
    universal = [_universal(rows, s, cod_full) for s in dom_masks]
    inverse = [_box(rows, t) for t in cod_masks]
    witnesses: list[str] = []
    for s in dom_masks:
        for t in cod_masks:
            if (not direct[s] & ~t) != (not s & ~inverse[t]):
                witnesses.append(f"direct-image adjunction fails at {_at(f, s, t)}")
            if (not inverse[t] & ~s) != (not t & ~universal[s]):
                witnesses.append(f"universal-image adjunction fails at {_at(f, s, t)}")
    return CheckReport(not witnesses, len(dom_masks) * len(cod_masks), tuple(witnesses))


def box(r: FiniteRelation, t: SubsetOf) -> SubsetOf:
    """[R]T: sources all of whose R-successors land in T, the weakest
    precondition of T under R and the right adjoint of post-image."""
    _require_over(t, r.cod, "target set is not over the relation's codomain")
    return _subset(r.dom, _box(r.rows, t.mask))


#: Program-logic name for the same operator.
wp = box


def relation_post_image(r: FiniteRelation, s: SubsetOf) -> SubsetOf:
    """{ y | some x in s is related to y } -- the left adjoint of box."""
    _require_over(s, r.dom, "subset is not over the relation's domain")
    return _subset(r.cod, _post(r.rows, s.mask))


def check_box_adjunction(r: FiniteRelation, cap: int = 4) -> CheckReport:
    """Verify post-image ⊣ box over ALL subset pairs."""
    _require_cap(cap, r.dom, r.cod)
    dom_masks, cod_masks = range(1 << len(r.dom.elements)), range(1 << len(r.cod.elements))
    post = [_post(r.rows, s) for s in dom_masks]
    boxed = [_box(r.rows, t) for t in cod_masks]
    witnesses: list[str] = []
    for s in dom_masks:
        for t in cod_masks:
            if (not post[s] & ~t) != (not s & ~boxed[t]):
                witnesses.append(f"box adjunction fails at {_at(r, s, t)}")
    return CheckReport(not witnesses, len(dom_masks) * len(cod_masks), tuple(witnesses))


@record
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
    """Worlds satisfying the formula; dia is the ¬[R]¬ dual of box."""
    full = _full(frame.worlds)
    return _subset(frame.worlds, _modal(frame, frame.access.rows, full, formula))


def _modal(frame: KripkeFrame, rows: tuple[int, ...], full: int, formula: Formula) -> int:
    """The mask of the worlds satisfying the formula."""
    if isinstance(formula, Atom):
        if formula.args:
            raise UnknownAtom(f"modal atoms are propositional, got {formula.name!r} with arguments")
        value = frame.atom_set(formula.name)
        if value.universe is not frame.worlds and value.universe != frame.worlds:
            raise UniverseMismatch(f"valuation of {formula.name!r} is not over the worlds")
        return value.mask
    if isinstance(formula, Not):
        return full & ~_modal(frame, rows, full, formula.body)
    if isinstance(formula, And):
        return _modal(frame, rows, full, formula.left) & _modal(frame, rows, full, formula.right)
    if isinstance(formula, Or):
        return _modal(frame, rows, full, formula.left) | _modal(frame, rows, full, formula.right)
    if isinstance(formula, Implies):
        left = _modal(frame, rows, full, formula.left)
        return _implies(full, left, _modal(frame, rows, full, formula.right))
    if isinstance(formula, Box):
        return _box(rows, _modal(frame, rows, full, formula.body))
    if isinstance(formula, Dia):
        return full & ~_box(rows, full & ~_modal(frame, rows, full, formula.body))
    raise UnknownAtom(f"quantifiers are not modal operators: {formula!r}")


def boolean_implication(x: SubsetOf, y: SubsetOf) -> SubsetOf:
    """X => Y as complement(X) ∪ Y."""
    _require_over(y, x.universe)
    return _subset(x.universe, _implies(_full(x.universe), x.mask, y.mask))


def check_implication_adjunction(universe: Universe, cap: int = 4) -> CheckReport:
    """Verify X ∩ Y ⊆ Z iff X ⊆ (Y => Z) for ALL subset triples."""
    _require_cap(cap, universe)
    full, masks = _full(universe), range(1 << len(universe.elements))
    implied = [[_implies(full, y, z) for z in masks] for y in masks]
    witnesses: list[str] = []
    for x in masks:
        for y, row in zip(masks, implied):
            for z, y_to_z in zip(masks, row):
                if (not x & y & ~z) != (not x & ~y_to_z):
                    witnesses.append(
                        f"implication adjunction fails at X={_names(universe, x)!r}, "
                        f"Y={_names(universe, y)!r}, Z={_names(universe, z)!r}"
                    )
    return CheckReport(not witnesses, len(masks) ** 3, tuple(witnesses))


def is_down_closed(p: FinitePoset, subset: frozenset) -> bool:
    mask = p.mask(subset)
    return all(p.downs[i] | mask == mask for i in bits(mask))


def _down_set_masks(p: FinitePoset) -> list[int]:
    """Each element, taken after everything below it, joins every down-set
    found so far that holds its strict down-set."""
    closed = [0]
    for i in sorted(range(len(p.elements)), key=lambda i: p.downs[i].bit_count()):
        below = p.downs[i] & ~(1 << i)
        closed += [mask | 1 << i for mask in closed if not below & ~mask]
    closed.sort(key=lambda mask: (mask.bit_count(), list(bits(mask))))
    return closed


def down_sets(p: FinitePoset) -> tuple[frozenset, ...]:
    """All down-closed subsets, ordered by size then by element order."""
    return tuple(frozenset(p.members(mask)) for mask in _down_set_masks(p))


def heyting_implication(p: FinitePoset, x: frozenset, y: frozenset) -> frozenset:
    """The largest down-set Z with Z ∩ X ⊆ Y: intuitionistic implication in the
    down-set lattice.  The scan doubles as the adjunction check, since the
    result must contain every candidate."""
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
    ups = (sum(1 << b for b in everything if not a & ~b) for a in everything)
    return FinitePoset._from_ups(labels, ups), dict(labelled)
