"""Finite categories as explicit tables, plus the arrow-theoretic predicates.

Objects and arrows are identified by name strings at the boundary; equality
of arrows is equality of names.  Composition is stored as a table over
composable pairs, and ``compose(g, f)`` always reads "f then g".

The deciders -- :func:`validate` here, products, the natural-numbers search
and functoriality elsewhere -- work on the category's :class:`Kernel`, dense
integer tables in the style of Rydeheard and Burstall's *Computational
Category Theory* (1988).  Arrow ids follow ``arrows`` order; each object
lists the arrows into and out of it; and each arrow g keeps its
postcomposition row, the id of g∘f for every f into dom g.  Composing is
then two list lookups, and associativity is the row identity
``row(h∘g) == row(h)∘row(g)``.  The kernel is derived on first use and
cached, so a malformed table still constructs; deriving it checks the
structure (dangling ids, a partial or overfull compose table) and raises
:class:`MalformedTable` at the first problem.  The arrow predicates stay
generic over :class:`CategoryView`, guarded by an arrow-count budget so
lazily enumerated categories cannot blow up silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Mapping

from .errors import (
    EnumerationBudgetExceeded,
    MalformedTable,
    UnknownArrow,
    UnknownObject,
)

ObjectId = str
ArrowId = str

#: Default cap on the number of arrows any exhaustive search may enumerate.
DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class Arrow:
    """A named arrow with its domain and codomain objects."""

    name: ArrowId
    dom: ObjectId
    cod: ObjectId


class CategoryView:
    """Enumerable interface onto a category.

    Concrete views expose ``objects`` (a tuple attribute or property) plus the
    methods below.  Hom-sets must enumerate in a fixed deterministic order:
    all witnesses reported by the predicates are the first ones in that order.
    """

    objects: tuple[ObjectId, ...]

    def hom(self, a: ObjectId, b: ObjectId) -> tuple[ArrowId, ...]:
        raise NotImplementedError

    def dom(self, f: ArrowId) -> ObjectId:
        raise NotImplementedError

    def cod(self, f: ArrowId) -> ObjectId:
        raise NotImplementedError

    def compose(self, g: ArrowId, f: ArrowId) -> ArrowId:
        """The composite "f then g"; requires cod(f) == dom(g)."""
        raise NotImplementedError

    def identity(self, a: ObjectId) -> ArrowId:
        raise NotImplementedError

    def all_arrows(self) -> Iterator[ArrowId]:
        for a in self.objects:
            for b in self.objects:
                yield from self.hom(a, b)

    def has_arrow(self, f: ArrowId) -> bool:
        try:
            self.dom(f)
        except UnknownArrow:
            return False
        return True


@dataclass(frozen=True)
class FiniteCategory(CategoryView):
    """A category given by explicit finite tables.

    ``identities`` maps each object to its identity arrow; ``composition``
    maps every composable pair ``(g, f)`` (meaning "f then g") to the name
    of the composite.  The constructor only requires names to be distinct;
    :func:`validate` checks everything else.  The deciders read the
    :meth:`kernel` derived from the tables at their first use, so the
    tables must not be changed after that.
    """

    objects: tuple[ObjectId, ...]
    arrows: tuple[Arrow, ...]
    identities: Mapping[ObjectId, ArrowId]
    composition: Mapping[tuple[ArrowId, ArrowId], ArrowId]

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise MalformedTable("duplicate object names")
        by_name: dict[ArrowId, Arrow] = {}
        for arr in self.arrows:
            if arr.name in by_name:
                raise MalformedTable(f"duplicate arrow name {arr.name!r}")
            by_name[arr.name] = arr
        hom_index: dict[tuple[ObjectId, ObjectId], list[ArrowId]] = {}
        for arr in self.arrows:
            hom_index.setdefault((arr.dom, arr.cod), []).append(arr.name)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self, "_hom", {k: tuple(v) for k, v in hom_index.items()}
        )
        object.__setattr__(self, "_object_set", frozenset(self.objects))

    def arrow(self, f: ArrowId) -> Arrow:
        try:
            return self._by_name[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None

    def hom(self, a: ObjectId, b: ObjectId) -> tuple[ArrowId, ...]:
        for x in (a, b):
            if x not in self._object_set:
                raise UnknownObject(f"unknown object {x!r}")
        return self._hom.get((a, b), ())

    def dom(self, f: ArrowId) -> ObjectId:
        return self.arrow(f).dom

    def cod(self, f: ArrowId) -> ObjectId:
        return self.arrow(f).cod

    def compose(self, g: ArrowId, f: ArrowId) -> ArrowId:
        gf = self.arrow(g)
        ff = self.arrow(f)
        if ff.cod != gf.dom:
            raise ValueError(
                f"arrows not composable: {f!r} ends at {ff.cod!r}, {g!r} starts at {gf.dom!r}"
            )
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise MalformedTable(f"compose table has no entry for ({g!r}, {f!r})") from None

    def identity(self, a: ObjectId) -> ArrowId:
        if a not in self._object_set:
            raise UnknownObject(f"unknown object {a!r}")
        try:
            return self.identities[a]
        except KeyError:
            raise MalformedTable(f"identity table has no entry for {a!r}") from None

    def all_arrows(self) -> Iterator[ArrowId]:
        return iter(arr.name for arr in self.arrows)

    def kernel(self) -> "Kernel":
        """The dense-id tables, derived on first use and cached."""
        try:
            return self._kernel
        except AttributeError:
            kernel = Kernel(self)
            object.__setattr__(self, "_kernel", kernel)
            return kernel


@dataclass(frozen=True)
class Violation:
    """One broken law instance, with the arrows that witness it."""

    law: str
    witnesses: tuple[ArrowId, ...]
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a law check: ok iff the violation list is empty."""

    ok: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: list[Violation]) -> "AxiomReport":
        return cls(ok=not violations, violations=tuple(violations))


def take(positions: list[int]) -> Callable[[tuple], tuple]:
    """The function picking ``positions`` out of a tuple, as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda row: (row[only],)
    return lambda row: ()


class Kernel:
    """Dense-id tables of a :class:`FiniteCategory`.

    Arrow i is ``arrows[i]`` and object k is ``objects[k]``; ``dom`` and
    ``cod`` give object ids.  ``into[k]`` and ``out[k]`` list the arrows
    into and out of object k in arrow order, and ``pos[f]`` is f's index in
    ``into[cod f]``.  ``rows[g][pos[f]]`` is the id of g∘f: the row of g is
    its action by postcomposition on the arrows into its domain.

    Construction raises :class:`MalformedTable` at the first dangling id,
    missing or unknown identity, non-composable entry or missing entry.
    Typing and the laws are left to :func:`validate`.
    """

    __slots__ = ("objects", "object_ids", "names", "ids", "dom", "cod", "into", "out", "pos", "rows", "identity", "_hom")

    def __init__(self, C: FiniteCategory):
        objects = C.objects
        obj_ids = {a: k for k, a in enumerate(objects)}
        names = tuple(arr.name for arr in C.arrows)
        ids = {f: i for i, f in enumerate(names)}
        dom, cod = [], []
        for arr in C.arrows:
            if arr.dom not in obj_ids:
                raise MalformedTable(f"arrow {arr.name!r} has unknown domain {arr.dom!r}")
            if arr.cod not in obj_ids:
                raise MalformedTable(f"arrow {arr.name!r} has unknown codomain {arr.cod!r}")
            dom.append(obj_ids[arr.dom])
            cod.append(obj_ids[arr.cod])
        identity = []
        for a in objects:
            if a not in C.identities:
                raise MalformedTable(f"identity table has no entry for object {a!r}")
            if C.identities[a] not in ids:
                raise MalformedTable(
                    f"identity of {a!r} is the unknown arrow {C.identities[a]!r}"
                )
            identity.append(ids[C.identities[a]])
        for extra in C.identities:
            if extra not in obj_ids:
                raise MalformedTable(f"identity table mentions unknown object {extra!r}")

        into: list[list[int]] = [[] for _ in objects]
        out: list[list[int]] = [[] for _ in objects]
        pos = []
        for i in range(len(names)):
            pos.append(len(into[cod[i]]))
            into[cod[i]].append(i)
            out[dom[i]].append(i)

        rows: list[list] = [[None] * len(into[d]) for d in dom]
        for (g, f), h in C.composition.items():
            gi, fi, hi = ids.get(g), ids.get(f), ids.get(h)
            if gi is None or fi is None or hi is None:
                unknown = next(x for x in (g, f, h) if x not in ids)
                raise MalformedTable(f"compose table mentions unknown arrow {unknown!r}")
            if cod[fi] != dom[gi]:
                raise MalformedTable(
                    f"compose table has an entry for the non-composable pair ({g!r}, {f!r})"
                )
            rows[gi][pos[fi]] = hi
        if len(C.composition) != sum(len(i) * len(o) for i, o in zip(into, out)):
            for fi in range(len(names)):
                for gi in out[cod[fi]]:
                    if rows[gi][pos[fi]] is None:
                        raise MalformedTable(
                            "compose table is partial: missing entry for "
                            f"({names[gi]!r}, {names[fi]!r})"
                        )

        self.objects = objects
        self.object_ids = obj_ids
        self.names = names
        self.ids = ids
        self.dom = dom
        self.cod = cod
        self.into = into
        self.out = out
        self.pos = pos
        self.rows = [tuple(row) for row in rows]
        self.identity = identity
        self._hom = {k: tuple(map(ids.__getitem__, v)) for k, v in C._hom.items()}

    def hom(self, a: ObjectId, b: ObjectId) -> tuple[int, ...]:
        """Ids of the arrows a -> b, in arrow order."""
        for x in (a, b):
            if x not in self.object_ids:
                raise UnknownObject(f"unknown object {x!r}")
        return self._hom.get((a, b), ())

    def compose(self, g: int, f: int) -> int | None:
        """The id of g∘f, or None when cod f is not dom g."""
        return self.rows[g][self.pos[f]] if self.cod[f] == self.dom[g] else None


def validate(C: FiniteCategory) -> AxiomReport:
    """Check the category axioms exhaustively and report every violation.

    Structural problems (dangling ids, a partial compose table) raise
    :class:`MalformedTable`; law violations -- identity typing, composite
    typing, units, associativity -- are all collected into the report, each
    kind in the order of its witnesses' positions in ``arrows``.
    """
    K = C.kernel()
    names, objects = K.names, K.objects
    dom, cod, into, out, pos, rows = K.dom, K.cod, K.into, K.out, K.pos, K.rows
    violations: list[Violation] = []

    for a, i in enumerate(K.identity):
        if dom[i] != a or cod[i] != a:
            violations.append(
                Violation(
                    "identity-typing",
                    (names[i],),
                    f"identity of {objects[a]!r} is typed {objects[dom[i]]!r}->{objects[cod[i]]!r}",
                )
            )

    # g∘f is well typed when its domains, read along the row of g, are those
    # of the arrows into dom g and its codomains are all cod g.
    in_doms = [[dom[f] for f in fs] for fs in into]
    mistyped = []
    ends_at_cod = []
    for g, row in enumerate(rows):
        ends = list(map(cod.__getitem__, row)).count(cod[g]) == len(row)
        ends_at_cod.append(ends)
        if not ends or list(map(dom.__getitem__, row)) != in_doms[dom[g]]:
            for f, h in zip(into[dom[g]], row):
                if dom[h] != dom[f] or cod[h] != cod[g]:
                    mistyped.append((f, g))
    for f, g in sorted(mistyped):
        h = rows[g][pos[f]]
        violations.append(
            Violation(
                "composite-typing",
                (names[g], names[f]),
                f"{names[g]!r} after {names[f]!r} is {names[h]!r}, typed "
                f"{objects[dom[h]]!r}->{objects[cod[h]]!r} instead of "
                f"{objects[dom[f]]!r}->{objects[cod[g]]!r}",
            )
        )

    for f in range(len(names)):
        left = K.compose(K.identity[cod[f]], f)
        if left != f:
            violations.append(
                Violation("left-unit", (names[f],), f"id after {names[f]!r} is {_name(names, left)!r}")
            )
        right = K.compose(f, K.identity[dom[f]])
        if right != f:
            violations.append(
                Violation("right-unit", (names[f],), f"{names[f]!r} after id is {_name(names, right)!r}")
            )

    # For each composable g, h: h∘(g∘f) and (h∘g)∘f over all f into dom g.
    # When every g∘f ends at cod g and h∘g starts at dom g, the two sides are
    # row(h) read at the positions of row(g), and row(h∘g); otherwise each
    # side is composed entry by entry and a non-composable one is None.
    broken = []
    for g, row in enumerate(rows):
        after_g = take([pos[x] for x in row]) if ends_at_cod[g] else None
        for h in out[cod[g]]:
            hg = rows[h][pos[g]]
            if after_g is not None and dom[hg] == dom[g]:
                if after_g(rows[h]) == rows[hg]:
                    continue
            for f, gf in zip(into[dom[g]], row):
                lhs, rhs = K.compose(h, gf), K.compose(hg, f)
                if lhs is None or rhs is None or lhs != rhs:
                    broken.append((f, g, h, lhs, rhs))
    for f, g, h, lhs, rhs in sorted(broken, key=lambda v: v[:3]):
        violations.append(
            Violation(
                "associativity",
                (names[h], names[g], names[f]),
                f"h∘(g∘f) = {_name(names, lhs)!r} but (h∘g)∘f = {_name(names, rhs)!r}",
            )
        )
    return AxiomReport.from_violations(violations)


def _name(names: tuple[ArrowId, ...], i: int | None) -> ArrowId | None:
    return None if i is None else names[i]


class _Budget:
    """Mutable arrow counter raising once the enumeration cap is passed."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, count: int) -> None:
        self.spent += count
        if self.spent > self.limit:
            raise EnumerationBudgetExceeded(
                f"enumeration needs more than {self.limit} arrows"
            )


def monic_counterexample(
    C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> tuple[ArrowId, ArrowId] | None:
    """First pair (g, h) with f∘g = f∘h but g ≠ h, or None if f is monic."""
    source = C.dom(f)
    meter = _Budget(budget)
    for z in C.objects:
        candidates = C.hom(z, source)
        meter.charge(len(candidates))
        first_with: dict[ArrowId, ArrowId] = {}
        for g in candidates:
            composite = C.compose(f, g)
            if composite in first_with:
                return (first_with[composite], g)
            first_with[composite] = g
    return None


def is_monic(C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f is left-cancellable: f∘g = f∘h implies g = h, exhaustively."""
    return monic_counterexample(C, f, budget) is None


def epic_counterexample(
    C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> tuple[ArrowId, ArrowId] | None:
    """First pair (g, h) with g∘f = h∘f but g ≠ h, or None if f is epic."""
    target = C.cod(f)
    meter = _Budget(budget)
    for z in C.objects:
        candidates = C.hom(target, z)
        meter.charge(len(candidates))
        first_with: dict[ArrowId, ArrowId] = {}
        for g in candidates:
            composite = C.compose(g, f)
            if composite in first_with:
                return (first_with[composite], g)
            first_with[composite] = g
    return None


def is_epic(C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f is right-cancellable: g∘f = h∘f implies g = h, exhaustively."""
    return epic_counterexample(C, f, budget) is None


def find_inverse(
    C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> ArrowId | None:
    """The two-sided inverse of f if one exists, else None.

    Searches hom(cod f, dom f) for g with g∘f and f∘g both identities.
    A lawful category admits at most one such g; finding two means the
    tables break the axioms, which is reported as MalformedTable.
    """
    a = C.dom(f)
    b = C.cod(f)
    id_a = C.identity(a)
    id_b = C.identity(b)
    candidates = C.hom(b, a)
    _Budget(budget).charge(len(candidates))
    matches = [
        g
        for g in candidates
        if C.compose(g, f) == id_a and C.compose(f, g) == id_b
    ]
    if len(matches) > 1:
        raise MalformedTable(
            f"arrow {f!r} has several two-sided inverses {matches!r}; "
            "the category laws must be broken"
        )
    return matches[0] if matches else None


def is_isomorphism(C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    return find_inverse(C, f, budget) is not None


def is_groupoid(C: FiniteCategory, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every arrow of C has a two-sided inverse."""
    return all(find_inverse(C, f, budget) is not None for f in C.all_arrows())


def materialize(view: CategoryView, budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """Write out a lazily enumerated view as explicit tables."""
    objs = tuple(view.objects)
    meter = _Budget(budget)
    arrows: list[Arrow] = []
    for a in objs:
        for b in objs:
            names = view.hom(a, b)
            meter.charge(len(names))
            arrows.extend(Arrow(n, a, b) for n in names)
    identities = {a: view.identity(a) for a in objs}
    out: dict[ObjectId, list[ArrowId]] = {a: [] for a in objs}
    for arr in arrows:
        out[arr.dom].append(arr.name)
    composition: dict[tuple[ArrowId, ArrowId], ArrowId] = {}
    for f in arrows:
        for g in out[f.cod]:
            composition[(g, f.name)] = view.compose(g, f.name)
    return FiniteCategory(objs, tuple(arrows), identities, composition)
