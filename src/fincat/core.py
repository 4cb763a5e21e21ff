"""Finite categories as explicit tables, plus the arrow-theoretic predicates.

Objects and arrows are identified by name strings at the boundary; equality
of arrows is equality of names.  Composition is stored as a table over
composable pairs, and ``compose(g, f)`` always reads "f then g".

Every decider -- :func:`validate` and the arrow predicates here, products,
the natural-numbers search and functoriality elsewhere -- works on the
category's :class:`Kernel`, dense integer tables in the style of Rydeheard
and Burstall's *Computational Category Theory* (1988).  Arrow ids follow
``arrows`` order; each object lists the arrows into and out of it; and each
arrow g keeps its postcomposition row, the id of g∘f for every f into
dom g.  Composing is then two list lookups, associativity is the row
identity ``row(h∘g) == row(h)∘row(g)``, f is monic when its row repeats no
id within a hom, and epic when its column (g∘f for every g out of cod f)
does not.

A category read from user tables derives its kernel on first use and caches
it, so a malformed table still constructs; deriving it checks the structure
(dangling ids, a partial or overfull compose table) and raises
:class:`MalformedTable` at the first problem.  The builders compose by id
and hand their rows over through :meth:`FiniteCategory.from_rows`; such a
category's ``composition`` is a read-only view of the rows, which may be
made on first use, as the matrix categories do.  Names are used only to
read and report arrows, as in Catlab.jl's integer-indexed ``FinCat``
(https://github.com/AlgebraicJulia/Catlab.jl).  A :class:`CategoryView`
written by a user is read through :func:`materialize`, and every predicate
charges an arrow-count budget so no search can blow up silently.
"""

from __future__ import annotations

from collections.abc import ItemsView
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

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
    """The interface :func:`materialize` reads to write a category out.

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

    def kernel(self) -> "Kernel":
        """The dense-id tables the deciders read, made on first use and kept:
        a :class:`FiniteCategory`'s are read off its tables, and any other
        view's are those of :func:`materialize` at the default budget."""
        try:
            return self._kernel
        except AttributeError:
            kernel = _read_tables(self) if isinstance(self, FiniteCategory) else materialize(self).kernel()
            object.__setattr__(self, "_kernel", kernel)
            return kernel


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

    def __eq__(self, other) -> bool:
        """Equal tables make equal categories, whatever the subclass."""
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return (self.objects, self.arrows, self.identities, self.composition) == (
            other.objects, other.arrows, other.identities, other.composition
        )

    @property
    def category(self) -> "FiniteCategory":
        """The category itself, for callers that read a builder's ``category``."""
        return self

    @classmethod
    def from_rows(
        cls,
        objects: tuple[ObjectId, ...],
        arrows: tuple[Arrow, ...],
        identity: list[int],
        rows: Sequence[tuple[int, ...]] | Lazy,
        column: Callable[[int], tuple[int, ...]] | None = None,
        **fields,
    ) -> "FiniteCategory":
        """The category whose composites are given by id, as kernel rows.

        Arrow i is ``arrows[i]``, the identity of ``objects[k]`` is arrow
        ``identity[k]``, and ``rows[g]`` lists the id of g∘f for every f
        into dom g, in arrow order; ``column`` is passed on to
        :class:`Kernel`.  The rows are trusted, so none of the structure
        checks of user tables runs; ``composition`` is the read-only
        :class:`Composites` view of them.  ``fields`` are the extra fields
        of a subclass ``cls``.
        """
        object_ids = {a: k for k, a in enumerate(objects)}
        kernel = Kernel(
            objects,
            tuple(arr.name for arr in arrows),
            [object_ids[arr.dom] for arr in arrows],
            [object_ids[arr.cod] for arr in arrows],
            identity,
            rows,
            column,
        )
        identities = {a: kernel.names[i] for a, i in zip(objects, identity)}
        C = cls(objects, arrows, identities, Composites(kernel), **fields)
        object.__setattr__(C, "_kernel", kernel)
        return C


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


class Lazy(dict):
    """A dict that makes a missing entry with ``make`` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _lists(ends: list[int], count: int) -> tuple[list[list[int]], list[int]]:
    """The arrows at each of ``count`` objects, in arrow order, given one end
    of every arrow, and each arrow's position in its object's list."""
    lists: list[list[int]] = [[] for _ in range(count)]
    positions = []
    for i, end in enumerate(ends):
        positions.append(len(lists[end]))
        lists[end].append(i)
    return lists, positions


class Kernel:
    """Dense-id tables of a :class:`FiniteCategory`.

    Arrow i is ``names[i]`` and object k is ``objects[k]``; ``dom`` and
    ``cod`` give object ids, and ``homs[a][b]`` the ids of the arrows a -> b.
    ``into[k]`` and ``out[k]`` list the arrows into and out of object k in
    arrow order; ``pos[f]`` is f's index in ``into[cod f]`` and ``opos[f]``
    in ``out[dom f]``.  ``rows[g][pos[f]]`` is the id of g∘f: the row of g
    is its action by postcomposition on the arrows into its domain.
    ``rows`` may be any table indexed by arrow id, such as a :class:`Lazy`
    one that makes each row when it is first read.  ``cols[f][opos[g]]`` is
    the same id, read as the column of f over the arrows out of its
    codomain; columns are made on first use, by ``column(f)`` when it is
    given and from the rows otherwise.

    The constructor takes the tables by id and checks nothing;
    :meth:`FiniteCategory.kernel` reads user tables with every structure
    check.  Typing and the laws are left to :func:`validate`.
    """

    __slots__ = (
        "objects", "object_ids", "names", "ids", "dom", "cod", "homs",
        "into", "out", "pos", "opos", "rows", "cols", "identity",
    )

    def __init__(
        self,
        objects: tuple[ObjectId, ...],
        names: tuple[ArrowId, ...],
        dom: list[int],
        cod: list[int],
        identity: list[int],
        rows: Sequence[tuple[int, ...]] | Lazy,
        column: Callable[[int], tuple[int, ...]] | None = None,
    ):
        into, pos = _lists(cod, len(objects))
        out, opos = _lists(dom, len(objects))
        homs: list[list[list[int]]] = [[[] for _ in objects] for _ in objects]
        for i, (a, b) in enumerate(zip(dom, cod)):
            homs[a][b].append(i)
        self.objects = objects
        self.object_ids = {a: k for k, a in enumerate(objects)}
        self.names = names
        self.ids = {f: i for i, f in enumerate(names)}
        self.dom = dom
        self.cod = cod
        self.homs = [list(map(tuple, row)) for row in homs]
        self.into = into
        self.out = out
        self.pos = pos
        self.opos = opos
        self.rows = rows
        self.cols = Lazy(column or (lambda f: tuple([rows[g][pos[f]] for g in out[cod[f]]])))
        self.identity = identity

    def arrow_id(self, f: ArrowId) -> int:
        try:
            return self.ids[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None

    def hom(self, a: ObjectId, b: ObjectId) -> tuple[int, ...]:
        """Ids of the arrows a -> b, in arrow order."""
        for x in (a, b):
            if x not in self.object_ids:
                raise UnknownObject(f"unknown object {x!r}")
        return self.homs[self.object_ids[a]][self.object_ids[b]]

    def compose(self, g: int, f: int) -> int | None:
        """The id of g∘f, or None when cod f is not dom g."""
        return self.rows[g][self.pos[f]] if self.cod[f] == self.dom[g] else None


def _read_tables(C: FiniteCategory) -> Kernel:
    """The kernel of user tables.

    Raises :class:`MalformedTable` at the first dangling id, missing or
    unknown identity, non-composable entry or missing entry.
    """
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

    into, pos = _lists(cod, len(objects))
    out = _lists(dom, len(objects))[0]
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
    return Kernel(objects, names, dom, cod, identity, [tuple(row) for row in rows])


class Composites(Mapping):
    """The compose table of a category built by id, read off its kernel rows.

    The keys are the composable name pairs (g, f), f in arrow order and, for
    each, g over the arrows out of cod f; the value is the name of g∘f.  It
    compares equal to the dict with the same items, and any other key, a
    non-composable pair included, raises KeyError.
    """

    __slots__ = ("_kernel",)

    def __init__(self, kernel: Kernel):
        self._kernel = kernel

    def __getitem__(self, key: tuple[ArrowId, ArrowId]) -> ArrowId:
        K = self._kernel
        try:
            g, f = key
            g, f = K.ids[g], K.ids[f]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if K.cod[f] != K.dom[g]:
            raise KeyError(key)
        return K.names[K.rows[g][K.pos[f]]]

    def __iter__(self) -> Iterator[tuple[ArrowId, ArrowId]]:
        return (key for key, _ in self._items())

    def __len__(self) -> int:
        K = self._kernel
        return sum(len(i) * len(o) for i, o in zip(K.into, K.out))

    def items(self) -> ItemsView:
        return _CompositeItems(self)

    def _items(self) -> Iterator[tuple[tuple[ArrowId, ArrowId], ArrowId]]:
        K = self._kernel
        names, rows, pos, out, cod = K.names, K.rows, K.pos, K.out, K.cod
        for f, name in enumerate(names):
            at = pos[f]
            for g in out[cod[f]]:
                yield (names[g], name), names[rows[g][at]]


class _CompositeItems(ItemsView):
    """Items read off the rows directly, not key by key."""

    def __iter__(self):
        return self._mapping._items()


def validate(C: FiniteCategory) -> AxiomReport:
    """Check the category axioms exhaustively and report every violation.

    Structural problems (dangling ids, a partial compose table) raise
    :class:`MalformedTable`; law violations -- identity typing, composite
    typing, units, associativity -- are all collected into the report, each
    kind in the order of its witnesses' positions in ``arrows``.
    """
    K = C.kernel()
    names, objects = K.names, K.objects
    dom, cod, into, out, pos = K.dom, K.cod, K.into, K.out, K.pos
    rows = [K.rows[g] for g in range(len(names))]
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


def _first_repeat(K, line, at, homs, budget: int) -> tuple[ArrowId, ArrowId] | None:
    """First (g, h), g before h in one hom of ``homs``, with the same
    composite ``line[at[g]] == line[at[h]]``, or None.

    A line that repeats no id has no such pair.  Otherwise the homs are
    scanned in order, each charged to the budget before it is read, so the
    budget raises at the same point as a search hom by hom.
    """
    meter = _Budget(budget)
    if len(set(line)) == len(line):
        meter.charge(len(line))
        return None
    for hom in homs:
        meter.charge(len(hom))
        first_with: dict = {}
        for g in hom:
            composite = line[at[g]]
            if composite in first_with:
                return (K.names[first_with[composite]], K.names[g])
            first_with[composite] = g
    return None


def monic_counterexample(
    C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> tuple[ArrowId, ArrowId] | None:
    """First pair (g, h) with f∘g = f∘h but g ≠ h, or None if f is monic.

    f∘g is read off the row of f; the pairs are searched hom by hom, in
    object order and then hom order.
    """
    K = C.kernel()
    f = K.arrow_id(f)
    source = K.dom[f]
    homs = (K.homs[z][source] for z in range(len(K.objects)))
    return _first_repeat(K, K.rows[f], K.pos, homs, budget)


def is_monic(C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f is left-cancellable: f∘g = f∘h implies g = h, exhaustively."""
    return monic_counterexample(C, f, budget) is None


def epic_counterexample(
    C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> tuple[ArrowId, ArrowId] | None:
    """First pair (g, h) with g∘f = h∘f but g ≠ h, or None if f is epic.

    g∘f is read off the column of f; the pairs are searched hom by hom, in
    object order and then hom order.
    """
    K = C.kernel()
    f = K.arrow_id(f)
    target = K.cod[f]
    homs = (K.homs[target][z] for z in range(len(K.objects)))
    return _first_repeat(K, K.cols[f], K.opos, homs, budget)


def is_epic(C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f is right-cancellable: g∘f = h∘f implies g = h, exhaustively."""
    return epic_counterexample(C, f, budget) is None


def find_inverse(
    C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> ArrowId | None:
    """The two-sided inverse of f if one exists, else None.

    Searches hom(cod f, dom f) for g with g∘f and f∘g both identities,
    reading the column and the row of f.  A lawful category admits at most
    one such g; finding two means the tables break the axioms, which is
    reported as MalformedTable.
    """
    K = C.kernel()
    f = K.arrow_id(f)
    a, b = K.dom[f], K.cod[f]
    id_a, id_b = K.identity[a], K.identity[b]
    candidates = K.homs[b][a]
    _Budget(budget).charge(len(candidates))
    row, col, pos, opos = K.rows[f], K.cols[f], K.pos, K.opos
    matches = [
        K.names[g] for g in candidates if col[opos[g]] == id_a and row[pos[g]] == id_b
    ]
    if len(matches) > 1:
        raise MalformedTable(
            f"arrow {K.names[f]!r} has several two-sided inverses {matches!r}; "
            "the category laws must be broken"
        )
    return matches[0] if matches else None


def is_isomorphism(C: CategoryView, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    return find_inverse(C, f, budget) is not None


def is_groupoid(C: FiniteCategory, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every arrow of C has a two-sided inverse."""
    return all(find_inverse(C, f, budget) is not None for f in C.all_arrows())


def materialize(view: CategoryView, budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """The view as explicit tables.

    A :class:`FiniteCategory` is returned as it is once its arrows are
    charged to the budget.  Any other view is read hom by hom in object
    order, each hom charged to the budget, and then composed with every
    arrow into its domain, in that same order, to make its row.  A view
    whose identity or composite is not among the listed arrows raises
    :class:`MalformedTable`.
    """
    meter = _Budget(budget)
    if isinstance(view, FiniteCategory):
        meter.charge(len(view.arrows))
        return view
    objs = tuple(view.objects)
    arrows: list[Arrow] = []
    into: dict[ObjectId, list[ArrowId]] = {a: [] for a in objs}
    for a in objs:
        for b in objs:
            names = view.hom(a, b)
            meter.charge(len(names))
            arrows.extend(Arrow(n, a, b) for n in names)
            into[b].extend(names)
    ids = {arr.name: i for i, arr in enumerate(arrows)}
    identities = [view.identity(a) for a in objs]
    rows = [[view.compose(arr.name, f) for f in into[arr.dom]] for arr in arrows]
    for name in chain(identities, *rows):
        if name not in ids:
            raise MalformedTable(f"the view names the unknown arrow {name!r}")
    return FiniteCategory.from_rows(
        objs,
        tuple(arrows),
        [ids[name] for name in identities],
        [tuple(map(ids.__getitem__, row)) for row in rows],
    )
