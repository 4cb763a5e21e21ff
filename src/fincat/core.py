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
id within a hom, and epic when it is monic in C^op, which is built only for
epic arrows, initial objects and coproducts; g is inverse to f when the row
of f reads id at g and the row of g reads id at f.  Names become ids once,
at the call, and a decider makes names only for what it returns.

The laws are decided on a set G of arrows that generates the category, by
Light's associativity test (Clifford and Preston, *The Algebraic Theory of
Semigroups* I, 1961, §1.2).  With well-typed composites the arrows g such
that (h∘g)∘f = h∘(g∘f) for every composable f and h are closed under
composition, and with the unit laws they include the identities; so if
they include G, they are all the arrows.

A thin category, one whose every hom-set holds at most one arrow (a
preorder, Mac Lane, *Categories for the Working Mathematician*, §I.2), is
decided by typing alone: once identities and composites are well typed,
both sides of every unit and associativity law lie in one hom-set of at
most one arrow, so they are equal.  For the same reason no two parallel
arrows can break monic or epic, and a well-typed map into a thin category
that preserves identities preserves composition.

:class:`FiniteCategory` is the one category type.  A category read from
user tables derives its kernel on first use and caches it, so a malformed
table still constructs; deriving it checks the structure (dangling ids, a
partial or overfull compose table) and raises :class:`MalformedTable` at
the first problem.  The builders hand over ids, arrow names and rows
through :meth:`FiniteCategory.from_rows`, which makes the kernel alone:
names are made on read, an :class:`Arrow` or a composite's name only when
it is asked for, as in Catlab.jl's integer-indexed ``FinCat``
(https://github.com/AlgebraicJulia/Catlab.jl).  Every predicate charges an
arrow-count budget so no search can blow up silently.
"""

from __future__ import annotations

from collections.abc import ItemsView
from itertools import chain, compress, groupby
from operator import itemgetter, ne
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    EnumerationBudgetExceeded,
    MalformedTable,
    UnknownArrow,
    UnknownObject,
    record,
)

ObjectId = str
ArrowId = str

#: Default cap on the number of arrows any exhaustive search may enumerate.
DEFAULT_BUDGET = 100_000


@record
class Arrow:
    """A named arrow with its domain and codomain objects."""

    name: ArrowId
    dom: ObjectId
    cod: ObjectId


@record
class FiniteCategory:
    """A category given by explicit finite tables.

    ``identities`` maps each object to its identity arrow; ``composition``
    maps every composable pair ``(g, f)`` (meaning "f then g") to the name
    of the composite.  The constructor only requires names to be distinct
    and maps each name to its id, its position in ``objects`` or
    ``arrows``; :func:`validate` checks everything else.  Hom-sets list
    their arrows in arrow order, and every witness a decider reports is the
    first one in that order.  The deciders, and ``hom`` and ``compose`` by
    name, read the :meth:`kernel` derived from the tables at its first use,
    so the tables must not be changed after that.  A category made by
    :meth:`from_rows` has only the kernel, and makes names on read.
    """

    objects: tuple[ObjectId, ...]
    arrows: Sequence[Arrow]
    identities: Mapping[ObjectId, ArrowId]
    composition: Mapping[tuple[ArrowId, ArrowId], ArrowId]

    def __post_init__(self):
        ids = _ids(self.objects, [arr.name for arr in self.arrows])
        self.__dict__["_object_ids"], self.__dict__["_arrow_ids"] = ids

    def arrow(self, f: ArrowId) -> Arrow:
        try:
            return self.arrows[self._arrow_ids[f]]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None

    def has_arrow(self, f: ArrowId) -> bool:
        return f in self._arrow_ids

    def all_arrows(self) -> Iterator[ArrowId]:
        return iter(self._arrow_ids)

    def hom(self, a: ObjectId, b: ObjectId) -> tuple[ArrowId, ...]:
        for x in (a, b):
            if x not in self._object_ids:
                raise UnknownObject(f"unknown object {x!r}")
        try:
            K = self.kernel()
        except MalformedTable:
            # a malformed table has no kernel, but its hom-sets can be read
            return tuple(arr.name for arr in self.arrows if (arr.dom, arr.cod) == (a, b))
        return tuple(map(K.names.__getitem__, K.homs[K.object_ids[a]][K.object_ids[b]]))

    def dom(self, f: ArrowId) -> ObjectId:
        return self.arrow(f).dom

    def cod(self, f: ArrowId) -> ObjectId:
        return self.arrow(f).cod

    def compose(self, g: ArrowId, f: ArrowId) -> ArrowId:
        """The composite "f then g"; requires cod(f) == dom(g)."""
        K = self.kernel()
        gi, fi = K.arrow_id(g), K.arrow_id(f)
        if K.cod[fi] != K.dom[gi]:
            raise ValueError(f"arrows not composable: {f!r} ends at {K.objects[K.cod[fi]]!r}, "
                             f"{g!r} starts at {K.objects[K.dom[gi]]!r}")
        return K.names[K.rows[gi][K.pos[fi]]]

    def identity(self, a: ObjectId) -> ArrowId:
        if a not in self._object_ids:
            raise UnknownObject(f"unknown object {a!r}")
        try:
            return self.identities[a]
        except KeyError:
            raise MalformedTable(f"identity table has no entry for {a!r}") from None

    def kernel(self) -> "Kernel":
        """The dense-id tables the deciders read, read off the tables with
        every structure check on first use and kept."""
        if "_kernel" not in self.__dict__:
            object.__setattr__(self, "_kernel", _read_tables(self))
        return self._kernel

    def __eq__(self, other) -> bool:
        """Equal tables make equal categories, whatever the subclass."""
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return (self.objects, self.arrows, self.identities, self.composition) == (
            other.objects, other.arrows, other.identities, other.composition
        )

    def __hash__(self) -> int:
        """Equal categories have the same objects and as many arrows."""
        return hash((self.objects, len(self.arrows)))

    @property
    def category(self) -> "FiniteCategory":
        """The category itself, for callers that read a builder's ``category``."""
        return self

    @classmethod
    def from_rows(
        cls, objects: tuple[ObjectId, ...], names: Sequence[ArrowId], dom: list[int],
        cod: list[int], identity: list[int], rows: Sequence[tuple[int, ...]] | Lazy,
        column: Callable[[int], tuple] | None = None, **fields,
    ) -> "FiniteCategory":
        """The category whose arrows and composites are given by id.

        Arrow i is ``names[i]``, from object ``dom[i]`` to object ``cod[i]``;
        the identity of ``objects[k]`` is arrow ``identity[k]``; ``rows[g]``
        lists the id of g∘f for every f into dom g, in arrow order; and
        ``column`` is passed on to :class:`Kernel`.  The ids are trusted:
        the names are only checked to be distinct, each mapped to its id
        once.  Names are made on read: ``arrows`` and ``composition`` are
        the read-only :class:`Arrows` and :class:`Composites` views of the
        kernel.  ``fields`` are the extra fields of a subclass ``cls``.
        """
        object_ids, ids = _ids(objects, names)
        return _of(Kernel(objects, object_ids, ids, dom, cod, identity, rows, column), cls, **fields)


def _ids(objects: Sequence[ObjectId], names: Sequence[ArrowId]) -> tuple[dict, dict]:
    """Each object's and each arrow's position; a repeated name is malformed."""
    object_ids, ids = dict(zip(objects, range(len(objects)))), dict(zip(names, range(len(names))))
    if len(object_ids) != len(objects):
        raise MalformedTable("duplicate object names")
    if len(ids) != len(names):
        repeated = next(f for i, f in enumerate(names) if f in names[:i])
        raise MalformedTable(f"duplicate arrow name {repeated!r}")
    return object_ids, ids


def _of(K: Kernel, cls: type = FiniteCategory, **fields) -> FiniteCategory:
    """The category ``cls`` whose only tables are the kernel K."""
    C = object.__new__(cls)  # no __post_init__: the kernel has the ids
    identities = {a: K.names[i] for a, i in zip(K.objects, K.identity)}
    C.__dict__.update(objects=K.objects, arrows=Arrows(K), identities=identities,
                      composition=Composites(K), _object_ids=K.object_ids, _arrow_ids=K.ids,
                      _kernel=K, **fields)
    return C


def opposite(C: FiniteCategory) -> FiniteCategory:
    """C^op: the objects and arrow names of C, each arrow reversed, and g∘f
    in C^op named as f∘g in C.  It is made from :meth:`Kernel.op`, so every
    decider run on it is the dual decider on C."""
    return _of(C.kernel().op())


@record
class Violation:
    """One broken law instance, with the arrows that witness it."""

    law: str
    witnesses: tuple[ArrowId, ...]
    detail: str = ""


@record
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


class Kernel:
    """Dense-id tables of a :class:`FiniteCategory`.

    Arrow i is ``names[i]`` and object k is ``objects[k]``; ``ids`` and
    ``object_ids`` map the names back to ids.  ``dom`` and ``cod`` give
    object ids, and ``homs[a][b]`` the ids of the arrows a -> b.
    ``into[k]`` and ``out[k]`` list the arrows into and out of object k in
    arrow order, and ``pos[f]`` is f's index in ``into[cod f]``.
    ``rows[g][pos[f]]`` is the id of g∘f: the row of g is its action by
    postcomposition on the arrows into its domain.  ``rows`` may be any
    table indexed by arrow id, such as a :class:`Lazy` one that makes each
    row when it is first read.  :meth:`op` is the kernel of C^op, whose
    rows are the columns of C (f∘g for every f out of cod g), made on
    first read by ``column(g)`` when it is given and from the rows otherwise.
    ``thin`` is derived from ``homs``: every hom-set holds at most one arrow.

    The constructor takes the tables by id, and the name maps from the
    category, and checks nothing.  :meth:`FiniteCategory.kernel` reads user
    tables with every structure check, and :meth:`FiniteCategory.from_rows`
    hands trusted rows over; typing and the laws are left to
    :func:`validate`.
    """

    __slots__ = (
        "objects", "object_ids", "names", "ids", "dom", "cod", "homs", "into", "out", "pos",
        "rows", "column", "identity", "thin", "gens", "lawful", "_mistyped", "_op",
    )

    def __init__(
        self, objects: tuple[ObjectId, ...], object_ids: dict[ObjectId, int],
        ids: dict[ArrowId, int], dom: list[int], cod: list[int], identity: list[int],
        rows: Sequence[tuple[int, ...]] | Lazy, column: Callable[[int], tuple] | None = None,
    ):
        into: list[list[int]] = [[] for _ in objects]
        out: list[list[int]] = [[] for _ in objects]
        pos = []
        for i, a, b in zip(range(len(dom)), dom, cod):
            pos.append(len(into[b]))
            into[b].append(i)
            out[a].append(i)
        homs: list[list[tuple[int, ...]]] = [[()] * len(objects) for _ in objects]
        for start, row in zip(out, homs):
            for b, arrows in groupby(start, cod.__getitem__):
                row[b] += tuple(arrows)
        self.objects, self.object_ids, self.names, self.ids = objects, object_ids, tuple(ids), ids
        self.dom, self.cod, self.homs, self.identity = dom, cod, homs, identity
        self.into, self.out, self.pos, self.rows, self.column = into, out, pos, rows, column
        self.thin = max(map(len, chain.from_iterable(homs)), default=0) < 2
        self.gens: list[int] | None = None
        self.lawful: bool | None = None
        self._mistyped: list[tuple[int, int]] | None = None
        self._op: Kernel | None = None

    def op(self) -> "Kernel":
        """The kernel of C^op, made once and kept, with no reference back to
        this one.

        It shares this kernel's tables: ``into`` and ``out`` swap, ``homs``
        is transposed, and only the positions in ``out`` are computed.  Its
        rows are the columns of C, made on first read by ``column(g)`` when
        it is given; otherwise the columns of every arrow into an object b
        are made at once, by transposing the rows of the arrows out of b.
        """
        if self._op is None:
            rows, pos, into, out, cod = self.rows, self.pos, self.into, self.out, self.cod
            op_pos = [0] * len(pos)
            for arrows in out:
                for i, f in enumerate(arrows):
                    op_pos[f] = i
            if self.column is None:
                columns = Lazy(lambda b: list(zip(*[rows[f] for f in out[b]])) or [()] * len(into[b]))
                op_rows = Lazy(lambda g: columns[cod[g]][pos[g]])
            else:
                op_rows = Lazy(self.column)
            op = self._op = Kernel.__new__(Kernel)
            op.objects, op.object_ids, op.names, op.ids = self.objects, self.object_ids, self.names, self.ids
            op.dom, op.cod, op.identity, op.thin = cod, self.dom, self.identity, self.thin
            op.homs, op.into, op.out, op.pos = list(map(list, zip(*self.homs))), out, into, op_pos
            op.rows, op.column = op_rows, rows.__getitem__
            op.gens = op.lawful = op._mistyped = op._op = None
        return self._op

    def generators(self) -> list[int]:
        """Arrows G of which, with the identities, every arrow is a
        composite; found on first use and kept.

        The indecomposable arrows join G first, in arrow order: a is one when
        a = g∘f only for f = a or g = a, and if the unit laws hold, every
        generating set holds it.  Then, in arrow order, each arrow that the
        breadth-first closure of the identities under postcomposition by G
        misses joins G.
        """
        if self.gens is None:
            rows, into, dom, cod, pos = self.rows, self.into, self.dom, self.cod, self.pos
            arrows = range(len(dom))
            made = set(self.identity)
            for g in arrows:
                made.update(set(compress(rows[g], map(ne, into[dom[g]], rows[g]))) - {g})
            self.gens, out_gens, reached = [], [[] for _ in self.objects], bytearray(len(dom))

            def reach(queue: list[int]) -> None:
                for y in queue:
                    if not reached[y]:
                        reached[y] = 1
                        queue.extend([rows[g][pos[y]] for g in out_gens[cod[y]]])

            reach(list(self.identity))
            for a in [a for a in arrows if a not in made] + list(arrows):
                if not reached[a]:
                    self.gens.append(a)
                    out_gens[dom[a]].append(a)
                    reach([a] + [h for x, h in zip(into[dom[a]], rows[a]) if reached[x]])
        return self.gens

    def mistyped(self) -> list[tuple[int, int]]:
        """The composable pairs (f, g) whose composite g∘f does not run from
        dom f to cod g, in order; found on first use and kept.

        g∘f is well typed when its domains, read along the row of g, are
        those of the arrows into dom g and its codomains are all cod g.
        """
        if self._mistyped is None:
            dom, cod, into = self.dom, self.cod, self.into
            in_doms = [[dom[f] for f in fs] for fs in into]
            found = []
            for g in range(len(dom)):
                row = self.rows[g]
                if list(map(cod.__getitem__, row)).count(cod[g]) != len(row) or (
                    list(map(dom.__getitem__, row)) != in_doms[dom[g]]
                ):
                    found += [(f, g) for f, h in zip(into[dom[g]], row)
                              if dom[h] != dom[f] or cod[h] != cod[g]]
            self._mistyped = sorted(found)
        return self._mistyped

    def pairs(self) -> int:
        """The number of composable pairs (g, f): the entries of all rows."""
        return sum(len(i) * len(o) for i, o in zip(self.into, self.out))

    def arrow_id(self, f: ArrowId) -> int:
        try:
            return self.ids[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None

    def object_id(self, a: ObjectId) -> int:
        try:
            return self.object_ids[a]
        except KeyError:
            raise UnknownObject(f"unknown object {a!r}") from None

    def compose(self, g: int, f: int) -> int | None:
        """The id of g∘f, or None when cod f is not dom g."""
        return self.rows[g][self.pos[f]] if self.cod[f] == self.dom[g] else None


def _read_tables(C: FiniteCategory) -> Kernel:
    """The kernel of user tables.

    Raises :class:`MalformedTable` at the first dangling id, missing or
    unknown identity, non-composable entry or missing entry.
    """
    objects, obj_ids, ids = C.objects, C._object_ids, C._arrow_ids
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

    K = Kernel(objects, obj_ids, ids, dom, cod, identity, [])  # rows are filled in below
    into, pos, out = K.into, K.pos, K.out
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
    if len(C.composition) != K.pairs():
        for fi, f in enumerate(ids):
            for gi in out[cod[fi]]:
                if rows[gi][pos[fi]] is None:
                    raise MalformedTable(
                        "compose table is partial: missing entry for "
                        f"({C.arrows[gi].name!r}, {f!r})"
                    )
    K.rows.extend(map(tuple, rows))
    return K


class Arrows(Sequence):
    """The arrows of a category built by id, each made when it is read; it
    compares equal to the tuple of the same arrows."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel: Kernel):
        self._kernel = kernel

    def __len__(self) -> int:
        return len(self._kernel.names)

    def __getitem__(self, i):
        K = self._kernel
        if isinstance(i, slice):
            return tuple(self)[i]
        return Arrow(K.names[i], K.objects[K.dom[i]], K.objects[K.cod[i]])

    def __iter__(self) -> Iterator[Arrow]:
        K, at = self._kernel, self._kernel.objects.__getitem__
        return map(Arrow, K.names, map(at, K.dom), map(at, K.cod))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, Arrows)):
            return NotImplemented
        return tuple(self) == tuple(other)


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
        return self._kernel.pairs()

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
    kind in the order of its witnesses' positions in ``arrows``.  A thin
    kernel whose identities and composites are well typed is lawful, with
    no unit or associativity check (see the module docstring).  Otherwise,
    once the typing and the unit laws hold, associativity is tested on the
    rows of the kernel's generators alone, which is enough by Light's test;
    if that fails, every composable pair is scanned for the report.  The
    composite typing is kept on the kernel, as :meth:`Kernel.mistyped`, and
    the verdict as ``lawful``.
    """
    K = C.kernel()
    if K.lawful:
        return AxiomReport(True, ())
    names, objects = K.names, K.objects
    dom, cod, into, out, pos = K.dom, K.cod, K.into, K.out, K.pos
    rows = [K.rows[g] for g in range(len(names))]
    violations: list[Violation] = []

    for a, i in enumerate(K.identity):
        if dom[i] != a or cod[i] != a:
            violations.append(Violation(
                "identity-typing", (names[i],),
                f"identity of {objects[a]!r} is typed {objects[dom[i]]!r}->{objects[cod[i]]!r}",
            ))

    mistyped = K.mistyped()
    for f, g in mistyped:
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
    if K.thin and not violations:
        K.lawful = True
        return AxiomReport(True, ())

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

    # For g in gs and each h out of cod g: h∘(g∘f) and (h∘g)∘f for all f into
    # dom g.  When every g∘f ends at cod g and h∘g starts at dom g, the sides
    # are row(h) read at the positions of row(g), and row(h∘g); otherwise
    # each is composed entry by entry, and a non-composable one is None.
    def breaks(gs) -> Iterator[tuple]:
        for g in gs:
            row = rows[g]
            ends = not mistyped or list(map(cod.__getitem__, row)).count(cod[g]) == len(row)
            after_g = take([pos[x] for x in row]) if ends else None
            for h in out[cod[g]]:
                hg = rows[h][pos[g]]
                if after_g is not None and dom[hg] == dom[g]:
                    if after_g(rows[h]) == rows[hg]:
                        continue
                for f, gf in zip(into[dom[g]], row):
                    lhs, rhs = K.compose(h, gf), K.compose(hg, f)
                    if lhs is None or rhs is None or lhs != rhs:
                        yield f, g, h, lhs, rhs

    K.lawful = not violations and not any(breaks(K.generators()))
    if K.lawful:
        return AxiomReport(True, ())
    for f, g, h, lhs, rhs in sorted(breaks(range(len(names))), key=lambda v: v[:3]):
        violations.append(Violation(
            "associativity", (names[h], names[g], names[f]),
            f"h∘(g∘f) = {_name(names, lhs)!r} but (h∘g)∘f = {_name(names, rhs)!r}",
        ))
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


def _monic(K: Kernel, f: ArrowId, budget: int) -> tuple[ArrowId, ArrowId] | None:
    """First (g, h), g before h in one hom into dom f, with f∘g = f∘h, or None.

    A thin kernel has no such pair, since no two arrows share a hom; nor
    has a row of f that repeats no id.  Otherwise the homs are scanned in
    object order, each charged to the budget before it is read, so that the
    budget raises where a search hom by hom would.  With no pair, each way
    charges the whole row in the end, and the first without reading it.
    """
    f = K.arrow_id(f)
    meter = _Budget(budget)
    if K.thin:
        meter.charge(len(K.into[K.dom[f]]))
        return None
    row, pos, source = K.rows[f], K.pos, K.dom[f]
    if len(set(row)) == len(row):
        meter.charge(len(row))
        return None
    for hom in [homs[source] for homs in K.homs]:
        meter.charge(len(hom))
        first_with: dict = {}
        for g in hom:
            composite = row[pos[g]]
            if composite in first_with:
                return (K.names[first_with[composite]], K.names[g])
            first_with[composite] = g
    return None


def monic_counterexample(
    C: FiniteCategory, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> tuple[ArrowId, ArrowId] | None:
    """First pair (g, h) with f∘g = f∘h but g ≠ h, or None if f is monic;
    the pairs are searched hom by hom, in object order and then hom order."""
    return _monic(C.kernel(), f, budget)


def is_monic(C: FiniteCategory, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f is left-cancellable: f∘g = f∘h implies g = h, exhaustively."""
    return monic_counterexample(C, f, budget) is None


def epic_counterexample(
    C: FiniteCategory, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> tuple[ArrowId, ArrowId] | None:
    """First pair (g, h) with g∘f = h∘f but g ≠ h, or None if f is epic:
    the monic search run on C^op, in the same order.  On a thin category
    it reads no column of C."""
    return _monic(C.kernel().op(), f, budget)


def is_epic(C: FiniteCategory, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f is right-cancellable: g∘f = h∘f implies g = h, exhaustively."""
    return epic_counterexample(C, f, budget) is None


def find_inverse(
    C: FiniteCategory, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> ArrowId | None:
    """The two-sided inverse of f if one exists, else None.

    Searches hom(cod f, dom f) for g with f∘g and g∘f both identities,
    reading f∘g off the row of f and, only if it is one, g∘f off the row of
    g; when that hom is empty, once it is charged to the budget, no row is
    read.  A lawful category admits at most one such g; finding two means
    the tables break the axioms, which is reported as MalformedTable.
    """
    K = C.kernel()
    f = K.arrow_id(f)
    a, b = K.dom[f], K.cod[f]
    candidates = K.homs[b][a]
    _Budget(budget).charge(len(candidates))
    if not candidates:
        return None
    rows, pos, id_a, id_b = K.rows, K.pos, K.identity[a], K.identity[b]
    row, at_f = rows[f], pos[f]
    matches = [K.names[g] for g in candidates if row[pos[g]] == id_b and rows[g][at_f] == id_a]
    if len(matches) > 1:
        raise MalformedTable(
            f"arrow {K.names[f]!r} has several two-sided inverses {matches!r}; "
            "the category laws must be broken"
        )
    return matches[0] if matches else None


def is_isomorphism(C: FiniteCategory, f: ArrowId, budget: int = DEFAULT_BUDGET) -> bool:
    return find_inverse(C, f, budget) is not None


def is_groupoid(C: FiniteCategory, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every arrow of C has a two-sided inverse."""
    return all(find_inverse(C, f, budget) is not None for f in C.all_arrows())


def materialize(C: FiniteCategory, budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """C itself, once its arrows are charged to the budget."""
    _Budget(budget).charge(len(C.arrows))
    return C
