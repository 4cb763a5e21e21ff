"""Adjunctions between finite posets: best approximations, adjoint search,
certificate checking, and the floor/ceiling inclusion worked end to end.

Everything is exact -- comparisons are order-table lookups, never tolerances.
An adjoint pair here is a Galois connection: monotone f : P -> Q and
g : Q -> P with ``x <= g(z)  iff  f(x) <= z`` for all x, z.

Orders are bitmasks: a subset of a poset is the int whose bit i stands for
``elements[i]``, and each element keeps its up-set and down-set as masks.
With n elements and m related pairs, construction and validation take O(m)
mask operations (``from_relation`` closes by Warshall's algorithm, O(n²));
``le`` is two index lookups and a bit test; ``least_of``, ``greatest_of``,
``glb`` and ``lub`` take one AND per member; ``MonotoneMap`` checks one bit
per related pair of its domain; adjoint search and ``adjunction_witness``
take O(|P|·|Q|) bit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import AdjunctionFails, InvalidPoset, NotMonotone, UnknownElement

Element = str


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _indexed(elements: tuple) -> dict:
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise InvalidPoset("duplicate elements")
    return index


@dataclass(frozen=True)
class FinitePoset:
    """A finite carrier with a reflexive, transitive, antisymmetric relation.

    ``leq`` must contain every related pair explicitly, reflexive pairs
    included; :meth:`from_relation` closes an arbitrary sparse relation first.
    Construction derives ``index`` (element -> position) and the masks of the
    elements above (``ups[i]``) and below (``downs[i]``) ``elements[i]``; a
    violation is reported at its first element in element order.
    """

    elements: tuple[Element, ...]
    leq: frozenset[tuple[Element, Element]]

    def __post_init__(self):
        index = _indexed(self.elements)
        ups = [0] * len(index)
        downs = [0] * len(index)
        try:
            for x, y in self.leq:
                i, j = index[x], index[y]
                ups[i] |= 1 << j
                downs[j] |= 1 << i
        except KeyError:
            x, y = min((p for p in self.leq if not {*p} <= index.keys()), key=repr)
            raise InvalidPoset(f"relation mentions unknown element in ({x!r}, {y!r})") from None
        names = self.elements
        for i, x in enumerate(names):
            if not ups[i] >> i & 1:
                raise InvalidPoset(f"relation is not reflexive at {x!r}")
        for i, x in enumerate(names):
            for j in bits(ups[i]):
                if ups[j] & ~ups[i]:
                    z = names[next(bits(ups[j] & ~ups[i]))]
                    raise InvalidPoset(f"relation is not transitive: {x!r} <= {names[j]!r} <= {z!r}")
        for i, x in enumerate(names):
            if ups[i] & downs[i] != 1 << i:
                y = names[next(bits(ups[i] & downs[i] & ~(1 << i)))]
                raise InvalidPoset(f"relation is not antisymmetric on {x!r}, {y!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ups", tuple(ups))
        object.__setattr__(self, "downs", tuple(downs))

    @classmethod
    def from_relation(
        cls, elements: Iterable[Element], pairs: Iterable[tuple[Element, Element]]
    ) -> "FinitePoset":
        """Build a poset from a sparse relation: reflexive-transitive closure
        is applied, then antisymmetry is checked."""
        elems = tuple(elements)
        index = _indexed(elems)
        ups = [1 << i for i in range(len(elems))]
        for x, y in pairs:
            if x not in index or y not in index:
                raise InvalidPoset(f"relation mentions unknown element in ({x!r}, {y!r})")
            ups[index[x]] |= 1 << index[y]
        for k in range(len(elems)):  # Warshall: paths through elements[k]
            bit, above = 1 << k, ups[k]
            for i, row in enumerate(ups):
                if row & bit:
                    ups[i] = row | above
        return cls(elems, frozenset((x, elems[j]) for x, row in zip(elems, ups) for j in bits(row)))

    @classmethod
    def chain(cls, elements: Iterable[Element]) -> "FinitePoset":
        """Total order in the given element order."""
        elems = tuple(elements)
        return cls(elems, frozenset((x, y) for i, x in enumerate(elems) for y in elems[i:]))

    @classmethod
    def antichain(cls, elements: Iterable[Element]) -> "FinitePoset":
        elems = tuple(elements)
        return cls(elems, frozenset((x, x) for x in elems))

    def position(self, x: Element) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def le(self, x: Element, y: Element) -> bool:
        return bool(self.ups[self.position(x)] >> self.position(y) & 1)

    def mask(self, subset: Iterable[Element]) -> int:
        """The mask of ``subset``; raises UnknownElement on a stranger."""
        return sum(1 << self.position(x) for x in set(subset))

    def members(self, mask: int) -> tuple[Element, ...]:
        """The elements of ``mask`` in element order."""
        return tuple(self.elements[i] for i in bits(mask))

    def _pick(self, mask: int, bounds: tuple[int, ...]) -> Element | None:
        """The member of ``mask`` bounding all of it: least when ``bounds`` are downs."""
        found = mask
        for i in bits(mask):
            found &= bounds[i]
        return self.elements[next(bits(found))] if found else None

    def least_of(self, subset: Iterable[Element]) -> Element | None:
        """The least element of ``subset`` within this order, if any."""
        return self._pick(self.mask(subset), self.downs)

    def greatest_of(self, subset: Iterable[Element]) -> Element | None:
        return self._pick(self.mask(subset), self.ups)

    def glb(self, x: Element, y: Element) -> Element | None:
        """Greatest lower bound of x and y, if any."""
        return self._pick(self.downs[self.position(x)] & self.downs[self.position(y)], self.ups)

    def lub(self, x: Element, y: Element) -> Element | None:
        return self._pick(self.ups[self.position(x)] & self.ups[self.position(y)], self.downs)


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving total map between finite posets; ``image[i]`` is
    the codomain position of the image of ``dom.elements[i]``."""

    dom: FinitePoset
    cod: FinitePoset
    graph: Mapping[Element, Element]

    def __post_init__(self):
        for x in self.dom.elements:
            if x not in self.graph:
                raise UnknownElement(f"map is undefined on {x!r}")
            if self.graph[x] not in self.cod.index:
                raise UnknownElement(f"map sends {x!r} to unknown element {self.graph[x]!r}")
        for extra in self.graph:
            if extra not in self.dom.index:
                raise UnknownElement(f"map is defined on unknown element {extra!r}")
        image = tuple(self.cod.index[self.graph[x]] for x in self.dom.elements)
        for i, x in enumerate(self.dom.elements):
            allowed = self.cod.ups[image[i]]
            for j in bits(self.dom.ups[i]):
                if not allowed >> image[j] & 1:
                    y = self.dom.elements[j]
                    raise NotMonotone(
                        f"{x!r} <= {y!r} but images {self.graph[x]!r}, "
                        f"{self.graph[y]!r} are not ordered",
                        witness=(x, y),
                    )
        object.__setattr__(self, "image", image)

    def __call__(self, x: Element) -> Element:
        try:
            return self.graph[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def preimage(self, mask: int) -> int:
        """The mask over dom of the elements sent into ``mask`` over cod."""
        return sum(1 << i for i, c in enumerate(self.image) if mask >> c & 1)

    @classmethod
    def identity(cls, P: FinitePoset) -> "MonotoneMap":
        return cls(P, P, {x: x for x in P.elements})


def compose_maps(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """The composite "f then g"; requires f.cod == g.dom."""
    if f.cod != g.dom:
        raise ValueError("maps are not composable")
    return MonotoneMap(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})


@dataclass(frozen=True)
class Approximation:
    """Approximants of one element, with the least one when it exists.

    ``status`` separates the two failure modes: "empty" (nothing above x at
    all) versus "no-least" (approximants exist but none is below the others).
    """

    element: Element
    approximants: tuple[Element, ...]
    best: Element | None
    status: str  # "found" | "empty" | "no-least"


def approximation_report(g: MonotoneMap, x: Element) -> Approximation:
    """All y in dom(g) with x <= g(y), and the least such y when it exists."""
    above = g.preimage(g.cod.ups[g.cod.position(x)])
    least = g.dom._pick(above, g.dom.downs)
    status = "found" if least is not None else "no-least" if above else "empty"
    return Approximation(x, g.dom.members(above), least, status)


def best_approximation(g: MonotoneMap, x: Element) -> Element | None:
    """The least y with x <= g(y), or None (no approximants, or no least one)."""
    return approximation_report(g, x).best


def greatest_below(f: MonotoneMap, z: Element) -> Element | None:
    """The greatest x with f(x) <= z, or None: the right adjoint's value at z."""
    return f.dom._pick(f.preimage(f.cod.downs[f.cod.position(z)]), f.dom.ups)


def _pointwise(m: MonotoneMap, search) -> MonotoneMap | None:
    """The map cod -> dom found pointwise by ``search``, if total (and re-checked monotone)."""
    graph = {}
    for x in m.cod.elements:
        found = search(m, x)
        if found is None:
            return None
        graph[x] = found
    return MonotoneMap(m.cod, m.dom, graph)


def left_adjoint(g: MonotoneMap) -> MonotoneMap | None:
    """The map f with x <= g(z) iff f(x) <= z, if every x has a best approximant."""
    return _pointwise(g, best_approximation)


def right_adjoint(f: MonotoneMap) -> MonotoneMap | None:
    """The map g with f(x) <= z iff x <= g(z): g(z) is the greatest x with f(x) <= z."""
    return _pointwise(f, greatest_below)


def adjunction_witness(f: MonotoneMap, g: MonotoneMap) -> tuple[Element, Element] | None:
    """First pair (x, z) violating ``x <= g(z) iff f(x) <= z``, or None."""
    P, Q = f.dom, f.cod
    if g.dom != Q or g.cod != P:
        raise ValueError("maps do not form a P -> Q / Q -> P pair")
    for i, x in enumerate(P.elements):
        # the z with x <= g(z) against the z with f(x) <= z
        differ = g.preimage(P.ups[i]) ^ Q.ups[f.image[i]]
        if differ:
            return (x, Q.elements[next(bits(differ))])
    return None


def unit_counit_violations(f: MonotoneMap, g: MonotoneMap) -> tuple[str, ...]:
    """Violated laws among: id <= g∘f, f∘g <= id, f∘g∘f = f, g∘f∘g = g.

    Function order is pointwise; each law is checked element by element and
    reported by name with its first failing element.
    """
    P, Q = f.dom, f.cod
    if g.dom != Q or g.cod != P:
        raise ValueError("maps do not form a P -> Q / Q -> P pair")
    laws = (
        (P, lambda x: P.le(x, g(f(x))), "unit: {0!r} is not below g(f({0!r}))"),
        (Q, lambda z: Q.le(f(g(z)), z), "counit: f(g({0!r})) is not below {0!r}"),
        (P, lambda x: f(g(f(x))) == f(x), "f∘g∘f = f fails at {0!r}"),
        (Q, lambda z: g(f(g(z))) == g(z), "g∘f∘g = g fails at {0!r}"),
    )
    failed: list[str] = []
    for poset, holds, message in laws:
        for e in poset.elements:
            if not holds(e):
                failed.append(message.format(e))
                break
    return tuple(failed)


@dataclass(frozen=True)
class AdjunctionCertificate:
    """Record of a verified adjoint pair: f left adjoint, g right adjoint."""

    left: MonotoneMap
    right: MonotoneMap
    verified_on: int


def verify_adjunction(f: MonotoneMap, g: MonotoneMap) -> AdjunctionCertificate:
    """Check the adjunction equivalence on all pairs plus the derived laws.

    Raises AdjunctionFails with the first witnessing (x, z) pair.  The
    equivalence and the four derived laws must agree; a disagreement would
    be an implementation bug and raises RuntimeError.
    """
    witness = adjunction_witness(f, g)
    law_failures = unit_counit_violations(f, g)
    if (witness is None) != (not law_failures):
        raise RuntimeError(
            f"equivalence witness {witness!r} disagrees with law failures "
            f"{law_failures!r} -- internal bug"
        )
    if witness is not None:
        raise AdjunctionFails(
            f"x <= g(z) iff f(x) <= z fails at (x, z) = {witness!r}", witness=witness
        )
    return AdjunctionCertificate(
        left=f, right=g, verified_on=len(f.dom.elements) * len(f.cod.elements)
    )


@dataclass(frozen=True)
class FloorCeilingRow:
    point: str
    floor: str
    floor_expected: str
    ceiling: str
    ceiling_expected: str

    @property
    def ok(self) -> bool:
        return self.floor == self.floor_expected and self.ceiling == self.ceiling_expected


@dataclass(frozen=True)
class FloorCeilingReport:
    """Both adjoints of the integer-chain inclusion, checked pointwise."""

    k: int
    denominator: int
    rows: tuple[FloorCeilingRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def integer_grid_inclusion(k: int, denominator: int) -> MonotoneMap:
    """Inclusion of the integer chain [-k, k] into the 1/denominator grid."""
    if k <= 0 or denominator <= 0:
        raise ValueError("k and denominator must be positive")
    grid = FinitePoset.chain(
        str(Fraction(num, denominator)) for num in range(-k * denominator, k * denominator + 1)
    )
    ints = FinitePoset.chain(str(n) for n in range(-k, k + 1))
    graph = {str(n): str(Fraction(n)) for n in range(-k, k + 1)}
    return MonotoneMap(ints, grid, graph)


def floor_ceiling_demo(k: int, denominator: int) -> FloorCeilingReport:
    """Compute both adjoints of the inclusion and compare with arithmetic.

    The right adjoint must send each grid point to its floor, the left
    adjoint to its ceiling; the ranges end at integers, so approximants
    always exist and both adjoints are total.
    """
    inclusion = integer_grid_inclusion(k, denominator)
    floor_map = right_adjoint(inclusion)
    ceiling_map = left_adjoint(inclusion)
    if floor_map is None or ceiling_map is None:
        raise RuntimeError("inclusion on an integer-bounded grid must have both adjoints")
    verify_adjunction(ceiling_map, inclusion)
    verify_adjunction(inclusion, floor_map)
    rows = []
    for num in range(-k * denominator, k * denominator + 1):
        q = Fraction(num, denominator)
        rows.append(FloorCeilingRow(
            str(q), floor_map(str(q)), str(math.floor(q)), ceiling_map(str(q)), str(math.ceil(q))
        ))
    return FloorCeilingReport(k=k, denominator=denominator, rows=tuple(rows))
