"""Adjunctions between finite posets: best approximations, adjoint search,
certificate checking, and the floor/ceiling inclusion worked end to end.

Everything is exact -- comparisons are order-table lookups, never tolerances.
An adjoint pair here is a Galois connection: monotone f : P -> Q and
g : Q -> P with ``x <= g(z)  iff  f(x) <= z`` for all x, z.

Orders are bitmasks: bit i of a mask stands for ``elements[i]``.  A poset's
fields are its elements and up-set masks, a monotone map's its image
positions; ``leq`` and ``graph`` are made on read.  Checks take whole rows:
``from_relation`` closes in one pass over a topological order (Purdom), each
row must be the OR of the rows it selects, and ``downs`` and the preimages
along a map are transposes.  With m related pairs among n elements, ``_dense``
picks walking the set bits (O(m) Python steps) or scanning the n² digits; a
scan transposes in one conversion, reading the joined columns of the digit
table as one integer and cutting the columns out of its bytes.  A least member
is picked by descent: from the lowest member of the mask, step down to another
member until none is below, then one subset test (the greatest: step up).
Grid labels, floors and ceilings are integer arithmetic.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import compress, product
from operator import eq, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import AdjunctionFails, InvalidPoset, NotMonotone, UnknownElement, record

Element = str


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGITS, _TRUTHS = bytes.maketrans(b"\x00\x01", b"01"), bytes.maketrans(b"01", b"\x00\x01")


def digits(mask: int, size: int) -> str:
    """The ``size`` bits of ``mask`` < 2**size as '0'/'1' characters, bit 0 first."""
    return bin(mask | 1 << size)[:2:-1]


def mask_of(truths: Iterable) -> int:
    """The mask whose bit i is the i-th of the truth values ``truths``."""
    return int(bytes(truths).translate(_DIGITS)[::-1] or b"0", 2)


def _dense(ones: int, rows: int, width: int) -> bool:
    """Whether scanning ``rows`` masks of ``width`` digits beats walking their ``ones`` set bits."""
    return ones * 20 > rows * (width + 100)


def _truths(rows: Sequence[int], width: int) -> bytes:
    """The digits of ``rows``, one row after another, as 0/1 bytes."""
    return "".join([digits(row, width) for row in rows]).encode().translate(_TRUTHS)


def select(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of ``mask``, lowest first."""
    if _dense(mask.bit_count(), 1, len(items)):
        return compress(items, _truths((mask,), len(items)))
    return map(items.__getitem__, bits(mask))


def _transpose(rows: Sequence[int], width: int, truths: bytes = b"") -> list[int]:
    """The column masks of a bit matrix: bit i of column j is bit j of ``rows[i]``;
    ``truths``, if given, is ``_truths(rows, width)``."""
    if truths or _dense(sum(map(int.bit_count, rows)), len(rows), width):
        truths, size = truths or _truths(rows, width), len(rows) + 7 >> 3  # bytes per column
        table = mask_of(bytes(8 * size - len(rows)).join([truths[j::width] for j in range(width)]))
        cut = table.to_bytes(size * width, "little")  # column j, padded to whole bytes, at byte j * size
        return [int.from_bytes(cut[k:k + size], "little") for k in range(0, size * width, size)]
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            j = row.bit_length() - 1
            cols[j] |= bit
            row ^= 1 << j
    return cols


def _indexed(elements: tuple) -> dict:
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise InvalidPoset("duplicate elements")
    return index


@record(init=False)
class FinitePoset:
    """A finite carrier with a reflexive, transitive, antisymmetric relation.

    ``leq`` must contain every related pair explicitly, reflexive pairs
    included; :meth:`from_relation` closes an arbitrary sparse relation first.
    The fields are ``elements`` and ``ups[i]``, the mask of the elements above
    ``elements[i]``.  Every constructor ends in one check of the masks, which
    derives ``index`` and ``downs`` and reports the first violating element.
    """

    elements: tuple[Element, ...]
    ups: tuple[int, ...]

    def __init__(self, elements: Iterable[Element], leq: Iterable[tuple[Element, Element]]):
        elements, leq = tuple(elements), tuple(leq)
        index = _indexed(elements)
        ups = [0] * len(elements)
        try:
            for x, y in leq:
                ups[index[x]] |= 1 << index[y]
        except KeyError:
            x, y = min((p for p in leq if not {*p} <= index.keys()), key=repr)
            raise InvalidPoset(f"relation mentions unknown element in ({x!r}, {y!r})") from None
        self._settle(elements, index, ups)

    def _settle(self, elements: tuple, index: dict, ups: list[int]) -> None:
        """Check the order given by its up-set masks, then store it."""
        n = len(elements)
        for i, x in enumerate(elements):
            if not ups[i] >> i & 1:
                raise InvalidPoset(f"relation is not reflexive at {x!r}")
        truths = _truths(ups, n) if _dense(sum(map(int.bit_count, ups)), n, n) else b""
        if truths and all(  # each row is the OR of the rows it selects
            reduce(or_, compress(ups, truths[i * n:i * n + n])) == row for i, row in enumerate(ups)
        ):
            downs = _transpose(ups, n, truths)
        else:  # walk the set bits: a sparse order, or the first x <= y <= z without x <= z
            downs = [1 << i for i in range(n)]
            for i, (x, row) in enumerate(zip(elements, ups)):
                for j in bits(row ^ 1 << i):
                    downs[j] |= 1 << i
                    if ups[j] & ~row:
                        z = elements[next(bits(ups[j] & ~row))]
                        raise InvalidPoset(f"relation is not transitive: {x!r} <= {elements[j]!r} <= {z!r}")
        for i, x in enumerate(elements):
            if ups[i] & downs[i] != 1 << i:
                y = elements[next(bits(ups[i] & downs[i] & ~(1 << i)))]
                raise InvalidPoset(f"relation is not antisymmetric on {x!r}, {y!r}")
        self.__dict__.update(elements=elements, ups=tuple(ups), index=index, downs=tuple(downs))

    @classmethod
    def _from_ups(cls, elements: Iterable[Element], ups: Iterable[int]) -> "FinitePoset":
        """The poset in which bit j of ``ups[i]`` says elements[i] <= elements[j]."""
        poset, elements = cls.__new__(cls), tuple(elements)
        poset._settle(elements, _indexed(elements), list(ups))
        return poset

    @classmethod
    def from_relation(
        cls, elements: Iterable[Element], pairs: Iterable[tuple[Element, Element]]
    ) -> "FinitePoset":
        """Build a poset from a sparse relation: reflexive-transitive closure
        is applied, then antisymmetry is checked."""
        elems = tuple(elements)
        index = _indexed(elems)
        ups, below = [1 << i for i in range(len(elems))], [[] for _ in elems]
        for x, y in pairs:
            if x not in index or y not in index:
                raise InvalidPoset(f"relation mentions unknown element in ({x!r}, {y!r})")
            i, j = index[x], index[y]
            if not ups[i] >> j & 1:
                ups[i] |= 1 << j
                below[j].append(i)  # below[j]: the i with a pair (i, j)
        # close sinks first: a row is final once every row it points to is
        waiting = [row.bit_count() - 1 for row in ups]
        done = [i for i, count in enumerate(waiting) if not count]
        for j in done:
            for i in below[j]:
                ups[i] |= ups[j]
                waiting[i] -= 1
                if not waiting[i]:
                    done.append(i)
        cyclic = [i for i, count in enumerate(waiting) if count]
        for k, i in product(cyclic, repeat=2):  # Warshall on the rows on or above a cycle
            if ups[i] >> k & 1:
                ups[i] |= ups[k]
        return cls._from_ups(elems, ups)

    @classmethod
    def chain(cls, elements: Iterable[Element]) -> "FinitePoset":
        """Total order in the given element order."""
        elems = tuple(elements)
        return cls._from_ups(elems, ((1 << len(elems)) - (1 << i) for i in range(len(elems))))

    @classmethod
    def antichain(cls, elements: Iterable[Element]) -> "FinitePoset":
        elems = tuple(elements)
        return cls._from_ups(elems, (1 << i for i in range(len(elems))))

    @property
    def leq(self) -> frozenset[tuple[Element, Element]]:
        """The related pairs, made from the masks on each read."""
        elements, ups = self.elements, self.ups
        if _dense(sum(map(int.bit_count, ups)), len(ups), len(ups)):
            return frozenset(compress(product(elements, repeat=2), _truths(ups, len(ups))))
        return frozenset((x, elements[j]) for x, row in zip(elements, ups) for j in bits(row))

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
        return tuple(select(self.elements, mask))

    def _pick(self, mask: int, below: tuple[int, ...], above: tuple[int, ...]) -> int | None:
        """The position of the member of ``mask`` bounding all of it, if any: the least when
        ``below``, ``above`` are downs, ups, the greatest when they are ups, downs.  From the
        lowest member, step to the last other member below until there is none (antisymmetry
        ends the walk): a least member is the only minimal one, so one subset test decides."""
        if not mask:
            return None
        i = (mask & -mask).bit_length() - 1
        while rest := below[i] & mask & ~(1 << i):
            i = rest.bit_length() - 1
        return None if mask & ~above[i] else i

    def _name(self, i: int | None) -> Element | None:
        return None if i is None else self.elements[i]

    def least_of(self, subset: Iterable[Element]) -> Element | None:
        """The least element of ``subset`` within this order, if any."""
        return self._name(self._pick(self.mask(subset), self.downs, self.ups))

    def greatest_of(self, subset: Iterable[Element]) -> Element | None:
        return self._name(self._pick(self.mask(subset), self.ups, self.downs))

    def glb(self, x: Element, y: Element) -> Element | None:
        """Greatest lower bound of x and y, if any."""
        common = self.downs[self.position(x)] & self.downs[self.position(y)]
        return self._name(self._pick(common, self.ups, self.downs))

    def lub(self, x: Element, y: Element) -> Element | None:
        common = self.ups[self.position(x)] & self.ups[self.position(y)]
        return self._name(self._pick(common, self.downs, self.ups))


@record(init=False)
class MonotoneMap:
    """An order-preserving total map between finite posets; ``image[i]`` is
    the codomain position of the image of ``dom.elements[i]``."""

    dom: FinitePoset
    cod: FinitePoset
    image: tuple[int, ...]

    def __init__(self, dom: FinitePoset, cod: FinitePoset, graph: Mapping[Element, Element]):
        for x in dom.elements:
            if x not in graph:
                raise UnknownElement(f"map is undefined on {x!r}")
            if graph[x] not in cod.index:
                raise UnknownElement(f"map sends {x!r} to unknown element {graph[x]!r}")
        for extra in graph:
            if extra not in dom.index:
                raise UnknownElement(f"map is defined on unknown element {extra!r}")
        self._settle(dom, cod, tuple(cod.index[graph[x]] for x in dom.elements))

    def _settle(self, dom: FinitePoset, cod: FinitePoset, image: tuple[int, ...]) -> None:
        """Check that ``image`` preserves the order, then store it: the up-set of
        each x below something lies in the preimage of its image's up-set."""
        rising = [i for i, row in enumerate(dom.ups) if row & row - 1]
        above = _preimages(image, cod.downs) if rising else ()
        for i in rising:
            if dom.ups[i] & ~above[image[i]]:
                j = next(bits(dom.ups[i] & ~above[image[i]]))
                x, y = dom.elements[i], dom.elements[j]
                raise NotMonotone(
                    f"{x!r} <= {y!r} but images {cod.elements[image[i]]!r}, "
                    f"{cod.elements[image[j]]!r} are not ordered",
                    witness=(x, y),
                )
        self.__dict__.update(dom=dom, cod=cod, image=image)

    @classmethod
    def _from_image(cls, dom: FinitePoset, cod: FinitePoset, image: tuple[int, ...]) -> "MonotoneMap":
        m = cls.__new__(cls)
        m._settle(dom, cod, image)
        return m

    @property
    def graph(self) -> dict[Element, Element]:
        """The map by name, in domain element order, made on each read."""
        return dict(zip(self.dom.elements, map(self.cod.elements.__getitem__, self.image)))

    def __call__(self, x: Element) -> Element:
        return self.cod.elements[self.image[self.dom.position(x)]]

    @classmethod
    def identity(cls, P: FinitePoset) -> "MonotoneMap":
        return cls._from_image(P, P, tuple(range(len(P.elements))))


def _preimages(image: tuple[int, ...], rows: tuple[int, ...]) -> list[int]:
    """Preimages along ``image`` of every up-set (``rows`` = cod.downs) or down-set (cod.ups)."""
    return _transpose([rows[c] for c in image], len(rows))


def compose_maps(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """The composite "f then g"; requires f.cod == g.dom."""
    if f.cod != g.dom:
        raise ValueError("maps are not composable")
    return MonotoneMap._from_image(f.dom, g.cod, tuple(g.image[i] for i in f.image))


@record
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
    above = mask_of(g.cod.ups[g.cod.position(x)] >> c & 1 for c in g.image)
    least = g.dom._name(g.dom._pick(above, g.dom.downs, g.dom.ups))
    status = "found" if least is not None else "no-least" if above else "empty"
    return Approximation(x, g.dom.members(above), least, status)


def best_approximation(g: MonotoneMap, x: Element) -> Element | None:
    """The least y with x <= g(y), or None (no approximants, or no least one)."""
    return approximation_report(g, x).best


def greatest_below(f: MonotoneMap, z: Element) -> Element | None:
    """The greatest x with f(x) <= z, or None: the right adjoint's value at z."""
    below = mask_of(f.cod.downs[f.cod.position(z)] >> c & 1 for c in f.image)
    return f.dom._name(f.dom._pick(below, f.dom.ups, f.dom.downs))


def _pointwise(
    m: MonotoneMap, rows: tuple[int, ...], below: tuple[int, ...], above: tuple[int, ...]
) -> MonotoneMap | None:
    """The map cod -> dom picking by ``below`` and ``above`` (see ``_pick``) in the preimage
    along ``m`` of each codomain up-set (``rows`` = cod.downs) or down-set (cod.ups), if
    total and monotone."""
    image = tuple(m.dom._pick(mask, below, above) for mask in _preimages(m.image, rows))
    return None if None in image else MonotoneMap._from_image(m.cod, m.dom, image)


def left_adjoint(g: MonotoneMap) -> MonotoneMap | None:
    """The map f with x <= g(z) iff f(x) <= z, if every x has a best approximant."""
    return _pointwise(g, g.cod.downs, g.dom.downs, g.dom.ups)


def right_adjoint(f: MonotoneMap) -> MonotoneMap | None:
    """The map g with f(x) <= z iff x <= g(z): g(z) is the greatest x with f(x) <= z."""
    return _pointwise(f, f.cod.ups, f.dom.ups, f.dom.downs)


def adjunction_witness(f: MonotoneMap, g: MonotoneMap) -> tuple[Element, Element] | None:
    """First pair (x, z) violating ``x <= g(z) iff f(x) <= z``, or None."""
    P, Q = f.dom, f.cod
    if g.dom != Q or g.cod != P:
        raise ValueError("maps do not form a P -> Q / Q -> P pair")
    above = _preimages(g.image, P.downs)  # above[i]: the z with x <= g(z)
    for i, x in enumerate(P.elements):
        differ = above[i] ^ Q.ups[f.image[i]]  # against the z with f(x) <= z
        if differ:
            return (x, Q.elements[next(bits(differ))])
    return None


def unit_counit_violations(f: MonotoneMap, g: MonotoneMap) -> tuple[str, ...]:
    """Violated laws among: id <= g∘f, f∘g <= id, f∘g∘f = f, g∘f∘g = g.

    Function order is pointwise; each law is tested on the whole image lists of
    the composites and reported by name with its first failing element.
    """
    P, Q = f.dom, f.cod
    if g.dom != Q or g.cod != P:
        raise ValueError("maps do not form a P -> Q / Q -> P pair")
    fi, gi = f.image, g.image
    gf, fg = [gi[c] for c in fi], [fi[c] for c in gi]
    laws = (
        (P, [row >> c & 1 for row, c in zip(P.ups, gf)], "unit: {0!r} is not below g(f({0!r}))"),
        (Q, [row >> c & 1 for row, c in zip(Q.downs, fg)], "counit: f(g({0!r})) is not below {0!r}"),
        (P, list(map(eq, map(fg.__getitem__, fi), fi)), "f∘g∘f = f fails at {0!r}"),
        (Q, list(map(eq, map(gf.__getitem__, gi), gi)), "g∘f∘g = g fails at {0!r}"),
    )
    return tuple(
        message.format(poset.elements[holds.index(0)]) for poset, holds, message in laws if not all(holds)
    )


@record
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


@record
class FloorCeilingRow:
    """One point of the floor/ceiling demo: each adjoint's value and the expected one."""

    point: str
    floor: str
    floor_expected: str
    ceiling: str
    ceiling_expected: str

    @property
    def ok(self) -> bool:
        return self.floor == self.floor_expected and self.ceiling == self.ceiling_expected


@record
class FloorCeilingReport:
    """Both adjoints of the integer-chain inclusion, checked pointwise."""

    k: int
    denominator: int
    rows: tuple[FloorCeilingRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _ratio(num: int, den: int) -> str:
    """``num/den`` (den > 0) in lowest terms, or the integer it equals: ``str(Fraction(num, den))``."""
    common = math.gcd(num, den)
    return str(num // common) if den == common else f"{num // common}/{den // common}"


def integer_grid_inclusion(k: int, denominator: int) -> MonotoneMap:
    """Inclusion of the integer chain [-k, k] into the 1/denominator grid."""
    if k <= 0 or denominator <= 0:
        raise ValueError("k and denominator must be positive")
    points = range(-k * denominator, k * denominator + 1)
    grid = FinitePoset.chain(_ratio(num, denominator) for num in points)
    ints = FinitePoset.chain(str(n) for n in range(-k, k + 1))
    return MonotoneMap._from_image(ints, grid, tuple(range(0, len(grid.elements), denominator)))


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
    ints, rows = inclusion.dom.elements, []
    nums = range(-k * denominator, k * denominator + 1)
    for label, num, floor, ceiling in zip(inclusion.cod.elements, nums, floor_map.image, ceiling_map.image):
        rows.append(FloorCeilingRow(
            label, ints[floor], str(num // denominator), ints[ceiling], str(-(-num // denominator))
        ))
    return FloorCeilingReport(k=k, denominator=denominator, rows=tuple(rows))
