"""Pair-set reference implementation of the order and subset operators.

This is the representation `fincat.galois` and `fincat.logic` used before
orders became bitmasks: a poset is a frozenset of related pairs and every
operator scans those pairs.  It is slow but transparently correct, and the
property tests compare the mask implementation against it.  It is not part
of the package.
"""

from __future__ import annotations

from fincat.errors import InvalidPoset, NotDownClosed, NotMonotone, UnknownElement


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


def monotone_witness(dom: RefPoset, cod: RefPoset, graph):
    """Raise NotMonotone on the first (x, y) in element order with x <= y
    and unordered images, as the map constructor must."""
    for x in dom.elements:
        for y in dom.elements:
            if dom.le(x, y) and not cod.le(graph[x], graph[y]):
                raise NotMonotone(f"{x!r} <= {y!r} but images are not ordered", witness=(x, y))


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


def universal_image(dom_elements, cod_elements, graph, members):
    return frozenset(
        y for y in cod_elements if all(x in members for x in dom_elements if graph[x] == y)
    )


def box(dom_elements, pairs, members):
    return frozenset(
        x for x in dom_elements if all(y in members for (x2, y) in pairs if x2 == x)
    )
