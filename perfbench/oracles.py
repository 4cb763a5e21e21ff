"""Reference answers computed without fincat's deciders.

The benchmark checks every verdict against these, outside the timed region.
Category questions are answered by brute force over plain dicts read off the
category's tables, in the same enumeration order fincat documents (objects
in order, then hom order), so first witnesses can be compared exactly.
Order and logic questions are answered from the definitions: closures by
Warshall's algorithm, adjoints by greatest/least elements, modal formulas by
pointwise Kripke semantics.  Nothing here imports fincat.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class Tables:
    """A finite category as plain dicts: hom lists in arrow order, composites."""

    def __init__(self, objects, arrows, composition):
        self.objects = list(objects)
        self.arrows = [(name, dom, cod) for name, dom, cod in arrows]
        self.dom = {name: dom for name, dom, _ in self.arrows}
        self.cod = {name: cod for name, _, cod in self.arrows}
        self.hom = {(a, b): [] for a in self.objects for b in self.objects}
        for name, dom, cod in self.arrows:
            self.hom[(dom, cod)].append(name)
        self.comp = dict(composition)

    @classmethod
    def of(cls, category) -> "Tables":
        return cls(
            category.objects,
            [(a.name, a.dom, a.cod) for a in category.arrows],
            category.composition,
        )

    def composable_triples(self) -> int:
        into = {x: 0 for x in self.objects}
        out = {x: 0 for x in self.objects}
        for _, dom, cod in self.arrows:
            into[cod] += 1
            out[dom] += 1
        return sum(into[dom] * out[cod] for _, dom, cod in self.arrows)


def first_repeat(composites):
    """First (earlier, later) pair of arguments sharing a composite, or None."""
    seen = {}
    for arg, value in composites:
        if value in seen:
            return (seen[value], arg)
        seen[value] = arg
    return None


def monic_witness(T: Tables, f):
    for z in T.objects:
        pair = first_repeat((g, T.comp[(f, g)]) for g in T.hom[(z, T.dom[f])])
        if pair is not None:
            return pair
    return None


def epic_witness(T: Tables, f):
    for z in T.objects:
        pair = first_repeat((g, T.comp[(g, f)]) for g in T.hom[(T.cod[f], z)])
        if pair is not None:
            return pair
    return None


def inverse(T: Tables, f, identities):
    a, b = T.dom[f], T.cod[f]
    for g in T.hom[(b, a)]:
        if T.comp[(g, f)] == identities[a] and T.comp[(f, g)] == identities[b]:
            return g
    return None


def predicate_rows(T: Tables, identities):
    return [
        (f, monic_witness(T, f), epic_witness(T, f), inverse(T, f, identities))
        for f, _, _ in T.arrows
    ]


def terminals(T: Tables):
    return [t for t in T.objects if all(len(T.hom[(a, t)]) == 1 for a in T.objects)]


def products(T: Tables, a, b):
    """Every (apex, p1, p2) through which each cone over (a, b) factors uniquely:
    for each z, h |-> (p1∘h, p2∘h) must be a bijection hom(z, apex) -> hom(z,a)×hom(z,b)."""
    found = []
    for apex in T.objects:
        for p1 in T.hom[(apex, a)]:
            for p2 in T.hom[(apex, b)]:
                if all(_pairs_bijectively(T, z, apex, a, b, p1, p2) for z in T.objects):
                    found.append((apex, p1, p2))
    return found


def _pairs_bijectively(T, z, apex, a, b, p1, p2) -> bool:
    images = {(T.comp[(p1, h)], T.comp[(p2, h)]) for h in T.hom[(z, apex)]}
    wanted = len(T.hom[(z, a)]) * len(T.hom[(z, b)])
    return len(images) == len(T.hom[(z, apex)]) == wanted


def nno_triples(T: Tables):
    """All (N, z, s) with a unique h for every (A, c, f), or None without a terminal."""
    ends = terminals(T)
    if not ends:
        return None
    one = ends[0]
    data = [(a, c, f) for a in T.objects for c in T.hom[(one, a)] for f in T.hom[(a, a)]]
    winners = []
    for n in T.objects:
        for z in T.hom[(one, n)]:
            for s in T.hom[(n, n)]:
                if all(
                    sum(
                        1
                        for h in T.hom[(n, a)]
                        if T.comp[(h, z)] == c and T.comp[(h, s)] == T.comp[(f, h)]
                    )
                    == 1
                    for a, c, f in data
                ):
                    winners.append((n, z, s))
    return winners


# -- orders --------------------------------------------------------------


def closure(elements, pairs):
    """Reflexive-transitive closure by Warshall's algorithm, as a set of pairs."""
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    up = [1 << i for i in range(n)]
    for x, y in pairs:
        up[index[x]] |= 1 << index[y]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    return {
        (elements[i], elements[j]) for i in range(n) for j in range(n) if up[i] >> j & 1
    }


def greatest(leq, subset):
    for c in subset:
        if all((x, c) in leq for x in subset):
            return c
    return None


def least(leq, subset):
    for c in subset:
        if all((c, x) in leq for x in subset):
            return c
    return None


def right_adjoint(dom, dom_leq, cod, cod_leq, graph):
    """z |-> greatest x with f(x) <= z, or None when some z has none."""
    out = {}
    for z in cod:
        g = greatest(dom_leq, [x for x in dom if (graph[x], z) in cod_leq])
        if g is None:
            return None
        out[z] = g
    return out


def left_adjoint(dom, dom_leq, cod, cod_leq, graph):
    """x |-> least y with x <= g(y), for g = graph : dom -> cod, or None."""
    out = {}
    for x in cod:
        l = least(dom_leq, [y for y in dom if (x, graph[y]) in cod_leq])
        if l is None:
            return None
        out[x] = l
    return out


def floor_ceiling_rows(k, denominator):
    rows = []
    for num in range(-k * denominator, k * denominator + 1):
        q = Fraction(num, denominator)
        rows.append((str(q), str(math.floor(q)), str(math.ceil(q))))
    return rows


def down_sets(elements, leq):
    """All down-closed subsets, ordered by size then by element positions."""
    order = {x: i for i, x in enumerate(elements)}
    below = {y: {x for x in elements if (x, y) in leq} for y in elements}
    found = []
    for r in range(len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            members = set(combo)
            if all(below[y] <= members for y in combo):
                found.append(frozenset(combo))
    found.sort(key=lambda s: (len(s), sorted(order[x] for x in s)))
    return found


def heyting(elements, leq, x, y):
    """The down-set {z | ↓z ∩ X ⊆ Y}."""
    return frozenset(
        z for z in elements if {w for w in elements if (w, z) in leq} & x <= y
    )


# -- logic ---------------------------------------------------------------


def eval_modal(worlds, access, valuation, formula):
    """Worlds satisfying a formula given as nested tuples, pointwise."""
    op = formula[0]
    if op == "atom":
        return frozenset(valuation[formula[1]])
    if op == "not":
        return frozenset(worlds) - eval_modal(worlds, access, valuation, formula[1])
    if op in ("and", "or", "implies"):
        left = eval_modal(worlds, access, valuation, formula[1])
        right = eval_modal(worlds, access, valuation, formula[2])
        if op == "and":
            return left & right
        if op == "or":
            return left | right
        return (frozenset(worlds) - left) | right
    body = eval_modal(worlds, access, valuation, formula[1])
    successors = {w: {v for u, v in access if u == w} for w in worlds}
    if op == "box":
        return frozenset(w for w in worlds if successors[w] <= body)
    if op == "dia":
        return frozenset(w for w in worlds if successors[w] & body)
    raise ValueError(f"unknown modal operator {op!r}")


def render(formula) -> str:
    """Text for fincat's formula grammar, fully parenthesized."""
    op = formula[0]
    if op == "atom":
        return formula[1]
    if op == "rel":
        return f"{formula[1]}({','.join(f'v{i}' for i in formula[2])})"
    if op == "not":
        return f"!({render(formula[1])})"
    if op in ("box", "dia"):
        return f"{op} ({render(formula[1])})"
    if op in ("forall", "exists"):
        return f"({op} v{formula[1]}. {render(formula[2])})"
    symbol = {"and": "&", "or": "|", "implies": "->"}[op]
    return f"({render(formula[1])} {symbol} {render(formula[2])})"


def subset_pairs_checked(dom_size: int, cod_size: int) -> int:
    return 2**dom_size * 2**cod_size
