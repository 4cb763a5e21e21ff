"""Functors between finite categories: functoriality checking, composition,
isomorphism preservation, the covariant powerset functor, and the bridges
from monotone maps and monoid homomorphisms.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from .builders import (
    FinSetCategory,
    FiniteMonoid,
    NamedFiniteSet,
    _function_arrow_name,
    build_finset,
    monoid_as_category,
    poset_as_category,
    poset_from_category,
    subset_label,
)
from .core import (
    ArrowId,
    AxiomReport,
    DEFAULT_BUDGET,
    FiniteCategory,
    ObjectId,
    Violation,
    find_inverse,
    take,
)
from .errors import (
    MalformedMap,
    NotAFunctor,
    NotAHomomorphism,
    SourceTargetMismatch,
    record,
)
from .galois import MonotoneMap


@record
class Functor:
    """Object and arrow tables between two explicit categories.

    The tables are stored separately even though mathematical practice
    overloads one symbol for both; serialization keeps them distinct.
    """

    source: FiniteCategory
    target: FiniteCategory
    object_map: Mapping[ObjectId, ObjectId]
    arrow_map: Mapping[ArrowId, ArrowId]

    @classmethod
    def identity(cls, C: FiniteCategory) -> "Functor":
        return cls(
            C,
            C,
            {a: a for a in C.objects},
            {f: f for f in C.all_arrows()},
        )


def check_functoriality(F: Functor) -> AxiomReport:
    """Exhaustively verify typing, identity and composition preservation.

    Missing map entries or dangling ids raise MalformedMap, and a malformed
    source or target table raises MalformedTable; every law violation is
    reported with its witnessing arrows.  Once typing and identities are
    preserved, a thin target settles composition without a comparison if
    the composites of both kernels are well typed: F(g∘f) and F(g)∘F(f)
    then both run from F(dom f) to F(cod g), and that hom holds at most one
    arrow.  The typing of a target that has not been validated is checked
    for this only when it has no more composable pairs than the source.
    Otherwise composition is compared row by row of the source.
    When both kernels have passed :func:`~fincat.core.validate`, only the
    rows of the source's generators are: the g with F(g∘f) = F(g)∘F(f) for
    every f include the identities and, by associativity on both sides, are
    closed under composition.  On a mismatch every row is compared.
    """
    src, tgt = F.source, F.target
    for kind, table, keys, known in (
        ("object", F.object_map, src.objects, frozenset(tgt.objects)),
        ("arrow", F.arrow_map, src.all_arrows(), frozenset(tgt.all_arrows())),
    ):
        for x in keys:
            if x not in table:
                raise MalformedMap(f"{kind} map is undefined on {x!r}")
            if table[x] not in known:
                raise MalformedMap(f"{kind} map sends {x!r} to unknown {kind} {table[x]!r}")

    S, T = src.kernel(), tgt.kernel()
    at = [T.object_ids[F.object_map[a]] for a in S.objects]
    image_of = [T.ids[F.arrow_map[f]] for f in S.names]
    violations: list[Violation] = []
    for f, (Ff, a, b) in enumerate(zip(image_of, S.dom, S.cod)):
        if T.dom[Ff] != at[a] or T.cod[Ff] != at[b]:
            violations.append(Violation(
                "arrow-typing", (S.names[f],),
                f"image {T.names[Ff]!r} is typed {T.objects[T.dom[Ff]]!r}->"
                f"{T.objects[T.cod[Ff]]!r}, expected {T.objects[at[a]]!r}->{T.objects[at[b]]!r}",
            ))
    typed = not violations
    for a, i in enumerate(S.identity):
        expected = T.identity[at[a]]
        if image_of[i] != expected:
            violations.append(Violation(
                "identity-preservation", (S.names[i],),
                f"identity of {S.objects[a]!r} maps to {T.names[image_of[i]]!r}, "
                f"expected {T.names[expected]!r}",
            ))
    # The target's typing, unless validate found it already, is read only if
    # it has no more composable pairs than the comparison below would read.
    if not violations and T.thin and not S.mistyped() and (
        T.lawful is not None or T.pairs() <= S.pairs()
    ) and not T.mistyped():
        return AxiomReport(True, ())
    # With every image well typed, F(g)∘F(f) for all f into a is the row of
    # F(g) read at the positions of the F(f); otherwise pair by pair.
    pick = [take([T.pos[image_of[f]] for f in fs]) for fs in S.into] if typed else None

    def breaks(gs) -> Iterator[tuple]:
        for g in gs:
            row, Fg = S.rows[g], image_of[g]
            if pick and pick[S.dom[g]](T.rows[Fg]) == tuple(map(image_of.__getitem__, row)):
                continue
            for f, gf in zip(S.into[S.dom[g]], row):
                lhs, rhs = image_of[gf], T.compose(Fg, image_of[f])
                if lhs != rhs:
                    yield f, g, lhs, rhs

    if not violations and S.lawful and T.lawful and not any(breaks(S.generators())):
        return AxiomReport(True, ())
    for f, g, lhs, rhs in sorted(breaks(range(len(S.names)))):
        violations.append(Violation(
            "composition-preservation", (S.names[g], S.names[f]),
            f"F(g∘f) = {T.names[lhs]!r} but F(g)∘F(f) = {None if rhs is None else T.names[rhs]!r}",
        ))
    return AxiomReport.from_violations(violations)


def compose_functors(G: Functor, F: Functor) -> Functor:
    """Pointwise composite G∘F; the categories must meet in the middle."""
    if F.target != G.source:
        raise SourceTargetMismatch("target of the first functor is not the source of the second")
    return Functor(
        F.source,
        G.target,
        {a: G.object_map[F.object_map[a]] for a in F.source.objects},
        {f: G.arrow_map[F.arrow_map[f]] for f in F.source.all_arrows()},
    )


def check_iso_preservation(F: Functor, budget: int = DEFAULT_BUDGET) -> bool:
    """Confirm that every isomorphism of the source maps to one of the target.

    This is guaranteed for functors, so the check doubles as a cross-check:
    the image of the inverse must invert the image.  Raises NotAFunctor when
    the functor laws fail.
    """
    report = check_functoriality(F)
    if not report.ok:
        raise NotAFunctor(f"functor laws fail: {report.violations[0].detail}")
    for f in F.source.all_arrows():
        inverse = find_inverse(F.source, f, budget)
        if inverse is None:
            continue
        image_inverse = find_inverse(F.target, F.arrow_map[f], budget)
        if image_inverse is None or image_inverse != F.arrow_map[inverse]:
            return False
    return True


def powerset_of(s: NamedFiniteSet) -> NamedFiniteSet:
    """The powerset as a named set, subsets labelled canonically."""
    labels = []
    for r in range(len(s.elements) + 1):
        for combo in itertools.combinations(s.elements, r):
            labels.append(subset_label(frozenset(combo), s))
    return NamedFiniteSet(f"P({s.name})", tuple(labels))


def powerset_functor(fs: FinSetCategory, budget: int = DEFAULT_BUDGET) -> Functor:
    """The covariant powerset functor on a category of finite sets.

    Objects go to their powersets, an arrow f to its direct image, read off
    its rows, S |-> { f(x) | x in S }.  The target category is synthesized
    from the canonical powerset sets, so the construction is reproducible.
    """
    source_sets = [fs.sets[name] for name in fs.objects]
    power_sets = {s.name: powerset_of(s) for s in source_sets}
    target = build_finset(
        [power_sets[s.name] for s in source_sets],
        cap=max(len(p.elements) for p in power_sets.values()),
        budget=budget,
    )
    object_map = {s.name: power_sets[s.name].name for s in source_sets}

    def direct_image_name(f: ArrowId) -> ArrowId:
        fn = fs.function(f)
        images = [
            subset_label(frozenset(fn.cod.elements[row.bit_length() - 1] for row in combo), fn.cod)
            for r in range(len(fn.rows) + 1)
            for combo in itertools.combinations(fn.rows, r)
        ]
        return _function_arrow_name(power_sets[fn.dom.name], power_sets[fn.cod.name], images)

    arrow_map = {f: direct_image_name(f) for f in fs.all_arrows()}
    return Functor(fs, target, object_map, arrow_map)


def monotone_as_functor(m: MonotoneMap) -> Functor:
    """A monotone map as the functor between the induced thin categories,
    those that :func:`~fincat.builders.poset_as_category` keeps on the
    posets: the arrow a <= b goes to the one arrow m(a) <= m(b)."""
    source, target = poset_as_category(m.dom), poset_as_category(m.cod)
    S, T = source.kernel(), target.kernel()
    image = m.image
    arrow_map = dict(
        zip(S.names, [T.names[T.homs[image[a]][image[b]][0]] for a, b in zip(S.dom, S.cod)])
    )
    return Functor(source, target, m.graph, arrow_map)


def functor_as_monotone(F: Functor) -> MonotoneMap:
    """Read a functor between thin categories back as its object map."""
    return MonotoneMap(
        poset_from_category(F.source),
        poset_from_category(F.target),
        dict(F.object_map),
    )


@record
class MonoidHom:
    """A map of monoid elements claimed to preserve product and unit."""

    dom: FiniteMonoid
    cod: FiniteMonoid
    graph: Mapping[str, str]

    def __call__(self, x: str) -> str:
        return self.graph[x]

    def violation(self) -> tuple | None:
        if self.graph[self.dom.unit] != self.cod.unit:
            return ("unit", self.dom.unit)
        for a in self.dom.elements:
            for b in self.dom.elements:
                lhs = self.graph[self.dom.mult[(a, b)]]
                rhs = self.cod.mult[(self.graph[a], self.graph[b])]
                if lhs != rhs:
                    return ("multiplication", a, b)
        return None


def monoid_hom_as_functor(h: MonoidHom, object_name: str = "*") -> Functor:
    """A monoid homomorphism as the functor between one-object categories."""
    witness = h.violation()
    if witness is not None:
        raise NotAHomomorphism(f"homomorphism law broken: {witness!r}", witness=witness)
    source = monoid_as_category(h.dom, object_name)
    target = monoid_as_category(h.cod, object_name)
    return Functor(
        source,
        target,
        {object_name: object_name},
        {e: h(e) for e in h.dom.elements},
    )
