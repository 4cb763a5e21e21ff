"""Functors between finite categories: functoriality checking, composition,
isomorphism preservation, the covariant powerset functor, and the bridges
from monotone maps and monoid homomorphisms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .builders import (
    FinSetCategory,
    FiniteFunction,
    FiniteMonoid,
    NamedFiniteSet,
    _function_arrow_name,
    build_finset,
    monoid_as_category,
    poset_arrow_name,
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
)
from .errors import (
    MalformedMap,
    NotAFunctor,
    NotAHomomorphism,
    SourceTargetMismatch,
)
from .galois import MonotoneMap


@dataclass(frozen=True)
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
    reported with its witnessing arrows.  Composition is checked on the
    composable pairs of the source only, reading composites off the rows.
    """
    src, tgt = F.source, F.target
    tgt_objects = frozenset(tgt.objects)
    tgt_arrows = frozenset(tgt.all_arrows())
    for a in src.objects:
        if a not in F.object_map:
            raise MalformedMap(f"object map is undefined on {a!r}")
        if F.object_map[a] not in tgt_objects:
            raise MalformedMap(
                f"object map sends {a!r} to unknown object {F.object_map[a]!r}"
            )
    for f in src.all_arrows():
        if f not in F.arrow_map:
            raise MalformedMap(f"arrow map is undefined on {f!r}")
        if F.arrow_map[f] not in tgt_arrows:
            raise MalformedMap(
                f"arrow map sends {f!r} to unknown arrow {F.arrow_map[f]!r}"
            )

    S, T = src.kernel(), tgt.kernel()
    violations: list[Violation] = []
    for arr in src.arrows:
        image = F.arrow_map[arr.name]
        want_dom = F.object_map[arr.dom]
        want_cod = F.object_map[arr.cod]
        if tgt.dom(image) != want_dom or tgt.cod(image) != want_cod:
            violations.append(
                Violation(
                    "arrow-typing",
                    (arr.name,),
                    f"image {image!r} is typed {tgt.dom(image)!r}->{tgt.cod(image)!r}, "
                    f"expected {want_dom!r}->{want_cod!r}",
                )
            )
    for a in src.objects:
        image = F.arrow_map[src.identity(a)]
        expected = tgt.identity(F.object_map[a])
        if image != expected:
            violations.append(
                Violation(
                    "identity-preservation",
                    (src.identity(a),),
                    f"identity of {a!r} maps to {image!r}, expected {expected!r}",
                )
            )
    image_of = [T.ids[F.arrow_map[f]] for f in S.names]
    for f, Ff in enumerate(image_of):
        at_f = S.pos[f]
        for g in S.out[S.cod[f]]:
            lhs = image_of[S.rows[g][at_f]]
            rhs = T.compose(image_of[g], Ff)
            if lhs != rhs:
                violations.append(
                    Violation(
                        "composition-preservation",
                        (S.names[g], S.names[f]),
                        f"F(g∘f) = {T.names[lhs]!r} but F(g)∘F(f) = "
                        f"{None if rhs is None else T.names[rhs]!r}",
                    )
                )
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

    Objects go to their powersets, an arrow to its direct-image function
    S |-> { f(x) | x in S }.  The target category is synthesized from the
    canonical powerset sets, so the construction is reproducible.
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
        p_dom = power_sets[fn.dom.name]
        p_cod = power_sets[fn.cod.name]
        graph = {}
        for r in range(len(fn.dom.elements) + 1):
            for combo in itertools.combinations(fn.dom.elements, r):
                image = frozenset(fn(x) for x in combo)
                graph[subset_label(frozenset(combo), fn.dom)] = subset_label(
                    image, fn.cod
                )
        return _function_arrow_name(FiniteFunction(p_dom, p_cod, graph))

    arrow_map = {f: direct_image_name(f) for f in fs.all_arrows()}
    return Functor(fs, target, object_map, arrow_map)


def monotone_as_functor(m: MonotoneMap) -> Functor:
    """A monotone map as the functor between the induced thin categories."""
    source = poset_as_category(m.dom)
    target = poset_as_category(m.cod)
    object_map = {x: m(x) for x in m.dom.elements}
    arrow_map = {
        arr.name: poset_arrow_name(m(arr.dom), m(arr.cod)) for arr in source.arrows
    }
    return Functor(source, target, object_map, arrow_map)


def functor_as_monotone(F: Functor) -> MonotoneMap:
    """Read a functor between thin categories back as its object map."""
    return MonotoneMap(
        poset_from_category(F.source),
        poset_from_category(F.target),
        dict(F.object_map),
    )


@dataclass(frozen=True)
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
