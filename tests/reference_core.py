"""String-keyed reference implementation of the category deciders.

This is how `fincat.core.validate`, the arrow predicates,
`fincat.universal.find_terminals`, `fincat.universal.find_products`,
`fincat.nno.nno_search` and `fincat.functors.check_functoriality` worked
before the deciders moved to the integer kernel: every composite is a
lookup in the compose dict keyed by name pairs, or a call to `compose`, and
the structure check and the law checks scan every pair of arrows.
`ReferenceMat` is the matrix category as it was before it composed by
code: it multiplies two matrices and renders the product's name, and
`materialize` writes it out as tables by calling `compose` on every
composable pair.  `poset_as_category` and `monoid_as_category` are the
builders as they were before they built kernel rows, and `law_violation`
is the monoid law check as it was before `validate` decided it: the unit
laws, then every triple of elements.  `finset_functions` and
`finrel_relations` are the FinSet and FinRel element objects as the
builders made them before they kept only their kernel: one validated
`FiniteFunction` or `FiniteRelation` per arrow, its name rendered from the
object; `compose_functions` and `compose_relations` compose two of them
element by element.  `validate` and `check_functoriality`
scan every composable pair, which the kernel versions do only once the
test on a generating set of arrows fails.  It is all slow but
transparently correct, and the property tests compare the kernel deciders
against it.  `is_equational_product` is a second characterization of
products, by equations alone, which the tests hold against
`find_products`.  It is not part of the package.

Two departures from the old code, both where it was not deterministic or
crashed: an unknown key of the identity table is reported in table order
(the old code took the first of a set, which depended on the hash seed),
and a unit law whose composite is not defined (a mistyped identity) reads
None instead of raising KeyError.
"""

from __future__ import annotations

import itertools

from fincat.builders import FiniteFunction, FiniteRelation, MatrixOverZp
from fincat.core import (
    DEFAULT_BUDGET,
    Arrow,
    ArrowId,
    AxiomReport,
    FiniteCategory,
    ObjectId,
    Violation,
    _Budget,
)
from fincat.errors import InvalidMonoid, MalformedMap, MalformedTable, UnknownArrow, UnknownObject
from fincat.functors import Functor
from fincat.nno import NnoSearchResult
from fincat.universal import Cone, ProductCertificate


def _check_structure(C: FiniteCategory) -> None:
    """Raise MalformedTable on dangling ids or a partial/overfull compose table."""
    objects = frozenset(C.objects)
    names = frozenset(arr.name for arr in C.arrows)
    for arr in C.arrows:
        if arr.dom not in objects:
            raise MalformedTable(f"arrow {arr.name!r} has unknown domain {arr.dom!r}")
        if arr.cod not in objects:
            raise MalformedTable(f"arrow {arr.name!r} has unknown codomain {arr.cod!r}")
    for a in C.objects:
        if a not in C.identities:
            raise MalformedTable(f"identity table has no entry for object {a!r}")
        if C.identities[a] not in names:
            raise MalformedTable(
                f"identity of {a!r} is the unknown arrow {C.identities[a]!r}"
            )
    for extra in [x for x in C.identities if x not in objects]:
        raise MalformedTable(f"identity table mentions unknown object {extra!r}")
    for (g, f), h in C.composition.items():
        for name in (g, f, h):
            if name not in names:
                raise MalformedTable(f"compose table mentions unknown arrow {name!r}")
        if C.arrow(f).cod != C.arrow(g).dom:
            raise MalformedTable(
                f"compose table has an entry for the non-composable pair ({g!r}, {f!r})"
            )
    for f in C.arrows:
        for g in C.arrows:
            if f.cod == g.dom and (g.name, f.name) not in C.composition:
                raise MalformedTable(
                    f"compose table is partial: missing entry for ({g.name!r}, {f.name!r})"
                )


def validate(C: FiniteCategory) -> AxiomReport:
    """Check the category axioms exhaustively and report every violation.

    Structural problems (dangling ids, a partial compose table) raise
    :class:`MalformedTable`; law violations -- identity typing, composite
    typing, units, associativity -- are all collected into the report.
    """
    _check_structure(C)
    violations: list[Violation] = []

    for a in C.objects:
        ia = C.arrow(C.identities[a])
        if ia.dom != a or ia.cod != a:
            violations.append(
                Violation(
                    "identity-typing",
                    (ia.name,),
                    f"identity of {a!r} is typed {ia.dom!r}->{ia.cod!r}",
                )
            )

    comp = C.composition
    for f in C.arrows:
        for g in C.arrows:
            if f.cod != g.dom:
                continue
            h = C.arrow(comp[(g.name, f.name)])
            if h.dom != f.dom or h.cod != g.cod:
                violations.append(
                    Violation(
                        "composite-typing",
                        (g.name, f.name),
                        f"{g.name!r} after {f.name!r} is {h.name!r}, typed "
                        f"{h.dom!r}->{h.cod!r} instead of {f.dom!r}->{g.cod!r}",
                    )
                )

    for f in C.arrows:
        left = comp.get((C.identities[f.cod], f.name))
        if left != f.name:
            violations.append(
                Violation(
                    "left-unit",
                    (f.name,),
                    f"id after {f.name!r} is {left!r}",
                )
            )
        right = comp.get((f.name, C.identities[f.dom]))
        if right != f.name:
            violations.append(
                Violation(
                    "right-unit",
                    (f.name,),
                    f"{f.name!r} after id is {right!r}",
                )
            )

    for f in C.arrows:
        for g in C.arrows:
            if f.cod != g.dom:
                continue
            gf = comp[(g.name, f.name)]
            for h in C.arrows:
                if g.cod != h.dom:
                    continue
                hg = comp[(h.name, g.name)]
                lhs = comp.get((h.name, gf))
                rhs = comp.get((hg, f.name))
                if lhs is None or rhs is None or lhs != rhs:
                    violations.append(
                        Violation(
                            "associativity",
                            (h.name, g.name, f.name),
                            f"h∘(g∘f) = {lhs!r} but (h∘g)∘f = {rhs!r}",
                        )
                    )
    return AxiomReport.from_violations(violations)


def _universal_mediators(
    C: FiniteCategory, a: ObjectId, b: ObjectId, apex: ObjectId, p1: ArrowId, p2: ArrowId
) -> dict[Cone, ArrowId] | None:
    """Mediator table for the candidate (apex, p1, p2), or None if any cone
    has anything but exactly one mediating arrow."""
    mediators: dict[Cone, ArrowId] = {}
    for z in C.objects:
        into_apex = C.hom(z, apex)
        for f in C.hom(z, a):
            for g in C.hom(z, b):
                found = None
                for h in into_apex:
                    if C.compose(p1, h) == f and C.compose(p2, h) == g:
                        if found is not None:
                            return None
                        found = h
                if found is None:
                    return None
                mediators[Cone(z, f, g)] = found
    return mediators


def find_products(C: FiniteCategory, a: ObjectId, b: ObjectId) -> list[ProductCertificate]:
    """Every apex-with-projections satisfying the universal property for (a, b).

    All witnesses are returned, each with its full mediator table; the list
    is empty when no product exists.  Mediator search is pure enumeration of
    hom-sets, in hom order, so results are deterministic.  An unknown object
    is refused first, even when there is no apex to try.
    """
    for x in (a, b):
        if x not in C.objects:
            raise UnknownObject(f"unknown object {x!r}")
    certificates = []
    for apex in C.objects:
        for p1 in C.hom(apex, a):
            for p2 in C.hom(apex, b):
                mediators = _universal_mediators(C, a, b, apex, p1, p2)
                if mediators is not None:
                    certificates.append(
                        ProductCertificate(Cone(apex, p1, p2), mediators)
                    )
    return certificates


def is_equational_product(
    C: FiniteCategory, a: ObjectId, b: ObjectId, apex: ObjectId, p1: ArrowId, p2: ArrowId
) -> bool:
    """The purely equational product characterization, checked standalone.

    Requires (i) every cone over (a, b) admits at least one arrow commuting
    with the projections, and (ii) distinct arrows into the apex never share
    both projection composites, so each h equals the pairing of its own
    components.  The tests find it true exactly for the candidates that
    ``fincat.universal.find_products`` certifies, on every pair of objects
    of the fixtures, the divisibility poset and lawful categories drawn by
    hypothesis; on unlawful tables nothing is claimed.
    """
    for z in C.objects:
        into_apex = C.hom(z, apex)
        seen: dict[tuple[ArrowId, ArrowId], ArrowId] = {}
        for h in into_apex:
            key = (C.compose(p1, h), C.compose(p2, h))
            if key in seen:
                return False
            seen[key] = h
        for f in C.hom(z, a):
            for g in C.hom(z, b):
                if (f, g) not in seen:
                    return False
    return True


def find_terminals(C: FiniteCategory) -> list[ObjectId]:
    """All objects T with exactly one arrow into T from every object."""
    return [
        t for t in C.objects if all(len(C.hom(a, t)) == 1 for a in C.objects)
    ]


def nno_search(C: FiniteCategory) -> NnoSearchResult:
    """Exhaustively test every candidate (N, z, s) against every (A, c, f).

    A candidate qualifies when for each object A, each point c : 1 -> A and
    each self-map f : A -> A there is exactly one h : N -> A with h∘z = c
    and h∘s = f∘h.  The quantification ranges over the finite category
    itself, which is exactly why tiny categories can admit degenerate
    winners while any category with a two-element object refutes them all.
    """
    terminals = find_terminals(C)
    if not terminals:
        return NnoSearchResult((), note="no terminal object")
    one = terminals[0]
    recursion_data = [
        (a, c, f)
        for a in C.objects
        for c in C.hom(one, a)
        for f in C.hom(a, a)
    ]
    winners = []
    for n in C.objects:
        hom_one_n = C.hom(one, n)
        hom_n_n = C.hom(n, n)
        for z in hom_one_n:
            for s in hom_n_n:
                if _mediates_uniquely(C, one, n, z, s, recursion_data):
                    winners.append((n, z, s))
    return NnoSearchResult(tuple(winners))


def _mediates_uniquely(C, one, n, z, s, recursion_data) -> bool:
    for a, c, f in recursion_data:
        count = 0
        for h in C.hom(n, a):
            if C.compose(h, z) == c and C.compose(h, s) == C.compose(f, h):
                count += 1
                if count > 1:
                    return False
        if count != 1:
            return False
    return True


def check_functoriality(F: Functor) -> AxiomReport:
    """Exhaustively verify typing, identity and composition preservation.

    Missing table entries or dangling ids raise MalformedMap; every law
    violation is reported with its witnessing arrows.
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
    for f in src.arrows:
        for g in src.arrows:
            if f.cod != g.dom:
                continue
            lhs = F.arrow_map[src.compose(g.name, f.name)]
            try:
                rhs = tgt.compose(F.arrow_map[g.name], F.arrow_map[f.name])
            except ValueError:
                rhs = None
            if lhs != rhs:
                violations.append(
                    Violation(
                        "composition-preservation",
                        (g.name, f.name),
                        f"F(g∘f) = {lhs!r} but F(g)∘F(f) = {rhs!r}",
                    )
                )
    return AxiomReport.from_violations(violations)


def monic_counterexample(
    C: FiniteCategory | ReferenceMat, f: ArrowId, budget: int = DEFAULT_BUDGET
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


def epic_counterexample(
    C: FiniteCategory | ReferenceMat, f: ArrowId, budget: int = DEFAULT_BUDGET
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


def find_inverse(
    C: FiniteCategory | ReferenceMat, f: ArrowId, budget: int = DEFAULT_BUDGET
) -> ArrowId | None:
    """The two-sided inverse of f if one exists, else None; two inverses
    raise MalformedTable."""
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


def materialize(view: ReferenceMat, budget: int = DEFAULT_BUDGET) -> FiniteCategory:
    """Write out the reference matrices as explicit tables, hom by hom."""
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


def _matrix_name(m: MatrixOverZp) -> str:
    body = ";".join(",".join(str(e) for e in row) for row in m.entries)
    return f"{m.rows}x{m.cols}[{body}]"


class ReferenceMat:
    """Matrices over Z_p, every hom enumerated up front in lexicographic
    entry order; a composite multiplies the two matrices and renders the
    product's name.  Only the enumerated names are arrows."""

    def __init__(self, p: int, max_dim: int):
        self.p = p
        self.objects = tuple(str(n) for n in range(max_dim + 1))
        self.homs: dict[tuple[ObjectId, ObjectId], tuple[ArrowId, ...]] = {}
        self.matrices: dict[ArrowId, MatrixOverZp] = {}
        for n in range(max_dim + 1):
            for m in range(max_dim + 1):
                names = []
                for flat in itertools.product(range(p), repeat=n * m):
                    entries = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
                    matrix = MatrixOverZp(p, n, m, entries)
                    names.append(_matrix_name(matrix))
                    self.matrices[names[-1]] = matrix
                self.homs[(str(n), str(m))] = tuple(names)

    def matrix(self, f: ArrowId) -> MatrixOverZp:
        try:
            return self.matrices[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None

    def hom(self, a: ObjectId, b: ObjectId) -> tuple[ArrowId, ...]:
        for x in (a, b):
            if x not in self.objects:
                raise UnknownObject(f"unknown object {x!r}")
        return self.homs[(a, b)]

    def dom(self, f: ArrowId) -> ObjectId:
        return str(self.matrix(f).rows)

    def cod(self, f: ArrowId) -> ObjectId:
        return str(self.matrix(f).cols)

    def compose(self, g: ArrowId, f: ArrowId) -> ArrowId:
        mf, mg = self.matrix(f), self.matrix(g)
        if mf.cols != mg.rows:
            raise ValueError(f"arrows not composable: {f!r} then {g!r}")
        return _matrix_name(mf.multiply(mg))

    def identity(self, a: ObjectId) -> ArrowId:
        self.hom(a, a)
        return _matrix_name(MatrixOverZp.identity(self.p, int(a)))

    def all_arrows(self):
        for names in self.homs.values():
            yield from names


def poset_as_category(P) -> FiniteCategory:
    """Thin category of a poset, its compose table a dict filled f by f."""
    out: dict[str, dict[str, ArrowId]] = {}
    arrows = []
    for a in P.elements:
        out[a] = {}
        for b in P.elements:
            if P.le(a, b):
                out[a][b] = f"{a}<={b}"
                arrows.append(Arrow(out[a][b], a, b))
    identities = {a: out[a][a] for a in P.elements}
    composition = {}
    for f in arrows:
        for c, g in out[f.cod].items():
            composition[(g, f.name)] = out[f.dom][c]
    return FiniteCategory(tuple(P.elements), tuple(arrows), identities, composition)


def law_violation(M) -> tuple | None:
    """First witness breaking a unit law or associativity, or None: the unit
    laws element by element, then every triple (a, b, c) in element order."""
    for a in M.elements:
        if M.mult[(M.unit, a)] != a:
            return ("left-unit", a)
        if M.mult[(a, M.unit)] != a:
            return ("right-unit", a)
    for a, b, c in itertools.product(M.elements, repeat=3):
        if M.mult[(M.mult[(a, b)], c)] != M.mult[(a, M.mult[(b, c)])]:
            return ("associativity", a, b, c)
    return None


def monoid_as_category(M, object_name: str = "*") -> FiniteCategory:
    """One-object category of a monoid, its compose table a dict of products."""
    witness = law_violation(M)
    if witness is not None:
        raise InvalidMonoid(f"monoid law broken: {witness!r}", witness=witness)
    arrows = tuple(Arrow(e, object_name, object_name) for e in M.elements)
    composition = {
        (g, f): M.mult[(g, f)] for g in M.elements for f in M.elements
    }
    return FiniteCategory((object_name,), arrows, {object_name: M.unit}, composition)


def _function_name(fn: FiniteFunction) -> str:
    body = ",".join(f"{x}:{fn.graph[x]}" for x in fn.dom.elements)
    return f"{fn.dom.name}->{fn.cod.name}{{{body}}}"


def _relation_name(rel: FiniteRelation) -> str:
    order = {x: i for i, x in enumerate(rel.dom.elements)}
    corder = {y: i for i, y in enumerate(rel.cod.elements)}
    pairs = sorted(rel.pairs, key=lambda xy: (order[xy[0]], corder[xy[1]]))
    body = ",".join(f"({x},{y})" for x, y in pairs)
    return f"{rel.dom.name}->{rel.cod.name}{{{body}}}"


def compose_functions(g: FiniteFunction, f: FiniteFunction) -> FiniteFunction:
    """The composite "f then g"."""
    if f.cod != g.dom:
        raise ValueError("functions are not composable")
    return FiniteFunction(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})


def compose_relations(s: FiniteRelation, r: FiniteRelation) -> FiniteRelation:
    """Relational composite "r then s": pairs (x, z) with some y related both ways."""
    if r.cod != s.dom:
        raise ValueError("relations are not composable")
    mid: dict = {}
    for y, z in s.pairs:
        mid.setdefault(y, set()).add(z)
    pairs = frozenset((x, z) for x, y in r.pairs for z in mid.get(y, ()))
    return FiniteRelation(r.dom, s.cod, pairs)


def finset_functions(sets) -> dict[ArrowId, FiniteFunction]:
    """Every function between the sets, by name, hom by hom in set order and
    each hom in the order of its tuples of image positions."""
    functions = {}
    for dom in sets:
        for cod in sets:
            for images in itertools.product(range(len(cod.elements)), repeat=len(dom.elements)):
                graph = {x: cod.elements[i] for x, i in zip(dom.elements, images)}
                fn = FiniteFunction(dom, cod, graph)
                functions[_function_name(fn)] = fn
    return functions


def finrel_relations(sets) -> dict[ArrowId, FiniteRelation]:
    """Every relation between the sets, by name, hom by hom in set order and
    each hom in the order of the mask whose bit i·|Y| + j relates the i-th
    element of X to the j-th of Y."""
    relations = {}
    for dom in sets:
        for cod in sets:
            all_pairs = [(x, y) for x in dom.elements for y in cod.elements]
            for mask in range(2 ** len(all_pairs)):
                pairs = frozenset(p for i, p in enumerate(all_pairs) if mask >> i & 1)
                rel = FiniteRelation(dom, cod, pairs)
                relations[_relation_name(rel)] = rel
    return relations
