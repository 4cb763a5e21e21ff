"""Verdicts must not depend on names or on the order of the tables.

Each property renames every object and arrow of a category by a random
bijection and permutes the order of its objects and of its arrows, going
through `dump_category` and `parse_category`.  A category and its renamed
copy are isomorphic, so every verdict about one, carried along the
bijection, is the verdict about the other.  Only the choice of witness may
change.  The same holds for functors carried along the renaming, and for
monotone maps between posets whose elements are renamed and reordered.  The
reference oracles are earlier versions of the same algorithms and can share
their mistakes; these properties hold whatever the algorithm.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fincat import core
from fincat.builders import poset_as_category, poset_from_category
from fincat.core import validate
from fincat.errors import AdjunctionFails, MalformedTable, NotMonotone
from fincat.formats import dump_category, dump_poset, parse_category, parse_poset
from fincat.functors import Functor, check_functoriality, functor_as_monotone, monotone_as_functor
from fincat.galois import (
    FinitePoset,
    MonotoneMap,
    adjunction_witness,
    left_adjoint,
    right_adjoint,
    unit_counit_violations,
    verify_adjunction,
)
from fincat.nno import nno_search
from fincat.universal import Cone, find_initials, find_products, find_terminals
from test_core_reference import LAW_BREAKS, broken_categories, finite_posets, lawful_categories

INVARIANCE = settings(max_examples=150, deadline=None)


@st.composite
def renamed(draw, categories=st.one_of(lawful_categories, broken_categories(LAW_BREAKS))):
    """(C, R, σ, τ): R is C with object a named σ[a] and arrow f named τ[f],
    and its objects and arrows listed in a drawn order."""
    C = draw(categories)
    doc = dump_category(C)
    objects, arrows = doc["objects"], doc["arrows"]
    sigma = dict(zip(objects, draw(st.permutations([f"o{i}" for i in range(len(objects))]))))
    names = [a["name"] for a in arrows]
    tau = dict(zip(names, draw(st.permutations([f"f{i}" for i in range(len(names))]))))
    R = parse_category({
        "objects": [sigma[a] for a in draw(st.permutations(objects))],
        "arrows": [
            {"name": tau[a["name"]], "dom": sigma[a["dom"]], "cod": sigma[a["cod"]]}
            for a in draw(st.permutations(arrows))
        ],
        "identities": {sigma[a]: tau[f] for a, f in doc["identities"].items()},
        "compose": [{k: tau[e[k]] for k in ("after", "then", "is")} for e in doc["compose"]],
    })
    return C, R, sigma, tau


def inverse_kind(C, f):
    """Whether f has an inverse, or "several" when the broken laws give it
    more than one."""
    try:
        return core.find_inverse(C, f) is not None
    except MalformedTable:
        return "several"


def verdicts(C, sigma=None, tau=None) -> dict:
    """The verdicts about C, with its objects renamed by σ and its arrows by
    τ (the identity when not given).  Each is read off the tables with no
    choice of names, except the natural-numbers search, see below."""
    ob = (lambda a: a) if sigma is None else sigma.__getitem__
    ar = (lambda f: f) if tau is None else tau.__getitem__

    def certificate(c):
        mediators = {Cone(ob(k.apex), ar(k.left), ar(k.right)): ar(h) for k, h in c.mediators.items()}
        return Cone(ob(c.apex), ar(c.pi1), ar(c.pi2)), frozenset(mediators.items())

    arrows, ok = list(C.all_arrows()), validate(C).ok
    return {
        "validate": ok,
        "monic": {ar(f) for f in arrows if core.is_monic(C, f)},
        "epic": {ar(f) for f in arrows if core.is_epic(C, f)},
        "iso": {ar(f): inverse_kind(C, f) for f in arrows},
        "terminals": set(map(ob, find_terminals(C))),
        "initials": set(map(ob, find_initials(C))),
        "products": {
            (ob(a), ob(b)): set(map(certificate, find_products(C, a, b)))
            for a in C.objects
            for b in C.objects
        },
        # the search starts from the first terminal object, and the choice
        # does not matter only when the laws make the terminals isomorphic
        "nno triples": len(nno_search(C).triples) if ok else None,
    }


@INVARIANCE
@given(renamed())
def test_verdicts_are_carried_along_a_renaming(case):
    C, R, sigma, tau = case
    assert verdicts(C, sigma, tau) == verdicts(R)


@INVARIANCE
@given(finite_posets())
def test_a_poset_is_read_back_from_its_thin_category(P):
    assert poset_from_category(poset_as_category(P)) == P


@st.composite
def monotone_maps(draw):
    """A monotone map from a drawn poset to a chain, built up its element
    order, which extends its partial order; or its identity."""
    P = draw(finite_posets())
    if draw(st.booleans()):
        return MonotoneMap.identity(P)
    Q = FinitePoset.chain([f"q{i}" for i in range(draw(st.integers(1, 4)))])
    graph: dict = {}
    for x in P.elements:
        low = max((Q.position(graph[y]) for y in graph if P.le(y, x)), default=0)
        graph[x] = Q.elements[draw(st.integers(low, len(Q.elements) - 1))]
    return MonotoneMap(P, Q, graph)


@INVARIANCE
@given(monotone_maps())
def test_a_monotone_map_is_read_back_from_its_functor(m):
    assert functor_as_monotone(monotone_as_functor(m)) == m


def functoriality(F, tau=None) -> tuple:
    """Whether F is a functor, and its violated laws with their witnessing
    arrows renamed by τ; the detail texts name arrows of the target, so they
    are left out."""
    ar = (lambda f: f) if tau is None else tau.__getitem__
    report = check_functoriality(F)
    return report.ok, {(v.law, tuple(map(ar, v.witnesses))) for v in report.violations}


@INVARIANCE
@given(renamed(), st.data())
def test_functoriality_is_carried_along_a_renaming(case, data):
    C, R, sigma, tau = case
    # the identity functor carried along the renaming is C -> R itself
    transported = Functor(C, R, sigma, tau)
    assert functoriality(transported, tau) == functoriality(Functor.identity(C), tau)
    assert functoriality(Functor.identity(C), tau) == functoriality(Functor.identity(R))
    # an endofunctor table that moves some arrows, and its copy on R
    arrows = list(C.all_arrows())
    pick = st.sampled_from(arrows)
    moved = data.draw(st.dictionaries(pick, pick, max_size=3)) if arrows else {}
    arrow_map = {f: moved.get(f, f) for f in arrows}
    F = Functor(C, C, {a: a for a in C.objects}, arrow_map)
    G = Functor(R, R, {a: a for a in R.objects}, {tau[f]: tau[g] for f, g in arrow_map.items()})
    assert functoriality(F, tau) == functoriality(G)


@st.composite
def renamed_poset(draw, P, prefix):
    """(R, ρ): P with element x named ρ[x], and its elements and related
    pairs listed in a drawn order, read back through `parse_poset`."""
    rho = dict(zip(P.elements, draw(st.permutations([f"{prefix}{i}" for i in range(len(P.elements))]))))
    R = parse_poset({
        "elements": [rho[x] for x in draw(st.permutations(P.elements))],
        "leq": [[rho[x], rho[y]] for x, y in draw(st.permutations(dump_poset(P)["leq"]))],
    })
    return R, rho


@st.composite
def renamed_map_pairs(draw):
    """f : P -> Q and g : Q -> P as graphs, not necessarily monotone, and
    the same on renamed and reordered copies of P and Q."""
    P, Q = draw(finite_posets()), draw(finite_posets().filter(lambda Q: Q.elements))
    if not P.elements:
        P = FinitePoset.chain(["p0"])
    f = {x: draw(st.sampled_from(Q.elements)) for x in P.elements}
    g = {z: draw(st.sampled_from(P.elements)) for z in Q.elements}
    RP, rho = draw(renamed_poset(P, "a"))
    RQ, kappa = draw(renamed_poset(Q, "b"))
    renamed_f = {rho[x]: kappa[z] for x, z in f.items()}
    renamed_g = {kappa[z]: rho[x] for z, x in g.items()}
    return (P, Q, f, g), (RP, RQ, renamed_f, renamed_g), rho, kappa


def order_verdicts(P, Q, f_graph, g_graph, rho=None, kappa=None) -> dict:
    """The verdicts about f : P -> Q and g : Q -> P, with the elements of P
    renamed by ρ and those of Q by κ (the identity when not given)."""
    p = (lambda x: x) if rho is None else rho.__getitem__
    q = (lambda z: z) if kappa is None else kappa.__getitem__
    found: dict = {}
    maps = {}
    for name, dom, cod, graph in (("f", P, Q, f_graph), ("g", Q, P, g_graph)):
        try:
            maps[name] = MonotoneMap(dom, cod, graph)
        except NotMonotone:
            found[f"{name} monotone"] = False
    if "f" in maps:
        f = maps["f"]
        left, right = left_adjoint(f), right_adjoint(f)
        found["left"] = left and {q(z): p(x) for z, x in left.graph.items()}
        found["right"] = right and {q(z): p(x) for z, x in right.graph.items()}
        found["certified"] = (
            left and verify_adjunction(left, f).verified_on,
            right and verify_adjunction(f, right).verified_on,
        )
    if len(maps) == 2:
        f, g = maps["f"], maps["g"]
        found["adjoint"] = adjunction_witness(f, g) is None
        found["laws"] = [message.split(" ")[0] for message in unit_counit_violations(f, g)]
        try:
            found["verified"] = verify_adjunction(f, g).verified_on
        except AdjunctionFails:
            found["verified"] = None
    return found


@INVARIANCE
@given(renamed_map_pairs())
def test_order_verdicts_are_carried_along_a_renaming(case):
    (P, Q, f, g), (RP, RQ, renamed_f, renamed_g), rho, kappa = case
    assert order_verdicts(P, Q, f, g, rho, kappa) == order_verdicts(RP, RQ, renamed_f, renamed_g)
