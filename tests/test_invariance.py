"""Verdicts must not depend on names or on the order of the tables.

Each property renames every object and arrow of a category by a random
bijection and permutes the order of its objects and of its arrows, going
through `dump_category` and `parse_category`.  A category and its renamed
copy are isomorphic, so every verdict about one, carried along the
bijection, is the verdict about the other.  Only the choice of witness may
change.  The reference oracles are earlier versions of the same algorithms
and can share their mistakes; these properties hold whatever the algorithm.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fincat import core
from fincat.builders import poset_as_category, poset_from_category
from fincat.core import validate
from fincat.errors import MalformedTable
from fincat.formats import dump_category, parse_category
from fincat.functors import functor_as_monotone, monotone_as_functor
from fincat.galois import FinitePoset, MonotoneMap
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
