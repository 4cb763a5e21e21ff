"""The kernel deciders against the string-keyed reference (`reference_core`)
on small lawful tables -- posets, cyclic monoids, FinSet and FinRel on at
most three sets of at most two elements -- and on broken copies of them:
rebound composites (mistyped ones included), deleted entries, dangling ids
and entries for non-composable pairs."""

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import reference_core as ref
from fincat.builders import (
    FiniteMonoid,
    NamedFiniteSet,
    build_finrel,
    build_finset,
    monoid_as_category,
    poset_as_category,
)
from fincat.core import Arrow, FiniteCategory, validate
from fincat.errors import MalformedMap, MalformedTable, UnknownObject
from fincat.functors import Functor, check_functoriality
from fincat.galois import FinitePoset
from fincat.nno import nno_search
from fincat.universal import find_products

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def posets(draw):
    n = draw(st.integers(0, 5))
    elements = [f"p{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=2 * n))
    # pairs point up the element order, so the closure is antisymmetric
    covers = [(elements[min(i, j)], elements[max(i, j)]) for i, j in pairs if n]
    return poset_as_category(FinitePoset.from_relation(elements, covers))


@st.composite
def named_sets(draw, max_sets=3, max_size=2):
    sizes = draw(st.lists(st.integers(0, max_size), min_size=1, max_size=max_sets))
    return [NamedFiniteSet(f"S{i}", tuple(f"x{j}" for j in range(n))) for i, n in enumerate(sizes)]


def _small_finrel(sets):
    # at most 2 ** 4 relations per hom-set and 48 relations in all, so the
    # reference's all-triples scan stays well under a second per example
    return sum(2 ** (len(x.elements) * len(y.elements)) for x in sets for y in sets) <= 48


lawful_categories = st.one_of(
    posets(),
    st.integers(1, 5).map(lambda n: monoid_as_category(FiniteMonoid.cyclic(n))),
    named_sets().map(lambda sets: build_finset(sets).category),
    named_sets().filter(_small_finrel).map(lambda sets: build_finrel(sets).category),
)


def tables(C):
    """Mutable copies of a category's tables."""
    return list(C.objects), list(C.arrows), dict(C.identities), dict(C.composition)


LAW_BREAKS = ["rebind", "identity"]
MALFORMATIONS = [
    "delete", "dangling-value", "dangling-key", "non-composable",
    "dangling-identity", "identity-object", "arrow-object",
]


def broken_copy(draw, C, kinds=LAW_BREAKS + MALFORMATIONS):
    """A copy of C with one to three table entries broken: "rebind" points a
    composite at any arrow and "identity" an identity, which keep the table
    well formed, and the malformations leave it partial or dangling."""
    objects, arrows, identities, composition = tables(C)
    names = [a.name for a in arrows]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("rebind", "delete", "dangling-value") and composition:
            key = draw(st.sampled_from(sorted(composition)))
            others = [n for n in names if n != composition[key]]
            if kind == "delete":
                del composition[key]
            elif kind == "dangling-value":
                composition[key] = "ghost"
            elif others:
                composition[key] = draw(st.sampled_from(others))
        elif kind == "dangling-key" and names:
            composition[(draw(st.sampled_from(names)), "ghost")] = draw(st.sampled_from(names))
        elif kind == "non-composable" and names:
            by_name = {a.name: a for a in arrows}
            pairs = [(g, f) for g in names for f in names if by_name[f].cod != by_name[g].dom]
            if pairs:
                composition[draw(st.sampled_from(pairs))] = draw(st.sampled_from(names))
        elif kind == "identity" and objects and len(names) > 1:
            a = draw(st.sampled_from(objects))
            identities[a] = draw(st.sampled_from([n for n in names if n != identities[a]]))
        elif kind == "dangling-identity" and objects:
            identities[draw(st.sampled_from(objects))] = "ghost"
        elif kind == "identity-object" and names:
            identities["nowhere"] = draw(st.sampled_from(names))
        elif kind == "arrow-object" and arrows:
            i = draw(st.integers(0, len(arrows) - 1))
            arrows[i] = Arrow(arrows[i].name, arrows[i].dom, "nowhere")
    return FiniteCategory(tuple(objects), tuple(arrows), identities, composition)


@st.composite
def broken_categories(draw, kinds=LAW_BREAKS + MALFORMATIONS):
    C = draw(lawful_categories.filter(lambda C: len(C.arrows) > 1))
    return broken_copy(draw, C, kinds)


any_categories = st.one_of(lawful_categories, broken_categories(LAW_BREAKS), broken_categories())


def is_malformed(C) -> bool:
    try:
        C.kernel()
    except MalformedTable:
        return True
    return False


def outcome(call):
    """('ok', value) or ('raised', exception type, message)."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the types are what is compared
        return ("raised", type(exc), str(exc))


def rebound_to_another_domain():
    """Two empty sets, with "S1->S0 then S0->S1" rebound to an arrow out of
    S0: the row of the rebound composite has the length and entries of the
    row it is compared with, but every triple through it breaks the law."""
    objects, arrows, identities, composition = tables(
        build_finset([NamedFiniteSet("S0", ()), NamedFiniteSet("S1", ())]).category
    )
    composition[("S0->S1{}", "S1->S0{}")] = "S0->S1{}"
    return FiniteCategory(tuple(objects), tuple(arrows), identities, composition)


@SETTINGS
@given(any_categories)
@example(rebound_to_another_domain())
def test_validate_matches_the_reference(C):
    new, old = outcome(lambda: validate(C)), outcome(lambda: ref.validate(C))
    event("malformed" if new[0] == "raised" else "lawful" if new[1].ok else "violations")
    assert new == old
    assert (new[0] == "raised") == is_malformed(C)


def assert_certificates_equal(new, old):
    assert new == old
    for a, b in zip(new, old):
        assert list(a.mediators.items()) == list(b.mediators.items())


@SETTINGS
@given(any_categories, st.data())
def test_products_match_the_reference(C, data):
    candidates = list(C.objects) + ["ghost"]
    a = data.draw(st.sampled_from(candidates))
    b = data.draw(st.sampled_from(candidates))
    if is_malformed(C):
        with pytest.raises(MalformedTable):
            find_products(C, a, b)
        return
    new, old = outcome(lambda: find_products(C, a, b)), outcome(lambda: ref.find_products(C, a, b))
    if old[0] == "raised":
        assert old[1] is UnknownObject
        assert new == old
    else:
        assert new[0] == "ok"
        assert_certificates_equal(new[1], old[1])


@SETTINGS
@given(any_categories)
def test_nno_search_matches_the_reference(C):
    if is_malformed(C):
        with pytest.raises(MalformedTable):
            nno_search(C)
        return
    assert nno_search(C) == ref.nno_search(C)


@st.composite
def functors(draw):
    """A functor between a category and a (possibly broken) copy of it, the
    identity maps with up to two entries rebound, deleted or dangling."""
    C = draw(lawful_categories)
    D = C if draw(st.booleans()) else broken_copy(draw, C)
    source, target = (C, D) if draw(st.booleans()) else (D, C)
    object_map = {a: a for a in source.objects}
    arrow_map = {f.name: f.name for f in source.arrows}
    target_names = [f.name for f in target.arrows] or ["ghost"]
    for _ in range(draw(st.integers(0, 2))):
        if not arrow_map:
            break
        f = draw(st.sampled_from(sorted(arrow_map)))
        kind = draw(st.sampled_from(["rebind", "rebind", "delete", "dangling", "object"]))
        if kind == "rebind":
            arrow_map[f] = draw(st.sampled_from(target_names))
        elif kind == "delete":
            del arrow_map[f]
        elif kind == "dangling":
            arrow_map[f] = "ghost"
        elif object_map:
            object_map[draw(st.sampled_from(sorted(object_map)))] = draw(
                st.sampled_from(list(target.objects) or ["ghost"])
            )
    return Functor(source, target, object_map, arrow_map)


@SETTINGS
@given(functors())
def test_functoriality_matches_the_reference(F):
    old = outcome(lambda: ref.check_functoriality(F))
    new = outcome(lambda: check_functoriality(F))
    if old[0] == "raised" and old[1] is MalformedMap:
        assert new == old
    elif is_malformed(F.source) or is_malformed(F.target):
        assert new[0] == "raised" and new[1] is MalformedTable
    else:
        assert new == old


def test_mistyped_identity_reports_the_unit_laws_instead_of_crashing():
    C = FiniteCategory(
        ("A", "B"),
        (Arrow("1A", "A", "A"), Arrow("1B", "B", "B"), Arrow("u", "A", "B")),
        {"A": "1A", "B": "u"},
        {("1A", "1A"): "1A", ("1B", "1B"): "1B", ("u", "1A"): "u", ("1B", "u"): "u"},
    )
    report = validate(C)
    assert report == ref.validate(C)
    laws = [v.law for v in report.violations]
    assert laws[0] == "identity-typing" and "left-unit" in laws
    assert "id after 'u' is None" in [v.detail for v in report.violations]
