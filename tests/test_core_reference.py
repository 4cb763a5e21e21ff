"""The kernel deciders against the string-keyed reference (`reference_core`)
on small lawful tables -- posets, monoids, FinSet and FinRel on at most
three sets of at most two elements -- and on broken copies of them:
rebound composites (mistyped ones, and ones that repeat an id in a row or a
column, included), deleted entries, dangling ids and entries for
non-composable pairs.  The matrix views are compared with the view that
multiplied and rendered every composite, and the row-backed compose tables
of the builders with plain dicts."""

import json

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import reference_core as ref
from fincat import core, universal
from fincat.builders import (
    FiniteMonoid,
    NamedFiniteSet,
    build_finrel,
    build_finset,
    build_mat,
    monoid_as_category,
    poset_as_category,
)
from fincat.core import Arrow, FiniteCategory, materialize, validate
from fincat.errors import MalformedMap, MalformedTable, UnknownArrow, UnknownObject
from fincat.formats import dump_category
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


@st.composite
def monoids(draw, kinds=("cyclic", "maps", "table")):
    """A cyclic monoid; the self-maps of a set of at most three elements
    that some drawn maps generate under composition; or a table on at most
    three elements with its unit's row and column fixed and the rest drawn,
    which may break associativity.  The elements are listed in drawn order."""
    kind = draw(st.sampled_from(kinds))
    if kind == "cyclic":
        return FiniteMonoid.cyclic(draw(st.integers(1, 5)))
    k = draw(st.integers(1, 3))
    if kind == "maps":
        maps = {tuple(range(k))}
        new = set(draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * k), max_size=2)))
        while new:
            maps |= new
            new = {tuple(g[y] for y in f) for f in maps for g in maps} - maps
        def label(m):
            return "".join(map(str, m))

        elements = tuple(label(m) for m in draw(st.permutations(sorted(maps))))
        mult = {(label(g), label(f)): label([g[y] for y in f]) for f in maps for g in maps}
        return FiniteMonoid(elements, label(range(k)), mult)
    elements = draw(st.permutations(["e", "a", "b"][:k]))
    mult = {}
    for x in elements:
        for y in elements:
            mult[(x, y)] = y if x == "e" else x if y == "e" else draw(st.sampled_from(elements))
    return FiniteMonoid(tuple(elements), "e", mult)


lawful_categories = st.one_of(
    posets(),
    monoids(("cyclic", "maps")).map(monoid_as_category),
    named_sets().map(lambda sets: build_finset(sets).category),
    named_sets().filter(_small_finrel).map(lambda sets: build_finrel(sets).category),
)


def tables(C):
    """Mutable copies of a category's tables."""
    return list(C.objects), list(C.arrows), dict(C.identities), dict(C.composition)


LAW_BREAKS = ["rebind", "identity", "repeat-row", "repeat-column"]
MALFORMATIONS = [
    "delete", "dangling-value", "dangling-key", "non-composable",
    "dangling-identity", "identity-object", "arrow-object",
]


def broken_copy(draw, C, kinds=LAW_BREAKS + MALFORMATIONS):
    """A copy of C with one to three table entries broken: "rebind" points a
    composite at any arrow and "identity" an identity, "repeat-row" makes
    g∘f2 equal g∘f1 and "repeat-column" g2∘f equal g1∘f, which keep the table
    well formed, and the malformations leave it partial or dangling."""
    objects, arrows, identities, composition = tables(C)
    names = [a.name for a in arrows]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("repeat-row", "repeat-column") and len(composition) > 1:
            # another entry with the same g (a row) or f (a column) is
            # given this entry's value
            side = 0 if kind == "repeat-row" else 1
            key = draw(st.sampled_from(sorted(composition)))
            twins = sorted(k for k in composition if k[side] == key[side] and k != key)
            if twins:
                composition[draw(st.sampled_from(twins))] = composition[key]
        elif kind in ("rebind", "delete", "dangling-value") and composition:
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


@st.composite
def categories_with_a_pair(draw):
    C = draw(any_categories)
    candidates = list(C.objects) + ["ghost"]
    return C, draw(st.sampled_from(candidates)), draw(st.sampled_from(candidates))


def mistyped_finset():
    """FinSet on one- and two-element sets with a composite rebound to an
    arrow of another hom.  Counting rules out the apex S0 for products of
    (S1, S1) and of (S0, S1): hom(S1, S0) has one arrow, and there are 16
    and 4 cones from S1."""
    objects, arrows, identities, composition = tables(
        build_finset([NamedFiniteSet("S0", ("x0",)), NamedFiniteSet("S1", ("x0", "x1"))]).category
    )
    composition[("S1->S1{x0:x1,x1:x0}", "S0->S1{x0:x0}")] = "S1->S0{x0:x0,x1:x0}"
    return FiniteCategory(tuple(objects), tuple(arrows), identities, composition)


@SETTINGS
@given(categories_with_a_pair())
@example((mistyped_finset(), "S1", "S1"))
def test_products_match_the_reference(case):
    C, a, b = case
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


def test_an_apex_with_too_few_arrows_in_is_not_searched(monkeypatch):
    C = mistyped_finset()
    searched = []
    search = universal._universal_mediators

    def spy(K, a, b, apex, p1, p2):
        searched.append(apex)
        return search(K, a, b, apex, p1, p2)

    monkeypatch.setattr(universal, "_universal_mediators", spy)
    assert_certificates_equal(find_products(C, "S0", "S1"), ref.find_products(C, "S0", "S1"))
    assert "S0" not in searched and "S1" in searched


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


PREDICATES = ["monic_counterexample", "epic_counterexample", "find_inverse"]
budgets = st.one_of(st.integers(0, 3), st.just(core.DEFAULT_BUDGET))


@SETTINGS
@given(any_categories, st.data())
def test_predicates_match_the_reference(C, data):
    f = data.draw(st.sampled_from([a.name for a in C.arrows] + ["ghost"]))
    budget = data.draw(budgets)
    for name in PREDICATES:
        new = outcome(lambda: getattr(core, name)(C, f, budget))
        if is_malformed(C):
            assert new[:2] == ("raised", MalformedTable)
            continue
        old = outcome(lambda: getattr(ref, name)(C, f, budget))
        event(f"{name}: {new[0] if new[0] == 'raised' else 'found' if new[1] else 'none'}")
        assert new == old


MAT_SIZES = [(2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.fixture(scope="module", params=MAT_SIZES, ids=lambda pd: f"p{pd[0]}-d{pd[1]}")
def mat_pair(request):
    return build_mat(*request.param), ref.ReferenceMat(*request.param)


def test_mat_view_matches_the_reference_view(mat_pair):
    view, old = mat_pair
    assert view.objects == old.objects
    for a in old.objects:
        assert view.identity(a) == old.identity(a)
        for b in old.objects:
            assert view.hom(a, b) == old.hom(a, b)
    for f in old.all_arrows():
        assert (view.dom(f), view.cod(f), view.matrix(f)) == (old.dom(f), old.cod(f), old.matrix(f))
        for name in PREDICATES:
            want = getattr(ref, name)(old, f)
            assert getattr(core, name)(view, f) == want
            # a CategoryView subclass without rows of its own is read
            # through the base-class kernel
            assert getattr(core, name)(old, f) == want


def test_materialized_mat_view_matches_the_reference(mat_pair):
    view, old = mat_pair
    new, want = materialize(view), ref.materialize(old)
    assert (new.objects, new.arrows, new.identities) == (want.objects, want.arrows, want.identities)
    assert list(new.composition.items()) == list(want.composition.items())
    with pytest.raises(core.EnumerationBudgetExceeded):
        materialize(view, budget=len(want.arrows) - 1)


@SETTINGS
@given(st.sampled_from(MAT_SIZES), st.data())
def test_mat_predicates_match_the_reference_under_budgets(size, data):
    view, old = build_mat(*size), ref.ReferenceMat(*size)
    f = data.draw(st.sampled_from(list(old.all_arrows())))
    budget = data.draw(budgets)
    for name in PREDICATES:
        want = outcome(lambda: getattr(ref, name)(old, f, budget))
        assert outcome(lambda: getattr(core, name)(view, f, budget)) == want
        assert outcome(lambda: getattr(core, name)(old, f, budget)) == want


@pytest.mark.parametrize("name", ["1x1[01]", "1x1[ 1]", "1x1[+1]", "2x1[1; 0]", "0x1[]x", "1x1[1]]"])
def test_mat_rejects_names_that_are_not_canonical(name):
    view = build_mat(3, 2)
    assert not view.has_arrow(name)
    for call in (view.dom, view.matrix, lambda f: view.compose("1x1[1]", f)):
        with pytest.raises(UnknownArrow, match="unknown arrow"):
            call(name)
    for predicate in PREDICATES:
        with pytest.raises(UnknownArrow):
            getattr(core, predicate)(view, name)


@st.composite
def built_categories(draw):
    kind = draw(st.sampled_from(["poset", "finset", "finrel", "mat"]))
    if kind == "poset":
        return draw(posets())
    if kind == "finset":
        return build_finset(draw(named_sets())).category
    if kind == "finrel":
        return build_finrel(draw(named_sets().filter(_small_finrel))).category
    return materialize(build_mat(*draw(st.sampled_from(MAT_SIZES[:3]))))


@SETTINGS
@given(built_categories(), st.data())
def test_row_backed_composition_is_a_read_only_dict(C, data):
    table = C.composition
    plain = dict(table.items())
    assert list(table) == list(plain) and list(table.values()) == list(plain.values())
    assert len(table) == len(plain) == sum(
        1 for f in C.arrows for g in C.arrows if f.cod == g.dom
    )
    assert table == plain and plain == table and not table != plain
    if plain:
        key = data.draw(st.sampled_from(list(plain)))
        assert key in table and table[key] == table.get(key) == plain[key]
        changed = dict(plain)
        changed[key] = "ghost"
        assert table != changed
    names = [a.name for a in C.arrows] + ["ghost"]
    g, f = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
    for key in [(g, f), (g,), (g, f, f), g, 3, None]:
        if key in plain:
            continue
        assert key not in table and table.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            table[key]
    with pytest.raises(TypeError):
        table[(g, f)] = g
    user = FiniteCategory(C.objects, C.arrows, dict(C.identities), plain)
    assert json.dumps(dump_category(C)) == json.dumps(dump_category(user))
    assert C == user


@SETTINGS
@given(monoids())
def test_monoid_rows_match_the_dict_built_monoid(M):
    new, old = outcome(lambda: monoid_as_category(M)), outcome(lambda: ref.monoid_as_category(M))
    event(new[0])
    if old[0] == "raised":
        assert new == old
        return
    C, want = new[1], old[1]
    assert (C.objects, C.arrows, C.identities) == (want.objects, want.arrows, want.identities)
    assert C.kernel().rows == want.kernel().rows
    assert dict(C.composition) == dict(want.composition)
    assert validate(C) == validate(want)


@SETTINGS
@given(any_categories)
def test_find_terminals_matches_the_reference(C):
    if is_malformed(C):
        with pytest.raises(MalformedTable):
            universal.find_terminals(C)
        return
    assert universal.find_terminals(C) == ref.find_terminals(C)


@SETTINGS
@given(posets())
def test_poset_rows_match_the_dict_built_poset(C):
    P = FinitePoset(C.objects, frozenset((a.dom, a.cod) for a in C.arrows))
    want = ref.poset_as_category(P)
    assert (C.arrows, C.identities) == (want.arrows, want.identities)
    assert list(C.composition.items()) == list(want.composition.items())


def every_arrow_categories():
    one, two = NamedFiniteSet("S0", ("x0",)), NamedFiniteSet("S1", ("x0", "x1"))
    return [
        build_finset([one, two]).category,
        build_finrel([one, two]).category,
        monoid_as_category(FiniteMonoid.cyclic(3)),
        mistyped_finset(),
        materialize(build_mat(2, 2)),
    ]


@pytest.mark.parametrize("C", every_arrow_categories(), ids=["finset", "finrel", "z3", "mistyped", "mat"])
def test_predicates_match_the_reference_on_every_arrow(C):
    for f in C.all_arrows():
        for budget in (0, 1, 2, 3, 5, core.DEFAULT_BUDGET):
            for name in PREDICATES:
                new = outcome(lambda: getattr(core, name)(C, f, budget))
                assert new == outcome(lambda: getattr(ref, name)(C, f, budget)), (f, budget, name)
