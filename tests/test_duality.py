"""Duality: every dual decider is its primal decider run on C^op.

The oracle builds C^op without `opposite`: it dumps C's tables, turns every
arrow round (dom and cod swap, and so do the two sides of each composite)
and parses the result.  On that category the epic search must give the
monic witnesses of C, the terminal search the initial objects of C and the
string-keyed reference product search the coproducts of C, certificate for
certificate, budgets and the points where they raise included."""

import gc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_core as ref
from fincat import core
from fincat.builders import (
    FiniteMonoid,
    NamedFiniteSet,
    build_finrel,
    build_finset,
    build_mat,
    monoid_as_category,
    poset_as_category,
)
from fincat.core import Arrow, FiniteCategory, opposite, validate
from fincat.formats import dump_category, load_category, parse_category
from fincat.functors import Functor, check_functoriality
from fincat.galois import FinitePoset
from fincat.nno import nno_search
from fincat.universal import find_coproducts, find_initials, find_terminals
from test_core_reference import (
    LAW_BREAKS,
    broken_categories,
    monoids,
    outcome,
    plural_categories,
    posets,
)

DUALITY = settings(max_examples=150, deadline=None)
BUDGETS = (0, 1, 2, 3, 5, core.DEFAULT_BUDGET)
FIXTURES = Path(__file__).parent.parent / "fixtures"
CATEGORY_FIXTURES = [
    "diamond", "finset", "mat", "monoid_z2", "poset_divisibility", "threechain", "twochain",
    "twochain_broken",
]


def flipped(C: FiniteCategory) -> FiniteCategory:
    """C^op read from C's dumped tables with every arrow turned round."""
    doc = dump_category(C)
    return parse_category({
        "objects": doc["objects"],
        "arrows": [{"name": a["name"], "dom": a["cod"], "cod": a["dom"]} for a in doc["arrows"]],
        "identities": doc["identities"],
        "compose": [{"after": e["then"], "then": e["after"], "is": e["is"]} for e in doc["compose"]],
    })


def monoid_table(M: FiniteMonoid) -> FiniteCategory:
    """The one-object category of a monoid table, whether or not the table
    is associative."""
    arrows = tuple(Arrow(x, "*", "*") for x in M.elements)
    return FiniteCategory(("*",), arrows, {"*": M.unit}, dict(M.mult))


def small_categories():
    one = NamedFiniteSet("One", ("*",))
    two = NamedFiniteSet("Two", ("0", "1"))
    three = NamedFiniteSet("Three", ("a", "b", "c"))
    return [
        build_finset([NamedFiniteSet("Empty", ()), one, two, three]),
        build_finrel([one, two]),
        build_mat(2, 2),
    ]


duality_categories = st.one_of(
    posets(), plural_categories, monoids().map(monoid_table), broken_categories(LAW_BREAKS)
)


def assert_dual(C: FiniteCategory) -> None:
    F = flipped(C)
    op = opposite(C)
    assert op == F and F == op
    assert opposite(F) == C and C == opposite(F)
    assert opposite(op) == C and C == opposite(op)
    assert validate(op).ok == validate(C).ok == validate(F).ok
    for f in C.all_arrows():
        for budget in BUDGETS:
            for name, dual in (("epic_counterexample", "monic_counterexample"),
                               ("monic_counterexample", "epic_counterexample")):
                got = outcome(lambda: getattr(core, name)(C, f, budget))
                assert got == outcome(lambda: getattr(core, dual)(F, f, budget)), (f, budget, name)
            inverse = outcome(lambda: core.find_inverse(C, f, budget))
            assert inverse == outcome(lambda: core.find_inverse(F, f, budget)), (f, budget)
    assert find_initials(C) == ref.find_terminals(F)
    assert find_initials(F) == find_terminals(C)
    for a in C.objects:
        for b in C.objects:
            got = [(c.cone, list(c.mediators.items())) for c in find_coproducts(C, a, b)]
            want = [(c.cone, list(c.mediators.items())) for c in ref.find_products(F, a, b)]
            assert got == want, (a, b)


@DUALITY
@given(duality_categories)
def test_the_opposite_is_the_flipped_category(C):
    assert_dual(C)


@pytest.mark.parametrize("C", small_categories(), ids=["finset", "finrel", "mat"])
def test_the_opposite_of_a_built_category_is_the_flipped_category(C):
    assert_dual(C)


def test_the_empty_set_is_initial_and_coproducts_are_disjoint_unions():
    sets = [NamedFiniteSet(f"S{n}", tuple(map(str, range(n)))) for n in range(4)]
    C = build_finset(sets)
    assert find_initials(C) == ["S0"] and find_terminals(C) == ["S1"]
    apexes = {c.apex for c in find_coproducts(C, "S1", "S2")}
    assert apexes == {"S3"}
    for cert in find_coproducts(C, "S1", "S2"):
        assert (C.dom(cert.pi1), C.cod(cert.pi1)) == ("S1", "S3")
        assert (C.dom(cert.pi2), C.cod(cert.pi2)) == ("S2", "S3")
        left, right = C.function(cert.pi1), C.function(cert.pi2)
        images = [left(x) for x in left.dom.elements] + [right(x) for x in right.dom.elements]
        assert sorted(images) == list(C.sets["S3"].elements)
        for cocone, mediator in cert.mediators.items():
            assert C.dom(mediator) == "S3" and C.cod(mediator) == cocone.apex
            assert C.compose(mediator, cert.pi1) == cocone.left
            assert C.compose(mediator, cert.pi2) == cocone.right


def op_column_by_column(K: core.Kernel) -> core.Kernel:
    """The kernel of C^op made the old way, the oracle of `Kernel.op`: the
    constructor run on C's ends swapped, each row of C^op a column of C made
    by its own comprehension, or by the builder's ``column``."""
    rows, pos, out, cod = K.rows, K.pos, K.out, K.cod
    column = K.column or (lambda g: tuple([rows[f][pos[g]] for f in out[cod[g]]]))
    return core.Kernel(K.objects, K.object_ids, K.ids, cod, K.dom, K.identity, core.Lazy(column),
                       rows.__getitem__)


TABLES = ("objects", "object_ids", "names", "ids", "dom", "cod", "identity", "homs", "into", "out",
          "pos", "thin")


def assert_op_is_made_from_the_tables(C: FiniteCategory, order=lambda ids: ids) -> None:
    """`Kernel.op` against the oracle, its columns read in ``order`` before
    any row of C is (a fresh `build_mat` has made no image yet), and
    C^op^op against C."""
    K = C.kernel()
    op, old, arrows = K.op(), op_column_by_column(K), range(len(K.names))
    for table in TABLES:
        assert getattr(op, table) == getattr(old, table), table
    columns = {g: op.rows[g] for g in order(list(arrows))}
    want = [tuple([K.rows[f][K.pos[g]] for f in K.out[K.cod[g]]]) for g in arrows]
    assert [columns[g] for g in arrows] == want == [old.rows[g] for g in arrows]
    back = op.op()
    for table in TABLES:
        assert getattr(back, table) == getattr(K, table), table
    assert [back.rows[g] for g in arrows] == [K.rows[g] for g in arrows]


@pytest.mark.parametrize("name", CATEGORY_FIXTURES)
def test_the_op_kernel_of_each_fixture_is_made_from_its_tables(name):
    assert_op_is_made_from_the_tables(load_category(FIXTURES / f"{name}.json"))


@DUALITY
@given(duality_categories)
def test_the_op_kernel_of_a_drawn_category_is_made_from_its_tables(C):
    assert_op_is_made_from_the_tables(C)


@pytest.mark.parametrize("size", [(2, 1), (2, 2), (3, 2)], ids=lambda pd: f"p{pd[0]}-d{pd[1]}")
@pytest.mark.parametrize("order", ["forward", "backward", "validated"])
def test_mat_columns_made_image_by_image_are_the_columns_of_the_rows(size, order):
    C = build_mat(*size)
    if order == "validated":
        validate(C)
    assert_op_is_made_from_the_tables(C, reversed if order == "backward" else lambda ids: ids)


@pytest.mark.parametrize("C", small_categories()[:2], ids=["finset", "finrel"])
def test_the_op_kernel_of_a_built_category_is_made_from_its_tables(C):
    assert_op_is_made_from_the_tables(C)


def test_the_opposite_is_made_once_and_refers_back_to_nothing():
    C = build_finset([NamedFiniteSet("Two", ("0", "1"))])
    K = C.kernel()
    assert K.op() is K.op()
    assert opposite(C).kernel() is K.op()
    assert K not in gc.get_referents(K.op())
    assert opposite(opposite(C)) == C and opposite(opposite(C)) is not C


def test_a_category_and_its_opposite_leave_no_garbage_cycle():
    """Dropped categories are freed by reference counting alone: a kernel
    that pointed back from C^op to C would make a cycle that only the
    cyclic collector frees, and hold every dropped kernel until it runs."""

    makers = (
        lambda: build_finset([NamedFiniteSet("One", ("*",)), NamedFiniteSet("Two", ("0", "1"))]),
        lambda: poset_as_category(FinitePoset.chain([f"c{i}" for i in range(6)])),
        lambda: build_mat(2, 2),
        lambda: monoid_as_category(FiniteMonoid.cyclic(4)),
    )
    gc.collect()
    gc.disable()
    try:
        for make in makers:
            C = make()
            validate(C)
            for f in C.all_arrows():
                core.monic_counterexample(C, f), core.epic_counterexample(C, f)
                core.find_inverse(C, f)
            find_terminals(C), find_initials(C), find_coproducts(C, C.objects[0], C.objects[-1])
            nno_search(C)
            identity = Functor(C, C, {a: a for a in C.objects}, {f: f for f in C.all_arrows()})
            check_functoriality(identity)
            del C, identity
        assert gc.collect() == 0
    finally:
        gc.enable()
