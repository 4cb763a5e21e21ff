"""The int-mask subsets, operators and adjunction checkers of `fincat.logic`
against the frozenset reference (`reference_orders`): the operators on
universes of up to eight elements, the checkers on up to four (also with the
same fault injected into one operator on both sides, so that their witness
texts and order are compared), modal evaluation on random frames, and the
subset record itself: equality, hashing, decoding and mismatch messages."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_orders as ref
from fincat import logic
from fincat.builders import FiniteFunction, FiniteRelation, NamedFiniteSet
from fincat.errors import UniverseMismatch
from fincat.formulas import And, Atom, Box, Dia, Implies, Not, Or
from fincat.logic import KripkeFrame, SubsetOf


def universes(name, min_size=0, max_size=8):
    return st.integers(min_size, max_size).map(
        lambda n: NamedFiniteSet(name, tuple(f"{name.lower()}{i}" for i in range(n)))
    )


def members_of(U):
    return st.frozensets(st.sampled_from(U.elements)) if U.elements else st.just(frozenset())


@st.composite
def functions(draw, max_size=8):
    A = draw(universes("A", 0, max_size))
    B = draw(universes("B", 1 if A.elements else 0, max_size))
    return FiniteFunction(A, B, {x: draw(st.sampled_from(B.elements)) for x in A.elements})


@st.composite
def relations(draw, max_size=8, square=False):
    A = draw(universes("A", 0, max_size))
    B = A if square else draw(universes("B", 0, max_size))
    pairs = [(x, y) for x in A.elements for y in B.elements]
    return FiniteRelation(A, B, draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset())


def both(U, members):
    return SubsetOf(U, members), ref.RefSubset(U, members)


def same(got, want):
    assert got.universe == want.universe
    assert got.members == want.members
    assert got.sorted_members() == want.sorted_members()


# -- operators -----------------------------------------------------------------


@given(functions(), st.data())
def test_images_agree(f, data):
    (S, RS), (T, RT) = both(f.dom, data.draw(members_of(f.dom))), both(f.cod, data.draw(members_of(f.cod)))
    same(logic.direct_image(f, S), ref.direct_image(f, RS))
    same(logic.inverse_image(f, T), ref.inverse_image(f, RT))
    same(logic.universal_image(f, S), ref.universal_image(f, RS))


@given(relations(), st.data())
def test_box_and_post_image_agree(r, data):
    (S, RS), (T, RT) = both(r.dom, data.draw(members_of(r.dom))), both(r.cod, data.draw(members_of(r.cod)))
    same(logic.box(r, T), ref.box(r, RT))
    same(logic.wp(r, T), ref.box(r, RT))
    same(logic.relation_post_image(r, S), ref.relation_post_image(r, RS))


@given(functions(), relations())
def test_functions_and_relations_round_trip_through_graph_and_pairs(f, r):
    assert FiniteFunction(f.dom, f.cod, f.graph) == f
    assert FiniteRelation(r.dom, r.cod, r.pairs) == r
    assert hash(FiniteFunction(f.dom, f.cod, dict(reversed(f.graph.items())))) == hash(f)
    assert hash(FiniteRelation(r.dom, r.cod, sorted(r.pairs))) == hash(r)


@given(universes("U"), st.data())
def test_boolean_operations_agree(U, data):
    (X, RX), (Y, RY) = both(U, data.draw(members_of(U))), both(U, data.draw(members_of(U)))
    same(X.complement(), RX.complement())
    same(X.union(Y), RX.union(RY))
    same(X.intersect(Y), RX.intersect(RY))
    same(logic.boolean_implication(X, Y), ref.boolean_implication(RX, RY))
    assert X.included_in(Y) == RX.included_in(RY)


# -- checkers, sound and with one operator broken on both sides ---------------

FAULTS = {
    "empty": lambda mask, full: 0,
    "everything": lambda mask, full: full,
    "complement": lambda mask, full: full & ~mask,
    "drop-first": lambda mask, full: mask & ~1,
    "add-last": lambda mask, full: mask | (full + 1) >> 1,
}


def broken(fault, U, body, op):
    """The int body and the reference operator, each with ``fault`` applied to
    its result, a subset of U."""
    full = (1 << len(U.elements)) - 1

    def broken_body(*args):
        return FAULTS[fault](body(*args), full)

    def broken_op(*args):
        mask = sum(1 << U.elements.index(x) for x in op(*args).members)
        wrong = FAULTS[fault](mask, full)
        return ref.RefSubset(U, frozenset(x for i, x in enumerate(U.elements) if wrong >> i & 1))

    return broken_body, broken_op


def reports_with(fault, U, body, op, check, subject):
    """The mask and the reference report of ``check`` on ``subject`` with
    the int body ``body`` and the reference operator ``op`` broken alike."""
    broken_body, broken_op = broken(fault, U, getattr(logic, body), getattr(ref, op))
    with mock.patch.object(logic, body, broken_body), mock.patch.object(ref, op, broken_op):
        return getattr(logic, check)(subject), getattr(ref, check)(subject)


@given(functions(max_size=4), st.sampled_from([None, *FAULTS]), st.booleans())
def test_quantifier_checker_agrees(f, fault, in_inverse):
    if fault is None:
        assert logic.check_quantifier_adjunctions(f) == ref.check_quantifier_adjunctions(f)
        return
    # the inverse image is `_box` along the graph; `_universal` is the universal image
    body, op, U = ("_box", "inverse_image", f.dom) if in_inverse else ("_universal", "universal_image", f.cod)
    got, want = reports_with(fault, U, body, op, "check_quantifier_adjunctions", f)
    assert got == want


@given(relations(max_size=4), st.sampled_from([None, *FAULTS]), st.booleans())
def test_box_checker_agrees(r, fault, in_box):
    if fault is None:
        assert logic.check_box_adjunction(r) == ref.check_box_adjunction(r)
        return
    body, op, U = ("_box", "box", r.dom) if in_box else ("_post", "relation_post_image", r.cod)
    got, want = reports_with(fault, U, body, op, "check_box_adjunction", r)
    assert got == want


@given(universes("U", 0, 4), st.sampled_from([None, *FAULTS]))
def test_implication_checker_agrees(U, fault):
    if fault is None:
        assert logic.check_implication_adjunction(U) == ref.check_implication_adjunction(U)
        return
    got, want = reports_with(fault, U, "_implies", "boolean_implication", "check_implication_adjunction", U)
    assert got == want


TWO = NamedFiniteSet("T", ("a", "b"))
SWAP = FiniteFunction(TWO, TWO, {"a": "b", "b": "a"})
CHAIN = FiniteRelation(TWO, TWO, frozenset({("a", "a"), ("a", "b"), ("b", "b")}))


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize(
    "body, op, check, subject",
    [
        ("_box", "inverse_image", "check_quantifier_adjunctions", SWAP),
        ("_universal", "universal_image", "check_quantifier_adjunctions", SWAP),
        ("_box", "box", "check_box_adjunction", CHAIN),
        ("_post", "relation_post_image", "check_box_adjunction", CHAIN),
        ("_implies", "boolean_implication", "check_implication_adjunction", TWO),
    ],
)
def test_every_injected_fault_shows_as_the_same_witnesses(fault, body, op, check, subject):
    got, want = reports_with(fault, TWO, body, op, check, subject)
    assert not got.ok and got.witnesses
    assert got == want


# -- modal evaluation ----------------------------------------------------------

modal_formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r")]),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(Box, inner),
        st.builds(Dia, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
    ),
    max_leaves=12,
)


@given(relations(max_size=7, square=True), st.data(), modal_formulas)
def test_eval_modal_agrees(access, data, formula):
    W = access.dom
    valuation = {atom: data.draw(members_of(W)) for atom in "pqr"}
    frame = KripkeFrame(W, access, {atom: SubsetOf(W, m) for atom, m in valuation.items()})
    want = ref.eval_modal(access, {atom: ref.RefSubset(W, m) for atom, m in valuation.items()}, formula)
    same(logic.eval_modal(frame, formula), want)


# -- the subset record ---------------------------------------------------------


@given(universes("U"), st.data())
def test_equality_hashing_and_decoding_agree(U, data):
    a, b = data.draw(members_of(U)), data.draw(members_of(U))
    twin, renamed = NamedFiniteSet(U.name, U.elements), NamedFiniteSet("V", U.elements)
    for V in (U, twin, renamed):
        assert (SubsetOf(U, a) == SubsetOf(V, b)) == (ref.RefSubset(U, a) == ref.RefSubset(V, b))
    assert hash(SubsetOf(U, a)) == hash(SubsetOf(twin, set(a)))
    assert len({SubsetOf(U, a), SubsetOf(U, b)}) == len({ref.RefSubset(U, a), ref.RefSubset(U, b)})
    same(SubsetOf.of(U, iter(sorted(a))), ref.RefSubset.of(U, a))
    same(SubsetOf.full(U), ref.RefSubset.full(U))
    same(SubsetOf.empty(U), ref.RefSubset.empty(U))
    assert [s.sorted_members() for s in logic.subsets(U)] == [s.sorted_members() for s in ref.subsets(U)]


def message(call) -> str:
    with pytest.raises(UniverseMismatch) as caught:
        call()
    return str(caught.value)


@given(universes("U", 1), st.data())
def test_mismatch_messages_agree(U, data):
    strangers = data.draw(st.frozensets(st.sampled_from(["z", 7, ("t", 1), "u0 "]), min_size=1))
    members = data.draw(members_of(U))
    assert message(lambda: SubsetOf(U, members | strangers)) == message(
        lambda: ref.RefSubset(U, members | strangers)
    )
    V = NamedFiniteSet("V", U.elements)
    (X, RX), (Y, RY) = both(U, members), both(V, members)
    for name in ("union", "intersect", "included_in"):
        assert message(lambda: getattr(X, name)(Y)) == message(lambda: getattr(RX, name)(RY))
    assert message(lambda: logic.boolean_implication(X, Y)) == message(
        lambda: ref.boolean_implication(RX, RY)
    )
    f = FiniteFunction(U, U, {x: x for x in U.elements})
    r = FiniteRelation(U, U, frozenset())
    for name, arrow in (
        ("direct_image", f), ("inverse_image", f), ("universal_image", f),
        ("box", r), ("relation_post_image", r),
    ):
        assert message(lambda: getattr(logic, name)(arrow, Y)) == message(
            lambda: getattr(ref, name)(arrow, RY)
        )
