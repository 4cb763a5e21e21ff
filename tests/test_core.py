import pytest

from fincat.builders import (
    FiniteMonoid,
    NamedFiniteSet,
    build_finset,
    build_mat,
    monoid_as_category,
    poset_as_category,
)
from fincat.core import (
    Arrow,
    FiniteCategory,
    epic_counterexample,
    find_inverse,
    is_epic,
    is_groupoid,
    is_monic,
    materialize,
    monic_counterexample,
    validate,
)
from fincat.errors import (
    EnumerationBudgetExceeded,
    MalformedTable,
    UnknownArrow,
)
from fincat.galois import FinitePoset


def one_object_category():
    return FiniteCategory(
        objects=("A",),
        arrows=(Arrow("id_A", "A", "A"),),
        identities={"A": "id_A"},
        composition={("id_A", "id_A"): "id_A"},
    )


def two_chain():
    return poset_as_category(FinitePoset.chain(["bot", "top"]))


def two_chain_tables():
    """The 2-chain written out by hand, so tests can rebind entries."""
    arrows = (
        Arrow("id_bot", "bot", "bot"),
        Arrow("id_top", "top", "top"),
        Arrow("u", "bot", "top"),
    )
    composition = {
        ("id_bot", "id_bot"): "id_bot",
        ("id_top", "id_top"): "id_top",
        ("u", "id_bot"): "u",
        ("id_top", "u"): "u",
    }
    return ("bot", "top"), arrows, {"bot": "id_bot", "top": "id_top"}, composition


@pytest.fixture(scope="module")
def finset_123():
    return build_finset(
        [
            NamedFiniteSet("S1", ("a",)),
            NamedFiniteSet("S2", ("a", "b")),
            NamedFiniteSet("S3", ("a", "b", "c")),
        ]
    )


class TestValidate:
    def test_one_object_category_ok(self):
        assert validate(one_object_category()).ok

    def test_two_chain_ok_against_brute_force(self):
        C = two_chain()
        report = validate(C)
        assert report.ok
        # independent oracle: re-derive every composable pair from typing
        # and check the composite the slow way
        composable = [
            (g, f)
            for f in C.arrows
            for g in C.arrows
            if f.cod == g.dom
        ]
        assert len(composable) <= 8
        for g, f in composable:
            composite = C.compose(g.name, f.name)
            assert C.dom(composite) == f.dom
            assert C.cod(composite) == g.cod

    def test_rebound_composition_reports_typing_violation(self):
        objects, arrows, identities, composition = two_chain_tables()
        composition[("id_top", "u")] = "id_bot"
        C = FiniteCategory(objects, arrows, identities, composition)
        report = validate(C)
        assert not report.ok
        typing = [v for v in report.violations if v.law == "composite-typing"]
        assert typing and "u" in typing[0].witnesses

    def test_validate_reports_all_violations_not_just_first(self):
        objects, arrows, identities, composition = two_chain_tables()
        composition[("id_top", "u")] = "id_bot"
        report = validate(FiniteCategory(objects, arrows, identities, composition))
        laws = {v.law for v in report.violations}
        # the single rebinding breaks typing and the unit law at once
        assert {"composite-typing", "left-unit"} <= laws

    def test_partial_composition_is_malformed(self):
        objects, arrows, identities, composition = two_chain_tables()
        del composition[("id_top", "u")]
        with pytest.raises(MalformedTable):
            validate(FiniteCategory(objects, arrows, identities, composition))

    def test_dangling_identity_is_malformed(self):
        objects, arrows, identities, composition = two_chain_tables()
        identities["bot"] = "ghost"
        with pytest.raises(MalformedTable):
            validate(FiniteCategory(objects, arrows, identities, composition))

    def test_non_composable_entry_is_malformed(self):
        objects, arrows, identities, composition = two_chain_tables()
        composition[("u", "id_top")] = "u"
        with pytest.raises(MalformedTable):
            validate(FiniteCategory(objects, arrows, identities, composition))

    def test_malformed_tables_construct_and_raise_at_the_first_decider(self):
        def dangling(arrows, identities, composition):
            arrows = arrows[:2] + (Arrow("u", "bot", "ghost"),)
            return "arrow 'u' has unknown codomain 'ghost'", arrows, identities, composition

        def no_identity(arrows, identities, composition):
            del identities["top"]
            return "identity table has no entry for object 'top'", arrows, identities, composition

        def partial(arrows, identities, composition):
            del composition[("id_top", "u")]
            message = "compose table is partial: missing entry for ('id_top', 'u')"
            return message, arrows, identities, composition

        for spoil in (dangling, no_identity, partial):
            objects, *tables = two_chain_tables()
            message, arrows, identities, composition = spoil(*tables)
            C = FiniteCategory(objects, arrows, identities, composition)
            assert C.arrow("u") == arrows[2] and C.has_arrow("u") and not C.has_arrow("ghost")
            assert C.hom("bot", "bot") == ("id_bot",)
            assert C.hom("bot", "top") == (() if spoil is dangling else ("u",))
            for decide in (validate, lambda C: is_monic(C, "u")):
                with pytest.raises(MalformedTable) as raised:
                    decide(C)
                assert str(raised.value) == message

    def test_validate_is_idempotent(self):
        C = two_chain()
        assert validate(C) == validate(C)


class TestMonicEpic:
    def test_injective_function_is_monic(self, finset_123):
        f = "S1->S2{a:a}"
        assert finset_123.function(f).is_injective()
        assert is_monic(finset_123, f)

    def test_identity_arrows_are_monic_and_epic(self, finset_123):
        for obj in finset_123.objects:
            ident = finset_123.identity(obj)
            assert is_monic(finset_123, ident)
            assert is_epic(finset_123, ident)

    def test_constant_function_not_monic_with_witness(self, finset_123):
        f = "S2->S2{a:a,b:a}"
        witness = monic_counterexample(finset_123, f)
        assert witness is not None
        g, h = witness
        assert g != h
        assert finset_123.compose(f, g) == finset_123.compose(f, h)

    def test_surjective_function_is_epic(self, finset_123):
        f = "S2->S1{a:a,b:a}"
        assert finset_123.function(f).is_surjective()
        assert is_epic(finset_123, f)

    def test_non_surjective_not_epic_with_witness(self, finset_123):
        f = "S1->S2{a:a}"
        witness = epic_counterexample(finset_123, f)
        assert witness is not None
        g, h = witness
        assert finset_123.compose(g, f) == finset_123.compose(h, f)

    def test_monic_iff_injective_epic_iff_surjective(self, finset_123):
        for name in finset_123.all_arrows():
            fn = finset_123.function(name)
            assert is_monic(finset_123, name) == fn.is_injective(), name
            assert is_epic(finset_123, name) == fn.is_surjective(), name

    def test_unknown_arrow(self, finset_123):
        with pytest.raises(UnknownArrow):
            is_monic(finset_123, "ghost")

    def test_budget_exhaustion(self, finset_123):
        with pytest.raises(EnumerationBudgetExceeded):
            is_monic(finset_123, "S3->S3{a:a,b:b,c:c}", budget=2)


class TestInverses:
    def test_identity_is_its_own_inverse(self, finset_123):
        ident = finset_123.identity("S2")
        assert find_inverse(finset_123, ident) == ident

    def test_swap_is_its_own_inverse(self, finset_123):
        swap = "S2->S2{a:b,b:a}"
        assert find_inverse(finset_123, swap) == swap

    def test_mat_z2_inverse_matches_determinant(self):
        mat = build_mat(2, 2)
        def det(m):
            if m.rows != m.cols:
                return None
            if m.rows == 0:
                return 1
            if m.rows == 1:
                return m.entries[0][0] % 2
            return (
                m.entries[0][0] * m.entries[1][1]
                - m.entries[0][1] * m.entries[1][0]
            ) % 2
        for n in mat.objects:
            for name in mat.hom(n, n):
                invertible = find_inverse(mat, name) is not None
                assert invertible == (det(mat.matrix(name)) == 1), name

    def test_off_diagonal_matrix_inverts_and_singular_does_not(self):
        mat = build_mat(2, 2)
        assert find_inverse(mat, "2x2[0,1;1,0]") == "2x2[0,1;1,0]"
        assert find_inverse(mat, "2x2[1,1;1,1]") is None

    def test_inverse_uniqueness_exhaustive(self, finset_123):
        C = finset_123
        for f in C.all_arrows():
            a, b = C.dom(f), C.cod(f)
            inverses = [
                g
                for g in C.hom(b, a)
                if C.compose(g, f) == C.identity(a) and C.compose(f, g) == C.identity(b)
            ]
            assert len(inverses) <= 1

    def test_inverse_implies_monic_and_epic(self, finset_123):
        for f in finset_123.all_arrows():
            if find_inverse(finset_123, f) is not None:
                assert is_monic(finset_123, f)
                assert is_epic(finset_123, f)


class TestGroupoid:
    def test_z2_monoid_is_a_groupoid(self):
        assert is_groupoid(monoid_as_category(FiniteMonoid.cyclic(2)))

    def test_discrete_category_is_a_groupoid(self):
        C = poset_as_category(FinitePoset.antichain(["a", "b"]))
        assert is_groupoid(C)

    def test_two_chain_is_not_a_groupoid(self):
        C = two_chain()
        assert not is_groupoid(C)
        assert C.hom("top", "bot") == ()  # u has nowhere to find an inverse


class TestMaterialize:
    def test_materialized_mat_category_validates(self):
        C = build_mat(2, 2)
        assert materialize(C) is C
        assert validate(C).ok

    def test_materialize_respects_budget(self):
        C = build_mat(2, 2)
        assert materialize(C, budget=len(C.arrows)) is C
        with pytest.raises(EnumerationBudgetExceeded):
            materialize(C, budget=len(C.arrows) - 1)
