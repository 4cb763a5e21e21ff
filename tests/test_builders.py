import pytest

from fincat.builders import (
    FiniteMonoid,
    FiniteRelation,
    NamedFiniteSet,
    build_finrel,
    build_finset,
    build_mat,
    compose_functions,
    compose_relations,
    monoid_as_category,
    poset_as_category,
    poset_from_category,
)
from fincat.core import (
    FiniteCategory,
    epic_counterexample,
    find_inverse,
    is_epic,
    is_monic,
    materialize,
    monic_counterexample,
    validate,
)
from fincat.errors import EnumerationBudgetExceeded, InvalidMonoid
from fincat.formats import dump_category, parse_category
from fincat.galois import FinitePoset

DOT = NamedFiniteSet("Dot", ("*",))
TWO = NamedFiniteSet("Two", ("0", "1"))


def diamond():
    """Five-element lattice: bottom, three incomparable middles, top."""
    return FinitePoset.from_relation(
        ["bot", "a", "b", "c", "top"],
        [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"), ("c", "top")],
    )


class TestFinSet:
    def test_single_dot(self):
        fs = build_finset([DOT])
        assert len(fs.category.objects) == 1
        assert len(fs.category.arrows) == 1

    def test_hom_sizes_follow_the_counting_rule(self):
        fs = build_finset([DOT, TWO])
        sizes = [
            len(fs.hom(a, b))
            for a in ("Dot", "Two")
            for b in ("Dot", "Two")
        ]
        # |hom(X, Y)| = |Y| ** |X| pair by pair
        assert sizes == [1, 2, 1, 4]
        assert len(fs.category.arrows) == sum(sizes)

    def test_composition_is_function_composition(self):
        X = NamedFiniteSet("X", ("a",))
        Y = NamedFiniteSet("Y", ("0", "1"))
        Z = NamedFiniteSet("Z", ("x", "y"))
        fs = build_finset([X, Y, Z])
        f = "X->Y{a:0}"
        g = "Y->Z{0:x,1:y}"
        assert fs.compose(g, f) == "X->Z{a:x}"

    def test_built_category_validates(self):
        fs = build_finset([DOT, TWO, NamedFiniteSet("Three", ("a", "b", "c"))])
        assert validate(fs.category).ok

    def test_empty_set_hom_behaviour(self):
        empty = NamedFiniteSet("Empty", ())
        fs = build_finset([empty, TWO])
        assert len(fs.hom("Empty", "Two")) == 1
        assert fs.hom("Two", "Empty") == ()
        assert validate(fs.category).ok

    def test_monic_epic_match_element_oracles(self):
        fs = build_finset([DOT, TWO])
        for name in fs.all_arrows():
            fn = fs.function(name)
            assert is_monic(fs, name) == fn.is_injective()
            assert is_epic(fs, name) == fn.is_surjective()

    def test_cap_is_enforced(self):
        big = NamedFiniteSet("Big", tuple("abcde"))
        with pytest.raises(EnumerationBudgetExceeded):
            build_finset([big])

    def test_budget_is_enforced(self):
        with pytest.raises(EnumerationBudgetExceeded):
            build_finset([TWO], budget=3)


class TestFinRel:
    def test_singleton_composition(self):
        X = NamedFiniteSet("X", ("x",))
        Y = NamedFiniteSet("Y", ("y",))
        Z = NamedFiniteSet("Z", ("z",))
        r = FiniteRelation(X, Y, frozenset({("x", "y")}))
        s = FiniteRelation(Y, Z, frozenset({("y", "z")}))
        assert compose_relations(s, r).pairs == {("x", "z")}

    def test_mismatched_middle_composes_to_empty(self):
        X = NamedFiniteSet("X", ("x",))
        Y = NamedFiniteSet("Y", ("y", "w"))
        Z = NamedFiniteSet("Z", ("z",))
        r = FiniteRelation(X, Y, frozenset({("x", "y")}))
        s = FiniteRelation(Y, Z, frozenset({("w", "z")}))
        assert compose_relations(s, r).pairs == frozenset()

    def test_diagonal_is_the_identity(self):
        fr = build_finrel([TWO])
        ident = fr.identity("Two")
        for name in fr.all_arrows():
            assert fr.compose(name, ident) == name
            assert fr.compose(ident, name) == name

    def test_built_category_validates_relational_associativity(self):
        fr = build_finrel([NamedFiniteSet("A", ("a",)), TWO])
        assert validate(fr.category).ok

    def test_cap(self):
        with pytest.raises(EnumerationBudgetExceeded):
            build_finrel([NamedFiniteSet("Three", ("a", "b", "c"))])


class TestPosetAsCategory:
    def test_antichain_has_identities_only(self):
        C = poset_as_category(FinitePoset.antichain(["a", "b"]))
        assert len(C.arrows) == 2
        assert all(a.dom == a.cod for a in C.arrows)

    def test_two_chain_has_three_arrows(self):
        C = poset_as_category(FinitePoset.chain(["bot", "top"]))
        assert len(C.arrows) == 3

    def test_diamond_has_twelve_arrows(self):
        C = poset_as_category(diamond())
        assert len(C.arrows) == 12

    def test_every_poset_category_validates(self):
        for poset in (
            FinitePoset.chain(["0", "1", "2"]),
            diamond(),
            FinitePoset.antichain(["x", "y", "z"]),
        ):
            assert validate(poset_as_category(poset)).ok

    def test_round_trip_back_to_the_poset(self):
        for poset in (FinitePoset.chain(["a", "b", "c"]), diamond()):
            assert poset_from_category(poset_as_category(poset)) == poset


class TestMonoidAsCategory:
    def test_trivial_monoid(self):
        triv = FiniteMonoid(("e",), "e", {("e", "e"): "e"})
        C = monoid_as_category(triv)
        assert len(C.arrows) == 1
        assert validate(C).ok

    def test_z2_is_a_groupoid(self):
        from fincat.core import is_groupoid

        C = monoid_as_category(FiniteMonoid.cyclic(2))
        assert validate(C).ok
        assert is_groupoid(C)

    def test_idempotent_element_is_not_invertible(self):
        m = FiniteMonoid(
            ("1", "e"),
            "1",
            {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"},
        )
        C = monoid_as_category(m)
        assert validate(C).ok
        assert find_inverse(C, "e") is None

    def test_invalid_monoid_reports_witness(self):
        broken = FiniteMonoid(
            ("1", "e"),
            "1",
            {("1", "1"): "1", ("1", "e"): "1", ("e", "1"): "e", ("e", "e"): "e"},
        )
        with pytest.raises(InvalidMonoid) as err:
            monoid_as_category(broken)
        assert err.value.witness == ("left-unit", "e")


class TestMat:
    def test_hom_1_1_over_z2(self):
        mat = build_mat(2, 2)
        assert mat.hom("1", "1") == ("1x1[0]", "1x1[1]")

    def test_identity_on_two_is_the_diagonal(self):
        assert build_mat(2, 2).identity("2") == "2x2[1,0;0,1]"

    def test_zero_object_homs_are_singletons(self):
        mat = build_mat(2, 2)
        for n in mat.objects:
            assert len(mat.hom(n, "0")) == 1
            assert len(mat.hom("0", n)) == 1

    def test_composition_orientation_is_pinned(self):
        # M : 1 -> 2 then N : 2 -> 1 is the 1x1 product M·N
        mat = build_mat(3, 2)
        m = "1x2[1,2]"
        n = "2x1[2;2]"
        # (1*2 + 2*2) mod 3 = 0
        assert mat.compose(n, m) == "1x1[0]"

    def test_materialized_category_validates(self):
        assert validate(materialize(build_mat(2, 2))).ok

    def test_materialized_z3_category_validates(self):
        assert validate(materialize(build_mat(3, 2))).ok

    def test_prime_required(self):
        with pytest.raises(ValueError):
            build_mat(4, 1)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetExceeded):
            build_mat(2, 5)
        total = sum(3 ** (n * m) for n in range(3) for m in range(3))
        assert len(build_mat(3, 2, budget=total).arrows) == total == 107
        with pytest.raises(EnumerationBudgetExceeded, match="107 matrices exceed the budget of 106"):
            build_mat(3, 2, budget=total - 1)

    def test_one_arrow_of_a_large_category_reads_only_its_composites(self):
        # 74,963 arrows and about 4.9e9 composites: the predicates on one
        # arrow make its row and column, and nothing else
        mat = build_mat(2, 4)
        assert isinstance(mat, FiniteCategory) and len(mat.arrows) == 74963
        assert monic_counterexample(mat, "1x1[1]") is None
        assert epic_counterexample(mat, "1x1[1]") is None
        assert find_inverse(mat, "1x1[1]") == "1x1[1]"
        assert monic_counterexample(mat, "1x1[0]") == ("1x1[0]", "1x1[1]")
        assert epic_counterexample(mat, "1x1[0]") == ("1x1[0]", "1x1[1]")
        assert find_inverse(mat, "1x1[0]") is None
        K = mat.kernel()
        assert len(K.rows) == len(K.cols) == 2


class TestCanonicalNaming:
    def test_function_names_are_reproducible(self):
        a = build_finset([DOT, TWO])
        b = build_finset([DOT, TWO])
        assert a.category == b.category

    def test_finset_and_finrel_are_finite_categories(self):
        for built in (build_finset([DOT, TWO]), build_finrel([DOT, TWO])):
            assert isinstance(built, FiniteCategory) and built.category is built
            plain = FiniteCategory(built.objects, built.arrows, dict(built.identities), dict(built.composition))
            assert built == plain and plain == built
            assert parse_category(dump_category(built)) == built

    def test_identity_name_matches_identity_table(self):
        fs = build_finset([TWO])
        assert fs.identity("Two") == "Two->Two{0:0,1:1}"


class TestCompositionTables:
    """The builders compose by id; these compare every composite with the
    element-level composite and pin the order of the compose table."""

    SETS = [NamedFiniteSet("Empty", ()), DOT, TWO, NamedFiniteSet("Three", ("a", "b", "c"))]

    def test_finset_composites_are_function_composites(self):
        fs = build_finset(self.SETS)
        for (g, f), h in fs.category.composition.items():
            assert fs.function(h) == compose_functions(fs.function(g), fs.function(f))

    def test_finrel_composites_are_relation_composites(self):
        fr = build_finrel(self.SETS[:3])
        for (s, r), h in fr.category.composition.items():
            assert fr.relation(h) == compose_relations(fr.relation(s), fr.relation(r))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_finset(TestCompositionTables.SETS[:3]).category,
            lambda: build_finrel(TestCompositionTables.SETS[:3]).category,
            lambda: poset_as_category(diamond()),
            lambda: monoid_as_category(FiniteMonoid.cyclic(3)),
            lambda: materialize(build_mat(2, 2)),
        ],
        ids=["finset", "finrel", "poset", "monoid", "mat"],
    )
    def test_compose_table_lists_pairs_in_arrow_order(self, build):
        C = build()
        pairs = [(g.name, f.name) for f in C.arrows for g in C.arrows if f.cod == g.dom]
        assert list(C.composition) == pairs
