import itertools

import pytest

import reference_core as ref
from reference_core import is_equational_product
from fincat.builders import (
    FiniteMonoid,
    NamedFiniteSet,
    build_finset,
    build_mat,
    monoid_as_category,
    poset_as_category,
)
from fincat.core import Arrow, FiniteCategory, validate
from fincat.errors import NotAProduct, NotTerminal, UnknownObject
from fincat.galois import FinitePoset
from fincat.universal import (
    Cone,
    ProductCertificate,
    find_coproducts,
    find_products,
    find_terminals,
    finite_product,
    product_iso_certificate,
    terminal_iso_certificate,
    verify_equational_product,
)

ONE = NamedFiniteSet("One", ("*",))
ONE2 = NamedFiniteSet("One2", ("%",))
TWO = NamedFiniteSet("Two", ("0", "1"))
FOUR = NamedFiniteSet("Four", ("00", "01", "10", "11"))


@pytest.fixture(scope="module")
def finset_with_four():
    return build_finset([ONE, TWO, FOUR])


@pytest.fixture(scope="module")
def divisibility():
    poset = FinitePoset.from_relation(
        ["1", "2", "3", "6", "12"],
        [("1", "2"), ("1", "3"), ("2", "6"), ("3", "6"), ("6", "12")],
    )
    return poset, poset_as_category(poset)


@pytest.fixture(scope="module")
def diamond():
    poset = FinitePoset.from_relation(
        ["bot", "a", "b", "c", "top"],
        [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"), ("c", "top")],
    )
    return poset, poset_as_category(poset)


class TestTerminals:
    def test_finset_terminals_are_exactly_the_singletons(self):
        fs = build_finset([ONE, ONE2, TWO])
        assert find_terminals(fs.category) == ["One", "One2"]

    def test_poset_terminal_is_the_greatest_element(self, divisibility):
        _, C = divisibility
        assert find_terminals(C) == ["12"]

    def test_antichain_has_no_terminal(self):
        C = poset_as_category(FinitePoset.antichain(["a", "b"]))
        assert find_terminals(C) == []

    def test_z2_monoid_has_no_terminal(self):
        C = monoid_as_category(FiniteMonoid.cyclic(2))
        assert find_terminals(C) == []

    def test_self_iso_certificate_is_the_identity(self, divisibility):
        _, C = divisibility
        cert = terminal_iso_certificate(C, "12", "12")
        assert cert.forward == cert.backward == C.identity("12")

    def test_two_singletons_give_the_unique_bijection(self):
        fs = build_finset([ONE, ONE2])
        cert = terminal_iso_certificate(fs.category, "One", "One2")
        assert cert.forward == "One->One2{*:%}"
        assert cert.backward == "One2->One{%:*}"
        assert len(cert.commuting_checks) == 2

    def test_composites_are_identities_literally(self):
        fs = build_finset([ONE, ONE2, TWO])
        C = fs.category
        cert = terminal_iso_certificate(C, "One", "One2")
        assert C.compose(cert.backward, cert.forward) == C.identity("One")
        assert C.compose(cert.forward, cert.backward) == C.identity("One2")

    def test_non_terminal_input_is_rejected(self):
        fs = build_finset([ONE, TWO])
        with pytest.raises(NotTerminal):
            terminal_iso_certificate(fs.category, "One", "Two")

    def test_connecting_arrow_count_is_exactly_one(self):
        fs = build_finset([ONE, ONE2])
        C = fs.category
        for t, t2 in itertools.permutations(find_terminals(C), 2):
            assert len(C.hom(t, t2)) == 1


class TestBinaryProducts:
    def test_poset_product_is_the_glb(self, divisibility):
        poset, C = divisibility
        certs = find_products(C, "2", "3")
        assert [c.apex for c in certs] == ["1"]
        assert poset.glb("2", "3") == "1"

    def test_poset_products_match_glb_on_all_pairs(self, divisibility, diamond):
        for poset, C in (divisibility, diamond):
            for a in poset.elements:
                for b in poset.elements:
                    certs = find_products(C, a, b)
                    glb = poset.glb(a, b)
                    if glb is None:
                        assert certs == []
                    else:
                        assert {c.apex for c in certs} == {glb}

    def test_finset_two_by_two_products(self, finset_with_four):
        C = finset_with_four.category
        certs = find_products(C, "Two", "Two")
        assert len(certs) == 24  # one per bijection Four -> pairs
        assert {c.apex for c in certs} == {"Four"}

    def test_mediators_match_elementwise_pairing(self, finset_with_four):
        fs = finset_with_four
        cert = find_products(fs.category, "Two", "Two")[0]
        p1 = fs.function(cert.pi1)
        p2 = fs.function(cert.pi2)
        for cone, mediator in cert.mediators.items():
            h = fs.function(mediator)
            f = fs.function(cone.left)
            g = fs.function(cone.right)
            for x in fs.sets[cone.apex].elements:
                # h(x) is the unique apex element projecting to (f(x), g(x))
                (expected,) = [
                    u
                    for u in fs.sets[cert.apex].elements
                    if p1(u) == f(x) and p2(u) == g(x)
                ]
                assert h(x) == expected

    def test_no_span_means_no_product(self):
        C = FiniteCategory(
            objects=("A", "B"),
            arrows=(Arrow("id_A", "A", "A"), Arrow("id_B", "B", "B")),
            identities={"A": "id_A", "B": "id_B"},
            composition={("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B"},
        )
        assert validate(C).ok
        assert find_products(C, "A", "B") == []

    @pytest.mark.parametrize("search", [find_products, find_coproducts])
    def test_an_unknown_object_is_refused_in_every_category(self, search):
        empty = poset_as_category(FinitePoset([], []))
        one = poset_as_category(FinitePoset.chain(["a"]))
        for C, a, b, unknown in [(empty, "a", "b", "a"), (one, "a", "b", "b"), (one, "c", "a", "c")]:
            with pytest.raises(UnknownObject, match=f"^unknown object '{unknown}'$"):
                search(C, a, b)


class TestProductsOfMatrices:
    """In the category of matrices over Z_p with dimensions up to 2, the
    products of (1, 1) are the plane with the two rows of an invertible
    matrix as projections: |GL_2(Z_p)| = (p^2 - 1)(p^2 - p) certificates."""

    def test_the_plane_over_z3_has_one_certificate_per_invertible_matrix(self):
        C = build_mat(3, 2)
        certs = find_products(C, "1", "1")
        assert len(certs) == (9 - 1) * (9 - 3) == 48
        assert {c.apex for c in certs} == {"2"}
        # one cone from dimension z for each pair of 1 x z matrices: 3^z * 3^z
        assert [len(c.mediators) for c in certs] == [1 + 9 + 81] * 48
        assert all(verify_equational_product(C, c) for c in certs)

    def test_the_plane_over_z2(self):
        assert len(find_products(build_mat(2, 2), "1", "1")) == (4 - 1) * (4 - 2) == 6

    def test_a_line_and_a_plane_have_no_product_below_dimension_three(self):
        assert find_products(build_mat(3, 2), "1", "2") == []


@pytest.fixture(scope="module")
def certified(finset_with_four, divisibility):
    """Certificates of the search and of the eager reference on several
    pairs, with a cone that lies over another pair of each category."""
    pairs = [
        (finset_with_four.category, ("Two", "Two"), ("One", "Two")),
        (finset_with_four.category, ("One", "Two"), ("Two", "Two")),
        (divisibility[1], ("2", "3"), ("2", "6")),
        (build_mat(2, 2), ("1", "1"), ("0", "1")),
    ]
    return [
        (find_products(C, *pair), ref.find_products(C, *pair), find_products(C, *other)[0].cone)
        for C, pair, other in pairs
    ]


class TestMediatorTables:
    def test_the_tables_read_as_the_eager_reference(self, certified):
        for new, old, _ in certified:
            assert new and new == old and old == new
            for got, want in zip(new, old):
                assert list(got.mediators.items()) == list(want.mediators.items())
                assert got.mediators == want.mediators and want.mediators == got.mediators
                assert len(got.mediators) == len(want.mediators)
                assert all(cone in got.mediators for cone in want.mediators)
                assert repr(got) == repr(want) and repr(got.mediators) == repr(want.mediators)

    def test_a_cone_over_another_pair_is_not_in_the_table(self, certified):
        for new, old, foreign in certified:
            for got, want in zip(new, old):
                assert foreign not in got.mediators and foreign not in want.mediators
                assert got.mediators.get(foreign) is None
                with pytest.raises(KeyError):
                    got.mediators[foreign]

    def test_a_table_cannot_be_rewritten(self, finset_with_four):
        C = finset_with_four.category
        first, other = find_products(C, "Two", "Two")[:2]
        cone = next(iter(first.mediators))
        mediator = first.mediators[cone]
        with pytest.raises(TypeError):
            first.mediators[cone] = "x"
        with pytest.raises(TypeError):
            del first.mediators[cone]
        assert first.mediators[cone] == mediator
        assert verify_equational_product(C, first)
        assert product_iso_certificate(C, first, other).forward == other.mediators[first.cone]

    def test_dict_of_a_table_is_an_independent_copy(self, finset_with_four):
        cert = find_products(finset_with_four.category, "Two", "Two")[0]
        copy = dict(cert.mediators)
        assert type(copy) is dict and copy == cert.mediators
        first, *_, last = copy
        mediator = copy[first]
        copy[first] = "x"
        del copy[last]
        assert cert.mediators[first] == mediator and last in cert.mediators
        assert len(cert.mediators) == len(copy) + 1
        assert dict(cert.mediators) == ref.find_products(finset_with_four.category, "Two", "Two")[0].mediators


def five_arrow_counterexample():
    """Apex P over A with equal projections and an extra idempotent self-map
    commuting with them: the pairing equations hold but h = <p∘h, p∘h> fails."""
    arrows = (
        Arrow("id_A", "A", "A"),
        Arrow("id_P", "P", "P"),
        Arrow("e", "P", "P"),
        Arrow("p1", "P", "A"),
        Arrow("p2", "P", "A"),
    )
    composition = {
        ("id_A", "id_A"): "id_A",
        ("id_P", "id_P"): "id_P",
        ("id_P", "e"): "e",
        ("e", "id_P"): "e",
        ("e", "e"): "e",
        ("p1", "id_P"): "p1",
        ("p2", "id_P"): "p2",
        ("p1", "e"): "p1",
        ("p2", "e"): "p2",
        ("id_A", "p1"): "p1",
        ("id_A", "p2"): "p2",
    }
    C = FiniteCategory(
        ("A", "P"), arrows, {"A": "id_A", "P": "id_P"}, composition
    )
    assert validate(C).ok
    return C


class TestEquationalCharacterization:
    def test_found_products_pass_the_equational_check(self, finset_with_four, divisibility):
        for C in (finset_with_four.category, divisibility[1]):
            pairs = [("Two", "Two")] if C is finset_with_four.category else [("2", "3")]
            for a, b in pairs:
                for cert in find_products(C, a, b):
                    assert verify_equational_product(C, cert)

    def test_extra_self_arrow_breaks_the_equation(self):
        C = five_arrow_counterexample()
        cert = ProductCertificate(
            Cone("P", "p1", "p2"), {Cone("P", "p1", "p2"): "id_P"}
        )
        # projection equations hold for the recorded mediator
        assert C.compose("p1", "id_P") == "p1"
        assert not verify_equational_product(C, cert)
        assert not is_equational_product(C, "A", "A", "P", "p1", "p2")

    def test_one_object_category_identity_projections(self):
        C = monoid_as_category(FiniteMonoid(("e",), "e", {("e", "e"): "e"}), "star")
        certs = find_products(C, "star", "star")
        assert [c.apex for c in certs] == ["star"]
        assert verify_equational_product(C, certs[0])

    def test_equational_agrees_with_universal_on_all_candidates(self, divisibility):
        poset, C = divisibility
        for a in poset.elements:
            for b in poset.elements:
                found = {
                    (c.apex, c.pi1, c.pi2) for c in find_products(C, a, b)
                }
                for apex in C.objects:
                    for p1 in C.hom(apex, a):
                        for p2 in C.hom(apex, b):
                            assert is_equational_product(C, a, b, apex, p1, p2) == (
                                (apex, p1, p2) in found
                            )


class TestProductUniqueness:
    def test_identity_iso_when_certificates_coincide(self, divisibility):
        _, C = divisibility
        cert = find_products(C, "2", "3")[0]
        iso = product_iso_certificate(C, cert, cert)
        assert iso.forward == iso.backward == C.identity("1")

    def test_unique_projection_respecting_iso_between_all_pairs(self, finset_with_four):
        C = finset_with_four.category
        certs = find_products(C, "Two", "Two")
        for first, other in itertools.combinations(certs, 2):
            iso = product_iso_certificate(C, first, other)
            assert C.compose(iso.backward, iso.forward) == C.identity(first.apex)
            assert C.compose(iso.forward, iso.backward) == C.identity(other.apex)
            respecting = [
                w
                for w in C.hom(first.apex, other.apex)
                if C.compose(other.pi1, w) == first.pi1
                and C.compose(other.pi2, w) == first.pi2
            ]
            assert respecting == [iso.forward]

    def test_mismatched_pairs_are_rejected(self, finset_with_four):
        C = finset_with_four.category
        cert_two = find_products(C, "Two", "Two")[0]
        cert_one = find_products(C, "One", "One")[0]
        with pytest.raises(NotAProduct):
            product_iso_certificate(C, cert_two, cert_one)


class TestFiniteProducts:
    def test_empty_family_is_a_terminal_object(self):
        fs = build_finset([ONE, TWO])
        cert = finite_product(fs.category, [])
        assert cert.apex == "One"
        assert cert.projections == ()

    def test_singleton_family_is_the_object_itself(self, divisibility):
        _, C = divisibility
        cert = finite_product(C, ["6"])
        assert cert.apex == "6"
        assert cert.projections == (C.identity("6"),)

    def test_three_factors_fold_to_the_glb(self, divisibility):
        poset, C = divisibility
        cert = finite_product(C, ["2", "3", "6"])
        assert cert.apex == "1"
        # projections land on the right factors
        assert [C.cod(p) for p in cert.projections] == ["2", "3", "6"]

    def test_returns_none_when_a_stage_fails(self):
        C = poset_as_category(FinitePoset.antichain(["a", "b"]))
        assert finite_product(C, ["a", "b"]) is None
        assert finite_product(C, []) is None
