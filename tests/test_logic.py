import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fincat.builders import FiniteFunction, FiniteRelation, NamedFiniteSet, subset_label
from fincat.errors import NotDownClosed, UniverseMismatch, UnknownAtom
from fincat.formulas import parse_formula
from fincat.galois import FinitePoset, MonotoneMap, verify_adjunction
from fincat.logic import (
    KripkeFrame,
    SubsetOf,
    boolean_implication,
    box,
    check_box_adjunction,
    check_implication_adjunction,
    check_quantifier_adjunctions,
    direct_image,
    down_sets,
    eval_modal,
    heyting_implication,
    inverse_image,
    powerset_poset,
    relation_post_image,
    subsets,
    universal_image,
    wp,
)

AB = NamedFiniteSet("AB", ("a", "b"))
ZERO = NamedFiniteSet("Zero", ("0",))
W = NamedFiniteSet("W", ("1", "2"))


def constant() -> FiniteFunction:
    return FiniteFunction(AB, ZERO, {"a": "0", "b": "0"})


def all_functions(dom: NamedFiniteSet, cod: NamedFiniteSet):
    for images in itertools.product(cod.elements, repeat=len(dom.elements)):
        yield FiniteFunction(dom, cod, dict(zip(dom.elements, images)))


def all_relations(dom: NamedFiniteSet, cod: NamedFiniteSet):
    pairs = [(x, y) for x in dom.elements for y in cod.elements]
    for mask in range(2 ** len(pairs)):
        yield FiniteRelation(
            dom, cod, frozenset(p for i, p in enumerate(pairs) if mask & (1 << i))
        )


class TestImages:
    def test_empty_set_maps_to_empty(self):
        assert direct_image(constant(), SubsetOf.empty(AB)).members == frozenset()

    def test_identity_function_fixes_subsets(self):
        ident = FiniteFunction.identity(AB)
        s = SubsetOf.of(AB, ["b"])
        assert direct_image(ident, s).members == {"b"}

    def test_constant_direct_image(self):
        assert direct_image(constant(), SubsetOf.of(AB, ["a"])).members == {"0"}

    def test_inverse_image_of_whole_codomain(self):
        assert inverse_image(constant(), SubsetOf.full(ZERO)).members == {"a", "b"}

    def test_inverse_image_of_empty(self):
        assert inverse_image(constant(), SubsetOf.empty(ZERO)).members == frozenset()

    def test_constant_inverse_image(self):
        assert inverse_image(constant(), SubsetOf.of(ZERO, ["0"])).members == {"a", "b"}

    def test_universal_image_of_whole_domain(self):
        assert universal_image(constant(), SubsetOf.full(AB)).members == {"0"}

    def test_universal_image_fails_at_the_other_preimage(self):
        assert universal_image(constant(), SubsetOf.of(AB, ["a"])).members == frozenset()

    def test_points_outside_the_image_always_pass_the_universal_clause(self):
        f = FiniteFunction(ZERO, AB, {"0": "a"})
        assert "b" in universal_image(f, SubsetOf.empty(ZERO)).members

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            direct_image(constant(), SubsetOf.full(ZERO))

    def test_changing_the_graph_dict_afterwards_changes_no_answer(self):
        X, Y = NamedFiniteSet("X", ("a", "b")), NamedFiniteSet("Y", ("0", "1"))
        graph = {"a": "0", "b": "0"}
        f = FiniteFunction(X, Y, graph)
        a = SubsetOf.of(X, ["a"])
        assert direct_image(f, a).members == {"0"}
        graph["a"] = "1"
        g = FiniteFunction(X, Y, {"a": "1", "b": "0"})
        assert f != g and f.graph == {"a": "0", "b": "0"}
        assert direct_image(f, a).members == {"0"}
        assert direct_image(g, a).members == {"1"}
        same = FiniteFunction(X, Y, {"b": "0", "a": "0"})
        for subset in subsets(X):
            assert direct_image(f, subset) == direct_image(same, subset)
            assert universal_image(f, subset) == universal_image(same, subset)
        for subset in subsets(Y):
            assert inverse_image(f, subset) == inverse_image(same, subset)
        pairs = {("a", "0")}
        r = FiniteRelation(X, Y, pairs)
        assert box(r, SubsetOf.empty(Y)).members == {"b"}
        pairs.add(("b", "1"))
        assert box(r, SubsetOf.empty(Y)).members == {"b"}
        assert r.pairs == {("a", "0")}


class TestQuantifierAdjunctions:
    @pytest.mark.parametrize(
        "f",
        [
            FiniteFunction.identity(AB),
            constant(),
            FiniteFunction(AB, AB, {"a": "b", "b": "a"}),
        ],
        ids=["identity", "constant", "swap"],
    )
    def test_named_examples_pass(self, f):
        report = check_quantifier_adjunctions(f)
        assert report.ok
        assert report.checked == 2 ** len(f.dom.elements) * 2 ** len(f.cod.elements)

    def test_triple_holds_for_all_functions_up_to_two(self):
        universes = [ZERO, AB]
        for dom in universes:
            for cod in universes:
                for f in all_functions(dom, cod):
                    assert check_quantifier_adjunctions(f).ok

    def test_duality_of_the_two_adjoints(self):
        for f in all_functions(AB, AB):
            for s in subsets(AB):
                lhs = universal_image(f, s)
                rhs = direct_image(f, s.complement()).complement()
                assert lhs.members == rhs.members


class TestBoxAndPostImage:
    def test_empty_relation_gives_everything(self):
        r = FiniteRelation(W, W, frozenset())
        assert box(r, SubsetOf.of(W, ["2"])).members == {"1", "2"}

    def test_diagonal_relation_gives_the_target_back(self):
        r = FiniteRelation.diagonal(W)
        t = SubsetOf.of(W, ["2"])
        assert box(r, t).members == t.members

    def test_worked_frame_example(self):
        r = FiniteRelation(W, W, frozenset({("1", "2"), ("2", "2")}))
        assert box(r, SubsetOf.of(W, ["2"])).members == {"1", "2"}

    def test_wp_is_box(self):
        assert wp is box

    def test_post_image_examples(self):
        r = FiniteRelation(W, W, frozenset({("1", "2")}))
        assert relation_post_image(r, SubsetOf.empty(W)).members == frozenset()
        assert relation_post_image(r, SubsetOf.of(W, ["1"])).members == {"2"}
        diag = FiniteRelation.diagonal(W)
        s = SubsetOf.of(W, ["1"])
        assert relation_post_image(diag, s).members == s.members

    def test_adjunction_for_all_relations_up_to_two(self):
        for r in all_relations(AB, W):
            assert check_box_adjunction(r).ok

    def test_box_as_galois_connection_between_powerset_posets(self):
        r = FiniteRelation(W, W, frozenset({("1", "2"), ("2", "2")}))
        dom_poset, dom_decode = powerset_poset(W)
        cod_poset, cod_decode = powerset_poset(W)
        post = MonotoneMap(
            dom_poset,
            cod_poset,
            {
                label: subset_label(relation_post_image(r, SubsetOf(W, members)).members, W)
                for label, members in dom_decode.items()
            },
        )
        precondition = MonotoneMap(
            cod_poset,
            dom_poset,
            {
                label: subset_label(box(r, SubsetOf(W, members)).members, W)
                for label, members in cod_decode.items()
            },
        )
        cert = verify_adjunction(post, precondition)
        assert cert.verified_on == 16


class TestModalEvaluation:
    @pytest.fixture()
    def frame(self):
        access = FiniteRelation(W, W, frozenset({("1", "2"), ("2", "2")}))
        return KripkeFrame(
            W,
            access,
            {"p": SubsetOf.of(W, ["2"]), "q": SubsetOf.of(W, ["1"])},
        )

    def test_box_of_a_tautology_is_every_world(self, frame):
        assert eval_modal(frame, parse_formula("box (p | !p)")).members == {"1", "2"}

    def test_box_p_matches_the_operator(self, frame):
        assert eval_modal(frame, parse_formula("box p")).members == {"1", "2"}

    def test_dia_is_the_negative_dual(self, frame):
        dia = eval_modal(frame, parse_formula("dia p"))
        expanded = eval_modal(frame, parse_formula("!box !p"))
        assert dia.members == expanded.members == {"1", "2"}

    def test_propositional_connectives(self, frame):
        assert eval_modal(frame, parse_formula("p & q")).members == frozenset()
        assert eval_modal(frame, parse_formula("p | q")).members == {"1", "2"}
        assert eval_modal(frame, parse_formula("q -> p")).members == {"2"}

    def test_unknown_atom(self, frame):
        with pytest.raises(UnknownAtom):
            eval_modal(frame, parse_formula("box r"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p & box !r", "no valuation for atom 'r'"),
            ("q -> dia (p | E(v1))", "modal atoms are propositional, got 'E' with arguments"),
            (
                "!box (p & forall v1. q)",
                "quantifiers are not modal operators: Forall(var=1, body=Atom(name='q', args=()))",
            ),
        ],
    )
    def test_errors_from_inside_a_formula(self, frame, text, message):
        with pytest.raises(UnknownAtom) as caught:
            eval_modal(frame, parse_formula(text))
        assert str(caught.value) == message

    def test_a_valuation_changed_after_construction_is_refused(self, frame):
        frame.valuation["s"] = SubsetOf.of(NamedFiniteSet("V", ("a", "b", "c")), ["c"])
        with pytest.raises(UniverseMismatch) as caught:
            eval_modal(frame, parse_formula("p | !s"))
        assert str(caught.value) == "valuation of 's' is not over the worlds"


class TestBooleanImplication:
    def test_self_implication_is_the_universe(self):
        x = SubsetOf.of(AB, ["a"])
        assert boolean_implication(x, x).members == {"a", "b"}

    def test_implication_from_the_universe(self):
        y = SubsetOf.of(AB, ["b"])
        assert boolean_implication(SubsetOf.full(AB), y).members == y.members

    def test_all_triples_on_a_two_element_universe(self):
        report = check_implication_adjunction(AB)
        assert report.ok
        assert report.checked == 64

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    def test_adjunction_via_random_masks(self, mask_x, mask_y):
        x = SubsetOf.of(AB, [e for i, e in enumerate(AB.elements) if mask_x & (1 << i)])
        y = SubsetOf.of(AB, [e for i, e in enumerate(AB.elements) if mask_y & (1 << i)])
        for z in subsets(AB):
            assert x.intersect(y).included_in(z) == x.included_in(boolean_implication(y, z))


class TestHeytingImplication:
    def test_superset_consequent_gives_top(self):
        chain = FinitePoset.chain(["bot", "top"])
        full = frozenset({"bot", "top"})
        assert heyting_implication(chain, frozenset({"bot"}), full) == full

    def test_two_chain_worked_example(self):
        chain = FinitePoset.chain(["bot", "top"])
        result = heyting_implication(chain, frozenset({"bot", "top"}), frozenset({"bot"}))
        assert result == frozenset({"bot"})

    def test_down_sets_of_the_two_chain(self):
        chain = FinitePoset.chain(["bot", "top"])
        assert down_sets(chain) == (
            frozenset(),
            frozenset({"bot"}),
            frozenset({"bot", "top"}),
        )

    def test_on_an_antichain_heyting_equals_boolean(self):
        anti = FinitePoset.antichain(["a", "b"])
        universe = NamedFiniteSet("anti", ("a", "b"))
        for x in down_sets(anti):
            for y in down_sets(anti):
                heyting = heyting_implication(anti, x, y)
                boolean = boolean_implication(
                    SubsetOf(universe, x), SubsetOf(universe, y)
                ).members
                assert heyting == boolean

    def test_adjunction_on_all_down_set_triples_of_small_posets(self):
        posets = [
            FinitePoset.chain(["0", "1", "2"]),
            FinitePoset.from_relation(
                ["bot", "a", "b", "top"],
                [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
            ),
            FinitePoset.antichain(["x", "y"]),
        ]
        for poset in posets:
            for x in down_sets(poset):
                for y in down_sets(poset):
                    implication = heyting_implication(poset, x, y)
                    for z in down_sets(poset):
                        assert ((z & x) <= y) == (z <= implication)

    def test_not_down_closed_is_rejected(self):
        chain = FinitePoset.chain(["bot", "top"])
        with pytest.raises(NotDownClosed):
            heyting_implication(chain, frozenset({"top"}), frozenset())
