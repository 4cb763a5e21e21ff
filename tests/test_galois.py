import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fincat.builders import poset_as_category
from fincat.errors import AdjunctionFails, InvalidPoset, UnknownElement
from fincat.formats import dump_poset
from fincat.galois import (
    FinitePoset,
    MonotoneMap,
    adjunction_witness,
    approximation_report,
    best_approximation,
    compose_maps,
    floor_ceiling_demo,
    integer_grid_inclusion,
    left_adjoint,
    right_adjoint,
    unit_counit_violations,
    verify_adjunction,
)
from fincat.universal import find_products

THREE_CHAIN = FinitePoset.chain(["0", "1", "2"])
TWO_CHAIN = FinitePoset.chain(["0", "2"])


def square():
    """The 2x2 lattice {bot, a, b, top}: distributive, so residuals exist."""
    return FinitePoset.from_relation(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


def exercise_fixture():
    """Surjective monotone g from an antichain onto a point: approximants
    exist everywhere but no least one does."""
    q = FinitePoset.antichain(["y1", "y2"])
    p = FinitePoset.chain(["x"])
    return MonotoneMap(q, p, {"y1": "x", "y2": "x"})


class TestBestApproximation:
    def test_identity_map_approximates_by_itself(self):
        ident = MonotoneMap.identity(THREE_CHAIN)
        for x in THREE_CHAIN.elements:
            assert best_approximation(ident, x) == x

    def test_exercise_surjection_has_no_best_approximation(self):
        g = exercise_fixture()
        report = approximation_report(g, "x")
        assert report.best is None
        assert report.status == "no-least"
        assert set(report.approximants) == {"y1", "y2"}

    def test_empty_approximant_set_is_distinguished(self):
        # map the one-point chain strictly below the query element
        g = MonotoneMap(FinitePoset.chain(["lo"]), TWO_CHAIN, {"lo": "0"})
        report = approximation_report(g, "2")
        assert report.status == "empty"
        assert report.approximants == ()

    def test_chain_inclusion_picks_least_upper_preimage(self):
        g = MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"0": "0", "2": "2"})
        assert best_approximation(g, "1") == "2"

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            best_approximation(MonotoneMap.identity(TWO_CHAIN), "9")


class TestAdjointComputation:
    def test_identity_adjoint_is_identity(self):
        ident = MonotoneMap.identity(THREE_CHAIN)
        assert left_adjoint(ident) == ident
        assert right_adjoint(ident) == ident

    def test_exercise_fixture_has_no_left_adjoint(self):
        assert left_adjoint(exercise_fixture()) is None

    def test_meet_and_residual_are_adjoint_on_the_square(self):
        # meet-with-a is left adjoint to the residual (a -> ·); computing
        # either adjoint recovers the other map exactly
        lattice = square()
        meet_with_a = MonotoneMap(
            lattice,
            lattice,
            {x: lattice.glb(x, "a") for x in lattice.elements},
        )
        residual = right_adjoint(meet_with_a)
        assert residual is not None
        expected = {}
        for y in lattice.elements:
            candidates = [
                z for z in lattice.elements if lattice.le(lattice.glb(z, "a"), y)
            ]
            expected[y] = lattice.greatest_of(candidates)
        assert residual.graph == expected
        assert left_adjoint(residual) == meet_with_a
        assert adjunction_witness(meet_with_a, residual) is None

    def test_computed_adjoints_satisfy_the_equivalence(self):
        g = MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"0": "0", "2": "2"})
        f = left_adjoint(g)
        assert f is not None
        assert adjunction_witness(f, g) is None

    @pytest.mark.parametrize(
        "P,Q",
        [
            (THREE_CHAIN, TWO_CHAIN),
            (square(), TWO_CHAIN),
            (TWO_CHAIN, square()),
        ],
        ids=["chains", "square-to-chain", "chain-to-square"],
    )
    def test_left_adjoint_unique_among_all_monotone_maps(self, P, Q):
        # exhaustive over every monotone candidate, posets up to 4 elements
        def monotone_maps(dom, cod):
            for images in itertools.product(cod.elements, repeat=len(dom.elements)):
                graph = dict(zip(dom.elements, images))
                if all(
                    cod.le(graph[x], graph[y])
                    for x in dom.elements
                    for y in dom.elements
                    if dom.le(x, y)
                ):
                    yield MonotoneMap(dom, cod, graph)

        for g in monotone_maps(Q, P):
            f = left_adjoint(g)
            satisfying = [
                candidate
                for candidate in monotone_maps(P, Q)
                if adjunction_witness(candidate, g) is None
            ]
            if f is None:
                assert satisfying == []
            else:
                assert satisfying == [f]


class TestVerifyAdjunction:
    def test_identity_pair_certifies(self):
        ident = MonotoneMap.identity(THREE_CHAIN)
        cert = verify_adjunction(ident, ident)
        assert cert.verified_on == 9

    def test_ceiling_inclusion_pair_certifies(self):
        inclusion = integer_grid_inclusion(2, 2)
        ceiling = left_adjoint(inclusion)
        cert = verify_adjunction(ceiling, inclusion)
        assert cert.left is ceiling

    def test_wrong_sidedness_fails_with_witness(self):
        inclusion = integer_grid_inclusion(2, 2)
        floor_map = right_adjoint(inclusion)
        with pytest.raises(AdjunctionFails) as err:
            verify_adjunction(floor_map, inclusion)
        assert err.value.witness is not None

    def test_triple_composites_hold_literally(self):
        inclusion = integer_grid_inclusion(2, 2)
        for f, g in (
            (left_adjoint(inclusion), inclusion),
            (inclusion, right_adjoint(inclusion)),
        ):
            verify_adjunction(f, g)
            assert compose_maps(f, compose_maps(g, f)) == f
            assert compose_maps(g, compose_maps(f, g)) == g


def random_poset(draw, labels):
    """Build a poset as the reflexive-transitive closure of a random DAG
    on ranked labels (edges only point up the rank, so antisymmetry holds)."""
    n = len(labels)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return FinitePoset.from_relation(labels, pairs)


@st.composite
def monotone_pair(draw):
    size_p = draw(st.integers(min_value=1, max_value=4))
    size_q = draw(st.integers(min_value=1, max_value=4))
    P = random_poset(draw, [f"p{i}" for i in range(size_p)])
    Q = random_poset(draw, [f"q{i}" for i in range(size_q)])
    f_graph = {}
    for x in P.elements:
        f_graph[x] = draw(st.sampled_from(Q.elements))
    g_graph = {}
    for z in Q.elements:
        g_graph[z] = draw(st.sampled_from(P.elements))
    try:
        f = MonotoneMap(P, Q, f_graph)
        g = MonotoneMap(Q, P, g_graph)
    except Exception:
        # non-monotone draw; tell hypothesis to look elsewhere
        assume(False)
    return f, g


class TestEquivalenceOfCharacterizations:
    @given(monotone_pair())
    def test_equation_agrees_with_derived_laws(self, pair):
        f, g = pair
        equation_holds = adjunction_witness(f, g) is None
        laws_hold = not unit_counit_violations(f, g)
        assert equation_holds == laws_hold

    @given(monotone_pair())
    def test_adjoint_construction_agrees_with_equation(self, pair):
        _, g = pair
        f = left_adjoint(g)
        if f is not None:
            assert adjunction_witness(f, g) is None
            assert not unit_counit_violations(f, g)


class TestFloorCeiling:
    def test_integer_points_are_fixed(self):
        report = floor_ceiling_demo(3, 2)
        rows = {row.point: row for row in report.rows}
        assert rows["2"].floor == "2"
        assert rows["2"].ceiling == "2"

    def test_half_points_round_both_ways(self):
        report = floor_ceiling_demo(3, 2)
        rows = {row.point: row for row in report.rows}
        assert rows["5/2"].floor == "2"
        assert rows["5/2"].ceiling == "3"

    def test_negative_convention(self):
        report = floor_ceiling_demo(3, 2)
        rows = {row.point: row for row in report.rows}
        assert rows["-1/2"].floor == "-1"
        assert rows["-1/2"].ceiling == "0"

    def test_matches_arithmetic_everywhere(self):
        assert floor_ceiling_demo(3, 2).ok
        assert floor_ceiling_demo(2, 3).ok

    def test_grid_labels_are_in_lowest_terms(self):
        assert integer_grid_inclusion(1, 6).cod.elements[:5] == ("-1", "-5/6", "-2/3", "-1/2", "-1/3")

    @pytest.mark.parametrize("k", range(1, 11))
    def test_labels_and_rows_match_fraction_floor_and_ceil(self, k):
        for d in range(1, 13):
            points = [Fraction(num, d) for num in range(-k * d, k * d + 1)]
            assert integer_grid_inclusion(k, d).cod.elements == tuple(map(str, points))
            rows = [(str(q), str(math.floor(q)), str(math.ceil(q))) for q in points]
            report = floor_ceiling_demo(k, d)
            assert [(r.point, r.floor, r.ceiling) for r in report.rows] == rows
            assert [(r.point, r.floor_expected, r.ceiling_expected) for r in report.rows] == rows


class TestCrossModuleConsistency:
    def test_products_in_the_square_compute_its_meets(self):
        lattice = square()
        C = poset_as_category(lattice)
        for a in lattice.elements:
            for b in lattice.elements:
                certs = find_products(C, a, b)
                assert {c.apex for c in certs} == {lattice.glb(a, b)}


CHAIN_PAIRS = [("a", "a"), ("a", "b"), ("a", "c"), ("b", "b"), ("b", "c"), ("c", "c")]


def chain_builds():
    """The chain a < b < c, built five ways."""
    return {
        "list": FinitePoset(("a", "b", "c"), list(CHAIN_PAIRS)),
        "set": FinitePoset(["a", "b", "c"], set(CHAIN_PAIRS)),
        "generator": FinitePoset("abc", (pair for pair in CHAIN_PAIRS)),
        "chain": FinitePoset.chain("abc"),
        "from_relation": FinitePoset.from_relation("abc", [("a", "b"), ("b", "c")]),
    }


class TestOneStoredOrder:
    """A poset is its elements and up-set masks, and a map its image
    positions, however they were built."""

    def test_every_build_of_one_order_is_equal_and_hashes_alike(self):
        builds = chain_builds()
        for name, poset in builds.items():
            assert poset == builds["chain"], name
            assert hash(poset) == hash(builds["chain"]), name
        assert len(set(builds.values())) == 1

    def test_maps_compose_and_verify_across_builds(self):
        builds = list(chain_builds().values())
        for P in builds:
            for Q in builds:
                f = MonotoneMap(P, Q, {"a": "a", "b": "b", "c": "c"})
                g = MonotoneMap(Q, P, {"a": "a", "b": "b", "c": "c"})
                assert compose_maps(g, f) == MonotoneMap.identity(P)
                assert verify_adjunction(f, g).verified_on == 9
                assert hash(f) == hash(MonotoneMap.identity(Q))

    def test_a_generator_table_is_read_once_and_kept(self):
        poset = FinitePoset("abc", (pair for pair in CHAIN_PAIRS))
        assert dump_poset(poset)["leq"] == [list(pair) for pair in CHAIN_PAIRS]
        assert poset.leq == frozenset(CHAIN_PAIRS)

    def test_an_unknown_element_in_a_generator_table_is_named(self):
        pairs = [("a", "a"), ("a", "z"), ("b", "b")]
        with pytest.raises(InvalidPoset, match=r"unknown element in \('a', 'z'\)"):
            FinitePoset("ab", (pair for pair in pairs))

    def test_generators_build_the_list_built_poset(self):
        """Each constructor reads its elements and pairs once, so a closure
        that passes over the pairs twice would lose them here."""
        elements = [f"g{i}" for i in range(70)]
        order = elements[::-1]  # so that no pair points up the element order
        pairs = [(order[i], order[j]) for i in range(70) for j in (i + 1, i + 5) if j < 70]
        listed = FinitePoset.from_relation(elements, pairs)
        assert FinitePoset.from_relation(iter(elements), iter(pairs)) == listed
        assert FinitePoset.from_relation((x for x in elements), (p for p in pairs)).leq == listed.leq
        assert FinitePoset(iter(elements), iter(listed.leq)) == listed
        assert FinitePoset.chain(iter(order)) == FinitePoset.chain(order)
        assert FinitePoset.chain(order).leq == listed.leq
        assert FinitePoset.antichain(iter(elements)) == FinitePoset.antichain(elements)
        assert len(FinitePoset.antichain(iter(elements)).leq) == 70

    @pytest.mark.parametrize("middle", [1, 35, 68])
    def test_a_chain_missing_one_pair_names_its_only_witness(self, middle):
        """x <= y <= z with y the only element between x and z: the row test
        must OR the row of y wherever y sits in the element order."""
        names = [f"c{i}" for i in range(70)]
        x, y, z = names[middle - 1:middle + 2]
        leq = FinitePoset.chain(names).leq - {(x, z)}
        for order in (names, names[::-1], [n for n in names if n != y] + [y]):
            with pytest.raises(InvalidPoset, match=f"^relation is not transitive: '{x}' <= '{y}' <= '{z}'$"):
                FinitePoset(order, leq)

    def test_a_map_keeps_its_graph_when_the_dict_changes(self):
        graph = {"0": "0", "2": "2"}
        inclusion = MonotoneMap(TWO_CHAIN, THREE_CHAIN, graph)
        graph["0"] = "2"
        assert inclusion("0") == "0"
        assert inclusion.graph == {"0": "0", "2": "2"}
        assert inclusion.image == (0, 2)
        assert left_adjoint(inclusion).graph == {"0": "0", "1": "2", "2": "2"}
        assert right_adjoint(inclusion).graph == {"0": "0", "1": "0", "2": "2"}
