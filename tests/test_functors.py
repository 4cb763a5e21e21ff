import itertools

import pytest

from fincat.builders import (
    FiniteMonoid,
    NamedFiniteSet,
    build_finset,
    monoid_as_category,
    poset_as_category,
    subset_label,
)
from fincat.errors import NotAFunctor, NotAHomomorphism, NotMonotone, SourceTargetMismatch
from fincat.functors import (
    Functor,
    MonoidHom,
    check_functoriality,
    check_iso_preservation,
    compose_functors,
    functor_as_monotone,
    monoid_hom_as_functor,
    monotone_as_functor,
    powerset_functor,
    powerset_of,
)
from fincat.galois import FinitePoset, MonotoneMap

TWO_CHAIN = FinitePoset.chain(["p0", "p1"])
THREE_CHAIN = FinitePoset.chain(["q0", "q1", "q2"])


def broken_arrow_map_functor():
    C = poset_as_category(FinitePoset.chain(["a", "b", "c"]))
    F = Functor.identity(C)
    arrow_map = dict(F.arrow_map)
    arrow_map["a<=c"] = "a<=a"  # composite sent to the wrong arrow
    return Functor(C, C, F.object_map, arrow_map)


class TestFunctoriality:
    def test_identity_functor_is_functorial(self):
        for C in (
            poset_as_category(TWO_CHAIN),
            monoid_as_category(FiniteMonoid.cyclic(2)),
        ):
            assert check_functoriality(Functor.identity(C)).ok

    def test_monotone_map_between_chains_is_functorial(self):
        m = MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"p0": "q0", "p1": "q2"})
        assert check_functoriality(monotone_as_functor(m)).ok

    def test_broken_composite_reports_the_witnessing_pair(self):
        report = check_functoriality(broken_arrow_map_functor())
        assert not report.ok
        bad = [v for v in report.violations if v.law == "composition-preservation"]
        assert bad
        assert set(bad[0].witnesses) == {"b<=c", "a<=b"}


class TestComposition:
    def test_composing_with_identity_is_identity(self):
        C = poset_as_category(TWO_CHAIN)
        m = MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"p0": "q0", "p1": "q1"})
        G = monotone_as_functor(m)
        assert compose_functors(G, Functor.identity(C)) == G

    def test_functors_of_composed_monotone_maps_compose(self):
        m1 = MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"p0": "q0", "p1": "q1"})
        m2 = MonotoneMap(THREE_CHAIN, TWO_CHAIN, {"q0": "p0", "q1": "p0", "q2": "p1"})
        from fincat.galois import compose_maps

        left = compose_functors(monotone_as_functor(m2), monotone_as_functor(m1))
        right = monotone_as_functor(compose_maps(m2, m1))
        assert left == right

    def test_mismatched_categories_are_rejected(self):
        F = Functor.identity(poset_as_category(TWO_CHAIN))
        G = Functor.identity(poset_as_category(THREE_CHAIN))
        with pytest.raises(SourceTargetMismatch):
            compose_functors(G, F)

    def test_category_of_categories_laws_on_tables(self):
        m1 = MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"p0": "q0", "p1": "q1"})
        m2 = MonotoneMap(THREE_CHAIN, TWO_CHAIN, {"q0": "p0", "q1": "p0", "q2": "p1"})
        m3 = MonotoneMap(TWO_CHAIN, TWO_CHAIN, {"p0": "p0", "p1": "p1"})
        F = monotone_as_functor(m1)
        G = monotone_as_functor(m2)
        H = monotone_as_functor(m3)
        assert compose_functors(compose_functors(H, G), F) == compose_functors(
            H, compose_functors(G, F)
        )
        assert compose_functors(F, Functor.identity(F.source)) == F
        assert compose_functors(Functor.identity(F.target), F) == F


class TestIsoPreservation:
    def test_identity_functor_preserves_isos(self):
        assert check_iso_preservation(Functor.identity(poset_as_category(THREE_CHAIN)))

    def test_monoid_homomorphism_preserves_isos(self):
        z2 = FiniteMonoid.cyclic(2)
        swap = MonoidHom(z2, z2, {"0": "0", "1": "1"})
        functor = monoid_hom_as_functor(swap)
        assert check_functoriality(functor).ok
        assert check_iso_preservation(functor)

    def test_non_functor_is_rejected(self):
        with pytest.raises(NotAFunctor):
            check_iso_preservation(broken_arrow_map_functor())

    def test_every_functorial_fixture_preserves_isos(self):
        z4 = FiniteMonoid.cyclic(4)
        z2 = FiniteMonoid.cyclic(2)
        parity = MonoidHom(z4, z2, {str(i): str(i % 2) for i in range(4)})
        fixtures = [
            Functor.identity(poset_as_category(TWO_CHAIN)),
            Functor.identity(monoid_as_category(z4)),
            monotone_as_functor(
                MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"p0": "q0", "p1": "q2"})
            ),
            monoid_hom_as_functor(parity),
        ]
        for functor in fixtures:
            assert check_functoriality(functor).ok
            assert check_iso_preservation(functor)


@pytest.fixture(scope="module")
def small_finset():
    return build_finset(
        [NamedFiniteSet("X", ("a",)), NamedFiniteSet("Y", ("0", "1"))]
    )


class TestPowersetFunctor:
    def test_powerset_object_sizes(self, small_finset):
        functor = powerset_functor(small_finset)
        assert functor.object_map == {"X": "P(X)", "Y": "P(Y)"}
        y_elements = powerset_of(NamedFiniteSet("Y", ("0", "1"))).elements
        assert len(y_elements) == 4

    def test_direct_image_action(self, small_finset):
        functor = powerset_functor(small_finset)
        image = functor.arrow_map["X->Y{a:0}"]
        # P(f) sends {a} to {0} and {} to {}
        assert image == "P(X)->P(Y){{}:{},{a}:{0}}"

    def test_powerset_functoriality_exhaustive(self, small_finset):
        assert check_functoriality(powerset_functor(small_finset)).ok

    def test_powerset_preserves_composition_on_subsets(self, small_finset):
        fs = small_finset
        functor = powerset_functor(fs)
        for f in fs.all_arrows():
            for g in fs.all_arrows():
                if fs.cod(f) != fs.dom(g):
                    continue
                lhs = functor.arrow_map[fs.compose(g, f)]
                rhs = functor.target.compose(functor.arrow_map[g], functor.arrow_map[f])
                assert lhs == rhs

    def test_subset_labels_are_canonical(self):
        y = NamedFiniteSet("Y", ("0", "1"))
        assert subset_label(frozenset(), y) == "{}"
        assert subset_label(frozenset({"1", "0"}), y) == "{0,1}"


class TestBridges:
    def test_identity_monotone_map_gives_identity_functor(self):
        functor = monotone_as_functor(MonotoneMap.identity(TWO_CHAIN))
        assert functor == Functor.identity(poset_as_category(TWO_CHAIN))

    def test_non_monotone_map_is_rejected_with_witness(self):
        with pytest.raises(NotMonotone) as err:
            MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"p0": "q2", "p1": "q0"})
        assert err.value.witness == ("p0", "p1")

    def test_parity_map_is_functorial(self):
        parity = MonoidHom(
            FiniteMonoid.cyclic(4),
            FiniteMonoid.cyclic(2),
            {str(i): str(i % 2) for i in range(4)},
        )
        assert parity.violation() is None
        assert check_functoriality(monoid_hom_as_functor(parity)).ok

    def test_non_homomorphism_is_rejected_with_witness(self):
        bad = MonoidHom(
            FiniteMonoid.cyclic(2),
            FiniteMonoid.cyclic(2),
            {"0": "0", "1": "0"},
        )
        # 1+1=0 maps to 0 but images add to 0; unit is fine; break multiplication:
        worse = MonoidHom(
            FiniteMonoid.cyclic(4),
            FiniteMonoid.cyclic(2),
            {"0": "0", "1": "1", "2": "1", "3": "0"},
        )
        assert bad.violation() is None  # constant-zero is a real homomorphism
        with pytest.raises(NotAHomomorphism) as err:
            monoid_hom_as_functor(worse)
        assert err.value.witness[0] == "multiplication"

    def test_monotone_round_trip(self):
        m = MonotoneMap(TWO_CHAIN, THREE_CHAIN, {"p0": "q0", "p1": "q2"})
        assert functor_as_monotone(monotone_as_functor(m)) == m

    def test_monotone_maps_biject_with_functors_on_small_posets(self):
        P = FinitePoset.from_relation(
            ["x", "y", "z"], [("x", "y"), ("x", "z")]
        )
        Q = FinitePoset.chain(["0", "1"])
        CP, CQ = poset_as_category(P), poset_as_category(Q)
        monotone_maps = []
        for images in itertools.product(Q.elements, repeat=len(P.elements)):
            graph = dict(zip(P.elements, images))
            if all(
                Q.le(graph[a], graph[b])
                for a in P.elements
                for b in P.elements
                if P.le(a, b)
            ):
                monotone_maps.append(MonotoneMap(P, Q, graph))
        functors = []
        for images in itertools.product(CQ.objects, repeat=len(CP.objects)):
            object_map = dict(zip(CP.objects, images))
            arrow_map = {}
            total = True
            for arr in CP.arrows:
                targets = CQ.hom(object_map[arr.dom], object_map[arr.cod])
                if not targets:
                    total = False
                    break
                arrow_map[arr.name] = targets[0]
            if not total:
                continue
            functor = Functor(CP, CQ, object_map, arrow_map)
            if check_functoriality(functor).ok:
                functors.append(functor)
        assert len(monotone_maps) == len(functors)
        for m in monotone_maps:
            assert monotone_as_functor(m) in functors
        for functor in functors:
            assert functor_as_monotone(functor) in monotone_maps
