"""The bitmask orders and subset operators against the pair-set reference
(`reference_orders`) on random relations, maps and subsets of at most eight
elements, cyclic relations and shuffled element orders included, and the order
checks and transposes on orders of up to 130 elements, at the edges of the mask
kernels."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_orders as ref
from fincat.builders import FiniteFunction, FiniteRelation, NamedFiniteSet
from fincat.errors import AdjunctionFails, InvalidPoset, NotDownClosed, NotMonotone
from fincat.galois import (
    FinitePoset,
    MonotoneMap,
    _transpose,
    _truths,
    adjunction_witness,
    approximation_report,
    bits,
    greatest_below,
    left_adjoint,
    right_adjoint,
    unit_counit_violations,
    verify_adjunction,
)
from fincat.logic import SubsetOf, box, down_sets, heyting_implication, universal_image


@st.composite
def relations(draw, prefix="e", acyclic=False, max_size=8):
    """Elements and a sparse relation on them; with ``acyclic`` every pair
    points up the element order, so the closure is a poset."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    elements = [f"{prefix}{i}" for i in range(n)]
    if n == 0:
        return elements, []
    index_pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if acyclic:
        index_pairs = index_pairs.map(sorted)
    chosen = draw(st.lists(index_pairs, max_size=2 * n))
    return elements, [(elements[i], elements[j]) for i, j in chosen]


def both(build_new, build_ref):
    """Both results, or the exception type when both sides raise the same one."""
    try:
        new = build_new()
    except InvalidPoset:
        with pytest.raises(InvalidPoset):
            build_ref()
        return None, None
    return new, build_ref()


@given(relations())
def test_from_relation_agrees_and_rejects_cycles(rel):
    elements, pairs = rel
    new, old = both(
        lambda: FinitePoset.from_relation(elements, pairs),
        lambda: ref.RefPoset.from_relation(elements, pairs),
    )
    if new is not None:
        assert new.leq == old.leq


@given(relations(), st.data())
def test_constructor_accepts_and_rejects_the_same_tables(rel, data):
    elements, pairs = rel
    # an arbitrary table: a sparse relation plus some reflexive pairs
    reflexive = data.draw(st.lists(st.sampled_from(elements), unique=True)) if elements else []
    leq = frozenset(pairs) | {(x, x) for x in reflexive}
    new, old = both(lambda: FinitePoset(tuple(elements), leq), lambda: ref.RefPoset(elements, leq))
    if new is not None:
        assert new.leq == old.leq


@given(relations(acyclic=True), st.data())
def test_order_queries_agree(rel, data):
    elements, pairs = rel
    new = FinitePoset.from_relation(elements, pairs)
    old = ref.RefPoset.from_relation(elements, pairs)
    for x in elements:
        for y in elements:
            assert new.le(x, y) == old.le(x, y)
            assert new.glb(x, y) == old.glb(x, y)
            assert new.lub(x, y) == old.lub(x, y)
    subset = data.draw(st.lists(st.sampled_from(elements), unique=True)) if elements else []
    assert new.least_of(subset) == old.least_of(subset)
    assert new.greatest_of(subset) == old.greatest_of(subset)


@st.composite
def shuffled_orders(draw, prefix="s", max_size=7):
    """Elements, a sparse relation and a hidden order: the pairs point up the
    hidden order, whose first element is made least (or not) and whose last
    greatest (or not), and the element list is a shuffle of it, so a pick's
    walk may take several steps."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    hidden = [f"{prefix}{i}" for i in range(n)]
    if n == 0:
        return hidden, [], hidden
    index_pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)
    pairs = [(hidden[i], hidden[j]) for i, j in draw(st.lists(index_pairs, max_size=2 * n))]
    if draw(st.booleans()):
        pairs += [(hidden[0], x) for x in hidden]
    if draw(st.booleans()):
        pairs += [(x, hidden[-1]) for x in hidden]
    return draw(st.permutations(hidden)), pairs, hidden


@given(shuffled_orders(), st.data())
def test_picks_agree_on_shuffled_orders(order, data):
    elements, pairs, _ = order
    new = FinitePoset.from_relation(elements, pairs)
    old = ref.RefPoset.from_relation(elements, pairs)
    for x in elements:
        for y in elements:
            assert new.glb(x, y) == old.glb(x, y)
            assert new.lub(x, y) == old.lub(x, y)
    subset = data.draw(st.lists(st.sampled_from(elements), unique=True)) if elements else []
    for part in (elements, subset):
        assert new.least_of(part) == old.least_of(part)
        assert new.greatest_of(part) == old.greatest_of(part)


@st.composite
def shuffled_maps(draw):
    """A monotone map between two shuffled orders: each domain element, taken in
    the hidden order, goes to a drawn element above the images of everything
    below it; where no such element exists the map is constant instead."""
    dom, dom_pairs, hidden = draw(shuffled_orders("x", max_size=6).filter(lambda order: order[0]))
    cod, cod_pairs, _ = draw(shuffled_orders("y", max_size=6).filter(lambda order: order[0]))
    P, Q = ref.RefPoset.from_relation(dom, dom_pairs), ref.RefPoset.from_relation(cod, cod_pairs)
    graph = {}
    for x in hidden:
        lower = [graph[y] for y in graph if P.le(y, x)]
        above = [c for c in cod if all(Q.le(b, c) for b in lower)]
        if not above:
            graph = dict.fromkeys(dom, draw(st.sampled_from(cod)))
            break
        graph[x] = draw(st.sampled_from(above))
    return (dom, dom_pairs), (cod, cod_pairs), graph


@given(shuffled_maps())
def test_adjoint_picks_agree_on_shuffled_orders(spec):
    (dom, dom_pairs), (cod, cod_pairs), graph = spec
    P, Q = FinitePoset.from_relation(dom, dom_pairs), FinitePoset.from_relation(cod, cod_pairs)
    RP, RQ = ref.RefPoset.from_relation(dom, dom_pairs), ref.RefPoset.from_relation(cod, cod_pairs)
    m = MonotoneMap(P, Q, graph)
    for x in cod:
        report = approximation_report(m, x)
        assert (report.approximants, report.best, report.status) == ref.approximation(RP, RQ, graph, x)
        assert greatest_below(m, x) == ref.greatest_below(RP, RQ, graph, x)
    left, right = left_adjoint(m), right_adjoint(m)
    assert (left and left.graph) == ref.left_adjoint(RP, RQ, graph)
    assert (right and right.graph) == ref.right_adjoint(RP, RQ, graph)


@st.composite
def maps(draw):
    """Two random posets and a random, not necessarily monotone, graph."""
    dom_rel = draw(relations("x", acyclic=True, max_size=6).filter(lambda r: r[0]))
    cod_rel = draw(relations("y", acyclic=True, max_size=6).filter(lambda r: r[0]))
    graph = {x: draw(st.sampled_from(cod_rel[0])) for x in dom_rel[0]}
    return dom_rel, cod_rel, graph


@given(maps())
def test_monotone_check_and_adjoints_agree(spec):
    (dom, dom_pairs), (cod, cod_pairs), graph = spec
    P, Q = FinitePoset.from_relation(dom, dom_pairs), FinitePoset.from_relation(cod, cod_pairs)
    RP, RQ = ref.RefPoset.from_relation(dom, dom_pairs), ref.RefPoset.from_relation(cod, cod_pairs)
    try:
        m = MonotoneMap(P, Q, graph)
    except NotMonotone as exc:
        with pytest.raises(NotMonotone) as expected:
            ref.monotone_witness(RP, RQ, graph)
        assert exc.witness == expected.value.witness
        assert str(exc) == str(expected.value)
        return
    ref.monotone_witness(RP, RQ, graph)
    left, right = left_adjoint(m), right_adjoint(m)
    assert (left and dict(left.graph)) == ref.left_adjoint(RP, RQ, graph)
    assert (right and dict(right.graph)) == ref.right_adjoint(RP, RQ, graph)


@st.composite
def map_pairs(draw):
    """f : P -> Q and g : Q -> P as graphs, not necessarily monotone; half
    the time g is the reference right adjoint of f when that exists, so
    adjoint pairs are drawn as well as pairs that are not."""
    (dom, dom_pairs), (cod, cod_pairs), f = draw(maps())
    P, Q = ref.RefPoset.from_relation(dom, dom_pairs), ref.RefPoset.from_relation(cod, cod_pairs)
    g = {z: draw(st.sampled_from(dom)) for z in cod}
    if draw(st.booleans()):
        g = ref.right_adjoint(P, Q, f) or g
    return (dom, dom_pairs), (cod, cod_pairs), f, g


@given(map_pairs())
def test_adjunction_checks_agree(spec):
    (dom, dom_pairs), (cod, cod_pairs), f_graph, g_graph = spec
    P, Q = FinitePoset.from_relation(dom, dom_pairs), FinitePoset.from_relation(cod, cod_pairs)
    RP, RQ = ref.RefPoset.from_relation(dom, dom_pairs), ref.RefPoset.from_relation(cod, cod_pairs)
    try:
        f, g = MonotoneMap(P, Q, f_graph), MonotoneMap(Q, P, g_graph)
    except NotMonotone as exc:
        with pytest.raises(NotMonotone) as expected:
            ref.monotone_witness(RP, RQ, f_graph)
            ref.monotone_witness(RQ, RP, g_graph)
        assert (exc.witness, str(exc)) == (expected.value.witness, str(expected.value))
        return
    witness = ref.adjunction_witness(RP, RQ, f_graph, g_graph)
    assert adjunction_witness(f, g) == witness
    assert unit_counit_violations(f, g) == ref.unit_counit_violations(RP, RQ, f_graph, g_graph)
    if witness is None:
        assert verify_adjunction(f, g).verified_on == len(dom) * len(cod)
    else:
        with pytest.raises(AdjunctionFails) as failed:
            verify_adjunction(f, g)
        assert failed.value.witness == witness
        assert str(failed.value) == f"x <= g(z) iff f(x) <= z fails at (x, z) = {witness!r}"


@given(relations(acyclic=True), st.data())
def test_down_sets_and_heyting_implication_agree(rel, data):
    elements, pairs = rel
    new = FinitePoset.from_relation(elements, pairs)
    old = ref.RefPoset.from_relation(elements, pairs)
    closed = down_sets(new)
    assert closed == ref.down_sets(old)
    x, y = data.draw(st.sampled_from(closed)), data.draw(st.sampled_from(closed))
    assert heyting_implication(new, x, y) == ref.heyting_implication(old, x, y)
    stray = data.draw(st.lists(st.sampled_from(elements), unique=True)) if elements else []
    if not ref.is_down_closed(old, frozenset(stray)):
        with pytest.raises(NotDownClosed):
            heyting_implication(new, frozenset(stray), y)


def universes(prefix):
    return st.integers(min_value=1, max_value=8).map(
        lambda n: NamedFiniteSet(prefix.upper(), tuple(f"{prefix}{i}" for i in range(n)))
    )


def subsets_of(U):
    return st.lists(st.sampled_from(U.elements), unique=True).map(frozenset)


@given(universes("a"), universes("b"), st.data())
def test_universal_image_agrees(A, B, data):
    graph = {x: data.draw(st.sampled_from(B.elements)) for x in A.elements}
    members = data.draw(subsets_of(A))
    f = FiniteFunction(A, B, graph)
    got = universal_image(f, SubsetOf(A, members))
    assert got.members == ref.universal_image(f, ref.RefSubset(A, members)).members


@given(universes("a"), universes("b"), st.data())
def test_box_agrees(A, B, data):
    pair = st.tuples(st.sampled_from(A.elements), st.sampled_from(B.elements))
    pairs = data.draw(st.frozensets(pair))
    members = data.draw(subsets_of(B))
    r = FiniteRelation(A, B, pairs)
    got = box(r, SubsetOf(B, members))
    assert got.members == ref.box(r, ref.RefSubset(B, members)).members


# The mask kernels change course at word and digit-table boundaries and
# between their sparse and dense paths, so these orders have 0, 1, 2, 63, 64,
# 65 or 130 elements, and densities from an antichain to a near chain.
EDGE_SIZES = (0, 1, 2, 63, 64, 65, 130)
SEEDS = st.integers(0, 2**32 - 1)  # a seeded generator draws the many bits of a large order


@st.composite
def edge_relations(draw, prefix="e", cycles=True):
    """A relation on a shuffled element list of an edge size: pairs up a
    hidden order at a drawn density, some self-loops and, with ``cycles``,
    some pairs back down the hidden order."""
    n = draw(st.sampled_from(EDGE_SIZES))
    rng = random.Random(draw(SEEDS))
    density = draw(st.sampled_from((0.0, 0.03, 0.2, 0.7)))
    hidden = [f"{prefix}{i}" for i in range(n)]
    pairs = [(x, y) for i, x in enumerate(hidden) for y in hidden[i + 1:] if rng.random() < density]
    pairs += [(x, x) for x in rng.sample(hidden, min(n, 3))]
    if cycles and n > 1:
        for _ in range(draw(st.integers(0, 2))):
            low, high = sorted(rng.sample(range(n), 2))
            pairs.append((hidden[high], hidden[low]))
    rng.shuffle(pairs)
    elements = rng.sample(hidden, n)
    return elements, pairs


def _expect_order(build, elements, leq):
    """``build()`` gives the poset of ``leq``, or raises the reference text."""
    expected = ref.order_violation(elements, leq)
    if expected is not None:
        with pytest.raises(InvalidPoset) as failed:
            build()
        assert str(failed.value) == expected
        return
    poset = build()
    assert poset.leq == leq
    downs = {(poset.elements[i], y) for y, row in zip(poset.elements, poset.downs) for i in bits(row)}
    assert downs == leq


@given(edge_relations())
def test_from_relation_matches_the_reference_closure_at_edge_sizes(rel):
    elements, pairs = rel
    leq = ref.closure(elements, pairs)
    _expect_order(lambda: FinitePoset.from_relation(iter(elements), iter(pairs)), elements, leq)


@st.composite
def edge_tables(draw):
    """The pairs of a partial order of an edge size with one or two faults:
    a reflexive pair dropped, a related pair dropped, an unrelated pair added,
    or a related pair turned into a cycle and closed again, so that any law
    may fail first."""
    elements, pairs = draw(edge_relations(cycles=False))
    leq = set(ref.closure(elements, pairs))
    rng = random.Random(draw(SEEDS))
    for kind in draw(st.lists(st.sampled_from(("loop", "drop", "add", "cycle")), min_size=1, max_size=2)):
        strict = sorted((x, y) for x, y in leq if x != y)
        if kind == "loop" and elements:
            leq.discard((rng.choice(elements),) * 2)
        elif kind == "drop" and strict:
            leq.discard(rng.choice(strict))
        elif kind == "add" and len(elements) > 1:
            leq.add(tuple(rng.sample(elements, 2)))
        elif kind == "cycle" and strict:
            leq = set(ref.closure(elements, leq | {tuple(reversed(rng.choice(strict)))}))
    return elements, frozenset(leq)


@given(edge_tables())
def test_mask_check_matches_the_reference_laws_at_edge_sizes(table):
    elements, leq = table
    at = {x: i for i, x in enumerate(elements)}
    ups = [0] * len(elements)
    for x, y in leq:
        ups[at[x]] |= 1 << at[y]
    _expect_order(lambda: FinitePoset._from_ups(elements, iter(ups)), elements, leq)
    _expect_order(lambda: FinitePoset(elements, leq), elements, leq)


@given(edge_relations("x", cycles=False), edge_relations("y", cycles=False), st.data())
def test_monotone_check_matches_the_reference_at_edge_sizes(dom_rel, cod_rel, data):
    """Maps that are constant, or the identity of the domain, with up to two
    elements sent elsewhere: the first unordered pair and its text match."""
    (dom, dom_pairs), (cod, cod_pairs) = dom_rel, cod_rel
    if data.draw(st.booleans()):
        cod, cod_pairs = dom, dom_pairs
        graph = {x: x for x in dom}
    elif cod:
        graph = dict.fromkeys(dom, data.draw(st.sampled_from(cod)))
    else:
        cod, cod_pairs = ["y"], []
        graph = dict.fromkeys(dom, "y")
    rng = random.Random(data.draw(SEEDS))
    for x in rng.sample(dom, min(len(dom), data.draw(st.integers(0, 2)))):
        graph[x] = rng.choice(cod)
    P, Q = FinitePoset.from_relation(dom, dom_pairs), FinitePoset.from_relation(cod, cod_pairs)
    RP = ref.PairOrder(dom, ref.closure(dom, dom_pairs))
    RQ = ref.PairOrder(cod, ref.closure(cod, cod_pairs))
    try:
        m = MonotoneMap(P, Q, graph)
    except NotMonotone as exc:
        with pytest.raises(NotMonotone) as expected:
            ref.monotone_witness(RP, RQ, graph)
        assert (exc.witness, str(exc)) == (expected.value.witness, str(expected.value))
        return
    ref.monotone_witness(RP, RQ, graph)
    assert m.graph == graph
    # any adjoint found is one: its pair passes both checks
    for f, g in ((left_adjoint(m), m), (m, right_adjoint(m))):
        if f is not None and g is not None:
            assert adjunction_witness(f, g) is None
            RF, RG = (RP, RQ) if f is m else (RQ, RP)
            assert ref.adjunction_witness(RF, RG, f.graph, g.graph) is None


@pytest.mark.parametrize("width", (63, 64, 65, 127, 128, 129, 130))
@pytest.mark.parametrize("count", (63, 64, 65, 127, 128, 129, 130))
def test_transpose_matches_the_bit_by_bit_definition(count, width):
    """Both paths of the transpose, and the one given the digit table, at the
    word and digit-table boundaries, from empty rows to full ones."""
    rng = random.Random(count * 1000 + width)
    for density in (0.0, 0.03, 0.5, 1.0):
        rows = [sum(1 << j for j in range(width) if rng.random() < density) for _ in range(count)]
        columns = [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(width)]
        assert _transpose(rows, width) == columns
        assert _transpose(rows, width, _truths(rows, width)) == columns


def test_cycle_witness_is_the_first_in_element_order():
    with pytest.raises(InvalidPoset, match="antisymmetric on 'a', 'b'"):
        cycles = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "d")]
        FinitePoset.from_relation("abcde", cycles)
