"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every check
is exact (no tolerances anywhere) and every randomized check is seeded.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from reference_core import is_equational_product
from fincat.builders import (
    FiniteFunction,
    FiniteMonoid,
    FiniteRelation,
    NamedFiniteSet,
    build_finset,
    monoid_as_category,
    poset_as_category,
)
from fincat.cli import run as cli_run
from fincat.core import is_epic, is_monic
from fincat.firstorder import (
    AssignmentSet,
    FORelation,
    FOStructure,
    all_assignments,
    projection_adjoints,
    satisfies,
    tarski_denotation,
    verify_generalization_rule,
)
from fincat.formats import (
    dump_category,
    dump_frame,
    dump_monotone_map,
    dump_recursion_data,
    dump_structure,
    load_category,
    load_frame,
    load_monotone_map,
    load_recursion_data,
    load_structure,
    parse_builder,
    parse_category,
    parse_frame,
    parse_monotone_map,
    parse_recursion_data,
    parse_structure,
    read_json,
)
from fincat.formulas import And, Atom, Exists, Forall, Implies, Not, Or
from fincat.functors import (
    Functor,
    MonoidHom,
    check_functoriality,
    check_iso_preservation,
    monoid_hom_as_functor,
    monotone_as_functor,
    powerset_functor,
)
from fincat.galois import (
    FinitePoset,
    MonotoneMap,
    adjunction_witness,
    floor_ceiling_demo,
    left_adjoint,
    unit_counit_violations,
)
from fincat.logic import (
    box,
    relation_post_image,
    direct_image,
    inverse_image,
    subsets,
    universal_image,
)
from fincat.nno import nno_search
from fincat.universal import (
    find_products,
    find_terminals,
    terminal_iso_certificate,
    verify_equational_product,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SEED = 20240513


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def finset_123():
    return build_finset(
        [
            NamedFiniteSet("S1", ("a",)),
            NamedFiniteSet("S2", ("a", "b")),
            NamedFiniteSet("S3", ("a", "b", "c")),
        ]
    )


def test_criterion_1_monic_epic_match_element_oracles(finset_123):
    started = time.perf_counter()
    mismatches = []
    arrows = list(finset_123.all_arrows())
    for name in arrows:
        fn = finset_123.function(name)
        if is_monic(finset_123, name) != fn.is_injective():
            mismatches.append(("monic", name))
        if is_epic(finset_123, name) != fn.is_surjective():
            mismatches.append(("epic", name))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 10.0
    report(
        1,
        ok,
        f"{len(arrows)} arrows over sizes {{1,2,3}}, {len(mismatches)} mismatches, "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_terminal_uniqueness():
    fixtures = [
        build_finset(
            [
                NamedFiniteSet("T1", ("x",)),
                NamedFiniteSet("T2", ("y",)),
                NamedFiniteSet("Two", ("0", "1")),
            ]
        ).category,
        build_finset(
            [NamedFiniteSet("P", ("p",)), NamedFiniteSet("Q", ("q",))]
        ).category,
    ]
    problems = []
    pairs_checked = 0
    for C in fixtures:
        terminals = find_terminals(C)
        assert len(terminals) >= 2
        for t, t2 in itertools.product(terminals, repeat=2):
            pairs_checked += 1
            cert = terminal_iso_certificate(C, t, t2)
            if C.compose(cert.backward, cert.forward) != C.identity(t):
                problems.append((t, t2, "backward∘forward"))
            if C.compose(cert.forward, cert.backward) != C.identity(t2):
                problems.append((t, t2, "forward∘backward"))
            if len(C.hom(t, t2)) != 1:
                problems.append((t, t2, "connecting-arrow count"))
    report(
        2,
        not problems,
        f"{pairs_checked} terminal pairs, composites identical and exactly one "
        f"connecting arrow each; {len(problems)} problems",
    )


def test_criterion_3_product_characterizations_agree(finset_123):
    divisibility = FinitePoset.from_relation(
        ["1", "2", "3", "6", "12"],
        [("1", "2"), ("1", "3"), ("2", "6"), ("3", "6"), ("6", "12")],
    )
    diamond = FinitePoset.from_relation(
        ["bot", "a", "b", "c", "top"],
        [("bot", "a"), ("bot", "b"), ("bot", "c"),
         ("a", "top"), ("b", "top"), ("c", "top")],
    )
    fixtures = [
        ("finset", finset_123.category, None),
        ("divisibility", poset_as_category(divisibility), divisibility),
        ("diamond", poset_as_category(diamond), diamond),
    ]
    mismatches = []
    pairs = 0
    for label, C, poset in fixtures:
        for a in C.objects:
            for b in C.objects:
                pairs += 1
                certificates = find_products(C, a, b)
                found = {(c.apex, c.pi1, c.pi2) for c in certificates}
                for cert in certificates:
                    if not verify_equational_product(C, cert):
                        mismatches.append((label, a, b, "certificate fails equations"))
                for apex in C.objects:
                    for p1 in C.hom(apex, a):
                        for p2 in C.hom(apex, b):
                            equational = is_equational_product(C, a, b, apex, p1, p2)
                            if equational != ((apex, p1, p2) in found):
                                mismatches.append((label, a, b, apex))
                if poset is not None:
                    glb = poset.glb(a, b)
                    apexes = {c.apex for c in certificates}
                    if glb is None and apexes:
                        mismatches.append((label, a, b, "product without glb"))
                    if glb is not None and apexes != {glb}:
                        mismatches.append((label, a, b, "apex differs from glb"))
    report(
        3,
        not mismatches,
        f"{pairs} object pairs across 3 fixtures, universal and equational "
        f"characterizations coincide, poset apexes equal glbs; "
        f"{len(mismatches)} mismatches",
    )


def _random_poset(rng: random.Random, size: int) -> FinitePoset:
    labels = [f"e{i}" for i in range(size)]
    pairs = [
        (labels[i], labels[j])
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < 0.4
    ]
    return FinitePoset.from_relation(labels, pairs)


def _random_monotone(rng: random.Random, dom: FinitePoset, cod: FinitePoset):
    for _ in range(200):
        graph = {x: rng.choice(cod.elements) for x in dom.elements}
        if all(
            cod.le(graph[x], graph[y])
            for x in dom.elements
            for y in dom.elements
            if dom.le(x, y)
        ):
            return MonotoneMap(dom, cod, graph)
    return None


def test_criterion_4_adjunction_equivalence_and_floor_ceiling():
    rng = random.Random(SEED)
    agreements = 0
    disagreements = []
    adjoint_pairs_seen = 0
    while agreements + len(disagreements) < 500:
        P = _random_poset(rng, rng.randint(1, 6))
        Q = _random_poset(rng, rng.randint(1, 6))
        g = _random_monotone(rng, Q, P)
        if g is None:
            continue
        # alternate between arbitrary candidates and constructed adjoints so
        # both verdict outcomes occur in the sample
        if rng.random() < 0.5:
            f = _random_monotone(rng, P, Q)
            if f is None:
                continue
        else:
            f = left_adjoint(g)
            if f is None:
                continue
            adjoint_pairs_seen += 1
        equation_holds = adjunction_witness(f, g) is None
        laws_hold = not unit_counit_violations(f, g)
        if equation_holds != laws_hold:
            disagreements.append((f.graph, g.graph))
        else:
            agreements += 1
    floor_report = floor_ceiling_demo(5, 2)
    ok = not disagreements and floor_report.ok and adjoint_pairs_seen > 0
    report(
        4,
        ok,
        f"{agreements} seeded monotone pairs agree between the equivalence and "
        f"the derived laws ({adjoint_pairs_seen} genuine adjoints included); "
        f"floor/ceiling exact on all {len(floor_report.rows)} grid points",
    )


def _universes_up_to_3():
    return [
        NamedFiniteSet("U1", ("a",)),
        NamedFiniteSet("U2", ("a", "b")),
        NamedFiniteSet("U3", ("a", "b", "c")),
    ]


def test_criterion_5_logic_adjoint_triple():
    started = time.perf_counter()
    failures = []
    functions = 0
    for dom in _universes_up_to_3():
        for cod in _universes_up_to_3():
            for images in itertools.product(cod.elements, repeat=len(dom.elements)):
                f = FiniteFunction(dom, cod, dict(zip(dom.elements, images)))
                functions += 1
                for s in subsets(dom):
                    for t in subsets(cod):
                        if direct_image(f, s).included_in(t) != s.included_in(
                            inverse_image(f, t)
                        ):
                            failures.append(("exists", f.graph))
                        if inverse_image(f, t).included_in(s) != t.included_in(
                            universal_image(f, s)
                        ):
                            failures.append(("forall", f.graph))
    relations = 0
    for dom in _universes_up_to_3():
        for cod in _universes_up_to_3():
            all_pairs = [(x, y) for x in dom.elements for y in cod.elements]
            for mask in range(2 ** len(all_pairs)):
                r = FiniteRelation(
                    dom,
                    cod,
                    frozenset(p for i, p in enumerate(all_pairs) if mask & (1 << i)),
                )
                relations += 1
                for s in subsets(dom):
                    for t in subsets(cod):
                        if relation_post_image(r, s).included_in(t) != s.included_in(
                            box(r, t)
                        ):
                            failures.append(("box", sorted(r.pairs)))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    report(
        5,
        ok,
        f"image triple over {functions} functions and box adjunction over "
        f"{relations} relations, all subset pairs, {len(failures)} failures, "
        f"{elapsed:.1f}s (< 60s)",
    )


def _formula_pool(max_depth: int, context: int) -> list:
    """Every tree over the single binary relation E, up to the given depth."""
    memo: dict[tuple[int, int], list] = {}

    def atoms(ctx: int) -> list:
        return [
            Atom("E", (i, j))
            for i in range(1, ctx + 1)
            for j in range(1, ctx + 1)
        ]

    def build(depth: int, ctx: int) -> list:
        key = (depth, ctx)
        if key in memo:
            return memo[key]
        if depth == 1:
            memo[key] = atoms(ctx)
            return memo[key]
        smaller = build(depth - 1, ctx)
        result = list(smaller)
        result.extend(Not(f) for f in smaller)
        for left in smaller:
            for right in smaller:
                result.append(And(left, right))
                result.append(Or(left, right))
                result.append(Implies(left, right))
        inner = build(depth - 1, ctx + 1)
        result.extend(Forall(ctx + 1, f) for f in inner)
        result.extend(Exists(ctx + 1, f) for f in inner)
        memo[key] = result
        return result

    return build(max_depth, context)


def _bridge_structures():
    two = NamedFiniteSet("A2", ("a", "b"))
    three = NamedFiniteSet("A3", ("a", "b", "c"))
    return [
        FOStructure(two, {"E": FORelation(2, frozenset({("a", "b"), ("b", "b")}))}),
        FOStructure(
            three,
            {"E": FORelation(2, frozenset({("a", "b"), ("b", "c"), ("c", "a")}))},
        ),
    ]


def test_criterion_6_quantifier_bridge_and_generalization():
    started = time.perf_counter()
    mismatches = 0
    formulas_checked = 0
    for structure in _bridge_structures():
        carrier = structure.carrier
        for context in (0, 1, 2):
            for formula in _formula_pool(3, context):
                formulas_checked += 1
                denotation = tarski_denotation(structure, formula, context)
                direct = frozenset(
                    s
                    for s in all_assignments(carrier, context)
                    if satisfies(structure, formula, s)
                )
                if denotation.tuples != direct:
                    mismatches += 1

    rng = random.Random(SEED)
    rule_checked = 0
    rule_disagreements = 0
    pools = {n: _formula_pool(2, n + 1) for n in (0, 1)}
    for structure in _bridge_structures():
        carrier = structure.carrier
        for _ in range(100):
            n = rng.choice((0, 1))
            tuples_n = all_assignments(carrier, n)
            gamma = AssignmentSet(
                n,
                frozenset(t for t in tuples_n if rng.random() < 0.5),
            )
            formula = rng.choice(pools[n])
            body = tarski_denotation(structure, formula, n + 1)
            _, forall_op = projection_adjoints(carrier, n)
            lhs = gamma.tuples <= forall_op(body).tuples
            expanded = frozenset(
                t + (a,) for t in gamma.tuples for a in carrier.elements
            )
            rhs = expanded <= body.tuples
            if lhs != rhs:
                rule_disagreements += 1
            if verify_generalization_rule(gamma, formula, structure) != lhs:
                rule_disagreements += 1
            rule_checked += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and rule_disagreements == 0 and rule_checked == 200
    report(
        6,
        ok,
        f"{formulas_checked} formulas of depth <= 3: adjoint route equals direct "
        f"Tarski denotation tuple for tuple ({mismatches} mismatches); "
        f"generalization rule agrees on {rule_checked} seeded pairs "
        f"({rule_disagreements} disagreements); {elapsed:.1f}s",
    )


def test_criterion_7_nno_refutation_and_stability():
    one_pair = [
        build_finset([NamedFiniteSet("One", ("*",)), NamedFiniteSet("Two", ("0", "1"))]),
        build_finset([NamedFiniteSet("Pt", ("p",)), NamedFiniteSet("Pair", ("x", "y"))]),
    ]
    singletons = [
        build_finset([NamedFiniteSet("One", ("*",))]),
        build_finset([NamedFiniteSet("Dot", ("d",))]),
    ]
    problems = []
    for fs in one_pair:
        result = nno_search(fs.category)
        terminal = find_terminals(fs.category)[0]
        for n in fs.objects:
            candidates = len(fs.hom(terminal, n)) * len(fs.hom(n, n))
            assert candidates <= 2 * len(fs.hom(n, n))
        if result.triples != ():
            problems.append("two-element fixture admitted a candidate")
    for fs in singletons:
        result = nno_search(fs.category)
        if len(result.triples) != 1:
            problems.append("one-object fixture lost its trivial triple")
    report(
        7,
        not problems,
        "refutation on {one,two}-element sets and trivial triple on the "
        f"one-object category, both stable under relabelling; {len(problems)} problems",
    )


def test_criterion_8_functor_laws():
    z4 = FiniteMonoid.cyclic(4)
    z2 = FiniteMonoid.cyclic(2)
    two_chain = FinitePoset.chain(["p0", "p1"])
    three_chain = FinitePoset.chain(["q0", "q1", "q2"])
    small_finset = build_finset(
        [NamedFiniteSet("X", ("a", "b")), NamedFiniteSet("Y", ("0", "1"))]
    )
    fixtures = [
        Functor.identity(poset_as_category(two_chain)),
        Functor.identity(monoid_as_category(z4)),
        Functor.identity(small_finset.category),
        monotone_as_functor(
            MonotoneMap(two_chain, three_chain, {"p0": "q0", "p1": "q2"})
        ),
        monoid_hom_as_functor(
            MonoidHom(z4, z2, {str(i): str(i % 2) for i in range(4)})
        ),
        powerset_functor(small_finset),
    ]
    failures = []
    for functor in fixtures:
        if not check_functoriality(functor).ok:
            failures.append("functoriality")
        elif not check_iso_preservation(functor):
            failures.append("iso preservation")
    report(
        8,
        not failures,
        f"{len(fixtures)} functor fixtures pass functoriality and preserve "
        f"isomorphisms (powerset included, exhaustive on sets of size <= 2); "
        f"{len(failures)} failures",
    )


def test_criterion_9_cli_round_trip_and_golden_files():
    problems = []
    round_trips = [
        ("twochain.json", load_category, parse_category, dump_category),
        ("twochain_broken.json", load_category, parse_category, dump_category),
        ("threechain.json", load_category, parse_category, dump_category),
        ("gmap.json", load_monotone_map, parse_monotone_map, dump_monotone_map),
        ("inclusion.json", load_monotone_map, parse_monotone_map, dump_monotone_map),
        ("frame.json", load_frame, parse_frame, dump_frame),
        ("structure.json", load_structure, parse_structure, dump_structure),
        ("recursion.json", load_recursion_data, parse_recursion_data, dump_recursion_data),
    ]
    for name, loader, parser, dumper in round_trips:
        value = loader(FIXTURES / name)
        if parser(json.loads(json.dumps(dumper(value)))) != value:
            problems.append(name)
    for name in ("finset.json", "poset_divisibility.json", "diamond.json",
                 "monoid_z2.json", "mat.json"):
        built = parse_builder(read_json(FIXTURES / name))
        category = getattr(built, "category", None)
        if category is None:
            from fincat.core import materialize

            category = built if hasattr(built, "composition") else materialize(built)
        if parse_category(dump_category(category)) != category:
            problems.append(name)
    for demo_name in ("floor-ceiling", "wp", "quantifiers"):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_run(["demo", demo_name])
        golden = (GOLDEN / f"demo_{demo_name.replace('-', '_')}.txt").read_text()
        if code != 0 or out.getvalue() != golden:
            problems.append(f"golden:{demo_name}")
    report(
        9,
        not problems,
        f"{len(round_trips) + 5} fixtures survive dump/parse equality and all "
        f"3 demo outputs match their golden files byte for byte; "
        f"{len(problems)} problems",
    )
