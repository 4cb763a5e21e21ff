"""Workload `orders_logic`: order and subset algebra.

Poset construction, adjoint search on monotone maps, floor/ceiling, down-sets
and Heyting implication, the exhaustive adjunction checkers, modal evaluation
and Tarskian denotations.  `galois`, `logic` and `firstorder` carry the time
and `core` carries none.  Sizes are fixed; the seed draws the labels, the
random orders, maps, relations, frames, structures and formulas.
"""

from __future__ import annotations

import random
import string

import oracles
from fincat import builders, firstorder, formulas, galois, logic
from harness import Request, Session, random_labels, same

SPARSE_POSETS = (20, 25, 30, 35, 40, 45, 50, 60)
WIDTH = 4
CHAINS = (20, 25, 30, 40, 50, 60)
# (kind, dom size, cod size)
MAPS = (
    ("inclusion", 6, 15),
    ("inclusion", 8, 20),
    ("inclusion", 10, 25),
    ("inclusion", 12, 30),
    ("inclusion", 16, 40),
    ("chain_to_chain", 8, 8),
    ("chain_to_chain", 10, 10),
    ("chain_to_chain", 12, 10),
    ("chain_to_chain", 15, 12),
    ("chain_to_chain", 20, 16),
    ("rank", 8, 0),
    ("rank", 10, 0),
    ("rank", 12, 0),
    ("rank", 14, 0),
    ("rank", 16, 0),
    ("rank", 18, 0),
)
FLOOR_CEILING = (
    (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (8, 2), (3, 3), (5, 3), (6, 3), (7, 3), (4, 4), (10, 4),
)
SMALL_POSETS = (6, 7, 8, 9, 10)
FUNCTIONS = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))
RELATIONS = FUNCTIONS
IMPLICATION_UNIVERSES = (2, 3, 3, 4)
FRAMES = (5, 6, 7, 8, 9, 10, 11, 12, 14, 16)
MODAL_BATCH = 20
# (carrier size, context, quantifier prefixes): one request per formula.  The
# quantifiers are fixed because a universal quantifier costs far more than an
# existential one (its universal image scans the whole projection).
STRUCTURES = (
    (6, 1, ("A", "EA", "AE", "AEA")),
    (8, 1, ("EA", "AE")),
    (10, 0, ("EA", "AEA", "EAE")),
    (12, 0, ("AEA", "EA")),
    (14, 1, ("E", "AE", "EA")),
    (16, 1, ("A", "E")),
    (20, 0, ("A", "EA", "AE", "EAE")),
    (20, 1, ("E", "AE")),
)


def _sparse_covers(rng: random.Random, elements: list[str]) -> list[tuple[str, str]]:
    """Elements in levels of WIDTH; each sits above two random elements of
    the level below, so the closure's size hardly depends on the draw."""
    covers = []
    for j in range(WIDTH, len(elements)):
        level = j - j % WIDTH
        for i in rng.sample(range(level - WIDTH, level), 2):
            covers.append((elements[i], elements[j]))
    return covers


def _share(rng: random.Random, items: list, share: float) -> list:
    """A random subset of a fixed size, so its cost hardly depends on the draw."""
    return sorted(rng.sample(items, round(share * len(items))))


def _chain_covers(elements):
    return [(elements[i], elements[i + 1]) for i in range(len(elements) - 1)]


def _poset_request(rng, n, chain: bool) -> tuple[Request, list]:
    elements = random_labels(rng, n, "p")
    covers = _chain_covers(elements) if chain else _sparse_covers(rng, elements)

    def call(state):
        if chain:
            return galois.FinitePoset.chain(elements).leq
        return galois.FinitePoset.from_relation(elements, covers).leq

    def check(verdict, state):
        return same(verdict, oracles.closure(elements, covers))

    return Request("chain" if chain else "from_relation", call, check), [elements, covers]


def _map_request(rng, kind, a, b) -> tuple[Request, list]:
    if kind == "rank":
        dom = random_labels(rng, a, "x")
        dom_covers = _sparse_covers(rng, dom)
        rank = {x: 0 for x in dom}
        for x, y in dom_covers:  # covers are listed in increasing upper element
            rank[y] = max(rank[y], rank[x] + 1)
        cod = [f"r{i}" for i in range(max(rank.values()) + 1)]
        graph = {x: f"r{rank[x]}" for x in dom}
    else:
        dom, cod = random_labels(rng, a, "x"), random_labels(rng, b, "y")
        dom_covers = _chain_covers(dom)
        if kind == "inclusion":
            picks = [0] + sorted(rng.sample(range(1, b - 1), a - 2)) + [b - 1]
        else:
            # the ends are pinned, so both adjoints exist and are searched in full
            picks = [0] + sorted(rng.randrange(b) for _ in range(a - 2)) + [b - 1]
        graph = {x: cod[i] for x, i in zip(dom, picks)}
    cod_covers = _chain_covers(cod)

    def call(state):
        m = galois.MonotoneMap(
            galois.FinitePoset.from_relation(dom, dom_covers),
            galois.FinitePoset.from_relation(cod, cod_covers),
            graph,
        )
        left = galois.left_adjoint(m)
        right = galois.right_adjoint(m)
        verified = (
            left and galois.verify_adjunction(left, m).verified_on,
            right and galois.verify_adjunction(m, right).verified_on,
        )
        return (left and dict(left.graph), right and dict(right.graph), verified)

    def check(verdict, state):
        dom_leq = oracles.closure(dom, dom_covers)
        cod_leq = oracles.closure(cod, cod_covers)
        left = oracles.left_adjoint(dom, dom_leq, cod, cod_leq, graph)
        right = oracles.right_adjoint(dom, dom_leq, cod, cod_leq, graph)
        pairs = len(dom) * len(cod)
        return same(verdict, (left, right, (left and pairs, right and pairs)))

    return Request(f"adjoints_{kind}", call, check), [kind, dom, dom_covers, cod, graph]


def _floor_ceiling_request(k, d) -> Request:
    def call(state):
        report = galois.floor_ceiling_demo(k, d)
        return (report.ok, [(r.point, r.floor, r.ceiling) for r in report.rows])

    return Request("floor_ceiling", call, lambda v, s: same(v, (True, oracles.floor_ceiling_rows(k, d))))


def _down_set_requests(rng, n) -> tuple[list[Request], list]:
    elements = random_labels(rng, n, "d")
    relation = _sparse_covers(rng, elements)
    leq = oracles.closure(elements, relation)

    def down_closure(count):
        tops = rng.sample(elements, count)
        return frozenset(a for a in elements if any((a, t) in leq for t in tops))

    x, y = down_closure(2), down_closure(3)

    def poset():
        return galois.FinitePoset.from_relation(elements, relation)

    requests = [
        Request(
            "down_sets",
            lambda state: logic.down_sets(poset()),
            lambda v, s: same(list(v), oracles.down_sets(elements, leq)),
        ),
        Request(
            "heyting",
            lambda state: logic.heyting_implication(poset(), x, y),
            lambda v, s: same(v, oracles.heyting(elements, leq, x, y)),
        ),
    ]
    return requests, [elements, relation, sorted(x), sorted(y)]


def _named(rng, size, prefix):
    name = prefix.upper() + "".join(rng.choices(string.ascii_lowercase, k=3))
    return builders.NamedFiniteSet(name, tuple(random_labels(rng, size, prefix)))


def _checker(name, subject, dom_size, cod_size) -> Request:
    """A request running logic.check_<name> on one function, relation or universe."""

    def call(state):
        report = getattr(logic, f"check_{name}")(subject)
        return (report.ok, report.checked, len(report.witnesses))

    want = (True, oracles.subset_pairs_checked(dom_size, cod_size), 0)
    return Request(name, call, lambda v, s: same(v, want))


def _checker_requests(rng) -> tuple[list[Request], list]:
    requests, spec = [], []
    for a, b in FUNCTIONS:
        X, Y = _named(rng, a, "x"), _named(rng, b, "y")
        graph = {x: rng.choice(Y.elements) for x in X.elements}
        spec.append(["function", X, Y, graph])
        f = builders.FiniteFunction(X, Y, graph)
        requests.append(_checker("quantifier_adjunctions", f, a, b))
    for a, b in RELATIONS:
        X, Y = _named(rng, a, "x"), _named(rng, b, "y")
        pairs = frozenset(_share(rng, [(x, y) for x in X.elements for y in Y.elements], 0.4))
        spec.append(["relation", X, Y, sorted(pairs)])
        r = builders.FiniteRelation(X, Y, pairs)
        requests.append(_checker("box_adjunction", r, a, b))
    for n in IMPLICATION_UNIVERSES:
        U = _named(rng, n, "u")
        spec.append(["universe", U])
        requests.append(_checker("implication_adjunction", U, n, 2 * n))
    return requests, spec


def _modal_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return ("atom", rng.choice("pqr"))
    op = rng.choice(("not", "and", "or", "implies", "box", "dia", "box", "dia"))
    if op in ("not", "box", "dia"):
        return (op, _modal_formula(rng, depth - 1))
    return (op, _modal_formula(rng, depth - 1), _modal_formula(rng, depth - 1))


def _modal_request(rng, n) -> tuple[Request, list]:
    worlds = random_labels(rng, n, "w")
    access = _share(rng, [(u, v) for u in worlds for v in worlds], 0.3)
    valuation = {atom: _share(rng, worlds, 0.5) for atom in "pqr"}
    batch = [_modal_formula(rng, 4) for _ in range(MODAL_BATCH)]
    texts = [oracles.render(f) for f in batch]

    def call(state):
        W = builders.NamedFiniteSet("W", tuple(worlds))
        frame = logic.KripkeFrame(
            W,
            builders.FiniteRelation(W, W, frozenset(access)),
            {atom: logic.SubsetOf.of(W, members) for atom, members in valuation.items()},
        )
        return [logic.eval_modal(frame, formulas.parse_formula(t)).sorted_members() for t in texts]

    def check(verdict, state):
        want = []
        for f in batch:
            value = oracles.eval_modal(worlds, access, valuation, f)
            want.append(tuple(w for w in worlds if w in value))
        return same(verdict, want)

    return Request("eval_modal", call, check), [worlds, access, valuation, texts]


def _fo_atom(context, binary: bool):
    """An atom on the newest variable (and, if binary, the one before it)."""
    if binary:
        return ("rel", "E", (context, max(1, context - 1)))
    return ("rel", "U", (context,))


# The connective at each nesting level.  A universal quantifier's cost grows
# with the size of its body's denotation, which connectives, negations and
# atoms set; drawing them changed a request's time by up to four times from
# seed to seed, so the formula is fixed and the seed draws the structure.
CONNECTIVES = ("and", "implies", "or", "and")


def fo_formula(context, quantifiers: str, level: int = 0):
    """A formula in `context` with the given nested quantifiers ("A" for
    forall, "E" for exists), each level joined to an atom."""
    op = CONNECTIVES[level]
    if not quantifiers:
        return (op, _fo_atom(context, True), _fo_atom(context, False))
    kind = "forall" if quantifiers[0] == "A" else "exists"
    inner = (kind, context + 1, fo_formula(context + 1, quantifiers[1:], level + 1))
    return (op, inner, _fo_atom(context, level % 2 == 0)) if context > 0 else inner


def _tarski_requests(rng, n, context, prefixes) -> tuple[list[Request], list]:
    carrier = random_labels(rng, n, "a")
    edges = _share(rng, [(x, y) for x in carrier for y in carrier], 0.3)
    unary = [(x,) for x in _share(rng, carrier, 0.5)]
    texts = [oracles.render(fo_formula(context, q)) for q in prefixes]

    def structure():
        return firstorder.FOStructure(
            builders.NamedFiniteSet("A", tuple(carrier)),
            {
                "E": firstorder.FORelation(2, frozenset(edges)),
                "U": firstorder.FORelation(1, frozenset(unary)),
            },
        )

    def request(text):
        def call(state):
            formula = formulas.parse_formula(text)
            return firstorder.tarski_denotation(structure(), formula, context).sorted_tuples()

        def check(verdict, state):
            m = structure()
            formula = formulas.parse_formula(text)
            assignments = firstorder.all_assignments(m.carrier, context)
            return same(verdict, tuple(sorted(a for a in assignments if firstorder.satisfies(m, formula, a))))

        return Request("tarski", call, check)

    return [request(t) for t in texts], [carrier, edges, unary, texts]


def generate(seed: int, workdir) -> list[Session]:
    rng = random.Random(seed)
    pool = []

    def add(request, spec):
        pool.append(Session(repr(spec), [request]))

    for n in SPARSE_POSETS:
        add(*_poset_request(rng, n, chain=False))
    for n in CHAINS:
        add(*_poset_request(rng, n, chain=True))
    for kind, a, b in MAPS:
        add(*_map_request(rng, kind, a, b))
    for k, d in FLOOR_CEILING:
        add(_floor_ceiling_request(k, d), ["floor_ceiling", k, d])
    for n in SMALL_POSETS:
        requests, spec = _down_set_requests(rng, n)
        pool += [Session(repr(spec + [i]), [r]) for i, r in enumerate(requests)]
    requests, spec = _checker_requests(rng)
    for request, item in zip(requests, spec):
        add(request, item)
    for n in FRAMES:
        add(*_modal_request(rng, n))
    for n, context, prefixes in STRUCTURES:
        requests, spec = _tarski_requests(rng, n, context, prefixes)
        pool += [Session(repr(spec + [i]), [r]) for i, r in enumerate(requests)]
    rng.shuffle(pool)
    return pool
