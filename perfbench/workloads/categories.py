"""Workload `categories`: sessions that build one category and ask many questions.

The session kinds and sizes are fixed, so every seed does the same amount of
work up to the random content: set, element and poset labels, the random
posets' cover relations, the session order and, on posets, the elements
whose products are asked for.
Builders, `core`, `universal` and `nno` do almost all the work here, and
`validate`'s triple loop sets the tail.
"""

from __future__ import annotations

import random

import oracles
from fincat import builders, core, functors, galois, nno, universal
from harness import Request, Session, random_labels, same

SESSIONS = [
    ("finset", (1, 2)),
    ("finset", (1, 2, 3)),
    ("finset", (2, 3)),
    ("finset", (1, 2, 2, 3)),
    ("finset", (1, 2, 3, 3)),
    ("finrel", (1, 2)),
    ("finrel", (2, 2)),
    ("finrel", (1, 2, 2)),
    ("chain", 15),
    ("chain", 25),
    ("chain", 35),
    ("poset", 20),
    ("poset", 25),
    ("poset", 30),
    ("monoid", 12),
    ("monoid", 18),
    ("monoid", 24),
    ("mat", (3, 1)),
    ("mat", (2, 2)),
    ("mat", (3, 2)),
]
# Positions in the object list (sets in size order, dimensions in order),
# fixed so that every seed asks for products of the same shapes.
PRODUCT_PAIRS = ((0, 1), (1, 1), (1, -1))


# Random posets are built in levels of LEVEL_WIDTH elements; each element
# sits above two random elements of the level below.
LEVEL_WIDTH = 8


def _random_covers(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random lower covers in levels, so that the order's size, and with it
    the cost of every request on the category, hardly depends on the draw:
    its quartiles over seeds lie within 5% of each other, where covers drawn
    a random number at a time spread by half."""
    covers = []
    for j in range(LEVEL_WIDTH, n):
        level = j - j % LEVEL_WIDTH
        for i in rng.sample(range(level - LEVEL_WIDTH, level), 2):
            covers.append((i, j))
    return covers


def _composable_pairs(arrows) -> int:
    into: dict = {}
    out: dict = {}
    for _, dom, cod in arrows:
        into[cod] = into.get(cod, 0) + 1
        out[dom] = out.get(dom, 0) + 1
    return sum(into.get(x, 0) * out.get(x, 0) for x in set(into) | set(out))


def _shape(category) -> tuple:
    return (len(category.objects), len(category.arrows), len(category.composition))


def _expect_shape(hom_sizes: dict) -> tuple:
    """(objects, arrows, composites) of a category with the given hom-set sizes."""
    objects = {a for a, _ in hom_sizes}
    arrows = sum(hom_sizes.values())
    composites = sum(
        hom_sizes[(a, b)] * hom_sizes[(b, c)] for a in objects for b in objects for c in objects
    )
    return (len(objects), arrows, composites)


def _build_request(kind: str, params, rng: random.Random, spec: list) -> Request:
    if kind in ("finset", "finrel"):
        names = random_labels(rng, len(params), "S")
        sets = [
            builders.NamedFiniteSet(name, tuple(random_labels(rng, size, "e")))
            for name, size in zip(names, params)
        ]
        spec.append([(s.name, s.elements) for s in sets])
        if kind == "finset":
            homs = {(x.name, y.name): len(y.elements) ** len(x.elements) for x in sets for y in sets}
        else:
            homs = {(x.name, y.name): 2 ** (len(x.elements) * len(y.elements)) for x in sets for y in sets}
        build = builders.build_finset if kind == "finset" else builders.build_finrel

        def call(state):
            built = build(sets)
            state["built"] = built
            state["category"] = built.category
            return _shape(built.category)

        return Request(f"build_{kind}", call, lambda v, s: same(v, _expect_shape(homs)))

    if kind in ("chain", "poset"):
        elements = random_labels(rng, params, "p")
        if kind == "chain":
            covers = [(i, i + 1) for i in range(params - 1)]
        else:
            covers = _random_covers(rng, params)
        cover_pairs = [(elements[i], elements[j]) for i, j in covers]
        order = list(elements)
        rng.shuffle(order)
        rank = [0] * params
        for i, j in sorted(covers, key=lambda c: c[1]):
            rank[j] = max(rank[j], rank[i] + 1)
        rank_graph = {elements[i]: f"r{rank[i]}" for i in range(params)}
        rank_chain = [f"r{r}" for r in range(max(rank) + 1)]
        spec.append([order, cover_pairs])
        leq = oracles.closure(order, cover_pairs)

        def call(state):
            if kind == "chain":
                poset = galois.FinitePoset.chain(elements)
            else:
                poset = galois.FinitePoset.from_relation(order, cover_pairs)
            state["poset"] = poset
            state["rank"] = (rank_chain, rank_graph)
            state["category"] = builders.poset_as_category(poset)
            return (len(poset.leq),) + _shape(state["category"])

        def check(verdict, state):
            if state["poset"].leq != leq:
                return "order differs from the reflexive-transitive closure"
            arrows = [(f"{a}<={b}", a, b) for a, b in leq]
            return same(verdict, (len(leq), params, len(leq), _composable_pairs(arrows)))

        return Request(f"build_{kind}", call, check)

    if kind == "monoid":
        labels = random_labels(rng, params, "m")
        mult = {
            (labels[a], labels[b]): labels[(a + b) % params]
            for a in range(params)
            for b in range(params)
        }
        order = list(labels)
        rng.shuffle(order)
        spec.append(order)

        def call(state):
            monoid = builders.FiniteMonoid(tuple(order), labels[0], mult)
            state["category"] = builders.monoid_as_category(monoid)
            return _shape(state["category"])

        return Request("build_monoid", call, lambda v, s: same(v, (1, params, params * params)))

    p, d = params
    spec.append([p, d])
    dims = [str(n) for n in range(d + 1)]
    homs = {(a, b): p ** (int(a) * int(b)) for a in dims for b in dims}

    def call(state):
        view = builders.build_mat(p, d)
        state["view"] = view
        state["category"] = core.materialize(view)
        return _shape(state["category"])

    return Request("build_mat", call, lambda v, s: same(v, _expect_shape(homs)))


def _tables(state) -> oracles.Tables:
    if "tables" not in state:
        state["tables"] = oracles.Tables.of(state["category"])
    return state["tables"]


def _predicates(C) -> list:
    return [
        (
            f,
            core.monic_counterexample(C, f),
            core.epic_counterexample(C, f),
            core.find_inverse(C, f),
        )
        for f in C.all_arrows()
    ]


def _check_predicates(rows, state) -> str | None:
    category = state["category"]
    want = oracles.predicate_rows(_tables(state), dict(category.identities))
    problem = same(rows, want)
    if problem is None and "built" in state and hasattr(state["built"], "functions"):
        # FinSet: monic iff injective, epic iff surjective, iso iff bijective.
        for f, monic, epic, inv in rows:
            fn = state["built"].functions[f]
            images = [fn.graph[x] for x in fn.dom.elements]
            injective = len(set(images)) == len(images)
            surjective = set(images) == set(fn.cod.elements)
            if (monic is None, epic is None, inv is not None) != (
                injective,
                surjective,
                injective and surjective,
            ):
                return f"predicates of {f!r} disagree with its graph"
    return problem


def _laws(report) -> tuple:
    return (report.ok, len(report.violations))


def _questions(kind: str, objects: list, spec: list) -> list[Request]:
    lawful = lambda v, s: same(v, (True, 0))  # noqa: E731
    requests = [
        Request("validate", lambda state: _laws(core.validate(state["category"])), lawful),
        Request("predicates", lambda state: _predicates(state["category"]), _check_predicates),
    ]
    if kind == "mat":
        requests.append(
            Request("predicates_lazy", lambda state: _predicates(state["view"]), _check_predicates)
        )
    pairs = [(objects[i % len(objects)], objects[j % len(objects)]) for i, j in PRODUCT_PAIRS]
    spec.append(pairs)
    requests.append(
        Request("universal", lambda state: _universal(state["category"], pairs), _check_universal(pairs))
    )
    requests.append(
        Request(
            "identity_functor",
            lambda state: _laws(functors.check_functoriality(functors.Functor.identity(state["category"]))),
            lawful,
        )
    )
    if kind in ("chain", "poset"):
        requests.append(Request("monotone_functor", _monotone_functor, lawful))
    return requests


def _universal(C, pairs) -> tuple:
    """Terminal objects, the products of the seeded pairs and the NNO search:
    each answer takes microseconds on the small categories, so they are one request."""
    products = [
        [(c.apex, c.pi1, c.pi2, len(c.mediators)) for c in universal.find_products(C, a, b)]
        for a, b in pairs
    ]
    search = nno.nno_search(C)
    return (universal.find_terminals(C), products, search.triples, search.note)


def _check_universal(pairs):
    def check(verdict, state):
        T = _tables(state)
        products = []
        for a, b in pairs:
            cones = sum(len(T.hom[(z, a)]) * len(T.hom[(z, b)]) for z in T.objects)
            products.append([found + (cones,) for found in oracles.products(T, a, b)])
        triples = oracles.nno_triples(T)
        search = ((), "no terminal object") if triples is None else (tuple(triples), None)
        return same(verdict, (oracles.terminals(T), products) + search)

    return check


def _monotone_functor(state):
    chain, graph = state["rank"]
    rank = galois.MonotoneMap(state["poset"], galois.FinitePoset.chain(chain), graph)
    return _laws(functors.check_functoriality(functors.monotone_as_functor(rank)))


def _objects(kind: str, params, build_spec) -> list:
    if kind in ("finset", "finrel"):
        return [name for name, _ in build_spec]
    if kind in ("chain", "poset"):
        return list(build_spec[0])
    if kind == "monoid":
        return ["*"]
    return [str(n) for n in range(params[1] + 1)]


def generate(seed: int, workdir) -> list[Session]:
    rng = random.Random(seed)
    plan = list(SESSIONS)
    rng.shuffle(plan)
    pool = []
    for kind, params in plan:
        spec: list = [kind, params]
        build = _build_request(kind, params, rng, spec)
        questions = _questions(kind, _objects(kind, params, spec[2]), spec)
        pool.append(Session(repr(spec), [build] + questions))
    return pool
