"""Workload `cli`: many small requests, each building then asking one question.

In-process `fincat.cli.run` (stdout captured) on all fixtures with every
README verb in human and --json form, the three demos, the same verbs on
small seeded builder, frame, structure, map and recursion files, and direct
`formats` load/dump round trips.  argparse, JSON parsing, name translation,
tiny builds and rendering dominate.  Fixture outputs are checked against
cli_golden.json, which holds the exit code and the SHA-256 of stdout recorded
by record_golden.py; seeded outputs are checked against the oracles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import oracles
from fincat import cli, firstorder, formats, formulas
from harness import Request, Session, random_labels, same

GOLDEN = Path(__file__).resolve().parent.parent / "cli_golden.json"

CATEGORY_FIXTURES = {
    "diamond": ("a", "b"),
    "finset": ("One", "Two"),
    "mat": ("1", "1"),
    "monoid_z2": ("*", "*"),
    "poset_divisibility": ("2", "3"),
    "threechain": ("q0", "q2"),
    "twochain": ("bot", "top"),
    "twochain_broken": ("bot", "top"),
    "twochain_malformed": ("bot", "top"),
}


def _fixture_commands() -> list[list[str]]:
    commands = []
    for name, pair in CATEGORY_FIXTURES.items():
        path = f"fixtures/{name}.json"
        commands += [
            ["validate", path],
            ["predicates", path],
            ["terminal", path],
            ["builders", path],
            ["products", path, "--pair", *pair],
        ]
    commands.append(["predicates", "fixtures/mat.json", "--arrow", "2x2[0,1;1,0]"])
    for name in ("functor_identity", "functor_chain", "functor_broken"):
        commands.append(["functor-check", f"fixtures/{name}.json"])
    for name in ("inclusion", "gmap"):
        commands.append(["adjoints", f"fixtures/{name}.json"])
    commands += [
        ["wp", "fixtures/frame.json", "--target", "p"],
        ["wp", "fixtures/frame.json", "--target", "q"],
        ["modal-eval", "fixtures/frame.json", "--formula", "box (p | q)"],
        ["modal-eval", "fixtures/frame.json", "--formula", "dia p -> q"],
        ["fo-eval", "fixtures/structure.json", "--formula", "exists v2. E(v1,v2)", "--context", "1"],
        ["fo-eval", "fixtures/structure.json", "--formula", "forall v1. exists v2. E(v1,v2)",
         "--context", "0"],
        ["nno-demo", "fixtures/recursion.json", "--n", "5"],
        ["nno-demo", "fixtures/recursion.json", "--n", "9"],
        ["demo", "floor-ceiling"],
        ["demo", "wp"],
        ["demo", "quantifiers"],
    ]
    return commands


FIXTURE_ARGV = [argv + form for argv in _fixture_commands() for form in ([], ["--json"])]

ROUND_TRIPS = (
    ("category", "fixtures/twochain.json"),
    ("category", "fixtures/threechain.json"),
    ("category", "fixtures/twochain_broken.json"),
    ("functor", "fixtures/functor_chain.json"),
    ("monotone_map", "fixtures/inclusion.json"),
    ("monotone_map", "fixtures/gmap.json"),
    ("frame", "fixtures/frame.json"),
    ("structure", "fixtures/structure.json"),
    ("recursion_data", "fixtures/recursion.json"),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process command.  An argparse refusal
    is an exit, as it is for `python -m fincat.cli`, not a crash."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def fingerprint(code: int, text: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _golden_request(argv, golden) -> Request:
    want = golden.get(json.dumps(argv))
    return Request(
        argv[0],
        lambda state: run_cli(argv),
        lambda v, s: "no golden entry" if want is None else same(fingerprint(*v), want),
    )


def _seeded_request(argv, expected_exit, payload_check) -> list[Request]:
    """The human and --json forms of one command on a generated file."""
    status = {0: "ok", 1: "fail", 2: "error"}[expected_exit]

    def check_human(verdict, state):
        code, text = verdict
        if expected_exit == 2:  # refusals print only the error line
            shaped = text.startswith("error: ")
        else:
            shaped = text.endswith(f"status: {status}\n")
        if code != expected_exit or not shaped:
            return f"exit {code} with output {text[-60:]!r}, expected exit {expected_exit}"
        return None

    def check_json(verdict, state):
        code, text = verdict
        if code != expected_exit:
            return f"exit {code}, expected {expected_exit}"
        return payload_check(json.loads(text)["payload"])

    return [
        Request(argv[0], lambda state: run_cli(argv), check_human),
        Request(argv[0], lambda state: run_cli(argv + ["--json"]), check_json),
    ]


def _write(workdir: Path, name: str, doc) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path.relative_to(Path.cwd()))


def _finset_commands(rng, workdir) -> list:
    names = random_labels(rng, 3, "S")
    sets = {name: random_labels(rng, size, "e") for name, size in zip(names, (1, 2, 2))}
    path = _write(workdir, "finset.json", {
        "builder": "finset",
        "sets": [{"name": n, "elements": e} for n, e in sets.items()],
    })
    a, b = names[1], names[0]
    size = len(sets[a]) * len(sets[b])
    homs = {(x, y): len(sets[y]) ** len(sets[x]) for x in sets for y in sets}

    def predicates(payload):
        for row in payload["arrows"]:
            head, body = row["arrow"].split("{")
            dom, cod = head.split("->")
            images = [pair.split(":")[1] for pair in body.rstrip("}").split(",")]
            flags = (len(set(images)) == len(images), set(images) == set(sets[cod]))
            if (row["monic"], row["epic"], row["isomorphism"]) != flags + (all(flags),):
                return f"predicates of {row['arrow']!r} disagree with its graph"
        return same(len(payload["arrows"]), sum(homs.values()))

    certificates = sum(math.factorial(size) for x in sets if len(sets[x]) == size)
    return [
        (["validate", path], 0, lambda p: same(p["violations"], [])),
        (["terminal", path], 0, lambda p: same(p["terminals"], [names[0]])),
        (["predicates", path], 0, predicates),
        (["products", path, "--pair", a, b], 0, lambda p: same(len(p["certificates"]), certificates)),
        (["builders", path], 0, lambda p: same(len(p["arrows"]), sum(homs.values()))),
    ]


def _poset_commands(rng, workdir) -> list:
    elements = random_labels(rng, 7, "p")
    covers = [
        [elements[i], elements[j]] for j in range(1, 7) for i in range(j) if rng.random() < 0.35
    ]
    path = _write(workdir, "poset.json", {"builder": "poset", "elements": elements, "leq": covers})
    leq = oracles.closure(elements, [tuple(c) for c in covers])
    top = [t for t in elements if all((x, t) in leq for x in elements)]
    a, b = rng.sample(elements, 2)
    glb = oracles.greatest(leq, [z for z in elements if (z, a) in leq and (z, b) in leq])
    return [
        (["validate", path], 0, lambda p: same(p["violations"], [])),
        (["terminal", path], 0 if top else 1, lambda p: same(p["terminals"], top)),
        (["products", path, "--pair", a, b], 0 if glb else 1,
         lambda p: same([c["apex"] for c in p["certificates"]], [glb] if glb else [])),
        (["builders", path], 0, lambda p: same(len(p["arrows"]), len(leq))),
    ]


def _monoid_commands(rng, workdir) -> list:
    n = 5
    labels = random_labels(rng, n, "m")
    path = _write(workdir, "monoid.json", {
        "builder": "monoid",
        "elements": labels,
        "unit": labels[0],
        "mult": [[labels[(a + b) % n] for b in range(n)] for a in range(n)],
    })
    return [
        (["validate", path], 0, lambda p: same(p["violations"], [])),
        (["terminal", path], 1, lambda p: same(p["terminals"], [])),
        (["predicates", path], 0, lambda p: same({r["isomorphism"] for r in p["arrows"]}, {True})),
    ]


def _frame_commands(rng, workdir) -> list:
    commands = []
    for size in (4, 5):
        worlds = random_labels(rng, size, "w")
        access = [[u, v] for u in worlds for v in worlds if rng.random() < 0.35]
        valuation = {atom: [w for w in worlds if rng.random() < 0.5] for atom in "pq"}
        frame = {"worlds": worlds, "access": access, "valuation": valuation}
        path = _write(workdir, f"frame{size}.json", frame)
        pairs = [tuple(x) for x in access]
        formula = _modal(rng, 3)
        text = oracles.render(formula)

        def in_order(members, worlds=worlds):
            return [w for w in worlds if w in members]

        value = in_order(oracles.eval_modal(worlds, pairs, valuation, formula))
        box_p = in_order(oracles.eval_modal(worlds, pairs, valuation, ("box", ("atom", "p"))))
        commands.append((["modal-eval", path, "--formula", text], 0,
                         lambda p, value=value: same(p["worlds"], value)))
        if size <= 4:
            commands.append((["wp", path, "--target", "p"], 0,
                             lambda p, box_p=box_p: same(p["weakest_precondition"], box_p)))
        else:  # the subset-pair check refuses universes above its cap of 4
            commands.append((["wp", path, "--target", "p"], 2, lambda p: None))
    return commands


def _modal(rng, depth):
    if depth == 0:
        return ("atom", rng.choice("pq"))
    op = rng.choice(("not", "and", "or", "implies", "box", "dia"))
    if op in ("not", "box", "dia"):
        return (op, _modal(rng, depth - 1))
    return (op, _modal(rng, depth - 1), _modal(rng, depth - 1))


def _structure_commands(rng, workdir) -> list:
    carrier = random_labels(rng, 5, "a")
    edges = [[x, y] for x in carrier for y in carrier if rng.random() < 0.3]
    path = _write(workdir, "structure.json", {
        "carrier": carrier,
        "relations": {"E": {"arity": 2, "tuples": edges}},
    })
    commands = []
    for text, context in (
        ("exists v2. E(v1,v2) & !E(v2,v1)", 1),
        ("forall v1. exists v2. E(v1,v2) | E(v2,v1)", 0),
        ("forall v3. E(v1,v3) -> E(v3,v2)", 2),
    ):
        def check(payload, text=text, context=context):
            m = formats.load_structure(path)
            formula = formulas.parse_formula(text)
            want = [
                list(t)
                for t in sorted(firstorder.all_assignments(m.carrier, context))
                if firstorder.satisfies(m, formula, t)
            ]
            return same(payload["assignments"], want)

        commands.append((["fo-eval", path, "--formula", text, "--context", str(context)], 0, check))
    return commands


def _map_commands(rng, workdir) -> list:
    dom, cod = random_labels(rng, 4, "x"), random_labels(rng, 9, "y")
    picks = [0] + sorted(rng.sample(range(1, 8), 2)) + [8]
    graph = {x: cod[i] for x, i in zip(dom, picks)}
    chain = lambda elems: [[elems[i], elems[i + 1]] for i in range(len(elems) - 1)]
    path = _write(workdir, "map.json", {
        "dom": {"elements": dom, "leq": chain(dom)},
        "cod": {"elements": cod, "leq": chain(cod)},
        "graph": graph,
    })
    dom_leq = oracles.closure(dom, [tuple(p) for p in chain(dom)])
    cod_leq = oracles.closure(cod, [tuple(p) for p in chain(cod)])
    want = {
        "left_adjoint": oracles.left_adjoint(dom, dom_leq, cod, cod_leq, graph),
        "right_adjoint": oracles.right_adjoint(dom, dom_leq, cod, cod_leq, graph),
    }
    return [(["adjoints", path], 0, lambda p: same(p, want))]


def _recursion_commands(rng, workdir) -> list:
    carrier = random_labels(rng, 6, "c")
    step = {x: rng.choice(carrier) for x in carrier}
    path = _write(workdir, "recursion.json", {"carrier": carrier, "c": carrier[0], "f": step})
    trace = {}
    value = carrier[0]
    for i in range(8):
        trace[str(i)] = value
        value = step[value]
    return [(["nno-demo", path, "--n", "7"], 0, lambda p: same(p["trace"], trace))]


def _round_trip(kind: str, path: str) -> Request:
    load = getattr(formats, f"load_{kind}")
    dump = getattr(formats, f"dump_{kind}")
    parse = getattr(formats, f"parse_{kind}")

    def call(state):
        value = load(path)
        if kind == "category":  # the traced run's kernel probe uses it
            state["category"] = value
        doc = dump(value)
        again = parse(json.loads(json.dumps(doc)))
        return (again == value, dump(again) == doc, json.dumps(doc, sort_keys=True))

    return Request(f"round_trip_{kind}", call, lambda v, s: same(v[:2], (True, True)))


def generate(seed: int, workdir: Path) -> list[Session]:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    golden = json.loads(GOLDEN.read_text())
    pool = [Session(json.dumps(argv), [_golden_request(argv, golden)]) for argv in FIXTURE_ARGV]
    seeded = []
    for make in (
        _finset_commands,
        _poset_commands,
        _monoid_commands,
        _frame_commands,
        _structure_commands,
        _map_commands,
        _recursion_commands,
    ):
        seeded += make(rng, workdir)
    here = str(workdir.relative_to(Path.cwd()))
    for argv, expected_exit, payload_check in seeded:
        spec = json.dumps([argv, Path(argv[1]).read_text()]).replace(here, "<workdir>")
        pool.append(Session(spec, _seeded_request(argv, expected_exit, payload_check)))
    seeded_trips = ("frame4.json", "structure.json", "map.json", "recursion.json")
    kinds = ("frame", "structure", "monotone_map", "recursion_data")
    trips = list(ROUND_TRIPS) + [(k, f"{here}/{name}") for k, name in zip(kinds, seeded_trips)]
    for kind, path in trips:
        spec = json.dumps([kind, Path(path).read_text()])
        pool.append(Session(spec, [_round_trip(kind, path)]))
    rng.shuffle(pool)
    return pool
