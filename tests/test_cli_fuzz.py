"""`fincat` verbs on generated documents: free-form category and functor
JSON (wrong types, missing fields, dangling names), dumps of small lawful
categories with entries rebound, deleted or pointed at unknown names, and
recursion data, structures, frames, monotone maps and builder files of
wrong shapes (element lists that repeat included), with generated counts,
caps, budgets and formula text.
Whatever the input, every verb that reads a file must end in exit code 0,
1 or 2, never in an uncaught exception."""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fincat.builders import FiniteMonoid, NamedFiniteSet, build_finset, monoid_as_category, poset_as_category
from fincat.cli import run
from fincat.formats import dump_category
from fincat.galois import FinitePoset

OBJECTS = ["X", "Y", "Z"]
ARROWS = ["f", "g", "1X", "1Y", "1Z"]

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

junk = st.one_of(st.none(), st.integers(-1, 2), st.booleans(), st.text(max_size=2), st.just([]), st.just({}))


def mostly(strategy):
    """Usually a value of ``strategy``, sometimes a value of the wrong type."""
    return st.one_of(strategy, strategy, strategy, junk)


def entries(fields):
    """An object with the given fields, sometimes missing some of them."""
    return mostly(st.fixed_dictionaries(fields)) | st.fixed_dictionaries({}, optional=fields)


object_names = st.sampled_from(OBJECTS)
arrow_names = st.sampled_from(ARROWS)

free_categories = st.fixed_dictionaries(
    {
        "objects": mostly(st.lists(mostly(object_names), max_size=3)),
        "arrows": mostly(
            st.lists(entries({"name": mostly(arrow_names), "dom": object_names, "cod": object_names}), max_size=5)
        ),
        "identities": mostly(st.dictionaries(object_names, mostly(arrow_names), max_size=3)),
        "compose": mostly(
            st.lists(entries({"after": arrow_names, "then": arrow_names, "is": mostly(arrow_names)}), max_size=12)
        ),
    }
)

LAWFUL = [
    dump_category(poset_as_category(FinitePoset.chain(["X", "Y", "Z"]))),
    dump_category(poset_as_category(FinitePoset.antichain(["X", "Y"]))),
    dump_category(monoid_as_category(FiniteMonoid.cyclic(3), "X")),
    dump_category(build_finset([NamedFiniteSet("X", ("a",)), NamedFiniteSet("Y", ("a", "b"))]).category),
    dump_category(build_finset([NamedFiniteSet("X", ()), NamedFiniteSet("Y", ("a",))]).category),
]


MUTATIONS = ["rebind"] * 3 + ["identity"] * 2 + ["delete", "dangling", "arrow", "object"]


@st.composite
def mutated_categories(draw, kinds=MUTATIONS):
    """A dumped lawful category with a few entries rebound (which keeps it
    well formed), deleted or dangling."""
    doc = json.loads(json.dumps(draw(st.sampled_from(LAWFUL))))
    names = [a["name"] for a in doc["arrows"]]
    objects = list(doc["objects"])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("rebind", "delete", "dangling") and doc["compose"]:
            i = draw(st.integers(0, len(doc["compose"]) - 1))
            if kind == "delete":
                del doc["compose"][i]
            else:
                doc["compose"][i]["is"] = "ghost" if kind == "dangling" else draw(st.sampled_from(names))
        elif kind == "identity":
            doc["identities"][draw(st.sampled_from(objects))] = draw(st.sampled_from(names))
        elif kind == "arrow":
            arrow = draw(st.sampled_from(doc["arrows"]))
            arrow[draw(st.sampled_from(["dom", "cod"]))] = draw(st.sampled_from(objects + ["ghost"]))
        elif kind == "object" and doc["objects"]:
            del doc["objects"][draw(st.integers(0, len(doc["objects"]) - 1))]
    return doc


# the mutated dumps reach the deciders; most free-form documents stop at parsing
categories = st.one_of(free_categories, mutated_categories(), mutated_categories(), junk)


@st.composite
def functors(draw):
    source = draw(st.one_of(mutated_categories(), free_categories, junk))
    target = draw(st.one_of(st.just(source), mutated_categories(), free_categories))
    doc = {"source": source, "target": target}
    if isinstance(source, dict) and isinstance(target, dict) and draw(st.booleans()):
        # identity maps, rebound here and there
        objects = [x for x in source.get("objects", []) if isinstance(x, str)] if isinstance(source.get("objects"), list) else []
        arrows = source.get("arrows") if isinstance(source.get("arrows"), list) else []
        names = [a["name"] for a in arrows if isinstance(a, dict) and isinstance(a.get("name"), str)]
        doc["object_map"] = {x: x for x in objects}
        doc["arrow_map"] = {f: draw(st.sampled_from([f, f, "ghost"] + names)) for f in names}
    else:
        doc["object_map"] = draw(mostly(st.dictionaries(object_names, object_names, max_size=3)))
        doc["arrow_map"] = draw(mostly(st.dictionaries(arrow_names, arrow_names, max_size=5)))
    if draw(st.integers(0, 3)) == 0:
        kept = draw(st.lists(st.sampled_from(sorted(doc)), unique=True))
        doc = {k: doc[k] for k in kept}
    return doc


WORKDIR = tempfile.TemporaryDirectory()


def exit_code(doc, verb, *extra) -> int:
    path = Path(WORKDIR.name) / "doc.json"
    path.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()):
        return run([verb, str(path), *extra])


@SETTINGS
@given(categories, st.sampled_from(["validate", "predicates", "terminal"]))
def test_category_verbs_end_in_an_exit_code(doc, verb):
    assert exit_code(doc, verb) in (0, 1, 2)


@SETTINGS
@given(mutated_categories(["rebind", "identity"]), st.sampled_from(["validate", "predicates", "terminal"]))
def test_law_breaking_tables_end_in_an_exit_code(doc, verb):
    assert exit_code(doc, verb) in (0, 1, 2)


@SETTINGS
@given(categories, st.sampled_from(OBJECTS + ["ghost"]), st.sampled_from(OBJECTS))
def test_products_end_in_an_exit_code(doc, a, b):
    assert exit_code(doc, "products", "--pair", a, b) in (0, 1, 2)


@SETTINGS
@given(functors())
def test_functor_check_ends_in_an_exit_code(doc):
    assert exit_code(doc, "functor-check") in (0, 1, 2)


# -- the verbs on files other than categories ----------------------------

ELEMENTS = ["a", "b", "c"]


def names(values):
    """Usually one of ``values``, sometimes a name that is not among them."""
    return st.sampled_from(list(values) * 5 + ["z"])


def sublists(values, min_size=0):
    return st.lists(st.sampled_from(values), unique=True, min_size=min_size, max_size=len(values))


def element_lists(values, min_size=0):
    """Usually distinct ``values``, sometimes a list that may repeat some."""
    repeating = st.lists(st.sampled_from(values), min_size=min_size, max_size=len(values) + 1)
    return st.one_of(sublists(values, min_size), sublists(values, min_size), repeating)


@st.composite
def spoiled(draw, documents):
    """A drawn document, sometimes with one field dropped or replaced by junk."""
    doc = draw(documents)
    if isinstance(doc, dict) and doc and draw(st.integers(0, 2)) == 2:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(junk)
    return doc


@st.composite
def recursion_docs(draw):
    carrier = draw(element_lists(ELEMENTS, 1))
    return {
        "carrier": carrier,
        "c": draw(names(carrier)),
        "f": {x: draw(names(carrier)) for x in draw(sublists(carrier))},
    }


@st.composite
def structure_docs(draw):
    carrier = draw(element_lists(ELEMENTS, 1))
    relations = {}
    for name, arity in (("E", 2), ("P", 1)):
        width = draw(st.sampled_from([arity] * 5 + [arity + 1]))
        rows = st.lists(st.lists(names(carrier), min_size=width, max_size=width), max_size=4)
        tuples = draw(mostly(rows))
        relations[name] = {"arity": arity, "tuples": tuples}
    return {"carrier": carrier, "relations": relations}


@st.composite
def frame_docs(draw):
    worlds = draw(element_lists(ELEMENTS))
    pairs = st.lists(names(worlds or ["z"]), min_size=2, max_size=2)
    return {
        "worlds": worlds,
        "access": draw(st.lists(pairs, max_size=4)),
        "valuation": {atom: draw(st.lists(names(worlds or ["z"]), max_size=3)) for atom in draw(sublists(["p", "q"]))},
    }


@st.composite
def poset_docs(draw):
    elements = draw(sublists(ELEMENTS))
    return {"elements": elements, "leq": draw(st.lists(st.lists(names(elements or ["z"]), min_size=2, max_size=2), max_size=3))}


def element_names(poset) -> list:
    """The string elements of a (possibly spoiled) poset document."""
    elements = poset.get("elements") if isinstance(poset, dict) else None
    return [x for x in elements if isinstance(x, str)] if isinstance(elements, list) else []


@st.composite
def map_docs(draw):
    dom, cod = draw(spoiled(poset_docs())), draw(spoiled(poset_docs()))
    graph = {x: draw(names(element_names(cod) or ["z"])) for x in element_names(dom)}
    return {"dom": dom, "cod": cod, "graph": graph}


@st.composite
def builder_docs(draw):
    kind = draw(st.sampled_from(["finset", "finrel", "poset", "monoid", "mat", "ghost"]))
    if kind in ("finset", "finrel"):
        sets = [{"name": name, "elements": draw(sublists(ELEMENTS))} for name in draw(st.lists(names(["X", "Y"]), max_size=3))]
        return {"builder": kind, "sets": sets}
    if kind == "poset":
        return {"builder": kind, **draw(poset_docs())}
    if kind == "monoid":
        elements = draw(sublists(ELEMENTS, 1))
        mult = [[draw(names(elements)) for _ in elements] for _ in draw(st.sampled_from([elements, elements, elements[1:]]))]
        return {"builder": kind, "elements": elements, "unit": draw(names(elements)), "mult": mult}
    if kind == "mat":
        return {"builder": kind, "p": draw(st.integers(-1, 5)), "max_dim": draw(st.integers(-1, 2))}
    return {"builder": kind}


counts = st.integers(-3, 6)


def formula_texts(atoms, prefixes, quantifiers):
    """Formulas over ``atoms`` built with the connectives, the ``prefixes``
    and the ``quantifiers`` (binding v1 to v3), token soup, or any text."""
    well_formed = st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(prefixes), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from(["&", "|", "->"]), inner).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(st.sampled_from(quantifiers), st.integers(1, 3), inner).map(lambda t: f"{t[0]} v{t[1]}. {t[2]}"),
        ),
        max_leaves=4,
    )
    tokens = atoms + ["(", ")", "v0", "v1", ",", ".", "!", "&", "|", "->", "box", "dia", "forall", "exists", "?"]
    return st.one_of(
        well_formed,
        well_formed,
        st.lists(st.sampled_from(tokens), max_size=8).map(" ".join),
        st.text(max_size=6),
    )


first_order_texts = formula_texts(["E(v1,v2)", "E(v2,v1)", "P(v1)", "P(v2)", "P(v3)", "E(v1)", "p"], ["!"], ["forall", "exists"])
modal_texts = formula_texts(["p", "q", "r", "P(v1)"], ["!", "box ", "dia "], ["forall"])


@SETTINGS
@given(spoiled(recursion_docs()), counts)
@example({"carrier": ["0", "1"], "c": "0", "f": {"0": "1", "1": "0"}}, -1)
@example({"carrier": ["0", "1", "0"], "c": "0", "f": {"0": "1", "1": "0"}}, 2)
def test_nno_demo_ends_in_an_exit_code(doc, n):
    assert exit_code(doc, "nno-demo", "--n", str(n)) in (0, 1, 2)


@SETTINGS
@given(spoiled(structure_docs()), first_order_texts, counts)
@example({"carrier": ["a", "b"], "relations": {"E": {"arity": 2, "tuples": [["a", "b"]]}}}, "E(v1,v2)", -1)
@example({"carrier": ["a", "a"], "relations": {"E": {"arity": 2, "tuples": []}}}, "E(v1,v2)", 2)
@example({"carrier": ["a", "b"], "relations": {"E": {"arity": 2, "tuples": 5}}}, "E(v1,v2)", 2)
def test_fo_eval_ends_in_an_exit_code(doc, formula, context):
    assert exit_code(doc, "fo-eval", f"--formula={formula}", "--context", str(context)) in (0, 1, 2)


@SETTINGS
@given(spoiled(frame_docs()), modal_texts)
@example({"worlds": ["1", "1"], "access": [], "valuation": {"p": ["1"]}}, "p")
def test_modal_eval_ends_in_an_exit_code(doc, formula):
    assert exit_code(doc, "modal-eval", f"--formula={formula}") in (0, 1, 2)


@SETTINGS
@given(spoiled(frame_docs()), st.sampled_from(["p", "q", "r", ""]), st.none() | counts)
@example({"worlds": ["1", "1"], "access": [], "valuation": {"p": ["1"]}}, "p", None)
def test_wp_ends_in_an_exit_code(doc, target, cap):
    cap_flag = [] if cap is None else ["--cap", str(cap)]
    assert exit_code(doc, "wp", f"--target={target}", *cap_flag) in (0, 1, 2)


@SETTINGS
@given(spoiled(map_docs()))
@example({"dom": "\x00", "cod": "\x00", "graph": {}})
def test_adjoints_end_in_an_exit_code(doc):
    assert exit_code(doc, "adjoints") in (0, 1, 2)


@SETTINGS
@given(spoiled(builder_docs()), st.none() | counts, st.none() | st.integers(-1, 200))
def test_builders_end_in_an_exit_code(doc, cap, budget):
    flags = [] if cap is None else ["--cap", str(cap)]
    flags += [] if budget is None else ["--budget", str(budget)]
    assert exit_code(doc, "builders", *flags) in (0, 1, 2)


FIXTURES = Path(__file__).parent.parent / "fixtures"
TOO_DEEP = "error: formula nested deeper than 900 levels\n"


def output(verb, fixture, *extra) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run([verb, str(FIXTURES / fixture), *extra])
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("fo-eval", "structure.json", "--formula=E(v1,v2)", "--context", "30"),
            "error: 2^30 assignment tuples exceed the budget of 100000\n",
        ),
        (
            ("fo-eval", "structure.json", "--formula=E(v1,v2)", "--context", "20000"),
            "error: 2^20000 assignment tuples exceed the budget of 100000\n",
        ),
        (("modal-eval", "frame.json", "--formula=" + "!" * 2000 + "p"), TOO_DEEP),
        (("fo-eval", "structure.json", "--formula=" + "(" * 300 + "E(v1,v1)" + ")" * 300, "--context", "1"), TOO_DEEP),
        (("modal-eval", "frame.json", "--formula=" + " -> ".join(["p"] * 2000)), TOO_DEEP),
        (("modal-eval", "frame.json", "--formula=" + " & ".join(["p"] * 2000)), TOO_DEEP),
        (("wp", "frame.json", "--target", "p", "--cap", "-1"), "error: --cap must be nonnegative, got -1\n"),
        (("validate", "twochain.json", "--budget", "-1"), "error: --budget must be nonnegative, got -1\n"),
    ],
    ids=["context-30", "context-20000", "2000-negations", "300-parentheses", "2000-implications", "2000-conjunctions",
         "negative-cap", "negative-budget"],
)
def test_oversized_inputs_are_refused_before_they_are_evaluated(argv, message):
    assert output(*argv) == (2, message)


def test_900_negations_still_evaluate():
    code, out = output("modal-eval", "frame.json", "--formula=" + "!" * 900 + "p")
    assert code == 0
    assert out.split(" = ")[1] == output("modal-eval", "frame.json", "--formula=p")[1].split(" = ")[1]
