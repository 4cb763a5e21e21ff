"""`fincat` verbs on generated category and functor documents: free-form JSON
(wrong types, missing fields, dangling names) and dumps of small lawful
categories with entries rebound, deleted or pointed at unknown names.
Whatever the input, validate, predicates, products, terminal and
functor-check must end in exit code 0, 1 or 2, never in an uncaught
exception."""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
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
