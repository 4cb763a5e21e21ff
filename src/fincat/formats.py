"""Documented JSON file formats: loaders with field-level diagnostics and
dumpers that round-trip to equal in-memory values.

Every loader rejects unknown fields.  Where a format embeds another document
(functor sources, monotone-map posets) a string is read as a path relative
to the embedding file and an object is read inline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .builders import (
    FiniteMonoid,
    FiniteRelation,
    NamedFiniteSet,
    build_finrel,
    build_finset,
    build_mat,
    monoid_as_category,
    poset_as_category,
)
from .core import Arrow, FiniteCategory
from .errors import FincatError, InvalidPoset, ParseError
from .firstorder import FORelation, FOStructure
from .functors import Functor
from .galois import FinitePoset, MonotoneMap
from .logic import KripkeFrame, SubsetOf
from .nno import RecursionData


def _require_keys(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object, got {type(doc).__name__}", source=where)
    missing = required - doc.keys()
    if missing:
        raise ParseError(f"missing fields {sorted(missing)!r}", source=where)
    unknown = doc.keys() - required - optional
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)!r}", source=where)


def _string_list(value: Any, where: str, field: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError("expected a list of strings", source=where, field=field)
    return tuple(value)


def _pair_list(value: Any, where: str, field: str) -> list[tuple[str, str]]:
    if not isinstance(value, list):
        raise ParseError("expected a list of pairs", source=where, field=field)
    pairs = []
    for entry in value:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise ParseError(
                f"expected a two-element string pair, got {entry!r}",
                source=where,
                field=field,
            )
        pairs.append((entry[0], entry[1]))
    return pairs


def _string_map(value: Any, where: str, field: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise ParseError("expected an object of strings", source=where, field=field)
    return dict(value)


def read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a null byte in the path, or not UTF-8
        raise ParseError(f"cannot read file: {exc}", source=str(path)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            source=str(path),
        ) from exc


# -- categories ---------------------------------------------------------


def parse_category(doc: Any, where: str = "category") -> FiniteCategory:
    _require_keys(doc, {"objects", "arrows", "identities", "compose"}, set(), where)
    objects = _string_list(doc["objects"], where, "objects")
    if not isinstance(doc["arrows"], list):
        raise ParseError("expected a list", source=where, field="arrows")
    arrows = []
    for entry in doc["arrows"]:
        _require_keys(entry, {"name", "dom", "cod"}, set(), f"{where}.arrows")
        if not all(isinstance(entry[k], str) for k in ("name", "dom", "cod")):
            raise ParseError("arrow fields must be strings", source=where, field="arrows")
        arrows.append(Arrow(entry["name"], entry["dom"], entry["cod"]))
    identities = _string_map(doc["identities"], where, "identities")
    if not isinstance(doc["compose"], list):
        raise ParseError("expected a list", source=where, field="compose")
    composition = {}
    for entry in doc["compose"]:
        _require_keys(entry, {"after", "then", "is"}, set(), f"{where}.compose")
        if not all(isinstance(entry[k], str) for k in ("after", "then", "is")):
            raise ParseError("compose fields must be strings", source=where, field="compose")
        key = (entry["after"], entry["then"])
        if key in composition:
            raise ParseError(
                f"duplicate compose entry for {key!r}", source=where, field="compose"
            )
        composition[key] = entry["is"]
    try:
        return FiniteCategory(objects, tuple(arrows), identities, composition)
    except FincatError as exc:
        raise ParseError(str(exc), source=where) from exc


def dump_category(C: FiniteCategory) -> dict:
    return {
        "objects": list(C.objects),
        "arrows": [{"name": a.name, "dom": a.dom, "cod": a.cod} for a in C.arrows],
        "identities": {a: C.identities[a] for a in C.objects},
        "compose": [
            {"after": g, "then": f, "is": h}
            for (g, f), h in sorted(C.composition.items())
        ],
    }


def load_category(
    path: str | Path, cap: int | None = None, budget: int | None = None
) -> FiniteCategory:
    """Read a category file, or run a builder file's builder with cap and budget."""
    doc = read_json(path)
    if isinstance(doc, dict) and "builder" in doc:
        return parse_builder(doc, where=str(path), cap=cap, budget=budget)
    return parse_category(doc, where=str(path))


# -- builder inputs ------------------------------------------------------


def _parse_named_sets(value: Any, where: str) -> list[NamedFiniteSet]:
    if not isinstance(value, list):
        raise ParseError("expected a list of sets", source=where, field="sets")
    sets = []
    for entry in value:
        _require_keys(entry, {"name", "elements"}, set(), f"{where}.sets")
        if not isinstance(entry["name"], str):
            raise ParseError("set name must be a string", source=where, field="sets")
        try:
            sets.append(
                NamedFiniteSet(
                    entry["name"], _string_list(entry["elements"], where, "sets")
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc), source=where, field="sets") from exc
    return sets


def parse_builder(doc: Any, where: str = "builder", cap: int | None = None, budget: int | None = None):
    """Run the builder named in the document and return its category."""
    if not isinstance(doc, dict) or "builder" not in doc:
        raise ParseError("missing field 'builder'", source=where)
    kind = doc["builder"]
    extra = {}
    if budget is not None:
        extra["budget"] = budget
    if kind in ("finset", "finrel"):
        _require_keys(doc, {"builder", "sets"}, set(), where)
        build = build_finset if kind == "finset" else build_finrel
        kwargs = dict(extra)
        if cap is not None:
            kwargs["cap"] = cap
        try:
            return build(_parse_named_sets(doc["sets"], where), **kwargs)
        except ValueError as exc:
            raise ParseError(str(exc), source=where, field="sets") from exc
    if kind == "poset":
        _require_keys(doc, {"builder", "elements", "leq"}, set(), where)
        poset = parse_poset(
            {"elements": doc["elements"], "leq": doc["leq"]}, where=where
        )
        return poset_as_category(poset)
    if kind == "monoid":
        _require_keys(doc, {"builder", "elements", "unit", "mult"}, set(), where)
        elements = _string_list(doc["elements"], where, "elements")
        if not isinstance(doc["mult"], list) or len(doc["mult"]) != len(elements):
            raise ParseError(
                "mult must be a row-per-element table", source=where, field="mult"
            )
        mult = {}
        for a, row in zip(elements, doc["mult"]):
            row = _string_list(row, where, "mult")
            if len(row) != len(elements):
                raise ParseError(
                    f"mult row for {a!r} has wrong length", source=where, field="mult"
                )
            for b, product in zip(elements, row):
                mult[(a, b)] = product
        if not isinstance(doc["unit"], str):
            raise ParseError("unit must be a string", source=where, field="unit")
        try:
            monoid = FiniteMonoid(elements, doc["unit"], mult)
        except ValueError as exc:
            raise ParseError(str(exc), source=where, field="mult") from exc
        return monoid_as_category(monoid)
    if kind == "mat":
        _require_keys(doc, {"builder", "p", "max_dim"}, set(), where)
        if not isinstance(doc["p"], int) or not isinstance(doc["max_dim"], int):
            raise ParseError("p and max_dim must be integers", source=where)
        try:
            return build_mat(doc["p"], doc["max_dim"], **extra)
        except ValueError as exc:
            raise ParseError(str(exc), source=where) from exc
    raise ParseError(f"unknown builder {kind!r}", source=where, field="builder")


# -- posets and monotone maps -------------------------------------------


def parse_poset(doc: Any, where: str = "poset") -> FinitePoset:
    _require_keys(doc, {"elements", "leq"}, set(), where)
    elements = _string_list(doc["elements"], where, "elements")
    pairs = _pair_list(doc["leq"], where, "leq")
    try:
        return FinitePoset.from_relation(elements, pairs)
    except InvalidPoset as exc:
        raise ParseError(str(exc), source=where, field="leq") from exc


def dump_poset(p: FinitePoset) -> dict:
    order = {x: i for i, x in enumerate(p.elements)}
    return {
        "elements": list(p.elements),
        "leq": [
            [a, b]
            for a, b in sorted(p.leq, key=lambda ab: (order[ab[0]], order[ab[1]]))
        ],
    }


def load_poset(path: str | Path) -> FinitePoset:
    return parse_poset(read_json(path), where=str(path))


def _embedded(value: Any, base: Path | None, parse, where: str, field: str):
    if isinstance(value, str):
        path = Path(value)
        if base is not None and not path.is_absolute():
            path = base / path
        return parse(read_json(path), where=str(path))
    return parse(value, where=f"{where}.{field}")


def parse_monotone_map(doc: Any, where: str = "map", base: Path | None = None) -> MonotoneMap:
    _require_keys(doc, {"dom", "cod", "graph"}, set(), where)
    dom = _embedded(doc["dom"], base, parse_poset, where, "dom")
    cod = _embedded(doc["cod"], base, parse_poset, where, "cod")
    graph = _string_map(doc["graph"], where, "graph")
    try:
        return MonotoneMap(dom, cod, graph)
    except FincatError as exc:
        raise ParseError(str(exc), source=where, field="graph") from exc


def dump_monotone_map(m: MonotoneMap) -> dict:
    return {
        "dom": dump_poset(m.dom),
        "cod": dump_poset(m.cod),
        "graph": {x: m.graph[x] for x in m.dom.elements},
    }


def load_monotone_map(path: str | Path) -> MonotoneMap:
    path = Path(path)
    return parse_monotone_map(read_json(path), where=str(path), base=path.parent)


# -- functors ------------------------------------------------------------


def parse_functor(doc: Any, where: str = "functor", base: Path | None = None) -> Functor:
    _require_keys(doc, {"source", "target", "object_map", "arrow_map"}, set(), where)
    source = _embedded(doc["source"], base, parse_category, where, "source")
    target = _embedded(doc["target"], base, parse_category, where, "target")
    return Functor(
        source,
        target,
        _string_map(doc["object_map"], where, "object_map"),
        _string_map(doc["arrow_map"], where, "arrow_map"),
    )


def dump_functor(F: Functor) -> dict:
    return {
        "source": dump_category(F.source),
        "target": dump_category(F.target),
        "object_map": {a: F.object_map[a] for a in F.source.objects},
        "arrow_map": {f: F.arrow_map[f] for f in F.source.all_arrows()},
    }


def load_functor(path: str | Path) -> Functor:
    path = Path(path)
    return parse_functor(read_json(path), where=str(path), base=path.parent)


# -- Kripke frames -------------------------------------------------------


def parse_frame(doc: Any, where: str = "frame") -> KripkeFrame:
    _require_keys(doc, {"worlds", "access", "valuation"}, set(), where)
    worlds = NamedFiniteSet("worlds", _string_list(doc["worlds"], where, "worlds"))
    pairs = _pair_list(doc["access"], where, "access")
    if not isinstance(doc["valuation"], dict):
        raise ParseError("expected an object", source=where, field="valuation")
    try:
        access = FiniteRelation(worlds, worlds, frozenset(pairs))
        valuation = {
            atom: SubsetOf.of(worlds, _string_list(val, where, f"valuation.{atom}"))
            for atom, val in doc["valuation"].items()
        }
        return KripkeFrame(worlds, access, valuation)
    except (ValueError, FincatError) as exc:
        raise ParseError(str(exc), source=where) from exc


def dump_frame(frame: KripkeFrame) -> dict:
    order = {x: i for i, x in enumerate(frame.worlds.elements)}
    return {
        "worlds": list(frame.worlds.elements),
        "access": [
            [x, y]
            for x, y in sorted(
                frame.access.pairs, key=lambda xy: (order[xy[0]], order[xy[1]])
            )
        ],
        "valuation": {
            atom: list(value.sorted_members())
            for atom, value in sorted(frame.valuation.items())
        },
    }


def load_frame(path: str | Path) -> KripkeFrame:
    return parse_frame(read_json(path), where=str(path))


# -- first-order structures ----------------------------------------------


def parse_structure(doc: Any, where: str = "structure") -> FOStructure:
    _require_keys(doc, {"carrier", "relations"}, set(), where)
    carrier = NamedFiniteSet("carrier", _string_list(doc["carrier"], where, "carrier"))
    if not isinstance(doc["relations"], dict):
        raise ParseError("expected an object", source=where, field="relations")
    relations = {}
    for name, entry in doc["relations"].items():
        _require_keys(entry, {"arity", "tuples"}, set(), f"{where}.relations.{name}")
        if not isinstance(entry["arity"], int):
            raise ParseError("arity must be an integer", source=where, field=name)
        tuples = set()
        for t in entry["tuples"]:
            row = _string_list(t, where, f"relations.{name}.tuples")
            tuples.add(tuple(row))
        try:
            relations[name] = FORelation(entry["arity"], frozenset(tuples))
        except ValueError as exc:
            raise ParseError(str(exc), source=where, field=name) from exc
    try:
        return FOStructure(carrier, relations)
    except ValueError as exc:
        raise ParseError(str(exc), source=where) from exc


def dump_structure(m: FOStructure) -> dict:
    return {
        "carrier": list(m.carrier.elements),
        "relations": {
            name: {
                "arity": rel.arity,
                "tuples": [list(t) for t in sorted(rel.tuples)],
            }
            for name, rel in sorted(m.relations.items())
        },
    }


def load_structure(path: str | Path) -> FOStructure:
    return parse_structure(read_json(path), where=str(path))


# -- recursion data -------------------------------------------------------


def parse_recursion_data(doc: Any, where: str = "recursion") -> RecursionData:
    _require_keys(doc, {"carrier", "c", "f"}, set(), where)
    carrier = NamedFiniteSet("carrier", _string_list(doc["carrier"], where, "carrier"))
    if not isinstance(doc["c"], str):
        raise ParseError("c must be a string", source=where, field="c")
    step = _string_map(doc["f"], where, "f")
    try:
        return RecursionData(carrier, doc["c"], step)
    except ValueError as exc:
        raise ParseError(str(exc), source=where) from exc


def dump_recursion_data(data: RecursionData) -> dict:
    return {
        "carrier": list(data.carrier.elements),
        "c": data.start,
        "f": {x: data.step[x] for x in data.carrier.elements},
    }


def load_recursion_data(path: str | Path) -> RecursionData:
    return parse_recursion_data(read_json(path), where=str(path))
