"""Traced runs: spans and counts around calls into fincat's public functions.

While a traced pass runs, the public functions listed in TRACED are replaced,
in every loaded fincat module that binds them, by wrappers that record a span
(id, name, start, end, parent span, request id) and add closed-form counts
computed from the call's inputs and output.  The originals are put back after
the pass, so untraced passes run the program untouched.  Spans stay in memory
and are written out when the run ends.  A module's busy time is the self time
of its spans: each span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

TRACED = {
    "builders": (
        "build_finset", "build_finrel", "poset_as_category", "poset_from_category",
        "monoid_as_category", "build_mat",
    ),
    "core": (
        "validate", "monic_counterexample", "epic_counterexample", "find_inverse",
        "is_monic", "is_epic", "is_isomorphism", "is_groupoid", "materialize",
    ),
    "universal": (
        "find_terminals", "terminal_iso_certificate", "find_products",
        "verify_equational_product", "product_iso_certificate", "finite_product",
    ),
    "nno": ("nno_search", "primrec_eval", "check_mediation", "dedekind_prefix_check"),
    "functors": (
        "check_functoriality", "compose_functors", "check_iso_preservation",
        "powerset_functor", "monotone_as_functor", "functor_as_monotone", "monoid_hom_as_functor",
    ),
    "galois": (
        "FinitePoset.from_relation", "FinitePoset.chain", "left_adjoint", "right_adjoint",
        "approximation_report", "verify_adjunction", "floor_ceiling_demo", "integer_grid_inclusion",
    ),
    "logic": (
        "check_quantifier_adjunctions", "check_box_adjunction", "check_implication_adjunction",
        "eval_modal", "down_sets", "heyting_implication", "powerset_poset",
    ),
    "firstorder": ("tarski_denotation", "satisfies", "projection_adjoints", "verify_generalization_rule"),
    "formulas": ("parse_formula",),
    "formats": tuple(
        f"{verb}_{kind}"
        for kind in ("category", "poset", "monotone_map", "functor", "frame", "structure", "recursion_data")
        for verb in ("parse", "dump", "load")
    ) + ("read_json", "parse_builder"),
    "cli": ("run", "build_parser"),
}

PREDICATES = {
    f"core.{n}"
    for n in (
        "monic_counterexample", "epic_counterexample", "find_inverse",
        "is_monic", "is_epic", "is_isomorphism", "is_groupoid",
    )
}
CHECKERS = {
    f"logic.{n}"
    for n in ("check_quantifier_adjunctions", "check_box_adjunction", "check_implication_adjunction")
}


def _degrees(C) -> tuple[Counter, Counter]:
    """Arrows into and out of each object."""
    into, out = Counter(), Counter()
    for arrow in C.arrows:
        into[arrow.cod] += 1
        out[arrow.dom] += 1
    return into, out


def _count_built(counts, args, kwargs, result):
    C = getattr(result, "category", result)
    if hasattr(C, "composition"):  # a MatCategory is a lazy view and builds nothing
        counts["builders.arrows_built"] += len(C.arrows)
        counts["builders.composites_built"] += len(C.composition)


def _count_validate(counts, args, kwargs, result):
    C = args[0]
    into, out = _degrees(C)
    counts["core.validate_triples"] += sum(into[a.dom] * out[a.cod] for a in C.arrows)


def _count_products(counts, args, kwargs, result):
    C, a, b = args[:3]
    counts["universal.product_candidates"] += sum(
        len(C.hom(apex, a)) * len(C.hom(apex, b)) for apex in C.objects
    )
    counts["universal.certificates"] += len(result)


def _count_nno(counts, args, kwargs, result):
    C = args[0]
    ends = [t for t in C.objects if all(len(C.hom(a, t)) == 1 for a in C.objects)]
    if ends:
        counts["nno.candidates"] += sum(len(C.hom(ends[0], n)) * len(C.hom(n, n)) for n in C.objects)


def _count_functoriality(counts, args, kwargs, result):
    into, out = _degrees(args[0].source)
    counts["functors.pairs_checked"] += sum(into[x] * out[x] for x in args[0].source.objects)


def _count_poset(counts, args, kwargs, result):
    counts["galois.leq_pairs"] += len(result.leq)


def _count_checker(counts, args, kwargs, result):
    counts["logic.subset_checks"] += result.checked


def _count_tarski(counts, args, kwargs, result):
    context = args[2] if len(args) > 2 else kwargs["context"]
    counts["firstorder.assignment_tuples"] += len(args[0].carrier.elements) ** context


def _count_read(counts, args, kwargs, result):
    counts["formats.bytes_parsed"] += os.path.getsize(args[0])


def _count_cli(counts, args, kwargs, result):
    counts["cli.calls"] += 1


COUNTERS = {
    "builders.build_finset": _count_built,
    "builders.build_finrel": _count_built,
    "builders.poset_as_category": _count_built,
    "builders.monoid_as_category": _count_built,
    "core.validate": _count_validate,
    "universal.find_products": _count_products,
    "nno.nno_search": _count_nno,
    "functors.check_functoriality": _count_functoriality,
    "galois.FinitePoset.from_relation": _count_poset,
    "galois.FinitePoset.chain": _count_poset,
    "logic.check_quantifier_adjunctions": _count_checker,
    "logic.check_box_adjunction": _count_checker,
    "logic.check_implication_adjunction": _count_checker,
    "firstorder.tarski_denotation": _count_tarski,
    "formats.read_json": _count_read,
    "cli.run": _count_cli,
}

COUNT_METRICS = (
    "builders.arrows_built", "builders.composites_built", "core.validate_triples",
    "universal.product_candidates", "universal.certificates", "nno.candidates",
    "functors.pairs_checked", "galois.leq_pairs", "logic.subset_checks",
    "firstorder.assignment_tuples", "formats.bytes_parsed", "cli.calls",
)


class Tracer:
    def __init__(self, root: Path):
        self.root = root
        self.spans: list[tuple] = []
        self.stack: list[tuple] = []
        self.request: str | None = None
        self.counts: Counter = Counter()
        self.probe: Counter = Counter()
        self.pass_metrics: list[dict] = []
        self.restore: list[tuple] = []
        self.pass_start = 0
        self.next_id = 0

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((self.next_id, name, parent, time.perf_counter_ns()))
        self.next_id += 1

    def close(self) -> None:
        sid, name, parent, start = self.stack.pop()
        self.spans.append((sid, name, start, time.perf_counter_ns(), parent, self.request))

    def begin_request(self, request_id: str) -> None:
        self.request = request_id
        self.open("request")

    def end_request(self) -> None:
        self.close()
        self.request = None

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:  # oracle checks run outside requests
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    # -- passes ---------------------------------------------------------

    def start_pass(self) -> None:
        replacements = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"fincat.{layer}")
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, classmethod(self._wrap(f"{layer}.{name}", original.__func__)))
                    self.restore.append((cls, method, original))
                else:
                    original = getattr(module, name)
                    replacements[id(original)] = (original, self._wrap(f"{layer}.{name}", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fincat" and not mod_name.startswith("fincat."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.restore.append((mod, attr, value))
        self.pass_start = len(self.spans)
        self.counts = Counter()
        self.probe = Counter()

    def end_pass(self) -> None:
        for target, attr, original in reversed(self.restore):
            setattr(target, attr, original)
        self.restore = []
        self.pass_metrics.append(self._pass_metrics(self.spans[self.pass_start:]))

    def after_session(self, state: dict) -> None:
        """Kernel probe: the public compose over every composable pair and hom
        over every object pair of the category the session built."""
        C = state.get("category")
        if C is None:
            return
        pairs = list(C.composition)
        start = time.perf_counter_ns()
        for g, f in pairs:
            C.compose(g, f)
        self.probe["compose_ns"] += time.perf_counter_ns() - start
        self.probe["compose_calls"] += len(pairs)
        objects = [(a, b) for a in C.objects for b in C.objects]
        start = time.perf_counter_ns()
        for a, b in objects:
            C.hom(a, b)
        self.probe["hom_ns"] += time.perf_counter_ns() - start
        self.probe["hom_calls"] += len(objects)

    def _pass_metrics(self, spans) -> dict:
        by_id = {s[0]: s for s in spans}
        children = Counter()
        for sid, name, start, end, parent, _ in spans:
            if parent is not None:
                children[parent] += end - start
        busy = Counter()
        for sid, name, start, end, parent, _ in spans:
            busy[name.split(".")[0]] += end - start - children[sid]

        def outermost(group) -> float:
            total = 0
            for sid, name, start, end, parent, _ in spans:
                if name not in group:
                    continue
                up = parent
                while up is not None and by_id[up][1] not in group:
                    up = by_id[up][4]
                if up is None:
                    total += end - start
            return total / 1e9

        def per(numerator_s, count) -> float:
            return numerator_s * 1e9 / count if count else 0.0

        c = self.counts
        s = {layer: busy[layer] / 1e9 for layer in TRACED}
        validate_s = outermost({"core.validate"})
        checks_s = outermost(CHECKERS)
        m = {
            "builders.busy_s": s["builders"],
            "builders.ns_per_composite": per(s["builders"], c["builders.composites_built"]),
            "core.busy_s": s["core"],
            "core.validate_s": validate_s,
            "core.validate_ns_per_triple": per(validate_s, c["core.validate_triples"]),
            "core.predicates_s": outermost(PREDICATES),
            "core.materialize_s": outermost({"core.materialize"}),
            "core.compose_ns": per(self.probe["compose_ns"] / 1e9, self.probe["compose_calls"]),
            "core.hom_ns": per(self.probe["hom_ns"] / 1e9, self.probe["hom_calls"]),
            "universal.busy_s": s["universal"],
            "nno.busy_s": s["nno"],
            "functors.busy_s": s["functors"],
            "galois.busy_s": s["galois"],
            "galois.poset_build_s": outermost(
                {"galois.FinitePoset.from_relation", "galois.FinitePoset.chain"}
            ),
            "galois.adjoint_s": outermost({"galois.left_adjoint", "galois.right_adjoint"}),
            "galois.verify_s": outermost({"galois.verify_adjunction"}),
            "logic.busy_s": s["logic"],
            "logic.ns_per_subset_check": per(checks_s, c["logic.subset_checks"]),
            "logic.heyting_s": outermost({"logic.heyting_implication", "logic.down_sets"}),
            "logic.modal_s": outermost({"logic.eval_modal"}),
            "firstorder.busy_s": s["firstorder"],
            "firstorder.ns_per_tuple": per(s["firstorder"], c["firstorder.assignment_tuples"]),
            "formulas.busy_s": s["formulas"],
            "formats.busy_s": s["formats"],
            "cli.busy_s": s["cli"],
        }
        m.update({name: c[name] for name in COUNT_METRICS})
        return m

    # -- results --------------------------------------------------------

    def layer_metrics(self, untraced, traced) -> dict:
        metrics = {}
        for name in self.pass_metrics[0]:
            values = [p[name] for p in self.pass_metrics]
            if name in COUNT_METRICS:
                metrics[name] = (statistics.median_low(values), "count")
            else:
                unit = "ns" if "ns" in name.split(".")[1].split("_") else "s"
                metrics[name] = (statistics.median(values), unit)
        metrics["cli.cold_start_s"] = (self._cold_start(), "s")
        overhead = statistics.median(p.busy for p in traced) / statistics.median(p.busy for p in untraced)
        metrics["trace.overhead_frac"] = (overhead - 1, "frac")
        return metrics

    def _cold_start(self) -> float:
        """Median wall time of three `python -m fincat.cli` processes."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "fincat.cli", "validate", "fixtures/twochain.json"],
                cwd=self.root, env=env, capture_output=True, check=True, timeout=60,
            )
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def write_spans(self, workload: str, seed: int) -> str:
        out = self.root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{workload}-{seed}.jsonl"
        with path.open("w") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, request]) + "\n")
        return str(path.relative_to(self.root))
