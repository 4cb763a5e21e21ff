"""Command-line front end: load fixture files, dispatch to the engine, and
emit human-readable or machine-readable (--json) reports.

Every verb is one entry of :data:`VERBS`.  Exit codes: 0 when the requested
property holds, 1 when it fails (the report carries witnesses), 2 on
malformed input.  Output is byte-stable for fixed inputs.

``--seed`` is accepted, but no verb reads it.  ``--budget`` bounds finset,
finrel and mat builder files, predicates, functor-check and fo-eval;
validate, products and terminal search without a bound.  ``--cap`` applies
to finset and finrel builder files and to wp.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

from . import core, demos, formats, functors, galois, logic, nno, universal
from .errors import FincatError, ParseError
from .firstorder import tarski_denotation
from .formulas import parse_formula

DEFAULT_SEED = 20240513


@dataclass
class Report:
    """Structured verb outcome; a 'fail' status always carries witnesses."""

    status: str  # "ok" | "fail" | "error"
    verb: str
    payload: Any
    witnesses: list[str]

    def exit_code(self) -> int:
        return {"ok": 0, "fail": 1, "error": 2}[self.status]

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)


def _category(args) -> core.FiniteCategory:
    return formats.load_category(args.file, cap=args.cap, budget=args.budget)


def _require_nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ParseError(f"{flag} must be nonnegative, got {value}")


def _violations(outcome) -> tuple[list[dict], list[str]]:
    """The payload entries and the witness lines of a law check's violations."""
    entries = [
        {"law": v.law, "witnesses": list(v.witnesses), "detail": v.detail}
        for v in outcome.violations
    ]
    return entries, [f"{v.law}: {v.detail}" for v in outcome.violations]


def _validate(args):
    category = _category(args)
    outcome = core.validate(category)
    violations, witnesses = _violations(outcome)
    objects, arrows = len(category.objects), len(category.arrows)
    payload = {"objects": objects, "arrows": arrows, "violations": violations}
    lines = [
        f"category with {objects} objects and {arrows} arrows",
        f"law violations: {len(violations)}",
    ]
    return outcome.ok, payload, witnesses, lines


def _predicates(args):
    category = _category(args)
    names = [args.arrow] if args.arrow else list(category.all_arrows())
    rows, lines = [], []
    for f in names:
        monic_witness = core.monic_counterexample(category, f, args.budget)
        epic_witness = core.epic_counterexample(category, f, args.budget)
        inverse = core.find_inverse(category, f, args.budget)
        rows.append(
            {
                "arrow": f,
                "monic": monic_witness is None,
                "monic_witness": list(monic_witness) if monic_witness else None,
                "epic": epic_witness is None,
                "epic_witness": list(epic_witness) if epic_witness else None,
                "isomorphism": inverse is not None,
                "inverse": inverse,
            }
        )
        flags = [
            "monic" if monic_witness is None else "not monic",
            "epic" if epic_witness is None else "not epic",
            "not iso" if inverse is None else f"iso (inverse {inverse})",
        ]
        lines.append(f"{f}: " + ", ".join(flags))
    return True, {"arrows": rows}, [], lines


def _cert_payload(cert) -> dict:
    cones = sorted(cert.mediators, key=lambda c: (c.apex, c.left, c.right))
    mediators = [
        {"cone": {"apex": c.apex, "left": c.left, "right": c.right}, "mediator": cert.mediators[c]}
        for c in cones
    ]
    return {"apex": cert.apex, "pi1": cert.pi1, "pi2": cert.pi2, "mediators": mediators}


def _products(args):
    category = _category(args)
    a, b = args.pair
    certificates = universal.find_products(category, a, b)
    isos = []
    for other in certificates[1:]:
        iso = universal.product_iso_certificate(category, certificates[0], other)
        isos.append({"from": certificates[0].apex, "to": other.apex,
                     "forward": iso.forward, "backward": iso.backward})
    payload = {"pair": [a, b], "certificates": [_cert_payload(c) for c in certificates],
               "canonical_isos": isos}
    witnesses = [] if certificates else [f"no product of {a!r} and {b!r} exists"]
    lines = [f"products of ({a}, {b}): {len(certificates)} certificate(s)"]
    for cert in certificates:
        lines.append(f"  apex {cert.apex} with pi1={cert.pi1}, pi2={cert.pi2}")
    for iso in isos:
        lines.append(
            f"  unique iso {iso['from']} -> {iso['to']}: {iso['forward']} "
            f"(inverse {iso['backward']})"
        )
    return bool(certificates), payload, witnesses, lines


def _terminal(args):
    category = _category(args)
    terminals = universal.find_terminals(category)
    isos = []
    for s, t in itertools.combinations(terminals, 2):
        cert = universal.terminal_iso_certificate(category, s, t)
        isos.append({"pair": [s, t], "forward": cert.forward, "backward": cert.backward,
                     "checks": list(cert.commuting_checks)})
    witnesses = [] if terminals else ["no terminal object"]
    lines = [f"terminal objects: {', '.join(terminals) if terminals else '(none)'}"]
    for iso in isos:
        lines.append(
            f"  unique iso {iso['pair'][0]} ≅ {iso['pair'][1]}: {iso['forward']}"
        )
    return bool(terminals), {"terminals": terminals, "isos": isos}, witnesses, lines


def _functor_check(args):
    functor = formats.load_functor(args.file)
    outcome = functors.check_functoriality(functor)
    preserved = functors.check_iso_preservation(functor, args.budget) if outcome.ok else None
    violations, witnesses = _violations(outcome)
    payload = {"violations": violations, "iso_preservation": preserved}
    lines = [
        f"functor law violations: {len(violations)}",
        f"isomorphism preservation: {preserved}",
    ]
    return outcome.ok, payload, witnesses, lines


def _adjoints(args):
    gmap = formats.load_monotone_map(args.file)
    witnesses: list[str] = []
    left_graph = right_graph = None
    left = galois.left_adjoint(gmap)
    if left is None:
        for x in gmap.cod.elements:
            status = galois.approximation_report(gmap, x)
            if status.status == "empty":
                witnesses.append(f"{x} has no best approximation (no approximants at all)")
            elif status.status == "no-least":
                witnesses.append(
                    f"{x} has no best approximation (approximants "
                    f"{', '.join(status.approximants)} have no least element)"
                )
    else:
        left_graph = {x: left.graph[x] for x in left.dom.elements}
        galois.verify_adjunction(left, gmap)
    right = galois.right_adjoint(gmap)
    if right is None:
        for z in gmap.cod.elements:
            if galois.greatest_below(gmap, z) is None:
                witnesses.append(f"{z} has no greatest element mapped below it")
    else:
        right_graph = {z: right.graph[z] for z in right.dom.elements}
        galois.verify_adjunction(gmap, right)
    payload = {"left_adjoint": left_graph, "right_adjoint": right_graph}
    lines = [
        f"{side} adjoint: " + ("none" if graph is None else json.dumps(graph, sort_keys=True))
        for side, graph in (("left", left_graph), ("right", right_graph))
    ]
    return left is not None and right is not None, payload, witnesses, lines


def _wp(args):
    frame = formats.load_frame(args.file)
    target = frame.atom_set(args.target)
    precondition = logic.wp(frame.access, target)
    cap = args.cap if args.cap is not None else 4
    check = logic.check_box_adjunction(frame.access, cap=cap)
    payload = {
        "target": list(target.sorted_members()),
        "weakest_precondition": list(precondition.sorted_members()),
        "adjunction": {"ok": check.ok, "checked": check.checked},
    }
    lines = [
        f"target {args.target} = {{{','.join(target.sorted_members())}}}",
        f"[R]T = {{{','.join(precondition.sorted_members())}}}",
        f"post-image ⊣ [R] checked on {check.checked} subset pairs: "
        + ("pass" if check.ok else "FAIL"),
    ]
    return check.ok, payload, list(check.witnesses), lines


def _modal_eval(args):
    frame = formats.load_frame(args.file)
    value = logic.eval_modal(frame, parse_formula(args.formula))
    payload = {"formula": args.formula, "worlds": list(value.sorted_members())}
    return True, payload, [], [f"⟦{args.formula}⟧ = {{{','.join(value.sorted_members())}}}"]


def _fo_eval(args):
    _require_nonnegative("--context", args.context)
    structure = formats.load_structure(args.file)
    formula = parse_formula(args.formula)
    denotation = tarski_denotation(structure, formula, args.context, args.budget)
    tuples = denotation.sorted_tuples()
    shown = ["(" + ",".join(t) + ")" for t in tuples]
    payload = {"formula": args.formula, "context": args.context,
               "assignments": [list(t) for t in tuples]}
    lines = [f"⟦{args.formula}⟧ in context {args.context} = {{{', '.join(shown)}}}"]
    return True, payload, [], lines


def _nno_demo(args):
    _require_nonnegative("--n", args.n)
    data = formats.load_recursion_data(args.file)
    steps = itertools.accumulate(range(args.n), lambda x, _: data.step[x], initial=data.start)
    trace = dict(enumerate(steps))
    mediation = nno.check_mediation(data, trace, args.n)
    holds = mediation.equations_hold
    payload = {"trace": {str(n): trace[n] for n in range(args.n + 1)}, "equations_hold": holds}
    witnesses = [] if holds else [f"square breaks at {mediation.witness}"]
    lines = [f"h({n}) = {trace[n]}" for n in range(args.n + 1)]
    lines.append("mediation equations on the trace: " + ("hold" if holds else "fail"))
    return holds, payload, witnesses, lines


def _builders(args):
    category = _category(args)
    payload = formats.dump_category(category)
    lines = [f"built category: {len(category.objects)} objects, {len(category.arrows)} arrows"]
    if not args.json:
        lines.append(json.dumps(payload, indent=2))
    return True, payload, [], lines


def _demo(args):
    lines = demos.run_demo(args.name)
    return True, {"name": args.name, "lines": lines}, [], lines


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, kept as data."""
    return flags, options


FILE = _arg("file")
FORMULA = _arg("--formula", required=True)


@dataclass(frozen=True)
class Verb:
    """One subcommand.  ``arguments`` follow the shared flags in the parser.
    A ``bare`` verb prints its lines without the witnesses and status."""

    help: str
    handler: Callable[[argparse.Namespace], tuple[bool, Any, list[str], list[str]]]
    arguments: tuple = (FILE,)
    bare: bool = False


VERBS = {
    "validate": Verb("check the category axioms of a file", _validate),
    "predicates": Verb("monic/epic/iso for arrows of a category", _predicates,
                       (FILE, _arg("--arrow", help="restrict to one arrow"))),
    "products": Verb("all products of a pair, with certificates", _products,
                     (FILE, _arg("--pair", nargs=2, required=True, metavar=("A", "B")))),
    "terminal": Verb("terminal objects and their unique isos", _terminal),
    "functor-check": Verb("functoriality of a functor file", _functor_check),
    "adjoints": Verb("left/right adjoints of a monotone map", _adjoints),
    "wp": Verb("weakest precondition over a frame", _wp,
               (FILE, _arg("--target", required=True, help="atom naming the target set"))),
    "modal-eval": Verb("evaluate a modal formula on a frame", _modal_eval, (FILE, FORMULA)),
    "fo-eval": Verb("evaluate a first-order formula on a structure", _fo_eval,
                    (FILE, FORMULA, _arg("--context", type=int, required=True))),
    "nno-demo": Verb("print the iteration trace of recursion data", _nno_demo,
                     (FILE, _arg("--n", type=int, required=True))),
    "builders": Verb("run a builder file and dump the category", _builders),
    "demo": Verb("run a packaged walkthrough", _demo, (_arg("name"),), bare=True),
}


def _add_common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    """The shared flags, accepted both before and after the subcommand."""
    suppressed = argparse.SUPPRESS
    parser.add_argument("--json", action="store_true", default=False if top else suppressed,
                        help="emit the structured report")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED if top else suppressed,
                        help="seed for randomized checks")
    parser.add_argument("--budget", type=int, default=core.DEFAULT_BUDGET if top else suppressed,
                        help="enumeration cap (arrows)")
    parser.add_argument("--cap", type=int, default=None if top else suppressed,
                        help="universe size cap (builder defaults apply when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fincat",
        description="finite category theory and categorical logic, decided exhaustively",
    )
    _add_common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        _add_common_flags(p, top=False)
        for flags, options in verb.arguments:
            p.add_argument(*flags, **options)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    verb = VERBS[args.verb]
    try:
        ok, payload, witnesses, lines = verb.handler(args)
    except FincatError as exc:
        report = Report("error", args.verb, {"message": str(exc)}, [str(exc)])
        lines = [f"error: {exc}"]
    else:
        report = Report("ok" if ok else "fail", args.verb, payload, witnesses)
        if not verb.bare:
            if witnesses:
                lines = [*lines, "witnesses:", *(f"  - {w}" for w in witnesses)]
            lines = [*lines, f"status: {report.status}"]
    if args.json:
        print(report.to_json())
    else:
        for line in lines:
            print(line)
    return report.exit_code()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
