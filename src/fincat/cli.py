"""Command-line front end: load fixture files, dispatch to the engine, and
emit human-readable or machine-readable (--json) reports.

Exit codes: 0 when the requested property holds, 1 when it fails (the
report carries witnesses), 2 on malformed input.  Output is byte-stable for
fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any

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
        doc = {
            "status": self.status,
            "verb": self.verb,
            "payload": self.payload,
            "witnesses": self.witnesses,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _human(report: Report, lines: list[str]) -> list[str]:
    out = list(lines)
    if report.witnesses:
        out.append("witnesses:")
        out.extend(f"  - {w}" for w in report.witnesses)
    out.append(f"status: {report.status}")
    return out


def _load_category_arg(args) -> core.FiniteCategory:
    """Read a category file, or run a builder file and materialize the result."""
    doc = formats.read_json(args.file)
    if isinstance(doc, dict) and "builder" in doc:
        built = formats.parse_builder(
            doc, where=str(args.file), cap=args.cap, budget=args.budget
        )
        if isinstance(built, core.FiniteCategory):
            return built
        inner = getattr(built, "category", None)
        return inner if inner is not None else core.materialize(built, args.budget)
    return formats.parse_category(doc, where=str(args.file))


def _cmd_validate(args) -> tuple[Report, list[str]]:
    category = _load_category_arg(args)
    outcome = core.validate(category)
    payload = {
        "objects": len(category.objects),
        "arrows": len(category.arrows),
        "violations": [
            {"law": v.law, "witnesses": list(v.witnesses), "detail": v.detail}
            for v in outcome.violations
        ],
    }
    witnesses = [f"{v.law}: {v.detail}" for v in outcome.violations]
    report = Report("ok" if outcome.ok else "fail", "validate", payload, witnesses)
    lines = [
        f"category with {payload['objects']} objects and {payload['arrows']} arrows",
        f"law violations: {len(outcome.violations)}",
    ]
    return report, _human(report, lines)


def _cmd_predicates(args) -> tuple[Report, list[str]]:
    category = _load_category_arg(args)
    names = [args.arrow] if args.arrow else list(category.all_arrows())
    rows = []
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
    report = Report("ok", "predicates", {"arrows": rows}, [])
    lines = []
    for row in rows:
        flags = []
        flags.append("monic" if row["monic"] else "not monic")
        flags.append("epic" if row["epic"] else "not epic")
        flags.append(
            f"iso (inverse {row['inverse']})" if row["isomorphism"] else "not iso"
        )
        lines.append(f"{row['arrow']}: " + ", ".join(flags))
    return report, _human(report, lines)


def _cert_payload(category, cert) -> dict:
    return {
        "apex": cert.apex,
        "pi1": cert.pi1,
        "pi2": cert.pi2,
        "mediators": [
            {
                "cone": {"apex": cone.apex, "left": cone.left, "right": cone.right},
                "mediator": cert.mediators[cone],
            }
            for cone in sorted(
                cert.mediators, key=lambda c: (c.apex, c.left, c.right)
            )
        ],
    }


def _cmd_products(args) -> tuple[Report, list[str]]:
    category = _load_category_arg(args)
    a, b = args.pair
    certificates = universal.find_products(category, a, b)
    isos = []
    for other in certificates[1:]:
        iso = universal.product_iso_certificate(category, certificates[0], other)
        isos.append(
            {"from": certificates[0].apex, "to": other.apex, "forward": iso.forward, "backward": iso.backward}
        )
    payload = {
        "pair": [a, b],
        "certificates": [_cert_payload(category, c) for c in certificates],
        "canonical_isos": isos,
    }
    status = "ok" if certificates else "fail"
    witnesses = [] if certificates else [f"no product of {a!r} and {b!r} exists"]
    report = Report(status, "products", payload, witnesses)
    lines = [f"products of ({a}, {b}): {len(certificates)} certificate(s)"]
    for cert in certificates:
        lines.append(f"  apex {cert.apex} with pi1={cert.pi1}, pi2={cert.pi2}")
    for iso in isos:
        lines.append(
            f"  unique iso {iso['from']} -> {iso['to']}: {iso['forward']} "
            f"(inverse {iso['backward']})"
        )
    return report, _human(report, lines)


def _cmd_terminal(args) -> tuple[Report, list[str]]:
    category = _load_category_arg(args)
    terminals = universal.find_terminals(category)
    isos = []
    for i in range(len(terminals)):
        for j in range(i + 1, len(terminals)):
            cert = universal.terminal_iso_certificate(category, terminals[i], terminals[j])
            isos.append(
                {
                    "pair": [terminals[i], terminals[j]],
                    "forward": cert.forward,
                    "backward": cert.backward,
                    "checks": list(cert.commuting_checks),
                }
            )
    payload = {"terminals": terminals, "isos": isos}
    status = "ok" if terminals else "fail"
    witnesses = [] if terminals else ["no terminal object"]
    report = Report(status, "terminal", payload, witnesses)
    lines = [f"terminal objects: {', '.join(terminals) if terminals else '(none)'}"]
    for iso in isos:
        lines.append(
            f"  unique iso {iso['pair'][0]} ≅ {iso['pair'][1]}: {iso['forward']}"
        )
    return report, _human(report, lines)


def _cmd_functor_check(args) -> tuple[Report, list[str]]:
    functor = formats.load_functor(args.file)
    outcome = functors.check_functoriality(functor)
    preserved = functors.check_iso_preservation(functor, args.budget) if outcome.ok else None
    payload = {
        "violations": [
            {"law": v.law, "witnesses": list(v.witnesses), "detail": v.detail}
            for v in outcome.violations
        ],
        "iso_preservation": preserved,
    }
    witnesses = [f"{v.law}: {v.detail}" for v in outcome.violations]
    report = Report("ok" if outcome.ok else "fail", "functor-check", payload, witnesses)
    lines = [
        f"functor law violations: {len(outcome.violations)}",
        f"isomorphism preservation: {preserved}",
    ]
    return report, _human(report, lines)


def _cmd_adjoints(args) -> tuple[Report, list[str]]:
    gmap = formats.load_monotone_map(args.file)
    witnesses: list[str] = []
    left_graph = None
    right_graph = None

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
    status = "ok" if (left is not None and right is not None) else "fail"
    report = Report(status, "adjoints", payload, witnesses)
    lines = [
        "left adjoint: " + ("none" if left_graph is None else json.dumps(left_graph, sort_keys=True)),
        "right adjoint: " + ("none" if right_graph is None else json.dumps(right_graph, sort_keys=True)),
    ]
    return report, _human(report, lines)


def _cmd_wp(args) -> tuple[Report, list[str]]:
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
    witnesses = list(check.witnesses)
    report = Report("ok" if check.ok else "fail", "wp", payload, witnesses)
    lines = [
        f"target {args.target} = {{{','.join(target.sorted_members())}}}",
        f"[R]T = {{{','.join(precondition.sorted_members())}}}",
        f"post-image ⊣ [R] checked on {check.checked} subset pairs: "
        + ("pass" if check.ok else "FAIL"),
    ]
    return report, _human(report, lines)


def _cmd_modal_eval(args) -> tuple[Report, list[str]]:
    frame = formats.load_frame(args.file)
    formula = parse_formula(args.formula)
    value = logic.eval_modal(frame, formula)
    payload = {"formula": args.formula, "worlds": list(value.sorted_members())}
    report = Report("ok", "modal-eval", payload, [])
    lines = [f"⟦{args.formula}⟧ = {{{','.join(value.sorted_members())}}}"]
    return report, _human(report, lines)


def _cmd_fo_eval(args) -> tuple[Report, list[str]]:
    structure = formats.load_structure(args.file)
    formula = parse_formula(args.formula)
    denotation = tarski_denotation(structure, formula, args.context, args.budget)
    shown = ["(" + ",".join(t) + ")" for t in denotation.sorted_tuples()]
    payload = {
        "formula": args.formula,
        "context": args.context,
        "assignments": [list(t) for t in denotation.sorted_tuples()],
    }
    report = Report("ok", "fo-eval", payload, [])
    lines = [f"⟦{args.formula}⟧ in context {args.context} = {{{', '.join(shown)}}}"]
    return report, _human(report, lines)


def _cmd_nno_demo(args) -> tuple[Report, list[str]]:
    data = formats.load_recursion_data(args.file)
    trace = {n: nno.primrec_eval(data, n) for n in range(args.n + 1)}
    mediation = nno.check_mediation(data, trace, args.n)
    payload = {
        "trace": {str(n): trace[n] for n in range(args.n + 1)},
        "equations_hold": mediation.equations_hold,
    }
    report = Report("ok" if mediation.equations_hold else "fail", "nno-demo", payload,
                    [] if mediation.equations_hold else [f"square breaks at {mediation.witness}"])
    lines = [f"h({n}) = {trace[n]}" for n in range(args.n + 1)]
    lines.append(
        "mediation equations on the trace: "
        + ("hold" if mediation.equations_hold else "fail")
    )
    return report, _human(report, lines)


def _cmd_builders(args) -> tuple[Report, list[str]]:
    category = _load_category_arg(args)
    payload = formats.dump_category(category)
    report = Report("ok", "builders", payload, [])
    lines = [
        f"built category: {len(category.objects)} objects, {len(category.arrows)} arrows",
    ]
    if not args.json:
        lines.append(json.dumps(payload, indent=2))
    return report, _human(report, lines)


def _cmd_demo(args) -> tuple[Report, list[str]]:
    lines = demos.run_demo(args.name)
    report = Report("ok", "demo", {"name": args.name, "lines": lines}, [])
    return report, lines


_HANDLERS = {
    "validate": _cmd_validate,
    "predicates": _cmd_predicates,
    "products": _cmd_products,
    "terminal": _cmd_terminal,
    "functor-check": _cmd_functor_check,
    "adjoints": _cmd_adjoints,
    "wp": _cmd_wp,
    "modal-eval": _cmd_modal_eval,
    "fo-eval": _cmd_fo_eval,
    "nno-demo": _cmd_nno_demo,
    "builders": _cmd_builders,
    "demo": _cmd_demo,
}


def _add_common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    """The shared flags, accepted both before and after the subcommand."""
    suppressed = argparse.SUPPRESS
    parser.add_argument(
        "--json",
        action="store_true",
        default=False if top else suppressed,
        help="emit the structured report",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED if top else suppressed,
        help="seed for randomized checks",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=core.DEFAULT_BUDGET if top else suppressed,
        help="enumeration cap (arrows)",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None if top else suppressed,
        help="universe size cap (builder defaults apply when omitted)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fincat",
        description="finite category theory and categorical logic, decided exhaustively",
    )
    _add_common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, top=False)
        return p

    p = verb("validate", "check the category axioms of a file")
    p.add_argument("file")
    p = verb("predicates", "monic/epic/iso for arrows of a category")
    p.add_argument("file")
    p.add_argument("--arrow", help="restrict to one arrow")
    p = verb("products", "all products of a pair, with certificates")
    p.add_argument("file")
    p.add_argument("--pair", nargs=2, required=True, metavar=("A", "B"))
    p = verb("terminal", "terminal objects and their unique isos")
    p.add_argument("file")
    p = verb("functor-check", "functoriality of a functor file")
    p.add_argument("file")
    p = verb("adjoints", "left/right adjoints of a monotone map")
    p.add_argument("file")
    p = verb("wp", "weakest precondition over a frame")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="atom naming the target set")
    p = verb("modal-eval", "evaluate a modal formula on a frame")
    p.add_argument("file")
    p.add_argument("--formula", required=True)
    p = verb("fo-eval", "evaluate a first-order formula on a structure")
    p.add_argument("file")
    p.add_argument("--formula", required=True)
    p.add_argument("--context", type=int, required=True)
    p = verb("nno-demo", "print the iteration trace of recursion data")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p = verb("builders", "run a builder file and dump the category")
    p.add_argument("file")
    p = verb("demo", "run a packaged walkthrough")
    p.add_argument("name")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.verb]
    try:
        report, lines = handler(args)
    except ParseError as exc:
        report = Report("error", args.verb, {"message": str(exc)}, [str(exc)])
        lines = [f"error: {exc}"]
    except FincatError as exc:
        report = Report("error", args.verb, {"message": str(exc)}, [str(exc)])
        lines = [f"error: {exc}"]
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
