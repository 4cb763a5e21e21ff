"""On-demand size sweep for asymptotic claims; not part of the gated benchmark.

    python3 perfbench/sweep.py            # from the root of a checkout

Each point runs once with tracing on and prints its wall time (tracing
included) and every non-zero per-layer time and count.  FinSet {1..4}
dominates: its `validate` takes tens of seconds at the seed commit.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from fincat import builders, core, firstorder, formulas, galois  # noqa: E402
from workloads.orders_logic import fo_formula  # noqa: E402
import oracles  # noqa: E402


def finset(k):
    sets = [builders.NamedFiniteSet(f"S{n}", tuple(str(i) for i in range(1, n + 1))) for n in range(1, k + 1)]
    return core.validate(builders.build_finset(sets).category).ok


def chain(n):
    return len(builders.poset_as_category(galois.FinitePoset.chain([f"e{i}" for i in range(n)])).arrows) > 0


def floor_ceiling(k):
    return galois.floor_ceiling_demo(k, 4).ok


def tarski(depth):
    rng = random.Random(depth)
    carrier = [f"a{i}" for i in range(12)]
    m = firstorder.FOStructure(
        builders.NamedFiniteSet("A", tuple(carrier)),
        {
            "E": firstorder.FORelation(
                2, frozenset((x, y) for x in carrier for y in carrier if rng.random() < 0.3)
            ),
            "U": firstorder.FORelation(1, frozenset((x,) for x in carrier if rng.random() < 0.5)),
        },
    )
    formula = formulas.parse_formula(oracles.render(fo_formula(1, "EAE"[:depth])))
    return firstorder.tarski_denotation(m, formula, 1) is not None


POINTS = (
    [("finset {1..k}", "k", finset, k) for k in (1, 2, 3, 4)]
    + [("chain + poset_as_category", "n", chain, n) for n in (10, 40, 80)]
    + [("floor_ceiling_demo(k, 4)", "k", floor_ceiling, k) for k in (2, 4, 6, 8, 10)]
    + [("tarski_denotation, context 1", "depth", tarski, d) for d in (1, 2, 3)]
)


def main() -> int:
    tracer = tracing.Tracer(ROOT)
    for label, var, fn, size in POINTS:
        tracer.start_pass()
        tracer.begin_request(f"{label} {size}")
        start = time.perf_counter()
        ok = fn(size)
        wall = time.perf_counter() - start
        tracer.end_request()
        tracer.end_pass()
        layers = " ".join(
            f"{name}={value:.4g}" for name, value in tracer.pass_metrics[-1].items() if value
        )
        print(f"{label} {var}={size}: ok={ok} wall_s={wall:.4g} {layers}", flush=True)
        tracer.spans.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
