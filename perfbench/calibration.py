"""A fixed reference chunk that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host.  Other tenants change
how fast the same Python code runs by a quarter or more, over seconds to
minutes, and the slowdown is in the CPU itself (shared caches and execution
units), so neither the wall clock nor the process's CPU clock escapes it.
The runner therefore times this chunk between requests and scales every
request time by how much slower the chunk ran than REFERENCE_S: a time in
the report is the time the request would take on a machine on which the
chunk takes REFERENCE_S.

The chunk uses only the standard library and this module, never fincat, so
no change to fincat can move it.  It mixes the kinds of work fincat does:
argparse and JSON at the command-line boundary, tuple-keyed dict and set
algebra as in the composition tables, orders and subsets, and small object
construction.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import time
from dataclasses import dataclass

# The typical time of one chunk on the 2-core x86-64 host that recorded the
# README's baselines, so that scaled times read close to raw ones there.
REFERENCE_S = 1.0e-3

_rng = random.Random(20260101)
_OBJECTS = [f"o{i}" for i in range(12)]
_DOCUMENT = json.dumps({
    "objects": _OBJECTS,
    "arrows": [
        {"name": f"f{i}", "dom": _OBJECTS[i % 12], "cod": _OBJECTS[i * 5 % 12],
         "table": [[i, j] for j in range(4)]}
        for i in range(20)
    ],
})
_PAIRS = [(_rng.randrange(30), _rng.randrange(30)) for _ in range(40)]


@dataclass(frozen=True)
class _Arrow:
    name: str
    dom: str
    cod: str


def chunk() -> int:
    """One reference chunk; returns a checksum so that nothing is skipped."""
    parser = argparse.ArgumentParser(prog="reference")
    verbs = parser.add_subparsers(dest="verb")
    for verb in ("validate", "predicates", "products"):
        sub = verbs.add_parser(verb)
        sub.add_argument("path")
        sub.add_argument("--json", action="store_true")
    args = parser.parse_args(["predicates", "category.json", "--json"])

    document = json.loads(_DOCUMENT)
    text = json.dumps(document, sort_keys=True)

    arrows = [_Arrow(a["name"], a["dom"], a["cod"]) for a in document["arrows"]]
    composable = {
        (g.name, f.name): f"{g.name}.{f.name}" for f in arrows for g in arrows if f.cod == g.dom
    }

    leq = set(_PAIRS)
    leq |= {(a, d) for (a, b) in leq for (c, d) in _PAIRS if b == c}
    down = frozenset(a for (a, b) in leq if b < 15)
    return len(args.path) + len(text) + len(composable) + len(leq) + len(down)


def timed_chunk() -> float:
    """Seconds one chunk takes, warm and with the collector off, so that
    neither the caches fincat left behind nor the size of fincat's heap
    moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        chunk()
        start = time.perf_counter()
        chunk()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# The slowest share of times left out of a mean: a chunk or a request that
# a timer interrupt or a descheduling hit says little about the program.
TRIM = 0.2


def trimmed_mean(values: list[float]) -> float:
    """The mean of the values without the largest TRIM of them."""
    kept = sorted(values)[: max(1, int(len(values) * (1 - TRIM)))]
    return sum(kept) / len(kept)


def scale(times: list[float]) -> float:
    """The factor that takes times measured beside these chunk times to the
    reference machine: REFERENCE_S over their trimmed mean."""
    return REFERENCE_S / trimmed_mean(times)
