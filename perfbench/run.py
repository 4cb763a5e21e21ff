"""Run one workload of the fincat benchmark and print its metrics.

    python3 perfbench/run.py --workload categories --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src and the
fixtures are read from ./fixtures.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("categories", "orders_logic", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/fincat/__init__.py", "fixtures") if not (root / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a fincat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Set-up time is the import from bytecode that users see after a first
    # run, whatever the environment says about writing it.
    sys.dont_write_bytecode = False

    import harness

    result, lines = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
