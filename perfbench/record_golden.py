"""Record the exit code and stdout digest of every fixture command of the
`cli` workload into cli_golden.json.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are known to be right; the
benchmark then fails any later output that differs.  The three demo entries
are checked against tests/golden by perfbench/tests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import cli

    golden = {json.dumps(argv): cli.fingerprint(*cli.run_cli(argv)) for argv in cli.FIXTURE_ARGV}
    cli.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} commands in {cli.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
