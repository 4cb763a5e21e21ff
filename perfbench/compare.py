"""Run alternating pairs of benchmark runs on two checkouts, and compare them.

    python3 perfbench/compare.py pairs PARENT_DIR CHANGE_DIR --out OUT_DIR
    python3 perfbench/compare.py report OUT_DIR/parent.jsonl OUT_DIR/change.jsonl

`pairs` runs this directory's run.py (the same benchmark code for both sides)
from the root of each checkout on every workload, ten pairs per workload on
seeds 1000-1009, alternating which side runs first, and appends each result to
OUT_DIR/parent.jsonl or change.jsonl.  `report` prints one row per workload
and metric:

- better: the change wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (metrics without a bound: it loses 9 of 10 pairs by more
  than the parent's interquartile range);
- unresolved: fewer than 10 pairs, or the parent's own spread is wider than
  the bound and not every change run beats every parent run;
- unchanged: otherwise.

A change that fails more requests on a workload than the parent does, over
the same seeds, is worse on every metric of that workload: a gain does not
count when more operations fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 1000


def load_spec() -> dict:
    """name -> (better, bound or None) for every metric of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return metrics


def read_runs(path: Path) -> dict:
    """(workload, seed) -> (failed requests, metrics) of one result set."""
    runs = {}
    for line in path.read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            result = row["result"]
            runs[(row["workload"], row["seed"])] = (
                result["failed"],
                {name: m["value"] for name, m in result["metrics"].items()},
            )
    return runs


def judge(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """Verdict for one metric on one workload; parent[i] and change[i] share a seed."""
    n = len(parent)
    if n < MIN_PAIRS:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (c_med - p_med)
    if wins >= WIN_SHARE * n and gap > q3 - q1:
        return "better"
    if bound is None:
        return "worse" if losses >= WIN_SHARE * n and -gap > q3 - q1 else "unchanged"
    if -gap > bound * abs(p_med):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def report(parent_path: Path, change_path: Path) -> list[str]:
    spec = load_spec()
    parent, change = read_runs(parent_path), read_runs(change_path)
    keys = sorted(set(parent) & set(change))
    header = f"{'workload':14} {'metric':30} {'parent median [q1, q3]':34} {'change median':14}"
    lines = [f"{header} {'wins':>6}  verdict"]
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        more_failed = sum(change[(workload, s)][0] for s in seeds) > sum(
            parent[(workload, s)][0] for s in seeds
        )
        names = [
            n for n in spec
            if all(n in parent[(workload, s)][1] and n in change[(workload, s)][1] for s in seeds)
        ]
        for name in names:
            better, bound = spec[name]
            p = [parent[(workload, s)][1][name] for s in seeds]
            c = [change[(workload, s)][1][name] for s in seeds]
            verdict = "worse (more failed requests)" if more_failed else judge(p, c, better, bound)
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (p[0], 0, p[0])
            lines.append(
                f"{workload:14} {name:30} {statistics.median(p):<10.5g} [{q1:.5g}, {q3:.5g}]".ljust(81)
                + f"{statistics.median(c):<14.5g} {wins:>2}/{len(p):<3}  {verdict}"
            )
    return lines


def run_pairs(parent_dir: Path, change_dir: Path, out: Path, trace: int) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": parent_dir.resolve(), "change": change_dir.resolve()}
    for workload in run.WORKLOADS:
        for i in range(MIN_PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                    cwd=sides[side], capture_output=True, text=True, check=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                with (out / f"{side}.jsonl").open("a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                print(f"{workload} seed {seed} {side}: correct={result['correct']}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report", help="compare two result sets")
    r.add_argument("parent", type=Path)
    r.add_argument("change", type=Path)
    args = parser.parse_args()
    if args.command == "pairs":
        run_pairs(args.parent, args.change, args.out, args.trace)
    else:
        print("\n".join(report(args.parent, args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
