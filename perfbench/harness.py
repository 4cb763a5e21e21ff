"""Closed-loop runner shared by the workloads.

A workload's ``generate(seed, workdir)`` returns a pool of sessions.  A
session is a list of requests that run in order and share a state dict (a
build request stores the category its questions use).  One pass runs every
session of the pool once; a run repeats passes, one client and one request
at a time, until its time is up.  Only the ``call`` of a request is timed.
Its ``check`` runs afterwards against the oracles: in full the first time a
request is seen, and on later passes by comparing the verdict's digest with
the digest that passed.  Between requests an untraced pass times reference
chunks (see calibration.py), and each request time is scaled by the chunks
timed nearest to it.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import resource
import shutil
import statistics
import string
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import calibration

MIN_REQUESTS = 100
MIN_PASSES = 3
SETUP_REPEATS = 9
# One reference chunk (timed after a warm-up chunk) per this much request
# time, so they take about a tenth of a pass.  A request is scaled by the
# NEAR_CHUNKS chunks timed nearest to it, and every pass times that many.
CHUNK_EVERY_S = 20 * calibration.REFERENCE_S
NEAR_CHUNKS = 9
# Reference chunks timed on each side of a timed set-up.
SETUP_CHUNKS = 5
HERE = Path(__file__).resolve().parent


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(value) -> str:
    """repr with the members of sets sorted, so that a digest does not depend
    on the process's string hash seed; lists, tuples and dicts keep their order."""
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(canonical(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(canonical(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{canonical(k)}: {canonical(v)}" for k, v in value.items()) + "}"
    return repr(value)


def same(got, want) -> str | None:
    """None when a verdict equals the oracle's answer, else the mismatch."""
    return None if got == want else f"got {got!r}, expected {want!r}"


def random_labels(rng, count: int, prefix: str) -> list[str]:
    """`count` distinct random labels in random order."""
    chosen: set[str] = set()
    while len(chosen) < count:
        chosen.add(prefix + "".join(rng.choices(string.ascii_lowercase, k=3)))
    result = sorted(chosen)
    rng.shuffle(result)
    return result


@dataclass
class Request:
    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]


@dataclass
class Session:
    spec: str
    requests: list[Request]


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    failures: int = 0
    digests: list[str] = field(default_factory=list)
    # (index of the request it followed, seconds) of each reference chunk
    reference: list[tuple[int, float]] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def scaled(self) -> list[float]:
        """The latencies at the reference machine's speed, each scaled by
        the chunks timed nearest to it: the machine's speed changes within
        a pass, not only between passes."""
        return [t * f for t, f in zip(self.latencies, near_scales(len(self.latencies), self.reference))]


class Checker:
    """Oracle bookkeeping for one run: digests that passed, problems seen."""

    def __init__(self):
        self.passed: dict[tuple[int, int], str] = {}
        self.problems: list[str] = []

    def verdict_ok(self, key, request: Request, verdict, state) -> tuple[bool, str]:
        try:
            digest = short_hash(canonical(verdict))
            if self.passed.get(key) == digest:
                return True, digest
            if key in self.passed:
                problem = "verdict differs from the one checked on an earlier pass"
            else:
                problem = request.check(verdict, state)
        except Exception as exc:  # a malformed verdict is a failed request
            digest, problem = "unreadable", f"check raised {exc!r}"
        if problem is None:
            self.passed[key] = digest
            return True, digest
        self.problems.append(f"session {key[0]} request {key[1]} ({request.name}): {problem}")
        return False, digest


def run_pass(pool: list[Session], checker: Checker, tracer=None, calibrate=False) -> PassResult:
    """Run every session of the pool once.  With `calibrate`, time reference
    chunks between requests, spread over the pass in proportion to request time."""
    result = PassResult()
    since_chunk = 0.0
    for si, session in enumerate(pool):
        state: dict = {}
        for ri, request in enumerate(session.requests):
            if tracer is not None:
                tracer.begin_request(f"{si}.{ri}")
            start = time.perf_counter()
            try:
                verdict, error = request.call(state), None
            except Exception as exc:  # any raise is a failed request, not a crash
                verdict, error = None, exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_request()
            result.latencies.append(elapsed)
            since_chunk += elapsed
            if calibrate and since_chunk >= CHUNK_EVERY_S:
                result.reference.append((len(result.latencies) - 1, calibration.timed_chunk()))
                since_chunk = 0.0
            if error is not None:
                result.failures += 1
                result.digests.append(f"error {type(error).__name__}")
                checker.problems.append(
                    f"session {si} request {ri} ({request.name}) raised {error!r}"
                )
                continue
            ok, digest = checker.verdict_ok((si, ri), request, verdict, state)
            result.failures += not ok
            result.digests.append(f"{si}.{ri} {request.name} {digest}")
        if tracer is not None:
            tracer.after_session(state)
    while calibrate and len(result.reference) < NEAR_CHUNKS:
        result.reference.append((len(result.latencies) - 1, calibration.timed_chunk()))
    return result


def near_scales(count: int, reference: list[tuple[int, float]]) -> list[float]:
    """For each of `count` requests, the scale factor of the NEAR_CHUNKS
    chunks that followed the requests closest to it (earlier chunks first
    on ties)."""
    return [
        calibration.scale([t for _, t in sorted(reference, key=lambda c: abs(c[0] - i))[:NEAR_CHUNKS]])
        for i in range(count)
    ]


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, q in (0, 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def set_up(workload: str, seed: int, workdir: Path) -> list[Session]:
    """Import the workload and generate the seed's inputs into `workdir`."""
    shutil.rmtree(workdir, ignore_errors=True)
    return importlib.import_module(f"workloads.{workload}").generate(seed, workdir)


# A set-up in a fresh interpreter, so that every import it makes is cold:
# fincat's, those of the modules fincat imports and the workload's.  Only
# interpreter start-up comes before the clock starts.
TIMED_SET_UP = """
import sys, time
start = time.perf_counter()
import importlib, pathlib
sys.dont_write_bytecode = False
workload, seed, workdir, paths = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
sys.path[:0] = paths
importlib.import_module("workloads." + workload).generate(seed, pathlib.Path(workdir))
print(time.perf_counter() - start)
"""


def time_set_up(workload: str, seed: int, workdir: Path, root: Path) -> float:
    """The seconds one set-up takes in a fresh process, at the reference
    machine's speed as the chunks timed around it show; its files are removed."""
    shutil.rmtree(workdir, ignore_errors=True)
    reference = [calibration.timed_chunk() for _ in range(SETUP_CHUNKS)]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_SET_UP, workload, str(seed), str(workdir),
             str(root / "src"), str(HERE)],
            cwd=root, capture_output=True, text=True, check=True, timeout=60,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference += [calibration.timed_chunk() for _ in range(SETUP_CHUNKS)]
    return float(proc.stdout.split()[-1]) * calibration.scale(reference)


def pool_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    workdir = root / ".perfbench_work" / f"{workload}-{seed}"
    probe_dir = root / ".perfbench_work" / f"{workload}-{seed}-setup"
    try:
        pool = set_up(workload, seed, workdir)
        setup_times: list[float] = []
        gc.collect()
        checker = Checker()
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer(root)
        passes: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            tracing_this = tracer is not None and len(passes) > len(traced)
            if tracing_this:
                tracer.start_pass()
            result = run_pass(
                pool, checker, tracer if tracing_this else None, calibrate=tracer is None
            )
            if tracing_this:
                tracer.end_pass()
                traced.append(result)
            else:
                passes.append(result)
                # Set-ups are spread over the run so that their median sees
                # the same machine as the requests do.
                elapsed = time.perf_counter() - start
                if tracer is None and len(setup_times) < SETUP_REPEATS * elapsed / seconds:
                    setup_times.append(time_set_up(workload, seed, probe_dir, root))
            done = sum(len(p.latencies) for p in passes + traced)
            if (
                time.perf_counter() >= deadline
                and done >= MIN_REQUESTS
                and len(passes) >= MIN_PASSES
                and (tracer is None or len(traced) >= MIN_PASSES)
            ):
                break
        while tracer is None and len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_set_up(workload, seed, probe_dir, root))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((root / ".perfbench_work").glob("*")):
            shutil.rmtree(root / ".perfbench_work", ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes + traced)
    failed = sum(p.failures for p in passes + traced)
    per_pass = len(passes[0].latencies)
    lines = [
        f"workload {workload} seed {seed}: {len(passes)} passes of {per_pass} requests"
        + (f", {len(traced)} traced passes" if traced else ""),
        f"output digest {pool_digest(passes[0].digests)}",
    ]
    lines += [f"problem: {p}" for p in checker.problems[:20]]
    if tracer is None:
        # Each latency is scaled by the reference chunks timed near it,
        # which takes out the shared host's speed drift.  A request's
        # latency is then the trimmed mean of its scaled times over the
        # passes: a mean follows the share of time the host was busy, where
        # a median jumps between its busy and idle speeds.
        scaled = [p.scaled for p in passes]
        latencies = [calibration.trimmed_mean([s[i] for s in scaled]) for i in range(per_pass)]
        raw = [t for p in passes for t in p.latencies]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
            "request_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
            "request_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
        lines.append(
            f"latency samples: {len(latencies)} requests, each the trimmed mean of {len(passes)} passes"
        )
        chunks = [t for p in passes for _, t in p.reference]
        lines.append(
            f"unscaled: {len(raw) / sum(raw):.6g} requests/s, p50 {percentile(raw, 0.5) * 1e3:.6g} ms,"
            f" p90 {percentile(raw, 0.9) * 1e3:.6g} ms; {len(chunks)} reference chunks,"
            f" median {statistics.median(chunks) * 1e3:.4g} ms"
        )
    else:
        metrics = tracer.layer_metrics(passes, traced)
        path = tracer.write_spans(workload, seed)
        lines.append(f"spans written to {path}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return result, lines
