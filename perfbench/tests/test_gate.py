"""The correctness gate, determinism, traced counts and the refusal to run
without a program."""

import hashlib
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import harness
import oracles
import tracing
from fincat import builders, core, galois, logic

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("categories", "orders_logic", "cli")


def generate(workload, seed, name="test"):
    workdir = ROOT / ".perfbench_work" / f"{name}-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    return importlib.import_module(f"workloads.{workload}").generate(seed, workdir)


@pytest.fixture(autouse=True)
def clean_workdir():
    yield
    shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)


def small(pool, limit=12):
    """The cheapest sessions, so a pass takes well under a second."""
    return [s for s in pool if "35" not in s.spec and "(3, 2)" not in s.spec][:limit]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_generates_the_same_inputs(workload):
    first = [s.spec for s in generate(workload, 7, "a")]
    again = [s.spec for s in generate(workload, 7, "b")]
    other = [s.spec for s in generate(workload, 8, "c")]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ("categories", "orders_logic"))
def test_verdict_digests_repeat_and_pass_the_oracles(workload):
    pool = small(generate(workload, 3))
    checker = harness.Checker()
    first = harness.run_pass(pool, checker)
    second = harness.run_pass(small(generate(workload, 3, "again")), harness.Checker())
    assert first.failures == 0, checker.problems
    assert first.digests == second.digests


DIGEST_OF_A_PASS = """
import sys
sys.path[:0] = ["src", "perfbench"]
import harness
from workloads import orders_logic
pool = orders_logic.generate(3, None)
print(harness.pool_digest(harness.run_pass(pool[:30], harness.Checker()).digests))
"""


def test_digests_do_not_depend_on_the_hash_seed():
    digests = {
        subprocess.run(
            [sys.executable, "-c", DIGEST_OF_A_PASS],
            cwd=ROOT, env={"PYTHONHASHSEED": str(hash_seed)}, capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(digests) == 1


def test_cli_fixture_outputs_match_the_golden_file():
    pool = [s for s in generate("cli", 3) if s.spec.startswith('["')][:40]
    checker = harness.Checker()
    assert harness.run_pass(pool, checker).failures == 0, checker.problems


def test_corrupted_validate_verdict_counts_as_failed(monkeypatch):
    pool = [s for s in small(generate("categories", 3)) if any(r.name == "validate" for r in s.requests)]
    monkeypatch.setattr(core, "validate", lambda C: core.AxiomReport(False, ()))
    result = harness.run_pass(pool, harness.Checker())
    assert result.failures == len(pool)


def test_reordered_witness_counts_as_failed(monkeypatch):
    pool = [s for s in small(generate("categories", 3)) if "finset" in s.spec]
    checker = harness.Checker()
    assert harness.run_pass(pool, checker).failures == 0
    original = core.monic_counterexample

    def swapped(C, f, budget=core.DEFAULT_BUDGET):
        pair = original(C, f, budget)
        return pair and pair[::-1]

    monkeypatch.setattr(core, "monic_counterexample", swapped)
    assert harness.run_pass(pool, checker).failures == len(pool)


def test_wrong_heyting_implication_counts_as_failed(monkeypatch):
    pool = [s for s in generate("orders_logic", 3) if any(r.name == "heyting" for r in s.requests)]
    monkeypatch.setattr(logic, "heyting_implication", lambda p, x, y: frozenset())
    result = harness.run_pass(pool, harness.Checker())
    assert 0 < result.failures <= len(pool)


def test_a_raising_request_counts_as_failed(monkeypatch):
    pool = [s for s in generate("orders_logic", 3) if "floor_ceiling" in s.spec][:2]
    monkeypatch.setattr(galois, "floor_ceiling_demo", lambda k, d: 1 / 0)
    assert harness.run_pass(pool, harness.Checker()).failures == 2


def test_an_argparse_refusal_counts_as_failed(monkeypatch):
    from fincat import cli

    pool = [s for s in generate("cli", 3) if s.spec.startswith('["validate"')][:4]
    build_parser = cli.build_parser

    def strict_parser():
        parser = build_parser()
        parser.parse_args = lambda argv: parser.error("unrecognized arguments")
        return parser

    monkeypatch.setattr(cli, "build_parser", strict_parser)
    result = harness.run_pass(pool, harness.Checker())
    assert result.failures == len(pool) == 4


def test_golden_demo_entries_match_the_repository_goldens():
    golden = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())
    for name in ("floor-ceiling", "wp", "quantifiers"):
        text = (ROOT / "tests" / "golden" / f"demo_{name.replace('-', '_')}.txt").read_text()
        assert golden[json.dumps(["demo", name])] == {
            "exit": 0,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }


def test_calibrated_pass_scales_each_request_by_nearby_chunks():
    pool = small(generate("orders_logic", 3), limit=4)
    result = harness.run_pass(pool, harness.Checker(), calibrate=True)
    assert len(result.reference) >= harness.NEAR_CHUNKS
    factors = harness.near_scales(len(result.latencies), result.reference)
    assert result.scaled == [t * f for t, f in zip(result.latencies, factors)]
    assert harness.run_pass(pool, harness.Checker()).reference == []


def test_near_scales_use_the_chunks_closest_in_the_pass():
    ref = calibration.REFERENCE_S
    # the first half of the pass ran at full speed, the second at half speed
    reference = [(i, ref) for i in range(0, 20, 2)] + [(i, 2 * ref) for i in range(20, 40, 2)]
    factors = harness.near_scales(40, reference)
    assert factors[0] == pytest.approx(1.0) and factors[39] == pytest.approx(0.5)
    assert factors[0] > factors[20] > factors[39]


def test_trimmed_mean_and_scale_leave_out_the_slowest_fifth():
    ref = calibration.REFERENCE_S
    assert calibration.trimmed_mean([1.0] * 8 + [100.0] * 2) == pytest.approx(1.0)
    assert calibration.scale([ref] * 8 + [100 * ref] * 2) == pytest.approx(1.0)
    assert calibration.scale([2 * ref] * 10) == pytest.approx(0.5)


def test_reference_chunk_does_not_run_fincat():
    before = set(sys.modules)
    calibration.timed_chunk()
    assert not any(name.startswith("fincat") for name in set(sys.modules) - before)
    source = (ROOT / "perfbench" / "calibration.py").read_text()
    assert "import fincat" not in source and "from fincat" not in source


def traced(fn):
    tracer = tracing.Tracer(ROOT)
    tracer.start_pass()
    tracer.begin_request("0.0")
    fn()
    tracer.end_request()
    tracer.end_pass()
    return tracer.pass_metrics[0]


def test_traced_counts_match_closed_forms():
    sizes = (1, 2, 3)
    sets = [builders.NamedFiniteSet(f"S{n}", tuple(str(i) for i in range(n))) for n in sizes]
    holder = {}

    def work():
        holder["fs"] = builders.build_finset(sets)
        core.validate(holder["fs"].category)

    metrics = traced(work)
    C = holder["fs"].category
    assert metrics["builders.arrows_built"] == sum(y**x for x in sizes for y in sizes)
    assert metrics["builders.composites_built"] == sum(
        (y**x) * (z**y) for x in sizes for y in sizes for z in sizes
    )
    assert metrics["core.validate_triples"] == oracles.Tables.of(C).composable_triples()
    assert metrics["core.validate_s"] > 0 and metrics["builders.busy_s"] > 0
    assert metrics["cli.calls"] == 0


def test_tracing_restores_the_program():
    before = (core.validate, galois.FinitePoset.__dict__["chain"], builders.build_finset)
    traced(lambda: galois.FinitePoset.chain(["a", "b"]))
    assert before == (core.validate, galois.FinitePoset.__dict__["chain"], builders.build_finset)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
