import json

import compare


def test_judge_applies_the_pair_rule():
    parent = [100 + i % 3 for i in range(10)]
    assert compare.judge(parent, [p * 0.8 for p in parent], "lower", 0.1) == "better"
    assert compare.judge(parent, [p * 1.2 for p in parent], "lower", 0.1) == "worse"
    assert compare.judge(parent, [p * 1.01 for p in parent], "lower", 0.1) == "unchanged"
    assert compare.judge(parent[:9], [p * 0.8 for p in parent[:9]], "lower", 0.1) == "unresolved"
    noisy = [50, 150] * 5
    assert compare.judge(noisy, [60, 140] * 5, "higher", 0.1) == "unresolved"
    assert compare.judge(parent, [p * 1.2 for p in parent], "higher", None) == "better"


def test_report_prints_one_row_per_workload_and_metric(tmp_path):
    for side, factor in (("parent", 1.0), ("change", 0.5)):
        with (tmp_path / f"{side}.jsonl").open("w") as fh:
            for seed in range(10):
                metrics = {"request_p50_ms": {"value": factor * (10 + seed % 2), "unit": "ms"}}
                result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
                fh.write(json.dumps({"workload": "cli", "seed": seed, "result": result}) + "\n")
    lines = compare.report(tmp_path / "parent.jsonl", tmp_path / "change.jsonl")
    assert len(lines) == 2
    assert lines[1].split()[:2] == ["cli", "request_p50_ms"]
    assert lines[1].endswith("better")


def write_runs(path, workload, values, failed=0):
    with path.open("w") as fh:
        for seed, value in enumerate(values):
            metrics = {"requests_per_s": {"value": value, "unit": "1/s"}}
            result = {"correct": failed == 0, "attempted": 179, "failed": failed, "metrics": metrics}
            fh.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")


def test_one_more_failed_request_makes_every_metric_worse(tmp_path):
    parent = [200 + seed % 3 for seed in range(10)]
    write_runs(tmp_path / "parent.jsonl", "cli", parent)
    write_runs(tmp_path / "change.jsonl", "cli", [2 * v for v in parent], failed=1)
    lines = compare.report(tmp_path / "parent.jsonl", tmp_path / "change.jsonl")
    assert lines[1].endswith("worse (more failed requests)")


def test_ok_frac_bound_sees_one_wrong_verdict_in_a_pass():
    bound = compare.load_spec()["ok_frac"][1]
    parent = [1.0] * 10
    change = [178 / 179] * 10
    assert compare.judge(parent, change, "higher", bound) == "worse"
