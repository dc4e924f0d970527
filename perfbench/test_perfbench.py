"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER
from run import END_TO_END, ROOT, Loop, child_env, interleave
from stats import HEADROOM_CAP, headroom_digits, self_times, tail
from workloads import WORKLOADS, check_report, report_headroom


def test_self_time_of_nested_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("mub.verify_family", 1.0, 7.0, 0),
        ("linalg.multiply", 2.0, 3.0, 1),
        ("linalg.is_unitary", 3.5, 6.0, 1),
        ("linalg.adjoint", 4.0, 4.5, 3),
        ("phase_ring.root_table", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.0, 0.5, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 6.0, 0), ("c", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the root's interval
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tail_is_absent_with_too_few_samples():
    assert tail([]) is None
    assert tail([float(i) for i in range(10)]) is None


def test_tail_leaves_ten_samples_beyond_it():
    values = [float(i) for i in range(20, 0, -1)]
    percentile, value = tail(values)
    assert percentile == pytest.approx(50.0)
    assert sum(v > value for v in values) == 10
    percentile, value = tail(values[:11])
    assert (percentile, value) == (pytest.approx(100 / 11), 10.0)


def test_headroom_digits():
    assert headroom_digits([]) is None
    assert headroom_digits([(1e-13, 1e-9), (1e-12, 1e-9)]) == pytest.approx(3.0)
    assert headroom_digits([(0.0, 1e-9)]) == HEADROOM_CAP
    assert headroom_digits([(0.0, 1e-9), (2e-10, 1e-9)]) == pytest.approx(math.log10(5))
    assert headroom_digits([(1e-30, 1e-9)]) == HEADROOM_CAP


def test_report_headroom_skips_negative_checks():
    records = [
        {"check": "pair-unbiased", "passed": True, "deviation": 1e-13, "tolerance": 1e-9},
        {"check": "rotation-square-not-hadamard", "passed": True, "deviation": 0.5, "tolerance": 1e-9},
        {"check": "family-size", "passed": True, "deviation": None, "tolerance": None},
    ]
    assert report_headroom({"records": records}) == pytest.approx(4.0)
    assert report_headroom({"records": records[2:]}) is None


def test_seed_sets_the_interleaving_order():
    def order(seed):
        seen = []
        loops = [Loop(lambda name=name: seen.append(name), repeats=3) for name in "abc"]
        interleave(loops, random.Random(seed))
        return seen

    assert sorted(order(1)) == sorted("aaabbbccc")
    assert order(1) == order(1)
    assert len({"".join(order(seed)) for seed in range(5)}) > 1


def _report(records):
    return {"schema": "mub-report/1", "records": records, "summary": {"failed": 0}}


def test_gate_allows_extra_records_and_catches_changed_or_missing(tmp_path):
    workload = WORKLOADS["gauss-reciprocity"]
    reference = {"verdicts": {'r|{"d":1}': True, 'r|{"d":2}': True}}
    path = tmp_path / "report.json"
    records = [{"check": "r", "case": {"d": d}, "passed": True} for d in (1, 2, 3)]
    path.write_text(json.dumps(_report(records)))
    assert check_report(workload, 0, path, reference)[0] == []
    assert check_report(workload, 1, path, reference)[0] == ["exit code 1"]

    records[1]["passed"] = None
    path.write_text(json.dumps(_report(records)))
    assert "reference verdicts changed" in check_report(workload, 0, path, reference)[0][0]

    path.write_text(json.dumps(_report(records[2:])))
    assert "reference records missing" in check_report(workload, 0, path, reference)[0][0]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [row[:3] for row in PER_LAYER]


def test_traced_child_accounts_for_the_whole_main_call(tmp_path):
    result = tmp_path / "result.json"
    report = tmp_path / "report.json"
    argv = ["verify", "--dims", "3..6", "--format", "json", "--output", str(report)]
    child = Path(__file__).resolve().parent / "child.py"
    subprocess.run([sys.executable, str(child), "traced", str(result), *argv], env=child_env(), check=True)
    metrics = json.loads(result.read_text())["metrics"]
    assert metrics["cli.main.calls"] == 1
    assert metrics["mub.verify_family.calls"] == 4
    assert metrics["mub.pairs"] == 6 + 3 + 15 + 3  # d = 3, 4, 5, 6
    assert metrics["linalg.multiply.calls"] > metrics["mub.pairs"]
    assert 0 < metrics["cli.self_s"] < metrics["cli.main.total_s"]
