"""Tests for the pair summary of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_p50_s", "unit": "s", "better": "lower"}]


def _runs(parent, change, change_failed=0):
    def run(value, failed):
        return {"result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                           "metrics": {"op_p50_s": {"value": value, "unit": "s"}}}}

    return {"parent": [run(v, 0) for v in parent],
            "change": [run(v, change_failed if i == 0 else 0) for i, v in enumerate(change)]}


def test_summarize_claims_a_clear_gain():
    summary = bench_pairs.summarize(_runs([3.0, 3.1, 3.2, 3.05], [1.8, 1.9, 1.7, 1.85]),
                                    METRICS)["op_p50_s"]
    assert summary["wins"] == 4 and summary["pairs"] == 4
    assert summary["parent"]["median"] == 3.075
    assert summary["gain_rule_met"]


def test_summarize_claims_no_gain_when_a_run_failed_an_op():
    runs = _runs([3.0, 3.1, 3.2, 3.05], [1.8, 1.9, 1.7, 1.85], change_failed=1)
    summary = bench_pairs.summarize(runs, METRICS)["op_p50_s"]
    assert summary["wins"] == 4
    assert not summary["gain_rule_met"]


def test_summarize_claims_no_gain_inside_the_parent_spread():
    summary = bench_pairs.summarize(_runs([3.0, 2.0, 4.0, 3.5], [2.9, 1.9, 3.9, 3.4]),
                                    METRICS)["op_p50_s"]
    assert summary["wins"] == 4
    assert not summary["gain_rule_met"]
