"""The comparison rule on hand-made result sets."""

from __future__ import annotations

from bench.compare import compare
from bench.metrics import load_spec, spread


def _results(scale_by_run, workload="read_hot", failed=0):
    runs = []
    for scale in scale_by_run:
        metrics = {}
        for metric in load_spec()["end_to_end"]:
            value = 100.0 * scale if metric["better"] == "lower" \
                else 100.0 / scale
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        runs.append({"correct": not failed, "attempted": 1000,
                     "failed": failed, "metrics": metrics})
    return {"runs": {workload: runs}}


def _verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_identical_sets_are_ok():
    rows = compare(_results([1.0, 1.01, 0.99]), _results([1.0, 1.01, 0.99]))
    assert set(_verdicts(rows).values()) == {"ok"}


def test_a_slowdown_beyond_the_bound_regresses_every_metric():
    rows = compare(_results([1.0, 1.0, 1.0]), _results([1.4, 1.4, 1.4]))
    verdicts = _verdicts(rows)
    assert verdicts.pop("failed_ops_ratio") == "ok"
    assert set(verdicts.values()) == {"regressed"}
    row = next(r for r in rows if r["metric"] == "op_p50_ms")
    assert row["base"] == 100.0 and abs(row["ratio"] - 1.4) < 1e-9


def test_a_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [0.6, 1.0, 1.4]
    rows = compare(_results(noisy), _results(noisy))
    assert _verdicts(rows)["op_p50_ms"] == "unresolved"
    rows = compare(_results([1.0, 1.4, 1.8]), _results([0.5, 0.6, 0.7]))
    assert _verdicts(rows)["op_p50_ms"] == "ok"


def test_more_failed_ops_regress():
    rows = compare(_results([1.0]), _results([1.0], failed=3))
    assert _verdicts(rows)["failed_ops_ratio"] == "regressed"


def test_spread_uses_quartiles_from_four_runs():
    assert spread([10.0]) == 0.0
    assert spread([9.0, 11.0]) == 0.2
    # One outlier among eight runs moves the range, not the quartiles.
    assert spread([9.0, 10.0, 10.0, 10.0, 10.0, 10.0, 11.0, 30.0]) < 0.2
