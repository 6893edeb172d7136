"""``python3 -m bench compare A.json B.json``: the rule PRs are judged by.

Both files are result sets written by ``python3 -m bench run --out``:
for each workload, the end-to-end metrics of several runs.  For every
(metric, workload) pair the medians are compared under the metric's
bound from ``BENCHMARK.json``; A is the base of every ratio.

- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: the run-to-run spread of either side is wider than
  the bound, so "no worse" cannot be told from noise -- unless every
  run of B reads better than every run of A;
- ``ok`` otherwise.

The exit code is non-zero on any regression, or when B fails a larger
share of its ops than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List

from .metrics import load_spec, ratio, spread


def load_results(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _values(results: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"]
            for run in results["runs"].get(workload, [])]


def _failed_ratio(results: Dict[str, Any], workload: str) -> float:
    runs = results["runs"].get(workload, [])
    return ratio(sum(run["failed"] for run in runs),
                 sum(run["attempted"] for run in runs))


def compare(base: Dict[str, Any], change: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (metric, workload) present on both sides."""
    rows: List[Dict[str, Any]] = []
    for workload in base["runs"]:
        if workload not in change["runs"]:
            continue
        for metric in load_spec()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = _values(base, workload, name)
            b = _values(change, workload, name)
            lower = metric["better"] == "lower"
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            worse_by = ((b_mid - a_mid) if lower else (a_mid - b_mid)) / a_mid
            wide = max(spread(a), spread(b))
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if worse_by > bound:
                verdict = "regressed"
            elif wide > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "metric": name, "workload": workload, "unit": metric["unit"],
                "base": a_mid, "change": b_mid, "ratio": ratio(b_mid, a_mid),
                "spread": wide, "bound": bound, "verdict": verdict,
            })
        failed_a = _failed_ratio(base, workload)
        failed_b = _failed_ratio(change, workload)
        rows.append({
            "metric": "failed_ops_ratio", "workload": workload,
            "unit": "ratio", "base": failed_a, "change": failed_b,
            "ratio": ratio(failed_b, failed_a), "spread": 0.0, "bound": 0.0,
            "verdict": "regressed" if failed_b > failed_a else "ok",
        })
    return rows


def print_rows(rows: List[Dict[str, Any]], out=sys.stdout) -> None:
    print(f"{'metric':22s} {'workload':14s} {'base (A)':>12s} "
          f"{'change (B)':>12s} {'B/A':>7s} {'spread':>7s} {'bound':>6s} "
          f"verdict", file=out)
    for row in rows:
        print(f"{row['metric']:22s} {row['workload']:14s} "
              f"{row['base']:12.5g} {row['change']:12.5g} "
              f"{row['ratio']:7.3f} {row['spread']:7.3f} {row['bound']:6.2f} "
              f"{row['verdict']}  [{row['unit']}]", file=out)


def main(path_a: str, path_b: str) -> int:
    rows = compare(load_results(path_a), load_results(path_b))
    print_rows(rows)
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0
