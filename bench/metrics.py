"""Metric declarations (read from ``BENCHMARK.json``) and arithmetic."""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Mapping, Sequence

from .server import REPO_ROOT


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one declaration of every metric's name,
    unit, direction and (end to end) regression bound."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated; 0.0 for
    no samples (a per-layer metric that does not apply reads 0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def emit(declared: List[Mapping[str, str]], produced: Mapping[str, float]
         ) -> Dict[str, Dict[str, Any]]:
    """The result object's ``metrics``: every declared metric, by name
    and unit.  A declared metric this workload has no data for reads
    0.0; producing an undeclared name is a bug in the harness."""
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(produced) - names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        metric["name"]: {
            "value": float(produced.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance from four runs up, the full range below that."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)
