"""Shared fixtures: smoke-sized runs, computed once per session."""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from bench.harness import run_workload  # noqa: E402
from bench.workloads import SMOKE_PATIENTS  # noqa: E402

SEED = 11
SECONDS = 1.5


@pytest.fixture(scope="session")
def smoke_run():
    """``smoke_run(workload, trace)``: the (cached) result of one
    smoke-sized run."""
    cache = {}

    def run(workload: str, trace: bool):
        key = (workload, trace)
        if key not in cache:
            cache[key] = run_workload(
                workload, SEED, SECONDS, trace, SMOKE_PATIENTS[workload]
            )
        return cache[key]

    return run
