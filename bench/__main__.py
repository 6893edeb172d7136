"""Command line: ``python3 -m bench run | trace | compare`` (run from
the repository root; ``src/`` is put on the path here)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "one run of --workload (the driver's form), or with no "
                "--workload a set: --runs runs of every workload"),
        ("trace", "run --trace 1: the per-layer metrics of --workload"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--workload")
        p.add_argument("--seed", type=int, default=2005)
        p.add_argument("--seconds", type=float, default=None,
                       help="timed window (default: BENCHMARK.json's "
                            "run_seconds; 2 with --smoke)")
        p.add_argument("--trace", type=int, choices=(0, 1),
                       default=1 if name == "trace" else 0)
        p.add_argument("--smoke", action="store_true",
                       help="small documents and 2 s windows")
        p.add_argument("--runs", type=int, default=3,
                       help="runs per workload in a set, seeds seed..")
        p.add_argument("--sets", type=int, choices=(1, 2), default=1,
                       help="2: run two sets and compare them")
        p.add_argument("--out", help="write the set's results here")
    p = sub.add_parser("compare", help="apply each metric's bound to two "
                                       "result sets; A is the base")
    p.add_argument("a")
    p.add_argument("b")
    return parser


def _run_set(args, seconds: float, patients) -> Dict[str, Any]:
    from .harness import environment, print_result, run_workload
    from .workloads import WORKLOADS

    runs: Dict[str, List[Dict[str, Any]]] = {}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        for index in range(args.runs):
            result = run_workload(
                workload, args.seed + index, seconds, bool(args.trace),
                patients(workload),
            )
            print_result(result)
            runs.setdefault(workload, []).append(
                dict(result.result_line(), seed=result.seed,
                     detail=result.detail)
            )
    return {"env": environment(args.seed, seconds), "runs": runs}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"bench: no system to measure: {_SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    from . import compare
    from .harness import print_result, run_workload
    from .metrics import load_spec
    from .server import OUT_DIR
    from .workloads import SMOKE_PATIENTS

    if args.command == "compare":
        return compare.main(args.a, args.b)
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(load_spec()["run_seconds"])

    def patients(workload: str) -> Optional[int]:
        return SMOKE_PATIENTS[workload] if args.smoke else None

    if args.workload and args.sets == 1 and not args.out:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), patients(args.workload))
        print_result(result)  # its last line is the result object
        return 0 if result.correct else 3
    sets = [_run_set(args, seconds, patients) for _ in range(args.sets)]
    os.makedirs(OUT_DIR, exist_ok=True)
    paths = []
    for index, results in enumerate(sets):
        path = args.out or os.path.join(OUT_DIR, "results.json")
        if args.sets > 1:
            path = f"{path}.{index + 1}"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        paths.append(path)
        print(f"wrote {path}")
    failed = any(run["failed"] for results in sets
                 for runs in results["runs"].values() for run in runs)
    if args.sets == 2 and not args.trace:
        return max(compare.main(*paths), 3 if failed else 0)
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
