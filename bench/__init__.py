"""The repository's benchmark: one socket-driven harness, four workloads.

``python3 -m bench run --workload W --seed N --seconds S --trace 0|1``
spawns a real ``repro.cli serve`` subprocess over a snapshot generated
from ``(workload, seed)``, drives it over loopback from one process
with two connections (closed loop), checks every reply against a
shadow of the document, and prints every metric by name and unit; the
last stdout line is the result object ``BENCHMARK.json`` describes.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` adds the per-layer view: counter deltas from the server's
``stats`` ledger across the timed window, plus an in-process replay of
the same seeded stream under span-recording wrappers that this package
installs around the public entry points of each layer (nothing under
``src/`` is edited).  See ``bench/README.md``.
"""
