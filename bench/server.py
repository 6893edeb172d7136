"""The system under test: a spawned ``repro.cli serve`` subprocess.

The server runs with the CLI's defaults -- ``--durability always``,
group commit on -- on ``--port 0`` so concurrent benchmarks never
collide, and is always reaped (terminate, then kill).  Its CPU time and
peak resident set are read from ``/proc``.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Everything the benchmark writes lives here, inside the checkout.
OUT_DIR = os.path.join(REPO_ROOT, "bench", "out")

_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One ``serve`` subprocess over the snapshot at ``db_path``."""

    def __init__(self, db_path: str, start_timeout: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.db_path = db_path
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", db_path,
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            ready, _, _ = select.select(
                [self._proc.stdout], [], [], start_timeout
            )
            line = self._proc.stdout.readline() if ready else ""
            match = _LISTENING.match(line)
            if match is None:
                raise RuntimeError(
                    f"serve did not start listening (printed {line!r})"
                )
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def pid(self) -> int:
        return self._proc.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the largest resident set the server has had."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def wal_bytes(self) -> int:
        """Bytes under the server's ``<db>.wal/`` directory."""
        total = 0
        for root, _, files in os.walk(self.db_path + ".wal"):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(root, name))
                except FileNotFoundError:
                    pass  # a checkpoint pruned it mid-walk
        return total

    def kill(self) -> None:
        """SIGKILL -- the crash of the crash-restart check.  A process
        kill leaves the OS page cache intact, so what follows checks
        the recovery logic, not device durability."""
        self._proc.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        """Terminate, escalating to kill; idempotent."""
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        self._reap()

    def _reap(self) -> None:
        self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Workdir:
    """A scratch directory under ``bench/out`` removed on exit."""

    def __init__(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path: Optional[str] = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)

    def subdir(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path)
        return path

    def __enter__(self) -> "Workdir":
        return self

    def __exit__(self, *exc) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
            self.path = None
