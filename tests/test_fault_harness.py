"""Unit tests for the fault seam itself, and its inventory."""

import ast
from pathlib import Path

import pytest

import repro
from repro.faults import (
    KILL_POINTS,
    FaultSeam,
    InjectedFault,
    faults,
    inject,
    kill_point,
)


class TestFaultInjector:
    def test_unarmed_reach_is_a_no_op(self):
        injector = FaultSeam()
        for point in KILL_POINTS:
            injector.reach(point)  # must not raise

    def test_armed_point_fires_once(self):
        injector = FaultSeam()
        injector.arm("before-op")
        with pytest.raises(InjectedFault):
            injector.reach("before-op")
        injector.reach("before-op")  # one-shot: disarmed after firing

    def test_countdown_lets_reaches_through(self):
        injector = FaultSeam()
        injector.arm("before-op", after=2)
        injector.reach("before-op")
        injector.reach("before-op")
        with pytest.raises(InjectedFault):
            injector.reach("before-op")

    def test_fault_carries_point_and_context(self):
        injector = FaultSeam()
        injector.arm("mid-write")
        with pytest.raises(InjectedFault) as info:
            injector.reach("mid-write", path="/tmp/db.xml")
        assert info.value.point == "mid-write"
        assert info.value.context == {"path": "/tmp/db.xml"}
        assert "mid-write" in str(info.value)

    def test_unknown_point_rejected(self):
        injector = FaultSeam()
        with pytest.raises(ValueError):
            injector.arm("after-rename")
        injector.arm("before-op")  # validation only runs on the armed path
        with pytest.raises(ValueError):
            injector.reach("nope")

    def test_negative_countdown_rejected(self):
        with pytest.raises(ValueError):
            FaultSeam().arm("before-op", after=-1)

    def test_disarm_and_reset(self):
        injector = FaultSeam()
        injector.arm("before-op")
        injector.arm("mid-write")
        injector.disarm("before-op")
        assert not injector.is_armed("before-op")
        assert injector.is_armed("mid-write")
        injector.reset()
        assert not injector.is_armed("mid-write")

    def test_context_manager_disarms_on_exit(self):
        injector = FaultSeam()
        with injector.armed("before-rename"):
            assert injector.is_armed("before-rename")
        assert not injector.is_armed("before-rename")

    def test_trace_records_history(self):
        injector = FaultSeam()
        injector.trace = True
        injector.reach("before-op", index=0)
        injector.reach("after-op", index=0)
        assert [p for p, _ in injector.history] == ["before-op", "after-op"]


class TestModuleLevelInjector:
    def test_kill_point_uses_default_injector(self):
        with inject("before-op"):
            with pytest.raises(InjectedFault):
                kill_point("before-op", index=0)
        kill_point("before-op", index=0)  # disarmed again

    def test_default_injector_is_shared(self):
        faults.arm("after-op")
        try:
            assert faults.is_armed("after-op")
        finally:
            faults.disarm()


SRC = Path(repro.__file__).resolve().parent

#: Modules whose file I/O must all go through the fault seam.
DURABLE_IO = sorted(
    [SRC / "storage.py", SRC / "scrub.py", SRC / "replication" / "repair.py"]
    + list((SRC / "wal").glob("*.py"))
)


def _calls(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            yield node


def _literal(node):
    return node.value if isinstance(node, ast.Constant) else None


class TestSiteInventory:
    def test_every_kill_point_is_declared_and_reached(self):
        """The literal names handed to ``kill_point(...)`` or as a
        ``point=`` keyword (``write``, and the atomic writer that
        forwards one to it) are exactly :data:`KILL_POINTS`: none is
        declared but never reached, none reached but undeclared."""
        reached = set()
        for path in SRC.rglob("*.py"):
            for call in _calls(path):
                func = call.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "kill_point":
                    point = _literal(call.args[0]) if call.args else None
                    assert point is not None, f"{path}:{call.lineno}"
                    reached.add(point)
                for keyword in call.keywords:
                    if keyword.arg == "point" and _literal(keyword.value):
                        reached.add(keyword.value.value)
        assert reached == set(KILL_POINTS)

    def test_durable_io_goes_through_the_seam(self):
        """Storage, the log, scrub and repair call no builtin ``open``
        or ``os.fsync`` of their own; ``_fsync_directory`` (a directory
        fd, failures logged by design) is the one exception."""
        offenders = []
        for path in DURABLE_IO:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef)
                and func.name == "_fsync_directory"
                for node in ast.walk(func)
            }
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call) or id(call) in exempt:
                    continue
                func = call.func
                raw_open = isinstance(func, ast.Name) and func.id == "open"
                module_call = (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr)
                    in {("os", "fsync"), ("os", "open"), ("io", "open")}
                )
                if raw_open or module_call:
                    offenders.append(f"{path.relative_to(SRC)}:{call.lineno}")
        assert offenders == []
