"""Audit log behaviour."""

import pytest

from repro.security import AuditLog, Privilege
from repro.security.audit import AUDIT_LOG_SIZE, AuditRecord
from repro.xmltree import DOCUMENT_ID
from repro.xupdate import UpdateContent


class TestAuditLog:
    def test_records_are_sequenced(self):
        log = AuditLog()
        r1 = log.record("u", "Rename", "//a", DOCUMENT_ID, Privilege.UPDATE, True)
        r2 = log.record("u", "Rename", "//a", DOCUMENT_ID, Privilege.UPDATE, False, "no")
        assert r1.sequence < r2.sequence
        assert len(log) == 2

    def test_denials_filter(self):
        log = AuditLog()
        log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, False, "r")
        assert len(log.denials()) == 1
        assert not log.denials()[0].allowed

    def test_for_user_filter(self):
        log = AuditLog()
        log.record("alice", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        log.record("bob", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        assert len(log.for_user("alice")) == 1

    def test_clear(self):
        log = AuditLog()
        log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        log.clear()
        assert len(log) == 0

    def test_str_mentions_verdict(self):
        log = AuditLog()
        ok = log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        no = log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, False, "why")
        assert "ALLOW" in str(ok)
        assert "DENY" in str(no)
        assert "why" in str(no)


class TestBound:
    """The log keeps the most recent AUDIT_LOG_SIZE records: a server
    records every decision of every commit for as long as it runs."""

    def test_oldest_records_are_dropped_and_counted(self):
        log = AuditLog()
        assert log.dropped == 0
        for index in range(3 * AUDIT_LOG_SIZE):
            log.record(
                f"u{index % 2}", "Op", "//a", DOCUMENT_ID, Privilege.READ,
                index % 3 != 0, "r",
            )
        assert len(log) == AUDIT_LOG_SIZE
        assert log.dropped == 2 * AUDIT_LOG_SIZE
        retained = list(log)
        assert [r.sequence for r in retained] == list(
            range(2 * AUDIT_LOG_SIZE + 1, 3 * AUDIT_LOG_SIZE + 1)
        )
        # The filters cover what is retained, nothing more.
        assert len(log.for_user("u0")) + len(log.for_user("u1")) == len(log)
        assert log.denials() == [r for r in retained if not r.allowed]
        log.record_abort("u0", "Op", "//a", "boom")
        log.record_rejected("u1", "query", "//a", "busy", "shed")
        assert len(log) == AUDIT_LOG_SIZE
        assert [r.sequence for r in log.aborts()] == [3 * AUDIT_LOG_SIZE + 1]
        assert [r.sequence for r in log.rejections()] == [3 * AUDIT_LOG_SIZE + 2]

    def test_clear_empties_without_resetting_the_sequence(self):
        log = AuditLog()
        for _ in range(AUDIT_LOG_SIZE + 5):
            log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        log.clear()
        assert len(log) == 0 and list(log) == [] and log.dropped == 0
        entry = log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        assert entry.sequence == AUDIT_LOG_SIZE + 6
        assert len(log) == 1 and log.dropped == 0

    def test_records_stay_immutable_values_without_a_dict(self):
        log = AuditLog()
        entry = log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        with pytest.raises(AttributeError):
            entry.allowed = False
        assert not hasattr(entry, "__dict__")
        assert entry == AuditRecord(
            1, "u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True
        )

    def test_committing_server_retains_a_bounded_number_of_records(self, db):
        """``write_group``'s shape in process: many small commits.
        Whatever their number, the audit log holds at most its bound
        and nothing else keeps the evicted records alive."""
        import gc

        def alive():
            gc.collect()
            return sum(isinstance(o, AuditRecord) for o in gc.get_objects())

        elsewhere = alive()
        doctor = db.login("laporte")
        for index in range(8000):
            doctor.execute(
                UpdateContent("/patients/franck/diagnosis", f"dx{index % 7}")
            )
        assert db.version == 8000
        assert len(db.audit) == AUDIT_LOG_SIZE
        assert db.audit.dropped >= 8000 - AUDIT_LOG_SIZE
        assert alive() - elsewhere <= AUDIT_LOG_SIZE


class TestDatabaseIntegration:
    def test_database_writes_are_audited(self, db):
        secretary = db.login("beaufort")
        secretary.execute(UpdateContent("/patients/franck/diagnosis", "x"))
        assert len(db.audit) > 0
        denials = db.audit.denials()
        assert denials
        assert all(r.user == "beaufort" for r in denials)

    def test_allowed_writes_recorded_too(self, db):
        doctor = db.login("laporte")
        doctor.execute(UpdateContent("/patients/franck/diagnosis", "flu"))
        allowed = [r for r in db.audit if r.allowed]
        assert allowed
        assert allowed[0].operation == "UpdateContent"


class TestAbortRecords:
    def test_record_abort_fields(self):
        log = AuditLog()
        entry = log.record_abort(
            user="u",
            operation="Remove",
            path="//a",
            reason="injected fault",
            operation_index=2,
            rolled_back=2,
        )
        assert entry.event == "abort"
        assert not entry.allowed
        assert entry.rolled_back == 2
        assert entry.node is None and entry.privilege is None
        assert "aborted at operation 2" in entry.reason

    def test_aborts_filter(self):
        log = AuditLog()
        log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        log.record_abort(user="u", operation="Op", path="//a", reason="boom")
        assert len(log.aborts()) == 1
        assert len(log.denials()) == 1  # the abort counts as denied

    def test_abort_str_format(self):
        log = AuditLog()
        entry = log.record_abort(
            user="u", operation="Rename", path="//a", reason="x", rolled_back=3
        )
        text = str(entry)
        assert "ABORT" in text
        assert "rolled back 3" in text


class TestRejectionRecords:
    def test_record_rejected_fields(self):
        log = AuditLog()
        entry = log.record_rejected(
            user="u",
            operation="UpdateContent",
            path="//a",
            reason="in-flight budget of 4 exhausted",
            event="shed",
        )
        assert entry.event == "shed"
        assert not entry.allowed
        assert entry.node is None and entry.privilege is None
        assert "budget" in entry.reason

    def test_unknown_event_is_refused(self):
        log = AuditLog()
        with pytest.raises(ValueError):
            log.record_rejected(
                user="u", operation="Op", path="//a", reason="r", event="lost"
            )

    def test_rejections_filter(self):
        log = AuditLog()
        log.record("u", "Op", "//a", DOCUMENT_ID, Privilege.READ, True)
        log.record_rejected("u", "Op", "//a", "full", "shed")
        log.record_rejected("u", "Op", "//a", "late", "deadline")
        log.record_rejected("u", "Op", "//a", "raced", "retry-exhausted")
        assert len(log.rejections()) == 3
        assert [r.event for r in log.rejections("deadline")] == ["deadline"]
        assert len(log.denials()) == 3  # rejections count as denied

    def test_rejection_str_format(self):
        log = AuditLog()
        entry = log.record_rejected("u", "query", "", "budget spent", "deadline")
        text = str(entry)
        assert "REJECT[deadline]" in text
        assert "budget spent" in text

    def test_every_rejection_event_is_accepted(self):
        from repro.security.audit import REJECTION_EVENTS

        log = AuditLog()
        for event in REJECTION_EVENTS:
            log.record_rejected("u", "Op", "//a", "r", event)
        assert len(log.rejections()) == len(REJECTION_EVENTS)


class TestServingRejectionsAreAudited:
    """Shed, timed-out and retry-exhausted requests land in the
    database's audit log (ISSUE 4 satellite)."""

    def test_shed_request_is_audited(self, db):
        from repro.errors import OverloadError
        from repro.serving import DatabaseServer

        server = DatabaseServer(db, max_in_flight=1, overload="shed")
        server.admission.acquire()  # occupy the whole budget
        try:
            with pytest.raises(OverloadError):
                server.query("laporte", "count(//*)")
        finally:
            server.admission.release()
        records = db.audit.rejections("shed")
        assert len(records) == 1
        assert records[0].user == "laporte"
        assert records[0].operation == "query"

    def test_timed_out_request_is_audited(self, db):
        from repro.errors import DeadlineExceeded
        from repro.serving import DatabaseServer

        server = DatabaseServer(db)
        with pytest.raises(DeadlineExceeded):
            server.execute(
                "laporte",
                UpdateContent("/patients/franck/diagnosis", "flu"),
                deadline=0.0,
            )
        records = db.audit.rejections("deadline")
        assert records
        assert records[-1].user == "laporte"
        assert records[-1].operation == "UpdateContent"

    def test_retry_exhausted_request_is_audited(self, db, monkeypatch):
        from repro.errors import ConcurrentUpdateError, RetryExhausted
        from repro.serving import DatabaseServer, RetryPolicy

        server = DatabaseServer(
            db,
            retry=RetryPolicy(max_attempts=2, base=0.0001, cap=0.0001),
            sleep=lambda s: None,
        )
        session = server.session("laporte")
        monkeypatch.setattr(
            session,
            "execute",
            lambda *a, **k: (_ for _ in ()).throw(
                ConcurrentUpdateError("raced")
            ),
        )
        with pytest.raises(RetryExhausted):
            server.execute(
                "laporte", UpdateContent("/patients/franck/diagnosis", "flu")
            )
        records = db.audit.rejections("retry-exhausted")
        assert len(records) == 1
        assert records[0].user == "laporte"
        assert "2 attempts" in records[0].reason
