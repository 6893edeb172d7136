"""CLI integration tests (run in-process via main())."""

import argparse
import inspect
import os

import pytest

from repro.cli import build_parser, main
from repro.storage import load_from_file

XUPDATE_NS = 'xmlns:xupdate="http://www.xmldb.org/xupdate"'
APPEND_BOB = (
    f"<xupdate:modifications {XUPDATE_NS}>"
    '<xupdate:append select="/patients">'
    '<xupdate:element name="bob"/></xupdate:append>'
    "</xupdate:modifications>"
)


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "db.xml")


def run(*argv):
    return main(list(argv))


@pytest.fixture
def seeded(db_path):
    assert run("init", db_path, "--xml", "<patients/>") == 0
    assert run("add-role", db_path, "staff") == 0
    assert run("add-user", db_path, "alice", "--member-of", "staff") == 0
    assert run("grant", db_path, "read", "//node()", "staff") == 0
    assert run("grant", db_path, "insert", "/patients", "staff") == 0
    return db_path


class TestInit:
    def test_init_creates_file(self, db_path):
        assert run("init", db_path, "--xml", "<r/>") == 0
        assert os.path.exists(db_path)
        db = load_from_file(db_path)
        assert db.document.label(db.document.root) == "r"

    def test_init_refuses_overwrite(self, db_path):
        run("init", db_path, "--xml", "<r/>")
        assert run("init", db_path, "--xml", "<other/>") == 2

    def test_init_force_overwrites(self, db_path):
        run("init", db_path, "--xml", "<r/>")
        assert run("init", db_path, "--xml", "<other/>", "--force") == 0
        db = load_from_file(db_path)
        assert db.document.label(db.document.root) == "other"

    def test_init_from_document_file(self, tmp_path, db_path):
        doc_path = str(tmp_path / "doc.xml")
        with open(doc_path, "w") as handle:
            handle.write("<patients><franck/></patients>")
        assert run("init", db_path, "--document", doc_path) == 0
        db = load_from_file(db_path)
        assert len(db.document) == 3


class TestSubjectsAndPolicy:
    def test_duplicate_role_fails_cleanly(self, seeded):
        assert run("add-role", seeded, "staff") == 2

    def test_member_of_unknown_fails(self, seeded):
        assert run("add-user", seeded, "bob", "--member-of", "ghost") == 2

    def test_grant_bad_path_fails(self, seeded):
        assert run("grant", seeded, "read", "//a[", "staff") == 2

    def test_deny_recorded_after_grant(self, seeded):
        assert run("deny", seeded, "read", "//secret", "staff") == 0
        db = load_from_file(seeded)
        facts = list(db.policy.facts())
        assert facts[-1][0] == "deny"
        assert facts[-1][4] > facts[0][4]

    def test_show_runs(self, seeded, capsys):
        assert run("show", seeded) == 0
        out = capsys.readouterr().out
        assert "role staff" in out
        assert "user alice" in out
        assert "rule(accept,read" in out


class TestViewQueryUpdate:
    def test_update_and_view(self, seeded, capsys):
        assert run("update", seeded, "alice", APPEND_BOB) == 0
        capsys.readouterr()
        assert run("view", seeded, "alice") == 0
        assert "<bob/>" in capsys.readouterr().out

    def test_view_tree_notation(self, seeded, capsys):
        assert run("view", seeded, "alice", "--tree") == 0
        assert "/patients" in capsys.readouterr().out

    def test_query_scalar(self, seeded, capsys):
        run("update", seeded, "alice", APPEND_BOB)
        capsys.readouterr()
        assert run("query", seeded, "alice", "count(//bob)") == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_query_node_set(self, seeded, capsys):
        run("update", seeded, "alice", APPEND_BOB)
        capsys.readouterr()
        assert run("query", seeded, "alice", "//bob") == 0
        assert "<bob/>" in capsys.readouterr().out

    def test_query_boolean(self, seeded, capsys):
        assert run("query", seeded, "alice", "true()") == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_update_from_file(self, seeded, tmp_path, capsys):
        script_path = str(tmp_path / "script.xml")
        with open(script_path, "w") as handle:
            handle.write(APPEND_BOB)
        assert run("update", seeded, "alice", script_path) == 0

    def test_denied_update_exit_code(self, seeded, capsys):
        denied = (
            f"<xupdate:modifications {XUPDATE_NS}>"
            '<xupdate:remove select="/patients"/>'
            "</xupdate:modifications>"
        )
        assert run("update", seeded, "alice", denied) == 3
        assert "DENIED" in capsys.readouterr().out

    def test_strict_denied_does_not_commit(self, seeded, capsys):
        before = open(seeded).read()
        denied = (
            f"<xupdate:modifications {XUPDATE_NS}>"
            '<xupdate:remove select="/patients"/>'
            "</xupdate:modifications>"
        )
        assert run("update", seeded, "alice", denied, "--strict") == 3
        assert open(seeded).read() == before

    def test_unknown_user_fails(self, seeded):
        assert run("view", seeded, "ghost") == 2

    def test_missing_database_fails(self, tmp_path):
        assert run("view", str(tmp_path / "nope.xml"), "alice") == 2

    def test_audit_demo(self, seeded, capsys):
        assert run("audit-demo", seeded, "alice", APPEND_BOB) == 0
        assert "ALLOW" in capsys.readouterr().out


class TestLint:
    def test_clean_policy_exits_zero(self, seeded, capsys):
        assert run("lint", seeded) == 0
        assert "clean" in capsys.readouterr().out

    def test_dead_rule_exits_four(self, seeded, capsys):
        # The read grant is fully shadowed by a later deny on the same
        # path for the same role: dead under axiom 14.
        assert run("deny", seeded, "read", "//node()", "staff") == 0
        assert run("lint", seeded) == 4
        out = capsys.readouterr().out
        assert "dead" in out

    def test_empty_path_rule_reported(self, seeded, capsys):
        assert run("grant", seeded, "read", "//never-matches", "staff") == 0
        assert run("lint", seeded) == 4
        assert "empty-path" in capsys.readouterr().out


class TestRecover:
    def test_recover_reports_dropped_rule(self, seeded, capsys):
        text = open(seeded).read()
        broken = text.replace('subject="staff"', 'subject="ghost"', 1)
        with open(seeded, "w") as handle:
            handle.write(broken)
        assert run("recover", seeded) == 4
        out = capsys.readouterr().out
        assert "ghost" in out
        assert "recovered:" in out

    def test_recover_clean_file_exits_zero(self, seeded, capsys):
        assert run("recover", seeded) == 0
        assert "cleanly" in capsys.readouterr().out

    def test_recover_write_repairs_file(self, seeded, capsys):
        text = open(seeded).read()
        with open(seeded, "w") as handle:
            handle.write(text.replace('subject="staff"', 'subject="ghost"', 1))
        assert run("recover", seeded, "--write") == 4
        capsys.readouterr()
        # After the rewrite the file is strict-loadable and lint-clean.
        assert run("recover", seeded) == 0

    def test_recover_missing_file_fails(self, tmp_path):
        assert run("recover", str(tmp_path / "nope.xml")) == 2


class TestCrashSafeSaves:
    def test_mutating_commands_keep_a_backup(self, seeded):
        before = open(seeded).read()
        assert run("add-role", seeded, "nurse", "--member-of", "staff") == 0
        assert open(seeded + ".bak").read() == before

    def test_backup_is_loadable(self, seeded):
        run("add-role", seeded, "nurse")
        assert load_from_file(seeded + ".bak").document.root is not None


class TestWalCli:
    @pytest.fixture
    def walled(self, seeded):
        """The seeded database plus a WAL directory holding one commit
        that was never saved back to the snapshot file."""
        from repro.wal import WriteAheadLog

        db = load_from_file(seeded)
        wal = WriteAheadLog(seeded + ".wal")
        db.attach_wal(wal)
        wal.checkpoint(db)
        db.login("alice").execute(APPEND_BOB)
        db.detach_wal().close()
        return seeded

    def tear(self, wal_dir):
        last = sorted(
            os.path.join(wal_dir, name)
            for name in os.listdir(wal_dir)
            if name.startswith("segment-")
        )[-1]
        with open(last, "r+b") as handle:
            handle.truncate(os.path.getsize(last) - 3)

    def test_inspect_clean_log(self, walled, capsys):
        assert run("wal", "inspect", walled + ".wal") == 0
        out = capsys.readouterr().out
        assert "segment segment-0000000001.wal" in out
        assert "checkpoint checkpoint-" in out
        assert "update=1" in out
        assert "log is clean" in out

    def test_inspect_records_listing(self, walled, capsys):
        assert run("wal", "inspect", walled + ".wal", "--records") == 0
        out = capsys.readouterr().out
        assert "update version=1 user=alice" in out

    def test_inspect_torn_log_exits_four(self, walled, capsys):
        self.tear(walled + ".wal")
        assert run("wal", "inspect", walled + ".wal") == 4
        assert "TORN" in capsys.readouterr().out

    def test_inspect_missing_directory(self, tmp_path):
        assert run("wal", "inspect", str(tmp_path / "nope.wal")) == 2

    def test_recover_replays_the_log(self, walled, capsys):
        assert run("recover", walled) == 0
        out = capsys.readouterr().out
        assert "replayed 1 commit record(s)" in out
        assert "recovered version 1" in out

    def test_recover_write_persists_the_replayed_state(self, walled, capsys):
        assert run("recover", walled, "--write") == 0
        capsys.readouterr()
        # the WAL-only commit is now in the snapshot file
        assert run("view", walled, "alice") == 0
        assert "<bob/>" in capsys.readouterr().out

    def test_recover_write_repairs_a_torn_tail(self, walled, capsys):
        self.tear(walled + ".wal")
        assert run("recover", walled, "--write") == 4  # torn: reported
        capsys.readouterr()
        assert run("wal", "inspect", walled + ".wal") == 0  # now clean

    def test_recover_no_wal_uses_the_snapshot(self, walled, capsys):
        assert run("recover", walled, "--no-wal") == 0
        out = capsys.readouterr().out
        assert "replayed" not in out
        assert "loaded cleanly" in out


class TestSettableValues:
    """The commit window is demand plus a constant cap, not a setting,
    and ``python3 -m bench`` is the one load generator."""

    def test_no_commit_window_knob(self, capsys):
        from repro.netserve import NetServer, serve_in_thread
        from repro.serving import GroupCommitter

        for owner in (GroupCommitter, NetServer):
            assert "max_delay_ms" not in inspect.signature(owner).parameters
        with pytest.raises(TypeError):  # forwarded to NetServer
            serve_in_thread(None, max_delay_ms=2.0)
        with pytest.raises(SystemExit):
            run("serve", "--help")
        out = capsys.readouterr().out
        assert "--max-batch" in out
        assert "--max-delay-ms" not in out

    def test_no_stress_subcommand(self):
        (subcommands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert "serve" in subcommands.choices
        assert "stress" not in subcommands.choices


class TestFailoverCli:
    @pytest.fixture
    def logged(self, seeded):
        """The seeded database plus a WAL directory holding one keyed
        commit that was never saved back to the snapshot file."""
        from repro.wal import WriteAheadLog

        db = load_from_file(seeded)
        wal = WriteAheadLog(seeded + ".wal")
        db.attach_wal(wal)
        wal.checkpoint(db)
        with wal.annotate(idem="req-1"):
            db.login("alice").execute(APPEND_BOB)
        db.detach_wal().close()
        return seeded + ".wal"

    def append_epoch_regression(self, seeded, wal_dir):
        """Smuggle an epoch-2-then-epoch-1 tail onto the (epoch-0) log
        -- a deposed primary's leftover writes."""
        from repro.wal import WriteAheadLog

        version = load_from_file(seeded).version + 1  # + the keyed commit
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"kind": "update", "epoch": 2, "user": "alice",
                        "script": APPEND_BOB, "version": version + 1})
            wal.append({"kind": "update", "epoch": 1, "user": "alice",
                        "script": APPEND_BOB, "version": version + 2})

    def test_promote_creates_a_primary_log(self, logged, tmp_path, capsys):
        new_dir = str(tmp_path / "promoted")
        assert run("replica", logged, "--promote", new_dir) == 0
        out = capsys.readouterr().out
        assert "promoted to primary: epoch 1" in out
        assert "1 idempotency entr" in out
        # The new log is a self-sufficient primary baseline.
        assert run("failover-status", new_dir) == 0
        out = capsys.readouterr().out
        assert "epoch: 1" in out
        assert "single unbroken epoch line" in out

    def test_promote_diverged_replica_exits_four(
        self, seeded, logged, tmp_path, capsys
    ):
        self.append_epoch_regression(seeded, logged)
        code = run("replica", logged, "--promote", str(tmp_path / "p"))
        assert code == 4
        assert "diverged" in capsys.readouterr().err

    def test_failover_status_clean_log(self, logged, capsys):
        assert run("failover-status", logged) == 0
        out = capsys.readouterr().out
        assert "epoch: 0" in out
        assert "idempotency keys on record: 1" in out
        assert "single unbroken epoch line" in out

    def test_failover_status_fenced_log_exits_four(
        self, seeded, logged, capsys
    ):
        self.append_epoch_regression(seeded, logged)
        assert run("failover-status", logged) == 4
        out = capsys.readouterr().out
        assert "FENCED: 1 stale-epoch record(s)" in out

    def test_failover_status_missing_directory(self, tmp_path):
        assert run("failover-status", str(tmp_path / "nope")) == 2
