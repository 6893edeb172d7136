"""Command-line interface to a secure XML database file.

A thin operational shell over the library, working against the
single-file format of :mod:`repro.storage`::

    python -m repro.cli init db.xml --document patients.xml
    python -m repro.cli add-role db.xml staff
    python -m repro.cli add-role db.xml secretary --member-of staff
    python -m repro.cli add-user db.xml beaufort --member-of secretary
    python -m repro.cli grant db.xml read '//*' staff
    python -m repro.cli deny  db.xml read '//diagnosis/*' secretary
    python -m repro.cli show  db.xml
    python -m repro.cli view  db.xml beaufort
    python -m repro.cli query db.xml beaufort 'count(//diagnosis)'
    python -m repro.cli update db.xml laporte updates.xupdate.xml
    python -m repro.cli lint db.xml
    python -m repro.cli recover damaged.xml --write
    python -m repro.cli scrub db.xml.wal --deep
    python -m repro.cli scrub db.xml.wal --repair-from peer.xml.wal
    python -m repro.cli replica db.xml.wal --query beaufort 'count(//*)'
    python -m repro.cli serve db.xml --port 7915

Every mutating command rewrites the database file crash-safely (temp
file + fsync + atomic rename, keeping the previous content in a
rolling ``.bak`` sibling); ``recover`` salvages what it can from a
partially corrupt file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .security.database import SecureXMLDatabase
from .storage import LoadReport, load_from_file, save_to_file
from .xmltree.parser import parse_xml
from .xmltree.serializer import render_tree, serialize
from .xpath.values import is_node_set

__all__ = ["main", "build_parser"]


class CliError(Exception):
    """User-facing command error (bad arguments, refused operation)."""


def _save(db: SecureXMLDatabase, path: str) -> None:
    # Crash-safe: temp file + fsync + atomic rename, rolling .bak.
    save_to_file(db, path)


def _load(path: str) -> SecureXMLDatabase:
    if not os.path.exists(path):
        raise CliError(f"no database file at {path!r} (run 'init' first)")
    return load_from_file(path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_init(args: argparse.Namespace) -> int:
    if os.path.exists(args.database) and not args.force:
        raise CliError(f"{args.database!r} already exists (use --force)")
    if args.document:
        with open(args.document, "r", encoding="utf-8") as handle:
            db = SecureXMLDatabase(parse_xml(handle.read()))
    else:
        db = SecureXMLDatabase.from_xml(args.xml)
    _save(db, args.database)
    print(f"initialized {args.database} ({len(db.document)} nodes)")
    return 0


def cmd_add_role(args: argparse.Namespace) -> int:
    db = _load(args.database)
    db.subjects.add_role(args.name, member_of=args.member_of)
    _save(db, args.database)
    print(f"added role {args.name}")
    return 0


def cmd_add_user(args: argparse.Namespace) -> int:
    db = _load(args.database)
    db.subjects.add_user(args.name, member_of=args.member_of)
    _save(db, args.database)
    print(f"added user {args.name}")
    return 0


def cmd_grant(args: argparse.Namespace) -> int:
    db = _load(args.database)
    rule = db.policy.grant(args.privilege, args.path, args.subject)
    _save(db, args.database)
    print(f"added {rule}")
    return 0


def cmd_deny(args: argparse.Namespace) -> int:
    db = _load(args.database)
    rule = db.policy.deny(args.privilege, args.path, args.subject)
    _save(db, args.database)
    print(f"added {rule}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    db = _load(args.database)
    print(f"document: {len(db.document)} nodes")
    print(f"subjects: {len(db.subjects.roles)} roles, "
          f"{len(db.subjects.users)} users")
    for name in sorted(db.subjects.roles):
        parents = ", ".join(sorted(db.subjects.direct_parents(name))) or "-"
        print(f"  role {name} (isa: {parents})")
    for name in sorted(db.subjects.users):
        parents = ", ".join(sorted(db.subjects.direct_parents(name))) or "-"
        print(f"  user {name} (isa: {parents})")
    print(f"policy: {len(db.policy)} rules")
    for rule in db.policy:
        print(f"  {rule}")
    return 0


def cmd_view(args: argparse.Namespace) -> int:
    db = _load(args.database)
    session = db.login(args.user)
    if args.tree:
        print(session.read_tree())
    else:
        print(session.read_xml(indent="  "))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    db = _load(args.database)
    session = db.login(args.user)
    value = session.query(args.xpath)
    if is_node_set(value):
        view_doc = session.view().doc
        for nid in value:
            print(serialize(view_doc, nid=nid))
    elif isinstance(value, bool):
        print("true" if value else "false")
    elif isinstance(value, float):
        from .xpath.values import number_to_string

        print(number_to_string(value))
    else:
        print(value)
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    db = _load(args.database)
    session = db.login(args.user)
    if os.path.exists(args.xupdate):
        with open(args.xupdate, "r", encoding="utf-8") as handle:
            script = handle.read()
    else:
        script = args.xupdate
    from .security.write import AccessDenied

    try:
        result = session.execute(script, strict=args.strict)
    except AccessDenied as exc:
        # Strict mode: nothing was committed; report and exit 3.
        for denial in exc.denials:
            print(f"  DENIED: {denial}")
        return 3
    _save(db, args.database)
    print(f"selected={len(result.selected)} affected={len(result.affected)} "
          f"denied={len(result.denials)}")
    for denial in result.denials:
        print(f"  DENIED: {denial}")
    return 0 if result.fully_applied else 3


def cmd_lint(args: argparse.Namespace) -> int:
    """Report dead, empty-path and audience-less policy rules."""
    db = _load(args.database)
    warnings = db.lint_policy()
    for warning in warnings:
        print(warning)
    if not warnings:
        print("policy is clean")
        return 0
    print(f"{len(warnings)} warning(s)")
    return 4


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover the database: WAL replay when a log directory exists,
    lenient snapshot load otherwise."""
    wal_dir = args.wal if args.wal else args.database + ".wal"
    if not args.no_wal and os.path.isdir(wal_dir) and os.listdir(wal_dir):
        return _recover_from_wal(args, wal_dir)
    if not os.path.exists(args.database):
        raise CliError(f"no database file at {args.database!r}")
    report = LoadReport()
    db = load_from_file(args.database, mode="lenient", report=report)
    print(report)
    return _report_recovered(args, db, report)


def _report_recovered(args: argparse.Namespace, db, report) -> int:
    print(
        f"recovered: {len(db.document)} document nodes, "
        f"{len(db.subjects.roles)} roles, {len(db.subjects.users)} users, "
        f"{len(db.policy)} rules"
    )
    if args.write:
        _save(db, args.database)
        print(f"rewrote {args.database} with the recovered state")
    return 0 if report.clean else 4


def _recover_from_wal(args: argparse.Namespace, wal_dir: str) -> int:
    """Crash recovery: checkpoint + committed log prefix -> database.

    With ``--write``, the torn tail is physically truncated (so the
    log re-opens for appending) and the recovered state is saved to
    the database file.
    """
    from .wal import recover as wal_recover

    result = wal_recover(wal_dir, repair=args.write)
    print(result.report)
    if result.checkpoint is not None:
        print(
            f"checkpoint: {os.path.basename(result.checkpoint.path)} "
            f"(lsn {result.checkpoint.lsn}, "
            f"version {result.checkpoint.version})"
        )
    print(
        f"replayed {result.replayed} commit record(s) up to "
        f"lsn {result.last_lsn}; recovered version {result.version}"
    )
    return _report_recovered(args, result.database, result.report)


def cmd_wal_inspect(args: argparse.Namespace) -> int:
    """Scan a write-ahead-log directory and print what it holds."""
    from .wal import list_checkpoints, quarantine_reason, scan_directory

    if not os.path.isdir(args.directory):
        raise CliError(f"no log directory at {args.directory!r}")
    scan = scan_directory(args.directory)
    for path in scan.segments:
        in_segment = [r for r in scan.records if r.segment == path]
        first = in_segment[0].lsn if in_segment else "-"
        last = in_segment[-1].lsn if in_segment else "-"
        quarantined = quarantine_reason(path)
        if quarantined is not None:
            status = "QUARANTINED"
        elif scan.torn is not None and scan.torn.segment == path:
            status = "DAMAGED"
        else:
            status = "checksums ok"
        print(
            f"segment {os.path.basename(path)}: {len(in_segment)} "
            f"record(s) (lsn {first}..{last}), "
            f"{os.path.getsize(path)} bytes [{status}]"
        )
        if quarantined is not None:
            print(f"  quarantine reason: {quarantined}")
    for checkpoint in list_checkpoints(args.directory):
        print(
            f"checkpoint {os.path.basename(checkpoint.path)}: "
            f"lsn {checkpoint.lsn}, version {checkpoint.version}"
        )
    kinds: dict = {}
    for record in scan.records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"
    print(f"{len(scan.records)} usable record(s) "
          f"(last lsn {scan.last_lsn}): {summary}")
    if args.records:
        for record in scan.records:
            extra = ""
            if "version" in record.payload:
                extra = f" version={record.payload['version']}"
            if "user" in record.payload:
                extra += f" user={record.payload['user']}"
            if "op" in record.payload:
                extra += f" op={record.payload['op']}"
            print(f"  lsn {record.lsn}: {record.kind}{extra} "
                  f"({record.length} bytes, crc ok)")
    if scan.torn is not None:
        print(f"TORN [{scan.torn.kind}]: {scan.torn}")
        return 4
    print("log is clean")
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Verify a log directory's integrity; optionally repair from a peer.

    Walks every WAL segment (record CRCs, structure) and checkpoint
    (integrity headers; full SHA-256 recompute under ``--deep``),
    quarantining non-tail corruption exactly like the background
    scrubber.  With ``--repair-from`` a damaged directory is rebuilt
    from the named healthy peer directory and re-verified.  Exit 4
    when corruption was found (and not repaired).
    """
    from .scrub import scrub_directory

    wal_dir = args.wal_dir if args.wal_dir else args.directory
    if not os.path.isdir(wal_dir):
        raise CliError(f"no log directory at {wal_dir!r}")
    report = scrub_directory(wal_dir, deep=args.deep)
    print(
        f"scrubbed {wal_dir}: {report.records_verified} record(s), "
        f"{report.segments_verified} clean segment(s), "
        f"{report.checkpoints_verified} checkpoint(s), "
        f"{report.bytes_verified} byte(s)"
    )
    for finding in report.findings:
        print(f"  {finding}")
    if report.clean:
        print("integrity ok")
        return 0
    if args.repair_from:
        from .errors import RepairError
        from .replication import repair_from_peer

        try:
            repaired = repair_from_peer(wal_dir, args.repair_from)
        except RepairError as exc:
            print(f"repair failed ({exc.reason}): {exc}")
            return 4
        print(
            f"repaired from {args.repair_from}: "
            f"{repaired.segments_copied} segment(s) and "
            f"{repaired.checkpoints_copied} checkpoint(s) installed, "
            f"{len(repaired.moved_aside)} damaged file(s) moved to "
            f"{repaired.damaged_dir or '(nothing)'}; rejoins at epoch "
            f"{repaired.epoch}, lsn {repaired.last_lsn}"
        )
        after = scrub_directory(wal_dir, deep=args.deep)
        if after.clean:
            print("post-repair integrity ok")
            return 0
        for finding in after.findings:
            print(f"  {finding}")
        print("post-repair scrub still found damage")
        return 4
    print("corruption found; repair from a healthy peer "
          "(--repair-from PEERDIR)")
    return 4


def cmd_replica(args: argparse.Namespace) -> int:
    """Stand up a read replica over a primary's log directory.

    Seeds from the newest checkpoint plus the committed log suffix
    (never writing to the primary's files), reports applied position
    and lag against the log tail, and optionally serves a read-only
    query from the replica's authorized view.  With ``--follow``, keeps
    polling the stream and reporting progress until interrupted.
    """
    import time as time_module

    from .replication import Replica

    if not os.path.isdir(args.directory):
        raise CliError(f"no log directory at {args.directory!r}")
    replica = Replica(args.directory)

    def report() -> None:
        print(
            f"replica {replica.replica_id}: version {replica.version}, "
            f"applied lsn {replica.applied_lsn}, lag {replica.lag()} "
            f"record(s), state {replica.state}"
        )

    report()
    if args.follow:
        try:
            while True:
                applied = replica.poll()
                if applied:
                    report()
                time_module.sleep(args.interval)
        except KeyboardInterrupt:
            print("stopped")
    if args.query:
        user, xpath = args.query
        value, version = replica.serve(user, lambda s: s.query(xpath))
        print(f"[version {version}] {value}")
    if args.stats:
        for key, val in sorted(replica.stats().items()):
            print(f"  {key}: {val}")
    if args.promote:
        if replica.quarantined:
            print(
                f"cannot promote a quarantined replica "
                f"({replica.stats()['quarantine_reason']})",
                file=sys.stderr,
            )
            return 4
        from .errors import ReplicaDiverged
        from .serving import DatabaseServer
        from .wal import WriteAheadLog

        try:
            replica.sync()  # drain to the reachable end of the old log
        except ReplicaDiverged as exc:
            print(
                f"cannot promote: replica diverged while draining "
                f"({exc})",
                file=sys.stderr,
            )
            return 4
        new_epoch = replica.epoch + 1
        os.makedirs(args.promote, exist_ok=True)
        database = replica.database
        database.set_read_only(False)
        wal = WriteAheadLog(args.promote, epoch=new_epoch)
        server = DatabaseServer(database, wal=wal)
        server.checkpoint()
        server.dedup.seed(replica.dedup_entries())
        server.mark_promoted()
        print(
            f"promoted to primary: epoch {new_epoch}, version "
            f"{server.database.version}, log {args.promote} "
            f"({len(server.dedup)} idempotency entr(ies) carried over)"
        )
        return 0
    return 4 if replica.quarantined else 0


def cmd_failover_status(args: argparse.Namespace) -> int:
    """Report a log directory's failover state.

    Prints the fencing-epoch line of the log (checkpoints and records),
    the applied position, and the idempotency ledger the log would
    rebuild.  Exit 4 when the log holds *stale-epoch* records -- a
    deposed primary kept writing after a promotion elsewhere; those
    records are fenced (never applied by replicas, never acknowledged).
    """
    from .wal import list_checkpoints, scan_directory

    if not os.path.isdir(args.directory):
        raise CliError(f"no log directory at {args.directory!r}")
    scan = scan_directory(args.directory)
    checkpoints = list_checkpoints(args.directory)
    checkpoint_epoch = max((c.epoch for c in checkpoints), default=0)
    observed = checkpoint_epoch
    stale = []
    idem_keys = set()
    for record in scan.records:
        if record.epoch < observed:
            stale.append(record)
        else:
            observed = record.epoch
        if record.payload.get("idem") is not None:
            idem_keys.add(str(record.payload["idem"]))
    print(f"epoch: {observed}")
    print(
        f"last lsn: {scan.last_lsn}, {len(scan.records)} usable record(s)"
    )
    for checkpoint in checkpoints:
        print(
            f"checkpoint lsn {checkpoint.lsn}: "
            f"version {checkpoint.version}, epoch {checkpoint.epoch}"
        )
    print(f"idempotency keys on record: {len(idem_keys)}")
    if scan.torn is not None:
        print(f"TORN: {scan.torn}")
    if stale:
        print(
            f"FENCED: {len(stale)} stale-epoch record(s), first at "
            f"lsn {stale[0].lsn} (epoch {stale[0].epoch} after "
            f"{observed} was reached)"
        )
        return 4
    print("single unbroken epoch line")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the database over the framed network protocol.

    Opens the file through :meth:`DatabaseServer.open` (crash recovery
    + write-ahead log with the requested durability), then listens
    with the asyncio front-end: per-connection sessions, pipelining,
    deadline propagation, and every write script committed through a
    group commit (concurrent scripts share one fsync; ``--max-batch 1``
    gives one fsync per commit).
    Prints ``listening on HOST:PORT`` once accepting (port 0 picks a
    free one), then runs until interrupted.
    """
    import asyncio

    from .netserve import NetServer
    from .serving import DatabaseServer

    server = DatabaseServer.open(
        args.database,
        durability=args.durability,
        max_in_flight=args.max_in_flight,
        overload=args.overload,
        default_deadline=args.deadline,
        checkpoint_every=args.checkpoint_every,
    )
    net = NetServer(
        server,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_pipeline=args.max_pipeline,
        executor_workers=args.workers,
    )

    async def run() -> None:
        await net.start()
        print(f"listening on {net.host}:{net.port}", flush=True)
        try:
            await net.serve_forever()
        finally:
            await net.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def cmd_audit_demo(args: argparse.Namespace) -> int:
    """Load, replay one operation, and show the audit decisions.

    The audit log is in-memory (the file format stores only the theory),
    so this command exists to inspect decisions interactively.
    """
    db = _load(args.database)
    session = db.login(args.user)
    session.execute(args.xupdate)
    for record in db.audit:
        print(record)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-xmlsec",
        description="Secure XML database (Gabillon 2005) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a database file")
    p.add_argument("database")
    p.add_argument("--document", help="XML file to load as the document")
    p.add_argument("--xml", default="<root/>", help="inline document XML")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=cmd_init)

    p = sub.add_parser("add-role", help="declare a role")
    p.add_argument("database")
    p.add_argument("name")
    p.add_argument("--member-of")
    p.set_defaults(handler=cmd_add_role)

    p = sub.add_parser("add-user", help="declare a user")
    p.add_argument("database")
    p.add_argument("name")
    p.add_argument("--member-of")
    p.set_defaults(handler=cmd_add_user)

    for verb, handler in (("grant", cmd_grant), ("deny", cmd_deny)):
        p = sub.add_parser(verb, help=f"{verb} a privilege on a path")
        p.add_argument("database")
        p.add_argument("privilege",
                       choices=["position", "read", "insert", "update", "delete"])
        p.add_argument("path")
        p.add_argument("subject")
        p.set_defaults(handler=handler)

    p = sub.add_parser("show", help="print subjects and policy")
    p.add_argument("database")
    p.set_defaults(handler=cmd_show)

    p = sub.add_parser("view", help="print a user's authorized view")
    p.add_argument("database")
    p.add_argument("user")
    p.add_argument("--tree", action="store_true",
                   help="paper's figure notation instead of XML")
    p.set_defaults(handler=cmd_view)

    p = sub.add_parser("query", help="evaluate XPath on a user's view")
    p.add_argument("database")
    p.add_argument("user")
    p.add_argument("xpath")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("update", help="apply an XUpdate script as a user")
    p.add_argument("database")
    p.add_argument("user")
    p.add_argument("xupdate", help="file path or inline XUpdate XML")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 3) on any denial without committing")
    p.set_defaults(handler=cmd_update)

    p = sub.add_parser("lint",
                       help="report dead/unreachable policy rules (exit 4 "
                            "when any are found)")
    p.add_argument("database")
    p.set_defaults(handler=cmd_lint)

    p = sub.add_parser("recover",
                       help="recover the database -- WAL replay when a log "
                            "directory exists, lenient snapshot load "
                            "otherwise (exit 4 when anything was dropped)")
    p.add_argument("database")
    p.add_argument("--wal", metavar="DIR",
                   help="write-ahead-log directory "
                        "(default: DATABASE + '.wal')")
    p.add_argument("--no-wal", action="store_true",
                   help="ignore any log directory; lenient snapshot "
                        "load only")
    p.add_argument("--write", action="store_true",
                   help="rewrite the file with the recovered state (and "
                        "truncate the log's torn tail)")
    p.set_defaults(handler=cmd_recover)

    p = sub.add_parser("wal", help="write-ahead log maintenance")
    wal_sub = p.add_subparsers(dest="wal_command", required=True)
    p = wal_sub.add_parser("inspect",
                           help="scan segments and checkpoints (exit 4 "
                                "when the log has a torn tail)")
    p.add_argument("directory")
    p.add_argument("--records", action="store_true",
                   help="list every usable record")
    p.set_defaults(handler=cmd_wal_inspect)

    p = sub.add_parser("scrub",
                       help="verify a log directory's record checksums "
                            "and checkpoint digests (exit 4 when "
                            "corruption was found and not repaired)")
    p.add_argument("directory", nargs="?", default="",
                   help="the log directory to scrub")
    p.add_argument("--wal-dir", default="",
                   help="alternative way to name the log directory")
    p.add_argument("--deep", action="store_true",
                   help="recompute every checkpoint's SHA-256, not just "
                        "check its integrity header")
    p.add_argument("--repair-from", metavar="PEERDIR", default="",
                   help="when corruption is found, rebuild this "
                        "directory from the named healthy peer log "
                        "directory (anti-entropy repair)")
    p.set_defaults(handler=cmd_scrub)

    p = sub.add_parser("replica",
                       help="stand up a read replica over a primary's "
                            "write-ahead-log directory (exit 4 when the "
                            "replica is quarantined as diverged)")
    p.add_argument("directory", help="the primary's log directory")
    p.add_argument("--query", nargs=2, metavar=("USER", "XPATH"),
                   help="evaluate XPath on USER's view of the replica")
    p.add_argument("--follow", action="store_true",
                   help="keep tailing the log until interrupted")
    p.add_argument("--interval", type=float, default=0.5,
                   help="poll interval while following, seconds")
    p.add_argument("--stats", action="store_true",
                   help="print the replica's health counters")
    p.add_argument("--promote", metavar="NEWDIR",
                   help="promote this replica to a full primary: drain "
                        "the old log, then open a fresh write-ahead log "
                        "at NEWDIR under the next fencing epoch (exit 4 "
                        "when the replica is quarantined)")
    p.set_defaults(handler=cmd_replica)

    p = sub.add_parser("failover-status",
                       help="report a log directory's fencing epoch and "
                            "idempotency ledger (exit 4 when fenced "
                            "stale-epoch records are present)")
    p.add_argument("directory", help="a primary's log directory")
    p.set_defaults(handler=cmd_failover_status)

    p = sub.add_parser("serve",
                       help="serve the database over the framed network "
                            "protocol (write-ahead durable, group commit)")
    p.add_argument("database", help="snapshot file; its '.wal' sibling "
                                    "directory is recovered/attached")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (printed on startup)")
    p.add_argument("--durability", default="always",
                   help="WAL fsync policy: always | os")
    p.add_argument("--max-batch", type=int, default=128,
                   help="commit group size ceiling")
    p.add_argument("--max-pipeline", type=int, default=32,
                   help="in-flight requests allowed per connection")
    p.add_argument("--workers", type=int, default=8,
                   help="threads for blocking database work")
    p.add_argument("--max-in-flight", type=int, default=None,
                   help="admission budget (default: unlimited)")
    p.add_argument("--overload", choices=["block", "shed"], default="block")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-request deadline, seconds")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="auto-checkpoint after this many commits")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("audit-demo",
                       help="replay one operation and print the decisions")
    p.add_argument("database")
    p.add_argument("user")
    p.add_argument("xupdate")
    p.set_defaults(handler=cmd_audit_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface library errors compactly
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
