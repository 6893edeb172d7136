"""Encode once: a parsed script is logged as the text it came from.

``dbnew`` is a function of ``db`` and the committed script (formulae
(2)-(9)), so a log record needs only *a* text that parses to that
script -- and the text a client sent is one.  A served write is logged
byte for byte as sent; only a script built from Python objects is
serialized (and round-trip verified), and an operation with no XUpdate
spelling still falls back to a ``state`` record.
"""

from repro.replication import Replica
from repro.serving import DatabaseServer, GroupCommitter
from repro.storage import state_digest
from repro.wal import WriteAheadLog, recover, scan_directory
from repro.xmltree import element
from repro.xmltree.fragments import Fragment
from repro.xmltree.node import NodeKind
from repro.xupdate import Append, UpdateScript, dump_xupdate, parse_xupdate

from .conftest import editors_database

#: Nothing like ``dump_xupdate``'s spelling: single-quoted attributes,
#: an XML comment, whitespace between instructions, ``&amp;`` in
#: content and literal (not constructor) XML.
NON_CANONICAL = """<xupdate:modifications xmlns:xupdate='http://www.xmldb.org/xupdate'>
  <!-- logged exactly as sent -->
  <xupdate:append select='/log'>
    <xupdate:element name='entry'>fish &amp; chips</xupdate:element>
  </xupdate:append>

  <xupdate:append select='/log'><note kind='aside'>a &amp; b</note></xupdate:append>
  <xupdate:update   select='/log/entry[1]'>salt &amp; vinegar</xupdate:update>
</xupdate:modifications>"""


def digest(db) -> str:
    return state_digest(db.document, db.subjects, db.policy)


def update_scripts(wal_dir):
    return [
        record.payload["script"]
        for record in scan_directory(wal_dir).records
        if record.payload.get("kind") == "update"
    ]


def test_a_served_write_logs_the_text_it_was_sent(wal_dir):
    db = editors_database()
    db.attach_wal(WriteAheadLog(wal_dir))
    db.wal.checkpoint(db)
    replica = Replica(wal_dir)
    committer = GroupCommitter(DatabaseServer(db))

    result = committer.commit("w1", NON_CANONICAL)

    assert result.fully_applied
    rebuilt = UpdateScript(tuple(parse_xupdate(NON_CANONICAL)))
    assert dump_xupdate(rebuilt) != NON_CANONICAL  # a re-encode would show
    assert update_scripts(wal_dir) == [NON_CANONICAL]
    assert db.wal.stats["state_fallbacks"] == 0
    live = digest(db)
    replica.sync()
    assert replica.version == db.version
    assert digest(replica.database) == live
    db.detach_wal().close()
    assert digest(recover(wal_dir).database) == live


def test_a_script_built_from_objects_logs_the_verified_dump(logged_db, wal_dir):
    script = UpdateScript((Append("/log", element("built", "by hand")),))
    logged_db.login("w1").execute(script)
    assert update_scripts(wal_dir) == [dump_xupdate(script)]
    assert parse_xupdate(update_scripts(wal_dir)[0]) == script


def test_an_attribute_fragment_still_falls_back_to_a_state_record(
    logged_db, wal_dir
):
    attribute = Fragment(NodeKind.ATTRIBUTE, "kind")
    logged_db.admin_update(Append("/log/entry", attribute))
    assert logged_db.wal.stats["state_fallbacks"] == 1
    kinds = [r.payload["kind"] for r in scan_directory(wal_dir).records]
    assert kinds[-1] == "state"


def test_source_is_not_part_of_the_value():
    parsed = parse_xupdate(NON_CANONICAL)
    built = UpdateScript(tuple(parsed))
    assert parsed.source == NON_CANONICAL and built.source is None
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)
    assert "source" not in repr(parsed)
