"""XUpdate serialization: the round trip the log's replayability rests on."""

import pytest

from repro.xmltree import element, text
from repro.xmltree.fragments import Fragment
from repro.xmltree.node import NodeKind
from repro.xupdate import (
    Append,
    Remove,
    Rename,
    UpdateScript,
    XUpdateSerializeError,
    dump_xupdate,
    parse_xupdate,
)

XUPDATE_NS = 'xmlns:xupdate="http://www.xmldb.org/xupdate"'

SCRIPTS = [
    # one of each instruction, plus nested construction
    f"""<xupdate:modifications {XUPDATE_NS}>
      <xupdate:append select="/log">
        <xupdate:element name="entry">
          <xupdate:attribute name="kind">note</xupdate:attribute>
          hello
          <xupdate:element name="sub">deep</xupdate:element>
        </xupdate:element>
      </xupdate:append>
    </xupdate:modifications>""",
    f"""<xupdate:modifications {XUPDATE_NS}>
      <xupdate:insert-before select="/log/entry[1]">
        <xupdate:element name="first">x</xupdate:element>
      </xupdate:insert-before>
      <xupdate:insert-after select="/log/entry[1]">
        <xupdate:element name="second"/>
      </xupdate:insert-after>
    </xupdate:modifications>""",
    f"""<xupdate:modifications {XUPDATE_NS}>
      <xupdate:update select="/log/entry">rewritten</xupdate:update>
      <xupdate:rename select="/log/entry">renamed</xupdate:rename>
      <xupdate:remove select="/log/renamed"/>
    </xupdate:modifications>""",
    # comment constructor and an emptying update
    f"""<xupdate:modifications {XUPDATE_NS}>
      <xupdate:append select="/log">
        <xupdate:element name="entry"><xupdate:comment>why</xupdate:comment>
        </xupdate:element>
      </xupdate:append>
      <xupdate:update select="/log/entry[1]"/>
    </xupdate:modifications>""",
]


@pytest.mark.parametrize("source", SCRIPTS, ids=["append", "inserts",
                                                 "mutators", "comment"])
def test_round_trip(source):
    # Rebuilt from its operations, the script has no source text, so
    # the serializer (not the parser's copy of ``source``) runs.
    script = UpdateScript(tuple(parse_xupdate(source)))
    assert script.source is None
    out = dump_xupdate(script)
    assert out != source
    assert parse_xupdate(out) == script


@pytest.mark.parametrize("source", SCRIPTS, ids=["append", "inserts",
                                                 "mutators", "comment"])
def test_a_parsed_script_dumps_to_its_own_source(source):
    assert dump_xupdate(parse_xupdate(source)) == source


def test_single_operation_becomes_a_script():
    out = dump_xupdate(Remove("/log/entry"))
    script = parse_xupdate(out)
    assert list(script) == [Remove("/log/entry")]


def test_label_colliding_with_the_prefix_survives():
    """Constructor syntax exists exactly for labels like this one."""
    script = UpdateScript(
        (Append("/log", element("xupdate:element", "tricky")),)
    )
    assert parse_xupdate(dump_xupdate(script)) == script


class TestRefusals:
    def test_whitespace_only_text_tree(self):
        with pytest.raises(XUpdateSerializeError):
            dump_xupdate(Append("/log", text("   ")))

    def test_attribute_fragment(self):
        frag = Fragment(NodeKind.ATTRIBUTE, "a")
        with pytest.raises(XUpdateSerializeError):
            dump_xupdate(Append("/log", frag))

    def test_rename_target_that_parsing_would_strip(self):
        with pytest.raises(XUpdateSerializeError):
            dump_xupdate(Rename("/log/entry", "padded "))
