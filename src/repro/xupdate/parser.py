"""Parser for the XUpdate XML syntax (xmldb.org working draft [15]).

Turns an ``<xupdate:modifications>`` document into an
:class:`~repro.xupdate.operations.UpdateScript`.  Supported
instructions are exactly the six the paper covers::

    <xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:rename select="//service">department</xupdate:rename>
      <xupdate:update select="/patients/franck/diagnosis">pharyngitis</xupdate:update>
      <xupdate:append select="/patients">
        <xupdate:element name="albert">
          <service>cardiology</service>
        </xupdate:element>
      </xupdate:append>
      <xupdate:insert-before select="//robert">...</xupdate:insert-before>
      <xupdate:insert-after select="//robert">...</xupdate:insert-after>
      <xupdate:remove select="/patients/franck/diagnosis"/>
    </xupdate:modifications>

Content of the creation instructions may mix ``xupdate:element``,
``xupdate:attribute``, ``xupdate:text`` constructors and literal XML.
A creation instruction whose content holds several top-level nodes
wraps them in sequence (each is attached in order).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..xmltree.fragments import Fragment
from ..xmltree.node import NodeKind
from ..xmltree.parser import parse_fragment
from .operations import (
    Append,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    UpdateScript,
    XUpdateOperation,
)

__all__ = ["XUpdateParseError", "parse_xupdate"]

_PREFIXES = ("xupdate:", "xu:")


class XUpdateParseError(ValueError):
    """Structurally invalid XUpdate document."""


def _strip_prefix(name: str) -> Optional[str]:
    """The local part of an xupdate-prefixed name, else None."""
    for prefix in _PREFIXES:
        if name.startswith(prefix):
            return name[len(prefix) :]
    return None


def _attr(fragment: Fragment, name: str) -> Optional[str]:
    for key, value in fragment.attributes:
        if key == name:
            return value
    return None


def _require_select(fragment: Fragment, what: str) -> str:
    select = _attr(fragment, "select")
    if not select:
        raise XUpdateParseError(f"<xupdate:{what}> requires a select attribute")
    return select


def _text_content(fragment: Fragment, what: str) -> str:
    parts: List[str] = []
    for child in fragment.children:
        if child.kind is not NodeKind.TEXT:
            raise XUpdateParseError(
                f"<xupdate:{what}> content must be character data"
            )
        parts.append(child.label)
    return "".join(parts)


def _build_content(fragment: Fragment) -> List[Fragment]:
    """Expand constructor elements into plain fragments."""
    out: List[Fragment] = []
    for child in fragment.children:
        out.append(_build_one(child))
    if not out:
        raise XUpdateParseError("creation instruction has no content")
    return out


def _build_one(fragment: Fragment) -> Fragment:
    if fragment.kind is NodeKind.TEXT:
        return fragment
    local = _strip_prefix(fragment.label)
    if local is None:
        # Literal XML content is used verbatim.
        return Fragment(
            fragment.kind,
            fragment.label,
            fragment.attributes,
            tuple(_build_one(c) for c in fragment.children),
        )
    if local == "element":
        name = _attr(fragment, "name")
        if not name:
            raise XUpdateParseError("<xupdate:element> requires a name attribute")
        attrs: List[Tuple[str, str]] = []
        children: List[Fragment] = []
        for child in fragment.children:
            sub_local = (
                _strip_prefix(child.label)
                if child.kind is NodeKind.ELEMENT
                else None
            )
            if sub_local == "attribute":
                attr_name = _attr(child, "name")
                if not attr_name:
                    raise XUpdateParseError(
                        "<xupdate:attribute> requires a name attribute"
                    )
                attrs.append((attr_name, _text_content(child, "attribute")))
            else:
                children.append(_build_one(child))
        return Fragment(NodeKind.ELEMENT, name, tuple(attrs), tuple(children))
    if local == "text":
        return Fragment(NodeKind.TEXT, _text_content(fragment, "text"))
    if local == "comment":
        return Fragment(NodeKind.COMMENT, _text_content(fragment, "comment"))
    raise XUpdateParseError(f"unsupported constructor <xupdate:{local}>")


def _content_fragments(instruction: Fragment, what: str) -> List[Fragment]:
    content = _build_content(instruction)
    for item in content:
        if item.kind is NodeKind.TEXT and not item.label.strip():
            raise XUpdateParseError(f"<xupdate:{what}> has empty content")
    return content


def parse_xupdate(source: str) -> UpdateScript:
    """Parse an XUpdate document into an :class:`UpdateScript`.

    The returned script records ``source`` as its
    :attr:`~UpdateScript.source`, so :func:`~repro.xupdate.dump_xupdate`
    hands the same text back instead of re-encoding the operations.

    Raises:
        XUpdateParseError: for unknown instructions or missing
            attributes.
        repro.xmltree.parser.XMLSyntaxError: for malformed XML.
    """
    root = parse_fragment(source)
    if _strip_prefix(root.label) != "modifications":
        raise XUpdateParseError(
            f"expected <xupdate:modifications>, got <{root.label}>"
        )
    operations: List[XUpdateOperation] = []
    for instruction in root.children:
        if instruction.kind is NodeKind.TEXT:
            if instruction.label.strip():
                raise XUpdateParseError("stray text in <xupdate:modifications>")
            continue
        local = _strip_prefix(instruction.label)
        if local is None:
            raise XUpdateParseError(
                f"unexpected element <{instruction.label}> in modifications"
            )
        if local == "rename":
            operations.append(
                Rename(
                    _require_select(instruction, local),
                    _text_content(instruction, local).strip(),
                )
            )
        elif local == "update":
            operations.append(
                UpdateContent(
                    _require_select(instruction, local),
                    _text_content(instruction, local),
                )
            )
        elif local == "remove":
            operations.append(Remove(_require_select(instruction, local)))
        elif local in ("append", "insert-before", "insert-after"):
            select = _require_select(instruction, local)
            for content in _content_fragments(instruction, local):
                if local == "append":
                    operations.append(Append(select, content))
                elif local == "insert-before":
                    operations.append(InsertBefore(select, content))
                else:
                    operations.append(InsertAfter(select, content))
        elif local == "variable":
            raise XUpdateParseError(
                "<xupdate:variable> is not supported (out of the paper's scope)"
            )
        else:
            raise XUpdateParseError(f"unknown instruction <xupdate:{local}>")
    script = UpdateScript(tuple(operations))
    object.__setattr__(script, "source", source)
    return script
