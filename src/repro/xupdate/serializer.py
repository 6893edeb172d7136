"""Serializer for the XUpdate XML syntax: scripts back to documents.

The inverse of :mod:`repro.xupdate.parser`: an
:class:`~repro.xupdate.operations.UpdateScript` (or a single operation)
becomes an ``<xupdate:modifications>`` document that
:func:`~repro.xupdate.parser.parse_xupdate` turns back into an *equal*
script.  The write-ahead log (:mod:`repro.wal`) depends on that
round-trip to make committed scripts replayable: a record is only as
good as the script it reconstructs.

A script that came out of :func:`parse_xupdate` already has such a
text -- the one it was parsed from, kept as
:attr:`~repro.xupdate.operations.UpdateScript.source` -- and
:func:`dump_xupdate` returns it unchanged: the parser is deterministic
and every operation and fragment is frozen, so re-parsing it yields an
equal script by construction.  A served write is therefore logged as
the text the client sent, encoded once.

Only a script built from Python objects is serialized here.  It is
spelled in the constructor syntax (``xupdate:element`` /
``xupdate:attribute`` / ``xupdate:text`` / ``xupdate:comment``) rather
than literal XML -- constructors carry any label, including ones that
would collide with the ``xupdate:`` prefix itself -- and the output is
re-parsed to check the round trip.

Not every programmatically built operation has an XUpdate spelling: a
bare attribute fragment, a whitespace-only text tree, or a rename whose
new name the parser would strip differently all refuse to serialize
with :class:`XUpdateSerializeError`.  Callers that must persist such an
operation fall back to logging a full database snapshot instead (see
``repro.wal.log``).
"""

from __future__ import annotations

from typing import List, Union

from ..xmltree.document import XMLDocument
from ..xmltree.fragments import Fragment, element, text
from ..xmltree.node import NodeKind
from ..xmltree.serializer import serialize
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
from .parser import parse_xupdate

__all__ = ["XUpdateSerializeError", "dump_xupdate"]

_XUPDATE_NS = ("xmlns:xupdate", "http://www.xmldb.org/xupdate")


class XUpdateSerializeError(ValueError):
    """The operation has no faithful XUpdate spelling."""


def _constructor(fragment: Fragment) -> Fragment:
    """Rewrite a tree fragment in xupdate constructor syntax."""
    if fragment.kind is NodeKind.TEXT:
        if not fragment.label.strip():
            raise XUpdateSerializeError(
                "whitespace-only text trees parse back as empty content"
            )
        return element("xupdate:text", text(fragment.label))
    if fragment.kind is NodeKind.COMMENT:
        return element("xupdate:comment", text(fragment.label))
    if fragment.kind is not NodeKind.ELEMENT:
        raise XUpdateSerializeError(
            f"{fragment.kind.name.lower()} fragments have no XUpdate "
            f"constructor"
        )
    children: List[Fragment] = [
        element("xupdate:attribute", text(value), attributes={"name": name})
        for name, value in fragment.attributes
    ]
    for child in fragment.children:
        if child.kind is NodeKind.TEXT:
            children.append(child)  # literal text is kept verbatim
        else:
            children.append(_constructor(child))
    return element(
        "xupdate:element", *children, attributes={"name": fragment.label}
    )


def _instruction(op: XUpdateOperation) -> Fragment:
    """One operation as its ``<xupdate:...>`` instruction element."""
    if isinstance(op, Rename):
        if op.new_name != op.new_name.strip():
            raise XUpdateSerializeError(
                f"rename target {op.new_name!r} would be stripped on parse"
            )
        body = [text(op.new_name)] if op.new_name else []
        return element(
            "xupdate:rename", *body, attributes={"select": op.path}
        )
    if isinstance(op, UpdateContent):
        body = [text(op.new_value)] if op.new_value else []
        return element(
            "xupdate:update", *body, attributes={"select": op.path}
        )
    if isinstance(op, Remove):
        return element("xupdate:remove", attributes={"select": op.path})
    if isinstance(op, (Append, InsertBefore, InsertAfter)):
        name = {
            Append: "xupdate:append",
            InsertBefore: "xupdate:insert-before",
            InsertAfter: "xupdate:insert-after",
        }[type(op)]
        return element(
            name, _constructor(op.tree), attributes={"select": op.path}
        )
    raise XUpdateSerializeError(f"unknown operation {op!r}")


def dump_xupdate(
    operation: Union[XUpdateOperation, UpdateScript], verify: bool = True
) -> str:
    """Serialize a script (or one operation) to XUpdate XML text.

    A script parsed by :func:`parse_xupdate` is returned as its
    :attr:`~UpdateScript.source`, byte for byte: that text parses to
    the script by definition, so nothing is serialized or verified.

    Args:
        operation: an :class:`UpdateScript` or a single operation; a
            single operation is emitted as a one-instruction script.
        verify: re-parse the serialized output and require equality
            with the input script (the default) -- guarantees the text
            is a faithful, replayable description, which is what the
            write-ahead log needs.

    Raises:
        XUpdateSerializeError: the operation has no XUpdate spelling,
            or (with ``verify``) the round-trip is not exact.
    """
    if isinstance(operation, UpdateScript):
        if operation.source is not None:
            return operation.source
        script = operation
    else:
        script = UpdateScript((operation,))
    bundle = element(
        "xupdate:modifications",
        *[_instruction(op) for op in script],
        attributes={_XUPDATE_NS[0]: _XUPDATE_NS[1]},
    )
    carrier = XMLDocument()
    bundle.attach(carrier, carrier.document_node.nid)
    out = serialize(carrier)
    if verify:
        try:
            reparsed = parse_xupdate(out)
        except Exception as exc:
            raise XUpdateSerializeError(
                f"serialized script does not re-parse: {exc}"
            ) from exc
        if reparsed != script:
            raise XUpdateSerializeError(
                "serialized script does not round-trip to an equal script"
            )
    return out
