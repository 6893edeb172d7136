"""The six XUpdate operations (paper section 3.4, XUpdate WD [15]).

Each operation is a small immutable description: the PATH selecting the
target nodes plus the operation-specific payload (a new label VNEW or a
tree TREE).  Executing operations -- with or without access control --
is the job of :mod:`repro.xupdate.executor` and
:mod:`repro.security.write` respectively; keeping descriptions separate
from execution mirrors the paper's split between the operation's
parameters and the link axioms that interpret them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..xmltree.fragments import Fragment

__all__ = [
    "XUpdateOperation",
    "Rename",
    "UpdateContent",
    "Append",
    "InsertBefore",
    "InsertAfter",
    "Remove",
    "UpdateScript",
]


class XUpdateOperation:
    """Base class for the six XUpdate instructions."""

    __slots__ = ()

    #: The privilege the paper's write access controls require
    #: (section 4.4.2); informational -- enforcement lives in
    #: :mod:`repro.security.write`.
    required_privilege: str = ""


@dataclass(frozen=True)
class Rename(XUpdateOperation):
    """``xupdate:rename``: relabel the nodes addressed by ``path``.

    Logical semantics: formulae (2)-(3).  Secure semantics: axioms
    (18)-(19) -- requires the *update* privilege on each selected node.
    """

    path: str
    new_name: str
    required_privilege = "update"


@dataclass(frozen=True)
class UpdateContent(XUpdateOperation):
    """``xupdate:update``: set the content of the nodes at ``path``.

    The paper reads this as relabelling every *child* of each selected
    node to VNEW (formulae (4)-(5)); secure semantics axioms (20)-(21)
    require both *update* and *read* on the affected children.
    """

    path: str
    new_value: str
    required_privilege = "update"


@dataclass(frozen=True)
class Append(XUpdateOperation):
    """``xupdate:append``: insert ``tree`` as last child subtree.

    Logical semantics: formulae (6)-(7) with ``o = append``; secure
    semantics axiom (22) -- requires *insert* on each selected node.
    """

    path: str
    tree: Fragment
    required_privilege = "insert"


@dataclass(frozen=True)
class InsertBefore(XUpdateOperation):
    """``xupdate:insert-before``: insert ``tree`` as preceding sibling.

    Formulae (6)-(7) with ``o = insert-before``; secure semantics axiom
    (23) -- requires *insert* on the *parent* of each selected node.
    """

    path: str
    tree: Fragment
    required_privilege = "insert"


@dataclass(frozen=True)
class InsertAfter(XUpdateOperation):
    """``xupdate:insert-after``: insert ``tree`` as following sibling.

    Formulae (6)-(7) with ``o = insert-after``; secure semantics axiom
    (24) -- requires *insert* on the *parent* of each selected node.
    """

    path: str
    tree: Fragment
    required_privilege = "insert"


@dataclass(frozen=True)
class Remove(XUpdateOperation):
    """``xupdate:remove``: delete the subtrees rooted at ``path``.

    Logical semantics: formulae (8)-(9); secure semantics axiom (25) --
    requires *delete* on each selected node, and (the paper's explicit
    confidentiality-over-integrity choice) removes invisible descendants
    silently rather than revealing their existence by failing.
    """

    path: str
    required_privilege = "delete"


@dataclass(frozen=True)
class UpdateScript:
    """An ordered batch of operations: one ``<xupdate:modifications>``.

    ``source`` is the XUpdate text the script was parsed from, set only
    by :func:`~repro.xupdate.parser.parse_xupdate`; a script built from
    Python objects has none.  It is not a constructor argument and
    takes no part in ``==``, ``hash()`` or ``repr()``: two scripts with
    the same operations are the same script, however they were spelled.
    """

    operations: Tuple[XUpdateOperation, ...]
    source: Optional[str] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __iter__(self):
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)
