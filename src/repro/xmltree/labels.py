"""Persistent node-numbering schemes for XML trees.

The paper (section 3.1) requires a numbering scheme with two properties:

1. *Geometry derivability*: every tree-geometry relation (parent, child,
   ancestor, descendant, sibling order, document order) can be derived by
   looking only at the node numbers.
2. *Persistence*: numbers assigned to existing nodes never change, even
   after updates that restructure the tree (no renumbering).

The paper cites several schemes ([21][6][24][8]) and uses its own
persistent scheme [12] in the Prolog prototype.  That scheme was never
published in full, so this module provides:

- :class:`PersistentDeweyScheme` -- the default.  A Dewey-style label
  whose components are exact rationals (``fractions.Fraction``), so a new
  sibling can always be inserted *between* two existing siblings without
  touching their labels.  Functionally equivalent to the paper's [12] and
  to ORDPATH-style careting, but simpler to reason about and easy to
  property-test.
- :class:`LSDXScheme` -- a string-based scheme in the spirit of LSDX [8]
  (Duong & Zhang 2005): labels are ``level`` + an alphabetic ordering key
  per ancestor step; insert-between generates a key lexicographically
  between its neighbours.
- :class:`RenumberingScheme` -- a *naive* integer Dewey scheme that must
  renumber following siblings (and their subtrees) on insert-between.  It
  intentionally violates persistence and exists as the ablation baseline
  for benchmark E13.

All schemes share the :class:`NumberingScheme` interface and produce
:class:`NodeId` values that are hashable, totally ordered in document
order, and self-describing (parent/level derivable from the id alone).
"""

from __future__ import annotations

import itertools
import string
from bisect import bisect_left
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple

__all__ = [
    "NodeId",
    "DOCUMENT_ID",
    "NumberingScheme",
    "PersistentDeweyScheme",
    "LSDXScheme",
    "RenumberingScheme",
    "document_order_key",
    "order_index",
]


#: Key tags.  Components of mixed types never occur within one document,
#: but tagging them (rationals first) keeps comparisons total anyway.
_RATIONAL, _OTHER = 0, 1


def _key_part(component: object) -> Tuple[int, object]:
    """One component's two slots of the document-order key: its tag and
    the component itself -- an integral rational as a plain ``int``, so
    that comparing two keys never leaves C."""
    if isinstance(component, (Fraction, int)):
        if component.denominator == 1:
            return (_RATIONAL, component.numerator)
        return (_RATIONAL, component)
    return (_OTHER, component)


_set = object.__setattr__


class NodeId:
    """A node identifier: an immutable path of ordering components.

    ``components`` is a tuple of per-level ordering keys.  The empty tuple
    is the *document node* (the paper writes its identifier as ``/``).
    Components must be mutually comparable within one document; the
    default scheme uses :class:`fractions.Fraction`, the LSDX scheme uses
    strings.  Document order is depth-first pre-order, which for path
    labels is exactly the lexicographic order of the component tuples.

    Every index in the system is keyed or ordered by these ids, so an id
    computes its hash and its document-order key once, at construction:
    hashing returns a stored ``int`` and comparing two ids compares two
    stored tuples.  The key is flat -- ``(tag, component, tag, component,
    ...)`` -- hence an id is a proper ancestor of another exactly when
    its key is a proper prefix of the other's, and the ids below a node
    are a contiguous run of any key-ordered sequence.
    """

    __slots__ = ("components", "_key", "_hash")

    components: Tuple[object, ...]

    def __init__(self, components: Tuple[object, ...]) -> None:
        key: Tuple[object, ...] = ()
        for component in components:
            key += _key_part(component)
        _set(self, "components", components)
        _set(self, "_key", key)
        # == hash(components): an integral Fraction hashes like its int.
        _set(self, "_hash", hash(key[1::2]))

    @classmethod
    def _derived(
        cls, components: Tuple[object, ...], key: Tuple[object, ...]
    ) -> "NodeId":
        """An id whose key the caller cut from, or grew onto, a
        relative's -- ``parent``/``child`` skip the per-component pass."""
        nid = object.__new__(cls)
        _set(nid, "components", components)
        _set(nid, "_key", key)
        _set(nid, "_hash", hash(key[1::2]))
        return nid

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (NodeId, (self.components,))

    # -- structure ---------------------------------------------------------
    @property
    def level(self) -> int:
        """Depth of the node; the document node is at level 0."""
        return len(self.components)

    @property
    def is_document(self) -> bool:
        """True for the document node (identifier ``/``)."""
        return not self.components

    def parent(self) -> "NodeId":
        """The identifier of this node's parent.

        Raises:
            ValueError: if called on the document node, which has no parent.
        """
        if not self.components:
            raise ValueError("the document node has no parent")
        return NodeId._derived(self.components[:-1], self._key[:-2])

    def child(self, component: object) -> "NodeId":
        """Return the id for a child of this node with the given component."""
        return NodeId._derived(
            self.components + (component,), self._key + _key_part(component)
        )

    def ancestors(self) -> Iterator["NodeId"]:
        """Yield proper ancestors from parent up to the document node."""
        nid = self
        while not nid.is_document:
            nid = nid.parent()
            yield nid

    def is_ancestor_of(self, other: "NodeId") -> bool:
        """True if this node is a *proper* ancestor of ``other``."""
        key = self._key
        n = len(key)
        return n < len(other._key) and other._key[:n] == key

    def is_descendant_of(self, other: "NodeId") -> bool:
        """True if this node is a *proper* descendant of ``other``."""
        return other.is_ancestor_of(self)

    # -- identity and ordering ---------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not NodeId:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __lt__(self, other: "NodeId") -> bool:
        return self._key < other._key

    def __le__(self, other: "NodeId") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "NodeId") -> bool:
        return self._key > other._key

    def __ge__(self, other: "NodeId") -> bool:
        return self._key >= other._key

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if self.is_document:
            return "NodeId(/)"
        return "NodeId(%s)" % ".".join(str(c) for c in self.components)


#: The identifier of the document node, written ``/`` in the paper.
DOCUMENT_ID = NodeId(())


def document_order_key(nid: NodeId) -> Tuple[object, ...]:
    """Sort key producing document (pre-)order for any iterable of ids."""
    return nid._key


def order_index(ordered: Sequence[NodeId], nid: NodeId) -> int:
    """Where ``nid`` is -- or, when absent, belongs -- in ``ordered``, a
    sequence of distinct ids in document order (a bisect on the key)."""
    return bisect_left(ordered, nid._key, key=document_order_key)


class NumberingScheme(ABC):
    """Strategy interface for assigning ordering components to new nodes.

    A scheme only decides the *ordering component* of a newly inserted
    node relative to its siblings; the tree-path structure of
    :class:`NodeId` is shared by all schemes, which is what makes parent /
    ancestor / document-order derivable from the identifier alone.
    """

    #: Whether existing labels survive arbitrary insertions unchanged.
    persistent: bool = True

    #: Short name used in benchmark output.
    name: str = "abstract"

    @abstractmethod
    def initial_component(self) -> object:
        """Component for the first child of a node that has no children."""

    @abstractmethod
    def component_between(
        self, before: Optional[object], after: Optional[object]
    ) -> object:
        """A fresh component strictly between ``before`` and ``after``.

        ``before is None`` means "insert in first position";
        ``after is None`` means "insert in last position".  At least one
        bound is always given by callers inserting into a non-empty
        sibling list.
        """

    # -- convenience helpers used by the document layer ---------------------
    def child_id_between(
        self,
        parent: NodeId,
        before: Optional[NodeId],
        after: Optional[NodeId],
    ) -> NodeId:
        """Id for a child of ``parent`` between siblings ``before``/``after``.

        Raises:
            ValueError: if a supplied sibling is not actually a child of
                ``parent``.
        """
        for sib in (before, after):
            if sib is not None and sib.parent() != parent:
                raise ValueError(f"{sib!r} is not a child of {parent!r}")
        lo = before.components[-1] if before is not None else None
        hi = after.components[-1] if after is not None else None
        return parent.child(self.component_between(lo, hi))


class PersistentDeweyScheme(NumberingScheme):
    """Dewey labels with exact-rational components (the default scheme).

    Insertion between siblings with components ``a < b`` assigns the
    midpoint ``(a + b) / 2``; insertion at either end steps by 1.  Because
    rationals are dense, no insertion ever requires renumbering -- the
    property the paper demands of its own scheme [12].
    """

    persistent = True
    name = "persistent-dewey"

    def initial_component(self) -> Fraction:
        return Fraction(1)

    def component_between(
        self, before: Optional[Fraction], after: Optional[Fraction]
    ) -> Fraction:
        if before is None and after is None:
            return self.initial_component()
        if before is None:
            assert after is not None
            return after - 1
        if after is None:
            return before + 1
        if not before < after:
            raise ValueError(f"cannot insert between {before} and {after}")
        return (before + after) / 2


# LSDX uses letters for ordering; we use the full lowercase+uppercase
# alphabet as base-52 "digits" with 'a' < ... < 'z' < 'A'?  No: Python
# string comparison orders uppercase before lowercase, so stick to a
# single case to keep lexicographic order intuitive.
_LSDX_ALPHABET = string.ascii_lowercase
_LSDX_MIN = _LSDX_ALPHABET[0]
_LSDX_MAX = _LSDX_ALPHABET[-1]


class LSDXScheme(NumberingScheme):
    """String-key scheme in the spirit of LSDX [8].

    Each component is a non-empty lowercase string that never ends in the
    minimal letter ``'a'`` (so every key has lexicographic room below it).
    ``component_between`` produces a key strictly between its neighbours
    without modifying them, mirroring LSDX's "add letters" rule.
    """

    persistent = True
    name = "lsdx"

    def initial_component(self) -> str:
        return "b"

    def component_between(
        self, before: Optional[str], after: Optional[str]
    ) -> str:
        if before is None and after is None:
            return self.initial_component()
        if before is None:
            assert after is not None
            return self._key_below(after)
        if after is None:
            return self._key_above(before)
        if not before < after:
            raise ValueError(f"cannot insert between {before!r} and {after!r}")
        return self._key_between(before, after)

    @staticmethod
    def _key_above(key: str) -> str:
        """A key > ``key``: bump the first non-maximal letter."""
        for i, ch in enumerate(key):
            if ch != _LSDX_MAX:
                nxt = _LSDX_ALPHABET[_LSDX_ALPHABET.index(ch) + 1]
                return key[:i] + nxt
        return key + "b"

    @staticmethod
    def _key_below(key: str) -> str:
        """A key < ``key`` but > all-'a' prefixes (keys never end in 'a')."""
        for i, ch in enumerate(key):
            if ch != _LSDX_MIN:
                idx = _LSDX_ALPHABET.index(ch)
                if idx > 1:
                    return key[:i] + _LSDX_ALPHABET[idx - 1]
                # ch == 'b': demoting to 'a' would end in the minimal
                # letter, so descend one level instead.
                return key[:i] + _LSDX_MIN + "m"
        raise ValueError(f"malformed LSDX key {key!r}")  # pragma: no cover

    @staticmethod
    def _key_between(lo: str, hi: str) -> str:
        """A key strictly between ``lo`` and ``hi`` (``lo < hi``)."""
        # Scan positions; pad lo with the minimal letter.
        prefix = []
        for i in itertools.count():
            lo_ch = lo[i] if i < len(lo) else _LSDX_MIN
            hi_ch = hi[i] if i < len(hi) else None
            if hi_ch is not None and lo_ch == hi_ch:
                prefix.append(lo_ch)
                continue
            lo_idx = _LSDX_ALPHABET.index(lo_ch)
            hi_idx = _LSDX_ALPHABET.index(hi_ch) if hi_ch is not None else len(_LSDX_ALPHABET)
            if hi_idx - lo_idx >= 2:
                mid = _LSDX_ALPHABET[(lo_idx + hi_idx) // 2]
                return "".join(prefix) + mid
            # Adjacent letters: keep lo's letter and extend to the right
            # with something above the rest of lo.
            prefix.append(lo_ch)
            rest = lo[i + 1 :]
            return "".join(prefix) + LSDXScheme._key_above(rest or _LSDX_MIN)
        raise AssertionError("unreachable")  # pragma: no cover


class RenumberingScheme(NumberingScheme):
    """Naive integer Dewey labels (ablation baseline, benchmark E13).

    Components are plain integers spaced by 1.  ``component_between``
    raises :class:`RenumberingRequired` whenever there is no integer gap,
    and the document layer responds by renumbering the following siblings
    -- exactly the cost the paper's persistence requirement avoids.
    """

    persistent = False
    name = "renumbering"

    def initial_component(self) -> Fraction:
        # Integral Fractions keep NodeId ordering keys homogeneous with
        # the default scheme, while the scheme itself only ever produces
        # whole numbers.
        return Fraction(1)

    def component_between(
        self, before: Optional[Fraction], after: Optional[Fraction]
    ) -> Fraction:
        if before is None and after is None:
            return self.initial_component()
        if before is None:
            assert after is not None
            if after - 1 >= 1:
                return after - 1
            raise RenumberingRequired()
        if after is None:
            return before + 1
        if after - before > 1:
            return before + (after - before) // 2
        raise RenumberingRequired()


class RenumberingRequired(Exception):
    """Raised by :class:`RenumberingScheme` when no integer gap exists.

    The document layer catches this and renumbers the sibling run; the
    renumbering cost is what benchmark E13 measures.
    """
