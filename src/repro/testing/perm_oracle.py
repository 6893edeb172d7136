"""The axiom-14 test oracle: priority replay over whole selections.

This was the resolver's decision procedure before decisions were made
on demand: evaluate every applicable rule path over the whole document
with the XPath engine, then replay the rules in priority order, each
overwriting the outcome on the nodes its path selects -- the
operational form of "the latest matching rule wins, with no later
matching deny".  Production decides through the permission automaton
of :mod:`repro.security.perm`; the replay survives here as the
reference that automaton is checked against, beside the Datalog
transcription in :mod:`repro.formal`.

Who may import it: tests and benchmarks.  Nothing under ``src/``
does, and a serving process imports nothing from ``repro.testing``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

from ..security.policy import ACCEPT, SecurityRule
from ..security.privileges import Privilege
from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from ..xmltree.node import RESTRICTED, NodeKind
from ..xpath.engine import XPathEngine

__all__ = ["granted", "replay", "replay_view"]

#: Privilege -> node -> the rule that decided it (closed world: a node
#: no rule selects has no entry).
Winners = Dict[Privilege, Dict[NodeId, SecurityRule]]


def _decide(
    rules: Sequence[SecurityRule],
    privilege: Privilege,
    selections: Dict[str, Sequence[NodeId]],
) -> Dict[NodeId, SecurityRule]:
    """Axiom 14 for one privilege: each node's winning rule."""
    outcome: Dict[NodeId, SecurityRule] = {}
    for rule in rules:
        if rule.privilege is privilege:
            outcome.update(dict.fromkeys(selections[rule.path], rule))
    return outcome


def replay(
    engine: XPathEngine, doc: XMLDocument, rules: Iterable[SecurityRule], user: str
) -> Winners:
    """Every privilege's winners for ``rules`` (a user's applicable
    rules, in priority order) on ``doc``, ``$USER`` bound to ``user``."""
    rules = tuple(rules)
    selections: Dict[str, Sequence[NodeId]] = {}
    for rule in rules:
        if rule.path not in selections:
            selections[rule.path] = engine.select(
                doc, rule.path, variables={"USER": user}
            )
    return {privilege: _decide(rules, privilege, selections) for privilege in Privilege}


def granted(winners: Winners) -> Dict[Privilege, Set[NodeId]]:
    """Each privilege's held nodes: those an accept rule won."""
    return {
        privilege: {nid for nid, rule in outcome.items() if rule.effect == ACCEPT}
        for privilege, outcome in winners.items()
    }


def _kept(kids, keep):
    admitted = [kid for kid in kids if kid in keep]
    return admitted, [True] * len(admitted)


def replay_view(
    doc: XMLDocument, winners: Winners
) -> Tuple[XMLDocument, FrozenSet[NodeId]]:
    """The view document and its RESTRICTED nodes (axioms 15-17) grown
    from the replayed sets: a node is kept iff ``read`` or ``position``
    is held on it and its parent was kept, and masked when only
    ``position`` is."""
    held = granted(winners)
    readable = held[Privilege.READ]
    position_only = held[Privilege.POSITION] - readable
    keep = readable | position_only
    view = XMLDocument(doc.scheme)
    roots = doc.children(DOCUMENT_ID)
    installed = view.graft(
        doc,
        [(root, True if root in keep else None) for root in roots],
        lambda nid, kids, state: _kept(kids, keep),
    )
    restricted = position_only.intersection(installed)
    for nid in restricted:
        view.relabel(nid, RESTRICTED)
        if view.kind(nid) is NodeKind.ATTRIBUTE:
            view.set_value(nid, RESTRICTED)
    return view, frozenset(restricted)
