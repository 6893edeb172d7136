"""The paper's security axioms, transcribed literally into Datalog.

This module is the reproduction of the paper's *formal* content -- the
counterpart of its Prolog prototype, whose stated purpose was "simply to
validate the correctness of the axioms given in this paper".  Here the
transcription serves the same role: :class:`FormalModel` derives

- the ``isa`` closure (axioms 11-12),
- the ``perm(s, n, r)`` facts (axiom 14),
- the per-user view theory ``node_view(n, v)`` (axioms 15-17),
- the post-update theory ``node_dbnew(n, v)`` for each XUpdate
  operation (axioms 18-25),

purely by bottom-up logical inference, and the differential tests
compare every one of those fact sets against the procedural engine in
:mod:`repro.security`.

Two reproduction notes:

- Axiom 14's inner negation ``¬∃s''∃p'∃t' (...)`` is rendered with an
  auxiliary ``overridden`` predicate, the standard Datalog encoding of
  an existentially-closed negative condition.
- ``create_number`` facts (formula 7) are supplied extensionally by
  consulting the numbering scheme, exactly as the paper does ("we do
  not give axioms for deriving facts belonging to the create_number
  predicate since they depend on the numbering scheme").
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..logic.engine import DatalogEngine
from ..logic.program import Program
from ..logic.terms import Var, atom, cmp, neg, pos
from ..security.policy import ACCEPT, Policy
from ..security.subjects import SubjectHierarchy
from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from ..xmltree.node import RESTRICTED, NodeKind
from ..xupdate.operations import (
    Append,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    XUpdateOperation,
)
from .geometry import document_facts, geometry_rules
from .paths import PathCompiler, UnsupportedPathError

__all__ = ["FormalModel"]


def subject_rules(subjects: SubjectHierarchy, program: Program) -> None:
    """Set S plus axioms 11-12: the reflexive-transitive isa closure."""
    for name in sorted(subjects.subjects):
        program.fact("subject", name)
    for child, parent in subjects.isa_facts():
        program.fact("isa", child, parent)
    s, s1, s2 = Var("S"), Var("S1"), Var("S2")
    program.rule(atom("isa", s, s), pos("subject", s))  # axiom 11
    program.rule(  # axiom 12
        atom("isa", s, s2), pos("isa", s, s1), pos("isa", s1, s2)
    )


class FormalModel:
    """Logical derivation of the whole model for one database state.

    Args:
        doc: the source document (theory ``db``).
        subjects: the subject hierarchy (set ``S``).
        policy: the security policy (set ``P``).  Rule paths must fall
            within the :class:`~repro.formal.paths.PathCompiler`
            fragment.
    """

    def __init__(
        self,
        doc: XMLDocument,
        subjects: SubjectHierarchy,
        policy: Policy,
    ) -> None:
        self._doc = doc
        self._subjects = subjects
        self._policy = policy

    # ------------------------------------------------------------------
    # phase 1: perm + view
    # ------------------------------------------------------------------
    def _base_program(self, user: str) -> Program:
        """Theory db + subjects + policy + axioms 14-17 for one user."""
        program = Program()
        document_facts(self._doc, program)
        geometry_rules(program)
        subject_rules(self._subjects, program)

        compiler = PathCompiler(program)
        s, s2, n, v, v2, t, t2, r = (
            Var("S"),
            Var("S2"),
            Var("N"),
            Var("V"),
            Var("V2"),
            Var("T"),
            Var("T2"),
            Var("R"),
        )
        # Set P: each rule becomes candidate/denies derivations over its
        # compiled path predicate.
        for effect, privilege, path, subject, priority in self._policy.facts():
            pred = compiler.compile(path, user=user)
            head = "candidate" if effect == ACCEPT else "denies"
            program.rule(
                atom(head, s, privilege, n, priority),
                pos("isa", s, subject),
                pos(pred, n),
            )
        # Axiom 14 via the overridden encoding.
        program.rule(
            atom("overridden", s, r, n, t),
            pos("candidate", s, r, n, t),
            pos("denies", s, r, n, t2),
            cmp(">", t2, t),
        )
        program.rule(
            atom("perm", s, n, r),
            pos("candidate", s, r, n, t),
            neg("overridden", s, r, n, t),
        )

        # Axioms 15-17: the view of the logged user.
        program.fact("logged", user)
        program.fact("node_view", DOCUMENT_ID, "/")  # axiom 15
        p = Var("P")
        program.rule(  # axiom 16
            atom("node_view", n, v),
            pos("node", n, v),
            pos("logged", s),
            pos("perm", s, n, "read"),
            pos("child", n, p),
            pos("node_view", p, v2),
        )
        program.rule(  # axiom 17
            atom("node_view", n, RESTRICTED),
            pos("node", n, v),
            pos("logged", s),
            pos("perm", s, n, "position"),
            neg("perm", s, n, "read"),
            pos("child", n, p),
            pos("node_view", p, v2),
        )
        # Bookkeeping for the write axioms: which view nodes are shown
        # with the RESTRICTED label (perm-based, so a literal
        # "RESTRICTED" source label cannot confuse it).
        program.rule(
            atom("shown_restricted", n),
            pos("node_view", n, v),
            pos("logged", s),
            pos("perm", s, n, "position"),
            neg("perm", s, n, "read"),
        )
        return program

    def derive_isa(self) -> Set[Tuple[str, str]]:
        """The closed isa relation (axioms 11-12)."""
        program = Program()
        subject_rules(self._subjects, program)
        engine = DatalogEngine(program)
        return {(a, b) for a, b in engine.query("isa")}

    def derive_perm(self, user: str) -> Set[Tuple[NodeId, str]]:
        """All ``perm(user, n, r)`` facts (axiom 14) as (n, r) pairs."""
        engine = DatalogEngine(self._base_program(user))
        return {
            (nid, priv)
            for (subj, nid, priv) in engine.query("perm")
            if subj == user
        }

    def derive_view(self, user: str) -> Set[Tuple[NodeId, str]]:
        """The ``node_view(n, v)`` facts (axioms 15-17)."""
        engine = DatalogEngine(self._base_program(user))
        return set(engine.query("node_view"))

    # ------------------------------------------------------------------
    # phase 2: the write axioms (18-25)
    # ------------------------------------------------------------------
    def derive_dbnew(
        self, user: str, operation: XUpdateOperation
    ) -> Set[Tuple[NodeId, str]]:
        """The ``node_dbnew(n, v)`` facts after a secure update.

        Implements axioms 18-25.  The operation's PATH is compiled
        against the *view* theory derived in phase 1, reproducing the
        paper's "nodes to update are selected on the view" principle.
        """
        phase1 = DatalogEngine(self._base_program(user))
        view_facts = set(phase1.query("node_view"))
        shown_restricted = {n for (n,) in phase1.query("shown_restricted")}
        perm_facts = {
            (nid, priv)
            for (subj, nid, priv) in phase1.query("perm")
            if subj == user
        }

        program = Program()
        # Theory db again (node/child/kind facts + geometry).
        document_facts(self._doc, program)
        geometry_rules(program)
        # The view as an EDB theory under the "view_" prefix.
        view_nodes = {nid for (nid, _v) in view_facts}
        for nid, label in view_facts:
            program.fact("view_node", nid, label)
            kind = self._doc.kind(nid)
            if kind is NodeKind.ELEMENT:
                program.fact("view_element", nid)
            elif kind is NodeKind.TEXT:
                program.fact("view_text", nid)
            elif kind is NodeKind.COMMENT:
                program.fact("view_comment", nid)
        for nid in view_nodes:
            if nid.is_document:
                continue
            parent = nid.parent()
            if parent in view_nodes and self._doc.kind(nid) is not NodeKind.ATTRIBUTE:
                program.fact("view_child", nid, parent)
        # Sibling order restricted to the view.
        for nid in view_nodes:
            kids = [k for k in self._doc.children(nid) if k in view_nodes]
            for left, right in zip(kids, kids[1:]):
                program.fact("view_imm_following_sibling", right, left)
        geometry_rules(program, prefix="view_")
        for nid in shown_restricted:
            program.fact("shown_restricted", nid)
        for nid, priv in perm_facts:
            program.fact("perm", user, nid, priv)
        program.fact("logged", user)

        compiler = PathCompiler(program, prefix="view_")
        target = compiler.compile(operation.path, user=user)
        self._write_axioms(program, operation, target, user)
        engine = DatalogEngine(program)
        return set(engine.query("node_dbnew"))

    def _write_axioms(
        self,
        program: Program,
        operation: XUpdateOperation,
        target: str,
        user: str,
    ) -> None:
        n, v, s, c = Var("N"), Var("V"), Var("S"), Var("C")
        if isinstance(operation, Rename):
            # Axioms 18-19 (+ the prose RESTRICTED restriction).
            program.rule(
                atom("renamed", n),
                pos(target, n),
                pos("logged", s),
                pos("perm", s, n, "update"),
                neg("shown_restricted", n),
            )
            program.rule(
                atom("node_dbnew", n, v), pos("node", n, v), neg("renamed", n)
            )
            program.rule(
                atom("node_dbnew", n, operation.new_name), pos("renamed", n)
            )
        elif isinstance(operation, UpdateContent):
            # Axioms 20-21: children in the view need update and read.
            program.rule(
                atom("updated", c),
                pos(target, n),
                pos("view_child", c, n),
                pos("logged", s),
                pos("perm", s, c, "update"),
                pos("perm", s, c, "read"),
            )
            program.rule(
                atom("node_dbnew", n, v), pos("node", n, v), neg("updated", n)
            )
            program.rule(
                atom("node_dbnew", n, operation.new_value), pos("updated", n)
            )
        elif isinstance(operation, (Append, InsertBefore, InsertAfter)):
            # Axioms 22-24 with extensional create_number (formula 7).
            self._creation_axioms(program, operation, target, user)
        elif isinstance(operation, Remove):
            # Axiom 25 via the deleted-subtree fixpoint (formulae 8-9).
            np = Var("NP")
            program.rule(
                atom("delete_root", np),
                pos(target, np),
                pos("logged", s),
                pos("perm", s, np, "delete"),
            )
            program.rule(
                atom("deleted", n),
                pos("descendant_or_self", n, np),
                pos("delete_root", np),
            )
            program.rule(
                atom("node_dbnew", n, v), pos("node", n, v), neg("deleted", n)
            )
        else:
            raise TypeError(f"unknown operation {operation!r}")

    def _creation_axioms(
        self,
        program: Program,
        operation: "Append | InsertBefore | InsertAfter",
        target: str,
        user: str,
    ) -> None:
        n, v, s = Var("N"), Var("V"), Var("S")
        # Formula 6: the original document carries over unchanged.
        program.rule(atom("node_dbnew", n, v), pos("node", n, v))
        # node_TREE facts with placeholder identifiers 0..k-1 (pre-order).
        flat = _flatten_fragment(operation.tree)
        for key, label in flat:
            program.fact("node_tree", key, label)
        # The privilege-holding anchor differs per operation (axioms 22-24):
        # append checks the selected node, the sibling insertions check
        # its parent in the view.
        if isinstance(operation, Append):
            kind = "append"
            anchor_rule_body = [
                pos(target, n),
                pos("logged", s),
                pos("perm", s, n, "insert"),
            ]
        else:
            kind = (
                "insert-before"
                if isinstance(operation, InsertBefore)
                else "insert-after"
            )
            f = Var("F")
            anchor_rule_body = [
                pos(target, n),
                pos("view_child", n, f),
                pos("logged", s),
                pos("perm", s, f, "insert"),
            ]
        program.rule(atom("insert_anchor", n), *anchor_rule_body)
        # create_number(n, k, o, n''): extensional, computed from the
        # numbering scheme (the paper's stated omission).  A dry run per
        # anchor assigns the concrete identifiers.
        anchors = DatalogEngine(program_copy_for_anchors(program)).query(
            "insert_anchor"
        )
        k, nn = Var("K"), Var("NN")
        for (anchor,) in anchors:
            for key, new_id in _dry_run_numbers(self._doc, operation, anchor, flat):
                program.fact("create_number", anchor, key, kind, new_id)
        tv = Var("TV")
        program.rule(  # formula 7 under axioms 22-24
            atom("node_dbnew", nn, tv),
            pos("insert_anchor", n),
            pos("node_tree", k, tv),
            pos("create_number", n, k, kind, nn),
        )


def program_copy_for_anchors(program: Program) -> Program:
    """A snapshot of the program for the anchor-discovery dry run."""
    duplicate = Program()
    duplicate.extend(program)
    return duplicate


def _flatten_fragment(tree) -> List[Tuple[int, str]]:
    """Pre-order (placeholder-id, label) pairs of a fragment."""
    out: List[Tuple[int, str]] = []
    counter = itertools.count()

    def walk(fragment) -> None:
        out.append((next(counter), fragment.label))
        for name, _value in fragment.attributes:
            out.append((next(counter), name))
        for child in fragment.children:
            walk(child)

    walk(tree)
    return out


def _dry_run_numbers(
    doc: XMLDocument,
    operation: "Append | InsertBefore | InsertAfter",
    anchor: NodeId,
    flat: Sequence[Tuple[int, str]],
) -> List[Tuple[int, NodeId]]:
    """Ask the numbering scheme which ids an insertion would assign.

    Performs the insertion on a scratch copy and pairs the fragment's
    placeholder ids with the concrete identifiers, in pre-order.
    """
    scratch = doc.copy()
    if isinstance(operation, Append):
        root = operation.tree.attach(scratch, anchor)
    elif isinstance(operation, InsertBefore):
        root = operation.tree.attach_before(scratch, anchor)
    else:
        root = operation.tree.attach_after(scratch, anchor)
    created = list(scratch.subtree(root))
    assert len(created) == len(flat), "fragment flattening out of sync"
    return [(key, nid) for (key, _label), nid in zip(flat, created)]
