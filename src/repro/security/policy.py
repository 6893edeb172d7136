"""The security policy: prioritized accept/deny rules (paper section 4.3).

A policy is the paper's set ``P`` of facts
``rule(accept|deny, privilege, path, subject, t)`` where ``t`` is the
priority -- "the timestamp indicating when the command was issued plays
the priority role.  The last issued command has the priority over the
previous ones and possibly cancels them."

:class:`Policy` therefore assigns strictly increasing priorities
automatically (explicit priorities are accepted for reproducing the
paper's numbered examples) and offers the administration verbs
``grant`` / ``deny``.  Rule paths may reference the ``$USER`` variable,
bound at evaluation time to the session user's login (rule 5 of the
example policy).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ReproError
from ..xpath.parser import parse_xpath
from .privileges import Privilege
from .subjects import SubjectHierarchy

__all__ = [
    "Effect",
    "SecurityRule",
    "Policy",
    "PolicyError",
    "PolicyLintWarning",
]


class PolicyError(ReproError, ValueError):
    """Invalid rule: unknown subject, bad path, duplicate priority..."""


@dataclass(frozen=True)
class PolicyLintWarning:
    """One suspicious rule found by :meth:`Policy.lint`.

    Attributes:
        rule: the rule the warning is about.
        kind: ``"no-audience"`` (no declared user can ever match the
            rule's subject), ``"empty-path"`` (the path selects no node
            of the document for any applicable user), or ``"dead"``
            (every node it addresses is re-decided by later rules, so
            under axiom 14's latest-rule-wins resolution the rule can
            never determine an outcome).
        detail: human-readable explanation.
    """

    rule: SecurityRule
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.rule} -- {self.detail}"


#: Rule effects, the paper's first ``rule/5`` argument.
ACCEPT = "accept"
DENY = "deny"
Effect = str


@dataclass(frozen=True)
class SecurityRule:
    """One fact ``rule(effect, privilege, path, subject, priority)``."""

    effect: Effect
    privilege: Privilege
    path: str
    subject: str
    priority: int

    def __post_init__(self) -> None:
        if self.effect not in (ACCEPT, DENY):
            raise PolicyError(f"effect must be accept or deny, got {self.effect!r}")

    def __str__(self) -> str:
        return (
            f"rule({self.effect},{self.privilege},{self.path},"
            f"{self.subject},{self.priority})"
        )


class Policy:
    """An ordered set of security rules with unique priorities.

    Args:
        subjects: the hierarchy rules must reference; subjects are
            validated at insertion time.
    """

    def __init__(self, subjects: SubjectHierarchy) -> None:
        self._subjects = subjects
        self._rules: List[SecurityRule] = []
        self._next_priority = itertools.count(1)
        self._listeners: List[Callable[..., None]] = []

    # ------------------------------------------------------------------
    # mutation listeners (the write-ahead log's capture hook)
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[..., None]) -> None:
        """Call ``listener(op, *args)`` after every successful mutation:
        ``("accept"|"deny", privilege, path, subject, priority)`` and
        ``("revoke", priority)``.  Re-dispatching the events (with the
        recorded explicit priorities) against a fresh policy reproduces
        this one exactly."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[..., None]) -> None:
        """Remove a listener added with :meth:`subscribe` (idempotent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, op: str, *args) -> None:
        for listener in list(self._listeners):
            listener(op, *args)

    # ------------------------------------------------------------------
    # administration verbs
    # ------------------------------------------------------------------
    def grant(
        self,
        privilege: "str | Privilege",
        path: str,
        subject: str,
        priority: Optional[int] = None,
    ) -> SecurityRule:
        """Add an accept rule; returns the recorded rule."""
        return self._add(ACCEPT, privilege, path, subject, priority)

    def deny(
        self,
        privilege: "str | Privilege",
        path: str,
        subject: str,
        priority: Optional[int] = None,
    ) -> SecurityRule:
        """Add a deny rule; returns the recorded rule."""
        return self._add(DENY, privilege, path, subject, priority)

    def _add(
        self,
        effect: Effect,
        privilege: "str | Privilege",
        path: str,
        subject: str,
        priority: Optional[int],
    ) -> SecurityRule:
        if subject not in self._subjects:
            raise PolicyError(f"unknown subject {subject!r}")
        try:
            parse_xpath(path)
        except ValueError as exc:
            raise PolicyError(f"invalid rule path {path!r}: {exc}") from exc
        if priority is None:
            priority = self._fresh_priority()
        elif any(r.priority == priority for r in self._rules):
            raise PolicyError(f"priority {priority} already used")
        rule = SecurityRule(effect, Privilege.parse(privilege), path, subject, priority)
        self._rules.append(rule)
        self._notify(
            effect, rule.privilege.value, rule.path, rule.subject, rule.priority
        )
        return rule

    def _fresh_priority(self) -> int:
        highest = max((r.priority for r in self._rules), default=0)
        candidate = next(self._next_priority)
        return max(candidate, highest + 1)

    def revoke(self, rule: SecurityRule) -> None:
        """Remove a rule (administration convenience; the paper itself
        models cancellation by issuing a later opposite rule).

        Raises:
            PolicyError: if the rule is not in the policy.
        """
        try:
            self._rules.remove(rule)
        except ValueError:
            raise PolicyError(f"rule not in policy: {rule}") from None
        self._notify("revoke", rule.priority)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[SecurityRule]:
        return iter(sorted(self._rules, key=lambda r: r.priority))

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def subjects(self) -> SubjectHierarchy:
        return self._subjects

    def rules_for(self, user: str, privilege: Privilege) -> List[SecurityRule]:
        """Rules applying to ``user`` (via isa closure) for a privilege,
        in increasing priority order."""
        applicable = self._subjects.ancestors(user)
        return [
            r
            for r in self
            if r.privilege is privilege and r.subject in applicable
        ]

    def applicable_rules(self, user: str) -> Tuple[SecurityRule, ...]:
        """All rules applying to ``user`` (via isa closure), every
        privilege, in increasing priority order.

        This tuple is exactly the rule sequence axiom 14 replays when
        deriving the user's permission table, so it doubles as the
        content-based part of the user's permission fingerprint: equal
        tuples (with no ``$USER`` path) imply equal tables.

        Raises:
            repro.security.subjects.SubjectError: if ``user`` is not a
                declared subject.
        """
        applicable = self._subjects.ancestors(user)
        return tuple(r for r in self if r.subject in applicable)

    def facts(self) -> Iterator[Tuple[str, str, str, str, int]]:
        """The paper's ``rule/5`` facts (set P), in priority order."""
        for rule in self:
            yield (rule.effect, rule.privilege.value, rule.path, rule.subject, rule.priority)

    # ------------------------------------------------------------------
    # consistency linting
    # ------------------------------------------------------------------
    def lint(self, document=None, engine=None) -> List[PolicyLintWarning]:
        """Find rules that can never decide anything.

        Under axiom 14's priority (timestamp) resolution, the latest
        matching rule wins on every node it addresses.  A rule is
        therefore *dead* when, for every declared user it applies to,
        each node its path selects is also selected by some later rule
        for the same privilege and user -- the earlier rule is fully
        shadowed and revoking it changes no outcome.  Dead rules are a
        known source of write-policy inconsistency (an administrator
        believes a grant or deny is in force when it is not), so they
        are worth surfacing even though they are formally harmless.

        Args:
            document: the source document rule paths are evaluated on.
                Without it only the structural ``no-audience`` check
                runs (a path-free analysis cannot see shadowing).
            engine: XPath engine for rule paths; a paper-compat default
                is built if omitted.

        Returns:
            Warnings in rule-priority order; empty means the policy is
            clean.
        """
        warnings: List[PolicyLintWarning] = []
        users = sorted(self._subjects.users)
        audience: dict = {}
        for rule in self:
            aud = [
                u for u in users if rule.subject in self._subjects.ancestors(u)
            ]
            audience[rule] = aud
            if not aud:
                warnings.append(
                    PolicyLintWarning(
                        rule,
                        "no-audience",
                        f"no declared user is (transitively) a member of "
                        f"{rule.subject!r}, so the rule applies to nobody",
                    )
                )
        if document is None:
            return warnings

        if engine is None:
            from ..xpath.engine import XPathEngine

            engine = XPathEngine(
                lone_variable_name_test=True, star_matches_text=True
            )
        winners: set = set()
        selects_anything = {rule: False for rule in self}
        for user in users:
            outcome: dict = {}
            for rule in self:  # __iter__ yields priority order
                if user not in audience[rule]:
                    continue
                selected = engine.select(
                    document, rule.path, variables={"USER": user}
                )
                if len(selected):
                    selects_anything[rule] = True
                for nid in selected:
                    outcome[(rule.privilege, nid)] = rule
            winners.update(outcome.values())
        for rule in self:
            if not audience[rule]:
                continue  # already warned above
            if not selects_anything[rule]:
                warnings.append(
                    PolicyLintWarning(
                        rule,
                        "empty-path",
                        f"path {rule.path!r} selects no node of the current "
                        f"document for any applicable user",
                    )
                )
            elif rule not in winners:
                warnings.append(
                    PolicyLintWarning(
                        rule,
                        "dead",
                        "every node it addresses is re-decided by a later "
                        "rule (axiom 14: latest rule wins), so this rule "
                        "never determines an outcome",
                    )
                )
        return sorted(warnings, key=lambda w: w.rule.priority)
