"""Subjects: users and roles with an ``isa`` hierarchy (paper section 4.2).

The paper's set ``S`` records ``subject(s)`` facts and ``isa(s, s')``
facts ("subject s is a subject s'"); axioms 11-12 close ``isa`` under
reflexivity and transitivity.  Internal nodes of the hierarchy are roles
in the RBAC sense [17], leaves are users, and a security rule granted to
a role applies to every subject below it.

:class:`SubjectHierarchy` stores the explicit facts and serves the
closure; cycles are allowed by the logic (they just merge subjects) but
rejected here because they are invariably configuration mistakes.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import ReproError

__all__ = ["SubjectError", "SubjectHierarchy"]


class SubjectError(ReproError, ValueError):
    """Unknown subject, duplicate declaration, or a cycle in ``isa``."""


class SubjectHierarchy:
    """Users and roles with the reflexive-transitive ``isa`` closure.

    Example (the paper's figure 3)::

        subjects = SubjectHierarchy()
        for role in ("staff", "doctor", "secretary", "epidemiologist",
                     "patient"):
            subjects.add_role(role)
        subjects.add_user("laporte", member_of="doctor")
        subjects.add_isa("doctor", "staff")
        ...
        subjects.isa("laporte", "staff")   # True
    """

    def __init__(self) -> None:
        self._subjects: Set[str] = set()
        self._roles: Set[str] = set()
        self._users: Set[str] = set()
        self._parents: Dict[str, Set[str]] = {}
        self._closure: Optional[Dict[str, FrozenSet[str]]] = None
        self._listeners: List[Callable[..., None]] = []

    # ------------------------------------------------------------------
    # mutation listeners (the write-ahead log's capture hook)
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[..., None]) -> None:
        """Call ``listener(op, *args)`` after every successful mutation.

        Events are emitted in replay order -- ``("add_role", name)`` /
        ``("add_user", name)`` before the ``("add_isa", subject,
        parent)`` a ``member_of=`` shortcut implies -- so re-dispatching
        them against a fresh hierarchy reproduces this one exactly.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[..., None]) -> None:
        """Remove a listener added with :meth:`subscribe` (idempotent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, op: str, *args: str) -> None:
        for listener in list(self._listeners):
            listener(op, *args)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_role(self, name: str, member_of: Optional[str] = None) -> None:
        """Declare a role, optionally directly under another subject."""
        self._add_subject(name, role=True)
        self._notify("add_role", name)
        if member_of is not None:
            self.add_isa(name, member_of)

    def add_user(self, name: str, member_of: Optional[str] = None) -> None:
        """Declare a user, optionally directly under a role."""
        self._add_subject(name, role=False)
        self._notify("add_user", name)
        if member_of is not None:
            self.add_isa(name, member_of)

    def _add_subject(self, name: str, role: bool) -> None:
        if not name:
            raise SubjectError("subject names cannot be empty")
        if name in self._subjects:
            raise SubjectError(f"subject {name!r} already declared")
        self._subjects.add(name)
        (self._roles if role else self._users).add(name)
        self._parents[name] = set()
        self._closure = None

    def add_isa(self, subject: str, parent: str) -> None:
        """Record the fact ``isa(subject, parent)``.

        Raises:
            SubjectError: if either side is undeclared or the edge would
                create a cycle.
        """
        for name in (subject, parent):
            if name not in self._subjects:
                raise SubjectError(f"unknown subject {name!r}")
        if subject == parent:
            # isa is reflexive (axiom 11): nothing to record, and a
            # recorded self-edge would read as a cycle ever after.
            return
        # Checked by walking up from these two names only: the global
        # closure is invalidated by every declaration, and rebuilding it
        # here would make loading n subjects quadratic.
        if parent in self._walk_up(subject):
            pass  # redundant but harmless
        elif subject in self._walk_up(parent):
            raise SubjectError(
                f"isa({subject!r}, {parent!r}) would create a cycle"
            )
        self._parents[subject].add(parent)
        self._closure = None
        self._notify("add_isa", subject, parent)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._subjects

    @property
    def subjects(self) -> FrozenSet[str]:
        """All declared subjects (the ``subject/1`` facts)."""
        return frozenset(self._subjects)

    @property
    def roles(self) -> FrozenSet[str]:
        return frozenset(self._roles)

    @property
    def users(self) -> FrozenSet[str]:
        return frozenset(self._users)

    def is_user(self, name: str) -> bool:
        """True when the subject is a user (leaf), not a role."""
        return name in self._users

    def direct_parents(self, name: str) -> FrozenSet[str]:
        """The explicitly recorded ``isa`` facts for one subject."""
        if name not in self._subjects:
            raise SubjectError(f"unknown subject {name!r}")
        return frozenset(self._parents[name])

    def ancestors(self, name: str) -> FrozenSet[str]:
        """Subjects ``s'`` with ``isa(name, s')``, *including* ``name``.

        This is the reflexive-transitive closure of axioms 11-12: the
        set of subjects whose rules apply to ``name``.
        """
        if name not in self._subjects:
            raise SubjectError(f"unknown subject {name!r}")
        return self._closure_map()[name]

    def isa(self, subject: str, ancestor: str) -> bool:
        """The closed ``isa(subject, ancestor)`` relation."""
        return ancestor in self.ancestors(subject)

    def members(self, role: str) -> FrozenSet[str]:
        """All subjects s with ``isa(s, role)`` (role itself included)."""
        if role not in self._subjects:
            raise SubjectError(f"unknown subject {role!r}")
        return frozenset(
            s for s in self._subjects if role in self.ancestors(s)
        )

    def isa_facts(self) -> Iterator[Tuple[str, str]]:
        """The *explicit* isa facts, as in the paper's set S (eq. 10)."""
        for subject, parents in sorted(self._parents.items()):
            for parent in sorted(parents):
                yield (subject, parent)

    def closure_facts(self) -> Iterator[Tuple[str, str]]:
        """The closed isa relation (output of axioms 11-12)."""
        for subject in sorted(self._subjects):
            for ancestor in sorted(self.ancestors(subject)):
                yield (subject, ancestor)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _walk_up(self, name: str) -> Set[str]:
        """``ancestors(name)`` computed from the explicit facts alone,
        without building (or needing) the global closure."""
        seen = {name}
        frontier = [name]
        while frontier:
            for parent in self._parents[frontier.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    def _closure_map(self) -> Dict[str, FrozenSet[str]]:
        if self._closure is None:
            closure: Dict[str, FrozenSet[str]] = {}

            def visit(name: str, seen: Set[str]) -> FrozenSet[str]:
                if name in closure:
                    return closure[name]
                if name in seen:  # pragma: no cover - cycles rejected earlier
                    raise SubjectError(f"cycle through {name!r}")
                seen.add(name)
                out: Set[str] = {name}
                for parent in self._parents[name]:
                    out |= visit(parent, seen)
                seen.discard(name)
                result = frozenset(out)
                closure[name] = result
                return result

            for subject in self._subjects:
                visit(subject, set())
            self._closure = closure
        return self._closure
