"""The four workloads: documents, subjects, seeded op streams, oracle.

Everything the server receives is generated here from ``(workload,
seed)``; the harness adds no other randomness.  A :class:`Shadow` holds
the values the document was generated with and is advanced as ops are
generated, so every :class:`Op` carries the exact reply the server must
give.  That works because each stream owns the patients it writes: a
stream's ops are sent one at a time (a pipelined connection runs one
stream per in-flight slot), so the order of *its* acks is its
generation order whatever the other streams do.

Why these four (names are fixed; later issues cite them):

``read_hot``
    Reads only, on warm views, WAL idle: XPath evaluation and netserve
    framing do the work.  Carries the three E23 shapes the compiled
    executor loses on (``namefn``, ``union``, ``count``).  A view-build
    or WAL change must show no movement here.
``write_group``
    Sixteen pipelined writers on a small document: commit groups form,
    so WAL append + fsync, group commit and framing are the largest
    share they can be.  Ends with a SIGKILL + restart check.
``mixed_rw``
    One writer, one reader of another role: every commit patches the
    resolver's selections and the reader's cached view, and the reader
    waits on the writer-preference lock.
``session_churn``
    Every patient logs in once: each op is a cold permission resolve +
    view build + connection set-up (rule 5's ``$USER`` gives every
    patient a distinct permission fingerprint, and the working set
    exceeds ``ViewCache(max_entries=128)``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import hospital_policy, hospital_subjects
from repro.security import SecureXMLDatabase
from repro.xmltree import RESTRICTED, parse_xml

WORKLOADS = ("read_hot", "write_group", "mixed_rw", "session_churn")

#: Patients per workload.  Measured, not guessed: set-up (spawn ->
#: listening -> warm) grows quadratically -- 0.4 s at 64 patients,
#: 0.8 s at 200, 3 s at 400, 6 s at 800 -- and a run sets up three
#: times inside the driver's per-run budget, so the ROADMAP's
#: 800/8k/80k tiers are not runnable yet.  The two write workloads are
#: smaller still so that a 15 s window holds enough independent write
#: latencies (at 200 patients ``mixed_rw`` commits 10 times a second;
#: ``write_group``'s sixteen writes ride one commit group per cycle).
#: Every result records its ``patients`` so a later issue can raise them.
PATIENTS = {
    "read_hot": 300,
    "write_group": 32,
    "mixed_rw": 120,
    "session_churn": 300,
}
SMOKE_PATIENTS = {
    "read_hot": 100,
    "write_group": 16,
    "mixed_rw": 100,
    "session_churn": 40,
}

#: In-flight requests per connection on ``write_group``.
WRITE_WINDOW = 8
#: The two connections of every workload.
CONNECTIONS = 2

SERVICES = ("cardiology", "pneumology", "neurology", "oncology")

#: ``read_hot``'s mix of named query shapes, in percent.
READ_MIX = (
    ("point", 60), ("count", 10), ("select", 10), ("pred", 10),
    ("desc", 4), ("namefn", 3), ("union", 3),
)
READ_SHAPES = tuple(shape for shape, _ in READ_MIX)
#: ``write_group``'s mix; ``remove`` takes back a note the same stream
#: appended, so the document stays bounded.
WRITE_MIX = (("update", 70), ("append", 15), ("remove", 15))
#: Notes a diagnosis may hold before ``append`` turns into ``remove``.
MAX_NOTES = 3

def xupdate_script(body: str) -> str:
    """``body`` (XUpdate instructions) as a complete script."""
    return (
        '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
        f"{body}</xupdate:modifications>"
    )


@dataclass
class Op:
    """One request and the reply the oracle demands for it."""

    kind: str  # "read" | "write" | "open"
    shape: str  # named query/update shape, for per-shape latency
    wire_op: str  # "query" | "select" | "execute" | "open"
    arg: str  # path, script, or (for "open") the user to log in as
    expect: Any  # reads/opens: the exact result; writes: the counts

    def check(self, result: Any) -> bool:
        """Is ``result`` (the response frame's ``result``) correct?"""
        if self.kind == "write":
            return isinstance(result, dict) and all(
                result.get(key) == value for key, value in self.expect.items()
            )
        return result == self.expect


class Shadow:
    """The harness's copy of what the document must contain."""

    def __init__(self, patients: int, rng: random.Random) -> None:
        self.names = [f"patient{index:05d}" for index in range(patients)]
        self.service = {name: rng.choice(SERVICES) for name in self.names}
        self.text = {name: _token(rng) for name in self.names}
        #: Element children of each diagnosis, as (label, content).
        self.notes: Dict[str, List[Tuple[str, str]]] = {
            name: [] for name in self.names
        }
        #: Commits the server must have installed (one per acked
        #: non-strict ``execute``, whether or not it changed a node).
        self.version = 0

    def diagnosis_xml(self, name: str, restricted: bool = False) -> str:
        """``<diagnosis>`` as a doctor sees it, or as the secretary
        does (rule 2 denies her the content, rule 3 keeps its position:
        the text reads RESTRICTED)."""
        text = RESTRICTED if restricted else self.text[name]
        notes = "".join(
            f"<{label}>{content}</{label}>"
            for label, content in self.notes[name]
        )
        return f"<diagnosis>{text}{notes}</diagnosis>"

    def patient_xml(self, name: str, restricted: bool = False) -> str:
        return (
            f"<{name}><service>{self.service[name]}</service>"
            f"{self.diagnosis_xml(name, restricted)}</{name}>"
        )

    def document_xml(self) -> str:
        """The whole document as a doctor's ``read_xml`` returns it."""
        body = "".join(self.patient_xml(name) for name in self.names)
        return f"<patients>{body}</patients>"


def _token(rng: random.Random) -> str:
    # An XML name, because xupdate:update relabels *every* child of the
    # selected diagnosis -- appended <note> elements included.
    return f"dx{rng.getrandbits(32):08x}"


def _pick(rng: random.Random, mix: Sequence[Tuple[str, int]]) -> str:
    roll = rng.randrange(100)
    for shape, share in mix:
        roll -= share
        if roll < 0:
            return shape
    raise ValueError("mix shares must sum to 100")


def read_op(shadow: Shadow, shape: str, name: str, restricted: bool) -> Op:
    """The read of ``shape`` on patient ``name`` and its exact reply."""
    base = f"/patients/{name}"
    diagnosis = shadow.diagnosis_xml(name, restricted)
    service = f"<service>{shadow.service[name]}</service>"

    def nodes(*xml: str) -> Dict[str, Any]:
        return {"type": "node-set", "nodes": list(xml)}

    if shape == "point":
        return Op("read", shape, "query", f"{base}/diagnosis", nodes(diagnosis))
    if shape == "count":
        return Op("read", shape, "query", f"count({base}/*)",
                  {"type": "number", "value": 2.0})
    if shape == "select":
        return Op("read", shape, "select", base,
                  {"nodes": [shadow.patient_xml(name, restricted)]})
    if shape == "pred":
        hit = shadow.service[name] == "cardiology"
        return Op("read", shape, "query",
                  f"{base}[service='cardiology']/diagnosis",
                  nodes(diagnosis) if hit else nodes())
    if shape == "desc":
        return Op("read", shape, "query", "count(//diagnosis)",
                  {"type": "number", "value": float(len(shadow.names))})
    if shape == "namefn":
        return Op("read", shape, "query",
                  f"/patients/*[name()='{name}']/service", nodes(service))
    if shape == "union":
        return Op("read", shape, "query",
                  f"{base}/service | {base}/diagnosis",
                  nodes(service, diagnosis))
    raise ValueError(f"unknown read shape {shape!r}")


def read_stream(
    shadow: Shadow, rng: random.Random, restricted: bool,
    mix: Sequence[Tuple[str, int]] = READ_MIX,
) -> Iterator[Op]:
    """Endless seeded reads of a random patient.  Only sound while no
    stream writes the patients it reads -- or the reader is the
    secretary, whose reply does not depend on the diagnosis text."""
    while True:
        yield read_op(shadow, _pick(rng, mix), rng.choice(shadow.names),
                      restricted)


def write_stream(
    shadow: Shadow, rng: random.Random, owned: Sequence[str],
    mix: Sequence[Tuple[str, int]] = WRITE_MIX,
) -> Iterator[Op]:
    """Endless seeded writes by a doctor to the patients this stream
    owns; the shadow is advanced as each op is generated."""
    counts = {"fully_applied": True, "selected": 1, "denied": 0}
    while True:
        name = rng.choice(owned)
        notes = shadow.notes[name]
        shape = _pick(rng, mix)
        if shape == "append" and len(notes) >= MAX_NOTES:
            shape = "remove"
        if shape == "remove" and not notes:
            shape = "update"
        target = f"/patients/{name}/diagnosis"
        if shape == "update":
            value = _token(rng)
            body = f'<xupdate:update select="{target}">{value}</xupdate:update>'
            affected = 1 + len(notes)
            shadow.text[name] = value
            shadow.notes[name] = [(value, content) for _, content in notes]
        elif shape == "append":
            content = _token(rng)
            body = (
                f'<xupdate:append select="{target}"><xupdate:element '
                f'name="note">{content}</xupdate:element></xupdate:append>'
            )
            affected = 1
            notes.append(("note", content))
        else:
            label = notes[0][0]
            body = f'<xupdate:remove select="{target}/{label}[1]"/>'
            affected = 1
            del notes[0]
        shadow.version += 1
        yield Op("write", shape, "execute", xupdate_script(body),
                 dict(counts, affected=affected))


def open_stream(shadow: Shadow, users: Sequence[str]) -> Iterator[Op]:
    """One cold login per user: connect, ``open_session``, ``select
    /patients/*`` (exactly the user's own subtree, rule 5), close."""
    for user in users:
        yield Op("open", "open", "open", user, [shadow.patient_xml(user)])


@dataclass
class Lane:
    """One connection: its subject and one op stream per in-flight
    slot (``user`` is None on a churn lane, whose ops each log in)."""

    user: Optional[str]
    kind: str  # the ops its streams yield: "read" | "write" | "open"
    streams: List[Iterator[Op]]


@dataclass
class Plan:
    """A workload instantiated for one seed."""

    workload: str
    seed: int
    patients: int
    shadow: Shadow
    lanes: List[Lane]
    #: The op kind whose latency and rate are the end-to-end metrics.
    gated: str
    #: Ops each stream runs before the timed window (caches filled).
    warmup_ops: int
    #: Whether the window is the streams' fixed length, not a duration.
    fixed_length: bool = False
    users: List[str] = field(default_factory=list)


def build_plan(workload: str, seed: int, patients: Optional[int] = None) -> Plan:
    """Instantiate ``workload`` for ``seed`` (a pure function of both)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    count = patients if patients is not None else PATIENTS[workload]

    def rng(role: str) -> random.Random:
        return random.Random(f"{workload}:{seed}:{role}")

    shadow = Shadow(count, rng("document"))
    names = shadow.names
    if workload == "read_hot":
        lanes = [
            Lane("laporte", "read", [read_stream(shadow, rng("a"), False)]),
            Lane("beaufort", "read", [read_stream(shadow, rng("b"), True)]),
        ]
        return Plan(workload, seed, count, shadow, lanes, "read", 40)
    if workload == "write_group":
        slots = CONNECTIONS * WRITE_WINDOW
        lanes = []
        for conn, user in enumerate(("laporte", "doctor1")):
            streams = []
            for slot in range(WRITE_WINDOW):
                index = conn * WRITE_WINDOW + slot
                streams.append(write_stream(
                    shadow, rng(f"slot{index}"), names[index::slots]
                ))
            lanes.append(Lane(user, "write", streams))
        return Plan(workload, seed, count, shadow, lanes, "write", 1)
    if workload == "mixed_rw":
        point = (("point", 100),)
        update = (("update", 100),)
        lanes = [
            Lane("laporte", "write",
                 [write_stream(shadow, rng("a"), names, update)]),
            Lane("beaufort", "read",
                 [read_stream(shadow, rng("b"), True, point)]),
        ]
        return Plan(workload, seed, count, shadow, lanes, "write", 6)
    order = list(names)
    rng("order").shuffle(order)
    lanes = [
        Lane(None, "open", [open_stream(shadow, order[conn::CONNECTIONS])])
        for conn in range(CONNECTIONS)
    ]
    return Plan(workload, seed, count, shadow, lanes, "open", 0,
                fixed_length=True, users=order)


def stream_digest(workload: str, seed: int, patients: Optional[int] = None,
                  depth: int = 64) -> str:
    """SHA-256 over the first ``depth`` ops of every stream of a fresh
    plan -- recorded in each result so two runs can be shown to have
    sent the server the same inputs."""
    plan = build_plan(workload, seed, patients)
    digest = hashlib.sha256()
    for lane in plan.lanes:
        for stream in lane.streams:
            for _, op in zip(range(depth), stream):
                digest.update(f"{op.wire_op}\0{op.arg}\0".encode("utf-8"))
    return digest.hexdigest()


def build_database(plan: Plan) -> SecureXMLDatabase:
    """The paper's hospital (figure 3 subjects, equation 13 policy)
    over ``plan``'s document, with ``doctor1..3`` and one ``patient``
    user per patient element added through the public hierarchy API."""
    subjects = hospital_subjects()
    for index in (1, 2, 3):
        subjects.add_user(f"doctor{index}", member_of="doctor")
    for name in plan.shadow.names:
        subjects.add_user(name, member_of="patient")
    policy = hospital_policy(subjects)
    document = parse_xml(plan.shadow.document_xml())
    return SecureXMLDatabase(document, subjects, policy)
