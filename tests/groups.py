"""Forming commit groups by count, never by timing.

A :class:`~repro.serving.GroupCommitter` leader waits only for writes
that are *coming*, so threads that merely start together may or may
not share a group.  These helpers form a burst deterministically: in
process, by stepping every write's ``schedule`` to its first ticket
before any leader drives; over a socket, by sending every ``execute``
frame in one ``sendall``, so one read decodes them all and the frame
loop counts them before the first one joins.
"""

from repro.errors import RemoteError
from repro.netserve import NetClient, encode_frame
from repro.netserve.protocol import request, unwrap_response
from repro.serving import CommitTicket


def commit_together(committer, writes):
    """Run ``writes`` -- tuples of :meth:`GroupCommitter.schedule`
    arguments, ``(user, script[, strict, deadline, key])`` -- as one
    burst: every schedule takes its first ticket before any leader
    drives, so the burst forms groups of ``max_batch`` by count.  Each
    schedule is then finished on this thread the way
    :meth:`GroupCommitter.commit` drives it (re-submits included).

    Returns, per write, its durable result or the exception it raised.
    """
    schedules = [committer.schedule(*write) for write in writes]
    firsts = [next(schedule) for schedule in schedules]
    for ticket in firsts:
        if ticket.leader:
            committer.drive(ticket)
    return [
        _finish(committer, schedule, first)
        for schedule, first in zip(schedules, firsts)
    ]


def _finish(committer, schedule, ticket):
    """Drive ``schedule`` on from its settled ``ticket``; the result of
    its last ticket, or the exception the schedule raised."""
    try:
        for step in schedule:
            if not isinstance(step, CommitTicket):
                committer._server._sleep(step)
                continue
            ticket = step
            if step.leader:
                committer.drive(step)
            else:
                step.wait(step.deadline.timeout())
    except Exception as exc:  # noqa: BLE001 -- the outcome under test
        return exc
    return ticket.result


def execute_burst(host, port, user, scripts, keys=None):
    """Send one ``execute`` frame per script, all in one ``sendall`` on
    a fresh connection logged in as ``user`` (``keys``: an idempotency
    key per script).  Returns, per script, the reply's summary or the
    :class:`~repro.errors.RemoteError` it relayed."""
    keys = keys or [None] * len(scripts)
    with NetClient(host, port, timeout=10.0) as client:
        client.open_session(user)
        first = client._next_id + 1
        client._sock.sendall(b"".join(
            encode_frame(request(
                first + index, "execute", script=script,
                idempotency_key=key,
            ))
            for index, (script, key) in enumerate(zip(scripts, keys))
        ))
        client._next_id += len(scripts)
        replies = []
        for index in range(len(scripts)):
            try:
                replies.append(unwrap_response(client._receive(first + index)))
            except RemoteError as exc:
                replies.append(exc)
        return replies
