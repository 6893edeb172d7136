"""The op streams and the oracle, without a server."""

from __future__ import annotations

import itertools
import random

import pytest

from bench.workloads import (
    MAX_NOTES, WORKLOADS, Shadow, build_plan, read_op, stream_digest,
    write_stream,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stream_is_a_pure_function_of_workload_and_seed(workload):
    assert stream_digest(workload, 5, 40) == stream_digest(workload, 5, 40)
    assert stream_digest(workload, 5, 40) != stream_digest(workload, 6, 40)


def test_workloads_differ_at_the_same_seed():
    digests = {stream_digest(workload, 5, 40) for workload in WORKLOADS}
    assert len(digests) == len(WORKLOADS)


def test_write_streams_own_disjoint_patients():
    plan = build_plan("write_group", 1, 64)
    seen = {}
    for index, stream in enumerate(
        s for lane in plan.lanes for s in lane.streams
    ):
        for op in itertools.islice(stream, 30):
            patient = op.arg.split("/patients/")[1].split("/")[0]
            assert seen.setdefault(patient, index) == index


def test_write_stream_keeps_the_document_bounded():
    shadow = Shadow(4, random.Random(0))
    stream = write_stream(shadow, random.Random(1), shadow.names)
    for op in itertools.islice(stream, 500):
        assert op.expect["selected"] == 1
    assert all(len(notes) <= MAX_NOTES for notes in shadow.notes.values())
    assert shadow.version == 500


def test_update_relabels_appended_notes():
    # xupdate:update gives *every* child of the diagnosis the new
    # label, <note> elements included: the shadow must follow.
    shadow = Shadow(1, random.Random(0))
    name = shadow.names[0]
    shadow.notes[name] = [("note", "n1")]
    update = (("update", 100),)
    op = next(write_stream(shadow, random.Random(2), [name], update))
    assert op.expect["affected"] == 2
    value = shadow.text[name]
    assert shadow.diagnosis_xml(name) == (
        f"<diagnosis>{value}<{value}>n1</{value}></diagnosis>"
    )


def test_secretary_reads_restricted_text():
    shadow = Shadow(3, random.Random(0))
    name = shadow.names[1]
    doctor = read_op(shadow, "point", name, restricted=False)
    secretary = read_op(shadow, "point", name, restricted=True)
    assert doctor.arg == secretary.arg
    assert shadow.text[name] in doctor.expect["nodes"][0]
    assert secretary.expect["nodes"] == ["<diagnosis>RESTRICTED</diagnosis>"]


def test_session_churn_logs_every_patient_in_once():
    plan = build_plan("session_churn", 3, 40)
    users = [op.arg for lane in plan.lanes for op in lane.streams[0]]
    assert sorted(users) == sorted(plan.shadow.names)
    assert plan.fixed_length
