"""E10 (section 2.2): the covert channel, open vs closed.

Regenerates: the leak under source-evaluated writes (the SQL / [10]
semantics) and its absence under view-evaluated writes, timing both
write paths.  The headline row is the pair of selection counts:
insecure probe selects 1 node (the leak), secure probe selects 0.
"""

from repro.security import SecureWriteExecutor
from repro.security.insecure import InsecureWriteExecutor
from repro.xupdate import Rename

PROBE = Rename("/patients/*[diagnosis/text()='pneumonia']", "flagged")


def test_e10_insecure_probe_leaks(benchmark, paper_db):
    view = paper_db.build_view("beaufort")
    executor = InsecureWriteExecutor()

    def run():
        return executor.apply(view, PROBE)

    result = benchmark(run)
    assert len(result.selected) == 1  # "1 row updated" -- the leak
    assert len(result.affected) == 1


def test_e10_secure_probe_blind(benchmark, paper_db):
    view = paper_db.build_view("beaufort")
    executor = SecureWriteExecutor()

    def run():
        return executor.apply(view, PROBE)

    result = benchmark(run)
    assert result.selected == []  # channel closed
    assert result.affected == []


def test_e10_binary_search_attack_cost(benchmark, paper_db):
    """The full attack: probe every candidate illness insecurely.

    Times the attacker's whole dictionary sweep -- the cost of the
    attack the secure semantics makes impossible.
    """
    view = paper_db.build_view("beaufort")
    executor = InsecureWriteExecutor()
    candidates = ["influenza", "tonsillitis", "pneumonia", "angina", "asthma"]

    def run():
        hits = []
        for illness in candidates:
            probe = Rename(
                f"/patients/robert[diagnosis/text()='{illness}']", "robert"
            )
            if executor.apply(view, probe).selected:
                hits.append(illness)
        return hits

    hits = benchmark(run)
    assert hits == ["pneumonia"]
