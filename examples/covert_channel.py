"""The section-2.2 covert channel, demonstrated and closed.

The paper's motivating attack: SQL (and the author's earlier XML model
[10]) evaluates write operations on the *source* database, so a user
holding only a write privilege can smuggle read predicates into the
operation's WHERE clause / PATH parameter and decode invisible data
from the success pattern:

    UPDATE user_A.employee SET salary=salary+100 WHERE salary > 3000;
    2 rows updated      -- user_B just learned something she cannot SELECT

Here the secretary (who may rename patient elements but may *not* read
diagnosis content) plays user_B and probes robert's diagnosis one
candidate illness at a time.  Under the insecure source-evaluated
semantics the probe works perfectly; under the paper's view-evaluated
semantics (axioms 18-25) every probe selects nothing, because the
predicate is evaluated against a view in which the diagnosis text reads
RESTRICTED.

Run with::

    python examples/covert_channel.py
"""

from repro import Rename
from repro.core import hospital_database
from repro.security.insecure import InsecureWriteExecutor

CANDIDATE_ILLNESSES = [
    "influenza",
    "tonsillitis",
    "pneumonia",
    "angina",
    "measles",
]


def probe(path_template: str, illness: str) -> Rename:
    """A write whose PATH leaks one bit: does robert have ``illness``?

    The rename is chosen to be *idempotent-looking* (renaming robert to
    robert) so the attacker leaves no trace when a probe hits.
    """
    return Rename(path_template.format(illness=illness), "robert")


def main() -> None:
    db = hospital_database()
    template = "/patients/robert[diagnosis/text()='{illness}']"

    # --- the attack against the insecure (SQL/[10]) semantics ---------
    print("== Insecure semantics: PATH evaluated on the source ==")
    insecure = InsecureWriteExecutor()
    view = db.build_view("beaufort")  # the secretary's privileges
    learned = None
    for illness in CANDIDATE_ILLNESSES:
        result = insecure.apply(view, probe(template, illness))
        hit = bool(result.selected)
        print(f"  probe {illness!r:15} -> selected={len(result.selected)}")
        if hit:
            learned = illness
    print(f"  ATTACK RESULT: the secretary inferred robert has "
          f"{learned!r}\n")

    # --- the same attack against the paper's semantics ----------------
    print("== Secure semantics: PATH evaluated on the view (axioms 18-25) ==")
    secretary = db.login("beaufort")
    for illness in CANDIDATE_ILLNESSES:
        result = secretary.execute(probe(template, illness))
        print(f"  probe {illness!r:15} -> selected={len(result.selected)}")
    print("  ATTACK RESULT: every probe selects nothing -- in the "
          "secretary's view the diagnosis text is RESTRICTED, so the "
          "predicate can never match.  The channel is closed.")

    # Sanity: the secretary's legitimate rename still works.
    legit = secretary.execute(Rename("/patients/robert", "robert"))
    print(f"\n  (legitimate rename still fine: affected="
          f"{len(legit.affected)}, denied={len(legit.denials)})")


if __name__ == "__main__":
    main()
