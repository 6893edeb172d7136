"""The benchmark's hospital, re-stated for tier-1 cost tests.

``bench/workloads.py``'s ``build_database`` builds the same database;
tier-1 does not import ``bench``, so the cost guards share this copy.
"""

from repro.core import hospital_policy, hospital_subjects
from repro.security import SecureXMLDatabase
from repro.xmltree import parse_xml


def bench_hospital(patients: int) -> SecureXMLDatabase:
    """Figure-3 subjects plus ``doctor1..3`` and one ``patient`` user
    per patient element, equation-13 policy, figure-2 document."""
    names = [f"patient{index:05d}" for index in range(patients)]
    subjects = hospital_subjects()
    for index in (1, 2, 3):
        subjects.add_user(f"doctor{index}", member_of="doctor")
    for name in names:
        subjects.add_user(name, member_of="patient")
    body = "".join(
        f"<{name}><service>cardiology</service>"
        f"<diagnosis>dx{index:08x}</diagnosis></{name}>"
        for index, name in enumerate(names)
    )
    return SecureXMLDatabase(
        parse_xml(f"<patients>{body}</patients>"),
        subjects,
        hospital_policy(subjects),
    )


def xupdate_script(body: str) -> str:
    """``body`` (XUpdate instructions) as a complete script."""
    return (
        '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
        f"{body}</xupdate:modifications>"
    )


def update_script(name: str, value: str) -> str:
    """Replace the content of patient ``name``'s diagnosis."""
    return xupdate_script(
        f'<xupdate:update select="/patients/{name}/diagnosis">{value}'
        "</xupdate:update>"
    )


def append_script(name: str, value: str) -> str:
    """Append a ``<note>`` to patient ``name``'s diagnosis."""
    return xupdate_script(
        f'<xupdate:append select="/patients/{name}/diagnosis">'
        f'<xupdate:element name="note">{value}</xupdate:element>'
        "</xupdate:append>"
    )
