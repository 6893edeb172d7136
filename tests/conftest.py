"""Shared fixtures: the paper's running example and common engines."""

import pytest

from repro.core import (
    hospital_database,
    hospital_policy,
    hospital_subjects,
    medical_document,
)
from repro.security import PermissionResolver, ViewBuilder
from repro.xpath import XPathEngine
from repro.xupdate import XUpdateExecutor


@pytest.fixture(autouse=True)
def _reset_faults():
    """Disarm every fault site around each test (fault-suite hygiene)."""
    from repro.faults import faults

    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def bytes_read(monkeypatch):
    """Every byte count returned by a read through the fault seam
    (:class:`repro.faults.FaultyFile`), in call order."""
    from repro.faults import FaultyFile

    counts = []
    real = FaultyFile.read

    def counting(self, size=-1):
        data = real(self, size)
        counts.append(len(data))
        return data

    monkeypatch.setattr(FaultyFile, "read", counting)
    return counts


@pytest.fixture
def doc():
    """The figure-2 medical document, fresh per test."""
    return medical_document()


@pytest.fixture
def subjects():
    """The figure-3 subject hierarchy."""
    return hospital_subjects()


@pytest.fixture
def policy(subjects):
    """The equation-13 policy bound to the figure-3 subjects."""
    return hospital_policy(subjects)


@pytest.fixture
def db():
    """The fully assembled hospital database."""
    return hospital_database()


@pytest.fixture
def engine():
    """A strict XPath 1.0 engine (no paper-compat extensions)."""
    return XPathEngine()


@pytest.fixture
def paper_engine():
    """The paper-compat engine the security layer uses."""
    return XPathEngine(lone_variable_name_test=True, star_matches_text=True)


@pytest.fixture
def executor(paper_engine):
    """An unsecured XUpdate executor over the paper-compat engine."""
    return XUpdateExecutor(paper_engine)


@pytest.fixture
def resolver(paper_engine):
    return PermissionResolver(paper_engine)


@pytest.fixture
def view_builder(resolver):
    return ViewBuilder(resolver)
