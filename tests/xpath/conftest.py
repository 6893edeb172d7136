"""Differential mode is armed for the whole XPath spec suite.

Every ``engine.evaluate`` / ``select`` under ``tests/xpath/`` runs the
compiled pipeline *and* the AST interpreter of
``repro.testing.xpath_oracle`` on the same context, and fails with
``XPathDifferentialError`` if they disagree -- so the axes, comparisons,
functions, predicates and properties suites pin compiled == oracle on
every case in tier-1, not only in ``make fault``.
"""

import pytest

from repro.xpath import differential_enabled, set_differential


@pytest.fixture(autouse=True)
def differential():
    """Arm the compiled-vs-oracle runtime check, restoring the previous
    setting afterwards."""
    before = differential_enabled()
    set_differential(True)
    yield
    set_differential(before)
