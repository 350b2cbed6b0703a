"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures; the
rendered rows are printed and also written to ``benchmarks/results/`` so
the reproduction can be inspected after the run.  A session-scoped data
repository shares the measurement campaign (clusters, runs, feature
selections) across benches.
"""

from __future__ import annotations

import pytest
from _util import RESULTS_DIR

from repro.experiments import get_repository


@pytest.fixture(scope="session")
def repository():
    return get_repository()


@pytest.fixture(scope="session")
def record_result():
    """Write one experiment's rendered output to benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _record
