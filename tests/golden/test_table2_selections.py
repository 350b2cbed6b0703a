"""Table II pinned: Algorithm 1's selections on all six platforms.

``run_table2`` on the default data repository (5 machines, 5 runs of
each workload, the package's default seed) is compared against a
committed fixture: every platform's selected counters, in order, and the
cross-platform general set.  Any change to the selection pipeline that
moves a single counter on any platform fails here.

Run ``pytest tests/golden --regen-golden`` to refresh the fixture after
an intentional change to Algorithm 1.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.data import ALL_PLATFORM_KEYS, DataRepository
from repro.experiments.table2 import run_table2

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "table2_selections.json"


def test_table2_selections_match_fixture(regen_golden):
    repository = DataRepository()
    result = run_table2(repository)
    scenario = {
        "seed": repository.seed,
        "n_runs": repository.n_runs,
        "n_machines": repository.n_machines,
    }
    selections = {key: list(value) for key, value in result.selections.items()}
    if regen_golden:
        payload = {
            "description": (
                "Table II selections pinned: regenerate with "
                "`pytest tests/golden --regen-golden` only after an "
                "intentional change to Algorithm 1."
            ),
            "scenario": scenario,
            "selections": selections,
            "general": list(result.general),
        }
        FIXTURE_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    fixture = json.loads(FIXTURE_PATH.read_text())
    assert fixture["scenario"] == scenario
    assert set(fixture["selections"]) == set(ALL_PLATFORM_KEYS)
    for platform in ALL_PLATFORM_KEYS:
        assert selections[platform] == fixture["selections"][platform], (
            platform
        )
    assert list(result.general) == fixture["general"]
