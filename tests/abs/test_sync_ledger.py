"""A committed ledger of seeded sync-mode results.

``tests/test_determinism.py`` compares two runs of the same code, so a
refactor that moves every seeded answer the same way stays green there.
This ledger pins the values themselves: for each case below, one
seeded ``solve("sync")`` must reproduce ``sync_ledger.json`` exactly —
``best_energy``, the sha256 of ``best_x``, ``rounds``, ``sweeps`` and
every ``result.counters`` key and value.  Backends never change a
result, so the ledger holds on ``auto``, ``bitplane`` and ``numpy``
alike (``make test-backends`` also runs it with the C compiler masked).

Regenerate only after an intended change of behaviour, and say so:
``PYTHONPATH=src python tests/abs/test_sync_ledger.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.abs import AbsConfig, AdaptiveBulkSearch
from repro.problems.maxcut import maxcut_to_sparse_qubo, random_graph
from repro.qubo import QuboMatrix

LEDGER = Path(__file__).with_name("sync_ledger.json")


def _dense():
    return QuboMatrix.random(192, seed=11)


def _sparse():
    return maxcut_to_sparse_qubo(random_graph(240, 720, weighted=True, seed=3))


#: case -> (problem factory, AbsConfig fields beyond the shared ones).
CASES = {
    "one-device": (_dense, dict(n_gpus=1, max_rounds=12)),
    "three-devices": (_dense, dict(n_gpus=3, max_rounds=15)),
    "variant-fleet": (_dense, dict(n_gpus=4, variants="fleet", max_rounds=24)),
    "variant-adapt": (
        _dense,
        dict(
            n_gpus=4,
            variants="ladder,hot",
            variant_adapt=True,
            variant_adapt_period=2,
            max_rounds=48,
        ),
    ),
    "adapt-windows": (
        _dense,
        dict(n_gpus=2, adapt_windows=True, adapt_period=2, max_rounds=16),
    ),
    "mid-sweep-stop": (_dense, dict(n_gpus=3, max_rounds=11)),
    "target-stop": (_dense, dict(n_gpus=2, target_energy=-28_000_000, max_rounds=400)),
    "diversity": (_dense, dict(n_gpus=2, diversity_min_dist=24, max_rounds=16)),
    "sparse-maxcut": (_sparse, dict(n_gpus=2, max_rounds=16)),
}


def record(case: str) -> dict:
    """One case's seeded sync result, in ledger form."""
    make_problem, fields = CASES[case]
    cfg = AbsConfig(blocks_per_gpu=4, local_steps=8, seed=7, **fields)
    res = AdaptiveBulkSearch(make_problem(), cfg).solve("sync")
    best_x = np.ascontiguousarray(res.best_x, dtype=np.uint8)
    return {
        "best_energy": res.best_energy,
        "best_x_sha256": hashlib.sha256(best_x.tobytes()).hexdigest(),
        "rounds": res.rounds,
        "sweeps": res.sweeps,
        "reached_target": res.reached_target,
        "counters": dict(sorted(res.counters.items())),
    }


@pytest.fixture(scope="module")
def ledger() -> dict:
    return json.loads(LEDGER.read_text())


def test_ledger_covers_every_case(ledger):
    assert sorted(ledger) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sync_result_matches_ledger(ledger, case):
    assert record(case) == ledger[case]


def test_cases_exercise_what_they_name(ledger):
    """Guards the ledger's reach: each stop and adaptation fires."""
    assert ledger["variant-adapt"]["counters"]["adapt.variant_reassignments"] > 0
    assert ledger["adapt-windows"]["counters"]["adapt.reassignments"] > 0
    assert ledger["diversity"]["counters"]["pool.rejected_diverse"] > 0
    mid = ledger["mid-sweep-stop"]
    assert (mid["rounds"], mid["sweeps"]) == (11, 3)
    target = ledger["target-stop"]
    assert target["reached_target"] and target["rounds"] < 400


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/abs/test_sync_ledger.py --write")
    LEDGER.write_text(
        json.dumps({case: record(case) for case in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {LEDGER}")
