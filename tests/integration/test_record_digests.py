"""Golden record digests: sweep records are pinned byte for byte.

Each digest is the SHA-256 of ``json.dumps(SweepResult.to_rows())`` for a
tiny grid (50 and 100 nodes, one repetition, the paper's default sweep
configuration) under the synchronous system and the duty-cycle system at
``r = 10`` and ``r = 50``.  The 100-node column makes OPT and G-OPT choose
between several colours, so the time-counter search is pinned as well as
the single-candidate decisions.

The digests were recorded before any performance work on the policy layer;
an optimisation that changes a single record fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep

GRID = SweepConfig(node_counts=(50, 100), repetitions=1)

GOLDEN = {
    ("sync", 10): "bf967b67f7af14b78a4255f1a89b15532fc1aa0af490927b05a5c56e00420987",
    ("duty", 10): "1da8d86e137986e228ad9d76b46dfbe0726edf03fc7473e82aee7449a8eafe3e",
    ("duty", 50): "73419045eeafe912a7880eac9d616fde9d1d6d271f19c9dc940da660778c3dbd",
}


def rows_digest(rows: list[list[object]]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize(("system", "rate"), sorted(GOLDEN))
def test_sweep_records_match_golden_digest(system, rate):
    rows = run_sweep(GRID, system=system, rate=rate).to_rows()
    assert len(rows) == 2 * 4  # two node counts x the four-policy line-up
    assert rows_digest(rows) == GOLDEN[(system, rate)]
