"""Bit-for-bit pins of solver traces on a coarse grid of starts.

``data/grid_bits.json`` holds, for each source of ``SAMPLE_WINDOWS`` and
each method, one entry per start ``lo + (hi - lo) * i / GRID_STEPS``
(i = 0 .. GRID_STEPS, ends included): the outcome label, the record count
and a SHA-256 digest of the records' (k, x, y, dy, r_weight) bits, as
``test_corpus_bits`` writes them.  The 1722 runs reach every outcome
class, both derivative-stall rules (Newton's zero f' and secant's missing
chord), oscillations and exhausted budgets, so a change to the step
formulas, the classification or the ``solve`` loop that moves a single bit
or an outcome anywhere on the grid fails here.

Recorded by running this file as a script from the repository root::

    PYTHONPATH=src python tests/test_grid_bits.py --record

Without ``--record`` the script checks the data and prints what differs.
The file is a record of past behaviour, not a target: do not re-record it
to make a change pass.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from conftest import SAMPLE_WINDOWS
from test_corpus_bits import trace_entry

from twopoint.expressions import parse
from twopoint.solvers import Method, solve

DATA = Path(__file__).parent / "data" / "grid_bits.json"
GRID_STEPS = 40  # each window is started from GRID_STEPS + 1 points, ends included


def grid_traces() -> dict[str, list[str]]:
    """'source @ method' -> 'label records digest' of the run from each grid start."""
    out = {}
    for source, (lo, hi) in SAMPLE_WINDOWS.items():
        expr = parse(source)
        starts = [lo + (hi - lo) * i / GRID_STEPS for i in range(GRID_STEPS + 1)]
        for method in Method:
            out[f"{source} @ {method.value}"] = [trace_entry(solve(expr, method, x0)) for x0 in starts]
    return out


def _recorded() -> dict[str, list[str]]:
    return json.loads(DATA.read_text())


def test_grid_reaches_every_outcome_and_both_stall_rules():
    labels = Counter()
    for key, entries in _recorded().items():
        method = key.rsplit(" @ ", 1)[1]
        labels.update((entry.split()[0], method) for entry in entries)
    assert sum(labels.values()) == len(SAMPLE_WINDOWS) * len(Method) * (GRID_STEPS + 1) == 1722
    for label in ("converged", "diverged", "oscillating", "domain-failure", "max-iterations"):
        assert sum(n for (lab, _), n in labels.items() if lab == label) > 0, label
    assert labels["derivative-stall", Method.NEWTON.value] > 0
    assert labels["derivative-stall", Method.SECANT.value] > 0


def test_every_grid_trace_is_bit_identical():
    want = _recorded()
    got = grid_traces()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    from pins import check_or_record

    sys.exit(check_or_record(DATA, grid_traces()))
