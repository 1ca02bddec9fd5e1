"""Bit-for-bit pins of every corpus trace and of ``eval_dual`` on fixed grids.

``data/corpus_bits.json`` holds what the program computed when it was
recorded: for every built-in problem, start and method, the outcome label,
the record count and a SHA-256 digest of the records' (k, x, y, dy,
r_weight) bits; and the (value, deriv) bits of ``eval_dual``, or its
``DomainError`` kind and argument, on a grid over each sampling window and
at a set of edge points.  Any change to the evaluator, the step formulas or
the classification that moves a single bit fails here.

Recorded by running this file as a script from the repository root::

    PYTHONPATH=src python tests/test_corpus_bits.py --record

Without ``--record`` the script checks the data and prints what differs.
The file is a record of past behaviour, not a target: do not re-record it
to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from pathlib import Path

from conftest import SAMPLE_WINDOWS

from twopoint.corpus import builtin_problems
from twopoint.expressions import DomainError, Expression, eval_dual, parse
from twopoint.solvers import Method, Trace, solve

DATA = Path(__file__).parent / "data" / "corpus_bits.json"
GRID_STEPS = 64  # each window is sampled at GRID_STEPS + 1 points, ends included

# points off the sampling windows: domain errors, overflow, infinite
# derivatives and the power rule's corner cases
EDGE_POINTS = (
    ("ln(x)", -1.0),
    ("ln(x)", 0.0),
    ("log10(x)", 0.0),
    ("sqrt(x)", -4.0),
    ("sqrt(x)", 0.0),
    ("sqrt(x)^2", 0.0),
    ("cbrt(x)", 0.0),
    ("cbrt(x)^2", 0.0),
    ("x^0.5", -2.0),
    ("x^0.5", 0.0),
    ("x^-1", 0.0),
    ("x^-0.5", 0.0),
    ("x^x", -2.0),
    ("x^x", 0.0),
    ("2^x", 2000.0),
    ("x^3", 1e200),
    ("1/x", 0.0),
    ("0/x", 0.0),
    ("1/(x-x)", 3.0),
    ("x*x", 1e200),
    ("x+x", 1.7e308),
    ("exp(x)", 1000.0),
    ("exp(x)", -1000.0),
    ("tan(x)", math.pi / 2),
    ("atan(x)", 1e300),
    ("abs(x)", 0.0),
    ("abs(x)", -3.0),
    ("-x", 0.0),
    ("sin(x)/x", 1e-150),
    ("x^2/x", 1e-150),
)


def _bits(v: float) -> str:
    return struct.pack("<d", v).hex()


def _eval_entry(expr: Expression, x: float) -> str:
    try:
        d = eval_dual(expr, x)
    except DomainError as err:
        return f"{err.kind} {_bits(err.arg)}"
    return f"{_bits(d.value)} {_bits(d.deriv)}"


def trace_entry(trace: Trace) -> str:
    """'label records digest': the outcome label, the record count and a
    SHA-256 digest of every record's (k, x, y, dy, r_weight) bits."""
    digest = hashlib.sha256()
    for rec in trace.records:
        digest.update(struct.pack("<q4d", rec.k, rec.x, rec.y, rec.dy, rec.r_weight))
    return f"{trace.outcome.label} {len(trace.records)} {digest.hexdigest()}"


def trace_bits() -> dict[str, str]:
    """'name @ start @ method' -> 'label records digest' for every corpus run."""
    out = {}
    for prob in builtin_problems():
        for start in prob.starts:
            for method in Method:
                key = f"{prob.name} @ {start!r} @ {method.value}"
                out[key] = trace_entry(solve(prob.expression, method, start))
    return out


def grid_bits() -> dict[str, list[str]]:
    """source -> eval_dual entries at lo + (hi - lo) * i / GRID_STEPS."""
    out = {}
    for source, (lo, hi) in SAMPLE_WINDOWS.items():
        expr = parse(source)
        out[source] = [_eval_entry(expr, lo + (hi - lo) * i / GRID_STEPS) for i in range(GRID_STEPS + 1)]
    return out


def edge_bits() -> list[str]:
    return [_eval_entry(parse(text), x) for text, x in EDGE_POINTS]


def _recorded() -> dict:
    return json.loads(DATA.read_text())


def test_every_corpus_trace_is_bit_identical():
    want = _recorded()["traces"]
    assert len(want) == 87
    assert trace_bits() == want


def test_eval_dual_grid_is_bit_identical():
    want = _recorded()["grid"]
    got = grid_bits()
    assert got.keys() == want.keys()
    for source in want:
        assert got[source] == want[source], source


def test_eval_dual_edge_points_are_bit_identical():
    want = _recorded()["edges"]
    for (text, x), got, expected in zip(EDGE_POINTS, edge_bits(), want, strict=True):
        assert got == expected, (text, x)


if __name__ == "__main__":
    from pins import check_or_record

    sys.exit(check_or_record(DATA, {"traces": trace_bits(), "grid": grid_bits(), "edges": edge_bits()}))
