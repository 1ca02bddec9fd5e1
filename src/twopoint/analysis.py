"""Error sequences and per-step convergence rates.

The per-step rate pairs consecutive errors through

    c_k = log|E_{k+1}| / log|E_k|,   E_k = x_k - root

which is independent of the log base.  Entries are valid only while both
errors sit strictly between round-off noise and 1.

Near a root E_{k+1} ~ C * E_k^p, so c_k = p + log C / log|E_k|: its bias
shrinks only like 1/log|E_k| and is still visible when the iteration stops
(Newton on exp(x^2+7x-30)-1 has C ~ 6.6 and reads c_k ~ 1.86 at the last
valid entry).  The asymptotic order is therefore estimated by the
computational order of convergence (COC; Weerakoon & Fernando 2000)

    rho_k = log|E_{k+1} / E_k| / log|E_k / E_{k-1}|

in which log C cancels.  Each rho_k joins two consecutive valid c_k pairs
among the last few valid ones, and the estimate is their median (about
2.414 for the two-point iteration on a simple root, 2 for Newton, 1.618
for secant).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .solvers import Trace

__all__ = [
    "ConvergenceReport",
    "ErrorSequence",
    "ck_sequence",
    "error_sequence",
]

_ORDER_TAIL = 5
_FLOOR_FACTOR = 1e3 * sys.float_info.epsilon


class ErrorSequence(NamedTuple):
    reference_root: float
    errors: tuple[float, ...]
    # leading errors that belong to seed points; the ratio between two seed
    # points is not a step of the method and never enters the order estimate
    seeds: int = 1


class ConvergenceReport(NamedTuple):
    # NaN where the validity filter rejected the pair; a valid c_k is finite
    ck: tuple[float, ...]
    # median COC over the tail window; present only with >= 3 valid entries
    # and at least one usable COC
    estimated_order: float | None
    # valid c_k pairs (the last <= 5) the COC values were drawn from; 0 when
    # estimated_order is None
    tail_window: int


def error_sequence(trace: Trace, reference_root: float) -> ErrorSequence:
    """Signed errors x_k - reference_root of every record, in order.

    ``seeds`` holds how many leading records are seed points rather than
    results of a step: 1 for Newton, 2 for secant and two-point, and 1 for
    a run that stopped at x0.
    """
    if not math.isfinite(reference_root):
        raise ValueError("reference root must be finite")
    errors = tuple([rec.x - reference_root for rec in trace.records])
    return ErrorSequence(reference_root, errors, len(trace.records) - trace.iterations)


def ck_sequence(errors: ErrorSequence) -> ConvergenceReport:
    """Per-step rates with a validity filter and a median-COC tail estimate.

    Both errors of a pair must lie in (floor, 1), where the floor is
    1e3 * machine epsilon scaled by the root magnitude; outside that band
    the log ratio measures noise or flips sign.  The estimate is the median
    COC over consecutive valid pairs among the last five valid ones.  A COC
    whose first ratio joins two seed points, or whose first ratio is 1
    (a plateau or a 2-cycle), is left out.
    """
    errs = errors.errors
    if len(errs) < 2:
        raise ValueError("need at least two iterates to estimate rates")
    floor = _FLOOR_FACTOR * max(1.0, abs(errors.reference_root))
    # log|E_k| inside the band (floor, 1), None outside it
    logs = [math.log(a) if floor < a < 1.0 else None for a in map(abs, errs)]
    ck = [math.nan if la is None or lb is None else lb / la for la, lb in zip(logs, logs[1:])]
    valid = [i for i, c in enumerate(ck) if c == c]
    tail = valid[-_ORDER_TAIL:] if len(valid) >= 3 else []
    cocs: list[float] = []
    for i, j in zip(tail, tail[1:]):
        if j != i + 1 or i < errors.seeds - 1:
            continue
        den = logs[j] - logs[i]
        if den != 0.0:
            cocs.append((logs[j + 1] - logs[j]) / den)
    if not cocs:
        return ConvergenceReport(tuple(ck), None, 0)
    cocs.sort()
    mid = len(cocs) // 2
    order = cocs[mid] if len(cocs) % 2 else (cocs[mid - 1] + cocs[mid]) / 2
    return ConvergenceReport(tuple(ck), order, len(tail))

