"""Newton, secant, and two-point Newton iterations with full trace recording.

The two-point step combines the previous two iterates with the current
derivative through the weight

    r = 1 - (y_cur/y_prev) * (((y_cur - y_prev)/(x_cur - x_prev)) / dy_cur)
    x_next = x_prev - (x_prev - x_cur) / r
           = (1 - 1/r) * x_prev + (1/r) * x_cur

computed under IEEE semantics, so a vanishing derivative gives r = +/-inf
and the step keeps x_prev (weight 0 on the current point), while y_cur = 0
gives r = 1 and the step is a fixed point at the root.  Every run ends in a
classified :class:`Outcome`: converged, diverged, oscillating, domain
failure, derivative stall, or iteration budget exhausted.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum

from .expressions import DomainError, Expression, _Frozen, eval_dual

__all__ = [
    "Converged",
    "DerivativeStall",
    "Diverged",
    "DomainFailure",
    "IterationRecord",
    "MaxIterationsExceeded",
    "Method",
    "Oscillating",
    "Outcome",
    "Seed",
    "SeedingError",
    "SolverConfig",
    "Trace",
    "solve",
]

_NAN = math.nan

# |x| beyond this bound classifies a run as diverged
DIVERGENCE_BOUND = 1e12
# a cycle of period 2..CYCLE_PERIOD_MAX repeats x within
# CYCLE_TOL_REL * max(1, |x|); it is looked for from record CYCLE_MIN_ITERS on
CYCLE_PERIOD_MAX = 4
CYCLE_TOL_REL = 1e-9
CYCLE_MIN_ITERS = 20
# the periods classify tries, built once rather than as a range per record
_PERIODS = tuple(range(2, CYCLE_PERIOD_MAX + 1))
# Seed.GUARDED_NEWTON halves its seeding step at most this many times
MAX_HALVINGS = 40


class Method(Enum):
    NEWTON = "newton"
    SECANT = "secant"
    TWO_POINT = "twopoint"


# starting points each method needs before its first step; seeds are not steps
_SEEDS = {Method.NEWTON: 1, Method.SECANT: 2, Method.TWO_POINT: 2}
# bound once: classify tests them on every record
_NEWTON, _SECANT = Method.NEWTON, Method.SECANT


class Seed(Enum):
    """How the two-seed methods pick x1 when it is not given.

    PERTURB seeds ``x0 + delta_rel * max(1, |x0|)``; GUARDED_NEWTON takes a
    Newton step from x0, halved until in-domain, else perturbs likewise.
    """

    PERTURB = "perturb"
    GUARDED_NEWTON = "guarded-newton"


class SolverConfig(_Frozen):
    """Stopping tolerance, step budget and seeding of one run.

    ``delta_rel`` sizes every perturbation: the PERTURB seed, the
    GUARDED_NEWTON fallback and the two-point nudge.  It must be finite and
    nonzero, ``tol`` finite and positive, neither a bool, ``max_iter`` an
    int of at least 2 and ``seed`` a Seed.  The classification
    thresholds are module constants: DIVERGENCE_BOUND, CYCLE_PERIOD_MAX,
    CYCLE_TOL_REL and CYCLE_MIN_ITERS, and MAX_HALVINGS for GUARDED_NEWTON.
    """

    __slots__ = _fields = ("tol", "max_iter", "seed", "delta_rel")

    def __init__(self, tol: float = 1e-15, max_iter: int = 1000, seed: Seed = Seed.PERTURB, delta_rel: float = 1e-4):
        if isinstance(delta_rel, bool) or not (math.isfinite(delta_rel) and delta_rel != 0.0):
            raise ValueError("delta must be finite and nonzero")
        if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0.0):
            raise ValueError("tol must be finite and positive")
        # a value Seed does not name would run as PERTURB
        if not isinstance(seed, Seed):
            raise ValueError(f"seed must be a Seed, got {seed!r}")
        # a float budget such as nan never runs out, and a bool is not one
        if not isinstance(max_iter, int) or isinstance(max_iter, bool):
            raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
        if max_iter < 2:
            raise ValueError("max_iter must be at least 2")
        super().__init__(tol, max_iter, seed, delta_rel)


# the configuration of a run given none, and the CLI's defaults
DEFAULT_CONFIG = SolverConfig()


# k: the int index of the record; x, y = f(x), dy = f'(x): floats, dy NaN for
# secant, which never consumes derivatives; r_weight: the float two-point
# weight of the step taken *from* this record
IterationRecord = namedtuple("IterationRecord", "k x y dy r_weight")


# _new_record((k, x, y, dy, r_weight)) is IterationRecord(k, x, y, dy, r_weight)
# built by tuple.__new__ alone: it skips the Python-level __new__ that
# namedtuple generates, a frame per record.  solve builds every record with it.
_new_record = functools.partial(tuple.__new__, IterationRecord)


class Converged(_Frozen):
    __slots__ = _fields = ("root", "iterations")
    label = "converged"


class Diverged(_Frozen):
    __slots__ = _fields = ("last_x",)
    label = "diverged"


class Oscillating(_Frozen):
    __slots__ = _fields = ("period",)
    label = "oscillating"


class DomainFailure(_Frozen):
    # iteration: the 1-based index of the step that could not be taken
    __slots__ = _fields = ("iteration", "detail")
    label = "domain-failure"


class DerivativeStall(_Frozen):
    # iteration: the 1-based index of the step that could not be taken
    __slots__ = _fields = ("iteration",)
    label = "derivative-stall"


class MaxIterationsExceeded(_Frozen):
    __slots__ = _fields = ("last_x",)
    label = "max-iterations"


Outcome = Converged | Diverged | Oscillating | DomainFailure | DerivativeStall | MaxIterationsExceeded


class Trace(namedtuple("Trace", "method records outcome config")):
    """One run: its Method, its records (a tuple of IterationRecord, seed
    points first), its Outcome and the SolverConfig it ran under."""

    __slots__ = ()

    @property
    def iterations(self) -> int:
        """Step-formula applications performed (seed points are not steps)."""
        return _steps(self.records[-1].k, self.method)


def _steps(k: int, method: Method) -> int:
    """Steps taken up to record ``k``; a failure there names the next one."""
    return max(k + 1 - _SEEDS[method], 0)


class SeedingError(ValueError):
    """The seed rule found no in-domain second point distinct from x0."""


def _ieee_div(num: float, den: float) -> float:
    """Division with IEEE-754 semantics: finite/0 is signed inf, 0/0 is NaN."""
    try:
        return num / den
    except ZeroDivisionError:
        if num == 0.0 or math.isnan(num):
            return math.nan
        return math.copysign(math.inf, num) * math.copysign(1.0, den)


def newton_step(x: float, y: float, dy: float) -> float:
    """x - y/dy; the root is a fixed point, dy = 0 with y != 0 gives +/-inf."""
    if y == 0.0:
        return x
    return x - _ieee_div(y, dy)


def secant_step(x_prev: float, y_prev: float, x_cur: float, y_cur: float) -> float:
    """The zero of the chord; equal ordinates raise ZeroDivisionError, a case
    that :func:`classify` stops as a derivative stall before the step."""
    return x_cur - y_cur * (x_cur - x_prev) / (y_cur - y_prev)


def twopoint_step(x_prev: float, y_prev: float, x_cur: float, y_cur: float, dy_cur: float) -> tuple[float, float]:
    """One two-point update; returns (x_next, r).

    dy_cur may be 0 or infinite: r then lands on +/-inf or 1 and the step
    degenerates gracefully to x_prev or x_cur per the weight identity.
    x_cur == x_prev, or y_prev == 0 with y_cur != 0, raises ZeroDivisionError:
    :func:`solve` takes a Newton step instead between coincident points, and
    :func:`classify` converges on a zero y_prev first.
    """
    if y_cur == 0.0:
        return x_cur, 1.0
    slope = (y_cur - y_prev) / (x_cur - x_prev)
    r = 1.0 - (y_cur / y_prev) * _ieee_div(slope, dy_cur)
    return x_prev - _ieee_div(x_prev - x_cur, r), r


def _start(x: float) -> float:
    """A start as a float: 3 runs as 3.0.  A bool raises ValueError, as a bool
    tol does, and so does a number beyond the float range, as a non-finite
    start does; what is no number raises TypeError, as in eval_dual."""
    if isinstance(x, bool):
        raise ValueError(f"a start must be a number, not the bool {x!r}")
    try:
        math.isfinite(x)
        return float(x)
    except OverflowError:
        raise ValueError("a start must be finite, got a number beyond the float range") from None


def _eval_ok(expr: Expression, x: float) -> bool:
    try:
        eval_dual(expr, x)
    except ValueError:
        return False
    return True


def seed_second_point(expr: Expression, x0: float, config: SolverConfig | None = None) -> float:
    """Pick the second starting point for the two-seed methods per ``config.seed``."""
    config = config or DEFAULT_CONFIG
    if config.seed is Seed.GUARDED_NEWTON:
        d0 = eval_dual(expr, x0)
        if d0.deriv != 0.0 and math.isfinite(d0.deriv):
            step = d0.value / d0.deriv
            t = 1.0
            for _ in range(MAX_HALVINGS):
                cand = x0 - t * step
                if cand != x0 and _eval_ok(expr, cand):
                    return cand
                t *= 0.5
        # fall through to a plain perturbation
    x1 = x0 + config.delta_rel * max(1.0, abs(x0))
    if x1 == x0:
        raise SeedingError(f"delta {config.delta_rel!r} is too small to move x0={x0!r}")
    if _eval_ok(expr, x1):
        return x1
    raise SeedingError(f"no in-domain second point near x0={x0!r}")


def classify(
    records: Sequence[IterationRecord],
    config: SolverConfig,
    method: Method,
    domain_error: DomainError | None = None,
) -> Outcome | None:
    """Outcome of a partial trace, or None if the iteration should continue.

    Priority: convergence, domain failure, divergence, derivative stall,
    oscillation, then the budget of ``config.max_iter`` steps.  A derivative
    stall names the step that cannot be taken: Newton's from f' = 0, or
    secant's from equal ordinates at the last two points.
    """
    k, x, y, dy, _ = records[-1]
    # move = |x_k - x_{k-1}|, read by the tolerance and cycle rules; a first
    # record has no predecessor, and its NaN move fails them both
    if k:
        prev = records[-2]
        move = abs(x - prev.x)
    else:
        prev, move = None, _NAN
    if y == 0.0 or move + abs(y) < config.tol:
        return Converged(x, _steps(k, method))
    if domain_error is not None:
        return DomainFailure(_steps(k, method) + 1, str(domain_error))
    # NaN fails every comparison, so this also catches a NaN or infinite x
    if not abs(x) <= DIVERGENCE_BOUND:
        return Diverged(x)
    if dy == 0.0 and method is _NEWTON:
        return DerivativeStall(_steps(k, method) + 1)
    if method is _SECANT and k and y == prev.y:
        return DerivativeStall(_steps(k, method) + 1)
    # the cycle the last records repeat, if any; k >= CYCLE_MIN_ITERS >
    # CYCLE_PERIOD_MAX + 1, so every lag below is in range.  A genuine cycle
    # keeps moving while near-repeating at lag p; requiring a non-shrinking
    # movement rejects slow (possibly sign-alternating) convergence, whose
    # lag-p differences also drop below any tolerance.
    if k >= CYCLE_MIN_ITERS:
        tol = CYCLE_TOL_REL * max(1.0, abs(x))
        if not move <= tol:
            x_prev = prev.x
            for p in _PERIODS:
                lag = records[-1 - p].x
                # nearly every record fails this first, cheapest test; so does NaN
                if not abs(x - lag) <= tol:
                    continue
                lag_prev = records[-2 - p].x
                if move < 0.75 * abs(lag - lag_prev):
                    continue
                if abs(x_prev - lag_prev) <= CYCLE_TOL_REL * max(1.0, abs(x_prev)):
                    return Oscillating(p)
    # k >= _steps(k, method), so the cheap test spares the seed lookup
    if k >= config.max_iter and _steps(k, method) >= config.max_iter:
        return MaxIterationsExceeded(x)
    return None


def solve(
    expr: Expression,
    method: Method,
    x0: float,
    config: SolverConfig | None = None,
    x1: float | None = None,
) -> Trace:
    """Iterate ``method`` from x0 (and x1 for the two-seed methods).

    Each point is evaluated and recorded, and the run ends with the first
    outcome :func:`classify` returns: converged when |x_k - x_{k-1}| + |y_k|
    < tol, otherwise a failure by its rules and thresholds, at the latest
    after ``config.max_iter`` steps: max_iter + 1 records for Newton, + 2 for
    the others.  x1 is ignored for Newton and seeded per ``config.seed`` when
    absent.  A two-point step between coincident points is replaced by a
    Newton step, and one that returns exactly to x_{k-1} is nudged by
    ``config.delta_rel``.  The starts run as floats.  A non-finite x0 raises
    ValueError; for the two-seed methods so does a non-finite x1 or x1 == x0,
    unless x0 is a root.  A bool start, or one beyond the float range,
    raises ValueError too.
    """
    config = config or DEFAULT_CONFIG
    x0 = _start(x0)
    if x1 is not None:
        x1 = _start(x1)
    newton, secant = method is Method.NEWTON, method is Method.SECANT
    seeds = _SEEDS[method]
    records: list[IterationRecord] = []
    x = x0
    while True:
        k = len(records)
        y = dy = _NAN
        error = None
        try:
            y, dy = eval_dual(expr, x)
        except DomainError as err:
            error = err
        except ValueError:
            # eval_dual rejects a non-finite x: a seed is the caller's error,
            # and an overflowed step is recorded for classify to call diverged
            if k < seeds:
                raise
        if secant:
            dy = _NAN
        records.append(_new_record((k, x, y, dy, _NAN)))
        outcome = classify(records, config, method, error)
        if outcome is not None:
            break
        # the next point: the second seed, or a step from the last record
        if k + 1 < seeds:
            if x1 == x0:
                raise ValueError("x1 must differ from x0")
            x = seed_second_point(expr, x0, config) if x1 is None else x1
        elif newton:
            x = newton_step(x, y, dy)
        elif secant:
            prev = records[-2]
            x = secant_step(prev.x, prev.y, x, y)
        else:
            prev = records[-2]
            if x == prev.x:
                # no slope between coincident points: substitute a Newton step
                x = newton_step(x, y, dy)
            else:
                x_next, r = twopoint_step(prev.x, prev.y, x, y, dy)
                records[-1] = _new_record((k, x, y, dy, r))
                x = x_next
            if x == prev.x:
                # an exact return to x_prev (the dy = 0 limit) would start a
                # 2-cycle; nudge to break it
                x += config.delta_rel * max(1.0, abs(x))
    return Trace(method, tuple(records), outcome, config)
