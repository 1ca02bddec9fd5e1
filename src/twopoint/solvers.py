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

import math
from enum import Enum
from typing import NamedTuple, Sequence, Union

from .expressions import DomainError, Expression, _Frozen, eval_dual

__all__ = [
    "Converged",
    "DegenerateSlopeError",
    "DerivativeStall",
    "Diverged",
    "DomainFailure",
    "IterationRecord",
    "MaxIterationsExceeded",
    "Method",
    "Oscillating",
    "Outcome",
    "PrevPointIsRootError",
    "Seed",
    "SeedingError",
    "SolverConfig",
    "Trace",
    "classify",
    "ieee_div",
    "newton_step",
    "secant_step",
    "seed_second_point",
    "solve",
    "twopoint_step",
]

_NAN = math.nan

# |x| beyond this bound classifies a run as diverged
DIVERGENCE_BOUND = 1e12
# points closer than this have no usable slope between them
SEP_EPSILON = 1e-300
# a cycle of period 2..CYCLE_PERIOD_MAX repeats x within
# CYCLE_TOL_REL * max(1, |x|); it is looked for from record CYCLE_MIN_ITERS on
CYCLE_PERIOD_MAX = 4
CYCLE_TOL_REL = 1e-9
CYCLE_MIN_ITERS = 20
# Seed.GUARDED_NEWTON halves its seeding step at most this many times
MAX_HALVINGS = 40


class Method(Enum):
    NEWTON = "newton"
    SECANT = "secant"
    TWO_POINT = "twopoint"


# starting points each method needs before its first step; seeds are not steps
_SEEDS = {Method.NEWTON: 1, Method.SECANT: 2, Method.TWO_POINT: 2}


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
    nonzero.  The classification thresholds are module constants:
    DIVERGENCE_BOUND, SEP_EPSILON, CYCLE_PERIOD_MAX, CYCLE_TOL_REL and
    CYCLE_MIN_ITERS, and MAX_HALVINGS for GUARDED_NEWTON.
    """

    __slots__ = _fields = ("tol", "max_iter", "seed", "delta_rel")

    def __init__(self, tol: float = 1e-15, max_iter: int = 1000, seed: Seed = Seed.PERTURB, delta_rel: float = 1e-4):
        if not (math.isfinite(delta_rel) and delta_rel != 0.0):
            raise ValueError("delta must be finite and nonzero")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError("tol must be finite and positive")
        if max_iter < 2:
            raise ValueError("max_iter must be at least 2")
        super().__init__(tol, max_iter, seed, delta_rel)


# the configuration of a run given none, and the CLI's defaults
DEFAULT_CONFIG = SolverConfig()


class IterationRecord(NamedTuple):
    k: int
    x: float
    y: float
    dy: float  # NaN for secant, which never consumes derivatives
    r_weight: float  # two-point weight of the step taken *from* this record


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


Outcome = Union[Converged, Diverged, Oscillating, DomainFailure, DerivativeStall, MaxIterationsExceeded]


class Trace(NamedTuple):
    method: Method
    records: tuple[IterationRecord, ...]
    outcome: Outcome
    config: SolverConfig

    @property
    def iterations(self) -> int:
        """Step-formula applications performed (seed points are not steps)."""
        return _steps(self.records[-1].k, self.method)


def _steps(last_k: int, method: Method) -> int:
    """Steps taken up to record ``last_k``; a failure there names the next one."""
    return max(last_k + 1 - _SEEDS[method], 0)


class SeedingError(ValueError):
    """The seed rule found no in-domain second point distinct from x0."""


class DegenerateSlopeError(ValueError):
    """Secant slope undefined: equal ordinates or coincident points."""


class PrevPointIsRootError(ValueError):
    """Two-point step needs y_prev != 0."""


def ieee_div(num: float, den: float) -> float:
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
    return x - ieee_div(y, dy)


def secant_step(x_prev: float, y_prev: float, x_cur: float, y_cur: float) -> float:
    if abs(x_cur - x_prev) < SEP_EPSILON or y_cur == y_prev:
        raise DegenerateSlopeError(f"secant slope degenerate between x={x_prev!r} and x={x_cur!r}")
    return x_cur - y_cur * (x_cur - x_prev) / (y_cur - y_prev)


def twopoint_step(x_prev: float, y_prev: float, x_cur: float, y_cur: float, dy_cur: float) -> tuple[float, float]:
    """One two-point update; returns (x_next, r).

    dy_cur may be 0 or infinite: r then lands on +/-inf or 1 and the step
    degenerates gracefully to x_prev or x_cur per the weight identity.
    x_cur must differ from x_prev; :func:`solve` takes a Newton step
    instead when they are closer than SEP_EPSILON.
    """
    if y_prev == 0.0:
        raise PrevPointIsRootError(f"previous ordinate is zero at x={x_prev!r}")
    if y_cur == 0.0:
        return x_cur, 1.0
    slope = (y_cur - y_prev) / (x_cur - x_prev)
    r = 1.0 - (y_cur / y_prev) * ieee_div(slope, dy_cur)
    return x_prev - ieee_div(x_prev - x_cur, r), r


def _eval_ok(expr: Expression, x: float) -> bool:
    if not math.isfinite(x):
        return False
    try:
        eval_dual(expr, x)
    except DomainError:
        return False
    return True


def seed_second_point(expr: Expression, x0: float, config: SolverConfig | None = None) -> float:
    """Pick the second starting point for the two-seed methods per ``config.seed``."""
    config = config or DEFAULT_CONFIG
    if config.seed is Seed.GUARDED_NEWTON:
        d0 = eval_dual(expr, x0)
        if d0.deriv != 0.0 and math.isfinite(d0.deriv):
            step = ieee_div(d0.value, d0.deriv)
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
    *,
    domain_error: DomainError | None = None,
    steps_exhausted: bool = False,
) -> Outcome | None:
    """Outcome of a partial trace, or None if the iteration should continue.

    Priority: convergence, domain failure, divergence, derivative stall
    (Newton only), oscillation, iteration budget.
    """
    rec = records[-1]
    k, x, y = rec.k, rec.x, rec.y
    if y == 0.0 or (len(records) > 1 and abs(x - records[-2].x) + abs(y) < config.tol):
        return Converged(x, _steps(k, method))
    if domain_error is not None:
        return DomainFailure(_steps(k, method) + 1, str(domain_error))
    # NaN fails every comparison, so this also catches a NaN or infinite x
    if not abs(x) <= DIVERGENCE_BOUND:
        return Diverged(x)
    if rec.dy == 0.0 and method is Method.NEWTON:
        return DerivativeStall(_steps(k, method) + 1)
    if k >= CYCLE_MIN_ITERS:
        osc = _oscillation(records)
        if osc is not None:
            return osc
    if steps_exhausted:
        return MaxIterationsExceeded(x)
    return None


def _oscillation(records: Sequence[IterationRecord]) -> Oscillating | None:
    """The cycle the last records repeat, if any; needs k >= CYCLE_MIN_ITERS."""
    # k >= CYCLE_MIN_ITERS > CYCLE_PERIOD_MAX + 1, so every lag below is in range
    x, x_prev = records[-1].x, records[-2].x
    # A genuine cycle keeps moving while near-repeating at lag p; requiring
    # a non-shrinking movement rejects slow (possibly sign-alternating)
    # convergence, whose lag-p differences also drop below any tolerance.
    move = abs(x - x_prev)
    tol = CYCLE_TOL_REL * max(1.0, abs(x))
    if move <= tol:
        return None
    for p in range(2, CYCLE_PERIOD_MAX + 1):
        lag = records[-1 - p].x
        # nearly every record fails this first, cheapest test; so does NaN
        if not abs(x - lag) <= tol:
            continue
        lag_prev = records[-2 - p].x
        if move < 0.75 * abs(lag - lag_prev):
            continue
        if abs(x_prev - lag_prev) <= CYCLE_TOL_REL * max(1.0, abs(x_prev)):
            return Oscillating(p)
    return None


def solve(
    expr: Expression,
    method: Method,
    x0: float,
    config: SolverConfig | None = None,
    x1: float | None = None,
) -> Trace:
    """Iterate ``method`` from x0 (and x1 for the two-seed methods).

    Terminates as converged when |x_k - x_{k-1}| + |y_k| < tol, otherwise
    through :func:`classify`, whose thresholds are DIVERGENCE_BOUND and the
    CYCLE_* constants.  x1 is ignored for Newton and seeded per
    ``config.seed`` when absent.  A two-point step between points closer
    than SEP_EPSILON is replaced by a Newton step, and one that returns
    exactly to x_{k-1} is nudged by ``config.delta_rel``.  A non-finite x0
    raises ValueError; for the two-seed methods so does a non-finite x1 or
    x1 == x0, unless x0 is a root.
    """
    config = config or DEFAULT_CONFIG
    newton, secant = method is Method.NEWTON, method is Method.SECANT
    seeds = _SEEDS[method]
    # the index of the record that spends the step budget
    last_k = config.max_iter + seeds - 1
    records: list[IterationRecord] = []
    x = x0
    while True:
        k = len(records)
        y = dy = _NAN
        error = None
        # eval_dual rejects a non-finite seed with ValueError; a step that
        # overflowed is recorded unevaluated, and classify calls it diverged
        if k < seeds or math.isfinite(x):
            try:
                d = eval_dual(expr, x)
                y, dy = d.value, (_NAN if secant else d.deriv)
            except DomainError as err:
                error = err
        records.append(IterationRecord(k, x, y, dy, _NAN))
        outcome = classify(records, config, method, domain_error=error, steps_exhausted=k >= last_k)
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
            try:
                x = secant_step(prev.x, prev.y, x, y)
            except DegenerateSlopeError:
                outcome = DerivativeStall(_steps(k, method) + 1)
                break
        else:
            prev = records[-2]
            if abs(x - prev.x) < SEP_EPSILON:
                # degenerate-slope guard: substitute a Newton step
                x = newton_step(x, y, dy)
            else:
                x_next, r = twopoint_step(prev.x, prev.y, x, y, dy)
                records[-1] = IterationRecord(k, x, y, dy, r)
                x = x_next
            if x == prev.x:
                # an exact return to x_prev (the dy = 0 limit) would start a
                # 2-cycle; nudge to break it
                x += config.delta_rel * max(1.0, abs(x))
    return Trace(method, tuple(records), outcome, config)
