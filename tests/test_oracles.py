"""Roots and orders checked against mpmath, an independent arbitrary-precision oracle.

Each built-in problem is evaluated by mpmath from its source text, not
from anything the parser built, and ``mpmath.findroot`` refines the
problem's reference root to 40 digits.  ``eval_dual``'s values and
derivatives are checked against mpmath's at 50 digits.
The convergence order of each method is measured by replaying its step
formula in 150-digit arithmetic, where round-off does not cut the error
sequence short.
"""

import math
import statistics

import pytest

mpmath = pytest.importorskip("mpmath")

from conftest import SAMPLE_WINDOWS, multiple_root_rate  # noqa: E402

from twopoint import corpus  # noqa: E402
from twopoint.expressions import DomainError, eval_dual, parse  # noqa: E402
from twopoint.analysis import ck_sequence, error_sequence  # noqa: E402
from twopoint.solvers import Converged, Method, solve  # noqa: E402

DIGITS = 40
# a converged run lies within this many ulp of the true root
ROOT_ULPS = 4
# a run that ends this close to the reference root (relative) found that root
SAME_ROOT_REL = 1e-6
# the reference roots are decimal transcriptions to about 15 digits
REFERENCE_REL = 1e-14

_MP_NAMES = {
    "abs": mpmath.fabs,
    "atan": mpmath.atan,
    "cbrt": lambda v: mpmath.sign(v) * mpmath.cbrt(abs(v)),  # real, signed
    "cos": mpmath.cos,
    "exp": mpmath.exp,
    "ln": mpmath.ln,
    "log10": mpmath.log10,
    "sin": mpmath.sin,
    "sqrt": mpmath.sqrt,
    "tan": mpmath.tan,
    "pi": mpmath.pi,
    "e": mpmath.e,
}

_PROBLEMS = [p for p in corpus.builtin_problems() if p.reference_root is not None]


def _mp_function(problem):
    """The problem's function evaluated by mpmath at the working precision."""
    # source text is Python syntax once ^ is **; both bind right to left and
    # tighter than unary minus
    return eval("lambda x: " + problem.source.replace("^", "**"), dict(_MP_NAMES))


def _true_root(problem) -> float:
    """The reference root refined by mpmath at DIGITS digits, rounded to a float."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.findroot(_mp_function(problem), mpmath.mpf(problem.reference_root)))


def _is_simple(problem, root: float) -> bool:
    deriv = eval_dual(problem.expression, root).deriv
    return deriv != 0.0 and math.isfinite(deriv)


@pytest.mark.parametrize("problem", _PROBLEMS, ids=[p.name for p in _PROBLEMS])
def test_converged_runs_lie_within_ulps_of_the_mpmath_root(problem):
    root = _true_root(problem)
    if not _is_simple(problem, root):
        pytest.skip("not a simple root; a run stops short of it by more than a few ulp")
    for start in problem.starts:
        for method in corpus.TABLE_METHODS:
            outcome = solve(problem.expression, method, start).outcome
            if isinstance(outcome, Converged) and abs(outcome.root - root) <= SAME_ROOT_REL * max(1.0, abs(root)):
                assert abs(outcome.root - root) <= ROOT_ULPS * math.ulp(root), (method, start, outcome.root, root)


@pytest.mark.parametrize("problem", _PROBLEMS, ids=[p.name for p in _PROBLEMS])
def test_reference_root_error(problem):
    root = _true_root(problem)
    error = problem.reference_root - root
    # reported (pytest -rP shows it), not pinned: x - 3 * ln(x) is off by 4.7e-15
    print(f"{problem.name}: reference root {problem.reference_root!r} is off by {error:.2g}")
    assert abs(error) <= REFERENCE_REL * max(1.0, abs(root))


# --- values and derivatives against mpmath -----------------------------------

EVAL_DIGITS = 50
EVAL_POINTS = 41
# eval_dual's value and derivative lie this close to mpmath's, relative to
# max(1, |mpmath's|); the worst measured error is 1.6e-14
EVAL_REL = 1e-12
_BY_SOURCE = {p.source: p for p in _PROBLEMS}


@pytest.mark.parametrize("source", sorted(_BY_SOURCE))
def test_eval_dual_matches_mpmath_value_and_derivative(source):
    """At EVAL_POINTS evenly spaced points of the source's sampling window,
    skipping a point out of the domain or with an infinite derivative."""
    problem = _BY_SOURCE[source]
    f = _mp_function(problem)
    lo, hi = SAMPLE_WINDOWS[source]
    worst, checked = 0.0, 0
    for i in range(EVAL_POINTS):
        x = lo + (hi - lo) * i / (EVAL_POINTS - 1)
        try:
            dual = eval_dual(problem.expression, x)
        except DomainError:
            continue
        if not math.isfinite(dual.deriv):
            continue
        with mpmath.workdps(EVAL_DIGITS):
            want = (f(mpmath.mpf(x)), mpmath.diff(f, mpmath.mpf(x)))
            for got, exact in zip(dual, want):
                error = float(abs(got - exact) / max(1, abs(exact)))
                assert error <= EVAL_REL, (x, got, exact)
                worst = max(worst, error)
        checked += 1
    print(f"{source}: {checked} points, worst relative error {worst:.2g}")
    # the windows lie in the domain; only cbrt's 0 has an infinite derivative
    assert checked == EVAL_POINTS - (source == "cbrt(x)")


# --- convergence order in high precision -----------------------------------------

HP_DIGITS = 150
# a COC counts when its three errors lie in (HP_FLOOR, HP_CEILING): above the
# ceiling the run has not reached the asymptotic regime, below the floor the
# error is round-off at HP_DIGITS
HP_FLOOR = mpmath.mpf(10) ** (10 - HP_DIGITS)
HP_CEILING = 1e-2
HP_MAX_STEPS = 1000
# the median in-regime COC lies this close to the method's theoretical order
ORDER_TOL = 0.01
THEORETICAL_ORDER = {
    Method.SECANT: (1 + math.sqrt(5)) / 2,
    Method.NEWTON: 2.0,
    Method.TWO_POINT: 1 + math.sqrt(2),
}
# cells left out, with the reason; none is left out only for missing the bound
HP_EXCLUDED = {
    ("0.5*x^3 - 6*x^2 + 21.5*x - 22", 3.0, Method.SECANT): "f''(4) = 0 removes the leading term of the "
    "secant error e_k+1 ~ f''/(2f') e_k e_k-1, so the order is not (1 + sqrt 5)/2; it reads about 2.24",
    ("0.5*x^3 - 6*x^2 + 21.5*x - 22", 5.0, Method.SECANT): "f''(4) = 0, as from 3",
    ("-x^4 + 3*x^2 + 2", 1.0, Method.TWO_POINT): "the 150-digit run leaves the float run's basin "
    "and converges to the mirrored root -1.887...",
}


def _replay(f, df, method: Method, seeds: list) -> list:
    """Iterates of ``method`` from ``seeds`` at the working precision, with
    ``df`` the derivative of ``f``.

    Stops when f is exactly 0, when a step moves x by less than HP_FLOOR
    relative to |x|, or after HP_MAX_STEPS steps.
    """
    xs, ys = list(seeds), [f(x) for x in seeds]
    for _ in range(HP_MAX_STEPS):
        x, y = xs[-1], ys[-1]
        if y == 0 or (len(xs) > 1 and abs(x - xs[-2]) < HP_FLOOR * max(1, abs(x))):
            break
        if method is Method.NEWTON:
            x = x - y / df(x)
        elif method is Method.SECANT:
            x = x - y * (x - xs[-2]) / (y - ys[-2])
        else:
            x_prev, y_prev = xs[-2], ys[-2]
            r = 1 - (y / y_prev) * (((y - y_prev) / (x - x_prev)) / df(x))
            x = x_prev - (x_prev - x) / r
        xs.append(x)
        ys.append(f(x))
    return xs


def _in_regime_errors(xs: list, root) -> list[tuple]:
    """Each three consecutive signed errors whose sizes all lie in (HP_FLOOR, HP_CEILING)."""
    errors = [x - root for x in xs]
    return [t for t in zip(errors, errors[1:], errors[2:]) if all(HP_FLOOR < abs(e) < HP_CEILING for e in t)]


def _in_regime_cocs(xs: list, root) -> list[float]:
    return [float(mpmath.log(abs(e2 / e1)) / mpmath.log(abs(e1 / e0))) for e0, e1, e2 in _in_regime_errors(xs, root)]


def _hp_cells(method: Method):
    """(cell, float run, float root, mpmath function) for every cell whose float
    run of ``method`` converges to a simple reference root, HP_EXCLUDED ones too."""
    for problem in _PROBLEMS:
        root = _true_root(problem)
        if not _is_simple(problem, root):
            continue
        f = _mp_function(problem)
        for start in problem.starts:
            trace = solve(problem.expression, method, start)
            outcome = trace.outcome
            if not isinstance(outcome, Converged) or abs(outcome.root - root) > SAME_ROOT_REL * max(1.0, abs(root)):
                continue
            yield (problem.name, start, method), trace, root, f


def _hp_replay(f, method: Method, trace, root) -> tuple[list, object]:
    """The float run's iterates replayed at the working precision from its
    seed points, and the root refined at that precision."""
    hp_root = mpmath.findroot(f, mpmath.mpf(root))
    seeds = [mpmath.mpf(rec.x) for rec in trace.records[: len(trace.records) - trace.iterations]]
    return _replay(f, lambda x: mpmath.diff(f, x), method, seeds), hp_root


@pytest.mark.parametrize("method", corpus.TABLE_METHODS, ids=[m.value for m in corpus.TABLE_METHODS])
def test_high_precision_order_matches_theory(method):
    """Median in-regime COC of every cell whose float run finds a simple reference root.

    The replay starts from the float run's seed points, so it uses the same
    seed rule, x1 = x0 + 1e-4 * max(1, |x0|).  The float run's own estimate
    is printed beside it (pytest -rP) and not checked.
    """
    order = THEORETICAL_ORDER[method]
    cells, wrong = [], []
    for cell, trace, root, f in _hp_cells(method):
        cells.append(cell)
        if cell in HP_EXCLUDED:
            continue
        float_order = ck_sequence(error_sequence(trace, root)).estimated_order
        with mpmath.workdps(HP_DIGITS):
            xs, hp_root = _hp_replay(f, method, trace, root)
            cocs = _in_regime_cocs(xs, hp_root)
            left_basin = abs(xs[-1] - hp_root) > SAME_ROOT_REL * max(1, abs(hp_root))
        median = statistics.median(cocs) if cocs else math.nan
        label = f"{cell[0]} @ {cell[1]!r} {method.value}"
        print(f"{label}: float {float_order}, {HP_DIGITS}-digit median {median:.4f} over {len(cocs)} COCs")
        if left_basin or not abs(median - order) <= ORDER_TOL:
            wrong.append(f"{label}: median {median} over {cocs}, left basin: {left_basin}")
    assert {cell for cell in HP_EXCLUDED if cell[2] is method} <= set(cells)
    assert not wrong, wrong


# the last in-regime ratio lies this close (relative) to the error equation's constant
CONSTANT_REL = 1e-9
# where the constant is 0 (c2 = 0 for secant) the ratio lies below this instead
ZERO_CONSTANT_ABS = 1e-15
# cells of HP_EXCLUDED whose constant is 0 and is checked here: their order
# differs from the method's because the leading term of the error vanishes
HP_ZERO_CONSTANT = {cell for cell in HP_EXCLUDED if cell[2] is Method.SECANT}


def _error_constant(method: Method, f, root):
    """The constant of the method's error equation, from c_j = f^(j)(root) / (j! f'(root)):
    e_k+1 = (c2^2 - c3) e_k^2 e_k-1 for two-point, c2 e_k^2 for Newton, c2 e_k e_k-1 for secant."""
    d1, d2, d3 = (mpmath.diff(f, root, j) for j in (1, 2, 3))
    c2, c3 = d2 / (2 * d1), d3 / (6 * d1)
    return c2**2 - c3 if method is Method.TWO_POINT else c2


def _error_ratio(method: Method, e0, e1, e2):
    """The ratio of e2 to the right-hand side of the method's error equation without its constant."""
    if method is Method.TWO_POINT:
        return e2 / (e1**2 * e0)
    return e2 / e1**2 if method is Method.NEWTON else e2 / (e1 * e0)


@pytest.mark.parametrize("method", corpus.TABLE_METHODS, ids=[m.value for m in corpus.TABLE_METHODS])
def test_high_precision_error_constant_matches_theory(method):
    """The last in-regime error ratio of each cell of the order test equals the
    constant of the method's error equation (Traub 1964), in signed errors.

    The three errors lie in (HP_FLOOR, HP_CEILING), as for the COCs.  Each
    ratio and constant is printed (pytest -rP).
    """
    wrong = []
    for cell, trace, root, f in _hp_cells(method):
        if cell in HP_EXCLUDED and cell not in HP_ZERO_CONSTANT:
            continue
        with mpmath.workdps(HP_DIGITS):
            xs, hp_root = _hp_replay(f, method, trace, root)
            ratio = _error_ratio(method, *_in_regime_errors(xs, hp_root)[-1])
            constant = _error_constant(method, f, hp_root)
            if cell in HP_ZERO_CONSTANT:
                ok = max(abs(ratio), abs(constant)) < ZERO_CONSTANT_ABS
            else:
                ok = abs(ratio - constant) <= CONSTANT_REL * abs(constant)
        label = f"{cell[0]} @ {cell[1]!r} {method.value}"
        print(f"{label}: ratio {mpmath.nstr(ratio, 12)}, constant {mpmath.nstr(constant, 12)}")
        if not ok:
            wrong.append(f"{label}: ratio {ratio}, constant {constant}")
    assert not wrong, wrong


# --- the multiple-root law in high precision ---------------------------------------

MULTIPLE_ROOT_DIGITS = 50


@pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_high_precision_rate_at_a_multiple_root_matches_theory(method, m):
    """At the root -2 of multiplicity m of (x - 2) * (x + 2)^m, the last ten
    error ratios |e_k+1 / e_k| with e_k < 1e-6 and e_k+1 > 1e-30 lie within
    1e-12 of the method's linear rate (conftest.multiple_root_rate).  The
    replay runs at 50 digits with the exact derivative, from the float run's
    seed points, -3 and -2.9997; the float run's median ratio meets the law
    only within 1e-4 or 1e-3 (tests/test_solvers.py).
    """
    trace = solve(parse(f"(x - 2) * (x + 2)^{m}"), method, -3.0)
    seeds = [rec.x for rec in trace.records[: len(trace.records) - trace.iterations]]
    with mpmath.workdps(MULTIPLE_ROOT_DIGITS):
        xs = _replay(
            lambda x: (x - 2) * (x + 2) ** m,
            lambda x: (x + 2) ** (m - 1) * (x + 2 + m * (x - 2)),
            method,
            [mpmath.mpf(x) for x in seeds],
        )
        errors = [abs(x + 2) for x in xs]
        ratios = [float(e1 / e0) for e0, e1 in zip(errors, errors[1:]) if e0 < 1e-6 and e1 > 1e-30]
    rate = multiple_root_rate(method, m)
    assert len(ratios) >= 10
    assert all(abs(ratio - rate) <= 1e-12 for ratio in ratios[-10:]), (rate, ratios[-10:])
