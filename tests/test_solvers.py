import math
import statistics

import pytest
from conftest import bisect_root, multiple_root_rate, step_numbering_holds

import twopoint.solvers
from twopoint.corpus import builtin_problems
from twopoint.expressions import DomainError, eval_dual, parse
from twopoint.solvers import (
    CYCLE_MIN_ITERS,
    DIVERGENCE_BOUND,
    Converged,
    DerivativeStall,
    Diverged,
    DomainFailure,
    IterationRecord,
    MaxIterationsExceeded,
    Method,
    Oscillating,
    Seed,
    SeedingError,
    SolverConfig,
    Trace,
    classify,
    newton_step,
    secant_step,
    seed_second_point,
    solve,
    twopoint_step,
)


# --- step formulas --------------------------------------------------------------


def test_newton_step_substitution():
    # x = 3 on f(x) = x^2 - 4: 3 - 5/6 = 13/6
    assert newton_step(3.0, 5.0, 6.0) == pytest.approx(13.0 / 6.0, rel=1e-15)


def test_newton_step_root_is_fixed_point():
    assert newton_step(1.7, 0.0, 3.2) == 1.7
    assert newton_step(1.7, 0.0, 0.0) == 1.7


def test_newton_step_zero_derivative_gives_infinity():
    assert newton_step(1.0, 2.0, 0.0) == -math.inf
    assert newton_step(1.0, -2.0, 0.0) == math.inf


def test_newton_step_on_cube_root_doubles():
    d = eval_dual(parse("cbrt(x)"), 5.0)
    assert newton_step(5.0, d.value, d.deriv) == pytest.approx(-10.0, rel=1e-14)


def test_secant_step_exact_on_affine():
    # f = 2x - 6 through x = 0 and x = 1
    assert secant_step(0.0, -6.0, 1.0, -4.0) == 3.0


def test_secant_step_substitution():
    # f = x^2 - 2 through 1 and 2
    assert secant_step(1.0, -1.0, 2.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_secant_step_degenerate_slope():
    # the bare formula; classify stops a secant run before either step
    with pytest.raises(ZeroDivisionError):
        secant_step(1.0, 2.0, 3.0, 2.0)
    assert secant_step(1.0, 2.0, 1.0, 3.0) == 1.0


def test_twopoint_step_hand_arithmetic():
    # f = x^2 - 2: (x_prev, y_prev) = (2, 2), (x_cur, y_cur, dy) = (1.5, 0.25, 3)
    x_next, r = twopoint_step(2.0, 2.0, 1.5, 0.25, 3.0)
    assert r == pytest.approx(0.8541666666666666, rel=1e-12)
    assert x_next == pytest.approx(1.4146341463414633, rel=1e-6)


def test_twopoint_step_root_fixed_point():
    x_next, r = twopoint_step(2.0, 2.0, 1.5, 0.0, 3.0)
    assert (x_next, r) == (1.5, 1.0)


def test_twopoint_step_zero_derivative_keeps_prev():
    x_next, r = twopoint_step(2.0, 2.0, 1.5, 0.25, 0.0)
    assert math.isinf(r)
    assert x_next == 2.0


def test_twopoint_step_affine_one_shot():
    # f = 3x - 9 has root 3; r reduces to (y_prev - y_cur)/y_prev
    x_next, r = twopoint_step(0.0, -9.0, 1.0, -6.0, 3.0)
    assert x_next == pytest.approx(3.0, rel=1e-12)
    assert r == pytest.approx((-9.0 + 6.0) / -9.0, rel=1e-12)


def test_twopoint_step_preconditions():
    with pytest.raises(ZeroDivisionError):
        twopoint_step(2.0, 0.0, 1.5, 0.25, 3.0)
    with pytest.raises(ZeroDivisionError):
        twopoint_step(2.0, 2.0, 2.0, 0.25, 3.0)
    # a zero y_cur is the root, whatever y_prev is
    assert twopoint_step(2.0, 0.0, 1.5, 0.0, 3.0) == (1.5, 1.0)


# --- seeding --------------------------------------------------------------------


def test_perturb_seed():
    assert seed_second_point(parse("x^2 - 2"), 3.0) == 3.0 + 1e-4 * 3.0


def test_perturb_seed_small_magnitude():
    assert seed_second_point(parse("x^2 - 2"), 0.5) == 0.5 + 1e-4


def test_guarded_newton_seed_halves_out_of_domain_step():
    config = SolverConfig(seed=Seed.GUARDED_NEWTON)
    expr = parse("log10(x)")
    d = eval_dual(expr, 3.0)
    full = 3.0 - d.value / d.deriv
    assert full < 0  # the raw step leaves the domain
    x1 = seed_second_point(expr, 3.0, config)
    assert x1 == 3.0 - 0.5 * (d.value / d.deriv)
    assert x1 > 0


def test_guarded_newton_zero_derivative_falls_back_to_perturb():
    config = SolverConfig(seed=Seed.GUARDED_NEWTON)
    assert seed_second_point(parse("x^2"), 0.0, config) == 1e-4


def test_seeding_failure():
    # domain is the single point x = 0; any perturbation fails
    with pytest.raises(SeedingError):
        seed_second_point(parse("sqrt(-x^2)"), 0.0)


BAD_DELTAS = [0.0, -0.0, math.nan, math.inf, -math.inf]


# the default seed keeps the bare ids; delta_rel sizes the guarded fallback too
@pytest.mark.parametrize(
    "seed, delta",
    [(Seed.PERTURB, d) for d in BAD_DELTAS] + [(Seed.GUARDED_NEWTON, d) for d in BAD_DELTAS],
    ids=[repr(d) for d in BAD_DELTAS] + [f"guarded-newton-{d!r}" for d in BAD_DELTAS],
)
def test_perturb_rejects_zero_and_non_finite_delta(seed, delta):
    with pytest.raises(ValueError, match="delta must be finite and nonzero"):
        SolverConfig(seed=seed, delta_rel=delta)


def test_perturb_accepts_negative_delta():
    config = SolverConfig(delta_rel=-0.5)
    assert seed_second_point(parse("x^2 - 2"), 3.0, config) == 3.0 - 0.5 * 3.0


def test_perturbation_that_leaves_x0_unchanged_is_a_seeding_error():
    config = SolverConfig(delta_rel=1e-20)
    with pytest.raises(SeedingError):
        seed_second_point(parse("x^2 - 2"), 1.0, config)
    with pytest.raises(SeedingError):
        solve(parse("x^2 - 2"), Method.SECANT, 1.0, config)


# --- config ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-9},
        {"tol": math.inf},
        {"max_iter": 1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_classification_thresholds_are_not_config_fields():
    with pytest.raises(TypeError):
        SolverConfig(divergence_bound=1e12)


# --- full solves ----------------------------------------------------------------


def test_newton_converges_on_log_mix():
    trace = solve(parse("x - 3 * ln(x)"), Method.NEWTON, 2.0)
    out = trace.outcome
    assert isinstance(out, Converged)
    assert abs(out.root - 1.857183860207840) <= 1e-9
    assert out.iterations == 5


def test_newton_domain_failure_on_log10():
    trace = solve(parse("log10(x)"), Method.NEWTON, 3.0)
    out = trace.outcome
    assert isinstance(out, DomainFailure)
    assert out.iteration == 2
    assert "log10" in out.detail


def test_newton_diverges_on_arctangent():
    trace = solve(parse("atan(x)"), Method.NEWTON, 3.0)
    assert isinstance(trace.outcome, Diverged)


def test_twopoint_converges_on_arctangent():
    trace = solve(parse("atan(x)"), Method.TWO_POINT, 3.0)
    out = trace.outcome
    assert isinstance(out, Converged)
    assert abs(out.root) <= 1e-9
    assert out.iterations <= 11  # printed count 6, +5 seeding margin


def test_newton_cube_root_oscillating_divergence():
    trace = solve(parse("cbrt(x)"), Method.NEWTON, 1.0)
    assert isinstance(trace.outcome, Diverged)
    xs = [rec.x for rec in trace.records]
    assert 38 <= trace.iterations <= 44  # doubling passes 1e12 near 2^40
    for a, b in zip(xs, xs[1:]):
        assert abs(b + 2.0 * a) <= 1e-12 * abs(2.0 * a)


def test_newton_exact_two_cycle_is_oscillating():
    trace = solve(parse("0.5*x^3 - 6*x^2 + 21.5*x - 22"), Method.NEWTON, 3.0)
    assert trace.outcome == Oscillating(2)
    xs = {rec.x for rec in trace.records}
    assert xs == {3.0, 5.0}


def test_newton_even_quartic_cycles():
    trace = solve(parse("-x^4 + 3*x^2 + 2"), Method.NEWTON, 1.0)
    assert trace.outcome == Oscillating(2)


def test_newton_quintic_stays_bounded():
    trace = solve(parse("x^5 - x + 1"), Method.NEWTON, 2.0)
    assert isinstance(trace.outcome, (Oscillating, MaxIterationsExceeded))
    assert all(abs(rec.x) <= 1e12 for rec in trace.records)


def test_max_iterations_box():
    trace = solve(parse("x^2 + 1"), Method.NEWTON, 1.1, SolverConfig(max_iter=5))
    assert isinstance(trace.outcome, MaxIterationsExceeded)
    assert trace.iterations == 5


def test_root_start_converges_immediately():
    trace = solve(parse("x^2 - 4"), Method.NEWTON, 2.0)
    assert trace.outcome == Converged(2.0, 0)
    assert len(trace.records) == 1


def test_root_start_two_point():
    trace = solve(parse("x^2 - 4"), Method.TWO_POINT, 2.0)
    assert trace.outcome == Converged(2.0, 0)


def test_domain_failure_at_start():
    trace = solve(parse("ln(x)"), Method.NEWTON, -2.0)
    out = trace.outcome
    assert isinstance(out, DomainFailure)
    assert out.iteration == 1
    assert len(trace.records) == 1


def test_x1_must_differ():
    with pytest.raises(ValueError):
        solve(parse("x^2 - 2"), Method.SECANT, 1.0, x1=1.0)


def test_x1_equal_to_root_start_converges():
    # x0 converges before x1 is looked at, so x1 == x0 is not an error
    trace = solve(parse("x^2 - 4"), Method.TWO_POINT, 2.0, x1=2.0)
    assert trace.outcome == Converged(2.0, 0)


def test_non_finite_start_raises():
    for x0 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            solve(parse("x^2 - 2"), Method.NEWTON, x0)


@pytest.mark.parametrize("method", [Method.SECANT, Method.TWO_POINT], ids=lambda m: m.value)
def test_non_finite_x1_raises(method):
    for x1 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            solve(parse("x^2 - 2"), method, 3.0, x1=x1)


def test_domain_failure_at_explicit_x1():
    # x1 has no ordinate, so step 1 cannot be taken
    trace = solve(parse("ln(x)"), Method.SECANT, 2.0, x1=-1.0)
    out = trace.outcome
    assert isinstance(out, DomainFailure)
    assert out.iteration == 1
    assert len(trace.records) == 2
    assert math.isnan(trace.records[1].y)


@pytest.mark.parametrize("max_iter", [1000, 5])
@pytest.mark.parametrize("seed", list(Seed), ids=[s.value for s in Seed])
def test_every_outcome_numbers_steps_as_the_trace_counts_them(seed, max_iter):
    config = SolverConfig(max_iter=max_iter, seed=seed)
    wrong = []
    for prob in builtin_problems():
        for start in prob.starts:
            for method in Method:
                trace = solve(prob.expression, method, start, config)
                if not step_numbering_holds(trace):
                    wrong.append(f"{prob.name} @ {start!r} @ {method.value}: {trace.outcome}, {trace.iterations} steps")
    assert not wrong, wrong


def test_secant_converges_on_affine_in_one_step():
    trace = solve(parse("2*x - 6"), Method.SECANT, 0.0, x1=1.0)
    assert trace.outcome == Converged(3.0, 1)


def test_stagnation_nudge_breaks_zero_derivative_cycle():
    # x1 = 0 puts the current derivative of x^2 + 1 at exactly 0: the raw
    # step returns x_prev bit-exactly and must be nudged off the 2-cycle
    trace = solve(parse("x^2 + 1"), Method.TWO_POINT, 1.0, SolverConfig(max_iter=8), x1=0.0)
    assert trace.records[1].r_weight == -math.inf
    assert trace.records[2].x == 1.0 + 1e-4


def test_degenerate_slope_guard_uses_newton():
    # the equal ordinates of x0 = 0 and x1 = 5e-324 give a zero slope and
    # r = 1, a step back to x1; from that coincident pair the next step is Newton's
    trace = solve(parse("x + 1"), Method.TWO_POINT, 0.0, x1=5e-324)
    assert trace.records[1].r_weight == 1.0
    assert trace.records[2].x == 5e-324
    d = eval_dual(parse("x + 1"), 5e-324)
    assert trace.records[3].x == newton_step(5e-324, d.value, d.deriv) == -1.0
    assert trace.outcome == Converged(-1.0, 2)


def test_points_a_subnormal_apart_take_ordinary_steps():
    # distinct points however close have a well-defined chord and slope: 0 and
    # 1e-310 lie within 1e-300 of each other, with distinct ordinates
    expr = parse("1e300*x - 1")
    secant = solve(expr, Method.SECANT, 0.0, x1=1e-310)
    assert secant.outcome == Converged(9.999999999999999e-301, 2)
    assert abs(secant.outcome.root - 1e-300) <= math.ulp(1e-300)
    assert solve(expr, Method.TWO_POINT, 0.0, x1=1e-310).outcome == Converged(1e-300, 3)


def test_secant_records_no_derivative():
    trace = solve(parse("x^2 - 2"), Method.SECANT, 1.0)
    assert all(math.isnan(rec.dy) for rec in trace.records)


def test_trace_integrity_bit_exact():
    expr = parse("sin(x) * exp(x) + ln(x^2 + 1)")
    trace = solve(expr, Method.TWO_POINT, -0.8)
    for rec in trace.records:
        d = eval_dual(expr, rec.x)
        assert rec.y == d.value
        assert rec.dy == d.deriv


def test_trace_indices_consecutive():
    trace = solve(parse("atan(x)"), Method.TWO_POINT, 3.0)
    assert [rec.k for rec in trace.records] == list(range(len(trace.records)))


def test_twopoint_r_weight_bookkeeping():
    trace = solve(parse("x^2 - 2"), Method.TWO_POINT, 2.0)
    rs = [rec.r_weight for rec in trace.records]
    assert math.isnan(rs[0])  # no step leaves the first seed pairlessly
    assert all(math.isfinite(r) for r in rs[1:-1])
    assert math.isnan(rs[-1])  # no step taken from the final record


# (m, least number of ratios, largest distance of their median from the law):
# two-point's linear regime is the shortest, 12, 19 and 27 ratios long
@pytest.mark.parametrize("m, floor, bound", [(2, 10, 1e-4), (3, 15, 1e-4), (4, 20, 1e-3)], ids=["m2", "m3", "m4"])
@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_rate_at_a_multiple_root_matches_theory(method, m, floor, bound):
    # the median ratio over the linear regime, where both errors lie in (1e-6, 1e-1)
    trace = solve(parse(f"(x - 2) * (x + 2)^{m}"), method, -3.0)
    assert isinstance(trace.outcome, Converged)
    errors = [abs(rec.x + 2.0) for rec in trace.records]
    ratios = [e1 / e0 for e0, e1 in zip(errors, errors[1:]) if 1e-6 < e0 < 1e-1 and 1e-6 < e1 < 1e-1]
    assert len(ratios) >= floor
    assert abs(statistics.median(ratios) - multiple_root_rate(method, m)) < bound, ratios


@pytest.mark.parametrize("x0", [1.0, -1.0])
def test_rates_at_the_root_of_cbrt_follow_the_law_at_m_one_third(x0):
    # cbrt(x) is x^m at m = 1/3, with the real, sign-keeping power.  With
    # s = rho^(1/3), two-point keeps the ratio rho only when
    # 1 - 3*rho/(s^2 + s + 1) = 1/(1 + rho), that is 3s^3 - s^2 - s + 2 = 0;
    # Newton's rate (m - 1)/m = -2 moves away from the root
    rho = bisect_root(lambda s: 3 * s**3 - s**2 - s + 2, -1.0, -0.5) ** 3
    assert abs(rho - -0.6998589206350913) < 1e-15
    expr = parse("cbrt(x)")
    twopoint = solve(expr, Method.TWO_POINT, x0)
    assert isinstance(twopoint.outcome, Converged)
    xs = [rec.x for rec in twopoint.records]
    assert all(abs(x1 / x - rho) < 1e-12 for x, x1 in zip(xs[-21:], xs[-20:]))
    newton = solve(expr, Method.NEWTON, x0)
    assert isinstance(newton.outcome, Diverged)
    xs = [rec.x for rec in newton.records]
    assert all(abs(x1 / x - -2.0) < 1e-12 for x, x1 in zip(xs, xs[1:]))


# --- classify -------------------------------------------------------------------


def _rec(k, x, y=1.0, dy=1.0):
    return IterationRecord(k, x, y, dy, math.nan)


def test_classify_convergence_beats_divergence():
    config = SolverConfig()
    records = [_rec(0, 1e13, y=0.0)]
    assert classify(records, config, Method.NEWTON) == Converged(1e13, 0)


def test_classify_divergence_on_bound():
    config = SolverConfig()
    records = [_rec(0, 3.0), _rec(1, 2e12)]
    assert classify(records, config, Method.NEWTON) == Diverged(2e12)


def test_classify_stall_is_newton_only():
    # the zero-derivative rule; secant's rule is tested below
    config = SolverConfig()
    records = [_rec(0, 3.0), _rec(1, 2.0, y=1.0, dy=0.0)]
    assert classify(records, config, Method.NEWTON) == DerivativeStall(2)
    assert classify(records, config, Method.TWO_POINT) is None


def test_classify_requires_warmup_for_cycles():
    config = SolverConfig()
    records = [_rec(k, 3.0 if k % 2 == 0 else 5.0) for k in range(10)]
    assert classify(records, config, Method.NEWTON) is None
    records = [_rec(k, 3.0 if k % 2 == 0 else 5.0) for k in range(21)]
    assert classify(records, config, Method.NEWTON) == Oscillating(2)


def test_classify_slow_contraction_is_not_oscillation():
    # sign-alternating convergence: lag-2 repeats shrink along with movement
    xs = [(-0.7) ** k for k in range(40)]
    records = [_rec(k, x) for k, x in enumerate(xs)]
    assert classify(records, SolverConfig(), Method.TWO_POINT) is None


def test_classify_max_iter():
    # Newton spends a budget of 2 steps at record 2
    records = [_rec(0, 3.0), _rec(1, 2.5), _rec(2, 2.0)]
    out = classify(records, SolverConfig(max_iter=2), Method.NEWTON)
    assert out == MaxIterationsExceeded(2.0)


# distinct points and ordinates, so no rule but the budget ends a run on them
_STEADY = [_rec(k, 3.0 - 0.125 * k, y=1.0 + k) for k in range(5)]


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_classify_ends_at_the_step_budget(method):
    # record max_iter for Newton, max_iter + 1 after the two seeds
    config = SolverConfig(max_iter=3)
    last = 3 if method is Method.NEWTON else 4
    assert classify(_STEADY[:last], config, method) is None
    assert classify(_STEADY[: last + 1], config, method) == MaxIterationsExceeded(_STEADY[last].x)


@pytest.mark.parametrize("method", list(Method))
def test_classify_first_record_at_root_converges(method):
    assert classify([_rec(0, 2.5, y=0.0)], SolverConfig(), method) == Converged(2.5, 0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -(DIVERGENCE_BOUND * 2)])
def test_classify_non_finite_or_far_x_diverges(x):
    out = classify([_rec(0, 3.0), _rec(1, x)], SolverConfig(), Method.TWO_POINT)
    assert isinstance(out, Diverged)
    assert out.last_x == x or math.isnan(out.last_x)


def test_classify_nan_derivative_never_stalls():
    records = [_rec(0, 3.0), _rec(1, 2.0, y=0.5, dy=math.nan)]
    assert classify(records, SolverConfig(), Method.SECANT) is None
    assert classify(records, SolverConfig(), Method.NEWTON) is None


@pytest.mark.parametrize(
    "records",
    [
        [_rec(0, 3.0, y=4.0), _rec(1, 2.0), _rec(2, 2.5)],
        [_rec(0, 3.0, y=4.0), _rec(1, 2.0, y=2.0), _rec(2, 2.0, y=2.0)],
    ],
    ids=["equal-ordinates", "coincident-points"],
)
def test_classify_secant_stalls_without_a_chord(records):
    out = classify(records, SolverConfig(), Method.SECANT)
    assert out == DerivativeStall(2)
    assert step_numbering_holds(Trace(Method.SECANT, tuple(records), out, SolverConfig()))
    # the methods with a derivative step on
    assert classify(records, SolverConfig(), Method.TWO_POINT) is None
    assert classify(records, SolverConfig(), Method.NEWTON) is None


def test_classify_secant_has_a_chord_between_points_a_subnormal_apart():
    records = [_rec(0, 3.0, y=4.0), _rec(1, 0.0, y=1.0), _rec(2, 1e-310, y=2.0)]
    assert classify(records, SolverConfig(), Method.SECANT) is None


# a 2-cycle whose last record is the first one searched for cycles
_CYCLE = [_rec(k, 3.0 if k % 2 == 0 else 5.0, y=1.0 if k % 2 == 0 else 2.0) for k in range(CYCLE_MIN_ITERS + 1)]
_LN_ERROR = DomainError("ln", -1.0)


def test_classify_looks_for_cycles_from_cycle_min_iters():
    assert classify(_CYCLE[:-1], SolverConfig(), Method.SECANT) is None
    assert classify(_CYCLE, SolverConfig(), Method.SECANT) == Oscillating(2)


# each last record spends the budget of max_iter steps: record max_iter for
# Newton, max_iter + 1 for secant and two-point
@pytest.mark.parametrize(
    "records, method, max_iter, domain_error, expected",
    [
        ([_rec(0, 3.0), _rec(1, 2.5), _rec(2, 2.0, y=0.0)], Method.NEWTON, 2, None, Converged(2.0, 2)),
        ([_rec(0, 3.0), _rec(1, 2.5), _rec(2, 2.0)], Method.NEWTON, 2, _LN_ERROR, DomainFailure(3, str(_LN_ERROR))),
        (_STEADY[:3] + [_rec(3, 2e12)], Method.SECANT, 2, None, Diverged(2e12)),
        ([_rec(0, 3.0), _rec(1, 2.5), _rec(2, 2.0, dy=0.0)], Method.NEWTON, 2, None, DerivativeStall(3)),
        (_CYCLE, Method.TWO_POINT, CYCLE_MIN_ITERS - 1, None, Oscillating(2)),
        (_STEADY[:3] + [_rec(3, 2.5, y=_STEADY[2].y)], Method.SECANT, 2, None, DerivativeStall(3)),
    ],
    ids=["converged", "domain-failure", "diverged", "stall", "oscillating", "secant-stall"],
)
def test_classify_budget_loses_to_every_other_outcome(records, method, max_iter, domain_error, expected):
    out = classify(records, SolverConfig(max_iter=max_iter), method, domain_error=domain_error)
    assert out == expected


def test_solve_returns_the_outcome_classify_decides(monkeypatch):
    returned = []

    def spy(*args, **kwargs):
        returned.append(classify(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(twopoint.solvers, "classify", spy)
    cells = 0
    for prob in builtin_problems():
        for start in prob.starts:
            for method in Method:
                returned.clear()
                assert solve(prob.expression, method, start).outcome is returned[-1]
                cells += 1
    assert cells == 87


# runs that repeat a point exactly away from any root: for secant and
# two-point the state is the last two points, so a repeat is no fixed point,
# and a rule that converged on x_k == x_{k-1} would call each of these a root
@pytest.mark.parametrize(
    "source, method, x0, x1",
    [
        ("sin(x)^2 - x^2 + 1", Method.TWO_POINT, 0.0, None),
        ("(x - 1)^6 - 1", Method.SECANT, 0.85, None),
        ("x^2 - 4", Method.TWO_POINT, -1.0, 1.0),
    ],
    ids=["sin2", "sextic", "square"],
)
def test_a_repeated_point_is_not_a_root(source, method, x0, x1):
    trace = solve(parse(source), method, x0, x1=x1)
    assert any(a.x == b.x for a, b in zip(trace.records, trace.records[1:]))
    if isinstance(trace.outcome, Converged):
        assert abs(trace.records[-1].y) < 1e-6


def test_a_repeated_seed_pair_still_reaches_the_root():
    # records 1 and 2 are both (1.0, -3.0); a Newton step leaves them
    trace = solve(parse("x^2 - 4"), Method.TWO_POINT, -1.0, x1=1.0)
    assert trace.records[1][1:3] == trace.records[2][1:3] == (1.0, -3.0)
    assert trace.outcome == Converged(2.0, 6)
