import math

import pytest

from twopoint.analysis import ErrorSequence, ck_sequence, error_sequence
from twopoint.expressions import parse
from twopoint.solvers import Converged, IterationRecord, Method, SolverConfig, Trace, solve


def _trace(xs, method=Method.TWO_POINT):
    records = tuple(IterationRecord(k, x, 1.0, 1.0, math.nan) for k, x in enumerate(xs))
    return Trace(method, records, Converged(xs[-1], len(xs) - 1), SolverConfig())


def test_error_sequence_subtraction():
    root = math.sqrt(2.0)
    trace = _trace([2.0, 1.5, 1.4146])
    errors = error_sequence(trace, root).errors
    assert errors == (2.0 - root, 1.5 - root, 1.4146 - root)
    assert errors[0] == pytest.approx(0.5857864376269049, rel=1e-15)


def test_error_sequence_zero_at_root():
    trace = _trace([1.0, math.sqrt(2.0)])
    assert error_sequence(trace, math.sqrt(2.0)).errors[-1] == 0.0


def test_error_sequence_single_record():
    trace = _trace([2.0])
    assert len(error_sequence(trace, 1.0).errors) == 1


def test_error_sequence_rejects_nonfinite_root():
    with pytest.raises(ValueError):
        error_sequence(_trace([1.0]), math.inf)


def test_ck_exact_decades():
    report = ck_sequence(ErrorSequence(0.0, (1e-2, 1e-4)))
    assert report.ck[0] == pytest.approx(2.0, rel=1e-12)
    report = ck_sequence(ErrorSequence(0.0, (1e-2, 1e-5)))
    assert report.ck[0] == pytest.approx(2.5, rel=1e-12)


def test_ck_base_invariance():
    errors = (0.3, 0.05, 2e-3, 5e-6, 3e-11)
    report = ck_sequence(ErrorSequence(1.0, errors))
    for c, (a, b) in zip(report.ck, zip(errors, errors[1:])):
        assert c == pytest.approx(math.log10(b) / math.log10(a), rel=1e-12)


def test_ck_validity_filter():
    floor = 1e3 * 2.220446049250313e-16
    errors = (1.5, 0.5, 0.01, floor / 2.0, 0.2)
    report = ck_sequence(ErrorSequence(0.0, errors))
    assert tuple(c == c for c in report.ck) == (False, True, False, False)
    assert math.isnan(report.ck[0])


def test_ck_requires_two_errors():
    with pytest.raises(ValueError):
        ck_sequence(ErrorSequence(0.0, (0.1,)))


def test_ck_too_few_valid_entries_has_no_order():
    report = ck_sequence(ErrorSequence(0.0, (0.5, 0.1, 1e-20)))
    assert report.estimated_order is None
    assert report.tail_window == 0


def test_ck_median_window():
    # rates 2, 2, 2, 4: median of the tail absorbs the outlier
    errors = (0.5, 0.25, 0.0625, 0.00390625, 0.00390625**4)
    report = ck_sequence(ErrorSequence(0.0, errors))
    assert sum(c == c for c in report.ck) == 4
    assert report.tail_window == 4
    assert report.estimated_order == pytest.approx(2.0, rel=1e-12)


def test_error_sequence_counts_seed_points():
    assert error_sequence(_trace([2.0, 1.5, 1.4]), 1.0).seeds == 2
    assert error_sequence(_trace([2.0, 1.5, 1.4], method=Method.NEWTON), 1.0).seeds == 1
    assert ErrorSequence(0.0, (0.5, 0.25)).seeds == 1


def test_order_skips_seed_step():
    # the seed step x0 -> x0 + delta barely moves; after it the errors square
    e1 = 0.1000001
    errors = (0.1, e1, e1**2, e1**4)
    report = ck_sequence(error_sequence(_trace(list(errors)), 0.0))
    assert report.estimated_order == pytest.approx(2.0, rel=1e-9)


def test_order_cancels_asymptotic_constant():
    # E_{k+1} = C * E_k^2 with the stiff Newton constant C = 171/26 ~ 6.6:
    # c_k carries a bias log C / log|E_k| that the COC cancels
    errors = [0.1]
    while errors[-1] > 1e-12:
        errors.append(6.6 * errors[-1] ** 2)
    report = ck_sequence(ErrorSequence(0.0, tuple(errors)))
    tail = [c for c in report.ck if c == c][-report.tail_window :]
    assert report.tail_window == 5
    assert max(tail) < 1.9
    assert report.estimated_order == pytest.approx(2.0, abs=1e-9)


def test_order_plateau_and_two_cycle_do_not_raise():
    plateau = ck_sequence(ErrorSequence(0.0, (0.5, 0.25, 0.25, 0.1)))
    assert tuple(c == c for c in plateau.ck) == (True, True, True)
    cycle = ck_sequence(ErrorSequence(0.0, (0.5, -0.5, 0.5, -0.5)))
    assert cycle.ck == (1.0, 1.0, 1.0)
    assert cycle.estimated_order is None
    assert cycle.tail_window == 0


def test_estimated_order_two_point_super_quadratic():
    trace = solve(parse("sin(x)^2 - x^2 + 1"), Method.TWO_POINT, -1.0)
    report = ck_sequence(error_sequence(trace, -1.404491648215340))
    assert 2.1 <= report.estimated_order <= 2.7


def test_estimated_order_newton_quadratic():
    trace = solve(parse("sin(x)^2 - x^2 + 1"), Method.NEWTON, -1.0)
    report = ck_sequence(error_sequence(trace, -1.404491648215340))
    assert 1.8 <= report.estimated_order <= 2.2


def test_estimated_order_secant():
    trace = solve(parse("sin(x)^2 - x^2 + 1"), Method.SECANT, -1.0)
    report = ck_sequence(error_sequence(trace, -1.404491648215340))
    assert 1.4 <= report.estimated_order <= 1.8


def test_two_point_cube_root_ratio_constant_below_one():
    trace = solve(parse("cbrt(x)"), Method.TWO_POINT, 1.0)
    xs = [rec.x for rec in trace.records]
    ratios = [abs(b / a) for a, b in zip(xs[40:60], xs[41:61])]
    assert all(r < 1.0 for r in ratios)
    assert max(ratios) - min(ratios) <= 0.02

