"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them all)."""

import math

from conftest import (
    check_ad_matches_finite_differences,
    check_affine_exactness,
    check_root_fixed_point,
    check_scale_invariance,
    check_translation_covariance,
    check_weighted_identity,
)
from twopoint.analysis import ck_sequence, error_sequence
from twopoint.corpus import (
    ROOT_BASIN_MISMATCH,
    START_UNCERTAIN,
    builtin_problems,
    find_problem,
    table1_problems,
    table2_problems,
)
from twopoint.expressions import eval_dual, parse
from twopoint.solvers import (
    Converged,
    Diverged,
    DomainFailure,
    MaxIterationsExceeded,
    Method,
    Oscillating,
    Seed,
    SolverConfig,
    solve,
)

ROOT_TOL = 1e-9
COUNT_MARGIN = 5

# start 1.0 of the even function sin(x)^2 - x^2 + 1 lies in the basin of the
# mirror root +1.404491648215340; the table prints the negative one
MIRROR_ROOT_ROWS = {("sin(x)^2 - x^2 + 1", 1.0)}


def _finish(number, slug, failures):
    status = "FAIL" if failures else "PASS"
    tail = f" [{'; '.join(failures)}]" if failures else ""
    print(f"\nACCEPTANCE {number} {slug}: {status}{tail}")
    assert not failures, f"criterion {number} ({slug}): {'; '.join(failures)}"


def test_criterion_1_table1_two_point_convergence():
    failures = []
    for prob in table1_problems():
        for start in prob.starts:
            row = (prob.name, start)
            if row in START_UNCERTAIN:
                continue
            trace = solve(prob.expression, Method.TWO_POINT, start)
            label = f"{prob.name} from {start}"
            if not isinstance(trace.outcome, Converged):
                failures.append(f"{label}: {trace.outcome.label}")
                continue
            root = trace.outcome.root
            if row in ROOT_BASIN_MISMATCH:
                residual = eval_dual(prob.expression, root).value
                if abs(residual) > ROOT_TOL:
                    failures.append(f"{label}: residual {residual:g}")
            else:
                target = prob.reference_root
                if row in MIRROR_ROOT_ROWS:
                    target = -target
                if abs(root - target) > ROOT_TOL:
                    failures.append(f"{label}: root {root!r} vs {target!r}")
            printed = prob.expected[(Method.TWO_POINT, start)].count
            if trace.outcome.iterations > printed + COUNT_MARGIN:
                failures.append(f"{label}: {trace.outcome.iterations} iterations > {printed}+{COUNT_MARGIN}")
    _finish(1, "table1-two-point-convergence", failures)


def test_criterion_2_table1_iteration_ordering():
    failures = []
    for prob in table1_problems():
        for start in prob.starts:
            counts = {}
            for method in Method:
                trace = solve(prob.expression, method, start)
                if not isinstance(trace.outcome, Converged):
                    failures.append(f"{prob.name} from {start} {method.value}: {trace.outcome.label}")
                    break
                counts[method] = trace.outcome.iterations
            else:
                two, newton, secant = counts[Method.TWO_POINT], counts[Method.NEWTON], counts[Method.SECANT]
                if not (two <= newton <= secant + 2):
                    failures.append(f"{prob.name} from {start}: {two}/{newton}/{secant}")
    _finish(2, "table1-iteration-ordering", failures)


def test_criterion_3_table2_newton_behaviors():
    failures = []

    def check(name, start, predicate, describe):
        trace = solve(find_problem(name).expression, Method.NEWTON, start)
        if not predicate(trace.outcome):
            failures.append(f"{name} from {start}: got {trace.outcome.label}, want {describe}")
        return trace

    check("log10(x)", 3.0, lambda o: isinstance(o, DomainFailure), "domain failure")
    for start in (3.0, -3.0):
        check("atan(x)", start, lambda o: isinstance(o, Diverged), "divergence")
    for start in (1.0, -1.0):
        check("cbrt(x)", start, lambda o: isinstance(o, Diverged), "divergence")
    bounded_rows = [
        ("x^5 - x + 1", 2.0),
        ("0.5*x^3 - 6*x^2 + 21.5*x - 22", 3.0),
        ("0.5*x^3 - 6*x^2 + 21.5*x - 22", 5.0),
        ("-x^4 + 3*x^2 + 2", 1.0),
        ("-x^4 + 3*x^2 + 2", 0.5),
    ]
    for name, start in bounded_rows:
        trace = check(
            name, start, lambda o: isinstance(o, (Oscillating, MaxIterationsExceeded)), "bounded oscillation"
        )
        if not all(math.isfinite(rec.x) and abs(rec.x) <= 1e12 for rec in trace.records):
            failures.append(f"{name} from {start}: iterates unbounded")
    _finish(3, "table2-newton-behaviors", failures)


def test_criterion_4_table2_two_point_convergence():
    failures = []
    for prob in table2_problems():
        for start in prob.starts:
            label = f"{prob.name} from {start}"
            trace = solve(prob.expression, Method.TWO_POINT, start)
            if not isinstance(trace.outcome, Converged):
                failures.append(f"{label}: {trace.outcome.label}")
                continue
            if prob.name == "10*x*exp(-x^2) - 1 @ x0=-1":
                # the default perturbation seeds into the far root's basin;
                # assert a genuine root here and the printed pairing below
                residual = eval_dual(prob.expression, trace.outcome.root).value
                if abs(residual) > ROOT_TOL:
                    failures.append(f"{label}: residual {residual:g}")
            elif abs(trace.outcome.root - prob.reference_root) > ROOT_TOL:
                failures.append(f"{label}: root {trace.outcome.root!r} vs {prob.reference_root!r}")

    # printed root pairing for the bell-curve rows, Newton-guarded seeding
    guarded = SolverConfig(seed=Seed.GUARDED_NEWTON)
    for name, start, want in [
        ("10*x*exp(-x^2) - 1 @ x0=3", 3.0, 1.679630610428450),
        ("10*x*exp(-x^2) - 1 @ x0=-1", -1.0, 0.101025848315685),
    ]:
        trace = solve(find_problem(name).expression, Method.TWO_POINT, start, guarded)
        if not (isinstance(trace.outcome, Converged) and abs(trace.outcome.root - want) <= ROOT_TOL):
            failures.append(f"{name}: guarded seeding did not reach {want}")

    # iteration count on the cube root: the printed 101 corresponds to a
    # stop dominated by the step size; tol 1e-5 puts the ordinate term in
    # that regime while still landing within 1e-9 of the root
    count_config = SolverConfig(tol=1e-5)
    for start in (1.0, -1.0):
        trace = solve(find_problem("cbrt(x)").expression, Method.TWO_POINT, start, count_config)
        if not isinstance(trace.outcome, Converged):
            failures.append(f"cbrt({start}): {trace.outcome.label}")
            continue
        if abs(trace.outcome.root) > ROOT_TOL:
            failures.append(f"cbrt({start}): root {trace.outcome.root!r}")
        if not 101 - 15 <= trace.outcome.iterations <= 101 + 15:
            failures.append(f"cbrt({start}): {trace.outcome.iterations} iterations outside 101 +/- 15")
    _finish(4, "table2-two-point-convergence", failures)


def _order_for(source, start, method, reference_root):
    trace = solve(parse(source), method, start)
    assert isinstance(trace.outcome, Converged), f"{source} {method.value}: {trace.outcome.label}"
    report = ck_sequence(error_sequence(trace, reference_root))
    return report.estimated_order


def test_criterion_5_convergence_orders():
    failures = []
    cases = [
        # start 1.0 converges to the mirror root of the even function
        ("sin(x)^2 - x^2 + 1", 1.0, 1.404491648215340),
        ("exp(x^2 + 7*x - 30) - 1", 4.0, 3.0),
    ]
    for source, start, root in cases:
        two = _order_for(source, start, Method.TWO_POINT, root)
        newton = _order_for(source, start, Method.NEWTON, root)
        if two is None or not 2.1 <= two <= 2.7:
            failures.append(f"{source}: two-point order {two}")
        if newton is None or not 1.8 <= newton <= 2.2:
            failures.append(f"{source}: newton order {newton}")
    _finish(5, "convergence-orders", failures)


def test_criterion_6_sine_offshoot():
    failures = []
    sine = find_problem("sin(x)").expression
    start = 1.58079633
    newton = solve(sine, Method.NEWTON, start, SolverConfig(tol=1e-12))
    if not isinstance(newton.outcome, Converged):
        failures.append(f"newton: {newton.outcome.label}")
    elif abs(newton.outcome.root - 100.531) > 1e-3:
        failures.append(f"newton root {newton.outcome.root!r}")

    two = solve(sine, Method.TWO_POINT, start)
    if not all(abs(rec.x) <= 10.0 for rec in two.records):
        failures.append("two-point iterates left [-10, 10]")
    if not isinstance(two.outcome, Converged):
        failures.append(f"two-point: {two.outcome.label}")
    else:
        root = two.outcome.root
        if abs(math.sin(root)) > 1e-12:
            failures.append(f"two-point root residual {math.sin(root):g}")
        if abs(root) > math.pi:
            failures.append(f"two-point root {root!r} beyond pi")
    _finish(6, "newton-offshoot-vs-two-point", failures)


def test_criterion_7_cube_root_recurrences():
    failures = []
    cube = find_problem("cbrt(x)").expression

    newton = solve(cube, Method.NEWTON, 1.0)
    xs = [rec.x for rec in newton.records]
    if len(xs) < 31:
        failures.append(f"newton produced only {len(xs)} iterates")
    for a, b in zip(xs[:30], xs[1:31]):
        if abs(b + 2.0 * a) > 1e-12 * abs(2.0 * a):
            failures.append(f"newton step {a!r} -> {b!r} is not doubling")
            break

    two = solve(cube, Method.TWO_POINT, 1.0)
    if not isinstance(two.outcome, Converged):
        failures.append(f"two-point: {two.outcome.label}")
    else:
        xs = [rec.x for rec in two.records]
        window = xs[40:61]
        ratios = [abs(b / a) for a, b in zip(window, window[1:])]
        if not all(xs[k] * xs[k + 1] < 0 for k in range(40, 60)):
            failures.append("two-point iterates stopped alternating in sign")
        if not all(r < 1.0 for r in ratios):
            failures.append("two-point |x| ratio reached 1")
        if max(ratios) - min(ratios) > 0.02:
            failures.append(f"two-point ratios not settling: {min(ratios):.4f}..{max(ratios):.4f}")
    _finish(7, "cube-root-recurrences", failures)


def test_criterion_8_randomized_property_suite():
    failures = []
    for name, check in [
        ("weighted-form identity", check_weighted_identity),
        ("scale invariance", check_scale_invariance),
        ("translation covariance", check_translation_covariance),
        ("affine one-step exactness", check_affine_exactness),
        ("root fixed point", check_root_fixed_point),
        ("AD vs finite differences", check_ad_matches_finite_differences),
    ]:
        try:
            cases = check()
            if cases < 100:
                failures.append(f"{name}: only {cases} cases")
        except AssertionError as err:
            failures.append(f"{name}: {err}")
    _finish(8, "randomized-property-suite", failures)


def test_criterion_9_transcription_guard():
    failures = []
    for prob in builtin_problems():
        if prob.reference_root is None:
            continue
        residual = eval_dual(prob.expression, prob.reference_root).value
        if abs(residual) > 1e-9:
            failures.append(f"{prob.name}: residual {residual:g}")
    _finish(9, "transcription-guard", failures)
