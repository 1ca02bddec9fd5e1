"""Shared helpers: expression transforms, sampling windows, and the
randomized property checks reused by the acceptance suite."""

from __future__ import annotations

import math
import random

from twopoint.expressions import (
    BinOp,
    Call,
    DomainError,
    Expression,
    Neg,
    Node,
    Number,
    Variable,
    eval_dual,
    parse,
)
from twopoint.solvers import (
    Converged,
    DerivativeStall,
    DomainFailure,
    MaxIterationsExceeded,
    Method,
    Trace,
    newton_step,
    secant_step,
    solve,
    twopoint_step,
)

# in-domain sampling windows per corpus source, away from singular points
SAMPLE_WINDOWS = {
    "sin(x)^2 - x^2 + 1": (-4.0, 4.0),
    "(x - 2) * (x + 2)^4": (-4.0, 4.0),
    "(x - 1)^6 - 1": (-2.0, 4.0),
    "sin(x) * exp(x) + ln(x^2 + 1)": (-3.0, 3.0),
    "exp(x^2 + 7*x - 30) - 1": (1.0, 4.6),
    "x - 3 * ln(x)": (0.05, 6.0),
    "-x^4 + 3*x^2 + 2": (-4.0, 4.0),
    "log10(x)": (0.05, 10.0),
    "atan(x)": (-10.0, 10.0),
    "x^5 - x + 1": (-3.0, 3.0),
    "0.5*x^3 - 6*x^2 + 21.5*x - 22": (-5.0, 8.0),
    "cbrt(x)": (-5.0, 5.0),
    "10*x*exp(-x^2) - 1": (-3.0, 3.0),
    "sin(x)": (-7.0, 7.0),
}

# (source, start) pairs well inside a root's basin for every method; the
# invariance checks compare iterate sequences between runs, which is only
# meaningful away from chaotic basin boundaries
CONVERGING_SETUPS = [
    ("x - 3 * ln(x)", 2.0),
    ("x - 3 * ln(x)", 0.5),
    ("sin(x) * exp(x) + ln(x^2 + 1)", -0.8),
    ("sin(x)^2 - x^2 + 1", -1.0),
    ("(x - 1)^6 - 1", 2.5),
    ("atan(x)", 0.5),
    ("x^5 - x + 1", -1.5),
]

METHODS = (Method.NEWTON, Method.SECANT, Method.TWO_POINT)


def step_numbering_holds(trace: Trace) -> bool:
    """Whether the outcome numbers steps as ``trace.iterations`` counts them.

    A converged run took ``iterations`` steps, a domain failure or a
    derivative stall names step ``iterations + 1`` (the one that could not
    be taken), and an exhausted budget took exactly ``max_iter`` steps.
    """
    out = trace.outcome
    if isinstance(out, Converged):
        return out.iterations == trace.iterations
    if isinstance(out, (DomainFailure, DerivativeStall)):
        return out.iteration == trace.iterations + 1
    if isinstance(out, MaxIterationsExceeded):
        return trace.iterations == trace.config.max_iter
    return True


def bisect_root(g, lo: float, hi: float) -> float:
    """The root of the increasing function ``g`` in [lo, hi], to the last bit."""
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)


def multiple_root_rate(method: Method, m: int) -> float:
    """The linear rate |e_k+1| / |e_k| of ``method`` at a root of multiplicity m.

    Two-point's rho solves (1 + rho)(1 + rho + ... + rho^(m-1)) = m, the fixed
    point r = 1 / (1 + rho) of its weight; Newton's is (m - 1) / m; secant's
    rho solves rho^m + rho^(m-1) = 1.
    """
    if method is Method.NEWTON:
        return (m - 1) / m
    if method is Method.SECANT:
        return bisect_root(lambda r: r**m + r ** (m - 1) - 1, 0.0, 1.0)
    return bisect_root(lambda r: (1 + r) * sum(r**j for j in range(m)) - m, 0.0, 1.0)


def scale_expression(c: float, expr: Expression) -> Expression:
    return Expression(BinOp("*", Number(c), expr.root))


def _substitute(node: Node, replacement: Node) -> Node:
    if isinstance(node, Variable):
        return replacement
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute(node.left, replacement), _substitute(node.right, replacement))
    if isinstance(node, Neg):
        return Neg(_substitute(node.operand, replacement))
    if isinstance(node, Call):
        return Call(node.func, _substitute(node.arg, replacement))
    return node


def shift_expression(expr: Expression, a: float) -> Expression:
    """Build g(x) = f(x - a)."""
    return Expression(_substitute(expr.root, BinOp("-", Variable(), Number(a))))


# --- randomized property checks ----------------------------------------------


def check_weighted_identity(cases: int = 200, seed: int = 101) -> int:
    """x_next agrees with (1 - 1/r) x_prev + (1/r) x_cur to rounding."""
    rng = random.Random(seed)
    tested = 0
    while tested < cases:
        x_prev = rng.uniform(-10, 10)
        x_cur = rng.uniform(-10, 10)
        if abs(x_cur - x_prev) < 1e-6:
            continue
        y_prev = rng.uniform(-5, 5)
        y_cur = rng.uniform(-5, 5)
        dy = rng.uniform(-5, 5)
        if y_prev == 0.0:
            continue
        x_next, r = twopoint_step(x_prev, y_prev, x_cur, y_cur, dy)
        if not math.isfinite(r) or r == 0.0 or not math.isfinite(x_next):
            continue
        weighted = (1.0 - 1.0 / r) * x_prev + (1.0 / r) * x_cur
        base = max(abs(x_prev), abs(x_cur))
        if abs(r) >= 1.0:
            assert abs(x_next - weighted) <= 4.0 * math.ulp(base)
        # small |r| amplifies both forms by 1/|r|; bound at that scale
        assert abs(x_next - weighted) <= 8.0 * math.ulp(base * max(1.0, 1.0 / abs(r)))
        tested += 1
    return tested


def _compare_sequences(xs_a, xs_b, scale_fn):
    # the step formulas depend only on ordinate ratios, so the iterate
    # sequences agree; the stopping rule's |y| term is not scale-free and
    # termination may differ, hence the comparison over the common prefix
    assert min(len(xs_a), len(xs_b)) >= 3
    for a, b in zip(xs_a, xs_b):
        assert abs(a - b) <= scale_fn(a), f"{a!r} vs {b!r}"


def _separated_seed(method: Method, x0: float) -> float | None:
    # a well-separated second point keeps the first step's weight r away
    # from its cancellation zone, so runs stay comparable to rounding
    if method is Method.NEWTON:
        return None
    return x0 + 0.25 * max(1.0, abs(x0))


def check_scale_invariance(cases: int = 102, seed: int = 202) -> int:
    """Iterates depend only on ratios of ordinates: c*f reproduces f."""
    rng = random.Random(seed)
    tested = 0
    while tested < cases:
        source, start = CONVERGING_SETUPS[rng.randrange(len(CONVERGING_SETUPS))]
        method = METHODS[rng.randrange(3)]
        c = (1e-6, 3.0, 1e6)[rng.randrange(3)]
        x0 = start + rng.uniform(-0.02, 0.02)
        x1 = _separated_seed(method, x0)
        base = parse(source)
        ref = solve(base, method, x0, x1=x1)
        scaled = solve(scale_expression(c, base), method, x0, x1=x1)
        _compare_sequences(
            [rec.x for rec in ref.records],
            [rec.x for rec in scaled.records],
            lambda a: 1e-12 * max(1.0, abs(a)),
        )
        tested += 1
    return tested


def check_translation_covariance(cases: int = 102, seed: int = 303) -> int:
    rng = random.Random(seed)
    shifts = (-2.5, -1.0, 0.5, 1.25, 3.0)
    tested = 0
    while tested < cases:
        source, start = CONVERGING_SETUPS[rng.randrange(len(CONVERGING_SETUPS))]
        method = METHODS[rng.randrange(3)]
        a = shifts[rng.randrange(len(shifts))]
        x0 = start + rng.uniform(-0.02, 0.02)
        x1 = _separated_seed(method, x0)
        base = parse(source)
        moved = shift_expression(base, a)
        ref = solve(base, method, x0, x1=x1)
        shifted = solve(moved, method, x0 + a, x1=None if x1 is None else x1 + a)
        _compare_sequences(
            [rec.x + a for rec in ref.records],
            [rec.x for rec in shifted.records],
            lambda _a: 1e-12 * max(1.0, abs(a)),
        )
        tested += 1
    return tested


def check_affine_exactness(cases: int = 150, seed: int = 404) -> int:
    """Secant and two-point reach the root of m*x + b in one step."""
    rng = random.Random(seed)
    tested = 0
    while tested < cases:
        m = rng.uniform(-1e3, 1e3)
        if abs(m) < 1e-3:
            continue
        b = rng.uniform(-100, 100)
        xa = rng.uniform(-50, 50)
        xb = rng.uniform(-50, 50)
        if abs(xb - xa) < 1e-6:
            continue
        root = -b / m
        ya, yb = m * xa + b, m * xb + b
        if ya == 0.0 or yb == ya:
            continue
        got_secant = secant_step(xa, ya, xb, yb)
        got_two, _ = twopoint_step(xa, ya, xb, yb, m)
        # cancellation happens at the scale of the sample points
        tol = 1e-12 * max(1.0, abs(root), abs(xa), abs(xb))
        assert abs(got_secant - root) <= tol
        assert abs(got_two - root) <= tol
        tested += 1
    return tested


def check_root_fixed_point(cases: int = 150, seed: int = 505) -> int:
    rng = random.Random(seed)
    for _ in range(cases):
        x_cur = rng.uniform(-100, 100)
        x_prev = x_cur + rng.uniform(0.1, 5.0)
        dy = rng.uniform(-10, 10)
        assert newton_step(x_cur, 0.0, dy) == x_cur
        x_next, r = twopoint_step(x_prev, rng.uniform(0.1, 5.0), x_cur, 0.0, dy)
        assert x_next == x_cur
        assert r == 1.0
    return cases


def check_ad_matches_finite_differences(points_per_expr: int = 110, seed: int = 606) -> int:
    """Central differences reproduce the propagated derivative."""
    rng = random.Random(seed)
    tested = 0
    for source, (lo, hi) in SAMPLE_WINDOWS.items():
        expr = parse(source)
        done = 0
        while done < points_per_expr:
            x = rng.uniform(lo, hi)
            if source == "cbrt(x)" and abs(x) < 0.01:
                continue
            h = 1e-6 * max(1.0, abs(x))
            try:
                d = eval_dual(expr, x)
                fp = eval_dual(expr, x + h).value
                fm = eval_dual(expr, x - h).value
            except DomainError:
                continue
            if not math.isfinite(d.deriv):
                continue
            fd = (fp - fm) / (2.0 * h)
            assert abs(d.deriv - fd) <= 1e-5 * max(1.0, abs(d.deriv)), (source, x)
            done += 1
        tested += done
    return tested
