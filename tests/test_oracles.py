"""Roots checked against mpmath, an independent arbitrary-precision oracle.

Each built-in problem is evaluated by mpmath from its rendered text, and
``mpmath.findroot`` refines the problem's reference root to 40 digits.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")

from twopoint import corpus  # noqa: E402
from twopoint.expressions import eval_dual, render  # noqa: E402
from twopoint.solvers import Converged, solve  # noqa: E402

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


def _true_root(problem) -> float:
    """The reference root refined by mpmath at DIGITS digits, rounded to a float."""
    # rendered text is Python syntax once ^ is **; both bind right to left
    # and tighter than unary minus
    f = eval("lambda x: " + render(problem.expression).replace("^", "**"), dict(_MP_NAMES))
    with mpmath.workdps(DIGITS):
        return float(mpmath.findroot(f, mpmath.mpf(problem.reference_root)))


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
