"""Randomized invariant checks with fixed seeds (implementations in conftest),
and hypothesis properties run derandomized."""

from conftest import (
    check_ad_matches_finite_differences,
    check_affine_exactness,
    check_root_fixed_point,
    check_scale_invariance,
    check_translation_covariance,
    check_weighted_identity,
    step_numbering_holds,
)
from typing import get_args

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twopoint.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    Constant,
    DomainError,
    Expression,
    Neg,
    Number,
    Variable,
    eval_dual,
    parse,
    render,
)
from twopoint.solvers import Method, Outcome, Seed, SeedingError, SolverConfig, solve


def test_weighted_form_identity():
    assert check_weighted_identity() >= 100


def test_scale_invariance():
    assert check_scale_invariance() >= 100


def test_translation_covariance():
    assert check_translation_covariance() >= 100


def test_affine_one_step_exactness():
    assert check_affine_exactness() >= 100


def test_root_fixed_point():
    assert check_root_fixed_point() >= 100


def test_ad_agrees_with_finite_differences():
    assert check_ad_matches_finite_differences() >= 100


# leaves of the trees parse can build: a parsed number is never negative
LEAVES = st.one_of(
    st.just(Variable()),
    st.sampled_from([Constant("pi"), Constant("e")]),
    st.builds(Number, st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
    st.sampled_from([Number(5e-324), Number(1e16), Number(3.25e300)]),
)


def _depth_at_most(depth: int):
    if depth == 0:
        return LEAVES
    child = _depth_at_most(depth - 1)
    return st.one_of(
        LEAVES,
        st.builds(Neg, child),
        st.builds(Call, st.sampled_from(FUNCTIONS), child),
        st.builds(BinOp, st.sampled_from("+-*/^"), child, child),
    )


@given(_depth_at_most(6).map(Expression))
@settings(derandomize=True, deadline=None, max_examples=500)
def test_parse_inverts_render(expr):
    assert parse(render(expr)) == expr


@given(_depth_at_most(4).map(Expression), st.floats(min_value=-1e6, max_value=1e6))
@settings(derandomize=True, deadline=None, max_examples=500)
def test_solve_returns_an_outcome_or_raises_seeding_error(expr, x0):
    try:
        eval_dual(expr, x0)
    except DomainError:
        assume(False)
    for config in (SolverConfig(), SolverConfig(seed=Seed.GUARDED_NEWTON)):
        for method in Method:
            try:
                trace = solve(expr, method, x0, config)
            except SeedingError:
                continue
            assert isinstance(trace.outcome, get_args(Outcome))
            assert step_numbering_holds(trace)
