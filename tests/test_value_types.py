"""The contract of every public value type: repr, immutability, equality,
pickling and copying, and SolverConfig's validation.

The reprs were recorded from the program when its value types were frozen
dataclasses; the tests hold whatever mechanism builds the types now.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle

import pytest

from twopoint.analysis import ConvergenceReport, ErrorSequence
from twopoint.corpus import ExpectedResult, Problem
from twopoint.expressions import BinOp, Call, Constant, Dual, Expression, Neg, Number, Variable, eval_dual, parse
from twopoint.solvers import (
    Converged,
    DerivativeStall,
    Diverged,
    DomainFailure,
    IterationRecord,
    MaxIterationsExceeded,
    Method,
    Oscillating,
    Seed,
    SolverConfig,
    Trace,
    solve,
)

# (instance, a field of it, its repr)
CASES = [
    (Number(2.5), "value", "Number(value=2.5)"),
    (Variable(), "name", "Variable()"),
    (Constant("pi"), "name", "Constant(name='pi')"),
    (Neg(Variable()), "operand", "Neg(operand=Variable())"),
    (
        BinOp("^", Variable(), Number(2.0)),
        "left",
        "BinOp(op='^', left=Variable(), right=Number(value=2.0))",
    ),
    (Call("sin", Variable()), "arg", "Call(func='sin', arg=Variable())"),
    (
        parse("sin(x) + 1"),
        "root",
        "Expression(root=BinOp(op='+', left=Call(func='sin', arg=Variable()), right=Number(value=1.0)))",
    ),
    (Dual(1.5, -2.0), "deriv", "Dual(value=1.5, deriv=-2.0)"),
    (
        SolverConfig(1e-12, 50, Seed.GUARDED_NEWTON, 0.001),
        "tol",
        "SolverConfig(tol=1e-12, max_iter=50, seed=<Seed.GUARDED_NEWTON: 'guarded-newton'>, delta_rel=0.001)",
    ),
    (IterationRecord(1, 2.5, 0.5, 1.0, 0.25), "x", "IterationRecord(k=1, x=2.5, y=0.5, dy=1.0, r_weight=0.25)"),
    (Converged(2.0, 3), "root", "Converged(root=2.0, iterations=3)"),
    (Diverged(2e12), "last_x", "Diverged(last_x=2000000000000.0)"),
    (Oscillating(2), "period", "Oscillating(period=2)"),
    (
        DomainFailure(2, "ln undefined for argument -1.0"),
        "detail",
        "DomainFailure(iteration=2, detail='ln undefined for argument -1.0')",
    ),
    (DerivativeStall(4), "iteration", "DerivativeStall(iteration=4)"),
    (MaxIterationsExceeded(7.5), "last_x", "MaxIterationsExceeded(last_x=7.5)"),
    (
        Trace(Method.NEWTON, (IterationRecord(0, 2.0, 0.0, 1.0, 0.5),), Converged(2.0, 0), SolverConfig()),
        "outcome",
        "Trace(method=<Method.NEWTON: 'newton'>, records=(IterationRecord(k=0, x=2.0, y=0.0, dy=1.0, r_weight=0.5),),"
        " outcome=Converged(root=2.0, iterations=0), config=SolverConfig(tol=1e-15, max_iter=1000,"
        " seed=<Seed.PERTURB: 'perturb'>, delta_rel=0.0001))",
    ),
    (
        ErrorSequence(2.0, (0.5, 0.25), 2),
        "errors",
        "ErrorSequence(reference_root=2.0, errors=(0.5, 0.25), seeds=2)",
    ),
    (
        ConvergenceReport((1.5, 2.0), 2.0, 2),
        "estimated_order",
        "ConvergenceReport(ck=(1.5, 2.0), estimated_order=2.0, tail_window=2)",
    ),
    (ExpectedResult("converged", 5), "count", "ExpectedResult(label='converged', count=5)"),
    (
        Problem("t", "x - 2", parse("x - 2"), 2.0, (3.0,), {(Method.NEWTON, 3.0): ExpectedResult("converged", 1)}),
        "starts",
        "Problem(name='t', source='x - 2', expression=Expression(root=BinOp(op='-', left=Variable(),"
        " right=Number(value=2.0))), reference_root=2.0, starts=(3.0,), expected={(<Method.NEWTON: 'newton'>, 3.0):"
        " ExpectedResult(label='converged', count=1)})",
    ),
]
IDS = [type(value).__name__ for value, _, _ in CASES]

OUTCOME_KINDS = (Converged, Diverged, Oscillating, DomainFailure, DerivativeStall, MaxIterationsExceeded)


def test_every_public_value_type_has_a_case():
    assert len(set(IDS)) == len(IDS) == 21


@pytest.mark.parametrize(("value", "field", "text"), CASES, ids=IDS)
def test_repr(value, field, text):
    assert repr(value) == text


@pytest.mark.parametrize(("value", "field", "text"), CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, field, text):
    with pytest.raises(AttributeError):
        setattr(value, field, 0.0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize(("value", "field", "text"), CASES, ids=IDS)
def test_pickle_and_copy_round_trip(value, field, text):
    if isinstance(value, Expression):
        eval_dual(value, 1.0)  # the compiled chain cannot be pickled, only the tree
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is type(value)
        assert other == value
        if not isinstance(value, Problem):  # a Problem holds a dict, so it has no hash
            assert hash(other) == hash(value)
        assert repr(other) == text


@pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
def test_solve_builds_every_record_as_an_iteration_record(method):
    # solve builds records with tuple.__new__, past the type's own __new__; each
    # must still be the type itself, not a plain tuple, with its whole contract
    trace = solve(parse("x^2 - 2"), method, 1.0)
    if method is Method.TWO_POINT:
        # records the two-point step replaced, to hold the weight r
        assert any(rec.r_weight == rec.r_weight for rec in trace.records)
    for rec in trace.records:
        assert type(rec) is IterationRecord
        assert rec._fields == ("k", "x", "y", "dy", "r_weight")
        assert rec._asdict() == dict(zip(rec._fields, rec))
        moved = rec._replace(x=2.5)
        assert type(moved) is IterationRecord and moved == (rec.k, 2.5) + rec[2:]
        cells = ", ".join(f"{name}={value!r}" for name, value in zip(rec._fields, rec))
        assert repr(rec) == f"IterationRecord({cells})"
        assert rec == IterationRecord(*rec) and hash(rec) == hash(IterationRecord(*rec))


def test_outcomes_of_different_kinds_are_unequal_from_both_sides():
    # the same field values, so only the kind tells them apart
    outcomes = [kind(2, 3) if kind in (Converged, DomainFailure) else kind(2) for kind in OUTCOME_KINDS]
    for a, b in itertools.combinations(outcomes, 2):
        assert a != b and b != a
        assert not (a == b or b == a)
    for a in outcomes:
        assert a == copy.copy(a)
    assert Dual(1.0, 3) != Converged(1.0, 3) and Converged(1.0, 3) != Dual(1.0, 3)
    assert Converged(1.0, 3) != (1.0, 3) and (1.0, 3) != Converged(1.0, 3)


def test_a_value_missing_a_field_raises_type_error():
    with pytest.raises(TypeError, match=r"Converged takes the fields \('root', 'iterations'\), got \(1.0,\)"):
        Converged(1.0)


def test_expression_equals_only_an_expression():
    expr = parse("x + 1")
    for other in (Neg(expr.root), (expr.root,)):
        assert expr != other and other != expr
    assert expr == parse("x + 1") and hash(expr) == hash(parse("x + 1"))


def test_equal_expressions_hash_equal():
    # equal numbers that render differently
    big_float = Expression(BinOp("+", Number(1e16), Variable()))
    big_int = Expression(BinOp("+", Number(10**16), Variable()))
    assert big_float == big_int and str(big_float) != str(big_int)
    assert hash(big_float) == hash(big_int)
    text = "-sin(x)^2 / (pi - e * cbrt(x + 1.5))"
    assert hash(parse(text)) == hash(parse(text)) != hash(parse(text.replace("pi", "e")))


DEFAULTS = {"tol": 1e-15, "max_iter": 1000, "seed": Seed.PERTURB, "delta_rel": 1e-4}


@pytest.mark.parametrize(
    "invalid",
    [
        {"tol": 0.0},
        {"tol": -1e-15},
        {"tol": math.nan},
        {"tol": math.inf},
        {"max_iter": 1},
        {"delta_rel": 0.0},
        {"delta_rel": math.nan},
        {"delta_rel": -math.inf},
        {"max_iter": math.nan},
        {"max_iter": math.inf},
        {"max_iter": 2.5},
    ],
)
def test_invalid_solver_config_raises_however_it_is_built(invalid):
    valid = SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(**invalid)
    with pytest.raises(ValueError):
        SolverConfig(*{**DEFAULTS, **invalid}.values())
    if hasattr(valid, "_replace"):
        with pytest.raises(ValueError):
            valid._replace(**invalid)
    if dataclasses.is_dataclass(valid):
        with pytest.raises(ValueError):
            dataclasses.replace(valid, **invalid)
    if hasattr(copy, "replace") and hasattr(valid, "__replace__"):
        with pytest.raises(ValueError):
            copy.replace(valid, **invalid)
