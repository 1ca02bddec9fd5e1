"""The CLI's exit-code contract under generated command lines.

``main(argv)`` returns 0 when the run converged, 2 for any other outcome
(or a seeding failure) and 1 for usage errors, and it never raises: bad
flags, garbage expressions, out-of-range numbers, broken problem files and
unwritable ``--out`` paths all end in a one-line ``error:`` and exit 1.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint.cli import main
from twopoint.corpus import builtin_problems
from twopoint.expressions import FUNCTIONS

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)


def _mostly(valid, garbage):
    """``valid`` nine times in ten, so that most command lines get past argparse."""
    return st.integers(0, 9).flatmap(lambda i: garbage if i == 5 else valid)


ATOMS = st.sampled_from(["x", "pi", "e", "0", "1", "2.5", "-0", "1e-170", "1e308", "1e400", "5e-324"])


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda c: f"-{c}"),
    )


EXPRESSIONS = _mostly(
    st.recursive(ATOMS, _extend, max_leaves=12) | st.sampled_from([p.source for p in builtin_problems()]),
    st.sampled_from(["", "--", "x^(", "((x)", "x+\u00e9", "(" * 400 + "x" + ")" * 400, "x" + "^x" * 300])
    | st.text(max_size=20),
)
EDGE_FLOATS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-0", "0", "5e-324", "1e-170", "1.7e308"]
)
GARBAGE = st.sampled_from(["", "abc", "1,5", "--"])


def _float_texts(lo: float, hi: float):
    return _mostly(st.floats(lo, hi).map(repr) | EDGE_FLOATS | st.floats().map(repr), GARBAGE)


def _choice(*valid: str):
    return _mostly(st.sampled_from(valid), st.sampled_from(["bogus", "", "--"]))


PROBLEM_NAMES = _mostly(st.sampled_from([p.name for p in builtin_problems()] + ["shifted"]), st.just("nope"))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Problem files and --out targets, all inside a temporary directory."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    good = root / "good.json"
    good.write_text(
        json.dumps(
            [
                {"name": "shifted", "expr": "x^2 - 9", "root": 3.0, "starts": [5.0]},
                {"name": "atan(x)", "expr": "atan(x) - 1", "starts": [1.0]},
            ]
        )
    )
    bad = root / "bad.json"
    bad.write_text('[{"name": "a", "expr": "x", "starts": [1], "expected": {"newton@1": 0}}]')
    problems = [str(good), str(bad), str(root / "missing.json"), str(root)]
    outs = [str(root / "out.txt"), str(root / "no-such-dir" / "out.txt"), str(root)]
    return problems, outs


def _optional(strategy):
    return st.none() | strategy


def _flags(draw, **options) -> list[str]:
    """``--flag=value`` for each option whose strategy draws a value."""
    argv = []
    for flag, strategy in options.items():
        value = draw(strategy)
        if value is not None:
            argv.append(f"--{flag.replace('_', '-')}={value}")
    return argv


def _run(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


@given(data=st.data())
@FUZZ
def test_solve_and_trace_exit_0_1_or_2(files, data):
    problems, outs = files
    command = data.draw(st.sampled_from(["solve", "trace"]))
    selection = data.draw(_mostly(st.sampled_from(["expr", "problem"]), st.sampled_from(["both", "none"])))
    argv = [command]
    if selection in ("expr", "both"):
        argv.append(f"--expr={data.draw(EXPRESSIONS)}")
    if selection in ("problem", "both"):
        argv.append(f"--problem={data.draw(PROBLEM_NAMES)}")
    # solve has no --out, and trace no --format or --verbose
    argv += _flags(
        data.draw,
        problems=_optional(st.sampled_from(problems)),
        method=_choice("newton", "secant", "twopoint"),
        x0=_float_texts(-10.0, 10.0),
        x1=_optional(_float_texts(-10.0, 10.0)),
        tol=_optional(_float_texts(1e-16, 1e-3)),
        max_iter=_optional(_mostly(st.integers(2, 2000).map(str), st.integers(max_value=1).map(str) | GARBAGE)),
        seed=_optional(_choice("perturb", "guarded-newton")),
        delta=_optional(_float_texts(-1.0, 1.0)),
        format=_optional(_choice("table", "json", "csv")) if command == "solve" else st.none(),
        out=_optional(st.sampled_from(outs)) if command == "trace" else st.none(),
    )
    if command == "solve" and data.draw(st.booleans()):
        argv.append("--verbose")
    assert _run(argv) in (0, 1, 2)


@given(data=st.data())
@settings(FUZZ, max_examples=20)
def test_bench_exit_0_or_1(files, data):
    _, outs = files
    argv = ["bench"] + _flags(
        data.draw,
        table=_optional(_choice("1", "2", "all")),
        format=_optional(_choice("csv", "json")),
        out=_optional(st.sampled_from(outs)),
    )
    assert _run(argv) in (0, 1)
