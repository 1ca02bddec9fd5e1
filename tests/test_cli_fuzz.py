"""The CLI's exit-code contract under generated command lines.

``main(argv)`` returns 0 when the run converged, 2 for any other outcome
(or a seeding failure) and 1 for usage errors, and it never raises: bad
flags, garbage expressions, out-of-range numbers, broken problem files and
unwritable ``--out`` paths all end in a one-line ``error:`` and exit 1.
"""

from __future__ import annotations

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint import cli
from twopoint.cli import _UsageError, main
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


# --- the command's parser alone reads what the top-level parser would -------

# Words outside an option: command names, misspelled ones, help, the end of
# options, a lone flag, option-like values, and garbage
LOOSE_WORDS = st.sampled_from(
    ["solve", "trace", "bench", "tra", "Trace", "-h", "--help", "--h", "--"]
    + ["", "-", "-x", "-1e-05", "-x+1", "--verbose"]
) | st.text(max_size=5)

# The values each option is drawn with; parsing reads and writes no file
_VALUES = {
    "--expr": EXPRESSIONS,
    "--problem": PROBLEM_NAMES,
    "--problems": st.just("problems.json"),
    "--method": _choice("newton", "secant", "twopoint"),
    "--x0": _float_texts(-10.0, 10.0),
    "--x1": _float_texts(-10.0, 10.0),
    "--tol": _float_texts(1e-16, 1e-3),
    "--max-iter": _mostly(st.integers(2, 2000).map(str), GARBAGE),
    "--seed": _choice("perturb", "guarded-newton"),
    "--delta": _float_texts(-1.0, 1.0),
    "--format": _choice("table", "json", "csv"),
    "--table": _choice("1", "2", "all"),
    "--out": st.just("out.csv"),
}
OPTION_VALUES = {option: _mostly(values, LOOSE_WORDS) for option, values in _VALUES.items()}
SELECTION = [option for option in _VALUES if option not in ("--format", "--table", "--out")]
# the options of each command; any other first word draws from them all
COMMAND_OPTIONS = {
    "solve": SELECTION + ["--format"],
    "trace": SELECTION + ["--out"],
    "bench": ["--table", "--format", "--out"],
}


def _option_words(draw, option: str) -> list[str]:
    """``option``, maybe abbreviated, with its value attached, apart or missing."""
    flag = option[: draw(_mostly(st.just(len(option)), st.integers(3, len(option))))]
    value = draw(OPTION_VALUES[option])
    form = draw(_mostly(st.sampled_from(["=", " "]), st.just("missing")))
    if form == "=":
        return [f"{flag}={value}"]
    return [flag, value] if form == " " else [flag]


def _outcome(parse, argv):
    """What ``parse(argv)`` returned, or the usage error or exit it raised,
    with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exit:
            result = ("exit", exit.code)
        except _UsageError as error:
            result = ("usage error", str(error))
    return result, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def recording_parsers():
    """A parser of its own whose commands only record the namespace they get."""
    seen = []
    parser, commands = cli._make_parser.__wrapped__()
    for command in commands.values():
        command.set_defaults(func=lambda args: seen.append(args) or 0)
    return parser, commands, seen


def _without_command(args: argparse.Namespace) -> dict:
    """The parsed values but ``command``, as repr text, so that NaN equals NaN."""
    return {name: repr(value) for name, value in vars(args).items() if name != "command"}


@given(data=st.data())
@FUZZ
def test_main_parses_like_the_top_level_parser(recording_parsers, data):
    parser, commands, seen = recording_parsers
    first = data.draw(_mostly(st.sampled_from(["solve", "trace", "bench"]), LOOSE_WORDS | st.none()))
    argv = [] if first is None else [first]
    if data.draw(st.integers(0, 3)):
        # the options solve and trace require, so that more lines parse
        argv += _option_words(data.draw, "--method") + _option_words(data.draw, "--x0")
    options = st.sampled_from(list(OPTION_VALUES))
    if first in COMMAND_OPTIONS:
        options = _mostly(st.sampled_from(COMMAND_OPTIONS[first]), options)
    for _ in range(data.draw(st.integers(0, 5))):
        # one word in eight is loose
        if data.draw(st.integers(0, 7)):
            argv += _option_words(data.draw, data.draw(options))
        else:
            argv.append(data.draw(LOOSE_WORDS))

    seen.clear()
    want, out, err = _outcome(parser.parse_args, argv)
    with mock.patch.object(cli, "_make_parser", lambda: (parser, commands)):
        got = _outcome(main, argv)
    if isinstance(want, argparse.Namespace):
        assert got == (0, out, err)
        (args,) = seen
        assert _without_command(args) == _without_command(want)
    elif want[0] == "usage error":
        assert got == (1, out, f"{err}error: {want[1]}\n")
    else:
        assert got == (want, out, err)
