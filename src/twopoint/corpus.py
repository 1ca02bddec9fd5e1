"""Built-in benchmark problems and ingestion of user problem files.

The built-in set covers the two comparison tables (convergence counts for
all three methods, plus the rows where Newton or secant oscillate, diverge,
or leave the domain) and the near-critical sine start used to demonstrate
Newton offshooting.  Expressions are stored as source text and parsed once;
derivatives always come from the evaluator, never hand-coded.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Iterable

from .expressions import DomainError, ParseError, eval_dual, parse
from .solvers import Converged, Diverged, DomainFailure, Method, Oscillating

__all__ = [
    "ExpectedResult",
    "Problem",
    "ProblemFileError",
    "ROOT_BASIN_MISMATCH",
    "START_UNCERTAIN",
    "TABLE_METHODS",
    "builtin_problems",
    "find_problem",
    "iteration_count",
    "load_problems",
    "table1_problems",
    "table2_problems",
]


ExpectedResult = namedtuple("ExpectedResult", "label count", defaults=(None,))
ExpectedResult.__doc__ = """A benchmark-table cell: the outcome label the paper reports (a str, an
Outcome.label), and its iteration count (an int) when that label is converged,
else None."""


def iteration_count(n: int) -> ExpectedResult:
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ValueError(f"iteration count must be a positive integer, got {n!r}")
    return ExpectedResult(Converged.label, n)


# name and source: strs; expression: the parsed source; reference_root: a float
# or None; starts: a tuple of floats; expected: a mapping from (Method, start)
# to ExpectedResult
Problem = namedtuple("Problem", "name source expression reference_root starts expected")


class ProblemFileError(ValueError):
    """A problem file failed validation; names the entry index and field."""


# (problem name, start) pairs transcribed with a caveat:
#  - START_UNCERTAIN: the table's start cell is illegible; 2.0 is a stand-in
#    and the row is excluded from golden-count checks.
#  - ROOT_BASIN_MISMATCH: the printed root lies in a different basin than
#    the start, so root-identity assertions are skipped for the row.
START_UNCERTAIN = frozenset({("sin(x)^2 - x^2 + 1", 2.0)})
ROOT_BASIN_MISMATCH = frozenset({("(x - 2) * (x + 2)^4", 1.4)})

# the paper's words for a failed run, as written in its tables and in
# problem files
_CELLS = {
    "oscillates": ExpectedResult(Oscillating.label),
    "diverges": ExpectedResult(Diverged.label),
    "fails": ExpectedResult(DomainFailure.label),
}

# the methods of a table row, in the paper's column order
TABLE_METHODS = (Method.SECANT, Method.NEWTON, Method.TWO_POINT)


def _cell(value) -> ExpectedResult:
    if isinstance(value, str):
        return _CELLS[value]
    return iteration_count(value)


def _problem(name: str, root: float | None, rows: dict[float, tuple], source: str = "") -> Problem:
    """A built-in problem whose text is ``name`` unless ``source`` is given;
    ``rows`` maps each start to its cells in TABLE_METHODS order."""
    source = source or name
    expected = {
        (method, start): _cell(value)
        for start, cells in rows.items()
        for method, value in zip(TABLE_METHODS, cells)
    }
    return Problem(name, source, parse(source), root, tuple(rows), expected)


_TABLE1 = (
    _problem(
        "sin(x)^2 - x^2 + 1",
        -1.404491648215340,
        {2.0: (10, 8, 6), 1.0: (9, 6, 5), -1.0: (9, 7, 5), -3.0: (9, 7, 6)},
    ),
    _problem("(x - 2) * (x + 2)^4", -2.000000000000000, {-3.0: (168, 119, 83), 1.4: (116, 81, 60)}),
    _problem("(x - 1)^6 - 1", 2.000000000000000, {1.5: (25, 17, 8), 2.5: (12, 8, 6), 3.5: (16, 11, 8)}),
    _problem("sin(x) * exp(x) + ln(x^2 + 1)", -0.603231971557215, {-0.8: (8, 7, 5), -0.65: (8, 5, 4)}),
    _problem("exp(x^2 + 7*x - 30) - 1", 3.000000000000000, {4.0: (29, 20, 14), 4.5: (39, 28, 18)}),
    _problem("x - 3 * ln(x)", 1.857183860207840, {2.0: (8, 5, 4), 0.5: (11, 8, 5)}),
)
_TABLE2 = (
    _problem("-x^4 + 3*x^2 + 2", 1.887207676120680, {1.0: (11, "oscillates", 7), 0.5: (23, "oscillates", 6)}),
    _problem("log10(x)", 1.000000000000000, {3.0: ("fails", "fails", 5)}),
    _problem("atan(x)", 0.000000000000000, {3.0: ("diverges", "diverges", 6), -3.0: ("diverges", "diverges", 6)}),
    _problem("x^5 - x + 1", -1.167303978261420, {2.0: ("oscillates", "oscillates", 12), 3.0: (14, "oscillates", 15)}),
    _problem(
        "0.5*x^3 - 6*x^2 + 21.5*x - 22",
        4.000000000000000,
        {3.0: (10, "oscillates", 7), 5.0: (8, "oscillates", 6)},
    ),
    _problem(
        "cbrt(x)",
        0.000000000000000,
        {1.0: ("oscillates", "diverges", 101), -1.0: ("oscillates", "diverges", 101)},
    ),
    _problem(
        "10*x*exp(-x^2) - 1 @ x0=3",
        1.679630610428450,
        {3.0: ("diverges", "diverges", 8)},
        source="10*x*exp(-x^2) - 1",
    ),
    _problem(
        "10*x*exp(-x^2) - 1 @ x0=-1",
        0.101025848315685,
        {-1.0: ("diverges", "diverges", 11)},
        source="10*x*exp(-x^2) - 1",
    ),
)
_SINE_DEMO = _problem("sin(x)", 0.0, {1.58079633: ()})


def table1_problems() -> tuple[Problem, ...]:
    return _TABLE1


def table2_problems() -> tuple[Problem, ...]:
    return _TABLE2


def builtin_problems() -> tuple[Problem, ...]:
    """All built-in problems, table order, deterministic."""
    return _TABLE1 + _TABLE2 + (_SINE_DEMO,)


def find_problem(name: str, extra: Iterable[Problem] = ()) -> Problem:
    """The first problem called ``name`` in ``extra``, else the built-in one."""
    for prob in (*extra, *builtin_problems()):
        if prob.name == name:
            return prob
    raise KeyError(f"no problem named {name!r}")


# --- problem files ----------------------------------------------------------

_METHOD_NAMES = {m.value: m for m in Method}


def _fail(index: int, fld: str, message: str):
    raise ProblemFileError(f"entry {index}, field {fld!r}: {message}")


def _require_number(index: int, fld: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(index, fld, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        _fail(index, fld, f"expected a finite number, got {value!r}")
    return number


def _parse_expected_key(index: int, key: str) -> tuple[Method, float]:
    method_name, sep, start_text = key.partition("@")
    if not sep or method_name not in _METHOD_NAMES:
        _fail(index, "expected", f"bad key {key!r}, want 'method@start' with method in {sorted(_METHOD_NAMES)}")
    try:
        start = float(start_text)
    except ValueError:
        _fail(index, "expected", f"bad start in key {key!r}")
    return _METHOD_NAMES[method_name], start


def _parse_expected_value(index: int, key: str, value) -> ExpectedResult:
    try:
        return _cell(value)
    except KeyError:
        _fail(index, "expected", f"bad value {value!r} for {key!r}, want a count or one of {sorted(_CELLS)}")
    except ValueError:
        _fail(index, "expected", f"bad value {value!r} for {key!r}, want a positive integer")


def load_problems(path: str | os.PathLike[str]) -> tuple[Problem, ...]:
    """Load a JSON problem file; errors carry the entry index and field."""
    import json

    try:
        # RFC 8259 JSON is UTF-8, so other bytes fail here as malformed JSON does
        with open(path, encoding="utf-8") as fh:
            data = json.loads(fh.read())
    except ValueError as err:  # a JSONDecodeError or UnicodeDecodeError, or an integer too long to convert
        raise ProblemFileError(f"not valid JSON: {err}") from None
    except RecursionError:
        raise ProblemFileError("not valid JSON: nested too deeply") from None
    if not isinstance(data, list):
        raise ProblemFileError("top level must be a JSON array of problem objects")
    problems = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ProblemFileError(f"entry {i}: expected an object, got {type(entry).__name__}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            _fail(i, "name", "required non-empty string")
        source = entry.get("expr")
        if not isinstance(source, str):
            _fail(i, "expr", "required string")
        try:
            expression = parse(source)
        except ParseError as err:
            _fail(i, "expr", str(err))
        root = entry.get("root")
        if root is not None:
            root = _require_number(i, "root", root)
        raw_starts = entry.get("starts")
        if not isinstance(raw_starts, list) or not raw_starts:
            _fail(i, "starts", "required non-empty array of numbers")
        starts = tuple(_require_number(i, "starts", s) for s in raw_starts)
        for start in starts:
            try:
                eval_dual(expression, start)
            except DomainError as err:
                _fail(i, "starts", f"start {start!r} is out of domain: {err}")
        expected: dict[tuple[Method, float], ExpectedResult] = {}
        raw_expected = entry.get("expected", {})
        if not isinstance(raw_expected, dict):
            _fail(i, "expected", "must be an object keyed 'method@start'")
        for key, value in raw_expected.items():
            method, start = _parse_expected_key(i, key)
            expected[(method, start)] = _parse_expected_value(i, key, value)
        problems.append(Problem(name, source, expression, root, starts, expected))
    return tuple(problems)
