"""Command-line interface: solve one equation, reproduce the benchmark
tables, or dump per-iteration data for plotting.

Exit codes: 0 when the run converged, 2 for any non-convergent outcome, and
1 for usage errors (bad flags, unparseable expressions, unknown problems).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Sequence

# json is imported where it is used, in the JSON writers below and in
# corpus.load_problems: only --format json and --problems need it, and it
# took a fifth of this module's import time
from . import analysis, corpus
from .expressions import Expression, parse
from .solvers import (
    DEFAULT_CONFIG,
    Converged,
    DerivativeStall,
    Diverged,
    DomainFailure,
    IterationRecord,
    Method,
    Oscillating,
    Seed,
    SeedingError,
    SolverConfig,
    Trace,
    solve,
)

TRACE_COLUMNS = IterationRecord._fields + ("abs_error", "ck")
BENCH_COLUMNS = ("problem", "start", "method", "outcome", "iterations", "final_x", "comparison")


class _UsageError(Exception):
    pass


# options whose value may begin with "-", as in "--x0 -1e-05" or "--expr -x+1"
_SIGNED_OPTIONS = frozenset(("--expr", "--problem", "--x0", "--x1", "--tol", "--delta"))


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for
    # non-convergence, so route usage problems to exit 1 instead
    def error(self, message):
        raise _UsageError(message)

    # argparse in later 3.13 releases lists the choices unquoted; keep the 3.10-3.13.0 text
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")

    # main hands the words after a command's name to its parser alone, so this runs once
    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        if args[:1] == ["--"] and len(args) > 1 and self._subparsers:
            # one leading "--" ends the top-level options, so the next word is the
            # command even when it begins with "-", as argparse reads it from 3.13.13
            del args[0]
            try:
                self._check_value(self._subparsers._group_actions[0], args[0])
            except argparse.ArgumentError as err:
                self.error(str(err))
        for i in range(len(args) - 1, -1, -1):
            name, _, value = args[i].partition("=")
            following = args[i + 1] if i + 1 < len(args) else ""
            # "--x0=--" lacks its value as "--x0 --" does; argparse 3.13 would
            # keep the "--" as the value, and earlier versions store []
            valued = value == "--" and [s for s, a in self._option_string_actions.items() if a.nargs is None]
            if valued and _abbreviates(name, valued):
                args[i : i + 1] = [name, "--"]
            # argparse reads a "-1e-05" or "-x+1" after its option as another
            # option, but "--x0=-1e-05" as the value; a "--" word stays an option
            elif following[:1] == "-" and following[:2] != "--" and _abbreviates(args[i], _SIGNED_OPTIONS):
                args[i : i + 2] = [f"{args[i]}={following}"]
        return super().parse_known_args(args, namespace)


def _abbreviates(word: str, options) -> bool:
    """Whether ``word`` is one of ``options`` or a prefix argparse may expand to one."""
    return len(word) > 2 and any(option.startswith(word) for option in options)


def _num(value: float) -> str:
    """Shortest round-trip text; blank for NaN."""
    return "" if value != value else repr(value)


def _json_cell(value):
    """A cell as JSON output writes it: NaN, the blank, as None (null), and an infinite
    number as its CSV text, "inf" or "-inf", since RFC 8259 has no token for it."""
    return None if value != value else repr(value) if value in (math.inf, -math.inf) else value


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise OSError(f"cannot write {out!r}: {err}") from None


def _write_csv(columns: Sequence[str], rows: list[tuple], out: str | None) -> None:
    """A header and one line per row, as ``csv.writer`` writes them with LF line ends.

    NaN marks a blank, an empty cell, and any other number writes as its repr;
    text is quoted, with its quotes doubled, only when it holds a comma, a
    quote, CR or LF (csv quotes CR only from Python 3.13 on).
    """
    lines = [",".join([_csv_text(name) for name in columns])]
    for row in rows:
        lines.append(",".join(["" if v != v else repr(v) if type(v) is not str else _csv_text(v) for v in row]))
    _write("\n".join(lines) + "\n", out)


def _csv_text(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _describe(outcome) -> str:
    if isinstance(outcome, Converged):
        return f"converged to {outcome.root!r} in {outcome.iterations} iterations"
    if isinstance(outcome, Diverged):
        return f"diverged (last x = {outcome.last_x!r})"
    if isinstance(outcome, Oscillating):
        return f"oscillating with period {outcome.period}"
    if isinstance(outcome, DomainFailure):
        return f"domain failure at iteration {outcome.iteration}: {outcome.detail}"
    if isinstance(outcome, DerivativeStall):
        return f"derivative stall at iteration {outcome.iteration}"
    return f"iteration budget exhausted (last x = {outcome.last_x!r})"


def trace_rows(trace: Trace, reference_root: float | None) -> list[tuple]:
    """Per-iteration cells in TRACE_COLUMNS order, a record and its abs_error and ck; NaN marks a blank."""
    abs_errors = ck = (math.nan,) * len(trace.records)
    if reference_root is not None:
        sequence = analysis.error_sequence(trace, reference_root)
        abs_errors = list(map(abs, sequence.errors))
        if len(abs_errors) >= 2:
            # ck is NaN where the validity filter rejected a pair; the last
            # record starts no pair
            ck = analysis.ck_sequence(sequence).ck + (math.nan,)
    return [rec + (e, c) for rec, e, c in zip(trace.records, abs_errors, ck)]


def _comparison(outcome, iterations: int, expected: corpus.ExpectedResult) -> str:
    if outcome.label != expected.label:
        return "mismatch"
    delta = 0 if expected.count is None else iterations - expected.count
    return "match" if delta == 0 else f"count-delta={delta:+d}"


# --- argument plumbing -------------------------------------------------------


def _add_selection_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", help="expression text in the variable x")
    p.add_argument("--problem", help="name of a builtin (or --problems file) problem")
    p.add_argument("--problems", help="JSON problem file adding lookup names for --problem")
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--x1", type=float)
    p.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tol)
    p.add_argument("--max-iter", type=int, dest="max_iter", default=DEFAULT_CONFIG.max_iter)
    p.add_argument("--seed", choices=[s.value for s in Seed], default=DEFAULT_CONFIG.seed.value)
    p.add_argument("--delta", type=float, default=DEFAULT_CONFIG.delta_rel)


def _select(args) -> tuple[Expression, float | None, str]:
    """Resolve --expr/--problem to (expression, reference root, label)."""
    if (args.expr is None) == (args.problem is None):
        raise _UsageError("exactly one of --expr or --problem is required")
    if args.expr is not None:
        return parse(args.expr), None, args.expr
    extra = corpus.load_problems(args.problems) if args.problems else ()
    prob = corpus.find_problem(args.problem, extra)
    return prob.expression, prob.reference_root, prob.name


# --- subcommands --------------------------------------------------------------


def _cmd_solve(args) -> int:
    """``solve``, and ``trace``, which is ``solve --format csv`` plus ``--out``."""
    expression, root, label = _select(args)
    config = SolverConfig(args.tol, args.max_iter, Seed(args.seed), args.delta)
    trace = solve(expression, Method(args.method), args.x0, config, args.x1)
    outcome = trace.outcome
    if args.format == "json":
        import json

        payload = {
            "problem": label,
            "method": trace.method.value,
            "outcome": outcome.label,
            "root": _json_cell(outcome.root) if isinstance(outcome, Converged) else None,
            "iterations": trace.iterations,
            "final_x": _json_cell(trace.records[-1].x),
        }
        if args.verbose:
            payload["records"] = [dict(zip(TRACE_COLUMNS, map(_json_cell, row))) for row in trace_rows(trace, root)]
        print(json.dumps(payload, allow_nan=False))
    elif args.format == "csv":
        _write_csv(TRACE_COLUMNS, trace_rows(trace, root), args.out)
        print(_describe(outcome), file=sys.stderr)
    else:
        print(f"problem:    {label}")
        print(f"method:     {trace.method.value}")
        print(f"outcome:    {outcome.label}")
        if isinstance(outcome, Converged):
            print(f"root:       {_num(outcome.root)}")
        print(f"iterations: {trace.iterations}")
        print(f"final x:    {_num(trace.records[-1].x)}")
        if args.verbose:
            print()
            print("    k  x                        y                        dy                       r")
            for rec in trace.records:
                cells = [_num(v).ljust(24) for v in (rec.x, rec.y, rec.dy)]
                print(f"  {rec.k:>3d}  " + "".join(cells) + _num(rec.r_weight))
    return 0 if isinstance(outcome, Converged) else 2


def bench_rows(tables: Sequence[int]) -> list[tuple]:
    """One BENCH_COLUMNS row per (problem, start, method), in table order; NaN marks a blank."""
    rows = []
    for table in tables:
        problems = corpus.table1_problems() if table == 1 else corpus.table2_problems()
        for prob in problems:
            for start in prob.starts:
                for method in corpus.TABLE_METHODS:
                    trace = solve(prob.expression, method, start)
                    outcome, iterations, final_x = trace.outcome, trace.iterations, trace.records[-1].x
                    comparison = _comparison(outcome, iterations, prob.expected[(method, start)])
                    rows.append((prob.name, start, method.value, outcome.label, iterations, final_x, comparison))
    return rows


def _cmd_bench(args) -> int:
    tables = {"1": (1,), "2": (2,), "all": (1, 2)}[args.table]
    rows = bench_rows(tables)
    if args.format == "json":
        import json

        cells = [dict(zip(BENCH_COLUMNS, map(_json_cell, row))) for row in rows]
        _write(json.dumps(cells, indent=2, allow_nan=False) + "\n", args.out)
    else:
        _write_csv(BENCH_COLUMNS, rows, args.out)
    return 0


@functools.cache
def _make_parser() -> tuple[_ArgumentParser, dict[str, _ArgumentParser]]:
    """The top-level parser and each command's parser by name, built once and reused."""
    parser = _ArgumentParser(prog="twopoint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a single equation")
    _add_selection_args(p_solve)
    p_solve.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_solve.add_argument("--verbose", action="store_true")
    p_solve.set_defaults(func=_cmd_solve, out=None)

    p_bench = sub.add_parser("bench", help="run the builtin benchmark tables")
    p_bench.add_argument("--table", choices=["1", "2", "all"], default="all")
    p_bench.add_argument("--out")
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")
    p_bench.set_defaults(func=_cmd_bench)

    p_trace = sub.add_parser("trace", help="emit per-iteration CSV for one run")
    _add_selection_args(p_trace)
    p_trace.add_argument("--out")
    p_trace.set_defaults(func=_cmd_solve, format="csv", verbose=False)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser, commands = _make_parser()
        words = list(sys.argv[1:] if argv is None else argv)
        # the words after a command's name go to its parser alone; the top-level
        # parser answers -h, --help and a missing or unknown command
        command = commands.get(words[0]) if words else None
        args = command.parse_args(words[1:]) if command else parser.parse_args(words)
        code = args.func(args)
        # output still in the buffer meets a closed stdout here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone, so there is no one to tell; devnull takes
        # what is left in the buffer, which keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SeedingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # evaluation recurses once per tree level that reads x and gives out
        # about a thousand levels deep; parsing has no depth limit
        print("error: expression nested too deeply", file=sys.stderr)
        return 1
    except (_UsageError, KeyError, ValueError, OSError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
