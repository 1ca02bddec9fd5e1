"""Command-line interface: solve one equation, reproduce the benchmark
tables, or dump per-iteration data for plotting.

Exit codes: 0 when the run converged, 2 for any non-convergent outcome, and
1 for usage errors (bad flags, unparseable expressions, unknown problems).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Sequence

from . import analysis, corpus
from .expressions import Expression, parse
from .solvers import (
    Converged,
    DerivativeStall,
    Diverged,
    DomainFailure,
    GuardedNewton,
    Method,
    Oscillating,
    Perturb,
    SeedingError,
    SolverConfig,
    Trace,
    solve,
)

TRACE_COLUMNS = ("k", "x", "y", "dy", "r_weight", "abs_error", "ck")
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

    def parse_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        # argparse takes a "-1e-05" or "-x+1" that follows its option for
        # another option; attached as "--x0=-1e-05" it is read as the value.
        # A "--"-prefixed word still counts as the next option.
        for i in range(len(args) - 2, -1, -1):
            if args[i] in _SIGNED_OPTIONS and args[i + 1][:1] == "-" and args[i + 1][:2] != "--":
                args[i : i + 2] = [f"{args[i]}={args[i + 1]}"]
        parsed = super().parse_args(args, namespace)
        # argparse takes the "--" of "--flag=--" for the end-of-options
        # marker and stores []; no option here takes a list
        for dest, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        return parsed


def _num(value: float) -> str:
    """Shortest round-trip text; blank for NaN."""
    if math.isnan(value):
        return ""
    return repr(value)


def _json_row(row: dict) -> dict:
    """The row with each NaN float replaced by None, which JSON writes as null."""
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}


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


def _write_csv(columns: Sequence[str], rows: list[dict], out: str | None) -> None:
    """A header and one line per row; floats as _num text, other cells as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_num(row[col]) if isinstance(row[col], float) else row[col] for col in columns])
    _write(buf.getvalue(), out)


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


def trace_rows(trace: Trace, reference_root: float | None) -> list[dict]:
    """Per-iteration cells in TRACE_COLUMNS order; NaN marks a blank."""
    abs_errors = ck = (math.nan,) * len(trace.records)
    if reference_root is not None:
        sequence = analysis.error_sequence(trace, reference_root)
        abs_errors = [abs(e) for e in sequence.errors]
        if len(abs_errors) >= 2:
            # ck is NaN where the validity filter rejected a pair; the last
            # record starts no pair
            ck = analysis.ck_sequence(sequence).ck + (math.nan,)
    return [
        {
            "k": rec.k,
            "x": rec.x,
            "y": rec.y,
            "dy": rec.dy,
            "r_weight": rec.r_weight,
            "abs_error": abs_error,
            "ck": c,
        }
        for rec, abs_error, c in zip(trace.records, abs_errors, ck)
    ]


def _comparison(outcome, iterations: int, expected: corpus.ExpectedResult | None) -> str:
    if expected is None:
        return ""
    if expected.kind == "iterations":
        if isinstance(outcome, Converged):
            delta = iterations - expected.count
            return "match" if delta == 0 else f"count-delta={delta:+d}"
        return "mismatch"
    matched = {
        "oscillates": Oscillating,
        "diverges": Diverged,
        "fails": DomainFailure,
    }[expected.kind]
    return "match" if isinstance(outcome, matched) else "mismatch"


# --- argument plumbing -------------------------------------------------------


def _add_selection_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", help="expression text in the variable x")
    p.add_argument("--problem", help="name of a builtin (or --problems file) problem")
    p.add_argument("--problems", help="JSON problem file adding lookup names for --problem")
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--x1", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--seed", choices=["perturb", "guarded-newton"], default="perturb")
    p.add_argument("--delta", type=float)


def _build_config(args) -> SolverConfig:
    kwargs = {}
    if args.tol is not None:
        kwargs["tol"] = args.tol
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    if args.seed == "guarded-newton":
        kwargs["seed_strategy"] = GuardedNewton()
    elif args.delta is not None:
        kwargs["seed_strategy"] = Perturb(args.delta)
    return SolverConfig(**kwargs)


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
    config = _build_config(args)
    if args.x1 is not None and args.x1 == args.x0:
        raise _UsageError("--x1 must differ from --x0")
    trace = solve(expression, Method(args.method), args.x0, config, args.x1)
    outcome = trace.outcome
    if args.format == "json":
        payload = {
            "problem": label,
            "method": trace.method.value,
            "outcome": outcome.label,
            "root": outcome.root if isinstance(outcome, Converged) else None,
            "iterations": trace.iterations,
            "final_x": trace.records[-1].x,
        }
        if args.verbose:
            payload["records"] = [_json_row(row) for row in trace_rows(trace, root)]
        print(json.dumps(_json_row(payload)))
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


_BENCH_METHODS = (Method.SECANT, Method.NEWTON, Method.TWO_POINT)


def bench_rows(tables: Sequence[int]) -> list[dict]:
    """One row per (problem, start, method), in deterministic table order."""
    config = SolverConfig()
    rows = []
    for table in tables:
        problems = corpus.table1_problems() if table == 1 else corpus.table2_problems()
        for prob in problems:
            for start in prob.starts:
                for method in _BENCH_METHODS:
                    trace = solve(prob.expression, method, start, config)
                    expected = prob.expected.get((method, start))
                    rows.append(
                        {
                            "problem": prob.name,
                            "start": start,
                            "method": method.value,
                            "outcome": trace.outcome.label,
                            "iterations": trace.iterations,
                            "final_x": trace.records[-1].x,
                            "comparison": _comparison(trace.outcome, trace.iterations, expected),
                        }
                    )
    return rows


def _cmd_bench(args) -> int:
    tables = {"1": (1,), "2": (2,), "all": (1, 2)}[args.table]
    rows = bench_rows(tables)
    if args.format == "json":
        _write(json.dumps([_json_row(row) for row in rows], indent=2) + "\n", args.out)
    else:
        _write_csv(BENCH_COLUMNS, rows, args.out)
    return 0


@functools.cache
def _make_parser() -> _ArgumentParser:
    """The argument parser, built on first use and reused for every call."""
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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        return args.func(args)
    except SeedingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # evaluation recurses once per tree level and gives out on a tree
        # about a thousand levels deep; parsing has no depth limit
        print("error: expression nested too deeply", file=sys.stderr)
        return 1
    except (_UsageError, KeyError, ValueError, OSError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
