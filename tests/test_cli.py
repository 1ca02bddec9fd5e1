import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint import corpus
from twopoint.cli import _TRACE_COLUMNS, _ArgumentParser, _write_csv, main, trace_rows
from twopoint.solvers import solve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_converged_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "solve", "--expr", "atan(x)", "--method", "twopoint", "--x0", "3")
    assert code == 0
    assert "converged" in out
    assert "root:" in out


def test_solve_divergence_exit_two(capsys):
    code, out, _ = run_cli(capsys, "solve", "--expr", "atan(x)", "--method", "newton", "--x0", "3")
    assert code == 2
    assert "diverged" in out


def test_solve_parse_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "solve", "--expr", "x^(", "--method", "newton", "--x0", "3")
    assert code == 1
    assert "error" in err


def test_unknown_problem_exit_one(capsys):
    code, _, err = run_cli(capsys, "solve", "--problem", "nope", "--method", "newton", "--x0", "3")
    assert code == 1
    assert "nope" in err


def test_unknown_flag_exit_one(capsys):
    code, _, err = run_cli(capsys, "solve", "--wat", "1", "--method", "newton", "--x0", "3")
    assert code == 1


def test_expr_and_problem_conflict(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "x", "--problem", "atan(x)", "--method", "newton", "--x0", "3"
    )
    assert code == 1
    assert "exactly one" in err


def test_solve_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--problem", "x - 3 * ln(x)", "--method", "twopoint", "--x0", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "converged"
    assert abs(payload["root"] - 1.857183860207840) <= 1e-9
    assert "records" not in payload


def test_solve_json_verbose_records(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--problem", "x - 3 * ln(x)", "--method", "twopoint", "--x0", "2",
        "--format", "json", "--verbose",
    )
    payload = json.loads(out)
    assert payload["records"][0]["k"] == 0
    assert payload["records"][0]["x"] == 2.0


def _strict_json(text: str):
    """``text`` read as RFC 8259 JSON, which has no Infinity, -Infinity or NaN token."""

    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_json_writes_an_infinite_weight_as_its_csv_text(capsys):
    # f' = 0 at x1 gives r = -inf, the paper's zero-derivative case
    code, out, _ = run_cli(
        capsys,
        "solve", "--expr", "x^2 + 1", "--method", "twopoint", "--x0", "1", "--x1", "0",
        "--max-iter", "3", "--format", "json", "--verbose",
    )
    assert code == 2
    assert '{"k": 1, "x": 0.0, "y": 1.0, "dy": 0.0, "r_weight": "-inf", "abs_error": null, "ck": null}' in out
    assert _strict_json(out)["records"][1]["r_weight"] == "-inf"


def test_json_writes_an_overflowed_final_x_as_its_csv_text(capsys):
    # the Newton step from 0 is 1 / 1e-310, which overflows to inf
    code, out, _ = run_cli(
        capsys, "solve", "--expr", "1e-310*x - 1", "--method", "newton", "--x0", "0", "--format", "json"
    )
    assert code == 2
    assert out == (
        '{"problem": "1e-310*x - 1", "method": "newton", "outcome": "diverged", "root": null, '
        '"iterations": 1, "final_x": "inf"}\n'
    )
    assert _strict_json(out)["final_x"] == "inf"


def test_trace_csv_header_and_offshoot(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--problem", "sin(x)", "--method", "newton", "--x0", "1.58079633", "--tol", "1e-12"
    )
    lines = out.splitlines()
    assert lines[0] == "k,x,y,dy,r_weight,abs_error,ck"
    final_x = float(lines[-1].split(",")[1])
    assert abs(final_x - 100.531) <= 1e-3
    assert code == 0


def test_trace_newton_cube_root_doubles(capsys):
    code, out, _ = run_cli(capsys, "trace", "--problem", "cbrt(x)", "--method", "newton", "--x0", "1")
    assert code == 2
    rows = list(csv.reader(io.StringIO(out)))
    xs = [float(row[1]) for row in rows[1:5]]
    assert xs == pytest.approx([1.0, -2.0, 4.0, -8.0], rel=1e-12)


def test_trace_converged_run_satisfies_stopping_rule(capsys):
    code, out, _ = run_cli(capsys, "trace", "--problem", "x - 3 * ln(x)", "--method", "twopoint", "--x0", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(("k", "x", "y", "dy", "r_weight", "abs_error", "ck"))
    x_last, y_last = float(rows[-1][1]), float(rows[-1][2])
    x_prev = float(rows[-2][1])
    assert abs(x_last - x_prev) + abs(y_last) < 1e-15


def test_trace_blank_cells_for_expr_runs(capsys):
    code, out, _ = run_cli(capsys, "trace", "--expr", "x^2 - 2", "--method", "newton", "--x0", "3")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[5] == "" and row[6] == "" for row in rows[1:])  # no reference root
    assert all(row[4] == "" for row in rows[1:])  # newton has no r values


def test_trace_row_is_its_record_plus_two_cells():
    # NaN, not None, marks a blank, and the record's cells pass through bit for bit
    for prob in corpus.builtin_problems():
        for start in prob.starts:
            for method in corpus.TABLE_METHODS:
                trace = solve(prob.expression, method, start)
                for root in (prob.reference_root, None):
                    rows = trace_rows(trace, root)
                    assert len(rows) == len(trace.records)
                    for row, rec in zip(rows, trace.records):
                        assert len(row) == len(_TRACE_COLUMNS) and None not in row
                        assert type(row[0]) is int and row[0] == rec.k
                        assert list(map(float.hex, row[1:5])) == list(map(float.hex, rec[1:]))
                        if root is None:
                            assert math.isnan(row[5]) and math.isnan(row[6])


def test_trace_out_file(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "trace", "--problem", "atan(x)", "--method", "twopoint", "--x0", "3", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("k,x,y,dy,r_weight,abs_error,ck")


def test_bench_table2_labels(capsys):
    code, out, _ = run_cli(capsys, "bench", "--table", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert header == ["problem", "start", "method", "outcome", "iterations", "final_x", "comparison"]
    by_key = {(r[0], float(r[1]), r[2]): r for r in rows[1:]}
    assert by_key[("cbrt(x)", 1.0, "newton")][3] == "diverged"
    assert by_key[("cbrt(x)", 1.0, "newton")][6] == "match"
    assert by_key[("log10(x)", 3.0, "newton")][3] == "domain-failure"
    assert by_key[("atan(x)", -3.0, "secant")][6] == "match"
    two = by_key[("cbrt(x)", 1.0, "twopoint")]
    assert two[3] == "converged"
    assert two[6].startswith(("match", "count-delta"))


def test_bench_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "bench", "--table", "all")
    code2, out2, _ = run_cli(capsys, "bench", "--table", "all")
    assert code1 == code2 == 0
    assert out1 == out2


def test_bench_table1_two_point_needs_fewest_iterations(capsys):
    code, out, _ = run_cli(capsys, "bench", "--table", "1")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    runs: dict[tuple[str, float], dict[str, int]] = {}
    for row in rows:
        assert row[3] == "converged", row
        runs.setdefault((row[0], float(row[1])), {})[row[2]] = int(row[4])
    for counts in runs.values():
        assert counts["twopoint"] <= counts["newton"]


def test_bench_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "bench", "--table", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(set(row) == {"problem", "start", "method", "outcome", "iterations", "final_x", "comparison"} for row in payload)


def test_bench_out_file(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, out, _ = run_cli(capsys, "bench", "--table", "1", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("problem,start,method")


def test_bench_unwritable_out_is_io_error(capsys):
    code, _, err = run_cli(capsys, "bench", "--table", "1", "--out", "/nonexistent-dir/x.csv")
    assert code == 1
    assert "cannot write" in err


def test_trace_unwritable_out_is_io_error(capsys):
    code, out, err = run_cli(
        capsys, "trace", "--expr", "x^2 - 2", "--method", "newton", "--x0", "3", "--out", "/nonexistent-dir/x.csv"
    )
    assert code == 1
    assert err.startswith("error: cannot write '/nonexistent-dir/x.csv': ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("flag", ["--x0", "--method", "--expr", "--format"])
def test_double_dash_option_value_is_a_usage_error(capsys, flag):
    argv = {"--x0": "3", "--method": "newton", "--expr": "x^2 - 2", "--format": "json"}
    argv[flag] = "--"
    code, out, err = run_cli(capsys, "solve", *(f"{k}={v}" for k, v in argv.items()))
    assert code == 1
    assert err == f"error: argument {flag}: expected one argument\n"
    assert out == ""


@pytest.mark.parametrize(
    "flag,value,rest",
    [
        ("--x0", "-1e-05", ("--expr", "x^2-1e-10", "--method", "secant")),
        ("--x0", "-inf", ("--expr", "x^2-1", "--method", "newton")),
        ("--x1", "-1e-05", ("--expr", "x^2-1e-10", "--method", "secant", "--x0", "1e-05")),
        ("--tol", "-1e-3", ("--expr", "x^2-1", "--method", "newton", "--x0", "2")),
        ("--delta", "-1e-3", ("--expr", "x^2-1", "--method", "twopoint", "--x0", "2")),
        ("--expr", "-x+1", ("--method", "newton", "--x0", "2")),
        ("--problem", "-x^4 + 3*x^2 + 2", ("--method", "twopoint", "--x0", "1")),
    ],
)
def test_option_value_beginning_with_minus_reads_as_with_equals(capsys, flag, value, rest):
    separate = run_cli(capsys, "solve", *rest, flag, value)
    attached = run_cli(capsys, "solve", *rest, f"{flag}={value}")
    assert separate == attached
    assert "expected one argument" not in separate[2]


def test_option_followed_by_an_option_still_lacks_its_value(capsys):
    code, out, err = run_cli(capsys, "solve", "--expr", "x^2-1", "--x0", "--method", "newton")
    assert code == 1
    assert err == "error: argument --x0: expected one argument\n"
    assert out == ""


@pytest.mark.parametrize(
    "flag,value,rest",
    [
        ("--ex", "-x+1", ("--method", "newton", "--x0", "2")),
        ("--del", "-1e-3", ("--expr", "x^2-1", "--method", "twopoint", "--x0", "2")),
        ("--x", "-1e-05", ("--expr", "x^2-1e-10", "--method", "secant")),
    ],
)
def test_abbreviated_option_value_beginning_with_minus_reads_as_with_equals(capsys, flag, value, rest):
    separate = run_cli(capsys, "solve", *rest, flag, value)
    attached = run_cli(capsys, "solve", *rest, f"{flag}={value}")
    assert separate == attached
    assert "expected one argument" not in separate[2]


@pytest.mark.parametrize(
    "word,message",
    [
        ("--ex=--", "argument --expr: expected one argument"),
        ("--wat=--", "unrecognized arguments: --wat=--"),
    ],
)
def test_double_dash_value_of_abbreviated_or_unknown_option(capsys, word, message):
    code, out, err = run_cli(capsys, "solve", word, "--method", "newton", "--x0", "3", "--expr", "x^2 - 2")
    assert code == 1
    assert err == f"error: {message}\n"
    assert out == ""


def test_problems_file_entry_shadows_builtin(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([{"name": "atan(x)", "expr": "atan(x) - 1", "starts": [1.0]}]))
    code, out, _ = run_cli(
        capsys,
        "solve", "--problems", str(path), "--problem", "atan(x)", "--method", "newton", "--x0", "1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["root"] == pytest.approx(1.5574077246549023)


def test_solve_csv_format_streams_trace(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--problem", "atan(x)", "--method", "twopoint", "--x0", "3", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("k,x,y,dy,r_weight,abs_error,ck")
    assert "converged" in err


def test_solve_with_problems_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([{"name": "shifted", "expr": "x^2 - 9", "root": 3.0, "starts": [5.0]}]))
    code, out, _ = run_cli(
        capsys,
        "solve", "--problems", str(path), "--problem", "shifted", "--method", "newton", "--x0", "5",
    )
    assert code == 0
    assert "converged" in out


def test_missing_problems_file(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--problems", "/no/such/file.json", "--problem", "t", "--method", "newton", "--x0", "1"
    )
    assert code == 1


def test_guarded_newton_seed_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--problem", "10*x*exp(-x^2) - 1 @ x0=-1", "--method", "twopoint", "--x0", "-1",
        "--seed", "guarded-newton", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["root"] - 0.101025848315685) <= 1e-9


def test_delta_flag_controls_perturbation(capsys):
    # one test over both seeds keeps its id; f'(0) = 0 makes the guarded
    # seed fall back to perturbing x0
    for args, x1 in [
        (("--expr", "x^2 - 2", "--x0", "3"), 3.0 + 0.5 * 3.0),
        (("--expr", "x^2-1", "--x0", "0", "--seed", "guarded-newton"), 0.5),
    ]:
        code, out, _ = run_cli(
            capsys, "solve", *args, "--method", "secant", "--delta", "0.5", "--format", "json", "--verbose"
        )
        payload = json.loads(out)
        assert payload["records"][1]["x"] == x1, args


# the default seed keeps the bare ids
@pytest.mark.parametrize(
    "seed, delta",
    [((), "0"), ((), "nan"), (("--seed", "guarded-newton"), "0"), (("--seed", "guarded-newton"), "nan")],
    ids=["0", "nan", "guarded-newton-0", "guarded-newton-nan"],
)
def test_zero_or_nan_delta_is_a_usage_error(capsys, seed, delta):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "x^2 - 2", "--method", "secant", "--x0", "1", *seed, "--delta", delta
    )
    assert code == 1
    assert err == "error: delta must be finite and nonzero\n"
    assert out == ""


def test_delta_too_small_to_move_x0_is_a_seeding_error(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "x^2 - 2", "--method", "secant", "--x0", "1", "--delta", "1e-20"
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "x0=1.0" in err
    assert out == ""


def test_delta_that_overflows_the_seed_is_a_seeding_error(capsys):
    # x0 + 1e308 * 10 is inf, which the seed rule rejects as out of domain
    code, out, err = run_cli(capsys, "solve", "--expr", "x", "--method", "secant", "--x0", "10", "--delta", "1e308")
    assert (code, out, err) == (2, "", "error: no in-domain second point near x0=10.0\n")


def test_explicit_x1_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--expr", "x^2 - 2", "--method", "twopoint", "--x0", "2", "--x1", "1.5",
        "--format", "json", "--verbose",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][1]["x"] == 1.5


def test_equal_x1_rejected(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "x^2 - 2", "--method", "secant", "--x0", "2", "--x1", "2"
    )
    assert code == 1
    assert "differ" in err


@pytest.mark.parametrize(
    "method, expr, x0",
    [
        ("newton", "x^2 - 2", "1"),  # Newton ignores x1
        ("secant", "x^2-4", "2"),  # a root x0 converges before x1 is looked at
    ],
)
def test_equal_x1_accepted_where_solve_accepts_it(capsys, method, expr, x0):
    code, out, err = run_cli(capsys, "solve", "--expr", expr, "--method", method, "--x0", x0, "--x1", x0)
    assert code == 0
    assert "converged" in out
    assert err == ""


def test_invalid_tol_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "x", "--method", "newton", "--x0", "1", "--tol", "0"
    )
    assert code == 1
    assert "tol" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twopoint", "solve", "--expr", "x^2 - 2", "--method", "newton", "--x0", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "converged" in proc.stdout


# recorded with COLUMNS=80 when the top-level parser read every command line;
# the same on Python 3.10-3.13
_HELP = {
    "twopoint": """\
usage: twopoint [-h] {solve,bench,trace} ...

Command-line interface: solve one equation, reproduce the benchmark tables, or
dump per-iteration data for plotting. Exit codes: 0 when the run converged, 2
for any non-convergent outcome, and 1 for usage errors (bad flags, unparseable
expressions, unknown problems).

positional arguments:
  {solve,bench,trace}
    solve              solve a single equation
    bench              run the builtin benchmark tables
    trace              emit per-iteration CSV for one run

options:
  -h, --help           show this help message and exit
""",
    "trace": """\
usage: twopoint trace [-h] [--expr EXPR] [--problem PROBLEM]
                      [--problems PROBLEMS] --method {newton,secant,twopoint}
                      --x0 X0 [--x1 X1] [--tol TOL] [--max-iter MAX_ITER]
                      [--seed {perturb,guarded-newton}] [--delta DELTA]
                      [--out OUT]

options:
  -h, --help            show this help message and exit
  --expr EXPR           expression text in the variable x
  --problem PROBLEM     name of a builtin (or --problems file) problem
  --problems PROBLEMS   JSON problem file adding lookup names for --problem
  --method {newton,secant,twopoint}
  --x0 X0
  --x1 X1
  --tol TOL
  --max-iter MAX_ITER
  --seed {perturb,guarded-newton}
  --delta DELTA
  --out OUT
""",
    "solve": """\
usage: twopoint solve [-h] [--expr EXPR] [--problem PROBLEM]
                      [--problems PROBLEMS] --method {newton,secant,twopoint}
                      --x0 X0 [--x1 X1] [--tol TOL] [--max-iter MAX_ITER]
                      [--seed {perturb,guarded-newton}] [--delta DELTA]
                      [--format {table,json,csv}] [--verbose]

options:
  -h, --help            show this help message and exit
  --expr EXPR           expression text in the variable x
  --problem PROBLEM     name of a builtin (or --problems file) problem
  --problems PROBLEMS   JSON problem file adding lookup names for --problem
  --method {newton,secant,twopoint}
  --x0 X0
  --x1 X1
  --tol TOL
  --max-iter MAX_ITER
  --seed {perturb,guarded-newton}
  --delta DELTA
  --format {table,json,csv}
  --verbose
""",
    "bench": """\
usage: twopoint bench [-h] [--table {1,2,all}] [--out OUT]
                      [--format {csv,json}]

options:
  -h, --help           show this help message and exit
  --table {1,2,all}
  --out OUT
  --format {csv,json}
""",
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("name", list(_HELP))
def test_help_text(monkeypatch, capsys, name, flag):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit:
        main([flag] if name == "twopoint" else [name, flag])
    assert exit.value.code == 0
    assert capsys.readouterr() == (_HELP[name], "")


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "the following arguments are required: command"),
        (("-x",), "the following arguments are required: command"),
        (("tra", "--x0", "1"), "argument command: invalid choice: 'tra' (choose from 'solve', 'bench', 'trace')"),
        (("Trace",), "argument command: invalid choice: 'Trace' (choose from 'solve', 'bench', 'trace')"),
        (("bench", "trace"), "unrecognized arguments: trace"),
    ],
)
def test_missing_or_unknown_command(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


# one leading "--" ends the top-level options, so the next word is the command
# even when it begins with "-", as argparse reads it from Python 3.13.13
@pytest.mark.parametrize(
    "argv", [("bench", "--table", "1"), ("solve", "--expr", "x-1", "--method", "newton", "--x0", "3")]
)
def test_double_dash_before_a_command_runs_it(capsys, argv):
    want = run_cli(capsys, *argv)
    assert want[0] == 0
    assert run_cli(capsys, "--", *argv) == want


@pytest.mark.parametrize("word", ["-h", "nope"])
def test_double_dash_before_an_unknown_command_names_it(capsys, word):
    message = f"argument command: invalid choice: {word!r} (choose from 'solve', 'bench', 'trace')"
    assert run_cli(capsys, "--", word) == (1, "", f"error: {message}\n")


# the text argparse wrote on Python 3.10 to 3.13.0; later 3.13 releases
# drop the quotes around the choices, which the CLI puts back
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("solve", "--expr", "x", "--method", "foo", "--x0", "1"),
            "argument --method: invalid choice: 'foo' (choose from 'newton', 'secant', 'twopoint')",
        ),
        (
            ("solve", "--expr", "x", "--method", "newton", "--x0", "1", "--seed", "bar"),
            "argument --seed: invalid choice: 'bar' (choose from 'perturb', 'guarded-newton')",
        ),
        (("bench", "--table", "3"), "argument --table: invalid choice: '3' (choose from '1', '2', 'all')"),
    ],
)
def test_invalid_choice_message(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_command_line_is_parsed_once(monkeypatch, capsys):
    parsed = []
    parse_known_args = _ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(_ArgumentParser, "parse_known_args", counted)
    code, out, _ = run_cli(capsys, "trace", "--expr", "x^2 - 2", "--method", "twopoint", "--x0", "-2")
    assert code == 0
    assert out.startswith("k,x,")
    assert parsed == ["twopoint trace"]


def test_deeply_nested_expression_is_a_usage_error(tmp_path, capsys):
    deep = "sin(" * 3000 + "x" + ")" * 3000
    path = tmp_path / "deep.json"
    path.write_text(json.dumps([{"name": "deep", "expr": deep, "starts": [2.0]}]))
    for selection in (["--expr", deep], ["--problems", str(path), "--problem", "deep"]):
        code, out, err = run_cli(capsys, "solve", *selection, "--method", "newton", "--x0", "2")
        assert code == 1
        assert err == "error: expression nested too deeply\n"  # one line, no traceback
        assert out == ""


# a start of 5001 digits, more than json converts to an int
LONG_INT_FILE = '[{"name": "t", "expr": "x", "starts": [1' + "0" * 5000 + "]}]"


def _json_error(text: str) -> str:
    """The loader's message for ``text``, which json cannot read; its wording
    differs between Python versions."""
    try:
        json.loads(text)
    except ValueError as err:
        return f"not valid JSON: {err}"
    raise AssertionError("the text is valid JSON")


@pytest.mark.parametrize(
    "data,message",
    [
        ("[" * 100_000, "not valid JSON: nested too deeply"),
        (LONG_INT_FILE, _json_error(LONG_INT_FILE)),
        (
            json.dumps([{"name": "t", "expr": "x^2-4", "starts": [10**400]}]),
            f"entry 0, field 'starts': expected a finite number, got {10**400}",
        ),
        (
            json.dumps([{"name": "t", "expr": "x^2-4", "root": 10**400, "starts": [3]}]),
            f"entry 0, field 'root': expected a finite number, got {10**400}",
        ),
    ],
    ids=["100000-nested-arrays", "5001-digit-start", "start-too-large-for-a-float", "root-too-large-for-a-float"],
)
def test_bad_problem_file_is_one_error_line(tmp_path, capsys, data, message):
    path = tmp_path / "p.json"
    path.write_text(data)
    code, out, err = run_cli(capsys, "solve", "--problems", str(path), "--problem", "t", "--method", "newton", "--x0", "3")
    assert (code, out, err) == (1, "", f"error: {message}\n")  # no traceback


@pytest.mark.parametrize(
    "text",
    [" + ".join(["1"] * 1499 + ["x"]), "sin(" * 3000 + "2" + ")" * 3000 + " - x"],
    ids=["1500-term-sum-of-constants", "3000-sin-around-a-constant"],
)
def test_depth_without_x_is_folded_and_solves(text, capsys):
    code, out, err = run_cli(capsys, "solve", "--expr", text, "--method", "newton", "--x0", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["outcome"] == "converged"


def test_depth_that_depends_on_x_is_a_usage_error(capsys):
    text = " + ".join(["x"] + ["1"] * 1499)
    code, out, err = run_cli(capsys, "solve", "--expr", text, "--method", "newton", "--x0", "2")
    assert (code, out, err) == (1, "", "error: expression nested too deeply\n")


def test_nested_parentheses_solve_like_the_bare_expression(capsys):
    runs = []
    for text in ("(" * 500 + "x - 1" + ")" * 500, "x - 1"):
        code, out, _ = run_cli(capsys, "solve", "--expr", text, "--method", "newton", "--x0", "2", "--format", "json")
        assert code == 0
        runs.append({k: v for k, v in json.loads(out).items() if k in ("outcome", "root", "iterations")})
    assert runs[0] == runs[1]


def test_bench_csv_matches_golden_bytes(capsys):
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / "bench.csv"
    code, out, _ = run_cli(capsys, "bench", "--format", "csv")
    assert code == 0
    assert out.encode("utf-8") == golden.read_bytes()


def test_non_ascii_letter_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--expr", "x+\u00e9", "--method", "newton", "--x0", "1")
    assert code == 1
    assert err == "error: unexpected character '\u00e9' at position 2\n"
    assert out == ""


def test_underflowing_quotient_rule_does_not_crash():
    # the quotient rule's rv*rv underflows to 0 at x0; the derivative is -inf
    proc = subprocess.run(
        [sys.executable, "-m", "twopoint", "solve", "--expr", "1/x - 2", "--method", "newton", "--x0", "1e-170"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--problem", "cbrt(x)", "--method", "twopoint", "--x0", "1"),
        ("solve", "--expr", "x^2 - 2", "--method", "newton", "--x0", "1", "--format", "json"),
    ],
    ids=["trace", "solve-json"],
)
def test_closed_stdout_exits_quietly(argv):
    # a large output meets the closed pipe while it is written, a small one
    # only when the buffer is flushed; stdout must be buffered for the latter
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twopoint", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def _written_csv(columns, rows):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_csv(columns, rows, None)
    return buf.getvalue()


# CR is left out: csv quotes it from Python 3.13 on, and _write_csv on every
# version (test_csv_text_with_cr_is_quoted)
_CSV_TEXT = st.text(alphabet=',"\n ab\u00e9', max_size=6)
_CSV_CELL = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, math.inf, -math.inf]),
    _CSV_TEXT,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    columns=st.lists(_CSV_TEXT, min_size=2, max_size=8),
    rows=st.lists(st.lists(_CSV_CELL, min_size=2, max_size=8).map(tuple), max_size=6),
)
def test_write_csv_matches_csv_writer(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    # NaN marks a blank, which csv.writer writes for ""
    writer.writerows([["" if v != v else v for v in row] for row in rows])
    assert _written_csv(columns, rows) == buf.getvalue()


def test_csv_text_with_cr_is_quoted():
    assert _written_csv(("a", "b"), [("x\ry", 1), ('"', math.nan)]) == 'a,b\n"x\ry",1\n"""",\n'
