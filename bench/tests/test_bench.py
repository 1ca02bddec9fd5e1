"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import oracle, run, tracing, workloads
from twopoint import cli, corpus, expressions, solvers
from twopoint.expressions import DomainError, eval_dual, parse

ROOT = Path(__file__).resolve().parents[2]


def test_generators_are_deterministic_per_seed():
    first = [(p.text, p.x0) for p in workloads.bigexpr_inputs(5, 100)]
    assert first == [(p.text, p.x0) for p in workloads.bigexpr_inputs(5, 100)]
    assert first != [(p.text, p.x0) for p in workloads.bigexpr_inputs(6, 100)]
    assert first[:40] == [(p.text, p.x0) for p in workloads.bigexpr_inputs(5, 40)]


def test_generated_expressions_use_the_whole_grammar():
    inputs = workloads.bigexpr_inputs(1, 1000)
    seen = set()
    for p in inputs:
        seen.update(arg if kind in ("fn", "bin") else kind for kind, arg in p.rpn if kind != "num")
        seen.update(m.group(2) for m in oracle._TOKEN.finditer(p.text) if m.group(2) in ("pi", "e"))
    assert seen == set(expressions.FUNCTIONS) | set("+-*/^") | {"neg", "x", "pi", "e"}
    sizes = [p.nodes for p in inputs]
    assert min(sizes) < 30 and max(sizes) > 200


def _corpus_sources():
    return sorted({p.source for p in corpus.builtin_problems()})


@pytest.mark.parametrize("source", _corpus_sources())
def test_oracle_agrees_with_eval_dual_on_corpus(source):
    rpn = oracle.compile_rpn(source)
    assert len(rpn) == tracing.node_count(parse(source).root)
    for x in (-3.0, -1.7, -0.65, -0.1, 0.0, 0.3, 1.0, 1.5, 2.2, 3.0, 4.5):
        try:
            expected = oracle.evaluate(rpn, x)
        except oracle.OracleError:
            expected = None
        try:
            got = eval_dual(parse(source), x).value
        except DomainError:
            got = None
        assert (expected is None) == (got is None), (x, expected, got)
        if got is not None:
            assert math.isclose(got, expected, rel_tol=1e-14, abs_tol=1e-300)


def test_oracle_grammar_matches_parser_precedence():
    for text, x in (("-x^2", 3.0), ("2^-x^2", 1.5), ("2^3^2", 0.0), ("-2*x", 4.0), ("x/2/4", 8.0), ("1 - x - 1", 2.0)):
        assert oracle.evaluate(oracle.compile_rpn(text), x) == eval_dual(parse(text), x).value
    for bad in ("x +", "(x", "x)", "+x", "foo(x)", "sin x"):
        with pytest.raises(oracle.OracleError):
            oracle.compile_rpn(bad)


def test_generated_expressions_pass_the_eval_dual_check():
    for p in workloads.bigexpr_inputs(2, 60):
        assert workloads.eval_dual_error(p) is None
        assert len(p.rpn) == tracing.node_count(parse(p.text).root)


def test_self_time_is_duration_minus_children():
    # op [0, 100] > solve [10, 90] > (eval [20, 30], classify [40, 45]); parse [92, 98] under op
    parents = [-1, 0, 1, 1, 0]
    starts = [0, 10, 20, 40, 92]
    ends = [100, 90, 30, 45, 98]
    assert tracing.self_times(parents, starts, ends) == [100 - 80 - 6, 80 - 10 - 5, 10, 5, 6]
    assert sum(tracing.self_times(parents, starts, ends)) == 100


def test_fastest_keeps_every_input_once():
    # 2 inputs over 8 passes, laid out pass by pass
    times = [10 + p if i == 0 else 100 - p for p in range(8) for i in range(2)]
    assert list(run.fastest(times, 8)) == [10, 93]
    assert list(run.fastest(times[:6], 3)) == [10, 98]


def test_patched_restores_attributes_and_spans_add_up():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.PATCHES}
    tracer = tracing.Tracer()
    op = tracer.wrap(tracing.OP, workloads.capture)
    with pytest.raises(RuntimeError), tracing.patched(tracer):
        assert cli.solve is not originals[("twopoint.cli", "solve")]
        t0 = time.perf_counter_ns()
        code, out, _ = op(["trace", "--problem", "x - 3 * ln(x)", "--method", "twopoint", "--x0", "2.0"])
        op_ns = time.perf_counter_ns() - t0
        assert code == 0 and out.startswith("k,x,")
        raise RuntimeError("leave the block early")
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    assert tracer.accounting_error(op_ns) is None
    assert tracer.accounting_error(2 * op_ns) is not None  # spans miss half of it
    assert tracer.accounting_error(op_ns // 2) is not None  # more span time than was measured
    totals = tracer.totals
    assert totals["op"]["calls"] == totals["cli.main"]["calls"] == totals["solvers.solve"]["calls"] == 1
    assert totals["analysis.ck_sequence"]["calls"] == totals["cli.trace_rows"]["calls"] == 1
    assert totals["expressions.eval_dual"]["calls"] == totals["solvers.classify"]["calls"] + 1  # x1 twice


def test_eval_dual_domain_errors_are_counted():
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        trace = solvers.solve(parse("ln(x)"), solvers.Method.NEWTON, 3.0)
    assert trace.outcome.label == "domain-failure"
    assert tracer.domain_errors == 1


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace, capsys):
    assert run.main(["--workload", "tables", "--seed", "1", "--seconds", "0.2", "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 84
    declared = _benchmark_json()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert {"python", "nproc", "cpu", "commit", "seed"} <= set(info["env"])
    if trace == "0":
        assert result["metrics"]["paper_cells_match"]["value"] == 29
    else:
        shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".share")]
        assert math.isclose(sum(shares), 1.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
