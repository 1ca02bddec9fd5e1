#!/usr/bin/env python3
"""Benchmark of the twopoint root finder, end to end and layer by layer.

    python3 bench/run.py --workload {tables,bigexpr} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from ``src/``.
Each run is one closed-loop client in one thread.  It builds the
workload's inputs from the seed, checks the program's outputs against the
goldens and the oracle, repeats whole passes over the inputs until
``--seconds`` have gone by, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the environment and the workload's measured shape.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Its
``ops_per_s``, ``op_us.p50`` and ``op_us.p98`` come from each input's
fastest execution, for the reason given in fastest;
the same figures over every execution are in the line before the result.
The tail is the 98th percentile, not the 99th: on bigexpr about 0.8% of
operations hold a two-point run that wanders off for tens to a thousand
steps, so the 99th percentile falls on the edge of that group and moved
by 27% (IQR over median) over six seeds of 3000 trees, against 6% for
the 98th.
``op_us.p99`` is still printed: in the line before the result, and as a
per-layer metric of ``--trace 1``.
``--trace 1`` spends half the time untraced and half with spans around
every layer boundary (see tracing.py), and reports the per-layer metrics:
self times, call counts per pass, the tracing overhead, and the untraced
half's timing over every execution (``all_ops.*``).

An operation fails when it raises, when its output fails a check, or when
its output differs from the golden or from its own first pass.

Per-layer metrics and the end-to-end metric each should move:

- ``expressions.eval_dual.*``: ``ops_per_s`` on bigexpr, little on
  tables.  ``useful_frac`` is the share of calls whose value became a
  record; seeding evaluates x1 a second time.
- ``expressions.parse.*``: ``op_us.p50`` on bigexpr, nothing elsewhere.
- ``solvers.classify.*``: ``op_us.p98`` on tables (its long cells), and
  ``ops_per_s`` on bigexpr through its few runs that use the whole step
  budget.  ``us_per_call`` is bucketed by trace length.
- ``solvers.solve.*``, ``solvers.seed_second_point.*`` and the step counts:
  ``op_us.p98`` on tables.
- ``analysis.ck_sequence``, ``cli.trace_rows`` and ``cli.main`` self times:
  ``op_us.p50`` on tables only.  Self time excludes child spans, so
  ``cli.main`` excludes its ``solve`` and ``trace_rows``.
- ``import.twopoint.*.self_us`` (from ``-X importtime``): ``setup_s``.
- ``*.share`` is self time over the traced op time that the benchmark's
  own clock measured.  ``unattributed`` is the part of that time no layer
  span covers: the operation's own code, the CSV capture on tables, and
  the tracer's bookkeeping outside the spans.  Each traced run checks that
  no span's self time is negative and that the spans account for the
  measured op time up to ``tracing.SPAN_GAP_MAX``.  Counts are per pass
  over the inputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import goldens  # noqa: E402  (needs ROOT on the path; imports nothing of the program)

SETUP_REPEATS = 12  # set-up samples per run for setup_s
SETUP_TRIES = 3  # fresh interpreters per sample; the sample is the fastest
IMPORTTIME_REPEATS = 5
IMPORTED = ("twopoint.expressions", "twopoint.solvers", "twopoint.analysis", "twopoint.corpus", "twopoint.cli")
CHILD_TIMEOUT_S = 60
REPLAY_OPS = 300  # golden operations replayed by a run at a seed without goldens


# --- set-up cost, each sample in a fresh interpreter ----------------------------


def _child(*flags: str, code: str) -> subprocess.CompletedProcess:
    # -I: no user site-packages, no PYTHON* variables, no script directory
    return subprocess.run(
        [sys.executable, "-I", *flags, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


class SetupTimer:
    """Wall time of ``import twopoint.cli`` in fresh interpreters, interpreter
    start excluded.  Each sample is the fastest of SETUP_TRIES imports, for
    the host's sake (see fastest), and the result is the median of the
    samples.  Samples are spread over the run, between passes, so that a
    slow minute of the host touches only a few of them."""

    CODE = "import time; t = time.perf_counter(); import twopoint.cli; print(time.perf_counter() - t)"

    def __init__(self):
        _child(code=self.CODE)  # writes the bytecode cache once
        self.samples: list[float] = []

    def catch_up(self, done: float) -> None:
        """Take samples until their count matches the share ``done`` of the run."""
        while len(self.samples) < min(SETUP_REPEATS, round(SETUP_REPEATS * done)):
            self.samples.append(min(float(_child(code=self.CODE).stdout) for _ in range(SETUP_TRIES)))

    def result(self) -> float:
        """Median of the samples."""
        self.catch_up(1.0)
        return statistics.median(self.samples)


def import_self_us() -> dict[str, float]:
    """Median self time of each program module from ``-X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTED}
    for _ in range(IMPORTTIME_REPEATS):
        for line in _child("-X", "importtime", code="import twopoint.cli").stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(float(fields[0]))
    return {name: statistics.median(values) for name, values in samples.items()}


# --- one run --------------------------------------------------------------------


class Checker:
    """Counts operations and their failures, keeping a few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(problem)


def summarize(workload, inp, result):
    """(solver runs, problem) for one operation's result, unchecked."""
    if isinstance(result, BaseException):
        return None, f"raised {type(result).__name__}: {result}"
    try:
        return workload.summarize(inp, result), None
    except (ValueError, IndexError) as err:
        return None, f"unreadable output: {err}"


def examine(workload, inp, result, golden_op=None):
    """(solver runs, problem) for one operation's result, checked."""
    solves, problem = summarize(workload, inp, result)
    if problem is not None:
        return solves, problem
    problem = workload.check(inp, result)
    if problem is None and golden_op is not None:
        if goldens.entry(solves) != golden_op:
            problem = f"differs from golden: {goldens.entry(solves)} != {golden_op}"
    return solves, problem


def call(run_op, inp):
    try:
        return run_op(inp)
    except Exception as err:  # an operation that raises is counted as failed
        return err


def replay_goldens(workload, golden_ops, checker: Checker) -> None:
    """Run the first REPLAY_OPS operations of the default seed once,
    untimed, and compare them with its golden."""
    golden_ops = golden_ops[:REPLAY_OPS]
    inputs = workload.build(goldens.DEFAULT_SEED, len(golden_ops))
    seed_key = goldens.key(workload, goldens.DEFAULT_SEED)
    if len(inputs) != len(golden_ops):
        checker.record(f"golden seed {seed_key}: {len(inputs)} inputs, but the golden has {len(golden_ops)}")
        return
    for inp, golden_op in zip(inputs, golden_ops):
        problem = workload.check_input(inp)
        if problem is None:
            _, problem = examine(workload, inp, call(workload.run, inp), golden_op)
        checker.record(problem and f"golden seed {seed_key}: {problem}")


def timed_passes(workload, inputs, seconds: float, run_op, checker: Checker, first=None, golden_ops=None, after_pass=None):
    """Whole passes over ``inputs`` until ``seconds`` have gone by.

    Returns (op times in ns, passes, first-pass solves per input, per-op
    flag "some run of this op had 20 or more records").  ``first`` holds
    the solves of an earlier pass to compare against.  ``after_pass`` is
    called between passes with the share of ``seconds`` gone by.
    """
    clock = time.perf_counter_ns
    times = array("q")  # compact, so peak RSS does not grow with the pass count
    passes = 0
    solves_by_op = first
    long_op: list[bool] = []
    gc.collect()
    begin = time.perf_counter()
    while True:
        pass_solves = []
        for i, inp in enumerate(inputs):
            t0 = clock()
            result = call(run_op, inp)
            times.append(clock() - t0)
            if solves_by_op is None:
                solves, problem = examine(workload, inp, result, golden_ops[i] if golden_ops else None)
                problem = problem or workload.check_input(inp)
                long_op.append(bool(solves) and max(s.records for s in solves) >= 20)
            else:
                # the summary holds the bits of every record, so equal
                # summaries mean the output the first pass checked
                solves, problem = summarize(workload, inp, result)
                if problem is None and solves != solves_by_op[i]:
                    problem = "differs from the first pass"
            checker.record(problem)
            pass_solves.append(solves)
        if solves_by_op is None:
            solves_by_op = pass_solves
        passes += 1
        done = (time.perf_counter() - begin) / seconds
        if after_pass is not None:
            after_pass(done)
        if done >= 1.0:
            return times, passes, solves_by_op, long_op


def fastest(times, passes: int):
    """Each input's fastest execution.

    The host this was tuned on (2 vCPUs of a shared Xeon) flips between a
    fast state and one about 1.85x slower, on scales from one operation to
    tens of seconds, whatever runs on it; thread CPU time shows it as much
    as wall time.  In a 15 s probe only 32% of executions of one input ran
    fast, and in slow minutes far fewer.  Spreads (IQR over median) of
    ops_per_s / op_us.p50 over four tables runs in one such stretch:

    - every execution: 16% / 14%
    - each input's fastest quarter: 32% / 29%
    - each input's fastest tenth: 26% / 26%
    - each input's fastest execution: 9% / 7%

    A fastest share sits at the edge of the fast state, so it follows the
    drift of that state; the fastest execution holds while any execution
    of an input runs fast.  Every input contributes once, so the sample
    keeps the workload's mix.  The price: a change that slows only some of
    an input's executions (a cache rebuilt now and then, a collector
    pause) does not show here.  Figures over every execution are reported
    beside these; see all_ops_metrics.
    """
    per_pass = len(times) // passes
    return array("q", (min(times[i::per_pass]) for i in range(per_pass)))


def timing_metrics(times) -> dict[str, float]:
    percentiles = statistics.quantiles(times, n=100)
    return {
        "ops_per_s": len(times) / (sum(times) / 1e9),
        "op_us.p50": statistics.median(times) / 1e3,
        "op_us.p98": percentiles[97] / 1e3,
        "op_us.p99": percentiles[98] / 1e3,
    }


def all_ops_metrics(times) -> dict[str, float]:
    """The timing metrics over every timed execution, host slowdowns included."""
    return {f"all_ops.{name}": value for name, value in timing_metrics(times).items()}


def conversion_metrics(solves_by_op) -> dict[str, float]:
    runs = [s for solves in solves_by_op if solves for s in solves]
    out = {"converged_frac": sum(s.label == "converged" for s in runs) / len(runs)}
    for method in ("secant", "newton", "twopoint"):
        mine = [s for s in runs if s.method == method]
        roots = sum(s.label == "converged" for s in mine)
        # what a converging run spends; runs that fail show in converged_frac
        spent = sum(s.evals for s in mine if s.label == "converged")
        out[f"evals_per_root.{method}"] = spent / roots if roots else float("nan")
    return out


def shape(inputs, solves_by_op, long_op, times, passes) -> dict:
    """The workload's measured shape, as recorded in BENCHMARK.json."""
    runs = [s for solves in solves_by_op if solves for s in solves]
    per_op = len(inputs)
    op_ns = [sum(times[p * per_op + i] for p in range(passes)) for i in range(per_op)]
    out = {
        "ops_per_pass": per_op,
        "solver_runs_per_pass": len(runs),
        "runs_ge20_records_frac": sum(s.records >= 20 for s in runs) / len(runs),
        "runs_ge500_records_frac": sum(s.records >= 500 for s in runs) / len(runs),
        "time_in_ops_with_ge20_records_frac": sum(t for t, long in zip(op_ns, long_op) if long) / sum(op_ns),
    }
    nodes = [inp.nodes for inp in inputs if hasattr(inp, "nodes")]
    if nodes:
        q = statistics.quantiles(nodes, n=10)
        out["tree_nodes"] = {"min": min(nodes), "p10": q[0], "p50": statistics.median(nodes), "p90": q[8], "max": max(nodes)}
        out["records_per_tree"] = sum(s.records for s in runs) / len(inputs)
    return out


def paper_cells(checker: Checker, capture) -> int:
    """Run ``twopoint bench --format csv`` once; compare with the golden bytes."""
    try:
        code, text, _ = capture(goldens.BENCH_ARGV)
    except Exception as err:
        checker.record(f"twopoint bench raised {type(err).__name__}: {err}")
        return 0
    golden = goldens.bench_csv()
    checker.record(None if code == 0 and text == golden else "twopoint bench --format csv differs from the golden")
    return sum(line.endswith(",match") for line in text.splitlines())


def layer_metrics(tracer, traced_passes: int, op_ns: int) -> dict[str, float]:
    """Per-layer metrics; ``op_ns`` is the measured time of the traced ops.
    Counts are per pass over the inputs."""
    from bench.tracing import OP

    tracer.fold()
    summary = tracer.totals
    out: dict[str, float] = {}

    def per_pass(name: str) -> float:
        return summary[name]["calls"] / traced_passes

    def us_per(name: str, count: float) -> float:
        return summary[name]["self_ns"] / 1e3 / count if count else 0.0

    layers_ns = 0
    for name, entry in summary.items():
        if name != OP:
            out[f"{name}.share"] = entry["self_ns"] / op_ns
            layers_ns += entry["self_ns"]
    out["unattributed.share"] = (op_ns - layers_ns) / op_ns
    for name in ("expressions.parse", "expressions.eval_dual"):
        entry = summary[name]
        out[f"{name}.calls"] = per_pass(name)
        out[f"{name}.self_us_per_call"] = us_per(name, entry["calls"])
        out[f"{name}.ns_per_node"] = entry["self_ns"] / entry["size"] if entry["size"] else 0.0
    out["expressions.eval_dual.domain_errors"] = tracer.domain_errors / traced_passes
    calls = summary["expressions.eval_dual"]["calls"]
    out["expressions.eval_dual.useful_frac"] = tracer.valued_records / calls if calls else 0.0
    for bucket, (count, ns) in tracer.classify_buckets.items():
        out[f"solvers.classify.us_per_call.{bucket}"] = ns / 1e3 / count if count else 0.0
    out["solvers.classify.calls"] = per_pass("solvers.classify")
    out["solvers.solve.calls"] = per_pass("solvers.solve")
    out["solvers.solve.records"] = summary["solvers.solve"]["size"] / traced_passes
    out["solvers.solve.self_us_per_record"] = us_per("solvers.solve", summary["solvers.solve"]["size"])
    out["solvers.seed_second_point.calls"] = per_pass("solvers.seed_second_point")
    out["solvers.seed_second_point.self_us_per_call"] = us_per("solvers.seed_second_point", summary["solvers.seed_second_point"]["calls"])
    for step in ("newton_step", "secant_step", "twopoint_step"):
        out[f"solvers.{step}.calls"] = per_pass(f"solvers.{step}")
    for name in ("analysis.ck_sequence", "cli.trace_rows", "cli.main"):
        out[f"{name}.self_us_per_call"] = us_per(name, summary[name]["calls"])
    return out


def layer_unit(name: str) -> str:
    if name.endswith((".share", "_frac")):
        return "ratio"
    if name.endswith((".calls", ".records", ".domain_errors")):
        return "count"
    if name.endswith(".ns_per_node"):
        return "ns"
    return "us"


def environment(args) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "twopoint").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "bigexpr"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twopoint" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'twopoint'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twopoint

    if Path(twopoint.__file__).resolve().parent != SRC / "twopoint":
        print(f"error: imported twopoint from {twopoint.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench import tracing, workloads

    workload = workloads.WORKLOADS[args.workload]
    checker = Checker()
    setup = SetupTimer() if args.trace == 0 else None
    imports = import_self_us() if args.trace == 1 else None
    matched_cells = paper_cells(checker, workloads.capture)

    golden = goldens.load(workload.name)
    seed_key = goldens.key(workload, args.seed)
    golden_ops = golden.get(seed_key)
    if golden_ops is None:
        replay_goldens(workload, golden[goldens.key(workload, goldens.DEFAULT_SEED)], checker)
    inputs = workload.build(args.seed)
    if golden_ops is not None and len(golden_ops) != len(inputs):
        checker.record(f"{len(inputs)} inputs, but the golden has {len(golden_ops)}")
        golden_ops = None

    untraced_seconds = args.seconds if args.trace == 0 else args.seconds / 2
    times, passes, solves_by_op, long_op = timed_passes(
        workload, inputs, untraced_seconds, workload.run, checker, golden_ops=golden_ops,
        after_pass=setup.catch_up if setup else None,
    )
    sample = fastest(times, passes)
    timing = timing_metrics(sample)
    info = {"env": environment(args), "shape": shape(inputs, solves_by_op, long_op, times, passes)}
    info["shape"]["passes"] = passes

    if args.trace == 0:
        metrics = {"setup_s": (setup.result(), "s"), "ops_per_s": (timing["ops_per_s"], "1/s")}
        info["setup_samples_s"] = setup.samples
        metrics["op_us.p50"] = (timing["op_us.p50"], "us")
        metrics["op_us.p98"] = (timing["op_us.p98"], "us")
        info["op_us.p99"] = timing["op_us.p99"]
        conversion = conversion_metrics(solves_by_op)
        metrics["converged_frac"] = (conversion.pop("converged_frac"), "ratio")
        for name, value in conversion.items():
            metrics[name] = (value, "count")
        metrics["paper_cells_match"] = (matched_cells, "count")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["ok_frac"] = (1.0 - checker.failed / checker.attempted, "ratio")
        info["samples"] = {"timed": len(times), "fastest": len(sample)}
        info.update(all_ops_metrics(times))
    else:
        text_nodes = {inp.text: inp.nodes for inp in inputs if hasattr(inp, "text")}
        tracer = tracing.Tracer(text_nodes)
        for prob in workloads.corpus.builtin_problems():
            tracer.tree_nodes(prob.expression)
        run_op = tracer.wrap(tracing.OP, workload.run)

        def traced(inp):
            try:
                return run_op(inp)
            finally:
                tracer.forget_parsed()

        with tracing.patched(tracer):
            traced_times, traced_passes, _, _ = timed_passes(
                workload, inputs, args.seconds / 2, traced, checker, first=solves_by_op,
                after_pass=lambda done: tracer.fold(),
            )
        traced_ns = sum(traced_times)
        checker.record(tracer.accounting_error(traced_ns))
        layers = layer_metrics(tracer, traced_passes, traced_ns)
        traced_ops_per_s = timing_metrics(fastest(traced_times, traced_passes))["ops_per_s"]
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        for name, value in all_ops_metrics(times).items():
            metrics[name] = (value, "1/s" if name.endswith("ops_per_s") else "us")
        for name, value in imports.items():
            metrics[f"import.{name}.self_us"] = (value, "us")
        metrics["op_us.p99"] = (timing["op_us.p99"], "us")
        metrics["trace.ops_per_s.untraced"] = (timing["ops_per_s"], "1/s")
        metrics["trace.ops_per_s.traced"] = (traced_ops_per_s, "1/s")
        metrics["trace.overhead_frac"] = (1.0 - traced_ops_per_s / timing["ops_per_s"], "ratio")
        info["spans"] = tracer.spans
        info["span_gap_frac"] = 1.0 - tracer.root_ns / traced_ns

    for message in checker.messages:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps(info))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
