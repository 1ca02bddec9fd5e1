"""Workload inputs and operations.

Each workload builds its inputs from a seed, runs one operation per input,
and reduces the operation's output to :class:`Solve` records that the
goldens, the oracle and the metrics read.

- ``tables``: the 84 paper cells (tables 1 and 2, three methods each) in
  table order, each run in-process as ``twopoint trace`` through
  ``cli.main``.  This is what a user runs to reproduce the paper; it is the
  only workload where ``cli`` and ``analysis`` do real work.  The seed does
  not change its inputs.
- ``bigexpr``: generated expressions of tens to a few hundred nodes, using
  every operator and function of the grammar, each with a planted simple
  root.  One operation parses the text and solves once per method, with
  the default solver config, from a start near that root, so ``parse`` and
  ``eval_dual`` dominate.  Most runs take 5 to 10 steps, but a few two-point
  runs in a thousand wander off and use up to the whole step budget; they
  are measured like every other run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import re
import struct
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from twopoint import cli, corpus, expressions, solvers
from twopoint.solvers import Converged, Method

from . import oracle

METHODS = (Method.SECANT, Method.NEWTON, Method.TWO_POINT)  # table column order

# The number of long two-point runs (see the module docstring) varies from
# seed to seed, and with it ops_per_s and evals_per_root.twopoint; a larger
# pool evens it out.  Each input's fastest execution (see run.fastest)
# needs about ten passes over the pool in the host's slow minutes: at 3000
# trees a run made 6 passes, and op_us.p50 then spread by 16% over seven
# runs.  2000 trees allowed 10 to 16.
BIGEXPR_COUNT = 2000
BIGEXPR_NODES = (20, 300)  # log-uniform target tree sizes


@dataclass(frozen=True)
class Solve:
    """One solver run as the checks see it."""

    method: str
    label: str
    iterations: int | None  # None where the CLI does not print it
    digest: str  # bits of every record, see digest()
    records: int
    evals: int  # f and f' evaluations in the paper's currency


def digest(rows) -> str:
    """Digest of the float bits of a sequence of equal-length rows.

    NaN is canonicalised, because its sign and payload carry no meaning.
    """
    flat = [v if v == v else math.nan for row in rows for v in row]
    return hashlib.blake2b(struct.pack(f"<{len(flat)}d", *flat), digest_size=8).hexdigest()


def capture(argv) -> tuple[int, str, str]:
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _evals(method: str, valued_records: int) -> int:
    # secant pays for f only; Newton and two-point pay for f and f' per point
    return valued_records * (1 if method == Method.SECANT.value else 2)


def solve_record(trace: solvers.Trace) -> Solve:
    rows = [(rec.k, rec.x, rec.y, rec.dy, rec.r_weight) for rec in trace.records]
    valued = sum(1 for rec in trace.records if rec.y == rec.y)
    method = trace.method.value
    return Solve(method, trace.outcome.label, trace.iterations, digest(rows), len(rows), _evals(method, valued))


# --- tables -------------------------------------------------------------------

TRACE_DIGEST_COLUMNS = ("k", "x", "y", "dy", "r_weight", "abs_error", "ck")
_DESCRIBED = (
    ("converged", "converged"),
    ("diverged", "diverged"),
    ("oscillating", "oscillating"),
    ("domain failure", "domain-failure"),
    ("derivative stall", "derivative-stall"),
    ("iteration budget", "max-iterations"),
)
_ITERATIONS_RE = re.compile(r" in (\d+) iterations")


@dataclass(frozen=True)
class Cell:
    problem: str
    method: str
    start: float

    @property
    def argv(self) -> list[str]:
        return ["trace", "--problem", self.problem, "--method", self.method, "--x0", repr(self.start)]


def table_cells() -> list[Cell]:
    return [
        Cell(prob.name, method.value, start)
        for prob in corpus.table1_problems() + corpus.table2_problems()
        for start in prob.starts
        for method in METHODS
    ]


class Tables:
    name = "tables"
    seeded = False

    def build(self, seed: int, limit: int | None = None) -> list[Cell]:
        return table_cells()[:limit]

    def run(self, cell: Cell):
        return capture(cell.argv)

    def summarize(self, cell: Cell, result) -> list[Solve]:
        code, out, err = result
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        cols = [header.index(name) for name in TRACE_DIGEST_COLUMNS]
        values = [[float(row[c]) if row[c] else math.nan for c in cols] for row in body]
        label = next((lab for prefix, lab in _DESCRIBED if err.startswith(prefix)), "unknown")
        found = _ITERATIONS_RE.search(err) if label == "converged" else None
        if (code == 0) != (label == "converged"):
            raise ValueError(f"exit code {code} disagrees with outcome {err.strip()!r}")
        valued = sum(1 for row in values if row[2] == row[2])
        return [
            Solve(
                cell.method,
                label,
                int(found.group(1)) if found else None,
                digest(values),
                len(values),
                _evals(cell.method, valued),
            )
        ]

    def check_input(self, cell: Cell) -> str | None:
        return None

    def check(self, cell: Cell, result) -> str | None:
        return None  # the goldens cover every cell


# --- bigexpr ----------------------------------------------------------------------


def converged_root_error(rpn, outcome, tol: float) -> str | None:
    """Oracle check of a converged root: |f(root)| must be tiny."""
    if not isinstance(outcome, Converged):
        return None
    try:
        value = oracle.evaluate(rpn, outcome.root)
    except oracle.OracleError as err:
        return f"oracle cannot evaluate the root {outcome.root!r}: {err}"
    if abs(value) > tol:
        return f"|f({outcome.root!r})| = {abs(value)!r} exceeds {tol!r}"
    return None


_BOUNDED = ("sin", "cos", "atan")
_ANY_ARG = ("sin", "cos", "atan", "cbrt", "abs")
_POSITIVE_ARG = ("ln", "log10", "sqrt")


class _Generator:
    """Random expression text of about ``n`` nodes.

    Functions with a restricted domain only receive arguments that are
    positive by construction (u^2 + c, |u| + c, exp(bounded)), exponentials
    only receive bounded arguments and tan only |arg| < 0.7, so trees of any
    size stay defined on the whole real line.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def literal(self) -> str:
        return repr(round(self.rng.uniform(0.1, 4.0), 2))

    def leaf(self) -> str:
        r = self.rng.random()
        if r < 0.55:
            return "x"
        if r < 0.9:
            return self.literal()
        return self.rng.choice(("pi", "e"))

    def positive(self, n: int) -> str:
        r = self.rng.random()
        if r < 0.4:
            return f"({self.expr(n - 4)}^2 + {self.literal()})"
        if r < 0.8:
            return f"(abs({self.expr(n - 3)}) + {self.literal()})"
        return f"exp({self.rng.choice(_BOUNDED)}({self.expr(n - 2)}))"

    def split(self, n: int) -> tuple[int, int]:
        a = self.rng.randint(1, n - 2) if n > 2 else 1
        return a, max(1, n - 1 - a)

    def expr(self, n: int) -> str:
        rng = self.rng
        if n <= 2:
            return self.leaf()
        r = rng.random()
        if r < 0.40:
            a, b = self.split(n)
            return f"({self.expr(a)} {rng.choice('+-*')} {self.expr(b)})"
        if r < 0.48:
            return f"(-{self.expr(n - 1)})"
        if r < 0.62:
            return f"{rng.choice(_ANY_ARG)}({self.expr(n - 1)})"
        if r < 0.68:
            return f"exp({rng.choice(_BOUNDED)}({self.expr(n - 2)}))"
        if r < 0.72:
            return f"tan(0.7 * sin({self.expr(n - 4)}))"
        if r < 0.80:
            return f"{rng.choice(_POSITIVE_ARG)}({self.positive(n - 1)})"
        if r < 0.88:
            a, b = self.split(n - 3)
            return f"({self.expr(a)} / {self.positive(b)})"
        if r < 0.94:
            return f"({rng.choice(_BOUNDED)}({self.expr(n - 3)})^{rng.choice('23')})"
        if r < 0.97:
            return f"({self.positive(n - 3)}^({rng.choice(('0.5', '1.5', '-0.5', '2.5'))}))"
        a, b = self.split(n - 2)
        return f"({self.positive(a)}^{rng.choice(_BOUNDED)}({self.expr(b)}))"


@dataclass(frozen=True)
class Planted:
    text: str
    rpn: tuple
    root: float  # the planted simple root
    x0: float  # shared start of the three solves
    nodes: int


def planted_expression(rng: random.Random, size: int) -> Planted:
    """f(x) = (x - r) * p(x) for a random p that is positive by construction.

    r is then the only root, it is simple, and f vanishes exactly there, so
    runs end through the tolerance test instead of stalling at the rounding
    noise of a large tree.  A candidate p is kept when it stays within
    [0.05, 1e6] on r +/- 0.5 and is smooth there (see _smooth), and when no
    cbrt or sqrt in it sees an argument of exactly 0 there: rounding can
    make one, as in cbrt(log10(exp(atan(1e-17)))), and eval_dual then
    raises DomainError for the infinite derivative.  The start is "near" r
    in the sense of Newton's local theory: it lies up to 0.25 away, halved
    until a Newton iteration on the oracle reaches r within 8 steps.
    """
    gen = _Generator(rng)
    while True:
        factor = gen.positive(size - 3)
        root = round(rng.uniform(-2.0, 2.0), 6)
        rpn = oracle.compile_rpn(factor)
        try:
            grid = [oracle.evaluate(rpn, root + (i - 16) / 32, kinks=True) for i in range(33)]
        except oracle.OracleError:
            continue
        if 0.05 <= min(grid) and max(grid) <= 1e6 and _smooth(rpn, root):
            break
    text = f"(x - {root!r}) * {factor}" if root >= 0.0 else f"(x + {-root!r}) * {factor}"
    rpn = oracle.compile_rpn(text)
    offset = rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.25)
    while not _newton_reaches(rpn, root + offset, root):
        offset *= 0.5
    return Planted(text, rpn, root, root + offset, len(rpn))


def _smooth(rpn, centre: float) -> bool:
    """Difference quotients at 9 points of centre +/- 0.5 agree to 1e-4.

    Nested powers inside periodic functions can make p oscillate faster
    than any formula a user would write; such candidates are redrawn.
    """
    for i in range(9):
        try:
            slope, err = oracle.central_difference(rpn, centre + (i - 4) / 8)
        except oracle.OracleError:
            return False
        if err > 1e-4 * max(1.0, abs(slope)):
            return False
    return True


def _newton_reaches(rpn, x: float, root: float) -> bool:
    """Oracle Newton with difference quotients from x gets within 1e-9 of root."""
    try:
        for _ in range(8):
            slope, _ = oracle.central_difference(rpn, x)
            x -= oracle.evaluate(rpn, x) / slope
            if abs(x - root) < 1e-9:
                return True
    except (oracle.OracleError, ZeroDivisionError):
        pass
    return False


def bigexpr_inputs(seed: int, limit: int | None = None) -> list[Planted]:
    """Expressions with stratified log-uniform sizes over BIGEXPR_NODES.

    The strata are visited in shuffled order, so the first ``limit``
    inputs are the same as those of the whole set and cost only their own
    generation.
    """
    rng = random.Random(seed)
    lo, hi = BIGEXPR_NODES
    strata = list(range(BIGEXPR_COUNT))
    rng.shuffle(strata)
    out = []
    for i in strata[:limit]:
        u = (i + rng.random()) / BIGEXPR_COUNT
        out.append(planted_expression(rng, round(lo * (hi / lo) ** u)))
    return out


def sample_points(p: Planted) -> tuple[float, ...]:
    return (p.root - 0.4, p.root - 0.1, p.root, p.x0, p.root + 0.37)


def eval_dual_error(p: Planted) -> str | None:
    """Compare the program's value and derivative with the oracle."""
    try:
        expr = expressions.parse(p.text)
        for x in sample_points(p):
            dual = expressions.eval_dual(expr, x)
            value = oracle.evaluate(p.rpn, x)
            if abs(dual.value - value) > 1e-11 * max(1.0, abs(value)):
                return f"eval_dual value {dual.value!r} != oracle {value!r} at x={x!r}"
            # a tree can bend sharply on a scale below one step (abs of a
            # small, steep argument); a second, finer step resolves that
            for step in (1e-5, 1e-8):
                slope, err = oracle.central_difference(p.rpn, x, step)
                if abs(dual.deriv - slope) <= 10.0 * (err + 1e-8 * max(1.0, abs(slope))):
                    break
            else:
                return f"eval_dual derivative {dual.deriv!r} != difference quotient {slope!r} at x={x!r}"
    except (expressions.ParseError, expressions.DomainError, RecursionError) as err:
        return f"{type(err).__name__}: {err}"
    return None


class BigExpr:
    name = "bigexpr"
    seeded = True

    def build(self, seed: int, limit: int | None = None) -> list[Planted]:
        return bigexpr_inputs(seed, limit)

    def run(self, p: Planted):
        expr = expressions.parse(p.text)
        return [solvers.solve(expr, method, p.x0) for method in METHODS]

    def check_input(self, p: Planted) -> str | None:
        return eval_dual_error(p)

    def summarize(self, p: Planted, traces) -> list[Solve]:
        return [solve_record(trace) for trace in traces]

    def check(self, p: Planted, traces) -> str | None:
        for trace in traces:
            # converged means |dx| + |y| < 1e-15 in the program's arithmetic;
            # the oracle rounds differently, so allow a few ulps of the terms
            problem = converged_root_error(p.rpn, trace.outcome, 1e-13)
            if problem is None and isinstance(trace.outcome, Converged):
                if abs(trace.outcome.root - p.root) > 1e-12 * max(1.0, abs(p.root)):
                    problem = f"converged to {trace.outcome.root!r}, but the only root is {p.root!r}"
            if problem:
                return f"{trace.method.value}: {problem}"
        return None


WORKLOADS = {w.name: w for w in (Tables(), BigExpr())}
