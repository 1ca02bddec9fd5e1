"""Spans around the program's layer boundaries.

A traced run replaces the module attributes through which the layers call
each other with wrappers that record a span (name, start, end, parent).
Spans live in flat arrays until the benchmark folds them into per-layer
totals between passes; self time is a span's duration minus that of its
children.  The wrappers' own bookkeeping lands in the parent's self time,
so the traced run is slower; the benchmark reports by how much.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable

from twopoint.expressions import BinOp, Call, DomainError, Neg

# The root span of one benchmark operation; its self time is the part of
# the operation that no layer span covers.
OP = "op"
# (module, attribute, span name).  Callers look these attributes up at call
# time, so replacing them is enough to see every call.  The benchmark
# itself calls parse, solve and cli.main through their modules as well.
PATCHES = (
    ("twopoint.cli", "main", "cli.main"),
    ("twopoint.cli", "solve", "solvers.solve"),
    ("twopoint.cli", "trace_rows", "cli.trace_rows"),
    ("twopoint.analysis", "ck_sequence", "analysis.ck_sequence"),
    ("twopoint.expressions", "parse", "expressions.parse"),
    ("twopoint.solvers", "solve", "solvers.solve"),
    ("twopoint.solvers", "seed_second_point", "solvers.seed_second_point"),
    ("twopoint.solvers", "classify", "solvers.classify"),
    ("twopoint.solvers", "newton_step", "solvers.newton_step"),
    ("twopoint.solvers", "secant_step", "solvers.secant_step"),
    ("twopoint.solvers", "twopoint_step", "solvers.twopoint_step"),
    ("twopoint.solvers", "eval_dual", "expressions.eval_dual"),
)
# Share of the measured op time that may lie outside the root spans: the
# benchmark's clock reads and the tracer's bookkeeping around them, a few
# microseconds per operation of a millisecond or more.
SPAN_GAP_MAX = 0.02
NAMES = (OP,) + tuple(dict.fromkeys(name for _, _, name in PATCHES))
CLASSIFY_BUCKETS = ("len_lt20", "len_20_100", "len_gt100")


def node_count(root) -> int:
    """Nodes of an expression tree, counted without recursion."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return count


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            selfs[parent] -= ends[i] - starts[i]
    return selfs


def _bucket(records: int) -> str:
    return "len_lt20" if records < 20 else "len_20_100" if records <= 100 else "len_gt100"


class Tracer:
    """Span store, per-layer totals, and the per-call facts some layers need.

    ``size`` is the tree's node count for parse and eval_dual, the length of
    the records seen by classify, and the records returned by solve.
    ``text_nodes`` maps expression text to its node count and must hold
    every text the benchmark parses while tracing, so that counting never
    runs inside a span.
    """

    def __init__(self, text_nodes: dict[str, int] | None = None):
        self.names = array("b")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.sizes = array("l")
        self.totals = {name: {"calls": 0, "self_ns": 0, "size": 0} for name in NAMES}
        self.classify_buckets = {bucket: [0, 0] for bucket in CLASSIFY_BUCKETS}  # [calls, self ns]
        self.spans = 0
        self.root_ns = 0  # duration of all root spans
        self.min_self_ns = 0
        self.domain_errors = 0
        self.valued_records = 0  # records that hold an f value, over all solves
        self.text_nodes = dict(text_nodes or {})
        self._trees: dict[int, tuple[object, int]] = {}  # id(expression) -> (expression, nodes)
        self._parsed: list[int] = []
        self._stack = [-1]

    def tree_nodes(self, expr) -> int:
        entry = self._trees.get(id(expr))
        if entry is None or entry[0] is not expr:
            entry = (expr, node_count(expr.root))
            self._trees[id(expr)] = entry
        return entry[1]

    def forget_parsed(self) -> None:
        """Drop the expressions parsed by the last operation."""
        for key in self._parsed:
            self._trees.pop(key, None)
        self._parsed.clear()

    def wrap(self, name: str, fn: Callable, size_before=None, after=None) -> Callable:
        code = NAMES.index(name)
        names, parents, starts, ends, sizes, stack = (
            self.names,
            self.parents,
            self.starts,
            self.ends,
            self.sizes,
            self._stack,
        )
        clock = time.perf_counter_ns
        tracer = self
        counted = DomainError if name == "expressions.eval_dual" else ()

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(stack[-1])
            sizes.append(size_before(args) if size_before else 0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except counted:
                ends[i] = clock()
                stack.pop()
                tracer.domain_errors += 1
                raise
            except BaseException:
                ends[i] = clock()
                stack.pop()
                raise
            ends[i] = clock()
            stack.pop()
            if after is not None:
                after(i, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # hooks run outside the span they describe
    def _after_parse(self, i, args, expr):
        nodes = self.text_nodes.get(args[0])
        if nodes is None:
            nodes = node_count(expr.root)
        self._trees[id(expr)] = (expr, nodes)
        self._parsed.append(id(expr))
        self.sizes[i] = nodes

    def _after_solve(self, i, args, trace):
        records = trace.records
        self.sizes[i] = len(records)
        last = records[-1].y
        self.valued_records += len(records) - (last != last)

    def hooks(self, name: str):
        if name == "expressions.eval_dual":
            return (lambda args: self.tree_nodes(args[0])), None
        if name == "solvers.classify":
            return (lambda args: len(args[0])), None
        if name == "expressions.parse":
            return None, self._after_parse
        if name == "solvers.solve":
            return None, self._after_solve
        return None, None

    def fold(self) -> None:
        """Add the recorded spans to the totals and drop them.

        Call it between operations, when no span is open.
        """
        if len(self._stack) != 1:
            raise RuntimeError("cannot fold spans while one is open")
        selfs = self_times(self.parents, self.starts, self.ends)
        classify = NAMES.index("solvers.classify")
        for code, parent, start, end, self_ns, size in zip(
            self.names, self.parents, self.starts, self.ends, selfs, self.sizes
        ):
            entry = self.totals[NAMES[code]]
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            entry["size"] += size
            if code == classify:
                bucket = self.classify_buckets[_bucket(size)]
                bucket[0] += 1
                bucket[1] += self_ns
            if parent < 0:
                self.root_ns += end - start
        self.min_self_ns = min(self.min_self_ns, min(selfs, default=0))
        self.spans += len(selfs)
        for column in (self.names, self.parents, self.starts, self.ends, self.sizes):
            del column[:]

    def accounting_error(self, op_ns: int) -> str | None:
        """None when no span has a negative self time and the self times of
        all spans, which sum to the time of the root spans, account for
        ``op_ns``, the op time measured around the root spans, up to
        SPAN_GAP_MAX; else what went wrong."""
        self.fold()
        total = sum(entry["self_ns"] for entry in self.totals.values())
        gap = op_ns - total
        if self.min_self_ns < 0 or not 0 <= gap <= SPAN_GAP_MAX * op_ns:
            return (
                f"span self times (sum {total} ns, min {self.min_self_ns} ns) "
                f"do not account for {op_ns} ns of measured op time"
            )
        return None


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            before, after = tracer.hooks(name)
            setattr(module, attr, tracer.wrap(name, original, before, after))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
