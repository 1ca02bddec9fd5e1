"""Pins of ``eval_dual`` on 2000 generated trees rich in constants.

``data/eval_pins.json`` holds one SHA-256 digest per block of 100 trees.
Each tree adds, at each point of ``X_POINTS``, its ``repr`` and the point,
then either the value and derivative as ``float.hex`` or the
``DomainError`` kind and argument.  The trees come from ``random.Random``
with a fixed seed, are at most five levels deep, and take their constant
leaves from ``pi``, ``e``, ``CONSTANT_VALUES`` (among them ±0, 5e-324,
1e308 and inf) and uniform floats in [-10, 10].  At least half the binary
operators have a constant right operand, so the constant folding, the
bound right operands and the domain errors met while compiling are all
exercised.

Any change to the evaluator that moves a bit of a value, a derivative or
an error argument, or changes an error's kind, fails here.  Unlike the
bit-for-bit comparison in ``test_expressions``, which builds its reference
from the evaluator's own rules, these pins compare with the evaluator as
it was when they were recorded.

Recorded by running this file as a script from the repository root::

    PYTHONPATH=src python tests/test_eval_pins.py --record

Without ``--record`` the script checks the data and prints what differs.
The file is a record of past behaviour, not a target: do not re-record it
to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

from twopoint.expressions import FUNCTIONS, BinOp, Call, Constant, DomainError, Expression, Neg, Number, Variable, eval_dual

DATA = Path(__file__).parent / "data" / "eval_pins.json"
BLOCK = 100  # trees per digest
SEED = 20140
COUNT = 2000
DEPTH = 5

# the signs of zero, values whose rounding shows an operation moved, and
# the edges of the rules' domains
X_POINTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.7, 1e-170, -1e-300, 123.456)

CONSTANT_VALUES = (0.0, -0.0, 1.0, 2.0, 0.5, 1 / 3, -1.5, 3.0, 1e-170, 5e-324, 1e308, math.inf)


def constant_leaf(rng: random.Random):
    roll = rng.randrange(3)
    if roll == 0:
        return Constant(rng.choice(("pi", "e")))
    return Number(rng.choice(CONSTANT_VALUES) if roll == 1 else rng.uniform(-10.0, 10.0))


def tree(rng: random.Random, depth: int):
    """A leaf, a negation, a call, or a binary operator whose right operand
    is a subtree or a constant leaf, one in five each."""
    roll = rng.randrange(5) if depth else 0
    if roll == 0:
        return Variable() if rng.randrange(3) == 0 else constant_leaf(rng)
    if roll == 1:
        return Neg(tree(rng, depth - 1))
    if roll == 2:
        return Call(rng.choice(FUNCTIONS), tree(rng, depth - 1))
    left = tree(rng, depth - 1)
    right = tree(rng, depth - 1) if roll == 3 else constant_leaf(rng)
    return BinOp(rng.choice("+-*/^"), left, right)


def trees() -> list[Expression]:
    rng = random.Random(SEED)
    return [Expression(tree(rng, DEPTH)) for _ in range(COUNT)]


def outcome(expr: Expression, x: float) -> str:
    try:
        d = eval_dual(expr, x)
    except DomainError as err:
        return f"error {err.kind} {err.arg.hex()}"
    return f"{d.value.hex()} {d.deriv.hex()}"


def block_digests(exprs: list[Expression]) -> list[str]:
    digests = []
    for start in range(0, len(exprs), BLOCK):
        h = hashlib.sha256()
        for expr in exprs[start : start + BLOCK]:
            for x in X_POINTS:
                h.update(f"{expr.root!r} @ {x.hex()} -> {outcome(expr, x)}\n".encode())
        digests.append(h.hexdigest())
    return digests


def test_trees_mix_values_and_errors():
    exprs = trees()
    outcomes = [outcome(expr, x) for expr in exprs for x in X_POINTS]
    errors = sum(text.startswith("error") for text in outcomes)
    assert len(exprs) == COUNT
    assert 0.2 * len(outcomes) < errors < 0.8 * len(outcomes)


def test_every_block_of_values_and_errors_is_unchanged():
    want = json.loads(DATA.read_text())["blocks"]
    got = block_digests(trees())
    assert len(got) == len(want) == COUNT // BLOCK
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"trees {i * BLOCK} to {(i + 1) * BLOCK - 1}"


if __name__ == "__main__":
    from pins import check_or_record

    sys.exit(check_or_record(DATA, {"blocks": block_digests(trees())}))
