"""Pins of ``parse`` on 40 000 generated inputs: every tree and every error.

``data/parse_pins.json`` holds one SHA-256 digest per block of 1000
inputs.  Each input adds its text and then either its tree, written as a
preorder walk with each ``Number`` as ``float.hex``, or its ``ParseError``
as (message, position, expected).  The inputs come from ``random.Random``
with fixed seeds:

* 20 000 random strings over the grammar's characters, its names, ``é``,
  ``1e400`` and ``--``;
* 20 000 texts generated from the grammar and then mutated.

Any change to the parser that moves a tree, an error message, an error
position or an ``expected`` tuple on one of them fails here.

Recorded by running this file as a script from the repository root::

    PYTHONPATH=src python tests/test_parse_pins.py --record

Without ``--record`` the script checks the data and prints what differs.
The file is a record of past behaviour, not a target: do not re-record it
to make a change pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from twopoint.expressions import FUNCTIONS, BinOp, Call, Constant, Neg, Number, ParseError, Variable, parse

DATA = Path(__file__).parent / "data" / "parse_pins.json"
BLOCK = 1000
RANDOM_SEED = 20121
MUTATED_SEED = 20122
COUNT = 20_000  # inputs per generator

# pieces of the random strings: every character the grammar knows, its
# names, and a few texts that are not in it
FRAGMENTS = (
    *"0123456789.eE+-*/^() x",
    "\t",
    "\n",
    "pi",
    "e",
    *FUNCTIONS,
    "é",
    "1e400",
    "--",
    "xx",
    "_a",
    "1.5",
    "2e-3",
    "٣",  # ARABIC-INDIC DIGIT THREE
    "$",
)
NUMBERS = ("0", "1", "2", "2.5", ".5", "3.", "10", "1e3", "1E-3", "12.75e+2", "5e-324", "1e308")
OPERATORS = "+-*/^"


def random_text(rng: random.Random) -> str:
    # a space between fragments keeps names from running together
    return "".join(rng.choice(FRAGMENTS) + rng.choice(("", "", " ")) for _ in range(rng.randint(0, 14)))


def grammar_text(rng: random.Random, depth: int) -> str:
    """A text the grammar accepts, with random spacing and redundant parentheses."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        text = rng.choice((*NUMBERS, "x", "x", "pi", "e"))
    elif roll < 0.45:
        text = "-" + grammar_text(rng, depth - 1)
    elif roll < 0.6:
        text = f"{rng.choice(FUNCTIONS)}({grammar_text(rng, depth - 1)})"
    else:
        op = rng.choice(OPERATORS)
        space = rng.choice(("", " "))
        left = grammar_text(rng, depth - 1)
        if op == "^" and left[:1] == "-" or rng.random() < 0.3:
            left = f"({left})"
        text = f"{left}{space}{op}{space}{grammar_text(rng, depth - 1)}"
    if rng.random() < 0.15:
        text = f"({text})"
    return text


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after zero to two random deletions, insertions, swaps or doublings."""
    chars = list(text)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(chars) + 1)
        action = rng.randrange(4)
        if action == 0 and i < len(chars):
            del chars[i]
        elif action == 1:
            chars.insert(i, rng.choice(FRAGMENTS))
        elif action == 2 and i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        elif i < len(chars):
            chars.insert(i, chars[i])
    return "".join(chars)


@functools.cache
def inputs() -> list[str]:
    rng = random.Random(RANDOM_SEED)
    texts = [random_text(rng) for _ in range(COUNT)]
    rng = random.Random(MUTATED_SEED)
    texts += [mutate(rng, grammar_text(rng, rng.randint(1, 6))) for _ in range(COUNT)]
    return texts


def tree_text(node) -> str:
    """Preorder walk of a tree on an explicit stack: long ``+`` chains are deep."""
    out = []
    todo = [node]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Number:
            out.append(node.value.hex())
        elif kind is Variable:
            out.append("x")
        elif kind is Constant:
            out.append(node.name)
        elif kind is Neg:
            out.append("neg")
            todo.append(node.operand)
        elif kind is Call:
            out.append(node.func)
            todo.append(node.arg)
        elif kind is BinOp:
            out.append(node.op)
            todo.append(node.right)
            todo.append(node.left)
        else:
            raise TypeError(f"not a tree node: {node!r}")
    return " ".join(out)


def outcome(text: str) -> str:
    try:
        expr = parse(text)
    except ParseError as err:
        return f"error {err.args[0]!r} {err.position} {err.expected!r}"
    return "tree " + tree_text(expr.root)


def block_digests(texts: list[str]) -> list[str]:
    digests = []
    for start in range(0, len(texts), BLOCK):
        h = hashlib.sha256()
        for text in texts[start : start + BLOCK]:
            h.update(f"{text!r} -> {outcome(text)}\n".encode())
        digests.append(h.hexdigest())
    return digests


def test_inputs_mix_trees_and_errors():
    texts = inputs()
    parsed = sum(outcome(text).startswith("tree") for text in texts)
    assert len(texts) == 2 * COUNT
    assert 0.2 * len(texts) < parsed < 0.8 * len(texts)


def test_every_block_of_trees_and_errors_is_unchanged():
    want = json.loads(DATA.read_text())["blocks"]
    got = block_digests(inputs())
    assert len(got) == len(want) == 2 * COUNT // BLOCK
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"inputs {i * BLOCK} to {(i + 1) * BLOCK - 1}"


if __name__ == "__main__":
    from pins import check_or_record

    sys.exit(check_or_record(DATA, {"blocks": block_digests(inputs())}))
