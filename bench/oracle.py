"""Independent evaluator of expression text, used to check the program.

It shares no code with ``twopoint.expressions``: text is turned into
reverse Polish notation by a shunting-yard pass and evaluated on an
explicit value stack, so deep expressions need no recursion.  Only values
are computed; derivatives are checked against central differences.
"""

from __future__ import annotations

import math
import re

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)|([A-Za-z_]\w*)|(\S))")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = frozenset(("abs", "atan", "cbrt", "cos", "exp", "ln", "log10", "sin", "sqrt", "tan"))
# binding power and associativity; "neg" is prefix minus, which binds
# tighter than * and / but looser than ^ (so -x^2 = -(x^2) and 2^-x = 2^(-x))
_BINARY = {"+": (1, True), "-": (1, True), "*": (2, True), "/": (2, True), "^": (4, False)}
_NEG_POWER = 3

_cbrt = getattr(math, "cbrt", None) or (lambda v: math.copysign(abs(v) ** (1.0 / 3.0), v))


class OracleError(ValueError):
    """Malformed text, or a value outside the real domain."""


def compile_rpn(text: str) -> tuple[tuple[str, object], ...]:
    """Reverse Polish program for ``text``; its length is the node count."""
    out: list[tuple[str, object]] = []
    ops: list[str] = []  # operators, "neg", "(" and function names
    expect_operand = True
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleError(f"bad token at {pos}")
        pos = m.end()
        number, name, sym = m.groups()
        if number is not None:
            if not expect_operand:
                raise OracleError(f"unexpected number at {pos}")
            out.append(("num", float(number)))
            expect_operand = False
        elif name is not None:
            if not expect_operand:
                raise OracleError(f"unexpected name at {pos}")
            if name == "x":
                out.append(("x", None))
                expect_operand = False
            elif name in _CONSTANTS:
                out.append(("num", _CONSTANTS[name]))
                expect_operand = False
            elif name in _FUNCTIONS:
                nxt = _TOKEN.match(text, pos)
                if nxt is None or nxt.group(3) != "(":
                    raise OracleError(f"function {name} needs '('")
                ops.append(name)
            else:
                raise OracleError(f"unknown name {name!r}")
        elif sym == "(":
            if not expect_operand:
                raise OracleError(f"unexpected '(' at {pos}")
            ops.append("(")
        elif sym == ")":
            if expect_operand:
                raise OracleError(f"unexpected ')' at {pos}")
            while ops and ops[-1] != "(":
                out.append(_pop(ops))
            if not ops:
                raise OracleError("unbalanced ')'")
            ops.pop()
            if ops and ops[-1] in _FUNCTIONS:
                out.append(("fn", ops.pop()))
        elif sym in _BINARY:
            if expect_operand:
                if sym != "-":
                    raise OracleError(f"unexpected {sym!r} at {pos}")
                ops.append("neg")
                continue
            power, left = _BINARY[sym]
            while ops and ops[-1] != "(" and ops[-1] not in _FUNCTIONS:
                top = _NEG_POWER if ops[-1] == "neg" else _BINARY[ops[-1]][0]
                if top > power or (top == power and left):
                    out.append(_pop(ops))
                else:
                    break
            ops.append(sym)
            expect_operand = True
        else:
            raise OracleError(f"unexpected character {sym!r}")
    if expect_operand:
        raise OracleError("unexpected end of input")
    while ops:
        if ops[-1] == "(" or ops[-1] in _FUNCTIONS:
            raise OracleError("unbalanced '('")
        out.append(_pop(ops))
    return tuple(out)


def _pop(ops: list[str]) -> tuple[str, object]:
    op = ops.pop()
    return ("neg", None) if op == "neg" else ("bin", op)


def _binary(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise OracleError("division by zero")
        return a / b
    if a < 0.0 and b != math.floor(b):
        raise OracleError("negative base, fractional exponent")
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        raise OracleError("power out of range") from None


def _call(fn: str, v: float) -> float:
    if fn in ("ln", "log10", "sqrt"):
        if v < 0.0 or (v == 0.0 and fn != "sqrt"):
            raise OracleError(f"{fn} of {v!r}")
        return {"ln": math.log, "log10": math.log10, "sqrt": math.sqrt}[fn](v)
    if fn == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            raise OracleError("exp overflow") from None
    return _TOTAL[fn](v)


_KINKED = frozenset(("cbrt", "sqrt"))
# functions defined on the whole real line, called without a domain check
_TOTAL = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "atan": math.atan, "abs": abs, "cbrt": _cbrt}


def evaluate(rpn: tuple[tuple[str, object], ...], x: float, kinks: bool = False) -> float:
    """Value at ``x``; raises :class:`OracleError` outside the real domain.

    With ``kinks``, a cbrt or sqrt of exactly 0 raises too: its derivative
    is infinite there, although the value is defined.
    """
    stack: list[float] = []
    push, pop, isfinite = stack.append, stack.pop, math.isfinite
    for kind, arg in rpn:
        if kind == "num":
            v = arg
        elif kind == "x":
            v = x
        elif kind == "bin":
            b = pop()
            a = pop()
            # the three total operators inline; / and ^ need domain checks
            if arg == "+":
                v = a + b
            elif arg == "*":
                v = a * b
            elif arg == "-":
                v = a - b
            else:
                v = _binary(arg, a, b)
        elif kind == "neg":
            v = -pop()
        else:
            u = pop()
            if kinks and u == 0.0 and arg in _KINKED:
                raise OracleError(f"{arg} of 0, where its derivative is infinite")
            total = _TOTAL.get(arg)
            v = total(u) if total is not None else _call(arg, u)
        if not isfinite(v):
            raise OracleError("non-finite value")
        push(v)
    return pop()


def central_difference(rpn: tuple[tuple[str, object], ...], x: float, step: float = 1e-5) -> tuple[float, float]:
    """(derivative estimate, its truncation and round-off error scale)."""
    h = step * max(1.0, abs(x))
    f_plus, f_minus = evaluate(rpn, x + h), evaluate(rpn, x - h)
    half_plus, half_minus = evaluate(rpn, x + h / 2), evaluate(rpn, x - h / 2)
    coarse = (f_plus - f_minus) / (2 * h)
    fine = (half_plus - half_minus) / h
    # Richardson step: error of the fine estimate is about (fine - coarse) / 3
    return fine + (fine - coarse) / 3.0, abs(fine - coarse) + 1e-10 * max(abs(f_plus), abs(f_minus)) / h
