"""Parsing and evaluation of scalar expressions in the single variable ``x``.

An :class:`Expression` is an immutable tree built from numeric literals,
``x``, the named constants ``pi`` and ``e``, unary negation, the binary
operators ``+ - * / ^`` (``^`` binds tightest and is right-associative,
then unary minus, then ``* /``, then ``+ -``), and the one-argument
functions ``sin cos tan exp ln log10 atan sqrt cbrt abs``.

Evaluation is forward-mode automatic differentiation: every node carries a
(value, derivative) pair and the exact sum/product/quotient/chain rules
propagate both.  Leaving the real domain raises :class:`DomainError`
instead of producing NaN silently.  An expression is compiled into a chain
of closures on its first evaluation, and the chain is cached on it; a
subtree without ``x`` is worked out once then, and a constant right
operand is bound into its parent's rule as a (value, deriv) pair.
``parse`` shares one immutable leaf per name between trees.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from collections.abc import Callable
from functools import cached_property
from types import MethodType

__all__ = [
    "BinOp",
    "Call",
    "Constant",
    "DomainError",
    "Dual",
    "Expression",
    "Neg",
    "Number",
    "ParseError",
    "Variable",
    "eval_dual",
    "parse",
]

FUNCTIONS = ("abs", "atan", "cbrt", "cos", "exp", "ln", "log10", "sin", "sqrt", "tan")

_CONSTANTS = {"pi": math.pi, "e": math.e}

_LN10 = math.log(10.0)


class ParseError(ValueError):
    """Syntax or name error, with the character offset where it occurred."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


class DomainError(ValueError):
    """Evaluation left the real domain at some node.

    Raised for ln/log10 of a non-positive value, sqrt of a negative value,
    a negative base raised to a non-integer power, division by zero, a
    non-finite intermediate value, and a derivative that would be NaN.
    """

    def __init__(self, kind: str, arg: float):
        self.kind = kind
        self.arg = arg
        super().__init__(f"{kind} undefined for argument {arg!r}")


# --- syntax tree ------------------------------------------------------------


Number = namedtuple("Number", "value")  # value: a float
Variable = namedtuple("Variable", ())
Constant = namedtuple("Constant", "name")  # name: "pi" or "e"
Neg = namedtuple("Neg", "operand")  # operand: a node
BinOp = namedtuple("BinOp", "op left right")  # op: one of + - * / ^; left, right: nodes
Call = namedtuple("Call", "func arg")  # func: a name in FUNCTIONS; arg: a node

_Node = Number | Variable | Constant | Neg | BinOp | Call


class _Frozen:
    """Fields named in ``_fields``, set once by ``__init__``, with a repr in
    the form ``Name(field=value, ...)``, and equality and hashing over the
    fields with an instance of the same class only.  The outcomes and
    ``SolverConfig`` in ``solvers`` share it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}, got {values!r}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values())])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__: a SolverConfig is checked
        # again, and an Expression leaves its compiled chain behind
        return type(self), self._values()


class Expression(_Frozen):
    """Immutable parse tree of a real scalar function of ``x``."""

    _fields = ("root",)

    def __str__(self) -> str:
        return _render(self)

    def __hash__(self) -> int:
        # a node hashes as the tuple of its fields, each child standing in by
        # its hash, so equal trees hash equal without recursion at any depth
        done: list[int] = []
        for node in _postorder(self.root):
            kind = type(node)
            if kind is BinOp:
                right = done.pop()
                done[-1] = hash((node.op, done[-1], right))
            elif kind is Call:
                done[-1] = hash((node.func, done[-1]))
            elif kind is Neg:
                done[-1] = hash((done[-1],))
            else:
                done.append(hash(node))
        return done[0]

    @cached_property
    def _compiled(self) -> _Fn:
        # cached_property writes the instance __dict__ directly; eq, hash,
        # repr, pickle and copy read only the tree
        return _compile(self.root)


Dual = namedtuple("Dual", "value deriv")
Dual.__doc__ = """Value and derivative with respect to ``x`` at the evaluation point, two floats."""


# --- tokenizer --------------------------------------------------------------

# Each match skips " \t\r\n", the only whitespace, and captures one token:
# a number, a name, an operator or parenthesis, any other one character,
# or "" at the end of the text.  So findall returns the token texts, the
# last of them "" (and the one before it too, when the text ends in
# whitespace), and the parser reads each token's kind from its text.  \d
# admits every Unicode decimal digit, as float() does.  A token carries no
# position: _error works positions out from the matches when it raises.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*"
    r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*"
    r"|[-+*/^()]"
    r"|.|\Z)",
    re.DOTALL,
)

# the first characters of a name
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# the one-character tokens besides the decimal digits; any other character
# on its own is one that no token takes
_ONE_CHAR_TOKENS = _NAME_START | frozenset("+-*/^()")


def _error(text: str, index: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """The ParseError for ``message`` at the token ``index`` of ``text``.

    A character that no token takes is reported instead, the first such
    character anywhere in the text, so it comes before any grammar error.
    A digit that is not decimal (such as "²") or a lone "." is a
    malformed number.
    """
    starts = []
    for match in _TOKEN_RE.finditer(text):
        tok, position = match[1], match.start(1)
        if len(tok) == 1 and tok not in _ONE_CHAR_TOKENS and not tok.isdecimal():
            if tok.isdigit() or tok == ".":
                return ParseError("malformed number", position, ("digit",))
            return ParseError(f"unexpected character {tok!r}", position)
        starts.append(position)
    return ParseError(message, starts[index], expected)


# --- operator-precedence parser ---------------------------------------------

# Binding strength of each binary operator, for parse and _render alike; a
# unary minus binds at _NEG, and _render treats an atom as 5.  ^ is
# right-associative, the others left-associative.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = 3

_ATOM_EXPECTED = ("number", "'x'", "'pi'", "'e'", "function name", "'('")

# the leaves a name stands for; the nodes are immutable, so trees share them
_NAMED_LEAVES: dict[str, _Node] = {"x": Variable(), "pi": Constant("pi"), "e": Constant("e")}

_FUNCTION_NAMES = frozenset(FUNCTIONS)


def parse(text: str) -> Expression:
    """Parse expression text into the unique tree given by the grammar.

    One loop over the token texts, without recursion, so parentheses nest
    without limit.  It keeps parsed nodes on one stack and pending
    operators on another as (precedence, operator) pairs, with precedence
    from _PREC.  A unary minus is (_NEG, "neg"), and an open "(" or "func("
    is a marker, (0, "(") or (0, func), that no reduction passes.  The loop
    alternates between expecting an operand and expecting an operator.
    A binary operator first reduces the stacked operators that bind at
    least as tightly; ^ reduces only tighter ones, so it stays
    right-associative and its exponent may begin with a unary minus.
    The tokens carry no positions; an error works out its position from
    the text as it is raised, in _error.
    """
    tokens = _TOKEN_RE.findall(text)
    nodes: list[_Node] = []
    ops: list[tuple[int, str]] = []
    i = 0
    while True:
        # expect an operand: unary minuses and openings, then an atom
        tok = tokens[i]
        i += 1
        if tok == "(":
            ops.append((0, "("))
            continue
        if tok in _FUNCTION_NAMES:
            if tokens[i] != "(":
                raise _error(text, i, f"function {tok!r} needs an argument list", ("'('",))
            ops.append((0, tok))
            i += 1
            continue
        if tok == "-":
            ops.append((_NEG, "neg"))
            continue
        if tok in _NAMED_LEAVES:
            nodes.append(_NAMED_LEAVES[tok])
        elif tok[:1] in _NAME_START:
            raise _error(text, i - 1, f"unknown identifier {tok!r}")
        else:
            # float reads every number token; of the others it would read
            # only the names inf, nan and infinity, taken just above
            try:
                value = float(tok)
            except ValueError:
                message = f"unexpected {tok!r}" if tok else "unexpected end of input"
                raise _error(text, i - 1, message, _ATOM_EXPECTED) from None
            if not math.isfinite(value):
                raise _error(text, i - 1, "number literal out of range")
            nodes.append(Number(value))
        # expect an operator; a ")" closes a group and expects another
        while True:
            tok = tokens[i]
            i += 1
            prec = _PREC.get(tok)
            bound = 1 if prec is None else prec + (tok == "^")
            while ops and ops[-1][0] >= bound:
                op = ops.pop()[1]
                if op == "neg":
                    nodes[-1] = Neg(nodes[-1])
                else:
                    right = nodes.pop()
                    nodes[-1] = BinOp(op, nodes[-1], right)
            if prec is not None:
                ops.append((prec, tok))
                break
            if not ops:
                if not tok:
                    return Expression(nodes[0])
                raise _error(text, i - 1, f"unexpected {tok!r} after expression")
            if tok != ")":
                raise _error(text, i - 1, "unbalanced parenthesis", ("')'",))
            opened = ops.pop()[1]
            if opened != "(":
                nodes[-1] = Call(opened, nodes[-1])


# --- rendering --------------------------------------------------------------


def _num_text(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _postorder(root: _Node) -> list[_Node]:
    """Every node of the tree in post-order: left subtree, right subtree, node.

    Built without recursion: the loop lists each node before its
    descendants, a right subtree before its left sibling, and the list is
    then reversed.
    """
    order: list[_Node] = []
    todo = [root]
    while todo:
        node = todo.pop()
        order.append(node)
        kind = type(node)
        if kind is BinOp:
            todo.append(node.left)
            todo.append(node.right)
        elif kind is Call:
            todo.append(node.arg)
        elif kind is Neg:
            todo.append(node.operand)
    order.reverse()
    return order


def _operand(rendered: tuple[str, int], required: int) -> str:
    """The text of a rendered (text, precedence) pair, in parentheses when
    it binds less tightly than ``required``."""
    text, prec = rendered
    return f"({text})" if prec < required else text


def _render(expr: Expression) -> str:
    """Canonical text form; ``parse(str(e))`` reproduces parser-built trees.

    Builds (text, precedence) pairs on a stack in post-order, without
    recursion; an atom or a call has precedence 5.
    """
    done: list[tuple[str, int]] = []
    for node in _postorder(expr.root):
        kind = type(node)
        if kind is BinOp:
            right = done.pop()
            prec = _PREC[node.op]
            if node.op == "^":
                # left operand must be an atom, right may chain (right-assoc)
                text = f"{_operand(done[-1], 5)}^{_operand(right, _NEG)}"
            else:
                text = f"{_operand(done[-1], prec)} {node.op} {_operand(right, prec + 1)}"
            done[-1] = (text, prec)
        elif kind is Call:
            done[-1] = (f"{node.func}({done[-1][0]})", 5)
        elif kind is Neg:
            done[-1] = ("-" + _operand(done[-1], _NEG), _NEG)
        elif kind is Variable:
            done.append(("x", 5))
        elif kind is Constant:
            done.append((node.name, 5))
        else:
            done.append((_num_text(node.value), 5))
    return done[0][0]


# --- evaluation -------------------------------------------------------------
#
# An Expression compiles once, on its first evaluation, into a chain of
# closures, each a callable x -> (value, deriv).  A node's closure is the
# rule for its kind bound with MethodType to its children's closures; the
# rule calls them, left before right, and applies the sum, product,
# quotient or chain rule.  The closures do what a recursive walk of the tree
# would do, float operation for float operation.  A bound method is cheaper
# to create, call and free than a nested function.
#
# The chain keeps only the nodes that read x.  A subtree without x is
# folded when compiling: its rule runs once on its children's (value,
# deriv) pairs, so it costs no call per evaluation and no level of
# recursion.  Each BinOp rule takes its right operand either as a closure
# or, when that operand folded, as the bound pair itself, which it reads
# without a call; one rule per operator serves both.  A subtree whose rule
# raises DomainError is not folded, so it raises at each evaluation, in the
# order the walk reaches it.  The chain is cached on the Expression, never
# on a node, so trees may share parse's leaf nodes.
#
# Each rule raises DomainError(operator or function name, left or argument
# value) only for the failures its own arithmetic can produce.  x and the
# constants are finite, and every rule returns a finite value and a
# derivative that is not NaN, so every rule is given such operands:
# - a non-finite value can arise only in + - * /; exp and ^ raise on
#   OverflowError, and the other functions are bounded on their domains;
# - a NaN derivative only where an infinite derivative meets 0 or inf: cos
#   (-sin(0) * inf), exp (an underflowed e * inf), log10 and atan (inf over
#   a denominator that overflowed), abs (inf * 0.0) and ^ (0 * inf, or
#   inf * log(1)); these and + - * / test d != d;
# - sin, tan, ln, sqrt and cbrt test nothing: cos is nonzero at every float,
#   tan is finite and c * c above about 1e-37 at every float, ln divides by
#   uv > 0, sqrt by 2 * s > 0 and cbrt by 3 * c * c >= 8.7e-216, and sqrt
#   and cbrt at 0 take _zero_deriv_blowup.

_Fn = Callable[[float], tuple[float, float]]
_isfinite = math.isfinite
_FLOAT_MIN = sys.float_info.min  # the smallest normal float


def _cbrt(v: float) -> float:
    """Real signed cube root, exact on perfect cubes."""
    if v == 0.0:
        return math.copysign(0.0, v)
    c = math.copysign(abs(v) ** (1.0 / 3.0), v)
    # one Newton polish tightens the last ulp without overflow
    return (2.0 * c + v / (c * c)) / 3.0


def _zero_deriv_blowup(d: float) -> float:
    # derivative of sqrt/cbrt at an interior zero of the argument
    return 0.0 if d == 0.0 else math.copysign(math.inf, d)


# leaves and negation


def _dual_x(x):
    return x, 1.0


def _dual_constant(pair, x):
    return pair


def _dual_non_finite(value, x):
    raise DomainError("number", value)


def _dual_neg(operand, x):
    v, d = operand(x)
    return -v, -d


# BinOp rules, bound to (left, right, rv, rd): right is the right operand's
# closure, or None when that operand folded to the pair (rv, rd)


def _dual_add(bound, x):
    left, right, rv, rd = bound
    lv, ld = left(x)
    if right is not None:
        rv, rd = right(x)
    v, d = lv + rv, ld + rd
    if not _isfinite(v) or d != d:
        raise DomainError("+", lv)
    return v, d


def _dual_sub(bound, x):
    left, right, rv, rd = bound
    lv, ld = left(x)
    if right is not None:
        rv, rd = right(x)
    v, d = lv - rv, ld - rd
    if not _isfinite(v) or d != d:
        raise DomainError("-", lv)
    return v, d


def _dual_mul(bound, x):
    left, right, rv, rd = bound
    lv, ld = left(x)
    if right is not None:
        rv, rd = right(x)
    v, d = lv * rv, ld * rv + lv * rd
    if not _isfinite(v) or d != d:
        raise DomainError("*", lv)
    return v, d


def _dual_div(bound, x):
    left, right, rv, rd = bound
    lv, ld = left(x)
    if right is not None:
        rv, rd = right(x)
    if rv == 0.0:
        raise DomainError("/", lv)
    v = lv / rv
    den = rv * rv
    if den >= _FLOAT_MIN:
        d = (ld * rv - lv * rd) / den
    else:
        # rv*rv is subnormal or 0 (|rv| below about 1.5e-154): dividing by
        # rv alone keeps a finite f' finite
        d = (ld - v * rd) / rv
    if not _isfinite(v) or d != d:
        raise DomainError("/", lv)
    return v, d


def _dual_pow(bound, x):
    left, right, pv, pd = bound
    uv, ud = left(x)
    if right is not None:
        pv, pd = right(x)
    if pd == 0.0:
        # constant exponent: power rule
        if uv < 0.0 and pv != int(pv):
            raise DomainError("^", uv)
        try:
            v = uv**pv
        except (OverflowError, ZeroDivisionError):
            raise DomainError("^", uv) from None
        if ud == 0.0 or pv == 0.0:
            d = 0.0
        else:
            try:
                d = pv * uv ** (pv - 1.0) * ud
            except OverflowError:
                raise DomainError("^", uv) from None
            except ZeroDivisionError:
                # 0^p with 0 < p < 1: derivative blows up like sqrt at 0
                d = math.copysign(math.inf, pv * ud)
    else:
        # variable exponent: u^p = exp(p ln u), real only for u > 0
        if uv <= 0.0:
            raise DomainError("^", uv)
        try:
            v = uv**pv
        except OverflowError:
            raise DomainError("^", uv) from None
        d = v * (pd * math.log(uv) + pv * ud / uv)
    if d != d:
        raise DomainError("^", uv)
    return v, d


# Call rules, bound to the argument


def _dual_sin(arg, x):
    uv, ud = arg(x)
    return math.sin(uv), math.cos(uv) * ud


def _dual_cos(arg, x):
    uv, ud = arg(x)
    v, d = math.cos(uv), -math.sin(uv) * ud
    if d != d:
        raise DomainError("cos", uv)
    return v, d


def _dual_tan(arg, x):
    uv, ud = arg(x)
    c = math.cos(uv)
    return math.tan(uv), ud / (c * c)


def _dual_exp(arg, x):
    uv, ud = arg(x)
    try:
        e = math.exp(uv)
    except OverflowError:
        raise DomainError("exp", uv) from None
    d = e * ud
    if d != d:
        raise DomainError("exp", uv)
    return e, d


def _dual_ln(arg, x):
    uv, ud = arg(x)
    if uv <= 0.0:
        raise DomainError("ln", uv)
    return math.log(uv), ud / uv


def _dual_log10(arg, x):
    uv, ud = arg(x)
    if uv <= 0.0:
        raise DomainError("log10", uv)
    v, d = math.log10(uv), ud / (uv * _LN10)
    if d != d:
        raise DomainError("log10", uv)
    return v, d


def _dual_atan(arg, x):
    uv, ud = arg(x)
    v, d = math.atan(uv), ud / (1.0 + uv * uv)
    if d != d:
        raise DomainError("atan", uv)
    return v, d


def _dual_sqrt(arg, x):
    uv, ud = arg(x)
    if uv < 0.0:
        raise DomainError("sqrt", uv)
    s = math.sqrt(uv)
    return s, _zero_deriv_blowup(ud) if uv == 0.0 else ud / (2.0 * s)


def _dual_cbrt(arg, x):
    uv, ud = arg(x)
    c = _cbrt(uv)
    return c, _zero_deriv_blowup(ud) if uv == 0.0 else ud / (3.0 * c * c)


def _dual_abs(arg, x):
    uv, ud = arg(x)
    v, d = abs(uv), ud * (1.0 if uv > 0.0 else -1.0 if uv < 0.0 else 0.0)
    if d != d:
        raise DomainError("abs", uv)
    return v, d


_BINOP_RULES = {"+": _dual_add, "-": _dual_sub, "*": _dual_mul, "/": _dual_div, "^": _dual_pow}
_CALL_RULES = {
    "sin": _dual_sin,
    "cos": _dual_cos,
    "tan": _dual_tan,
    "exp": _dual_exp,
    "ln": _dual_ln,
    "log10": _dual_log10,
    "atan": _dual_atan,
    "sqrt": _dual_sqrt,
    "cbrt": _dual_cbrt,
    "abs": _dual_abs,
}


def _chain(item: _Fn | tuple[float, float]) -> _Fn:
    return MethodType(_dual_constant, item) if type(item) is tuple else item


def _compile(root: _Node) -> _Fn:
    """Closure chain of a tree, built without recursion: the closures are
    built on a stack in post-order, where a folded subtree is a pair."""
    built: list[_Fn | tuple[float, float]] = []
    for node in _postorder(root):
        kind = type(node)
        if kind is BinOp:
            right = built.pop()
            left = built[-1]
            if type(right) is tuple:
                folds, bound = type(left) is tuple, (_chain(left), None, *right)
            else:
                folds, bound = False, (_chain(left), right, 0.0, 0.0)
            rule = _BINOP_RULES[node.op]
        elif kind is Call or kind is Neg:
            rule = _dual_neg if kind is Neg else _CALL_RULES[node.func]
            bound = built[-1]
            folds = type(bound) is tuple
            if folds:
                bound = MethodType(_dual_constant, bound)
        elif kind is Variable:
            built.append(_dual_x)
            continue
        else:
            value = node.value if kind is Number else _CONSTANTS[node.name]
            # a non-finite literal raises when evaluated, not here
            built.append((value, 0.0) if _isfinite(value) else MethodType(_dual_non_finite, value))
            continue
        try:  # a rule on pairs alone runs now; one that raises stays a chain
            built[-1] = rule(bound, 0.0) if folds else MethodType(rule, bound)
        except DomainError:
            built[-1] = MethodType(rule, bound)
    return _chain(built[0])


def eval_dual(expr: Expression, x: float) -> Dual:
    """Evaluate value and derivative at ``x``.

    A non-finite derivative (e.g. cbrt at 0) is returned as-is when it is
    the final result; it raises :class:`DomainError` only when consumed by
    further arithmetic, where it would degrade into NaN.
    """
    if not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x!r}")
    v, d = expr._compiled(x)
    return Dual(v, d)
