import copy
import math
import pickle
import random
import struct
import subprocess
import sys
import threading
from types import MethodType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_eval_pins import CONSTANT_VALUES, X_POINTS

from twopoint.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    Constant,
    DomainError,
    Dual,
    Expression,
    Neg,
    Number,
    ParseError,
    Variable,
    eval_dual,
    parse,
    _BINOP_RULES,
    _CALL_RULES,
    _CONSTANTS,
    _cbrt,
    _dual_constant,
    _dual_neg,
    _dual_non_finite,
    _dual_x,
)


def test_parse_variable_identity():
    assert parse("x") == Expression(Variable())


def test_parse_table_polynomial_structure():
    got = parse("sin(x)^2 - x^2 + 1")
    sin_sq = BinOp("^", Call("sin", Variable()), Number(2.0))
    x_sq = BinOp("^", Variable(), Number(2.0))
    want = BinOp("+", BinOp("-", sin_sq, x_sq), Number(1.0))
    assert got == Expression(want)


def test_power_is_right_associative():
    assert eval_dual(parse("2^3^2"), 0.0).value == 512.0
    assert eval_dual(parse("(2^3)^2"), 0.0).value == 64.0


def test_unary_minus_binds_looser_than_power():
    assert eval_dual(parse("-2^2"), 0.0).value == -4.0
    assert eval_dual(parse("2^-2"), 0.0).value == 0.25


@pytest.mark.parametrize(
    "text,value",
    [
        ("1e-4", 1e-4),
        ("2.5E+3", 2500.0),
        (".5", 0.5),
        ("2.", 2.0),
        ("pi", math.pi),
        ("e", math.e),
    ],
)
def test_literals_and_constants(text, value):
    d = eval_dual(parse(text), 1.7)
    assert d.value == value
    assert d.deriv == 0.0


def test_variable_has_unit_derivative():
    assert eval_dual(parse("x"), 2.5) == Dual(2.5, 1.0)


def test_power_rule():
    d = eval_dual(parse("x^2"), 3.0)
    assert d.value == 9.0
    assert d.deriv == 6.0


def test_bell_curve_value_and_derivative():
    # hand differentiation: d/dx [10 x e^(-x^2)] = 10 e^(-x^2) (1 - 2 x^2)
    d = eval_dual(parse("10*x*exp(-x^2) - 1"), 1.0)
    assert d.value == pytest.approx(10.0 * math.exp(-1.0) - 1.0, rel=1e-15)
    assert d.deriv == pytest.approx(-10.0 * math.exp(-1.0), rel=1e-15)


def test_log_of_negative_is_domain_error():
    with pytest.raises(DomainError) as info:
        eval_dual(parse("ln(x)"), -1.0)
    assert info.value.kind == "ln"
    assert info.value.arg == -1.0


@pytest.mark.parametrize(
    "text,x,kind",
    [
        ("log10(x)", 0.0, "log10"),
        ("sqrt(x)", -4.0, "sqrt"),
        ("x^0.5", -2.0, "^"),
        ("1/x", 0.0, "/"),
        ("exp(x)", 1000.0, "exp"),
        ("x^x", -2.0, "^"),
    ],
)
def test_domain_errors(text, x, kind):
    with pytest.raises(DomainError) as info:
        eval_dual(parse(text), x)
    assert info.value.kind == kind


def test_cbrt_is_real_signed_root():
    assert eval_dual(parse("cbrt(x)"), -8.0).value == -2.0
    assert eval_dual(parse("cbrt(x)"), 27.0).value == 3.0


def test_cbrt_at_zero_returns_infinite_derivative():
    d = eval_dual(parse("cbrt(x)"), 0.0)
    assert d.value == 0.0
    assert d.deriv == math.inf


def test_consumed_infinite_derivative_is_domain_error():
    # cbrt(x)^2 at 0 would produce a 0 * inf derivative
    with pytest.raises(DomainError):
        eval_dual(parse("cbrt(x)^2"), 0.0)


def test_overflowed_denominator_of_an_infinite_derivative_is_domain_error():
    # sqrt at 0 hands log10 an infinite derivative, and uv * ln(10) overflows
    with pytest.raises(DomainError) as info:
        eval_dual(parse("log10(1e308 + sqrt(x))"), 0.0)
    assert (info.value.kind, info.value.arg) == ("log10", 1e308)


def test_negative_base_integer_power_is_fine():
    d = eval_dual(parse("x^3"), -2.0)
    assert d.value == -8.0
    assert d.deriv == 12.0


def test_variable_exponent():
    d = eval_dual(parse("x^x"), 2.0)
    assert d.value == 4.0
    assert d.deriv == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-14)


def test_quotient_rule():
    d = eval_dual(parse("sin(x)/x"), 2.0)
    want = (math.cos(2.0) * 2.0 - math.sin(2.0)) / 4.0
    assert d.deriv == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("x", [1e-161, 1e-162, 1e-300])
def test_quotient_rule_with_underflowing_denominator(x):
    # rv*rv is subnormal at 1e-161 and 0 below; either way f' is -inf
    d = eval_dual(parse("1/x"), x)
    assert d.value == 1.0 / x
    assert d.deriv == -math.inf
    d = eval_dual(parse("1/x"), -x)
    assert d.deriv == -math.inf


@pytest.mark.parametrize("x", [-3.0, -1e-300, 0.0, 1e-300, 0.5, 7.0])
def test_division_by_tiny_constant(x):
    d = eval_dual(parse("x/1e-170"), x)
    assert d.value == x / 1e-170
    assert d.deriv == 1.0 / 1e-170


def test_underflowing_quotient_rule_with_zero_numerator_is_zero():
    # (x - x)/x: rv*rv underflows to 0, and dividing by rv alone gives the
    # true value and derivative
    d = eval_dual(parse("(x - x)/x"), 1e-170)
    assert (d.value, d.deriv) == (0.0, 0.0)


def test_determinism():
    # two expressions, so the second evaluation runs its chain, not the memo
    a = eval_dual(parse("sin(x) * exp(x) + ln(x^2 + 1)"), 0.37)
    b = eval_dual(parse("sin(x) * exp(x) + ln(x^2 + 1)"), 0.37)
    assert (a.value, a.deriv) == (b.value, b.deriv)


def test_eval_requires_finite_point():
    # an int beyond the float range is as non-finite as inf
    for x in (math.inf, math.nan, 10**400, -(10**400)):
        with pytest.raises(ValueError):
            eval_dual(parse("x"), x)


def test_an_int_point_is_taken_as_its_float():
    for text in ("x", "x^2 - 2", "7"):
        got = eval_dual(parse(text), 3)
        assert [type(v) for v in got] == [float, float], text
        _assert_bit_identical(got, eval_dual(parse(text), 3.0))


# --- errors carry positions ---------------------------------------------------


def test_unbalanced_paren_position():
    with pytest.raises(ParseError) as info:
        parse("x^(")
    assert info.value.position == 3


def test_unknown_identifier():
    with pytest.raises(ParseError) as info:
        parse("2*y + 1")
    assert "y" in str(info.value)
    assert info.value.position == 2


def test_function_without_argument_list():
    with pytest.raises(ParseError) as info:
        parse("sin + 1")
    assert info.value.expected == ("'('",)


def test_trailing_garbage():
    with pytest.raises(ParseError) as info:
        parse("1 + 2 )")
    assert info.value.position == 6


def test_double_caret_rejected():
    with pytest.raises(ParseError):
        parse("x^^2")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("")


@pytest.mark.parametrize("text,position", [("\u00e9", 0), ("x+\u00e9", 2), ("sin(\u03c0)", 4)])
def test_non_ascii_letter_is_unexpected_character(text, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"unexpected character {text[position]!r} at position {position}"
    assert info.value.position == position
    assert info.value.expected == ()


@pytest.mark.parametrize("text,position", [("x + ) \u00e9", 6), ("1e400 $", 6), ("sin x \u00e9", 6)])
def test_a_character_no_token_takes_is_reported_before_any_grammar_error(text, position):
    # a grammar error or an out-of-range literal comes earlier in each text
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"unexpected character {text[position]!r} at position {position}"


@pytest.mark.parametrize("text,position", [("\x0b", 0), ("x\x0c", 1), ("\u00a0x", 0), ("x +\u2003x", 3)])
def test_whitespace_other_than_space_tab_cr_lf_is_an_unexpected_character(text, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"unexpected character {text[position]!r} at position {position}"


@pytest.mark.parametrize("text", ["x +  ", "x +\t\n", "", "  \r\n"])
def test_end_of_input_is_at_the_length_of_the_text(text):
    # trailing whitespace goes before the end, not after it
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).startswith(f"unexpected end of input at position {len(text)} ")
    assert info.value.position == len(text)


def test_whitespace_may_part_a_function_from_its_argument_list():
    assert parse("sin (x)") == parse("sin(x)") == Expression(Call("sin", Variable()))
    assert parse(" \tsin\n(\rx ) ") == parse("sin(x)")


def test_unicode_decimal_digits_are_numbers():
    # \d and float() both accept any Unicode decimal digit
    assert parse("\u0663.5") == Expression(Number(3.5))


@pytest.mark.parametrize("text,position", [("\u00b2", 0), ("x + .", 4), ("2*.e3", 2)])
def test_malformed_number(text, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).startswith("malformed number")
    assert info.value.position == position
    assert info.value.expected == ("digit",)


# --- rendering ----------------------------------------------------------------


def test_render_variable():
    assert str(parse("x")) == "x"


def test_render_strips_redundant_parens():
    assert str(parse("((x))")) == "x"


def test_render_spacing_convention():
    assert str(parse("x - 3*ln(x)")) == "x - 3 * ln(x)"


@pytest.mark.parametrize(
    "text,want",
    [
        ("(x+1)*2", "(x + 1) * 2"),
        ("(x^2)^3", "(x^2)^3"),
        ("2^3^2", "2^3^2"),
        ("-(x+1)", "-(x + 1)"),
        ("-x^2", "-x^2"),
        ("(-x)^2", "(-x)^2"),
        ("x - (1 - x)", "x - (1 - x)"),
        ("x / (2 * x)", "x / (2 * x)"),
        ("0.5*x", "0.5 * x"),
        ("1e-4 + x", "0.0001 + x"),
    ],
)
def test_render_minimal_parens(text, want):
    assert str(parse(text)) == want


@pytest.mark.parametrize(
    "text",
    ["-" * 5000 + "x", " + ".join(["x"] + ["1"] * 2999)],
    ids=["5000-minuses", "3000-term-sum"],
)
def test_render_deep_tree_without_recursion(text):
    assert str(parse(text)) == text


def test_hash_of_a_deep_expression_does_not_crash():
    # in a child process, which a crash ends instead of the test runner
    script = "from twopoint.expressions import parse; t = '-' * 200000 + 'x'; print(hash(parse(t)) == hash(parse(t)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


@pytest.mark.parametrize(
    "text",
    [
        "x",
        "sin(x)^2 - x^2 + 1",
        "(x - 2) * (x + 2)^4",
        "10*x*exp(-x^2) - 1",
        "0.5*x^3 - 6*x^2 + 21.5*x - 22",
        "-x^4 + 3*x^2 + 2",
        "2^3^2",
        "-(x + pi) / (e - x)",
        "cbrt(x) + sqrt(x) + abs(x) + atan(x) + tan(x) + cos(x) + log10(x)",
        "x^-2 - -x",
    ],
)
def test_round_trip(text):
    tree = parse(text)
    assert parse(str(tree)) == tree


def test_parentheses_nest_without_limit():
    assert parse("(" * 5000 + "x - 1" + ")" * 5000) == parse("x - 1")
    node = parse("-" * 5000 + "x").root
    for _ in range(5000):
        node = node.operand
    assert node == Variable()


def test_round_trip_over_builtin_corpus():
    from twopoint.corpus import builtin_problems

    for prob in builtin_problems():
        tree = parse(prob.source)
        assert parse(str(tree)) == tree, prob.source


@pytest.mark.parametrize("value,text", [(3.0, "3"), (0.5, "0.5"), (1e-4, "0.0001"), (1e16, "1e+16")])
def test_number_rendering(value, text):
    assert str(Expression(Number(value))) == text
    assert parse(text) == Expression(Number(value))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_renders_as_its_repr(value):
    # such a tree is not parser-built, so no round trip is promised
    expr = Expression(BinOp("+", Variable(), Number(value)))
    assert str(expr) == f"x + {value!r}"


# each builtin function with its math reference and in-domain points
_FUNCTION_REFERENCES = {
    "abs": (abs, (-2.5, 0.75)),
    "atan": (math.atan, (-1.5, 0.3, 4.0)),
    "cbrt": (_cbrt, (-8.0, 0.2, 5.0)),
    "cos": (math.cos, (-2.0, 0.4, 3.0)),
    "exp": (math.exp, (-3.0, 0.5, 2.0)),
    "ln": (math.log, (0.2, 1.5, 40.0)),
    "log10": (math.log10, (0.05, 2.0, 300.0)),
    "sin": (math.sin, (-1.2, 0.4, 2.5)),
    "sqrt": (math.sqrt, (0.3, 2.0, 90.0)),
    "tan": (math.tan, (-1.0, 0.2, 1.3)),
}


@pytest.mark.parametrize("name", FUNCTIONS)
def test_function_rule_matches_math_and_central_difference(name):
    reference, points = _FUNCTION_REFERENCES[name]
    expr = parse(f"{name}(x)")
    for x in points:
        got = eval_dual(expr, x)
        assert got.value == reference(x)
        h = 1e-5 * max(1.0, abs(x))
        assert math.isclose(got.deriv, (reference(x + h) - reference(x - h)) / (2 * h), rel_tol=1e-6)


# --- compiled chains against unfolded chains of the same rules ------------


def _reference_chain(node):
    """The chain of the same rules with no subtree folded: every operand is a closure."""
    kind = type(node)
    if kind is BinOp:
        return MethodType(_BINOP_RULES[node.op], (_reference_chain(node.left), _reference_chain(node.right), 0.0, 0.0))
    if kind is Call:
        return MethodType(_CALL_RULES[node.func], _reference_chain(node.arg))
    if kind is Neg:
        return MethodType(_dual_neg, _reference_chain(node.operand))
    if kind is Variable:
        return _dual_x
    value = node.value if kind is Number else _CONSTANTS[node.name]
    if math.isfinite(value):
        return MethodType(_dual_constant, (value, 0.0))
    return MethodType(_dual_non_finite, value)


def _hex(v: float) -> str:
    return struct.pack(">d", v).hex()


def _outcome(evaluate, x):
    """(value bits, derivative bits), or the DomainError's kind and argument bits."""
    try:
        v, d = evaluate(x)
    except DomainError as err:
        return ("DomainError", err.kind, _hex(err.arg))
    return (_hex(v), _hex(d))


def _assert_matches_reference(expr, xs):
    def evaluate(x):
        dual = eval_dual(expr, x)
        return dual.value, dual.deriv

    reference = _reference_chain(expr.root)
    for x in xs:
        assert _outcome(evaluate, x) == _outcome(reference, x), (expr, x)


_CONSTANT_LEAVES = st.one_of(
    st.sampled_from([Constant("pi"), Constant("e")]),
    st.sampled_from(CONSTANT_VALUES).map(Number),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).map(Number),
)


def _constant_rich(depth: int):
    leaf = st.one_of(st.just(Variable()), _CONSTANT_LEAVES, _CONSTANT_LEAVES)
    if depth == 0:
        return leaf
    child = _constant_rich(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Neg, child),
        st.builds(Call, st.sampled_from(FUNCTIONS), child),
        st.builds(BinOp, st.sampled_from("+-*/^"), child, child),
        st.builds(BinOp, st.sampled_from("+-*/^"), child, _CONSTANT_LEAVES),
    )


@given(_constant_rich(5).map(Expression))
@settings(derandomize=True, deadline=None, max_examples=1500)
def test_compiled_chain_matches_generic_rules_bit_for_bit(expr):
    _assert_matches_reference(expr, X_POINTS)
    # the chain parse builds as it reads, against its tree read afterwards;
    # an infinite literal renders as inf, a name parse rejects
    text = str(expr)
    if "inf" not in text:
        _assert_matches_reference(parse(text), X_POINTS)


_EDGE_CASES = [
    "-(0) * x",
    "x * -(0)",
    "x - -(0)",
    "x + -(0)",
    "ln(0 - 1) + x",
    "x / (1 - 1)",
    "x / -(0.5)",
    "x^0",
    "x^0.5",
    "(-x)^0.5",
    "x^-1",
    "(0 - 2)^x",
    "x^(1/3)",
    "sin(x)^-(0.5)",
    "(x * 1e200)^2",
]


@pytest.mark.parametrize(
    "expr",
    [pytest.param(parse(text), id=text) for text in _EDGE_CASES]
    + [pytest.param(Expression(BinOp("+", Variable(), Number(math.inf))), id="x + inf")],
)
def test_specialized_rules_match_generic_rules_at_edges(expr):
    _assert_matches_reference(expr, X_POINTS)


# --- the compiled form cached on each Expression ---------------------------


def _assert_bit_identical(first, second):
    assert first == second
    assert _hex(first.value) == _hex(second.value)
    assert _hex(first.deriv) == _hex(second.deriv)


def test_parse_compiles_and_reads_its_tree_on_first_use():
    text = "sin(x) * exp(x) + ln(x^2 + 1) - x^x / cbrt(x)"
    expr = parse(text)
    assert "_compiled" in vars(expr) and "root" not in vars(expr)
    chain = vars(expr)["_compiled"]
    first = eval_dual(expr, 0.37)
    assert "root" not in vars(expr)
    sin_exp = BinOp("*", Call("sin", Variable()), Call("exp", Variable()))
    ln_term = Call("ln", BinOp("+", BinOp("^", Variable(), Number(2.0)), Number(1.0)))
    quotient = BinOp("/", BinOp("^", Variable(), Variable()), Call("cbrt", Variable()))
    tree = BinOp("-", BinOp("+", sin_exp, ln_term), quotient)
    assert expr.root == tree
    assert vars(expr)["root"] is expr.root
    _assert_bit_identical(first, eval_dual(expr, 0.37))
    assert vars(expr)["_compiled"] is chain

    built = Expression(tree)
    assert "_compiled" not in vars(built)  # built by hand: compiled on first evaluation
    _assert_bit_identical(eval_dual(built, 0.37), first)
    chain = vars(built)["_compiled"]
    _assert_bit_identical(eval_dual(built, 0.37), first)
    assert vars(built)["_compiled"] is chain


def test_cached_expression_still_equals_a_fresh_parse():
    text = "(x - 2) * (x + 2)^4 + atan(x)"
    used = parse(text)
    eval_dual(used, 1.5)
    fresh = parse(text)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert str(used) == str(fresh)


def test_evaluated_expression_pickles_and_copies_as_its_tree():
    expr = parse("x * exp(-x^2) / cbrt(x + 3)")
    want = eval_dual(expr, 0.7)
    for clone in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr), copy.copy(expr)):
        assert clone == expr
        assert eval_dual(clone, 0.7) == want


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_raises_on_every_call(value):
    expr = Expression(Number(value))
    for _ in range(3):
        with pytest.raises(DomainError) as info:
            eval_dual(expr, 1.0)
        assert info.value.kind == "number"
        assert _hex(info.value.arg) == _hex(value)


# --- the invariant each rule keeps and relies on -----------------------------


_MAX = sys.float_info.max


def _rule_arguments() -> list[float]:
    """Finite floats where the rules' arithmetic meets its limits, both signs:
    zero, the subnormals and the largest float, powers of two across the
    range, exp's overflow and underflow edges, the doubles next to k*pi/2,
    the double closest to a multiple of pi/2 of all, where |cos| is about
    4.7e-19, and random bit patterns."""
    args = [0.0, 1.0, 1.0000000000000002, 1e154, 1.5e-154, 709.78, 709.79, 745.1, 745.2]
    args += [5e-324, sys.float_info.min, _MAX, 6381956970095103 * 2.0**797]
    args += [2.0**e for e in range(-1074, 1024, 37)]
    for k in range(1, 41):
        x = k * math.pi / 2
        args += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    rng = random.Random(18)
    while len(args) < 500:
        (v,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
        if math.isfinite(v):
            args.append(abs(v))
    return args + [-v for v in args]


_RULE_DERIVS = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300, _MAX, -_MAX, math.inf, -math.inf)
# right operands for the BinOp rules, among them ^'s constant (derivative 0)
# and variable exponents
_RULE_RIGHT_VALUES = (0.0, 1.0, 2.0, 3.0, -1.0, 0.5, -0.5, 1 / 3, 1e300, -1e300, 5e-324, 1024.0)
_RULE_RIGHT_DERIVS = (0.0, 1.0, -1.0, 5e-324, 1e300, math.inf, -math.inf)


def _rule_keeps_invariant(rule, bound) -> bool:
    """True when the rule returns a finite value and a derivative that is not
    NaN, or raises DomainError."""
    try:
        v, d = rule(bound, 0.0)
    except DomainError:
        return True
    return math.isfinite(v) and d == d


def test_every_rule_returns_a_finite_value_and_a_derivative_that_is_not_nan():
    # the rules test only for the failures their own arithmetic can produce;
    # this holds only while every rule hands the next a finite value whose
    # derivative is not NaN, as eval_dual's x and the constants are
    args = _rule_arguments()
    operands = [MethodType(_dual_constant, (v, d)) for v in args for d in _RULE_DERIVS]
    for name, rule in _CALL_RULES.items():
        bad = [operand(0.0) for operand in operands if not _rule_keeps_invariant(rule, operand)]
        assert not bad, (name, bad[:5])
    rights = [MethodType(_dual_constant, (v, d)) for v in _RULE_RIGHT_VALUES for d in _RULE_RIGHT_DERIVS]
    for op, rule in _BINOP_RULES.items():
        bad = [
            (left(0.0), right(0.0))
            for left in operands[::9]
            for right in rights
            if not _rule_keeps_invariant(rule, (left, right, 0.0, 0.0))
        ]
        assert not bad, (op, bad[:5])


# --- the memo of recent evaluations ------------------------------------------

_MEMO_TEXT = "sin(x) * exp(x) + ln(x^2 + 1) - x^x / cbrt(x)"


def _memo_len(expr) -> int:
    return len(vars(expr).get("_memo", ()))


def test_a_repeated_point_has_a_fresh_evaluations_bits():
    expr = parse(_MEMO_TEXT)
    points = [0.37, 1.5, 2.0, 1e-300, 0.37, 2.0, 1.5]
    for x in points + points:
        _assert_bit_identical(eval_dual(expr, x), eval_dual(parse(_MEMO_TEXT), x))
    assert _memo_len(expr) == 4


@pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)], ids=["-0 then 0", "0 then -0"])
def test_signed_zeros_keep_their_own_bits(first, second):
    # 0.0 and -0.0 are one dict key, but -x differs at them
    expr = parse("-x")
    for x in (first, second, first, second):
        _assert_bit_identical(eval_dual(expr, x), eval_dual(parse("-x"), x))
    assert _hex(eval_dual(expr, 0.0).value) != _hex(eval_dual(expr, -0.0).value)


def test_the_memo_stays_bounded():
    expr = parse("x^2 - 2")
    for i in range(1000):
        eval_dual(expr, 1.0 + i / 7)
        assert _memo_len(expr) <= 16


def test_an_error_is_raised_on_every_repeat():
    expr = parse("ln(x)")
    for _ in range(3):
        with pytest.raises(DomainError) as info:
            eval_dual(expr, -1.0)
        assert (info.value.kind, info.value.arg) == ("ln", -1.0)
        for x in (math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match="evaluation point must be finite"):
                eval_dual(expr, x)
    assert _memo_len(expr) == 0


def test_a_warm_expression_is_like_a_fresh_one():
    warm = parse(_MEMO_TEXT)
    points = [0.37 + i / 5 for i in range(20)]
    want = [eval_dual(warm, x) for x in points]
    assert _memo_len(warm) > 0
    fresh = parse(_MEMO_TEXT)
    assert warm == fresh
    assert hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh)
    assert str(warm) == str(fresh)
    for clone in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm), copy.copy(warm)):
        assert clone == warm
        assert _memo_len(clone) == 0
        for x, dual in zip(points, want):
            _assert_bit_identical(eval_dual(clone, x), dual)


def test_threads_sharing_an_expression_get_one_threads_bits():
    # 4 threads, more than the points the memo holds, and a short switch
    # interval: a thread that read another's half-stored entry would differ
    expr = parse(_MEMO_TEXT)
    points = [0.1 + i / 9 for i in range(40)]
    want = [_outcome(lambda x: tuple(eval_dual(parse(_MEMO_TEXT), x)), x) for x in points]
    wrong = []

    def evaluate():
        for _ in range(25):
            for x, bits in zip(points, want):
                got = _outcome(lambda x: tuple(eval_dual(expr, x)), x)
                if got != bits:
                    wrong.append((x, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong[:5]
    # each other thread may store once between a thread's size test and its store
    assert _memo_len(expr) <= 16 + 3
