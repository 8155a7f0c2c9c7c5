"""Grammar, precedence, and diagnostics for the expression language."""

from fractions import Fraction

import pytest

from zetasech.exprlang import (
    BinaryOp,
    BoundVarRef,
    Call,
    ConstantRef,
    Integral,
    NumberLiteral,
    ParamRef,
    SourceError,
    Sum,
    UnaryNeg,
    format_expression,
    parse_expression,
)

ROUND_TRIP_SOURCES = [
    "1 + 2*3",
    "(1 + 2)*3",
    "2^3^2",
    "-x^2",
    "(-x)^2",
    "a - b - c",
    "a/b/c",
    "pi*euler_gamma - ln2",
    "sin(pi*v)/cosh(pi*v)",
    "hzeta(s, a) - hzeta(s, a + 1/2)",
    "sum[k=0,n]{ binom(n, k)*(-1)^k }",
    "sum[j=1,5]{ sum[k=0,j]{ j*k } }",
    "integral[v]{ v*arctan(2*v)/cosh(pi*v) }",
    "integral[t]{ t^(s - 1)*exp(-a*t) }",
    "2^s*eta(s, 2*a)",
    "bernpoly(n + 1, q)/(n + 1)",
    "-(a + b)*-c",
    "pow(x, 3) + fact(4) - kron(1, 0)",
]

MALFORMED = [
    ("", 1, 1),
    ("1 +", 1, 4),
    ("sin(", 1, 5),
    ("(2", 1, 3),
    ("2)", 1, 2),
    ("sum[j=0,]{1}", 1, 9),
    ("1 @ 2", 1, 3),
    ("frobnicate(2)", 1, 1),
    ("sin(1, 2)", 1, 1),
    ("1..5", 1, 1),
]


def test_precedence_shape():
    tree = parse_expression("1 + 2*3")
    assert isinstance(tree, BinaryOp) and tree.op == "+"
    assert isinstance(tree.right, BinaryOp) and tree.right.op == "*"


def test_power_is_right_associative():
    tree = parse_expression("2^3^2")
    assert tree.op == "^"
    assert isinstance(tree.right, BinaryOp) and tree.right.op == "^"
    assert isinstance(tree.left, NumberLiteral)


def test_negation_binds_looser_than_power():
    tree = parse_expression("-x^2")
    assert isinstance(tree, UnaryNeg)
    assert isinstance(tree.operand, BinaryOp) and tree.operand.op == "^"


def test_subtraction_is_left_associative():
    tree = parse_expression("a - b - c")
    assert tree.op == "-"
    assert isinstance(tree.left, BinaryOp) and tree.left.op == "-"
    assert isinstance(tree.right, ParamRef) and tree.right.name == "c"


def test_decimal_literals_are_exact():
    assert parse_expression("0.5") == NumberLiteral(Fraction(1, 2))
    assert parse_expression("2.375") == NumberLiteral(Fraction(19, 8))


def test_constants_and_params_are_distinct():
    assert parse_expression("pi") == ConstantRef("pi")
    assert parse_expression("s") == ParamRef("s")


def test_call_node_shape():
    tree = parse_expression("hzeta(s, a)")
    assert tree == Call("hzeta", (ParamRef("s"), ParamRef("a")))


def test_sum_binds_its_variable():
    tree = parse_expression("sum[k=0,n]{ k + n }")
    assert isinstance(tree, Sum)
    assert tree.var == "k"
    assert tree.lo == NumberLiteral(Fraction(0))
    assert tree.hi == ParamRef("n")
    body = tree.body
    assert isinstance(body, BinaryOp)
    assert body.left == BoundVarRef("k")
    assert body.right == ParamRef("n")


def test_integral_binds_its_variable():
    tree = parse_expression("integral[v]{ v/cosh(pi*v) }")
    assert isinstance(tree, Integral)
    assert tree.var == "v"
    assert isinstance(tree.body, BinaryOp)
    assert tree.body.left == BoundVarRef("v")


def test_nested_binders_shadow_outer_names():
    tree = parse_expression("sum[k=0,2]{ sum[k=0,3]{ k } }")
    inner = tree.body
    assert isinstance(inner, Sum)
    assert inner.body == BoundVarRef("k")


def _nested_sums(depth, body="1"):
    return "".join(f"sum[k{i}=0,0]{{" for i in range(depth)) + body + "}" * depth


def test_sum_nesting_is_capped_at_the_offending_sum():
    parse_expression(_nested_sums(16))
    src = "integral[v]{\n  " + _nested_sums(17, "v") + "}"
    with pytest.raises(SourceError) as info:
        parse_expression(src)
    assert info.value.message == "sums nested more than 16 deep"
    assert (info.value.line, info.value.col) == (2, src.split("\n")[1].index("sum[k16=") + 1)


def test_sums_in_bounds_do_not_count_toward_the_cap():
    deep = _nested_sums(16)
    parse_expression(f"sum[j = {deep}, {deep}]{{ j }}")
    with pytest.raises(SourceError):
        parse_expression(f"sum[j = 0, 1]{{ {deep} }}")


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_format_parse_round_trip(src):
    tree = parse_expression(src)
    assert parse_expression(format_expression(tree)) == tree


@pytest.mark.parametrize("src,line,col", MALFORMED)
def test_malformed_inputs_report_positions(src, line, col):
    with pytest.raises(SourceError) as info:
        parse_expression(src)
    assert info.value.line == line
    assert info.value.col == col


def test_multiline_error_positions():
    with pytest.raises(SourceError) as info:
        parse_expression("1 +\n  sin()")
    assert info.value.line == 2


def test_unknown_function_is_positioned():
    with pytest.raises(SourceError) as info:
        parse_expression("1 + nosuchfn(2)")
    assert info.value.col == 5


def test_arity_mismatch_is_rejected():
    with pytest.raises(SourceError):
        parse_expression("hzeta(s)")
    with pytest.raises(SourceError):
        parse_expression("cos(a, b)")


def test_error_message_is_textual():
    with pytest.raises(SourceError) as info:
        parse_expression("(1 + 2")
    assert "expected" in str(info.value)
