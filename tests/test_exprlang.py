"""Grammar, precedence, and diagnostics for the expression language."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import zetasech
from zetasech.catalog import builtin_identities
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
    _lex,
    _position,
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
    ("1 + # no operand", 1, 5),
    ("2²", 1, 2),
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


def test_literal_float_is_converted_once_and_not_compared():
    lit = parse_expression("2.375")
    assert lit.fvalue == float(Fraction(19, 8))
    # the exact walk's operand: a reduced pair, or an int for an integer
    assert lit.exact == (19, 8)
    assert type(NumberLiteral(Fraction(-6, 2)).exact) is int
    assert NumberLiteral(Fraction(-6, 2)).exact == -3
    twin = NumberLiteral(Fraction(19, 8))
    assert lit == twin and hash(lit) == hash(twin) == hash((Fraction(19, 8),))
    assert repr(lit) == "NumberLiteral(value=Fraction(19, 8))"
    assert NumberLiteral._fields == ("value",)
    assert NumberLiteral(Fraction(10**400)).fvalue is None
    assert NumberLiteral(Fraction(10**400)).exact == 10**400


def test_constants_and_params_are_distinct():
    assert parse_expression("pi") == ConstantRef("pi")
    assert parse_expression("s") == ParamRef("s")


def test_nodes_compare_hash_and_freeze_like_values():
    # equal fields make equal nodes only within one class
    assert ParamRef("a") != BoundVarRef("a") and not ParamRef("a") == BoundVarRef("a")
    assert ConstantRef("pi") != ParamRef("pi")
    src = "sum[k = 0, n]{ binom(n, k) * integral[v]{ v^k / cosh(pi*v) } } - -a"
    first, second = parse_expression(src), parse_expression(src)
    assert first is not second and first == second and hash(first) == hash(second)
    assert hash(first) == hash((first.op, first.left, first.right))
    assert hash(ParamRef("a")) == hash(("a",))
    with pytest.raises(AttributeError):
        first.op = "+"
    with pytest.raises(AttributeError):
        del first.left
    with pytest.raises(AttributeError):
        ParamRef("a").other = 1
    for make in (lambda: ParamRef(), lambda: ParamRef("a", "b"), lambda: BinaryOp("+", first)):
        with pytest.raises(TypeError):
            make()
    third = NumberLiteral(Fraction(1, 3))
    assert third.fvalue == float(Fraction(1, 3))
    with pytest.raises(AttributeError):
        third.fvalue = 0.0
    with pytest.raises(AttributeError):
        third.exact = 0


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
    # sums count toward the one nesting cap of 100 levels as any other
    # construct; the integral is the first level, the 99th sum the 100th,
    # and its lower bound the 101st
    parse_expression(_nested_sums(17))
    parse_expression("integral[v]{\n  " + _nested_sums(98, "v") + "}")
    src = "integral[v]{\n  " + _nested_sums(99, "v") + "}"
    with pytest.raises(SourceError) as info:
        parse_expression(src)
    assert info.value.message == "expression nested more than 100 levels deep"
    column = src.split("\n")[1].index("sum[k98=") + len("sum[k98=") + 1
    assert (info.value.line, info.value.col) == (2, column)


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_format_parse_round_trip(src):
    tree = parse_expression(src)
    assert parse_expression(format_expression(tree)) == tree


def test_long_literal_formats_under_the_lowest_digit_limit():
    # 640 is the lowest digit limit CPython accepts; str() refuses a longer
    # int under it, so a literal under the 4300-digit cap must still format
    src_dir = os.path.dirname(os.path.dirname(zetasech.__file__))
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    code = (
        "from zetasech.exprlang import format_expression, parse_expression\n"
        "for src in ('1' * 1000, '1' + '0' * 1280, '7' * 1281 + '.' + '0' * 639 + '5'):\n"
        "    tree = parse_expression(src)\n"
        "    text = format_expression(tree)\n"
        "    assert text == src and parse_expression(text) == tree, src[:20]\n"
        "print('ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": path, "PYTHONINTMAXSTRDIGITS": "640"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


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


def test_literal_digit_cap_and_unicode_names():
    assert parse_expression("1" * 4300) == NumberLiteral(Fraction(int("1" * 4300)))
    assert parse_expression("αβ") == ParamRef("αβ")
    assert parse_expression("x²") == ParamRef("x²")
    assert parse_expression("٣") == NumberLiteral(Fraction(3))
    for src, line, col in [("x +\n  " + "1" * 4301, 2, 3), ("1" * 4300 + ".5", 1, 1)]:
        with pytest.raises(SourceError) as info:
            parse_expression(src)
        assert info.value.message == "number has more than 4300 digits"
        assert (info.value.line, info.value.col) == (line, col)


# The character loop the lexer was before it became one regular expression,
# kept as the reference for it. It differs from the lexer only where it
# lexes a number that int() cannot read: one with a digit that is not
# decimal, such as "2²", or one of more than 4300 digits.
_OP_CHARS = frozenset("+-*/^(),=[]{}")


def _reference_lex(src):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            text = src[i:j]
            if text.endswith("."):
                raise SourceError("number cannot end with a dot", line, start_col)
            tokens.append(("number", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OP_CHARS:
            tokens.append(("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise SourceError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("end", "", line, col))
    return tokens


def _lexed(src):
    return [
        ("op" if kind in _OP_CHARS else kind, text, *_position(src, offset))
        for kind, text, offset in _lex(src)
    ]


def _outcome(lex, src):
    try:
        return lex(src)
    except SourceError as exc:
        return (exc.message, exc.line, exc.col)


def _builtin_sources():
    return list(dict.fromkeys(s for r in builtin_identities() for s in (r.lhs_src, r.rhs_src)))


def test_lexer_matches_reference_on_builtin_sources():
    sources = _builtin_sources()
    assert len(sources) == 220
    for src in sources:
        assert _lexed(src) == _reference_lex(src)


_ALPHABET = (
    ["0", "1", "7", "9"] * 4
    + [".", ".", "x", "y", "k", "_", "sum", "pi", "e1"] * 2
    + list("+-*/^(),=[]{}") * 2
    + [" ", " ", "\t", "\r", "\n", "\n", "# c\n", "#", "\r\n"]
    + ["α", "βγ", "é", "٣", "²", "½", "\u0301", "@", "$", ";", "\x0b"]
)


def test_lexer_matches_reference_on_random_strings():
    rng = random.Random(1931)
    same = errors = 0
    for _ in range(2500):
        src = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 24)))
        want = _outcome(_reference_lex, src)
        got = _outcome(_lexed, src)
        if got == want:
            same += 1
            errors += isinstance(want, tuple)
            continue
        # the reference reads a non-decimal digit into a number token, which
        # int() then refuses; the lexer refuses the digit itself
        assert any(ch.isdigit() and not ch.isdecimal() for ch in src), src
        assert isinstance(got, tuple), src
    assert same > 2000 and 500 < errors < same - 500


def test_builtin_trees_are_pinned():
    text = "\n".join(repr(parse_expression(src)) for src in _builtin_sources())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "631821b35b122bebd5bb862c151ed750020cebd276df995f3402d18f86e6f255"
    )
