"""A small expression language for identity sources.

Supports rational literals, named constants, free parameters, arithmetic
with ^ for powers, registered function calls with parse-time arity checks,
finite sums, and integrals over [0, inf). The formatter emits canonical text
whose re-parse reproduces the AST node for node.

Sums nest at most 16 deep, counting only sums inside another sum's body
(_MAX_SUM_DEPTH); a 17th is a SourceError at its `sum` token. Other
constructs nest at most 100 deep (_MAX_DEPTH).

Syntax sketch:

    2^(1-2*n) * sum[j = 0, 2*n]{ (-2/a)^j * eulerpoly(j+1, 2*q) }
    integral[v]{ v^2 / cosh(pi*v) }   # always over v in [0, inf)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = [
    "BinaryOp",
    "binder_error",
    "BoundVarRef",
    "Call",
    "ConstantRef",
    "CONSTANT_NAMES",
    "format_expression",
    "Integral",
    "Node",
    "NumberLiteral",
    "ParamRef",
    "parse_expression",
    "SourceError",
    "Sum",
    "UnaryNeg",
]

CONSTANT_NAMES = frozenset(
    ["pi", "ln2", "euler_gamma", "catalan", "ln_glaisher", "ln_glaisher3"]
)
_KEYWORDS = frozenset(["sum", "integral"])
# Every nested construct re-enters the parser through unary(), taking at most
# seven Python frames per level, so this bound keeps parsing well inside the
# default recursion limit of 1000.
_MAX_DEPTH = 100
# The integrand compiler nests each sum's loop in its enclosing sum's loop,
# in one function; CPython allows 20 nested blocks there, and a guarded call
# in the innermost body adds two (its try and its handler).
_MAX_SUM_DEPTH = 16


class SourceError(ValueError):
    """Parse or lex failure with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


# ----------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class NumberLiteral:
    value: Fraction
    # float(value), converted once for the numeric evaluators; None when
    # value is too large for a float. Not part of ==, hash or repr.
    fvalue: Optional[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            fvalue: Optional[float] = float(self.value)
        except OverflowError:
            fvalue = None
        object.__setattr__(self, "fvalue", fvalue)


@dataclass(frozen=True)
class ConstantRef:
    name: str


@dataclass(frozen=True)
class ParamRef:
    name: str


@dataclass(frozen=True)
class BoundVarRef:
    name: str


@dataclass(frozen=True)
class UnaryNeg:
    operand: "Node"


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple["Node", ...]


@dataclass(frozen=True)
class Sum:
    var: str
    lo: "Node"
    hi: "Node"
    body: "Node"


@dataclass(frozen=True)
class Integral:
    var: str
    body: "Node"


Node = Union[
    NumberLiteral,
    ConstantRef,
    ParamRef,
    BoundVarRef,
    UnaryNeg,
    BinaryOp,
    Call,
    Sum,
    Integral,
]


# ----------------------------------------------------------------------
# lexer

@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "name", "op", "end"
    text: str
    line: int
    col: int


_OP_CHARS = frozenset("+-*/^(),=[]{}")


def _lex(src: str) -> List[_Token]:
    tokens: List[_Token] = []
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
            tokens.append(_Token("number", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OP_CHARS:
            tokens.append(_Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise SourceError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


def _number_value(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        scale = 10 ** len(frac)
        return Fraction(int(whole or "0") * scale + int(frac), scale)
    return Fraction(int(text))


# ----------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: List[_Token], functions: Mapping[str, int]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.functions = functions
        self.bound: List[str] = []
        self.depth = 0
        self.sums = 0  # sums whose body is being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise SourceError(f"expected {op!r}, found {shown!r}", tok.line, tok.col)
        return self.advance()

    def expect_name(self) -> _Token:
        tok = self.peek()
        if tok.kind != "name":
            shown = tok.text if tok.kind != "end" else "end of input"
            raise SourceError(f"expected a name, found {shown!r}", tok.line, tok.col)
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> Node:
        node = self.additive()
        tok = self.peek()
        if tok.kind != "end":
            raise SourceError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = BinaryOp(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> Node:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = BinaryOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise SourceError(
                f"expression nested more than {_MAX_DEPTH} levels deep", tok.line, tok.col
            )
        if self.at_op("-"):
            self.advance()
            node: Node = UnaryNeg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        node = self.primary()
        if self.at_op("^"):
            self.advance()
            return BinaryOp("^", node, self.unary())
        return node

    def primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return NumberLiteral(_number_value(tok.text))
        if tok.kind == "name":
            return self.name_form()
        if self.at_op("("):
            self.advance()
            node = self.additive()
            self.expect_op(")")
            return node
        shown = tok.text if tok.kind != "end" else "end of input"
        raise SourceError(f"expected an expression, found {shown!r}", tok.line, tok.col)

    def name_form(self) -> Node:
        tok = self.advance()
        name = tok.text
        if name in _KEYWORDS:
            return self.binder_form(tok)
        if self.at_op("("):
            if name not in self.functions:
                raise SourceError(f"unknown function {name!r}", tok.line, tok.col)
            self.advance()
            args: List[Node] = [self.additive()]
            while self.at_op(","):
                self.advance()
                args.append(self.additive())
            self.expect_op(")")
            want = self.functions[name]
            if len(args) != want:
                raise SourceError(
                    f"{name} expects {want} argument(s), got {len(args)}",
                    tok.line,
                    tok.col,
                )
            return Call(name, tuple(args))
        if name in self.functions:
            raise SourceError(
                f"function {name!r} needs an argument list", tok.line, tok.col
            )
        if name in CONSTANT_NAMES:
            return ConstantRef(name)
        if name in self.bound:
            return BoundVarRef(name)
        return ParamRef(name)

    def binder_form(self, keyword: _Token) -> Node:
        """sum[var = lo, hi]{ body } or integral[var]{ body }, after the
        keyword; var is bound in the body alone."""
        is_sum = keyword.text == "sum"
        if is_sum and self.sums == _MAX_SUM_DEPTH:
            raise SourceError(
                f"sums nested more than {_MAX_SUM_DEPTH} deep", keyword.line, keyword.col
            )
        self.expect_op("[")
        var_tok = self.expect_name()
        var = var_tok.text
        error = binder_error(var, is_sum, self.functions)
        if error:
            raise SourceError(error, var_tok.line, var_tok.col)
        if is_sum:
            self.expect_op("=")
            lo = self.additive()
            self.expect_op(",")
            hi = self.additive()
        self.expect_op("]")
        self.expect_op("{")
        # a parse error ends the parse, so the binder needs no unwinding
        self.bound.append(var)
        self.sums += is_sum
        body = self.additive()
        self.sums -= is_sum
        self.bound.pop()
        self.expect_op("}")
        return Sum(var, lo, hi, body) if is_sum else Integral(var, body)


def binder_error(var: str, is_sum: bool, functions: Mapping[str, int]) -> Optional[str]:
    """Why var cannot be a sum's index (is_sum) or an integral's variable,
    or None when it can: it must lex as one name that is not a keyword, a
    constant or a function."""
    role = "a summation index" if is_sum else "an integration variable"
    try:
        tokens = _lex(var)
    except SourceError:
        tokens = []
    if len(tokens) != 2 or tokens[0].kind != "name" or tokens[0].text != var:
        return f"{var!r} is not a name, so it cannot be used as {role}"
    if var in _KEYWORDS or var in CONSTANT_NAMES or var in functions:
        return f"{var!r} cannot be used as {role}"
    return None


def parse_expression(
    src: str, functions: Optional[Mapping[str, int]] = None
) -> Node:
    """Parse source text into an AST, checking call arities as it goes."""
    if functions is None:
        from .registry import function_arities

        functions = function_arities()
    return _Parser(_lex(src), functions).parse()


# ----------------------------------------------------------------------
# formatter

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 30
_PREC_POW = 40
_PREC_ATOM = 100

_BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}


def _format_fraction(value: Fraction) -> str:
    # literals only ever carry denominators of the form 2^a 5^b, so a finite
    # decimal expansion always exists
    num = value.numerator
    den = value.denominator
    if den == 1:
        return str(num)
    k = 0
    scaled = den
    while scaled % 2 == 0:
        scaled //= 2
        k += 1
    j = 0
    while scaled % 5 == 0:
        scaled //= 5
        j += 1
    if scaled != 1:
        raise ValueError(f"literal {value} has no finite decimal form")
    digits = max(k, j)
    shifted = num * 10 ** digits // den
    text = str(shifted).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def _render(node: Node) -> Tuple[str, int]:
    if isinstance(node, NumberLiteral):
        return _format_fraction(node.value), _PREC_ATOM
    if isinstance(node, (ConstantRef, ParamRef, BoundVarRef)):
        return node.name, _PREC_ATOM
    if isinstance(node, UnaryNeg):
        text, prec = _render(node.operand)
        if prec <= _PREC_NEG:
            text = f"({text})"
        return f"-{text}", _PREC_NEG
    if isinstance(node, BinaryOp):
        prec = _BIN_PREC[node.op]
        ltext, lprec = _render(node.left)
        rtext, rprec = _render(node.right)
        if node.op == "^":
            if lprec <= prec:  # right-assoc: parenthesize an equal-prec left
                ltext = f"({ltext})"
            if rprec < prec and not isinstance(node.right, UnaryNeg):
                rtext = f"({rtext})"
        else:
            if lprec < prec:
                ltext = f"({ltext})"
            if rprec <= prec:
                rtext = f"({rtext})"
        if isinstance(node.right, UnaryNeg):
            rtext = f"({rtext})"
        if node.op in ("+", "-"):
            return f"{ltext} {node.op} {rtext}", prec
        return f"{ltext}{node.op}{rtext}", prec
    if isinstance(node, Call):
        args = ", ".join(_render(a)[0] for a in node.args)
        return f"{node.name}({args})", _PREC_ATOM
    if isinstance(node, Sum):
        lo = _render(node.lo)[0]
        hi = _render(node.hi)[0]
        body = _render(node.body)[0]
        return f"sum[{node.var} = {lo}, {hi}]{{{body}}}", _PREC_ATOM
    if isinstance(node, Integral):
        body = _render(node.body)[0]
        return f"integral[{node.var}]{{{body}}}", _PREC_ATOM
    raise TypeError(f"not an expression node: {node!r}")


def format_expression(node: Node) -> str:
    """Render an AST to canonical text; parsing the text reproduces the AST."""
    return _render(node)[0]
