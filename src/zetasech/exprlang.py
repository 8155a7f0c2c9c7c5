"""A small expression language for identity sources.

Supports rational literals, named constants, free parameters, arithmetic
with ^ for powers, registered function calls with parse-time arity checks,
finite sums, and integrals over [0, inf). The formatter emits canonical text
whose re-parse reproduces the AST node for node.

Constructs, sums and integrals included, nest at most 100 deep
(_MAX_DEPTH); a deeper one is a SourceError at its position. A number
literal has at most 4300 digits (_MAX_LITERAL_DIGITS).

One compiled pattern (_TOKEN) lexes the source into a list of plain
(kind, text, offset) tuples: kind is "number", "name", "end" or, for an
operator, the operator itself, and offset indexes the source. The 1-based
(line, column) of a token is worked out from its offset only when a
SourceError is raised.

Syntax sketch:

    2^(1-2*n) * sum[j = 0, 2*n]{ (-2/a)^j * eulerpoly(j+1, 2*q) }
    integral[v]{ v^2 / cosh(pi*v) }   # always over v in [0, inf)
"""
from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from functools import lru_cache
from fractions import Fraction
from operator import attrgetter

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
# default recursion limit of 1000. It is the only bound on nesting: sums and
# integrals count as any other construct, since the evaluators walk them.
_MAX_DEPTH = 100


class SourceError(ValueError):
    """Parse or lex failure with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


# ----------------------------------------------------------------------
# AST

_set = object.__setattr__


class _Node:
    """Base of the node classes: immutable slotted records that compare,
    hash and print by their fields (_fields, by default __slots__), as
    frozen dataclasses do. Nodes of different classes are never equal, so
    ParamRef("a") != BoundVarRef("a"). A class's __init__ takes its fields
    in order and stores them with _set."""

    # _hash holds the node's hash once it is first taken, never at parse
    # time: the integrand compiler's cache looks an integral up on every
    # evaluation, and would otherwise hash its whole tree each time
    __slots__ = ("_hash",)
    _fields: tuple[str, ...]
    _key: Callable[["_Node"], object]
    _hash_fields: Callable[["_Node"], int]

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        key = cls._key = attrgetter(*cls._fields)
        # a node hashes as the tuple of its field values
        if len(cls._fields) == 1:
            cls._hash_fields = lambda self: hash((key(self),))
        else:
            cls._hash_fields = lambda self: hash(key(self))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = self._hash_fields()
            _set(self, "_hash", value)
            return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class NumberLiteral(_Node):
    __slots__ = ("value", "fvalue", "exact")
    # fvalue is float(value), converted once for the numeric evaluators;
    # None when value is too large for a float. exact is value as the exact
    # evaluator's operand: an int, or (numerator, denominator) in lowest
    # terms with a positive denominator. Neither is part of ==, hash or repr.
    _fields = ("value",)

    def __init__(self, value: Fraction) -> None:
        _set(self, "value", value)
        n, d = value.numerator, value.denominator
        try:
            fvalue: float | None = n / d
        except OverflowError:
            fvalue = None
        _set(self, "fvalue", fvalue)
        _set(self, "exact", n if d == 1 else (n, d))


class ConstantRef(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class ParamRef(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class BoundVarRef(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class UnaryNeg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: "Node") -> None:
        _set(self, "operand", operand)


class BinaryOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Node", right: "Node") -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple["Node", ...]) -> None:
        _set(self, "name", name)
        _set(self, "args", args)


class Sum(_Node):
    __slots__ = ("var", "lo", "hi", "body")

    def __init__(self, var: str, lo: "Node", hi: "Node", body: "Node") -> None:
        _set(self, "var", var)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "body", body)


class Integral(_Node):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "Node") -> None:
        _set(self, "var", var)
        _set(self, "body", body)


Node = (
    NumberLiteral
    | ConstantRef
    | ParamRef
    | BoundVarRef
    | UnaryNeg
    | BinaryOp
    | Call
    | Sum
    | Integral
)


# ----------------------------------------------------------------------
# lexer

# One alternative per token kind, tried in order, the most frequent first.
# Whitespace and comments match no group. `dot` is always an error, and
# `other` is one unless _is_name admits it as a name that starts with a
# non-ASCII letter. Number digits are \d, the decimal digits int() reads.
_TOKEN = re.compile(
    r"""
      (?P<op>[-+*/^(),=\[\]{}])
    | (?P<name>[A-Za-z_]\w*)
    | [ \t\r\n]+ | \#[^\n]*
    | (?P<dot>\d+\.(?!\d))
    | (?P<number>\d+(?:\.\d+)?|\.\d+)
    | (?P<other>[^\W\d\x00-\x7f]\w*|.)
    """,
    re.VERBOSE,
)
_WORD = re.compile(r"\w+")
# CPython refuses int() of more than 4300 digits by default since 3.10.7 and
# 3.11, and earlier 3.10 releases do not; a fixed cap makes them all agree.
_MAX_LITERAL_DIGITS = 4300

_Token = tuple[str, str, int]  # (kind, text, offset)


def _is_name(text: str) -> bool:
    """Whether text is one name: a letter or _, then letters, digits or _."""
    return (text[:1] == "_" or text[:1].isalpha()) and _WORD.fullmatch(text) is not None


def _position(src: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of offset in src."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def _lex(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "op":
            text = m[0]
            append((text, text, m.start()))
        elif kind == "name":
            append((kind, m[0], m.start()))
        elif kind == "number":
            text = m[0]
            if len(text) - ("." in text) > _MAX_LITERAL_DIGITS:
                raise SourceError(
                    f"number has more than {_MAX_LITERAL_DIGITS} digits",
                    *_position(src, m.start()),
                )
            append((kind, text, m.start()))
        elif kind == "dot":
            raise SourceError("number cannot end with a dot", *_position(src, m.start()))
        elif kind == "other":
            text = m[0]
            if not _is_name(text):
                raise SourceError(
                    f"unexpected character {text[0]!r}", *_position(src, m.start())
                )
            append(("name", text, m.start()))
    # input that ends in a comment ends where the comment starts
    last_line = src.rfind("\n") + 1
    comment = src.find("#", last_line)
    append(("end", "", len(src) if comment < 0 else comment))
    return tokens


# int() refuses a string of more digits than sys.get_int_max_str_digits(),
# which may be set as low as 640, and str() an int of more; converting at
# most that many digits at a time makes every literal under
# _MAX_LITERAL_DIGITS readable and printable
_INT_CHUNK = 640


def _digits_int(digits: str) -> int:
    """The value of a run of decimal digits; 0 when there are none."""
    value = 0
    for start in range(0, len(digits), _INT_CHUNK):
        chunk = digits[start:start + _INT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _int_digits(value: int) -> str:
    """The decimal text of an int, the reverse of _digits_int."""
    base = 10 ** _INT_CHUNK
    chunks = []
    while value >= base:
        value, low = divmod(value, base)
        chunks.append(str(low).rjust(_INT_CHUNK, "0"))
    chunks.append(str(value))
    return "".join(reversed(chunks))


# a catalog repeats a few dozen literal texts; a Fraction is immutable, so
# nodes may share one
@lru_cache(maxsize=1024)
def _number_value(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        scale = 10 ** len(frac)
        return Fraction(_digits_int(whole) * scale + _digits_int(frac), scale)
    return Fraction(_digits_int(text))


def _shown(tok: _Token) -> str:
    return tok[1] if tok[0] != "end" else "end of input"


# ----------------------------------------------------------------------
# parser

class _Parser:
    """Recursive descent over the token list; self.tokens[self.pos] is the
    next token, and the list always ends with an "end" token."""

    def __init__(self, src: str, functions: Mapping[str, int]) -> None:
        self.src = src
        self.tokens = _lex(src)
        self.pos = 0
        self.functions = functions
        self.bound: list[str] = []
        self.depth = 0

    def error(self, message: str, tok: _Token) -> SourceError:
        return SourceError(message, *_position(self.src, tok[2]))

    def expect(self, kind: str) -> _Token:
        """Consume the next token if it is an operator or a name (kind
        "name"); raise otherwise."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            wanted = "a name" if kind == "name" else repr(kind)
            raise self.error(f"expected {wanted}, found {_shown(tok)!r}", tok)
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.additive()
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise self.error(f"unexpected trailing {tok[1]!r}", tok)
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            node = BinaryOp(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> Node:
        node = self.unary()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) == "*" or op == "/":
            self.pos += 1
            node = BinaryOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        """A negation, or a primary with an optional right-associative ^."""
        tokens = self.tokens
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.error(
                f"expression nested more than {_MAX_DEPTH} levels deep", tokens[self.pos]
            )
        if tokens[self.pos][0] == "-":
            self.pos += 1
            node: Node = UnaryNeg(self.unary())
        else:
            node = self.primary()
            if tokens[self.pos][0] == "^":
                self.pos += 1
                node = BinaryOp("^", node, self.unary())
        self.depth -= 1
        return node

    def primary(self) -> Node:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "number":
            self.pos += 1
            return NumberLiteral(_number_value(tok[1]))
        if kind == "name":
            return self.name_form()
        if kind == "(":
            self.pos += 1
            node = self.additive()
            self.expect(")")
            return node
        raise self.error(f"expected an expression, found {_shown(tok)!r}", tok)

    def name_form(self) -> Node:
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        name = tok[1]
        if name in _KEYWORDS:
            return self.binder_form(tok)
        if tokens[self.pos][0] == "(":
            if name not in self.functions:
                raise self.error(f"unknown function {name!r}", tok)
            self.pos += 1
            args: list[Node] = [self.additive()]
            while tokens[self.pos][0] == ",":
                self.pos += 1
                args.append(self.additive())
            self.expect(")")
            want = self.functions[name]
            if len(args) != want:
                raise self.error(f"{name} expects {want} argument(s), got {len(args)}", tok)
            return Call(name, tuple(args))
        if name in self.functions:
            raise self.error(f"function {name!r} needs an argument list", tok)
        if name in CONSTANT_NAMES:
            return ConstantRef(name)
        if name in self.bound:
            return BoundVarRef(name)
        return ParamRef(name)

    def binder_form(self, keyword: _Token) -> Node:
        """sum[var = lo, hi]{ body } or integral[var]{ body }, after the
        keyword; var is bound in the body alone."""
        is_sum = keyword[1] == "sum"
        self.expect("[")
        var_tok = self.expect("name")
        var = var_tok[1]
        error = binder_error(var, is_sum, self.functions)
        if error:
            raise self.error(error, var_tok)
        if is_sum:
            self.expect("=")
            lo = self.additive()
            self.expect(",")
            hi = self.additive()
        self.expect("]")
        self.expect("{")
        # a parse error ends the parse, so the binder needs no unwinding
        self.bound.append(var)
        body = self.additive()
        self.bound.pop()
        self.expect("}")
        return Sum(var, lo, hi, body) if is_sum else Integral(var, body)


def binder_error(var: str, is_sum: bool, functions: Mapping[str, int]) -> str | None:
    """Why var cannot be a sum's index (is_sum) or an integral's variable,
    or None when it can: it must be one name that is not a keyword, a
    constant or a function."""
    role = "a summation index" if is_sum else "an integration variable"
    if not _is_name(var):
        return f"{var!r} is not a name, so it cannot be used as {role}"
    if var in _KEYWORDS or var in CONSTANT_NAMES or var in functions:
        return f"{var!r} cannot be used as {role}"
    return None


def parse_expression(
    src: str, functions: Mapping[str, int] | None = None
) -> Node:
    """Parse source text into an AST, checking call arities as it goes."""
    if functions is None:
        from .registry import function_arities

        functions = function_arities()
    return _Parser(src, functions).parse()


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
        return _int_digits(num)
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
    text = _int_digits(shifted).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def _render(node: Node) -> tuple[str, int]:
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
