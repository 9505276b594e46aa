"""Pratt parser for the expression grammar.

Grammar summary: decimal integers (rationals via `/`), parameter symbols,
the field variable `V` with affine powers `V^(2*p+3)`, exponentials
`exp((n+1)*V)`, function atoms with derivative suffixes (`a_t`, `f_xx`,
`F_V`), operators `+ - * / ^` with usual precedence, and parentheses.
Division is restricted to invertible single-term expressions.
"""
from __future__ import annotations

import re
from collections import namedtuple
from decimal import Decimal
from functools import lru_cache

from .errors import DivisionError, ParseError, UnknownSymbolError, WorkLimitError
from .expr import AFF_ONE, FUNCTIONS, PARAMETERS, AffineExponent, Expr, FnAtom, number_text
from .poly import arm_meter, charge

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*(?:_[txV]+)?)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)

_SUFFIX_RE = re.compile(r"^(?P<base>[A-Za-z][A-Za-z0-9]*)(?:_(?P<suffix>[txV]+))?$")


def function_atom(name: str) -> FnAtom | None:
    """The function atom an identifier names: 'f' is f, 'f_xx' is f_xx.

    None when the identifier is no function name, with or without a
    derivative suffix. A suffix in a variable the function does not depend
    on is FnAtom's ValueError.
    """
    m = _SUFFIX_RE.fullmatch(name)
    if m is None or m.group("base") not in FUNCTIONS:
        return None
    suffix = m.group("suffix") or ""
    return FnAtom(
        m.group("base"),
        dt=suffix.count("t"),
        dx=suffix.count("x"),
        dV=suffix.count("V"),
    )


_Token = namedtuple("_Token", "kind value pos")


def _tokenize(text: str):
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        out.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start()))
    out.append(_Token("end", None, len(text)))
    return out


_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25

# The largest integer power of a base other than V. Expanding a power of a
# sum costs time that grows with the power, so without a cap a text of five
# characters such as 9^9^9 would ask for more work than any run can finish.
MAX_POWER = 32

# The work one parse may do, in monomial products, about 0.25 s. poly's
# meter charges each product of polynomials and of expressions, and the gcd
# kernel's images, before the work is done, so whatever a text nests, as in
# ((t+x+1)^32)^32, (((9^32)^32)^32)^32 or 1/(t+x+p+1)^16+1/(t+x+p+2)^16,
# it stops within the budget.
WORK_BUDGET = 150_000

# the field variable V, which the identifier V stands for
_V = Expr.vpower(AFF_ONE)


def _inverse(e: Expr, pos: int) -> Expr:
    try:
        return e.invert()
    except DivisionError as exc:
        raise ParseError(str(exc), pos) from None


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.at = 0  # the position of the work being done

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    def parse(self, min_bp: int = 0) -> Expr:
        lhs = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.value not in _BINARY_BP:
                break
            bp = _BINARY_BP[tok.value]
            if bp <= min_bp:
                break
            self.advance()
            rhs = self.parse(bp - 1 if tok.value == "^" else bp)  # ^ is right associative
            self.at = tok.pos
            if tok.value == "^":
                lhs = self.apply_power(lhs, rhs, tok.pos)
            elif tok.value == "+":
                lhs = lhs + rhs
            elif tok.value == "-":
                lhs = lhs - rhs
            else:
                lhs = lhs * (_inverse(rhs, tok.pos) if tok.value == "/" else rhs)
        return lhs

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            # int() refuses more than 4300 digits, as reading them takes time
            # quadratic in their count; Decimal reads any count, at that charge
            self.at = tok.pos
            charge(len(tok.value) ** 2 >> 15)
            return Expr.const(int(Decimal(tok.value)))
        if tok.kind == "op" and tok.value == "-":
            return -self.parse(_UNARY_BP)
        if tok.kind == "op" and tok.value == "+":
            return self.parse(_UNARY_BP)
        if tok.kind == "op" and tok.value == "(":
            inner = self.parse(0)
            self.expect_op(")")
            return inner
        if tok.kind == "ident":
            return self.parse_ident(tok)
        raise ParseError("expected a value", tok.pos)

    def parse_ident(self, tok: _Token) -> Expr:
        name = tok.value
        if name == "exp":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "(":
                self.advance()
                inner = self.parse(0)
                self.expect_op(")")
                self.at = tok.pos
                return Expr.exp_atom(self._as_exp_argument(inner, tok.pos))
            raise ParseError("exp must be called as exp(...)", tok.pos)
        if name == "V":
            return _V
        if name in ("t", "x"):
            return Expr.generator(name)
        if name in PARAMETERS:
            return Expr.generator(name)
        try:
            atom = function_atom(name)
        except ValueError as exc:
            raise ParseError(str(exc), tok.pos) from None
        if atom is None:
            raise UnknownSymbolError(f"unknown symbol {name!r}", tok.pos)
        return Expr.atom(atom)

    def apply_power(self, base: Expr, exponent: Expr, pos: int) -> Expr:
        if base == _V:
            try:
                return Expr.vpower(AffineExponent.from_expr(exponent))
            except ValueError as exc:
                raise ParseError(f"bad V exponent: {exc}", pos) from None
        n = _as_integer(exponent, pos)
        if abs(n) > MAX_POWER:
            raise ParseError(
                f"power {number_text(n)} exceeds the cap of {MAX_POWER} on integer powers", pos
            )
        if n < 0:
            base, n = _inverse(base, pos), -n
        return base ** n

    def _as_exp_argument(self, inner: Expr, pos: int) -> AffineExponent:
        # the argument must be (affine) * V
        try:
            arg = AffineExponent.from_expr(inner / _V)
        except ValueError as exc:
            raise ParseError(f"bad exp argument: {exc}", pos) from None
        if arg.is_zero():
            raise ParseError("exp argument must be nonzero", pos)
        return arg


def _as_integer(e: Expr, pos: int) -> int:
    try:
        n = AffineExponent.from_expr(e)
    except ValueError:
        raise ParseError("power must be an integer", pos) from None
    if not n.is_const() or n.c0.denominator != 1:
        raise ParseError("power must be an integer", pos)
    return int(n.c0)


# A warm verify-paper replay parses about 80 distinct texts; a sweep over
# concrete (p, k) parses new ones every time, so the bound keeps memory flat.
PARSE_CACHE_SIZE = 1024


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> Expr:
    """Parse canonical expression text; parse(print(e)) == e for canonical e.

    The result is memoised on the text and shared by every caller. That is
    sound only because no Expr, Term, Poly or CoeffFrac is changed after its
    constructor returns. A text that fails to parse raises every time; errors
    are not cached.
    """
    parser = _Parser(_tokenize(text))
    arm_meter(WORK_BUDGET)
    try:
        out = parser.parse(0)
    except RecursionError:
        raise ParseError("nests too deeply", parser.tokens[parser.i - 1].pos) from None
    except WorkLimitError:
        msg = f"the text asks for more work than the budget of {WORK_BUDGET} monomial products"
        raise ParseError(msg, parser.at) from None
    finally:
        arm_meter(None)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("unexpected trailing input", tok.pos)
    return out


def parse_affine(text: str) -> AffineExponent:
    """Parse an affine exponent such as '2p+3' or '2*p+3'."""
    normalized = re.sub(r"(\d)\s*([pkn])\b", r"\1*\2", text)
    return AffineExponent.from_expr(parse(normalized))
