"""Pratt parser for the expression grammar.

Grammar summary: decimal integers (rationals via `/`), parameter symbols,
the field variable `V` with affine powers `V^(2*p+3)`, exponentials
`exp((n+1)*V)`, function atoms with derivative suffixes (`a_t`, `f_xx`,
`F_V`), operators `+ - * / ^` with usual precedence, and parentheses.
Division is restricted to invertible single-term expressions.
"""
from __future__ import annotations

import re
from functools import lru_cache
from math import comb

from .errors import DivisionError, ParseError, UnknownSymbolError
from .expr import AFF_ONE, FUNCTIONS, PARAMETERS, AffineExponent, Expr, FnAtom

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*(?:_[txV]+)?)"
    r"|(?P<op>[-+*/^()]))"
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


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad)
        if m.group("num") is not None:
            out.append(_Token("num", int(m.group("num")), m.start()))
        elif m.group("ident") is not None:
            out.append(_Token("ident", m.group("ident"), m.start()))
        else:
            out.append(_Token("op", m.group("op"), m.start()))
        pos = m.end()
    out.append(_Token("end", None, len(text)))
    return out


_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25

# The largest integer power of a base other than V. Expanding a power of a
# sum costs time that grows with the power, so without a cap a text of five
# characters such as 9^9^9 would ask for more work than any run can finish.
MAX_POWER = 32

# The most products a product or an integer power may expand to. A piece is
# a term's numerator monomial over one of its denominator monomials. A
# product of bases of a and b pieces has up to a * b products and the n-th
# power of a base of m pieces up to comb(m + n - 1, n), so neither nesting
# capped powers, as in ((t+x+1)^32)^32, nor multiplying them, as in
# (a+f+g+h)^9*(a+f+g+h+1)^9, nor dividing by a negative power, as in
# (t+x+p+1)^16/(t+x+p+2)^(-16), can ask for hundreds of thousands of monomials.
# Adding coefficients over different denominators multiplies them, so a sum
# such as 1/(t+x+p+1)^8+1/(t+x+p+2)^8+1/(t+x+p+3)^8 is capped as well.
MAX_EXPANSION = 2048

# the field variable V, which the identifier V stands for
_V = Expr.vpower(AFF_ONE)


def _pieces(e: Expr) -> int:
    return sum(len(t.coeff.num.terms) * len(t.coeff.den.terms) for t in e.terms)


def _quotient_pieces(e: Expr, d) -> int:
    # dividing by the coefficient d multiplies numerators by its denominator
    # and denominators by its numerator
    return sum(len(t.coeff.num.terms) * len(d.den.terms)
               + len(t.coeff.den.terms) * len(d.num.terms) for t in e.terms)


def _sum_pieces(lhs: Expr, rhs: Expr) -> int:
    # like terms a/b and c/d add to (a*d + c*b)/(b*d): |a||d| + |c||b|
    # pieces in place of the |a||b| that _pieces(lhs) counts
    like = {t.signature: t.coeff for t in lhs.terms}
    size = _pieces(lhs)
    for t in rhs.terms:
        c, d = len(t.coeff.num.terms), len(t.coeff.den.terms)
        other = like.get(t.signature)
        if other is None:
            size += c * d
        else:
            a, b = len(other.num.terms), len(other.den.terms)
            size += a * d + c * b - a * b
    return size


def _cap(what: str, size: int, pos: int) -> None:
    if size > MAX_EXPANSION:
        raise ParseError(
            f"{what} of {size} pieces exceeds the cap of "
            f"{MAX_EXPANSION} expanded products", pos
        )


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

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
            if tok.value == "^":
                rhs = self.parse(bp - 1)  # right associative
                lhs = self.apply_power(lhs, rhs, tok.pos)
            else:
                rhs = self.parse(bp)
                if tok.value in "+-":
                    _cap("sum", _sum_pieces(lhs, rhs), tok.pos)
                    lhs = lhs + rhs if tok.value == "+" else lhs - rhs
                elif tok.value == "*":
                    _cap("product", _pieces(lhs) * _pieces(rhs), tok.pos)
                    lhs = lhs * rhs
                else:
                    if len(rhs.terms) == 1:
                        _cap("quotient", _quotient_pieces(lhs, rhs.terms[0].coeff), tok.pos)
                    try:
                        lhs = lhs / rhs
                    except DivisionError as exc:
                        raise ParseError(str(exc), tok.pos) from None
        return lhs

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Expr.const(tok.value)
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
                f"power {n} exceeds the cap of {MAX_POWER} on integer powers", pos
            )
        pieces = _pieces(base)
        if n and comb(pieces + abs(n) - 1, abs(n)) > MAX_EXPANSION:
            raise ParseError(
                f"power {n} of a base of {pieces} pieces exceeds the cap of "
                f"{MAX_EXPANSION} expanded products", pos
            )
        try:
            return base ** n
        except (DivisionError, ValueError) as exc:
            raise ParseError(str(exc), pos) from None

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
    try:
        out = parser.parse(0)
    except RecursionError:
        raise ParseError("nests too deeply", parser.tokens[parser.i - 1].pos) from None
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("unexpected trailing input", tok.pos)
    return out


def parse_affine(text: str) -> AffineExponent:
    """Parse an affine exponent such as '2p+3' or '2*p+3'."""
    normalized = re.sub(r"(\d)\s*([pkn])\b", r"\1*\2", text)
    return AffineExponent.from_expr(parse(normalized))
