"""Pratt parser for the expression grammar.

Grammar summary: decimal integers (rationals via `/`), parameter symbols,
the field variable `V` with affine powers `V^(2*p+3)`, exponentials
`exp((n+1)*V)`, function atoms with derivative suffixes (`a_t`, `f_xx`,
`F_V`), operators `+ - * / ^` with usual precedence, and parentheses.
Division is restricted to invertible single-term expressions.
"""
from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from math import comb, prod

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
_NODES = {"+": "sum", "-": "sum", "*": "product", "/": "quotient"}
_UNARY_BP = 25

# The largest integer power of a base other than V. Expanding a power of a
# sum costs time that grows with the power, so without a cap a text of five
# characters such as 9^9^9 would ask for more work than any run can finish.
MAX_POWER = 32

# The most pieces one operator node may build: the monomial products it
# multiplies out or, where a gcd can cancel, the monomials its degrees
# allow, and for a power the 64-bit words of its largest coefficient.
# _bound counts them before the node is built, so no nesting, as in
# ((t+x+1)^32)^32 or (((9^32)^32)^32)^32, and no product, quotient or sum,
# as in (t^32-1)*(x^32-1)/((t-1)*(x-1)) or 1/(t+x+p+1)^16+1/(t+x+p+2)^16,
# can ask for hundreds of thousands of monomials or digits.
MAX_EXPANSION = 2048

# the field variable V, which the identifier V stands for
_V = Expr.vpower(AFF_ONE)


def _degree(p) -> Counter:
    """Each generator's degree in p, and under None its total degree."""
    out = {}
    for m in p.terms:
        for v, e in m + ((None, sum(e for _, e in m)),):
            if e > out.get(v, 0):
                out[v] = e
    return Counter(out)


def _count(deg: Counter, n: int = 1) -> int:
    """The most monomials the n-th power of a polynomial of these degrees,
    or of a factor of it, has: the box of its generators' degrees or the
    simplex of its total degree, the smaller."""
    gens = [n * d for v, d in deg.items() if v is not None]
    return min(prod(d + 1 for d in gens), comb(n * deg[None] + len(gens), len(gens)))


def _over_one(terms) -> tuple:
    """Degrees of the numerator and the denominator of terms brought over
    one denominator, the product of their distinct denominators."""
    dens = {t.coeff.den: _degree(t.coeff.den) for t in terms}
    den = sum(dens.values(), Counter())
    num = Counter()
    for t in terms:
        num |= _degree(t.coeff.num) + (den - dens[t.coeff.den])
    return num, den


def _size(num: Counter, den: Counter, n: int = 1) -> int:
    return _count(num, n) + (_count(den, n) if den else 0)


def _term_size(t) -> int:
    return len(t.coeff.num.terms) + (0 if t.coeff.den.is_const() else len(t.coeff.den.terms))


def _plain(p, q) -> bool:
    """Whether p and q plainly keep their monomial counts when freed of
    their gcd: one is a monomial, whose factors are monomials, or they have
    no common factor. Such a factor is a polynomial in their shared
    generators alone, so it divides each coefficient of p, and of q, as a
    polynomial in the other generators; a constant coefficient rules it out."""
    shared = p.gens() & q.gens()
    if not shared or len(p.terms) == 1 or len(q.terms) == 1:
        return True
    for r in (p, q):
        rest = Counter(tuple(x for x in m if x[0] not in shared) for m in r.terms)
        if any(rest[m] == 1 for m in r.terms if not any(v in shared for v, _ in m)):
            return True
    return False


def _bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return c.numerator.bit_length() + c.denominator.bit_length()


def _pair(t1, t2) -> int:
    """Monomial products of t1 * t2, each numerator first freed of its gcd
    with the other denominator. Where they may share a factor, degrees
    bound the cofactors, which can outgrow them as (t^32-1)/(t-1) does."""
    (n1, d1), (n2, d2) = (t1.coeff.num, t1.coeff.den), (t2.coeff.num, t2.coeff.den)
    (a, d), (b, c) = ((len(n.terms), len(d.terms)) if _plain(n, d)
                      else (_count(_degree(n)), _count(_degree(d)))
                      for n, d in ((n1, d2), (n2, d1)))
    return a * b + (0 if d1.is_const() and d2.is_const() else c * d)


def _bound(op: str, lhs: Expr, rhs) -> int:
    """The most pieces lhs op rhs builds, given a quotient's inverted
    divisor, or a power's exponent n >= 0 of an inverted base."""
    if op != "^" and all(t.coeff.den.is_const() for e in (lhs, rhs) for t in e.terms):
        # over constant denominators nothing cancels
        m, n = (sum(len(t.coeff.num.terms) for t in e.terms) for e in (lhs, rhs))
        return m + n if op in "+-" else m * n
    if op in "+-":
        # a term without a like partner passes through as it is
        like = {t.signature: t for t in lhs.terms}
        size = 0
        for t in rhs.terms:
            u = like.pop(t.signature, None)
            if u is None:
                size += _term_size(t)
            elif not _plain(u.coeff.den, t.coeff.den):
                size += _size(*_over_one((u, t)))
            else:  # (a*d + c*b)/(b*d), reduced at most by a monomial
                (a, b), (c, d) = ((len(x.coeff.num.terms), x.coeff.den) for x in (u, t))
                size += (a * len(d.terms) + c * len(b.terms)
                         + (0 if b.is_const() and d.is_const() else len(b.terms) * len(d.terms)))
        return size + sum(map(_term_size, like.values()))
    if op == "^":
        if rhs == 0:
            return 1
        # powering multiplies a coefficient's digits: n times the base's
        # largest coefficient counts once per 64 bits
        words = (rhs * max((_bits(c) for t in lhs.terms for p in (t.coeff.num, t.coeff.den)
                            for c in p.terms.values()), default=0) + 63) >> 6
        if len(lhs.terms) > 1 and not all(t.coeff.den.is_const() for t in lhs.terms):
            # like products of the terms meet over a common denominator
            powers = comb(len(lhs.terms) + rhs - 1, rhs)
            return max(words, powers * _size(*_over_one(lhs.terms), rhs))
        # over constant denominators, or of one reduced fraction, a power
        # cancels nothing
        sizes = (sum(len(t.coeff.num.terms) for t in lhs.terms),
                 sum(len(t.coeff.den.terms) for t in lhs.terms if not t.coeff.den.is_const()))
        return max(words, sum(comb(m + rhs - 1, rhs) for m in sizes if m))
    common = 0
    if len(lhs.terms) > 1 and len(rhs.terms) > 1:
        # like products of two pairs meet over a common denominator
        (n1, d1), (n2, d2) = _over_one(lhs.terms), _over_one(rhs.terms)
        common = _size(n1 + n2, d1 + d2)
    return sum(max(_pair(t1, t2), common) for t1 in lhs.terms for t2 in rhs.terms)


def _cap(what: str, size: int, pos: int) -> None:
    if size > MAX_EXPANSION:
        raise ParseError(
            f"{what} of {size} pieces exceeds the cap of "
            f"{MAX_EXPANSION} expanded products", pos
        )


def _inverse(e: Expr, pos: int) -> Expr:
    try:
        return e.invert()
    except DivisionError as exc:
        raise ParseError(str(exc), pos) from None


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
                continue
            rhs = self.parse(bp)
            if tok.value == "/":
                rhs = _inverse(rhs, tok.pos)
            _cap(_NODES[tok.value], _bound(tok.value, lhs, rhs), tok.pos)
            if tok.value == "+":
                lhs = lhs + rhs
            elif tok.value == "-":
                lhs = lhs - rhs
            else:
                lhs = lhs * rhs
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
        if n < 0:
            base, n = _inverse(base, pos), -n
        _cap("power", _bound("^", base, n), pos)
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
