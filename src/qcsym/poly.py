"""Sparse multivariate polynomials and rational functions over exact rationals.

Generators are named symbols (the lattice variables t, x plus any parameter
symbols).  A monomial is a sorted tuple of (name, exponent) pairs with
positive exponents; a polynomial maps monomials to nonzero rationals, each
an int when integral and a Fraction otherwise (expr.AffineExponent keeps its
coefficients by the same rule). An int equals, orders and hashes like the
equal Fraction, so equality, hashes and printed text are the same either
way, and int arithmetic skips Fraction's normalising gcd.  Fractions of
polynomials are kept reduced with a monic denominator, so equality is
structural. One rule cancels them (_cancel): a constant denominator is
kept, any other is divided with its numerator by their poly_gcd.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .errors import PoleError

Mono = tuple  # ((name, exp), ...) sorted by name, all exps > 0

_EMPTY: Mono = ()


def mono_var(name: str, exp: int = 1) -> Mono:
    return ((name, exp),)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for name, e in b:
        new = out.get(name, 0) + e
        if new:
            out[name] = new
        else:
            del out[name]
    return tuple(sorted(out.items()))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when monomial a divides b."""
    bd = dict(b)
    return all(bd.get(name, 0) >= e for name, e in a)


def mono_div(b: Mono, a: Mono) -> Mono:
    out = dict(b)
    for name, e in a:
        new = out[name] - e
        if new:
            out[name] = new
        else:
            del out[name]
    return tuple(sorted(out.items()))


def mono_gcd(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return _EMPTY
    bd = dict(b)
    out = {}
    for name, e in a:
        m = min(e, bd.get(name, 0))
        if m:
            out[name] = m
    return tuple(sorted(out.items()))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_split(m: Mono, v: str) -> tuple:
    """(exponent of v in m, the rest of m)."""
    for i, (name, e) in enumerate(m):
        if name == v:
            return e, m[:i] + m[i + 1:]
    return 0, m


def grlex_key(gens):
    """Sort key of graded lexicographic order over the sorted generators gens."""
    def key(m: Mono) -> tuple:
        md = dict(m)
        return (mono_degree(m), tuple(md.get(g, 0) for g in gens))
    return key


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    A coefficient is stored as an int when it is integral and as a Fraction
    otherwise. const_value() and lead_coeff() return a Fraction whatever the
    stored type. Two raw coefficients must not meet in `/`: int / int is
    float division.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    if type(c) is not int:
                        if not isinstance(c, Fraction):
                            c = Fraction(c)
                        if c.denominator == 1:
                            c = c.numerator
                    t[m] = c
        self.terms = t
        self._hash = None  # most polynomials are never hashed

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({_EMPTY: c})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "Poly":
        return cls({mono_var(name, exp): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self.terms}")
        return Fraction(self.terms[_EMPTY])

    def gens(self) -> set:
        out = set()
        for m in self.terms:
            for name, _ in m:
                out.add(name)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            new = out.get(m, 0) + c
            if new:
                out[m] = new
            else:
                out.pop(m, None)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly()
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                new = out.get(m, 0) + c1 * c2
                if new:
                    out[m] = new
                else:
                    out.pop(m, None)
        return Poly(out)

    def scale(self, c) -> "Poly":
        """self times the rational c, an int or a Fraction."""
        if not c:
            return Poly()
        return Poly({m: co * c for m, co in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def deriv(self, gen: str) -> "Poly":
        out: dict = {}
        for m, c in self.terms.items():
            e, _ = mono_split(m, gen)
            if e:  # distinct monomials have distinct derivatives
                out[mono_div(m, mono_var(gen))] = c * e
        return Poly(out)

    def coeffs_in(self, v: str) -> dict:
        """self as a polynomial in v: degree -> coefficient Poly free of v."""
        out: dict = {}
        for m, c in self.terms.items():
            e, rest = mono_split(m, v)
            out.setdefault(e, {})[rest] = c
        return {e: Poly(d) for e, d in out.items()}

    def subst(self, gen: str, value) -> "Poly":
        """Substitute a generator by a Fraction or Poly."""
        if gen not in self.gens():
            return self
        vp = value if isinstance(value, Poly) else Poly.const(value)
        out = Poly()
        for e, c in self.coeffs_in(gen).items():
            out = out + (c * vp ** e if e else c)
        return out

    def degree(self, gen: str) -> int:
        d = 0
        for m in self.terms:
            for name, e in m:
                if name == gen and e > d:
                    d = e
        return d

    def lead_mono(self) -> Mono:
        """Leading monomial under graded lexicographic order."""
        if len(self.terms) == 1:
            return next(iter(self.terms))
        return max(self.terms, key=grlex_key(sorted(self.gens())))

    def lead_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[self.lead_mono()])

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, abs(c.numerator))
            den = den * c.denominator // _int_gcd(den, c.denominator)
        return Fraction(num, den)

    def mono_content(self) -> Mono:
        it = iter(self.terms)
        try:
            out = next(it)
        except StopIteration:
            return _EMPTY
        for m in it:
            out = mono_gcd(out, m)
            if not out:
                break
        return out

    def div_mono(self, m: Mono) -> "Poly":
        if not m:
            return self
        return Poly({mono_div(mo, m): c for mo, c in self.terms.items()})

    def eval(self, values: dict) -> Fraction:
        """Exact evaluation; every generator must be bound to a Fraction."""
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for name, e in m:
                v *= Fraction(values[name]) ** e
            total += v
        return total

    def __repr__(self) -> str:
        return f"Poly({dict(sorted(self.terms.items()))!r})"


P_ZERO = Poly()
P_ONE = Poly.const(1)


def _from_univar(coeffs: dict, v: str) -> Poly:
    out = Poly()
    for e, c in coeffs.items():
        out = out + c * (Poly.var(v, e) if e else P_ONE)
    return out


def _gcd_list(polys) -> Poly:
    g = P_ZERO
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_const() and not g.is_zero():
            return P_ONE
    return g


def _strip_numeric_content(f: dict) -> dict:
    """Divide all coefficient polys by their shared rational content."""
    if not f:
        return f
    num, den = 0, 1
    for p in f.values():
        c = p.content()
        num = _int_gcd(num, c.numerator)
        den = den * c.denominator // _int_gcd(den, c.denominator)
    scale = Fraction(num, den)
    if scale in (0, 1):
        return f
    inv = 1 / scale
    return {e: p.scale(inv) for e, p in f.items()}


def _prem(f: dict, g: dict, v: str) -> dict:
    """Pseudo-remainder of univariate views (degree -> Poly coefficients).

    The result is only needed up to a positive rational factor, so the
    numeric content is stripped every round to stop coefficient blow-up.
    """
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        # r <- lg*r - lr * g * v^(dr-dg)
        new: dict = {}
        for e, c in r.items():
            new[e] = c * lg
        for e, c in g.items():
            shift = e + dr - dg
            new[shift] = new.get(shift, P_ZERO) - lr * c
        r = _strip_numeric_content(
            {e: c for e, c in new.items() if not c.is_zero()}
        )
    return r


def _primitive(f: dict) -> tuple:
    """(content, primitive part) of a univariate view f.

    The content is the normalised gcd of f's coefficients; the primitive
    part is f divided by it and by the coefficients' shared rational content.
    """
    if not f:
        return P_ZERO, f
    cont = _gcd_list(f.values())
    if cont != P_ONE:
        f = {e: poly_divexact(c, cont) for e, c in f.items()}
    return cont, _strip_numeric_content(f)


def _normalize_gcd(p: Poly) -> Poly:
    if p.is_zero():
        return p
    if p.is_const():
        return P_ONE
    c = p.content()
    if p.lead_coeff() < 0:
        c = -c
    if c == 1:
        return p
    return p.scale(Fraction(1) / c)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd of a and b, with content 1 and a positive leading coefficient.

    After the early outs and the shared monomial content, it recurses on
    one generator v both inputs have: the gcd of the two v-contents times
    the primitive part of the last nonzero pseudo-remainder.
    """
    if a.is_zero():
        return _normalize_gcd(b)
    if b.is_zero() or a == b:
        return _normalize_gcd(a)
    if a.is_const() or b.is_const():
        return P_ONE
    ma, mb = a.mono_content(), b.mono_content()
    mc = mono_gcd(ma, mb)
    a = a.div_mono(ma)
    b = b.div_mono(mb)
    shared = Poly({mc: 1}) if mc else P_ONE
    # a common factor involves only generators both inputs have
    live = sorted(a.gens() & b.gens())
    if not live:
        return _normalize_gcd(shared)
    v = min(live, key=lambda g: min(a.degree(g), b.degree(g)))
    cf, fu = _primitive(a.coeffs_in(v))
    cg, gu = _primitive(b.coeffs_in(v))
    if max(fu) < max(gu):
        fu, gu = gu, fu
    while gu:
        fu, gu = gu, _primitive(_prem(fu, gu, v))[1]
    core = _from_univar(fu, v)
    return _normalize_gcd(shared * poly_gcd(cf, cg) * core)


def poly_divexact(f: Poly, g: Poly) -> Poly:
    """Exact division f/g; raises if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_const():
        return f.scale(Fraction(1) / g.const_value())
    order = grlex_key(sorted(f.gens() | g.gens()))
    q: dict = {}
    r = f
    g_lead = max(g.terms, key=order)
    g_lc = g.terms[g_lead]
    while not r.is_zero():
        r_lead = max(r.terms, key=order)
        if not mono_divides(g_lead, r_lead):
            raise ValueError("inexact polynomial division")
        m = mono_div(r_lead, g_lead)
        c = Fraction(r.terms[r_lead]) / g_lc
        q[m] = q.get(m, 0) + c
        r = r - Poly({m: c}) * g
    return Poly(q)


def _cancel(num: Poly, den: Poly) -> tuple:
    """(num, den) divided by their gcd; unchanged when den is constant."""
    if den.is_const():
        return num, den
    g = poly_gcd(num, den)
    if g == P_ONE:
        return num, den
    return poly_divexact(num, g), poly_divexact(den, g)


class CoeffFrac:
    """Reduced fraction of polynomials; the coefficient field of the term language.

    Invariants: gcd(num, den) = 1 and den is monic under graded lex. Every
    cancellation goes through _cancel: in the constructor unless reduce is
    False, and on each cross pair in __mul__.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly | None = None, reduce: bool = True):
        den = den if den is not None else P_ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in coefficient fraction")
        if num.is_zero():
            den = P_ONE
        else:
            if reduce:
                num, den = _cancel(num, den)
            lc = den.terms[den.lead_mono()]
            if lc != 1:
                inv = Fraction(1) / lc
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def const(cls, c) -> "CoeffFrac":
        return cls(Poly.const(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def gens(self) -> set:
        return self.num.gens() | self.den.gens()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffFrac)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other: "CoeffFrac") -> "CoeffFrac":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1 == d2:
            return CoeffFrac(n1 + n2, d1)
        return CoeffFrac(n1 * d2 + n2 * d1, d1 * d2)

    def __neg__(self) -> "CoeffFrac":
        return CoeffFrac(-self.num, self.den, reduce=False)

    def __sub__(self, other: "CoeffFrac") -> "CoeffFrac":
        return self + (-other)

    def __mul__(self, other: "CoeffFrac") -> "CoeffFrac":
        if self.is_zero() or other.is_zero():
            return F_ZERO
        # cross-reduce; the cross-reduced product is reduced by construction
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return CoeffFrac(n1 * n2, d1 * d2, reduce=False)

    def inverse(self) -> "CoeffFrac":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero coefficient")
        return CoeffFrac(self.den, self.num)

    def __truediv__(self, other: "CoeffFrac") -> "CoeffFrac":
        return self * other.inverse()

    def deriv(self, gen: str) -> "CoeffFrac":
        dn = self.num.deriv(gen)
        dd = self.den.deriv(gen)
        if dd.is_zero():
            return CoeffFrac(dn, self.den)
        return CoeffFrac(dn * self.den - self.num * dd, self.den * self.den)

    def subst(self, gen: str, value) -> "CoeffFrac":
        num = self.num.subst(gen, value)
        den = self.den.subst(gen, value)
        if den.is_zero():
            raise PoleError(
                f"denominator vanished when substituting {gen}"
            )
        return CoeffFrac(num, den)

    def eval(self, values: dict) -> Fraction:
        den = self.den.eval(values)
        if den == 0:
            raise PoleError("denominator vanished at evaluation point")
        return self.num.eval(values) / den

    def sign(self) -> int:
        if self.num.is_zero():
            return 0
        return 1 if self.num.lead_coeff() > 0 else -1

    def __repr__(self) -> str:
        return f"CoeffFrac({self.num!r}, {self.den!r})"


F_ZERO = CoeffFrac(P_ZERO)
F_ONE = CoeffFrac(P_ONE)
