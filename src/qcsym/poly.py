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
kept, any other is divided with its numerator by their gcd.

One gcd kernel (_gcd_cofactors) serves poly_gcd and _cancel. Most pairs
are proved coprime without gcd work: they share no generator, one is a
monomial, or _coprime finds the gcd of degree 0 in each shared generator
modulo a prime, with the other generators at fixed points. A shared factor
is found with its cofactors by GCDHEU on integer images (each generator a
power of one integer), proved by multiplying back, so nothing is divided.
GCDHEU runs only where _coprime proves nothing, on each input over its
monomial content, which would survive into the images; the shared part is
multiplied back. The primitive pseudo-remainder chain (Collins 1967), on
Poly itself, answers only what GCDHEU gives up on; it first takes each
input's content in the generators the other lacks. A pair with nothing to
cancel comes back as the same two objects. The parser's work meter lives
here too (arm_meter, charge); off, it costs a site one test of a global.

A Poly promises no order of its stored monomials: equality and hashes
ignore it, poly_text prints in descending graded lex order, and numeric
sums floats in that printed order whatever the storage.

Two products return early: a Poly times 1 is the other operand itself,
Poly being immutable, and times another constant scales the other's
coefficients; a CoeffFrac product whose two cross pairs share no factor
skips the search for its denominator's leading coefficient, because a
product of monic denominators is monic under graded lex.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, prod

from .errors import PoleError, WorkLimitError

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
        out[name] = out.get(name, 0) + e
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


# The work the running parse may still do, in monomial products, or None
# while no parse runs. parser.parse arms it for its own body; the package
# runs on one thread, so one value serves.
_work = None


def arm_meter(units: int | None) -> None:
    """Let the work charged from now on add up to units; None turns it off."""
    global _work
    _work = units


def charge(units: int) -> None:
    """Take units from the armed meter before the work; WorkLimitError when spent."""
    global _work
    if _work is not None:
        _work -= units
        if _work < 0:
            raise WorkLimitError("the work budget is spent")


def _bits(p: "Poly") -> int:
    return sum(c.bit_length() if type(c) is int else c.numerator.bit_length()
               + c.denominator.bit_length() for c in p.terms.values())


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
        if _work is not None:
            # a monomial product costs about 1.6 us; a pair of 64-bit
            # coefficient words costs 1.2 ns to multiply but about 64 times
            # that to print and read back, and is charged so, which keeps
            # every coefficient a parse admits printable and readable
            charge(len(self.terms) * len(other.terms) + (_bits(self) * _bits(other) >> 16))
        # a constant factor scales the other's coefficients; the unit 1
        # returns the other itself
        if other.is_const():
            c = other.terms[_EMPTY]
            return self if c == 1 else self.scale(c)
        if self.is_const():
            c = self.terms[_EMPTY]
            return other if c == 1 else other.scale(c)
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


def _primitive(f: Poly, v: str) -> tuple:
    """(content, primitive part) of a nonzero f as a polynomial in v.

    The content is the normalised gcd of f's coefficients in v; the
    primitive part is f divided by it and by f's rational content.
    """
    cont = P_ZERO
    for c in f.coeffs_in(v).values():
        cont = poly_gcd(cont, c)
        if cont == P_ONE:
            break
    if cont != P_ONE:
        f = poly_divexact(f, cont)
    return cont, f.scale(1 / f.content())


def _prem(f: Poly, g: Poly, v: str) -> Poly:
    """Pseudo-remainder of f by g in v.

    The result is only needed up to a positive rational factor, so the
    rational content is divided out every round to stop coefficient blow-up.
    """
    dg = g.degree(v)
    lg = g.coeffs_in(v)[dg]
    while f and f.degree(v) >= dg:
        df = f.degree(v)
        shift = Poly.var(v, df - dg) if df > dg else P_ONE
        f = lg * f - f.coeffs_in(v)[df] * g * shift
        f = f.scale(1 / f.content())
    return f


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """poly_gcd by the pseudo-remainder chain, for when the heuristic gives up.

    Each input is first replaced by its content in every generator the
    other lacks, which a common factor is free of. Then it recurses on one
    generator v both inputs have: the gcd of the two v-contents times the
    primitive part of the last nonzero pseudo-remainder.
    """
    ga, gb = a.gens(), b.gens()
    for u in sorted(ga - gb):
        a = _primitive(a, u)[0]
    for u in sorted(gb - ga):
        b = _primitive(b, u)[0]
    live = sorted(a.gens() & b.gens())
    if not live:
        return P_ONE
    v = min(live, key=lambda g: min(a.degree(g), b.degree(g)))
    ca, f = _primitive(a, v)
    cb, g = _primitive(b, v)
    if f.degree(v) < g.degree(v):
        f, g = g, f
    while g:
        r = _prem(f, g, v)
        f, g = g, _primitive(r, v)[1] if r else r
    return _normalize_gcd(poly_gcd(ca, cb) * f)


# _coprime reads gcd degrees modulo this prime, 2^61 - 1
_PRIME = (1 << 61) - 1


def _point(name: str) -> int:
    """The fixed point, modulo _PRIME, at which _coprime puts a generator."""
    return int.from_bytes(name.encode(), "little") * 0x9E3779B97F4A7C15 % _PRIME


def _image(p: Poly, v: str, point: dict) -> list:
    """p modulo _PRIME with every generator but v at its point: the
    coefficients of the powers of v, lowest first, up to p's degree in v."""
    out = [0] * (p.degree(v) + 1)
    for m, c in p.terms.items():
        r = c if type(c) is int else c.numerator * pow(c.denominator, -1, _PRIME)
        e = 0
        for name, k in m:
            if name == v:
                e = k
            else:
                r *= pow(point[name], k, _PRIME)
        out[e] += r
    return [c % _PRIME for c in out]


def _gcd_degree(f: list, g: list) -> int:
    """The degree of gcd(f, g) over the integers modulo _PRIME, for
    coefficient lists as _image gives them, not both zero."""
    f = f[:]
    g = g[:]
    while g and not g[-1]:
        g.pop()
    while g:
        dg = len(g) - 1
        inv = pow(g[-1], -1, _PRIME)
        lower = g[:-1]
        for top in range(len(f) - 1, dg - 1, -1):
            q = f[top] * inv % _PRIME
            if q:
                for i, c in enumerate(lower, top - dg):
                    f[i] = (f[i] - q * c) % _PRIME
        del f[dg:]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) - 1


def _coprime(a: Poly, b: Poly) -> bool:
    """True when gcd(a, b) is proved constant; False proves nothing.

    A common factor h involves only generators both have. For each such v,
    put every other generator at its _point. If a's leading coefficient in
    v survives (or b's), so does h's, which divides it, and the images of a
    and b share a factor of h's degree in v. A gcd of images of degree 0
    for every v proves h constant.
    """
    ga, gb = a.gens(), b.gens()
    point = {g: _point(g) for g in ga | gb}
    for v in sorted(ga & gb):
        try:
            fa = _image(a, v, point)
            fb = _image(b, v, point)
        except ValueError:  # a denominator the prime divides has no image
            return False
        if not fa[-1] and not fb[-1]:
            return False
        charge(len(fa) * len(fb) >> 3)  # a remainder step costs about a tenth of a unit
        if _gcd_degree(fa, fb):
            return False
    return True


def _heuristic_gcd(a: Poly, b: Poly) -> tuple | None:
    """(g, a/g, b/g) by GCDHEU (Char, Geddes & Gonnet 1989), or None when
    four evaluation points give no answer.

    Each generator becomes a power of y, in mixed radix by its degree so
    that distinct monomials get distinct powers: a and b over their
    contents become integer polynomials A and B in y, and at y = xi,
    integers. The symmetric base-xi digits of gcd(A(xi), B(xi)) over their
    content c are read back as a polynomial h, and those of A(xi) and
    B(xi) over h(xi) as its cofactors. When multiplying back returns a and
    b, h divides both, and it is their gcd, since a common factor of a and
    b maps to one of A and B. For if gcd(A, B) were h*e with e not
    constant, e(xi) would divide c, which is at most xi/2; but the roots of
    e are roots of A and of B, so they lie below N + 1 for the smaller norm
    N of the two, and xi > 2N + 2 makes |e(xi)| > xi/2.
    """
    gens = sorted(a.gens() | b.gens())
    bases = [max(a.degree(g), b.degree(g)) + 1 for g in gens]
    radix = list(zip(reversed(gens), reversed(bases)))
    size = prod(bases)

    def integral(p: Poly) -> tuple:
        """(p over its content, as a Poly and as {power of xi: coefficient};
        the content)."""
        u = p.content()
        n, d = u.numerator, u.denominator
        q = {}
        image = {}
        for m, c in p.terms.items():
            c = c * d // n if type(c) is int else c.numerator * (d // c.denominator) // n
            q[m] = c
            powers = dict(m)
            j = 0
            for g, base in radix:
                j = j * base + powers.get(g, 0)
            image[j] = c
        return Poly(q), image, (n if d == 1 else u)

    def digits(n: int) -> Poly | None:
        """The polynomial whose image has n's symmetric base-xi digits; None
        when they run past the largest power a monomial maps to."""
        out = {}
        j = 0
        while n:
            digit = n % xi
            if digit > xi // 2:
                digit -= xi
            n = (n - digit) // xi
            if digit:
                if j >= size:
                    return None
                m = []
                rest = j
                for g, base in zip(gens, bases):
                    rest, e = divmod(rest, base)
                    if e:
                        m.append((g, e))
                out[tuple(m)] = digit
            j += 1
        return Poly(out)

    pa, ka, ua = integral(a)
    pb, kb, ub = integral(b)
    xi = 2 * min(max(map(abs, ka.values())), max(map(abs, kb.values()))) + 29
    length = max(max(ka), max(kb)) + 1  # the images' digits in base xi
    for _ in range(4):
        # building the images, their gcd and reading back three of them in
        # base xi take time quadratic in the images' bits
        charge(length * (length * xi.bit_length() >> 6) >> 5)
        va = sum(c * xi ** j for j, c in ka.items())
        vb = sum(c * xi ** j for j, c in kb.items())
        gamma = _int_gcd(va, vb)
        h = digits(gamma)
        if h is not None:
            if h.is_const():
                return P_ONE, a, b
            unit = _int_gcd(*h.terms.values())
            if unit != 1:
                h = Poly({m: c // unit for m, c in h.terms.items()})
            qa = digits(va * unit // gamma)
            qb = digits(vb * unit // gamma)
            if qa is not None and qb is not None and h * qa == pa and h * qb == pb:
                sign = -1 if h.lead_coeff() < 0 else 1
                return h.scale(sign), qa.scale(sign * ua), qb.scale(sign * ub)
        xi = 2 * xi + 1
    return None


def _gcd_cofactors(a: Poly, b: Poly) -> tuple:
    """(g, a/g, b/g) with g = poly_gcd(a, b), for a and b nonzero.

    When g is 1 the cofactors are a and b themselves. Inputs with no
    shared generator, a monomial, equal inputs and inputs _coprime proves
    coprime take no gcd work; GCDHEU answers the rest over their monomial
    contents, and the pseudo-remainder chain only what it gives up on.
    """
    ga, gb = a.gens(), b.gens()
    if ga.isdisjoint(gb):  # a common factor needs a generator both have
        return P_ONE, a, b
    if len(a.terms) == 1 or len(b.terms) == 1:  # a monomial's factors are monomials
        m = mono_gcd(a.mono_content(), b.mono_content())
        if not m:
            return P_ONE, a, b
        return Poly({m: 1}), a.div_mono(m), b.div_mono(m)
    if a == b:
        g = _normalize_gcd(a)
        unit = Poly.const(a.lead_coeff() / g.lead_coeff())
        return g, unit, unit
    if _coprime(a, b):
        return P_ONE, a, b
    # GCDHEU's images keep a monomial content, so that different ones make
    # it give up: the shared part is multiplied back afterwards
    ma, mb = a.mono_content(), b.mono_content()
    m = mono_gcd(ma, mb)
    pa, pb = a.div_mono(ma), b.div_mono(mb)
    found = _heuristic_gcd(pa, pb)
    if found is None:
        g = _prs_gcd(pa, pb)
        found = g, poly_divexact(pa, g), poly_divexact(pb, g)
    g, qa, qb = found
    if g == P_ONE and not m:
        return P_ONE, a, b
    return (Poly({m: 1}) * g, Poly({mono_div(ma, m): 1}) * qa,
            Poly({mono_div(mb, m): 1}) * qb)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd of a and b, with content 1 and a positive leading coefficient."""
    if a.is_zero():
        return _normalize_gcd(b)
    if b.is_zero():
        return _normalize_gcd(a)
    return _gcd_cofactors(a, b)[0]


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
    """(num, den) divided by their gcd, for num nonzero: the same two
    objects when den is constant or nothing cancels."""
    if den.is_const():
        return num, den
    return _gcd_cofactors(num, den)[1:]


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

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "CoeffFrac":
        """num/den as given, for a pair already reduced with den monic."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        out._hash = None
        return out

    def is_zero(self) -> bool:
        return self.num.is_zero()

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
        return CoeffFrac._reduced(-self.num, self.den)

    def __sub__(self, other: "CoeffFrac") -> "CoeffFrac":
        return self + (-other)

    def __mul__(self, other: "CoeffFrac") -> "CoeffFrac":
        if self.is_zero() or other.is_zero():
            return F_ZERO
        # cross-reduce; the cross-reduced product is reduced by construction
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        if d1 is self.den and d2 is other.den:
            # nothing cancelled, and a product of monic denominators is monic
            return CoeffFrac._reduced(n1 * n2, d1 * d2)
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
