"""Canonical symbolic expressions for the symmetry-classification term language.

An expression is a canonical sum of terms; every term is

    coeff(t, x, params) * V^(affine exponent) * exp(affine * V) * product of
    unknown-function atoms with derivative indices.

Affine exponents live over the three exponent parameters p, k, n.  Everything
is immutable; all operations return new canonical values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionError
from .poly import CoeffFrac, F_ONE, Poly, grlex_key

EXPONENT_PARAMS = ("p", "k", "n")


@dataclass(frozen=True, slots=True)
class AffineExponent:
    """Exponent of the form cp*p + ck*k + cn*n + c0 with rational coefficients.

    A coefficient is stored as an int when it is integral and as a Fraction
    otherwise, the rule Poly follows. An int equals, orders and hashes like
    the equal Fraction, so the field tuple is the canonical key() and int
    arithmetic skips Fraction's normalising gcd. Two raw coefficients must not
    meet in `/`: int / int is float division.
    """

    cp: int | Fraction = 0
    ck: int | Fraction = 0
    cn: int | Fraction = 0
    c0: int | Fraction = 0

    def __post_init__(self):
        # all-int forms, every exponent of the replay, skip the normalising loop
        if not (type(self.cp) is type(self.ck) is type(self.cn) is type(self.c0) is int):
            for name in ("cp", "ck", "cn", "c0"):
                object.__setattr__(self, name, _rational(getattr(self, name)))

    @classmethod
    def const(cls, c) -> "AffineExponent":
        return cls(c0=c)

    def __add__(self, other: "AffineExponent") -> "AffineExponent":
        # the form is frozen, so a zero side returns the other as it is
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return AffineExponent(
            self.cp + other.cp, self.ck + other.ck,
            self.cn + other.cn, self.c0 + other.c0,
        )

    def __sub__(self, other: "AffineExponent") -> "AffineExponent":
        return AffineExponent(
            self.cp - other.cp, self.ck - other.ck,
            self.cn - other.cn, self.c0 - other.c0,
        )

    def __neg__(self) -> "AffineExponent":
        return AffineExponent(-self.cp, -self.ck, -self.cn, -self.c0)

    def scale(self, c) -> "AffineExponent":
        return AffineExponent(self.cp * c, self.ck * c, self.cn * c, self.c0 * c)

    def is_zero(self) -> bool:
        return not (self.cp or self.ck or self.cn or self.c0)

    def is_const(self) -> bool:
        return not (self.cp or self.ck or self.cn)

    def key(self) -> tuple:
        return (self.cp, self.ck, self.cn, self.c0)

    def coeff_of(self, name: str) -> int | Fraction:
        return {"p": self.cp, "k": self.ck, "n": self.cn}[name]

    def solve_for(self, name: str) -> "AffineExponent | None":
        """The value v such that self = 0 reads name = v; None when the form
        does not involve the parameter."""
        c = self.coeff_of(name)
        if not c:
            return None
        rest = self - AffineExponent(**{"c" + name: c})
        return rest.scale(Fraction(-1) / c)

    def subst(self, name: str, value: "AffineExponent") -> "AffineExponent":
        """Replace an exponent parameter by an affine value."""
        c = self.coeff_of(name)
        if not c:
            return self
        return self - AffineExponent(**{"c" + name: c}) + value.scale(c)

    @classmethod
    def from_poly(cls, poly: Poly) -> "AffineExponent | None":
        """The affine form a polynomial spells, or None when it has a monomial
        other than a constant or a first power of p, k or n."""
        coeffs = dict.fromkeys(("cp", "ck", "cn", "c0"), 0)
        for mono, c in poly.terms.items():
            if not mono:
                coeffs["c0"] += c
            elif len(mono) == 1 and mono[0][1] == 1 and mono[0][0] in EXPONENT_PARAMS:
                coeffs["c" + mono[0][0]] += c
            else:
                return None
        return cls(**coeffs)

    @classmethod
    def from_expr(cls, e: "Expr") -> "AffineExponent":
        """The affine form a coefficient-only expression spells; ValueError
        when it carries V powers, atoms, or a non-affine coefficient."""
        if e.is_zero():
            return AFF_ZERO
        if len(e.terms) != 1:
            # a sum of plain coefficient terms canonicalizes to one term,
            # so anything else carries atoms or V powers
            raise ValueError("exponent must be an affine coefficient expression")
        t = e.terms[0]
        if not t.vpow.is_zero() or not t.expc.is_zero() or t.fns:
            raise ValueError("exponent must be an affine coefficient expression")
        aff = cls.from_poly(t.coeff.num) if t.coeff.den.is_const() else None
        if aff is None:
            raise ValueError(f"exponent {coeff_text(t.coeff)} is not affine in p, k, n")
        return aff

    def proportional_to(self, other: "AffineExponent") -> bool:
        """True when self = c*other for a nonzero rational c.

        Compared by cross-multiplication against one pivot coefficient: the
        coefficients may be ints, and int / int would be float division.
        """
        pairs = tuple(zip(self.key(), other.key()))
        pivot = next(((x, y) for x, y in pairs if y), None)
        if pivot is None or not pivot[0]:
            return False
        px, py = pivot
        return all(x * py == px * y for x, y in pairs)

    def parameter(self) -> str | None:
        """p, k or n when the form is exactly that parameter, else None."""
        return _BARE.get(self.key()) or None

    def to_poly(self) -> Poly:
        out = Poly.const(self.c0)
        for c, name in ((self.cp, "p"), (self.ck, "k"), (self.cn, "n")):
            if c:
                out = out + Poly.var(name).scale(c)
        return out

    def __str__(self) -> str:
        return affine_text(self)


def _rational(c) -> int | Fraction:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


AFF_ZERO = AffineExponent()
AFF_ONE = AffineExponent.const(1)

# the exponents whose powers print bare (V, V^p, exp(k*V)), with the text
# that stands for them; natural-number powers of V print bare as well
_BARE = {
    AFF_ONE.key(): "",
    **{AffineExponent(**{"c" + name: 1}).key(): name for name in EXPONENT_PARAMS},
}


# ---------------------------------------------------------------------------
# the symbol table: what each name of the language denotes

PARAMETERS = frozenset(
    {
        "p", "k", "n", "m", "lambda",
        "lambda0", "lambda1", "lambda2", "lambda3",
        "A", "A1", "A2", "A1star", "eps",
    }
)

# each unknown function and the variables among (t, x, V) it depends on
FUNCTIONS = {
    "a": ("t", "x"),
    "f": ("t", "x"),
    "g": ("t", "x"),
    "h": ("t", "x"),
    "alpha": ("t",),
    "beta": ("t",),
    "gamma": ("t",),
    "F": ("V",),
    "xi": ("t", "x", "V"),
    "eta": ("t", "x", "V"),
}


@dataclass(frozen=True, slots=True)
class FnAtom:
    """Unknown-function atom with derivative indices and an integer power.

    The function depends on the variables FUNCTIONS lists for its name;
    derivatives in other variables are identically zero and such atoms are
    rejected.
    """

    name: str
    dt: int = 0
    dx: int = 0
    dV: int = 0
    power: int = 1

    def __post_init__(self):
        if self.power == 0:
            raise ValueError("zero-power function atom")
        deps = FUNCTIONS.get(self.name)
        if deps is None:
            raise ValueError(f"unknown function {self.name!r}")
        if self.dt and "t" not in deps:
            raise ValueError(f"{self.name} does not depend on t")
        if self.dx and "x" not in deps:
            raise ValueError(f"{self.name} does not depend on x")
        if self.dV and "V" not in deps:
            raise ValueError(f"{self.name} does not depend on V")
        if self.power < 0 and self.is_derived():
            raise ValueError(
                f"negative power on derived atom {self.base_text()}"
            )

    @property
    def deps(self) -> tuple:
        return FUNCTIONS[self.name]

    def is_derived(self) -> bool:
        return bool(self.dt or self.dx or self.dV)

    def sort_key(self) -> tuple:
        return (self.name, self.dt, self.dx, self.dV)

    def base_text(self) -> str:
        suffix = "t" * self.dt + "x" * self.dx + "V" * self.dV
        return self.name + ("_" + suffix if suffix else "")

    def __str__(self) -> str:
        if self.power == 1:
            return self.base_text()
        if self.power > 0:
            return f"{self.base_text()}^{self.power}"
        return f"{self.base_text()}^({self.power})"


def merge_fns(fns1, fns2):
    """Merge two sorted atom tuples, summing powers of identical atoms."""
    out = {}
    for a in fns1 + fns2:
        k = a.sort_key()
        cur = out.get(k)
        if cur is None:
            out[k] = a
        else:
            p = cur.power + a.power
            if p:
                out[k] = FnAtom(a.name, a.dt, a.dx, a.dV, p)
            else:
                del out[k]
    return tuple(out[k] for k in sorted(out))


class Term:
    """One canonical product: coefficient * V-power * exponential * atoms."""

    __slots__ = ("coeff", "vpow", "expc", "fns", "_sig")

    def __init__(self, coeff: CoeffFrac, vpow: AffineExponent = AFF_ZERO,
                 expc: AffineExponent = AFF_ZERO, fns: tuple = ()):
        self.coeff = coeff
        self.vpow = vpow
        self.expc = expc
        self.fns = fns
        self._sig = (vpow.key(), expc.key(), tuple(a.sort_key() + (a.power,) for a in fns))

    @property
    def signature(self) -> tuple:
        return self._sig

    def __mul__(self, other: "Term") -> "Term":
        return Term(
            self.coeff * other.coeff,
            self.vpow + other.vpow,
            self.expc + other.expc,
            merge_fns(self.fns, other.fns),
        )

    def scale(self, c: CoeffFrac) -> "Term":
        return Term(self.coeff * c, self.vpow, self.expc, self.fns)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Term)
            and self._sig == other._sig
            and self.coeff == other.coeff
        )

    def __hash__(self) -> int:
        return hash((self._sig, self.coeff))

    def __str__(self) -> str:
        return expr_text(Expr((self,)))

    def __repr__(self) -> str:
        return f"Term<{self}>"


class Expr:
    """Canonical sum of terms, ordered descending by term signature."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple):
        self.terms = terms
        self._hash = None

    @staticmethod
    def from_terms(terms) -> "Expr":
        merged: dict = {}
        for t in terms:
            if t.coeff.is_zero():
                continue
            cur = merged.get(t._sig)
            if cur is None:
                merged[t._sig] = t
            else:
                c = cur.coeff + t.coeff
                if c.is_zero():
                    del merged[t._sig]
                else:
                    merged[t._sig] = Term(c, t.vpow, t.expc, t.fns)
        ordered = tuple(
            merged[s] for s in sorted(merged, reverse=True)
        )
        return Expr(ordered)

    @staticmethod
    def zero() -> "Expr":
        return E_ZERO

    @staticmethod
    def one() -> "Expr":
        return E_ONE

    @staticmethod
    def const(c) -> "Expr":
        c = Fraction(c)
        if not c:
            return E_ZERO
        return Expr((Term(CoeffFrac.const(c)),))

    @staticmethod
    def from_coeff(c: CoeffFrac) -> "Expr":
        if c.is_zero():
            return E_ZERO
        return Expr((Term(c),))

    @staticmethod
    def vpower(e: AffineExponent) -> "Expr":
        return Expr((Term(F_ONE, vpow=e),))

    @staticmethod
    def exp_atom(c: AffineExponent) -> "Expr":
        return Expr((Term(F_ONE, expc=c),))

    @staticmethod
    def atom(a: FnAtom) -> "Expr":
        return Expr((Term(F_ONE, fns=(a,)),))

    @staticmethod
    def generator(name: str) -> "Expr":
        return Expr((Term(CoeffFrac(Poly.var(name))),))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __add__(self, other: "Expr") -> "Expr":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return Expr.from_terms(self.terms + other.terms)

    def __neg__(self) -> "Expr":
        return Expr(tuple(Term(-t.coeff, t.vpow, t.expc, t.fns) for t in self.terms))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __mul__(self, other: "Expr") -> "Expr":
        if not self.terms or not other.terms:
            return E_ZERO
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(t1 * t2)
        return Expr.from_terms(out)

    def scale(self, c) -> "Expr":
        c = c if isinstance(c, CoeffFrac) else CoeffFrac.const(c)
        if c.is_zero():
            return E_ZERO
        return Expr(tuple(t.scale(c) for t in self.terms))

    def invert(self) -> "Expr":
        """Invert a single-term expression with no derived atoms."""
        if not self.terms:
            raise DivisionError("division by zero")
        if len(self.terms) != 1:
            raise DivisionError(
                f"cannot invert a {len(self.terms)}-term expression"
            )
        t = self.terms[0]
        for a in t.fns:
            if a.is_derived():
                raise DivisionError(
                    f"cannot invert derived atom {a.base_text()}"
                )
        fns = tuple(
            FnAtom(a.name, 0, 0, 0, -a.power) for a in t.fns
        )
        return Expr((Term(t.coeff.inverse(), -t.vpow, -t.expc, fns),))

    def __truediv__(self, other: "Expr") -> "Expr":
        return self * other.invert()

    def __pow__(self, n: int) -> "Expr":
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return E_ONE
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def lead(self) -> Term:
        return self.terms[0]

    def __str__(self) -> str:
        return expr_text(self)

    def __repr__(self) -> str:
        return f"Expr<{expr_text(self)}>"


E_ZERO = Expr(())
E_ONE = Expr((Term(F_ONE),))


# ---------------------------------------------------------------------------
# canonical printing


def _signed_sum(parts, gap: str = "") -> str:
    """Join (sign, body) pairs into a sum; a leading plus sign is dropped."""
    (sign, body), rest = parts[0], parts[1:]
    head = body if sign == "+" else "-" + body
    return head + "".join(gap + s + gap + b for s, b in rest)


def _bracket(text: str, ops: str) -> str:
    """text, in parentheses when one of ops occurs in it at depth zero (a
    leading sign does not count)."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and i > 0 and ch in ops:
            return f"({text})"
    return text


def affine_text(a: AffineExponent) -> str:
    parts = []
    for c, name in ((a.cp, "p"), (a.ck, "k"), (a.cn, "n")):
        if not c:
            continue
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        parts.append(("-" if c < 0 else "+", body))
    if a.c0 or not parts:
        parts.append(("-" if a.c0 < 0 else "+", str(abs(a.c0))))
    return _signed_sum(parts)


def poly_text(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=grlex_key(sorted(p.gens())), reverse=True):
        c = p.terms[m]
        factors = []
        for name, e in m:
            factors.append(name if e == 1 else f"{name}^{e}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    return _signed_sum(parts)


def coeff_text(c: CoeffFrac) -> str:
    num = poly_text(c.num)
    if c.den.is_const():
        return num
    return f"{_bracket(num, '+-/')}/({poly_text(c.den)})"


def _vpow_text(e: AffineExponent) -> str:
    bare = _BARE.get(e.key())
    if bare is None and e.is_const() and e.c0.denominator == 1 and e.c0 >= 0:
        bare = str(e.c0)
    if bare is None:
        return f"V^({affine_text(e)})"
    return f"V^{bare}" if bare else "V"


def _exp_text(c: AffineExponent) -> str:
    bare = _BARE.get(c.key())
    if bare is None:
        return f"exp(({affine_text(c)})*V)"
    return f"exp({bare}*V)" if bare else "exp(V)"


def term_text(t: Term) -> tuple:
    """Return (sign, body) for a term; body omits the sign."""
    sign = "-" if t.coeff.sign() < 0 else "+"
    coeff = t.coeff if t.coeff.sign() >= 0 else -t.coeff
    factors = []
    if not t.vpow.is_zero():
        factors.append(_vpow_text(t.vpow))
    if not t.expc.is_zero():
        factors.append(_exp_text(t.expc))
    for a in t.fns:
        factors.append(str(a))
    if not (factors and coeff == F_ONE):
        factors.insert(0, _bracket(coeff_text(coeff), "+-"))
    return sign, "*".join(factors)


def expr_text(e: Expr) -> str:
    if e.is_zero():
        return "0"
    return _signed_sum([term_text(t) for t in e.terms], " ")
