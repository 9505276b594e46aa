"""Determining systems for unit-time-component symmetry operators.

For an evolution equation V_xx = F0(V) V_t + F1(V) V_x + F2(V) and the
operator Q = d/dt + xi(t,x,V) d/dx + eta(t,x,V) d/dV, the invariance
identity is prolonged to second order, V_xx is eliminated through the
equation and V_t through the invariant-surface condition V_t = eta - xi V_x,
and the remaining cubic polynomial identity in V_x is split by powers.
The four coefficient equations are the determining system.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .calculus import EquationSystem, diff, eq_normalize, substitute
from .errors import DivisionError, OperatorFormError
from .expr import Expr, FnAtom
from .parser import parse
from .poly import mono_div, mono_mul, mono_split, mono_var

# ---------------------------------------------------------------------------
# a minimal jet layer: polynomials in V_t, V_x, V_xx with Expr coefficients

_NEXT_JET = {
    ("Vx", "x"): "Vxx",
    ("Vx", "t"): "Vtx",
    ("Vt", "x"): "Vtx",
    ("Vt", "t"): "Vtt",
}


class JetPoly:
    """Polynomial in jet variables with expression coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def lift(e: Expr) -> "JetPoly":
        return JetPoly({(): e})

    @staticmethod
    def jet(name: str) -> "JetPoly":
        return JetPoly({mono_var(name): Expr.one()})

    def __add__(self, other: "JetPoly") -> "JetPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return JetPoly(out)

    def __neg__(self) -> "JetPoly":
        return JetPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return self + (-other)

    def __mul__(self, other: "JetPoly") -> "JetPoly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        return JetPoly(out)

    def total(self, var: str) -> "JetPoly":
        """Total derivative D_t or D_x on the lattice."""
        vjet = mono_var("Vt" if var == "t" else "Vx")
        out = JetPoly()
        for m, c in self.terms.items():
            # derivative of the coefficient: partial + V-slope * first jet
            dc = JetPoly({m: diff(c, var)}) + JetPoly(
                {mono_mul(m, vjet): diff(c, "V")}
            )
            out = out + dc
            # derivative of the jet monomial, product rule
            for name, power in m:
                nxt = mono_var(_NEXT_JET[(name, var)])
                mono = mono_mul(mono_div(m, mono_var(name)), nxt)
                out = out + JetPoly({mono: c.scale(Fraction(power))})
        return out

    def subst_jet(self, name: str, value: "JetPoly") -> "JetPoly":
        out = JetPoly()
        for m, c in self.terms.items():
            power, rest = mono_split(m, name)
            piece = JetPoly({rest: c})
            for _ in range(power):
                piece = piece * value
            out = out + piece
        return out

    def collect_jet(self, name: str) -> dict:
        out: dict = {}
        for m, c in self.terms.items():
            power, others = mono_split(m, name)
            if others:
                raise ValueError(f"unexpected jet variables {list(others)}")
            out[power] = out[power] + c if power in out else c
        return out


# ---------------------------------------------------------------------------
# equations and operators


@dataclass(frozen=True)
class EvolutionEq:
    """The equation V_xx = F0(V) V_t + F1(V) V_x + F2(V).

    F2 is None for the unknown source term F(V).
    """

    family: str
    F0: Expr
    F1: Expr
    F2: Expr | None = None

    @staticmethod
    def power(p=None, k=None, F2: Expr | None = None) -> "EvolutionEq":
        F0 = parse("V^p")
        F1 = parse("-lambda*V^k")
        subs = {}
        if p is not None:
            subs["p"] = p
        if k is not None:
            subs["k"] = k
        if subs:
            F0 = substitute(F0, subs)
            F1 = substitute(F1, subs)
        return EvolutionEq(family="power", F0=F0, F1=F1, F2=F2)

    @staticmethod
    def exponential() -> "EvolutionEq":
        return EvolutionEq(
            family="exponential",
            F0=parse("exp(V)"),
            F1=parse("-lambda*exp((n+1)*V)"),
        )


@dataclass(frozen=True)
class SymOperator:
    """Operator tau d/dt + xi d/dx + eta d/dV over (t, x, V)."""

    tau: Expr
    xi: Expr
    eta: Expr

    @staticmethod
    def of(tau: str, xi: str, eta: str) -> "SymOperator":
        """The operator with components given as expression texts."""
        return SymOperator(parse(tau), parse(xi), parse(eta))

    def is_normalized(self) -> bool:
        return self.tau == Expr.one()


def normalize_operator(op: SymOperator) -> SymOperator:
    """Rescale to unit time component: (tau, xi, eta) -> (1, xi/tau, eta/tau)."""
    if op.tau.is_zero():
        raise OperatorFormError(
            "zero time component: operators of the pure d/dx form are "
            "outside the classification scope"
        )
    if op.is_normalized():
        return op
    try:
        inv = op.tau.invert()
    except DivisionError as exc:
        raise OperatorFormError(f"time component is not invertible: {exc}") from None
    return SymOperator(Expr.one(), op.xi * inv, op.eta * inv)


# A verify-paper replay derives three distinct equations; a sweep over
# concrete (p, k) never repeats one, so the bound is what keeps a long sweep
# from growing memory.
@lru_cache(maxsize=16)
def generate_determining_system(eq: EvolutionEq) -> EquationSystem:
    """Derive the determining system for the generic unit-time operator: the
    four coefficient equations, graded ``Vx^3`` down to ``Vx^0``.

    Each equation is normalized so its leading canonical term has unit
    coefficient, which makes systems directly comparable.  The result is
    memoised on the (frozen, hashable) equation and shared by every caller.
    """
    xi = Expr.atom(FnAtom("xi"))
    eta = Expr.atom(FnAtom("eta"))
    F0, F1 = eq.F0, eq.F1
    if eq.F2 is None:
        F2 = Expr.atom(FnAtom("F"))
        dF2 = Expr.atom(FnAtom("F", dV=1))
    else:
        F2 = eq.F2
        dF2 = diff(eq.F2, "V")
    dF0 = diff(F0, "V")
    dF1 = diff(F1, "V")

    Vx = JetPoly.jet("Vx")
    Vt = JetPoly.jet("Vt")
    Vxx = JetPoly.jet("Vxx")
    xi_j = JetPoly.lift(xi)
    eta_j = JetPoly.lift(eta)

    eta_x = eta_j.total("x") - Vx * xi_j.total("x")
    eta_t = eta_j.total("t") - Vx * xi_j.total("t")
    eta_xx = eta_x.total("x") - Vxx * xi_j.total("x")

    invariance = (
        eta_xx
        - JetPoly.lift(dF0 * eta) * Vt
        - JetPoly.lift(F0) * eta_t
        - JetPoly.lift(dF1 * eta) * Vx
        - JetPoly.lift(F1) * eta_x
        - JetPoly.lift(dF2 * eta)
    )
    invariance = invariance.subst_jet(
        "Vxx", JetPoly.lift(F0) * Vt + JetPoly.lift(F1) * Vx + JetPoly.lift(F2)
    )
    invariance = invariance.subst_jet(
        "Vt", JetPoly.lift(eta) - JetPoly.lift(xi) * Vx
    )
    coeffs = invariance.collect_jet("Vx")
    degrees = sorted(coeffs, reverse=True)
    return EquationSystem(
        equations=tuple(eq_normalize(coeffs[d]) for d in degrees),
        grading=tuple(f"Vx^{d}" for d in degrees),
    )


def check_operator(eq: EvolutionEq, op: SymOperator) -> list:
    """Substitute an operator into the determining system; return residuals.

    All four residuals vanish exactly when the operator satisfies the
    determining equations identically in (t, x, V).
    """
    if not op.is_normalized():
        raise OperatorFormError(
            "operator must be normalized (unit time component) before checking"
        )
    system = generate_determining_system(eq)
    bindings = {"xi": op.xi, "eta": op.eta}
    return [substitute(e, bindings) for e in system.equations]
