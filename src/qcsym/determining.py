"""Determining systems for unit-time-component symmetry operators.

For an evolution equation V_xx = F0(V) V_t + F1(V) V_x + F2(V) and the
operator Q = d/dt + xi(t,x,V) d/dx + eta(t,x,V) d/dV, the second
prolongation of Q applied to the equation is written as a polynomial in V_x
with expression coefficients, a list indexed by the power of V_x. The total
derivative D_x c = c_x + c_V V_x builds eta^x and the part of eta^xx free of
V_xx; V_xx in the rest of eta^xx is replaced through the equation. The
condition is gathered as rest + c_t V_t, and V_t = eta - xi V_x, the
invariant-surface condition, is substituted once at the end. What remains is
a cubic in V_x; its four coefficients are the determining system.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .calculus import EquationSystem, diff, eq_normalize, substitute
from .errors import DivisionError, OperatorFormError
from .expr import Expr, FnAtom
from .parser import parse


def _add(*polys: list) -> list:
    """Sum polynomials in V_x given as coefficient lists, lowest power first."""
    out = [Expr.zero()] * max(map(len, polys))
    for poly in polys:
        for d, c in enumerate(poly):
            out[d] = out[d] + c
    return out


def _mul(p: list, q: list) -> list:
    """Product of two polynomials in V_x given as coefficient lists."""
    out = [Expr.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
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

    xi_t, xi_x, xi_V = (diff(xi, v) for v in "txV")
    eta_t, eta_x, eta_V = (diff(eta, v) for v in "txV")

    # eta^x = D_x eta - V_x D_x xi
    prolong_x = [eta_x, eta_V - xi_x, -xi_V]
    # eta^xx = D_x eta^x - V_xx D_x xi: the part free of V_xx, and the
    # coefficient of V_xx
    free = _add([diff(c, "x") for c in prolong_x],
                [Expr.zero()] + [diff(c, "V") for c in prolong_x])
    at_vxx = [prolong_x[1] - xi_x, prolong_x[2].scale(2) - xi_V]

    # eta^xx - F0' eta V_t - F0 eta^t - F1' eta V_x - F1 eta^x - F2' eta with
    # V_xx = F0 V_t + F1 V_x + F2, as rest + c_t V_t
    rest = _add(
        free,
        _mul(at_vxx, [F2, F1]),
        _mul([F0], [-eta_t, xi_t]),
        [Expr.zero(), -(dF1 * eta)],
        _mul([-F1], prolong_x),
        [-(dF2 * eta)],
    )
    c_t = _add(_mul(at_vxx, [F0]), [-(dF0 * eta)], _mul([F0], [-eta_V, xi_V]))
    coeffs = _add(rest, _mul(c_t, [eta, -xi]))
    degrees = [d for d in reversed(range(len(coeffs))) if not coeffs[d].is_zero()]
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
