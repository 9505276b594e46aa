"""Determining systems for unit-time-component symmetry operators.

For an evolution equation V_xx = F0(V) V_t + F1(V) V_x + F2(V) and the
operator Q = d/dt + xi(t,x,V) d/dx + eta(t,x,V) d/dV, the second
prolongation of Q applied to the equation is built as one expression in
which V_x is a coefficient generator. The part of the total derivative D_x
free of V_xx, c_x + V_x c_V, builds eta^x and the part of eta^xx free of
V_xx; V_xx in the rest of eta^xx is replaced through the equation. The
condition is gathered as rest + c_t V_t, and V_t = eta - xi V_x, the
invariant-surface condition, is substituted once at the end. What remains is
a cubic in V_x; collected by its powers, its four coefficients are the
determining system. It is derived once per family; a concrete equation is a
set of bindings into it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .calculus import EquationSystem, collect_in, diff, eq_normalize, substitute
from .errors import DivisionError, OperatorFormError
from .expr import Expr
from .parser import parse


# ---------------------------------------------------------------------------
# equations and operators


# F0 and F1 of each family, whose source F(V) is an unknown function
_FAMILIES = {
    "power": ("V^p", "-lambda*V^k"),
    "exponential": ("exp(V)", "-lambda*exp((n+1)*V)"),
}


@dataclass(frozen=True)
class EvolutionEq:
    """An equation V_xx = F0(V) V_t + F1(V) V_x + F(V) of a family: the values
    bound to some of the family's parameters (p, k, n, lambda) and to F. What
    is unbound stays a symbol, and F2 is None while F is unbound.
    """

    family: str
    bindings: dict = field(default_factory=dict)

    @staticmethod
    def power(p=None, k=None, F2: Expr | None = None) -> "EvolutionEq":
        given = {"p": p, "k": k, "F": F2}
        return EvolutionEq("power", {name: v for name, v in given.items() if v is not None})

    @staticmethod
    def exponential() -> "EvolutionEq":
        return EvolutionEq("exponential")

    @property
    def F0(self) -> Expr:
        return substitute(parse(_FAMILIES[self.family][0]), self.bindings)

    @property
    def F1(self) -> Expr:
        return substitute(parse(_FAMILIES[self.family][1]), self.bindings)

    @property
    def F2(self) -> Expr | None:
        return self.bindings.get("F")


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


def generate_determining_system(eq: EvolutionEq) -> EquationSystem:
    """The determining system of eq's family for the generic unit-time
    operator, derived once per family and shared: the four coefficient
    equations, graded ``Vx^3`` down to ``Vx^0``, each scaled so its leading
    canonical term has unit coefficient. F is unknown and every parameter
    free; check_operator applies eq's bindings.
    """
    return _derive(eq.family)


# V_x, a coefficient generator while the condition is built
_VX = Expr.generator("Vx")


def _dx(c: Expr) -> Expr:
    """The part of the total derivative D_x c free of V_xx: c_x + V_x c_V."""
    return diff(c, "x") + _VX * diff(c, "V")


@cache  # one entry per family
def _derive(family: str) -> EquationSystem:
    xi, eta, F0, F1, F2 = map(parse, ("xi", "eta", *_FAMILIES[family], "F"))
    dF0, dF1, dF2 = (diff(f, "V") for f in (F0, F1, F2))
    xi_t, xi_V, eta_t, eta_V = diff(xi, "t"), diff(xi, "V"), diff(eta, "t"), diff(eta, "V")

    # eta^x = D_x eta - V_x D_x xi; eta^xx = D_x eta^x - V_xx D_x xi, of
    # which _dx(eta^x) is the part free of V_xx and at_vxx the coefficient
    # of V_xx
    prolong_x = _dx(eta) - _VX * _dx(xi)
    at_vxx = eta_V - diff(xi, "x").scale(2) - _VX * xi_V.scale(3)

    # eta^xx - F0' eta V_t - F0 eta^t - F1' eta V_x - F1 eta^x - F2' eta with
    # V_xx = F0 V_t + F1 V_x + F2, as rest + c_t V_t
    rest = (
        _dx(prolong_x) + at_vxx * (F2 + F1 * _VX) - F0 * (eta_t - _VX * xi_t)
        - dF1 * eta * _VX - F1 * prolong_x - dF2 * eta
    )
    c_t = at_vxx * F0 - dF0 * eta - F0 * (eta_V - _VX * xi_V)
    powers = collect_in(rest + c_t * (eta - xi * _VX), "Vx")
    degrees = range(3, -1, -1)
    return EquationSystem(
        equations=tuple(eq_normalize(powers.get(d, Expr.zero())) for d in degrees),
        grading=tuple(f"Vx^{d}" for d in degrees),
    )


def check_operator(eq: EvolutionEq, op: SymOperator) -> list:
    """Bind eq's values and the operator's xi and eta into the determining
    system of eq's family in one substitution; return the four residuals,
    graded as that system is.

    All four residuals vanish exactly when the operator satisfies the
    determining equations of eq identically in (t, x, V).
    """
    if not op.is_normalized():
        raise OperatorFormError(
            "operator must be normalized (unit time component) before checking"
        )
    bindings = {**eq.bindings, "xi": op.xi, "eta": op.eta}
    return substitute(generate_determining_system(eq).equations, bindings)
