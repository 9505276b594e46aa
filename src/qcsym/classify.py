"""Case analysis for the power-family classification.

Covers the xi = a(t,x)V + f(t,x) branch (case B: general eta, source-term
extraction, exponent-coincidence enumeration and tables) and the
xi = f(t,x), eta = g(t,x)V + h(t,x) branch (case C: the p = 0 and
k = 1, p = 2 derivation chains), with every step checked as a
zero-residual or canonical-equality assertion.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .calculus import (
    Constraint,
    EquationSystem,
    collect,
    collect_in,
    eq_normalize,
    equal_up_to_unit,
    euler_ode_solve,
    excluded_by,
    integrate_v,
    solve_linear_for,
    split,
    substitute,
)
from .errors import TableError, VerificationError
from .expr import AFF_ZERO, AffineExponent, Expr
from .determining import EvolutionEq, SymOperator, check_operator, generate_determining_system, normalize_operator
from .parser import parse, parse_affine

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


@lru_cache(maxsize=None)
def fixture_text(name: str) -> str:
    return (_FIXTURE_DIR / name).read_text().strip()


def fixture_json(name: str):
    # parsed fresh on every call so callers can never corrupt the cache
    return json.loads(fixture_text(name))


CASE_B_ASSUMPTIONS = (
    Constraint.parse("k!=0"),
    Constraint.parse("k!=p"),
    Constraint.parse("k!=p+1"),
    Constraint.parse("p!=-1"),
    Constraint.parse("p!=-2"),
    Constraint.parse("p!=-3"),
    Constraint.parse("k!=-1"),
    Constraint.parse("k!=-2"),
)

# the ansatz of each case: case B binds xi alone, case C binds xi and eta
CASE_B_ANSATZ = {"xi": parse("a*V + f")}
CASE_C_ANSATZ = {"xi": parse("f"), "eta": parse("g*V + h")}

# the case the coincidence tables and the shifted powers specialize to
K_EQ_P_MINUS_1 = Constraint.parse("k=p-1")


def power_system():
    return generate_determining_system(EvolutionEq.power())


# ---------------------------------------------------------------------------
# case B: xi = a V + f


# Both derivations take no argument and return an immutable Expr, so each
# runs once per process however many suite steps and tables read it.
@lru_cache(maxsize=None)
def solve_eta_case_b() -> Expr:
    """General eta once xi = a V + f, by double integration in V.

    The second determining equation prescribes eta_VV; integrating twice and
    adding the homogeneous part g V + h yields the closed form, valid under
    p != -2, -3 and k != -1, -2.
    """
    eq2 = power_system().equations[1]
    e = substitute(eq2, CASE_B_ANSATZ)
    rhs = solve_linear_for(e, "eta_VV")
    inner = integrate_v(rhs, CASE_B_ASSUMPTIONS)
    eta = integrate_v(inner, CASE_B_ASSUMPTIONS)
    return eta + parse("g*V + h")


@lru_cache(maxsize=None)
def extract_F() -> Expr:
    """Isolate the source term from the third determining equation in case B.

    The coefficient of F is proportional to a, so the step requires a != 0.
    """
    eq3 = power_system().equations[2]
    e = substitute(eq3, {**CASE_B_ANSATZ, "eta": solve_eta_case_b()})
    return solve_linear_for(e, "F")


# ---------------------------------------------------------------------------
# coincidence enumeration


def _case_order_key(c: Constraint) -> tuple:
    name, value = c.solved_for()
    rank = {"p": 0, "k": 1, "n": 2}[name]
    if value.is_const():
        return (rank, 0, value.c0, 0, 0)
    return (rank, 1, value.cp, value.ck, value.c0)


def enumerate_special_cases(
    exponents, targets=None, forbidden=(), vanishing=()
) -> list:
    """All parameter relations equating a target exponent with another one.

    With targets=None every unordered pair is examined.  The supplied
    coefficient-vanishing roots (Constraints) join the collision cases.
    Relations excluded by the forbidden constraints are dropped, a relation
    met again (as a multiple) is kept once, and the result is in canonical
    order.
    """
    exps = [_as_aff(e) for e in exponents]
    if targets is None:
        deltas = [a - b for i, a in enumerate(exps) for b in exps[i + 1:]]
    else:
        deltas = [t - e for t in map(_as_aff, targets) for e in exps if e != t]
    collisions = [Constraint(d, AFF_ZERO, "equal") for d in deltas if not d.is_const()]
    found: dict = {}
    for c in collisions + list(vanishing):
        if not excluded_by(c.form(), forbidden):
            found.setdefault(c.solved_for(), c)
    return sorted(found.values(), key=_case_order_key)


def _as_aff(v) -> AffineExponent:
    if isinstance(v, AffineExponent):
        return v
    return parse_affine(str(v))


def six_power_cases() -> list:
    """Coincidence cases among the six non-constant-coefficient powers."""
    data = fixture_json("coincidence_six.json")
    forbidden = tuple(Constraint.parse(c) for c in data["forbidden"])
    return enumerate_special_cases(data["exponents"], None, forbidden)


def fifteen_power_cases() -> list:
    """Coincidence cases for the two leading powers of the extracted source."""
    data = fixture_json("coincidence_fifteen.json")
    forbidden = tuple(Constraint.parse(c) for c in data["forbidden"])
    # each entry names the power whose coefficient the root kills
    roots = [Constraint.parse(root) for _, root in data["vanishing"]]
    return enumerate_special_cases(fifteen_powers(), data["targets"], forbidden, roots)


def fifteen_powers() -> list:
    """The fifteen source-term powers in their catalogued order."""
    return [parse_affine(t) for t in fixture_json("powers_fifteen.json")]


def fifteen_powers_k_eq_p_minus_1() -> list:
    """The fifteen powers specialized by k = p - 1, duplicates preserved."""
    name, value = K_EQ_P_MINUS_1.solved_for()
    return [a.subst(name, value) for a in fifteen_powers()]


# ---------------------------------------------------------------------------
# coincidence tables


@dataclass(frozen=True)
class CaseTable:
    """One target power tabulated against columns; values are p or '-'."""

    case: Constraint | None
    target: AffineExponent
    columns: tuple
    values: tuple  # int | Fraction | None
    excluded: tuple  # bool per column

    def value_strings(self) -> list:
        return ["-" if v is None else str(v) for v in self.values]

    def to_json(self) -> dict:
        return {
            "case": str(self.case) if self.case else "",
            "target": str(self.target),
            "columns": [str(c) for c in self.columns],
            "values": self.value_strings(),
            "excluded": list(self.excluded),
        }


def coincidence_table(target, columns, forbidden=(), case=None) -> CaseTable:
    """Tabulate the p values at which the target power meets each column."""
    target = _as_aff(target)
    cols = [_as_aff(c) for c in columns]
    assumptions = (case, *forbidden) if case else tuple(forbidden)
    values = []
    excluded = []
    for col in cols:
        delta = target - col
        if delta.ck or delta.cn:
            raise TableError(f"column {col} is not a function of p alone")
        if delta.is_zero():
            raise TableError(
                f"column {col} coincides with the target always"
            )
        value = delta.solve_for("p")
        values.append(None if value is None else value.c0)
        excluded.append(value is not None and excluded_by(delta, assumptions))
    return CaseTable(
        case=case,
        target=target,
        columns=tuple(cols),
        values=tuple(values),
        excluded=tuple(excluded),
    )


def _source_keys_in_catalogue_order(source: Expr, powers: list) -> tuple:
    """Collect keys of a case-B source term in the order of the given powers.

    Returns (ordered distinct keys, coefficient map); first occurrence wins.
    """
    coeffs = {key.vpow.key(): expr for key, expr in collect(source).items()}
    ordered = []
    for aff in powers:
        if aff.key() in coeffs and aff not in ordered:
            ordered.append(aff)
    return tuple(ordered), coeffs


def _is_constant_coeff(e: Expr) -> bool:
    return not any(t.fns or t.coeff.gens() & {"t", "x"} for t in e.terms)


def coincidence_tables_k_eq_p_minus_1() -> tuple:
    """The two tables for the case k = p - 1.

    The leading-power table treats all functions as unknown; analyzing it
    establishes that the coefficient function a is constant, so the
    subleading table is built with a replaced by a constant.
    """
    name, value = K_EQ_P_MINUS_1.solved_for()
    powers = fifteen_powers_k_eq_p_minus_1()
    shifted = substitute(extract_F(), {name: value})
    tables = []
    for target_text, source in (
        ("2*p+3", shifted),
        ("2*p+1", substitute(shifted, {"a": Expr.generator("a0")})),
    ):
        target = parse_affine(target_text)
        ordered, coeffs = _source_keys_in_catalogue_order(source, powers)
        columns = [
            aff
            for aff in ordered
            if aff != target and not _is_constant_coeff(coeffs[aff.key()])
        ]
        tables.append(coincidence_table(target, columns, CASE_B_ASSUMPTIONS, K_EQ_P_MINUS_1))
    return tuple(tables)


# ---------------------------------------------------------------------------
# step results


@dataclass(frozen=True)
class StepResult:
    """One checked step; ``passed`` is None for a step that was skipped."""

    id: str
    description: str
    passed: bool | None
    detail: str = ""

    def to_json(self) -> dict:
        status = "skipped" if self.passed is None else "pass" if self.passed else "fail"
        return {
            "id": self.id,
            "description": self.description,
            "status": status,
            "detail": self.detail,
        }


def _match_system(system: EquationSystem, fixture_eqs) -> bool:
    """The split equations are the fixture's up to a unit each, with
    multiplicity."""
    return Counter(map(eq_normalize, system.equations)) == Counter(
        eq_normalize(parse(text)) for text in fixture_eqs
    )


def _euler_form(e: Expr) -> tuple:
    """Rewrite A*F_V + B*F + R = 0 as F_V - (s/V) F = rhs; return (s, rhs)."""
    solved = solve_linear_for(e, "F_V")
    rhs = substitute(solved, {"F": 0})
    try:
        s = AffineExponent.from_expr((solved - rhs) * parse("V/F"))
    except ValueError as exc:
        raise VerificationError("euler-form", f"equation is not of Euler type: {exc}") from None
    return s, rhs


def case_c_chain_p0() -> tuple:
    """The p = 0 derivation chain for xi = f(t,x), eta = g(t,x)V + h(t,x),
    one StepResult per check."""
    fx = fixture_json("chain_p0.json")
    steps = []
    assumptions = (Constraint.parse("k!=0"), Constraint.parse("k!=1"))

    eq3, eq4 = substitute(power_system().equations[2:], {**CASE_C_ANSATZ, "p": 0})
    steps.append(StepResult(
        "reduce-eq3",
        "third determining equation under xi=f, eta=gV+h, p=0",
        equal_up_to_unit(eq3, parse(fx["eq3_p0"])),
    ))

    system = split(eq3, assumptions)
    steps.append(StepResult(
        "split-eq3",
        "split into three equations by powers of V",
        len(system) == 3 and _match_system(system, fx["system_p0"]),
    ))

    h_solved = solve_linear_for(parse(fx["system_p0"][0]), "h")
    fx_solved = solve_linear_for(parse(fx["system_p0"][1]), "f_x")
    steps.append(StepResult(
        "consequences",
        "h = 0 and f_x = -k g follow",
        h_solved.is_zero() and fx_solved == parse("-k*g"),
    ))

    eq4 = substitute(eq4, {"h": 0, "f_x": parse("-k*g")})
    steps.append(StepResult(
        "reduce-eq4",
        "fourth determining equation becomes the linear ODE for F",
        equal_up_to_unit(eq4, parse(fx["ode_for_F"])),
    ))

    s, rhs = _euler_form(parse(fx["ode_for_F"]))
    F = euler_ode_solve(s, rhs, assumptions)
    steps.append(StepResult(
        "solve-ode",
        "general solution of the linear ODE",
        F == parse(fx["F_solution"]),
    ))

    groups = collect(F)
    coeff_k1 = groups.get(parse("V^(k+1)").lead(), Expr.zero())
    coeff_v = groups.get(parse("V").lead(), Expr.zero())
    steps.append(StepResult(
        "constancy",
        "non-constant coefficients give the two constancy relations",
        coeff_k1 == -parse(fx["constancy"][0]) and coeff_v == parse(fx["constancy"][1]),
    ))

    g_alpha = {"g": parse("alpha")}
    steps.append(StepResult(
        "g-depends-on-t",
        "with g = alpha(t) the V^(k+1) coefficient vanishes and f is linear in x",
        substitute(coeff_k1, g_alpha).is_zero()
        and substitute(
            parse("f_x + k*g"), {"f": parse(fx["xi_form"]), **g_alpha}
        ).is_zero(),
    ))

    eq_remaining = substitute(
        parse(fx["system_p0"][2]),
        {"f": parse(fx["xi_form"]), "g": parse("alpha"), "h": 0},
    )
    ode_ok = equal_up_to_unit(eq_remaining, parse(fx["alpha_beta_ode"]))
    two_odes = collect_in(parse(fx["alpha_beta_ode"]), "x")
    alpha_beta = {"alpha": parse(fx["alpha"]), "beta": parse(fx["beta"])}
    odes_solved = all(
        substitute(eq, alpha_beta).is_zero() for eq in two_odes.values()
    )
    source_clean = substitute(coeff_v, {"g": parse(fx["alpha"])}).is_zero()
    steps.append(StepResult(
        "alpha-beta",
        "the x-split pair of ODEs is solved by alpha, beta and the V "
        "coefficient of F drops out",
        ode_ok and len(two_odes) == 2 and odes_solved and source_clean,
    ))

    ops = fixture_json("operators.json")
    op = normalize_operator(SymOperator.of(**ops["scaling"]))
    eq = EvolutionEq.power(p=0, F2=parse(fx["source_term"]))
    residuals = check_operator(eq, op)
    steps.append(StepResult(
        "scaling-operator",
        "the scaling-translation operator satisfies all four determining "
        "equations",
        all(r.is_zero() for r in residuals),
    ))
    return tuple(steps)


def case_c_chain_k1_p2() -> tuple:
    """The k = 1, p = 2 derivation chain for xi = f, eta = gV + h, one
    StepResult per check."""
    fx = fixture_json("chain_k1_p2.json")
    steps = []
    sysd = power_system()

    # the ansatz and k = 1 are bound once for both equations, then p = 2
    eq3_k1, eq4_k1 = substitute(sysd.equations[2:4], {**CASE_C_ANSATZ, "k": 1})
    eq3, eq4 = substitute([eq3_k1, eq4_k1], {"p": 2})
    steps.append(StepResult(
        "reduce-eq3-k1",
        "third determining equation under k=1",
        equal_up_to_unit(eq3_k1, parse(fx["eq3_k1"])),
    ))

    steps.append(StepResult(
        "reduce-eq3-p2",
        "specializing p=2 merges the linear-in-V terms",
        equal_up_to_unit(eq3, parse(fx["eq3_k1_p2"])),
    ))

    system = split(eq3)
    steps.append(StepResult(
        "split-eq3",
        "three equations for three unknown functions",
        len(system) == 3 and _match_system(system, fx["system_k1_p2"]),
    ))

    steps.append(StepResult(
        "reduce-eq4",
        "fourth determining equation with the source still unknown",
        equal_up_to_unit(eq4, parse(fx["source_equation"])),
    ))

    cubic = substitute(parse(fx["source_equation"]), {"F": parse(fx["cubic_source"])})
    cubic_system = split(cubic)
    all_exact = len(cubic_system) == 4 and all(
        eq == parse(text) for eq, text in zip(cubic_system.equations, fx["cubic_split"])
    )
    steps.append(StepResult(
        "cubic-split",
        "cubic source splits the equation into four exact relations",
        all_exact,
    ))

    g_binding = {"g": parse(fx["g_ansatz"])}
    h_solved = solve_linear_for(
        substitute(parse(fx["system_k1_p2"][2]), g_binding), "h"
    )
    steps.append(StepResult(
        "h-from-f",
        "eliminating g gives h in terms of f_xx",
        h_solved == parse(fx["h_solution"]),
    ))

    relation = substitute(
        parse(fx["system_k1_p2"][1]), {**g_binding, "h": parse(fx["h_solution"])}
    ) * parse("-lambda")
    steps.append(StepResult(
        "f-relation",
        "the remaining equation ties f to f_x and f_xx",
        relation == parse(fx["f_relation"]),
    ))
    return tuple(steps)

