"""Determining-system generation and operator checking."""
import random
from fractions import Fraction

import pytest

from qcsym import calculus
from qcsym.calculus import eq_normalize, substitute
from qcsym.classify import fixture_json
from qcsym.determining import (
    EvolutionEq,
    SymOperator,
    check_operator,
    generate_determining_system,
    normalize_operator,
)
from qcsym.errors import OperatorFormError
from qcsym.expr import Expr
from qcsym.parser import parse
from qcsym.poly import CoeffFrac, Poly


@pytest.fixture(scope="module")
def power_system():
    return generate_determining_system(EvolutionEq.power())


@pytest.fixture(scope="module")
def exponential_system():
    return generate_determining_system(EvolutionEq.exponential())


def test_power_system_matches_catalogue(power_system):
    fixture = fixture_json("determining_power.json")["equations"]
    assert len(power_system.equations) == 4
    assert power_system.grading == ("Vx^3", "Vx^2", "Vx^1", "Vx^0")
    for got, text in zip(power_system.equations, fixture):
        assert got == eq_normalize(parse(text))


def test_exponential_system_matches_catalogue(exponential_system):
    fixture = fixture_json("determining_exponential.json")["equations"]
    assert len(exponential_system.equations) == 4
    for got, text in zip(exponential_system.equations, fixture):
        assert got == eq_normalize(parse(text))


# (p, k) as the sweep draws them: denominators 1-3 in [-12, 12], away from
# the exponents where the source or the convection term degenerates
_VALUES = sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-12 * d, 12 * d + 1)})
_PAIRS = random.Random(0).sample(
    [(p, k) for p in _VALUES for k in _VALUES
     if k not in (0, p, p + 1) and p != -1 and 2 * k != p],
    60,
)


@pytest.mark.parametrize("source", ["lambda1*V^(2*k+1)", "lambda1*V^(2*k+1) + lambda2*V^(p+3)"])
def test_concrete_check_equals_the_general_one(source):
    # binding (p, k, F), xi and eta in one substitution gives the family's
    # residuals with (p, k, F) bound afterwards; the sweep's scaling operator
    # passes exactly when every power of the source is V^(2k+1), and its
    # perturbation fails
    F = parse(source)
    for p, k in _PAIRS:
        scaling = normalize_operator(SymOperator.of(f"({2 * k - p})*t+A1", f"({k})*x+A2", "-V"))
        bumped = SymOperator(scaling.tau, scaling.xi, scaling.eta + parse("1/10*V^2"))
        concrete = EvolutionEq.power(p, k, F)
        for op in (scaling, bumped):
            general = check_operator(EvolutionEq.power(), op)
            got = check_operator(concrete, op)
            assert got == [substitute(r, {"F": F, "p": p, "k": k}) for r in general], (p, k)
        scales = "lambda2" not in source or p + 3 == 2 * k + 1
        assert all(r.is_zero() for r in check_operator(concrete, scaling)) == scales, (p, k)
        assert not all(r.is_zero() for r in check_operator(concrete, bumped)), (p, k)


def test_leading_equations_shape(power_system):
    assert power_system.equations[0] == parse("xi_VV")
    want = eq_normalize(
        parse("eta_VV - 2*xi_V*(-lambda*V^k - xi*V^p) - 2*xi_xV")
    )
    assert power_system.equations[1] == want


def test_translation_operator_both_families():
    op = SymOperator.of("1", "A", "0")
    for eq in (EvolutionEq.power(), EvolutionEq.exponential()):
        residuals = check_operator(eq, op)
        assert all(r.is_zero() for r in residuals)


def test_heat_type_translation():
    # the power family at p = 0, lambda = 0, F = 0 is the heat equation
    eq = EvolutionEq("power", {"p": 0, "lambda": 0, "F": Expr.zero()})
    residuals = check_operator(eq, SymOperator.of("1", "A", "0"))
    assert all(r.is_zero() for r in residuals)


def test_scaling_operator_symbolic():
    ops = fixture_json("operators.json")
    op = normalize_operator(SymOperator.of(**ops["scaling"]))
    eq = EvolutionEq.power(p=0, F2=parse("lambda1*V^(2*k+1)"))
    residuals = check_operator(eq, op)
    assert all(r.is_zero() for r in residuals)


def test_check_operator_takes_each_derivative_and_replaces_each_atom_once(monkeypatch):
    op = normalize_operator(SymOperator.of(**fixture_json("operators.json")["scaling"]))
    eq = EvolutionEq.power(p=0, F2=parse(fixture_json("chain_p0.json")["source_term"]))
    equations = generate_determining_system(eq).equations
    diffs, replaced = [], []
    real_diff, real_replace = calculus.diff, calculus._replace_atom

    def counting_diff(e, var):
        diffs.append((id(e), var))
        return real_diff(e, var)

    def counting_replace(a, *rest):
        replaced.append(a)
        return real_replace(a, *rest)

    monkeypatch.setattr(calculus, "diff", counting_diff)
    monkeypatch.setattr(calculus, "_replace_atom", counting_replace)
    assert all(r.is_zero() for r in check_operator(eq, op))
    # each expression differentiated stays alive in the call's memo, so its
    # id names it for the whole call
    assert diffs and len(set(diffs)) == len(diffs)
    atoms = {a for e in equations for t in e.terms for a in t.fns}
    assert len(replaced) == len(atoms) and set(replaced) == atoms


def test_perturbed_operator_detected():
    ops = fixture_json("operators.json")
    op = normalize_operator(SymOperator.of(**ops["scaling"]))
    eq = EvolutionEq.power(p=0, F2=parse("lambda1*V^(2*k+1)"))
    bad = SymOperator(op.tau, op.xi, op.eta + parse("V^2"))
    assert any(not r.is_zero() for r in check_operator(eq, bad))


def test_random_eta_perturbations_detected():
    ops = fixture_json("operators.json")
    op = normalize_operator(SymOperator.of(**ops["scaling"]))
    eq = EvolutionEq.power(p=0, F2=parse("lambda1*V^(2*k+1)"))
    rng = random.Random(99)
    for _ in range(100):
        c = rng.choice((1, -1, 2, 3))
        j = rng.randint(2, 5)
        bad = SymOperator(op.tau, op.xi, op.eta + Expr.const(c) * parse(f"V^{j}"))
        residuals = check_operator(eq, bad)
        assert any(not r.is_zero() for r in residuals)


def test_normalize_operator():
    X = SymOperator.of("2*k*t+A1", "k*x+A2", "-V")
    op = normalize_operator(X)
    assert op.tau == Expr.one()
    assert op.xi == parse("(k*x+A2)/(2*k*t+A1)")
    assert op.eta == parse("-V/(2*k*t+A1)")
    assert normalize_operator(op) == op  # idempotent


def test_normalize_operator_errors():
    with pytest.raises(OperatorFormError):
        normalize_operator(SymOperator.of("0", "1", "g"))
    with pytest.raises(OperatorFormError):
        normalize_operator(SymOperator.of("V + 1", "1", "0"))
    with pytest.raises(OperatorFormError):
        check_operator(EvolutionEq.power(), SymOperator.of("2", "1", "0"))


def test_residual_zero_set_invariant_under_rescaling():
    # multiplying an operator by a nonzero coefficient unit does not change
    # whether the normalized operator satisfies the system
    ops = fixture_json("operators.json")
    base = SymOperator.of(**ops["scaling"])
    unit = Expr.from_coeff(CoeffFrac(Poly.var("A1") + Poly.const(2)))
    scaled = SymOperator(base.tau * unit, base.xi * unit, base.eta * unit)
    eq = EvolutionEq.power(p=0, F2=parse("lambda1*V^(2*k+1)"))
    res1 = check_operator(eq, normalize_operator(base))
    res2 = check_operator(eq, normalize_operator(scaled))
    assert all(r.is_zero() for r in res1) == all(r.is_zero() for r in res2)
    assert all(r.is_zero() for r in res2)


def test_derivation_is_shared_per_family():
    cubic = EvolutionEq.power(p=0, k=1, F2=parse("lambda1*V^3"))
    quintic = EvolutionEq.power(p=0, k=2, F2=parse("lambda1*V^5"))
    family = generate_determining_system(EvolutionEq.power())
    assert generate_determining_system(cubic) is family
    assert generate_determining_system(quintic) is family
    assert generate_determining_system(EvolutionEq.exponential()) is not family
    op = SymOperator.of("1", "0", "V")
    assert check_operator(cubic, op) != check_operator(quintic, op)


def test_system_serialization(power_system):
    data = power_system.to_json()
    assert data["grading"][0] == "Vx^3"
    assert len(data["equations"]) == 4
    assert data["equations"][0] == "xi_VV"
