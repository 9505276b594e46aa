"""An oracle for the catalogued determining systems that shares no code with
qcsym: sympy derives the nonclassical condition for Q = d/dt + xi d/dx +
eta d/dV of V_xx = F0(V) V_t + F1(V) V_x + F(V) by compatibility.

On the invariant surface V_t = H = eta - xi V_x the equation reads
V_xx = G = F0 H + F1 V_x + F. The two must agree on V_xtx, so
D_t(V_xx) - D_x^2(V_t) = 0, where D_x f = f_x + f_V V_x + f_{V_x} G and
D_t(V_xx) = G_t + G_V H + G_{V_x} D_x H. The condition is a cubic in V_x,
and each of its four coefficients must be a catalogued equation up to a sign.
The fixtures are read with a reader of their own, not qcsym's parser.
"""
import json
import re
from pathlib import Path

import pytest

sp = pytest.importorskip("sympy")

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "qcsym" / "fixtures"

t, x, V, VX = sp.symbols("t x V V_x")
p, k, n, lam, lam1, A1, A2 = sp.symbols("p k n lambda lambda1 A1 A2")
FUNCTIONS = {
    "xi": sp.Function("xi")(t, x, V),
    "eta": sp.Function("eta")(t, x, V),
    "F": sp.Function("F")(V),
}
NAMES = {"t": t, "x": x, "V": V, "p": p, "k": k, "n": n, "lambda": lam, "lambda1": lam1,
         "A1": A1, "A2": A2, "exp": sp.exp}
IDENTIFIER = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:_([txV]+))?")

FAMILIES = {
    "power": (V**p, -lam * V**k),
    "exponential": (sp.exp(V), -lam * sp.exp((n + 1) * V)),
}


def read(text: str):
    """A fixture equation as a sympy expression: each identifier becomes a
    symbol, a function of its variables or a derivative of one (xi_xV), and
    ^ is a power."""
    names = {}

    def name(m):
        base, suffix = m.group(1), m.group(2) or ""
        if base in FUNCTIONS:
            value = FUNCTIONS[base]
            for var in suffix:
                value = value.diff(NAMES[var])
        else:
            value = NAMES[base]
        key = f"s{len(names)}"
        names[key] = value
        return key

    return sp.parse_expr(IDENTIFIER.sub(name, text).replace("^", "**"), local_dict=names)


def compatibility(F0, F1, F=FUNCTIONS["F"], xi=FUNCTIONS["xi"], eta=FUNCTIONS["eta"]):
    """The coefficients of D_t(V_xx) - D_x^2(V_t) by power of V_x, for the
    unknown source and operator or for given ones."""
    H = eta - xi * VX
    G = F0 * H + F1 * VX + F

    def Dx(f):
        return f.diff(x) + f.diff(V) * VX + f.diff(VX) * G

    DxH = Dx(H)
    condition = G.diff(t) + G.diff(V) * H + G.diff(VX) * DxH - Dx(DxH)
    return sp.Poly(sp.expand(condition), VX)


W = sp.Symbol("W")


def vanishes(e) -> bool:
    # each derivative and function value becomes a symbol of its own, so
    # that V can become exp(W): every power of V is then one exp, which
    # powsimp merges whatever its exponents' coefficients, where it would
    # leave V^(2*p+1)/V and V^(2*p) apart; then the numerator over a common
    # denominator
    e = sp.expand(e)
    e = e.xreplace({f: sp.Dummy() for f in e.atoms(sp.Derivative, sp.core.function.AppliedUndef)})
    e = sp.expand(e.subs(V, sp.exp(W)))
    return sp.expand(sp.powsimp(sp.numer(sp.together(e)), force=True)) == 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_catalogued_system_is_the_compatibility_condition(family):
    equations = json.loads((FIXTURES / f"determining_{family}.json").read_text())["equations"]
    condition = compatibility(*FAMILIES[family])
    assert condition.degree() == 3
    for d, text in zip((3, 2, 1, 0), equations):
        got = condition.coeff_monomial(VX**d)
        want = read(text)
        assert vanishes(got - want) or vanishes(got + want), (family, d)


def test_zero_test_merges_powers_with_any_coefficient():
    assert vanishes(V ** (2 * p + 1) / V - V ** (2 * p))
    assert vanishes(sp.diff(V ** (2 * p + 1), V) - (2 * p + 1) * V ** (2 * p))
    assert not vanishes(sp.diff(V ** (2 * p + 1), V) - 2 * (2 * p + 1) * V ** (2 * p))


def test_reader_and_oracle_catch_a_changed_coefficient():
    # a catalogued equation with one coefficient changed matches neither sign
    text = json.loads((FIXTURES / "determining_power.json").read_text())["equations"][1]
    changed = read(text.replace("- 2*xi_xV", "- 3*xi_xV"))
    got = compatibility(*FAMILIES["power"]).coeff_monomial(VX**2)
    assert not vanishes(got - changed) and not vanishes(got + changed)


def test_catalogued_scaling_operator_solves_its_equation():
    # the scaling operator of operators.json, normalized to unit time
    # component, on V_xx = V_t - lambda V^k V_x + F at p = 0 with the source
    # of chain_p0.json: all four coefficients vanish, and with eta changed
    # to -V + V^2/10 not all of them do
    op = json.loads((FIXTURES / "operators.json").read_text())["scaling"]
    source = read(json.loads((FIXTURES / "chain_p0.json").read_text())["source_term"])
    F0, F1 = (f.subs(p, 0) for f in FAMILIES["power"])
    tau, xi = read(op["tau"]), read(op["xi"])

    def coefficients(eta):
        condition = compatibility(F0, F1, source, xi / tau, read(eta) / tau)
        return [condition.coeff_monomial(VX**d) for d in range(4)]

    assert all(vanishes(c) for c in coefficients(op["eta"]))
    assert not all(vanishes(c) for c in coefficients("-V + 1/10*V^2"))


def test_sampled_residuals_match_the_catalogued_equations_in_floats():
    # a float path that does not go through qcsym's substitute: the four
    # catalogued equations, read here, with the scaling fixture's source and
    # its operator's eta plus V^2/10 bound by sympy, evaluated at the points
    # sample_residuals draws (one block of uniform (t, x, V) in [0.1, 2]^3)
    np = pytest.importorskip("numpy")
    from qcsym import numeric
    from qcsym.determining import SymOperator
    from qcsym.parser import parse

    doc = json.loads((FIXTURES / "instance_scaling.json").read_text())
    op = doc["operator"]
    bound = {
        FUNCTIONS["xi"]: read(op["xi"]) / read(op["tau"]),
        FUNCTIONS["eta"]: (read(op["eta"]) + V**2 / 10) / read(op["tau"]),
        FUNCTIONS["F"]: read(doc["F"]),
    }
    params = {p: doc["p"], k: doc["k"], lam: doc["lambda"]}
    equations = json.loads((FIXTURES / "determining_power.json").read_text())["equations"]
    fns = [
        sp.lambdify((t, x, V), read(text).subs(bound).doit().subs(params), "numpy")
        for text in equations
    ]
    inst = numeric.Instance.from_json(doc)
    perturbed = SymOperator(inst.operator.tau, inst.operator.xi,
                            inst.operator.eta + parse("1/10*V^2"))
    for seed, m in ((7, 200), (11, 1000)):
        points = np.random.default_rng(seed).uniform(0.1, 2.0, (m, 3)).T
        worst = max(float(np.max(np.abs(np.broadcast_to(fn(*points), m)))) for fn in fns)
        assert worst > 1e-3
        assert numeric.sample_residuals(inst, perturbed, m, seed) == pytest.approx(
            worst, rel=1e-9
        )
