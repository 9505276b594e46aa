"""Numeric verification: evaluation, sampling, solving, flows, substitution."""
import csv
import importlib.util
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcsym import numeric
from qcsym.calculus import substitute
from qcsym.classify import fixture_json, fixture_text
from qcsym.determining import SymOperator, normalize_operator
from qcsym.errors import (
    EvalPoleError,
    InstabilityError,
    PositivityError,
    UnboundFunctionError,
)
from qcsym.expr import Expr
from qcsym.instance import Instance
from qcsym.numeric import (
    Field,
    ScalingFlow,
    _compile,
    group_transform,
    initial_row,
    invariance_residual,
    sample_residuals,
    solve_pde,
    substitute_power_log,
)
from qcsym.parser import parse
from qcsym.poly import CoeffFrac, Poly, grlex_key


def scaling_instance() -> Instance:
    return Instance.from_json(fixture_json("instance_scaling.json"))


def simple_instance(p=0, k=1, lam=1, F="0", grid=None, initial=None) -> Instance:
    return Instance.from_json(
        {
            "family": "power",
            "p": p,
            "k": k,
            "lambda": lam,
            "F": F,
            "operator": {"tau": "1", "xi": "0", "eta": "0"},
            "grid": grid
            or {"x0": 0.0, "x1": 1.0, "nx": 21, "t0": 0.0, "dt": 0.0004, "steps": 50},
            "initial": initial,
            "seed": 0,
        }
    )


# ---------------------------------------------------------------------------
# pointwise evaluation


def eval_point(e, point, inst):
    """Bind the instance and its operator exactly, then evaluate at one point;
    a point on a pole raises EvalPoleError."""
    bindings = {
        "xi": inst.operator.xi, "eta": inst.operator.eta, "F": inst.F,
        **inst.param_bindings(),
    }
    # the sampler's error state: a masked point may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        value, pole = _compile(substitute(e, bindings))(
            *(np.float64(point[name]) for name in ("t", "x", "V")), np.empty(()), np.empty(())
        )
    if pole:
        raise EvalPoleError(f"denominator ~ 0 at {point}")
    return float(value)


def test_eval_power():
    inst = simple_instance(p=1, k=2)
    assert eval_point(parse("V^(2*p+3)"), {"t": 0, "x": 0, "V": 2.0}, inst) == 32.0


def test_eval_operator_component():
    inst = scaling_instance()
    assert eval_point(parse("xi"), {"t": 0.0, "x": 3.0, "V": 1.0}, inst) == 3.0


def test_eval_rejects_unbound_and_poles():
    inst = simple_instance()
    with pytest.raises(UnboundFunctionError):
        eval_point(parse("a_t"), {"t": 0, "x": 0, "V": 1.0}, inst)
    with pytest.raises(EvalPoleError):
        eval_point(parse("1/(2*t+1)") * parse("V"), {"t": -0.5, "x": 0, "V": 1.0},
                   scaling_instance())


def _allocating_compile(e):
    """``_compile`` without its folded coefficients and its buffers, every
    value a new array, and each coefficient's monomials summed in the same
    printed order: the reference the compiled evaluator must match bit for
    bit. Unbound atoms are not checked."""
    order = grlex_key(("t", "x"))
    compiled = []
    for term in e.terms:
        num, den = (
            [(float(poly.terms[m]), dict(m).get("t", 0), dict(m).get("x", 0))
             for m in sorted(poly.terms, key=order, reverse=True)]
            for poly in (term.coeff.num, term.coeff.den)
        )
        compiled.append((num, den, not term.coeff.den.is_const(),
                         float(term.vpow.c0), float(term.expc.c0)))

    def evaluate(t, x, V):
        total, pole = 0.0, False
        for num, den, den_varies, a, b in compiled:
            d = numeric._poly_value(den, t, x)
            if den_varies:
                pole = pole | (np.abs(d) < numeric._POLE_FLOOR)
            value = numeric._poly_value(num, t, x) / d
            if a:
                value = value * V**a
            if b:
                value = value * np.exp(b * V)
            total = total + value
        return total, pole

    return evaluate


# coefficients with t and x, with poles on the lattice below, and constants;
# V powers negative, fractional and the ones numpy's ** hands to sqrt,
# square or reciprocal; exponential slopes
_COEFFS = ["3", "-1/3", "2/7", "t", "x^2*t - 2", "1/(2*t + x + 1)",
           "(t^2 + x)/(t - x + 1/2)", "-(3*t + 1)/7"]
_POWERS = ["0", "1", "2", "3", "-1", "-2", "1/2", "3/2", "-1/2", "-5/3"]
_SLOPES = ["0", "1", "-1/2", "2"]
_TERMS = st.lists(
    st.tuples(st.sampled_from(_COEFFS), st.sampled_from(_POWERS), st.sampled_from(_SLOPES)),
    min_size=1, max_size=4,
)


def _term_text(coeff: str, power: str, slope: str) -> str:
    factors = [f"({coeff})"]
    if power != "0":
        factors.append(f"V^({power})")
    if slope != "0":
        factors.append(f"exp(({slope})*V)")
    return "*".join(factors)


# terms are stored by descending V power, so only a negative power comes
# after a constant: a sum that starts as a float and meets an array
@example([("3", "0", "0"), ("-1/3", "-1", "0")], 0, True)
@example([("x^2*t - 2", "0", "0"), ("-1/3", "-1/2", "0")], 0, False)
@settings(max_examples=200, deadline=None)
@given(_TERMS, st.integers(0, 2**32 - 1), st.booleans())
def test_compiled_evaluator_matches_the_allocating_one_bit_for_bit(terms, seed, at_origin):
    # at (0, 0), as the solver's source is called, or on arrays of (t, x)
    # that hit the poles t = -1/2, x = 0 and t = 0, x = 1/2
    e = parse(" + ".join(_term_text(*term) for term in terms))
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.1, 3.0, 9)
    if at_origin:
        t = x = 0.0
    else:
        t, x = rng.uniform(-1.0, 1.0, (2, 9))
        t[:2], x[:2] = (-0.5, 0.0), (0.0, 0.5)
    out, work = np.full((2, 9), 7.0)  # filled, so a read before a write shows
    with np.errstate(divide="ignore", invalid="ignore"):
        want, want_pole = _allocating_compile(e)(t, x, V)
        values, pole = _compile(e)(t, x, V, out, work)
    assert values is out
    assert values.tobytes() == np.broadcast_to(want, 9).tobytes()
    assert np.array_equal(np.broadcast_to(pole, 9), np.broadcast_to(want_pole, 9))


def test_compiled_sums_do_not_depend_on_the_stored_monomial_order():
    # 1e16*t - 1e16*x + 1 at t = x = 1 is 1.0 summed in printed order, but
    # 0.0 from the constant first, since 1e16 + 1 rounds to 1e16
    monomials = [((("t", 1),), 10**16), ((("x", 1),), -(10**16)), ((), 1)]
    values = []
    for stored in (monomials, monomials[::-1]):
        coeff = CoeffFrac(Poly(dict(stored)))
        assert list(coeff.num.terms) == [m for m, _ in stored]
        t = x = V = np.ones(1)
        values.append(_compile(Expr.from_coeff(coeff))(t, x, V, *np.empty((2, 1)))[0].tobytes())
    assert values[0] == values[1] == np.ones(1).tobytes()


def _interval_mul(a, b):
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    lo, hi = min(products), max(products)
    return (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _interval_add(a, b):
    return (
        math.nextafter(a[0] + b[0], -math.inf),
        math.nextafter(a[1] + b[1], math.inf),
    )


def test_eval_source_term_within_interval_bounds():
    # interval-arithmetic oracle: evaluate the extracted source term
    # term by term with outward rounding and require enclosure
    inst = Instance.from_json(
        {
            "family": "power", "p": 3, "k": 5, "lambda": Fraction(1, 2),
            "F": "0", "operator": {"tau": "1", "xi": "0", "eta": "0"},
            "grid": {"x0": 0, "x1": 1, "nx": 3, "t0": 0, "dt": 1e-4, "steps": 1},
            "seed": 0,
        }
    )
    e = parse(fixture_text("source_case_b.txt"))
    bound = substitute(
        e,
        {
            "a": 2, "f": 3, "g": Fraction(1, 2), "h": 1,
            "p": 3, "k": 5, "lambda": Fraction(1, 2),
        },
    )
    t, x, V = 0.7, 0.3, 1.3
    total = (0.0, 0.0)
    for term in bound.terms:
        c = term.coeff.eval({"t": Fraction(7, 10), "x": Fraction(3, 10)})
        iv = (math.nextafter(float(c), -math.inf), math.nextafter(float(c), math.inf))
        vexp = float(term.vpow.c0)
        pw = V ** vexp
        iv = _interval_mul(iv, (math.nextafter(pw, -math.inf), math.nextafter(pw, math.inf)))
        total = _interval_add(total, iv)
    got = eval_point(
        bound, {"t": t, "x": x, "V": V},
        inst,
    )
    assert total[0] - 1e-9 <= got <= total[1] + 1e-9
    assert math.isfinite(got)


# ---------------------------------------------------------------------------
# sampled residuals


def test_sampled_residuals_symmetry_and_perturbation():
    inst = scaling_instance()
    op = normalize_operator(inst.operator)
    worst = sample_residuals(inst, op, 1000, seed=7)
    assert worst < 1e-9
    bad = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
    assert sample_residuals(inst, bad, 200, seed=7) > 1e-3


def test_sampled_residuals_translation_exactly_zero():
    inst = Instance.from_json(
        {
            "family": "power", "p": 0, "k": 1, "lambda": 1, "F": "0",
            "operator": {"tau": "1", "xi": "1", "eta": "0"},
            "grid": {"x0": 0, "x1": 1, "nx": 3, "t0": 0, "dt": 1e-4, "steps": 1},
            "seed": 3,
        }
    )
    op = normalize_operator(inst.operator)
    assert sample_residuals(inst, op, 1000, seed=5) == 0.0


def test_sampled_residuals_deterministic():
    inst = scaling_instance()
    op = normalize_operator(inst.operator)
    bad = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
    a = sample_residuals(inst, bad, 100, seed=42)
    b = sample_residuals(inst, bad, 100, seed=42)
    assert a == b


def test_sampled_residuals_reject_poles_in_draw_order(monkeypatch):
    # the perturbed equations hold one denominator that varies, t + 1/2; a
    # floor of 1 rejects the points with t < 1/2 (about a fifth of them) and
    # keeps the constant unit denominators, which the point-by-point sampler
    # these values come from tested against the floor too
    inst = scaling_instance()
    op = normalize_operator(inst.operator)
    bad = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
    monkeypatch.setattr(numeric, "_POLE_FLOOR", 1.0)
    assert sample_residuals(inst, bad, 200, seed=7) == pytest.approx(
        3.2579182790374253, rel=1e-12
    )
    assert sample_residuals(inst, bad, 200, seed=20240) == pytest.approx(
        3.430861683367456, rel=1e-12
    )
    monkeypatch.setattr(numeric, "_POLE_FLOOR", 1e9)  # every point is a pole
    with pytest.raises(EvalPoleError, match="too many pole rejections"):
        sample_residuals(inst, bad, 200, seed=7)


def test_sampled_residuals_draw_at_most_a_block(monkeypatch):
    sizes = []
    make_rng = np.random.default_rng

    class Recorder:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def uniform(self, low, high, size):
            sizes.append(size)
            return self.rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", Recorder)
    inst = scaling_instance()
    op = normalize_operator(inst.operator)
    bad = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
    assert sample_residuals(inst, bad, 2 * numeric._BLOCK + 5, seed=3) > 1e-3
    assert sizes == [(numeric._BLOCK, 3), (numeric._BLOCK, 3), (5, 3)]
    sizes.clear()
    monkeypatch.setattr(numeric, "_POLE_FLOOR", 1.0)  # rejects about a fifth
    sample_residuals(inst, bad, numeric._BLOCK + 100, seed=3)
    assert len(sizes) > 2
    assert all(m <= numeric._BLOCK for m, _ in sizes)


def test_sampled_residuals_of_an_admitted_operator_draw_nothing(monkeypatch):
    # every substituted equation of the fixture's own operator has no terms,
    # so the answer is 0.0 before the first draw; the perturbed one samples
    class Drawn(Exception):
        pass

    def refuse(seed):
        raise Drawn

    monkeypatch.setattr(np.random, "default_rng", refuse)
    inst = scaling_instance()
    op = normalize_operator(inst.operator)
    assert sample_residuals(inst, op, 1000, seed=7) == 0.0
    bad = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
    with pytest.raises(Drawn):
        sample_residuals(inst, bad, 200, seed=7)


# ---------------------------------------------------------------------------
# solver


def test_constant_solution_stays_constant():
    inst = simple_instance()
    row = np.full(21, 0.7)
    field = solve_pde(inst, row, 50)
    assert float(np.max(np.abs(field.values - 0.7))) == 0.0
    assert invariance_residual(field, inst) == 0.0


def test_zero_steps_returns_initial_row():
    inst = simple_instance()
    row = np.linspace(0.0, 1.0, 21)
    field = solve_pde(inst, row, 0)
    assert field.values.shape == (1, 21)
    assert np.array_equal(field.values[0], row)


def test_stability_guard():
    inst = simple_instance(
        grid={"x0": 0.0, "x1": 1.0, "nx": 21, "t0": 0.0, "dt": 0.1, "steps": 5}
    )
    with pytest.raises(InstabilityError):
        solve_pde(inst, np.full(21, 1.0), 5)


def test_positivity_guard():
    inst = simple_instance(p=-1, k=1)
    with pytest.raises(PositivityError):
        solve_pde(inst, np.linspace(-1.0, 1.0, 21), 5)


def _reference_solve(inst: Instance, initial, steps: int, boundary=None) -> np.ndarray:
    """RK4 with a fresh array for every stage, term and row: the reference
    the solver's preallocated buffers must match bit for bit, since each
    cell's operations come in the same order. The guards are left out."""
    g = inst.grid
    dx = g.dx
    p, k, lam = float(inst.p), float(inst.k), float(inst.lam)
    F = _allocating_compile(substitute(inst.F, inst.param_bindings()))
    row = np.asarray(initial, dtype=float).copy()

    def rhs(r):
        out = np.zeros_like(r)
        vxx = (r[2:] - 2 * r[1:-1] + r[:-2]) / (dx * dx)
        vx = (r[2:] - r[:-2]) / (2 * dx)
        mid = r[1:-1]
        conv = lam * mid**k * vx if k else lam * vx
        source, _ = F(0.0, 0.0, mid)
        vp = mid**p if p else 1.0
        out[1:-1] = (vxx + conv - source) / vp
        return out

    def bc(time):
        if boundary is None:
            return float(initial[0]), float(initial[-1])
        return boundary(time)

    def stage(base, scale, kk, time):
        r = base + scale * kk
        r[0], r[-1] = bc(time)
        return r

    rows = [row.copy()]
    t = g.t0
    for _ in range(steps):
        k1 = rhs(row)
        k2 = rhs(stage(row, g.dt / 2, k1, t + g.dt / 2))
        k3 = rhs(stage(row, g.dt / 2, k2, t + g.dt / 2))
        k4 = rhs(stage(row, g.dt, k3, t + g.dt))
        row = row + (g.dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += g.dt
        row[0], row[-1] = bc(t)
        rows.append(row.copy())
    return np.array(rows)


_LINEAR = {"type": "linear", "slope": 0.5, "offset": 1.0}
_BUMP = {"type": "gaussian", "amplitude": 1.0, "center": 0.5, "width": 0.3}


def _solver_cases():
    study = _convergence_study()
    fixture = scaling_instance()
    cases = {
        "fixture": (fixture, fixture.grid.steps, None),
        "steps-0": (fixture, 0, None),
        "study": (study.instance(26), study.instance(26).grid.steps, study.boundary),
    }
    # a large lambda that is no power of two makes convection a large share
    # of each update, so a change in its operation order shows in the bits
    for name, p, k, lam, F, initial in [
        ("p2-k1/2", 2, "1/2", "100/7", "0", _LINEAR),
        ("k0", 0, 0, "100/7", "V^2", _BUMP),
        ("many-terms", 1, 3, "100/7", "V^(-1) + 2*V^3 - 1/3*V^(1/2)", _LINEAR),
        # the constant term is stored, and summed, before the array term
        ("constant-first", 1, 2, "100/7", "1 - V^(-1)", _LINEAR),
        # lam = 1 skips its multiply, at a power of V and without one
        ("lam1-k3", 0, 3, 1, "V^2", _LINEAR),
        ("lam1-k0", 0, 0, 1, "V^2", _BUMP),
        # the fixture's convection power with a lambda to multiply by
        ("k1", 0, 1, "100/7", "V^2", _LINEAR),
        # the divisor V^p through a square root and through a reciprocal
        ("p1/2", "1/2", 1, "100/7", "V^2", _LINEAR),
        ("p-1", -1, 1, "100/7", "V^2", _LINEAR),
        # an exponential term after a power term
        ("exp-source", 0, 1, "100/7", "V^2 - exp(-V)", _LINEAR),
        # a source far larger than V: a one-ulp change in its sum, as from
        # another summation order, still moves the row's bits
        ("big-source", 0, 1, "100/7", "20000*V^(-1) - 20000*V^(-11/10) + 1/7*V^3", _LINEAR),
    ]:
        inst = simple_instance(p=p, k=k, lam=lam, F=F, initial=initial)
        cases[name] = (inst, inst.grid.steps, None)
    return cases


_SOLVER_CASES = ["fixture", "p2-k1/2", "k0", "many-terms", "constant-first", "lam1-k3",
                 "lam1-k0", "k1", "p1/2", "p-1", "exp-source", "big-source", "study", "steps-0"]


@pytest.mark.parametrize("case", _SOLVER_CASES)
def test_solver_matches_the_allocating_reference_bit_for_bit(case):
    # both run on this CPU, so numpy's SIMD bits are the same on either side
    inst, steps, boundary = _solver_cases()[case]
    initial = initial_row(inst)
    field = solve_pde(inst, initial, steps, boundary=boundary)
    want = _reference_solve(inst, initial, steps, boundary)
    assert field.values.shape == (steps + 1, inst.grid.nx)
    assert field.values.tobytes() == want.tobytes()


def _reference_residual(field: Field, inst: Instance) -> float:
    """``invariance_residual`` with a fresh array for every term, and the
    source through the allocating reference evaluator."""
    V = field.values
    p, k, lam = float(inst.p), float(inst.k), float(inst.lam)
    F = _allocating_compile(substitute(inst.F, inst.param_bindings()))
    mid = V[1:-1, 1:-1]
    vt = (V[2:, 1:-1] - V[:-2, 1:-1]) / (2 * field.dt)
    vx = (V[1:-1, 2:] - V[1:-1, :-2]) / (2 * field.dx)
    vxx = (V[1:-1, 2:] - 2 * mid + V[1:-1, :-2]) / (field.dx**2)
    vp = mid**p if p else 1.0
    vk = mid**k if k else 1.0
    res = vxx - vp * vt + lam * vk * vx - F(0.0, 0.0, mid)[0]
    return float(np.max(np.abs(res)))


@pytest.mark.parametrize("case", [*_SOLVER_CASES, "moved", "wrong-weight"])
def test_residual_matches_the_allocating_reference_bit_for_bit(case):
    # the solver's cases, and the fields the replay's group-flow step moves
    # the fixture's solution to with the true and a wrong V weight
    flows = {"moved": (ScalingFlow(), 0.1), "wrong-weight": (ScalingFlow(v_weight=2.0), 0.2)}
    inst, steps, boundary = _solver_cases()["fixture" if case in flows else case]
    initial = initial_row(inst)
    field = solve_pde(inst, initial, steps, boundary=boundary)
    if case in flows:
        field = group_transform(field, *flows[case], inst)
    if field.nt < 3:
        with pytest.raises(ValueError, match="3x3"):
            invariance_residual(field, inst)
        return
    got = invariance_residual(field, inst)
    assert got.hex() == _reference_residual(field, inst).hex()


@pytest.mark.parametrize("boundary", [None, lambda t: (1.0, 2.0 + t)])
def test_solver_leaves_the_initial_row_alone(boundary):
    inst = simple_instance(F="V^2")
    initial = np.linspace(0.5, 1.5, 21)
    before = initial.copy()
    field = solve_pde(inst, initial, 10, boundary=boundary)
    assert initial.tobytes() == before.tobytes()
    assert field.values[0].tobytes() == before.tobytes()
    assert not np.shares_memory(field.values, initial)


def test_solver_guards_keep_their_order_and_messages():
    positive = "^V must stay positive for this instance$"
    magnitude = "^solution magnitude exceeded 1e6$"
    row = np.full(21, 1.0)
    # a row both negative and too large fails the positivity guard first,
    # at the start and after a step, when a power of V needs V > 0
    with pytest.raises(PositivityError, match=positive):
        solve_pde(simple_instance(p=-1), np.linspace(-1.0, 2e6, 21), 5)
    with pytest.raises(PositivityError, match=positive):
        solve_pde(simple_instance(k="1/2"), row, 5, boundary=lambda t: (-1.0, 2e6))
    with pytest.raises(InstabilityError, match=magnitude):
        solve_pde(simple_instance(), row, 5, boundary=lambda t: (-1.0, 2e6))
    # a nan does not hide a non-positive value from the positivity guard,
    # and a nan alone fails the magnitude guard. Both hold because
    # (r <= 0).any() ignores a nan; a guard on r.min() would not, since
    # ndarray.min() propagates nan (np.fmin.reduce does not)
    with_nan = np.linspace(0.5, 1.5, 21)
    with_nan[3] = math.nan
    not_positive = with_nan.copy()
    not_positive[7] = 0.0
    with pytest.raises(PositivityError, match=positive):
        solve_pde(simple_instance(p=-1), not_positive, 5)
    with pytest.raises(PositivityError, match=positive):
        solve_pde(simple_instance(k="1/2"), row, 5, boundary=lambda t: (math.nan, -1.0))
    with pytest.raises(InstabilityError, match=magnitude):
        solve_pde(simple_instance(p=-1), with_nan, 5)
    with pytest.raises(InstabilityError, match=magnitude):
        solve_pde(simple_instance(k="1/2"), row, 5, boundary=lambda t: (math.nan, 1.0))
    blowup = simple_instance(
        F="-2*V^3",
        grid={"x0": 0.0, "x1": 1.0, "nx": 21, "t0": 0.0, "dt": 0.001, "steps": 60},
    )
    with pytest.raises(InstabilityError, match=magnitude):
        solve_pde(blowup, np.full(21, 10.0), 60)


def test_a_stage_that_leaves_positive_v_is_named_for_a_nan_row():
    # V^k at this fractional k is nan where a Runge-Kutta stage is not
    # positive; the first new row is nan inside and 0.00193 at its ends, so
    # it exceeds no magnitude and is positive wherever it is a number
    data = fixture_json("instance_scaling.json")
    data["k"] = -90.18722286884986
    data["grid"].update(nx=11, steps=10)
    inst = Instance.from_json(data)
    with pytest.raises(PositivityError, match=(
        "^a Runge-Kutta stage left V > 0, the domain of this instance's powers "
        "of V, so the new row holds a nan$"
    )):
        solve_pde(inst, initial_row(inst), 10)


def _convergence_study():
    """scripts/convergence_study.py, loaded by path as the README runs it."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
    spec = importlib.util.spec_from_file_location("convergence_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_feed_convergence_order():
    # V = x/(1-t) solves V_t = V_xx + V V_x; halving dx (dt ~ dx^2)
    # must shrink the discrete residual by at least 3.5
    run = _convergence_study().run
    coarse, fine = run(51), run(101)
    assert coarse / fine >= 3.5
    assert math.log2(coarse / fine) >= 1.9  # observed order in dx


def test_convergence_study_observes_second_order():
    # the study's first refinement step; 2.07 when written
    run = _convergence_study().run
    assert 1.9 <= math.log2(run(26) / run(51)) <= 2.2


def test_residual_of_noise_is_large():
    inst = simple_instance()
    rng = np.random.default_rng(0)
    field = Field(0.0, 1e-4, 0.0, 0.05, 0.5 + 0.01 * rng.standard_normal((9, 21)))
    assert invariance_residual(field, inst) > 1.0


def test_csv_round_trip():
    inst = simple_instance()
    field = solve_pde(inst, np.linspace(0.3, 1.0, 21), 3)
    text = field.to_csv()
    assert text.splitlines()[0] == "t,x,V"
    back = Field.from_csv(text)
    assert np.allclose(back.values, field.values, rtol=0, atol=0)
    assert back.nt == field.nt and back.nx == field.nx


def _reference_csv(field: Field) -> str:
    # the byte contract: one csv.writer row per cell, every number in .17g
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "x", "V"])
    ts, xs = field.times(), field.xs()
    for i in range(field.nt):
        for j in range(field.nx):
            writer.writerow([format(ts[i], ".17g"), format(xs[j], ".17g"),
                             format(field.values[i, j], ".17g")])
    return out.getvalue()


def _random_field() -> Field:
    rng = np.random.default_rng(7)
    values = rng.standard_normal((13, 11)) * 10.0 ** rng.integers(-8, 9, (13, 11))
    values.flat[:4] = [1e-300, -1e300, -0.0, 1e300]
    return Field(-0.3, 1.7e-3, -2.5, 0.0371, values)


@pytest.mark.parametrize(
    "values",
    [
        [[math.nan, math.inf, -math.inf, -0.0, 1e-300], [0.0, -1e-300, 5e-324, -math.nan, 1.0]],
        [[-0.0]],
        [[math.nan, 1e-300, -0.0, math.inf, 2.5, -1e300, 0.1]],
    ],
    ids=["special-2x5", "1x1", "1xN"],
)
def test_csv_matches_reference_writer_on_special_and_thin_fields(values):
    field = Field(-0.0, 1e-3, -1e-300, 0.1, np.array(values))
    assert field.to_csv() == _reference_csv(field)


@pytest.mark.parametrize("which", ["solved", "random"])
def test_csv_matches_reference_writer_and_reads_back_shuffled(which):
    if which == "solved":
        inst = scaling_instance()
        field = solve_pde(inst, initial_row(inst), 20)
    else:
        field = _random_field()
    text = field.to_csv()
    assert text == _reference_csv(field)
    header, *rows = text.splitlines(keepends=True)
    random.Random(3).shuffle(rows)
    back = Field.from_csv(header + "".join(rows))
    assert np.array_equal(back.values, field.values)
    assert back.values.tobytes() == field.values.tobytes()  # keeps -0.0
    in_order = Field.from_csv(text)
    assert (back.t0, back.dt, back.x0, back.dx) == (
        in_order.t0, in_order.dt, in_order.x0, in_order.dx,
    )


# ---------------------------------------------------------------------------
# group flow


def test_flow_identity_is_bit_exact():
    inst = scaling_instance()
    field = solve_pde(inst, initial_row(inst), 40)
    moved = group_transform(field, ScalingFlow(), 0.0, inst)
    assert np.array_equal(moved.values, field.values)
    assert (moved.t0, moved.dt, moved.x0, moved.dx) == (
        field.t0, field.dt, field.x0, field.dx,
    )


def test_flow_composition():
    inst = scaling_instance()
    field = solve_pde(inst, initial_row(inst), 40)
    flow = ScalingFlow()
    once = group_transform(
        group_transform(field, flow, 0.05, inst), flow, 0.07, inst
    )
    direct = group_transform(field, flow, 0.12, inst)
    assert float(np.max(np.abs(once.values - direct.values))) < 1e-6
    assert abs(once.t0 - direct.t0) < 1e-9
    assert abs(once.dx - direct.dx) < 1e-12


def test_flow_preserves_solutions_and_detects_wrong_weight():
    inst = scaling_instance()
    field = solve_pde(inst, initial_row(inst), inst.grid.steps)
    base = invariance_residual(field, inst)
    moved = group_transform(field, ScalingFlow(), 0.1, inst)
    assert invariance_residual(moved, inst) <= 5.0 * base
    broken = group_transform(field, ScalingFlow(v_weight=2.0), 0.2, inst)
    assert invariance_residual(broken, inst) >= 10.0 * base


# ---------------------------------------------------------------------------
# the power/log state substitution


def test_substitution_values():
    assert substitute_power_log("u_to_v", 1, 3.0) == 9.0
    assert abs(substitute_power_log("u_to_v", -1, math.e) - 1.0) < 1e-15


def test_substitution_round_trips():
    rng = np.random.default_rng(11)
    U = rng.uniform(0.1, 10.0, size=(30, 30))
    for m in (-1, 1, 2):
        V = substitute_power_log("u_to_v", m, U)
        U2 = substitute_power_log("v_to_u", m, V)
        assert float(np.max(np.abs(U2 - U))) < 1e-12


def test_substitution_domain_errors():
    with pytest.raises(PositivityError):
        substitute_power_log("u_to_v", -1, -1.0)
    with pytest.raises(PositivityError):
        substitute_power_log("v_to_u", 1, np.array([-4.0, 1.0]))
    with pytest.raises(ValueError):
        substitute_power_log("sideways", 1, 1.0)


@pytest.mark.parametrize("m", [-2, -3])
@pytest.mark.parametrize("direction, name", [("u_to_v", "U"), ("v_to_u", "V")])
def test_substitution_negative_power_refuses_zero(direction, name, m):
    # both directions take a negative power at m = -2 (-1) and m = -3 (-2, -1/2)
    with pytest.raises(PositivityError, match=f"^{name} must be positive for the power -"):
        substitute_power_log(direction, m, 0.0)


def test_power_log_roundtrip_takes_three_powers_both_ways(monkeypatch):
    calls = []

    def record(direction, m, value):
        calls.append((direction, m))
        return substitute_power_log(direction, m, value)

    monkeypatch.setattr(numeric, "substitute_power_log", record)
    assert numeric.power_log_roundtrip(seed=3) < 1e-12
    assert sorted(calls) == sorted(
        (direction, m) for m in (-1, 1, 2) for direction in ("u_to_v", "v_to_u")
    )


def test_eval_matches_exact_rational_oracle():
    # independent re-evaluation: push exact rationals through the symbolic
    # layer and compare the float pipeline against the exact value
    inst = simple_instance(p=3, k=5, lam=1)
    e = parse(fixture_text("source_case_b.txt"))
    bindings = {
        "a": 2, "f": 3, "g": Fraction(1, 2), "h": 1,
        "p": 3, "k": 5, "lambda": 1,
    }
    bound = substitute(e, bindings)
    t, x, V = Fraction(7, 10), Fraction(3, 10), Fraction(5, 4)
    exact = Fraction(0)
    for term in bound.terms:
        assert not term.fns
        c = term.coeff.eval({"t": t, "x": x})
        exact += c * V ** int(term.vpow.c0) if term.vpow.c0.denominator == 1 else c
    got = eval_point(bound, {"t": float(t), "x": float(x), "V": float(V)}, inst)
    assert abs(got - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


def test_flow_inverse_consistency_with_offsets():
    flow = ScalingFlow(A1=2.0, A2=1.5)
    for k in (1.0, 2.0, 0.5):
        for eps in (0.05, 0.3):
            for v in (0.0, 0.7, 3.2):
                assert abs(flow.map_t(flow.map_t(v, k, eps), k, -eps) - v) < 1e-12
                assert abs(flow.map_x(flow.map_x(v, k, eps), k, -eps) - v) < 1e-12


def test_flow_at_k_zero_is_the_translation():
    flow = ScalingFlow(A1=2.0, A2=1.5)
    for eps in (0.05, -0.3):
        for v in (0.0, 0.7, 3.2):
            assert flow.map_t(v, 0.0, eps) == v + 2.0 * eps
            assert flow.map_x(v, 0.0, eps) == v + 1.5 * eps


@pytest.mark.parametrize(
    "text",
    [
        "a,b,c\n0,0,1\n",
        "",
        "t,x,V\n0,0,1\n0,1,2\n1,0,3\n",  # cell (1, 1) missing
        "t,x,V\n0,0,1\n0,0,2\n",  # cell (0, 0) twice
        "t,x,V\n0,0,1\n0,1\n",
        "t,x,V\n0,0\n",
        "t,x,V\n0,0,1,4\n",
        "t,x,V\n0,0,1\n\n0,1,2\n",
        "t,x,V\n0,0,1\n0,1,abc\n",
    ],
)
def test_csv_read_rejects_text_without_the_header(text):
    with pytest.raises(ValueError):
        Field.from_csv(text)


def test_blowup_detected():
    # V_t = V_xx + V V_x + 2 V^3 from a large uniform state blows up in
    # finite time and must be caught by the magnitude guard
    inst = simple_instance(
        F="-2*V^3",
        grid={"x0": 0.0, "x1": 1.0, "nx": 21, "t0": 0.0, "dt": 0.001,
              "steps": 60},
    )
    with pytest.raises(InstabilityError):
        solve_pde(inst, np.full(21, 10.0), 60)
