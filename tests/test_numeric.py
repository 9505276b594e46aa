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
from qcsym.numeric import (
    Field,
    Instance,
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
            *(np.float64(point[name]) for name in ("t", "x", "V"))
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
    assert sample_residuals(inst, op, 2 * numeric._BLOCK + 5, seed=3) == 0.0
    assert sizes == [(numeric._BLOCK, 3), (numeric._BLOCK, 3), (5, 3)]
    sizes.clear()
    monkeypatch.setattr(numeric, "_POLE_FLOOR", 1.0)  # rejects about a fifth
    bad = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
    sample_residuals(inst, bad, numeric._BLOCK + 100, seed=3)
    assert len(sizes) > 2
    assert all(m <= numeric._BLOCK for m, _ in sizes)


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
