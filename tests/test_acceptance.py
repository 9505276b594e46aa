"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines).
"""
import random
import time

import numpy as np

from qcsym.calculus import collect, eq_normalize, split, substitute
from qcsym.classify import (
    case_c_chain_k1_p2,
    case_c_chain_p0,
    coincidence_tables_k_eq_p_minus_1,
    extract_F,
    fifteen_power_cases,
    fifteen_powers_k_eq_p_minus_1,
    fixture_json,
    fixture_text,
    power_system,
    six_power_cases,
    solve_eta_case_b,
)
from qcsym.determining import (
    EvolutionEq,
    SymOperator,
    check_operator,
    generate_determining_system,
    normalize_operator,
)
from qcsym.expr import Expr
from qcsym.numeric import (
    Instance,
    ScalingFlow,
    group_transform,
    initial_row,
    invariance_residual,
    sample_residuals,
    solve_pde,
    substitute_power_log,
)
from qcsym.parser import parse, parse_affine

from conftest import random_expr


def _report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion:2d}: {detail}")
    assert ok, detail


def test_c01_determining_system_regeneration():
    start = time.time()
    for family, name in (
        ("power", "determining_power.json"),
        ("exponential", "determining_exponential.json"),
    ):
        eq = EvolutionEq.power() if family == "power" else EvolutionEq.exponential()
        system = generate_determining_system(eq)
        fixture = fixture_json(name)["equations"]
        assert len(system.equations) == 4
        for got, text in zip(system.equations, fixture):
            assert got == eq_normalize(parse(text)), f"{family}: {text}"
    elapsed = time.time() - start
    _report(1, elapsed < 5.0, f"both systems regenerated in {elapsed:.2f}s (< 5s)")


def test_c02_eta_back_substitution():
    eta = solve_eta_case_b()
    assert eta == parse(fixture_text("eta_case_b.txt"))
    eq2 = power_system().equations[1]
    residual = substitute(eq2, {"xi": parse("a*V + f"), "eta": eta})
    _report(2, residual.is_zero(), "general eta solves the second equation exactly")


def test_c03_source_extraction():
    F = extract_F()
    assert F == parse(fixture_text("source_case_b.txt"))
    eq3 = power_system().equations[2]
    residual = substitute(
        eq3, {"xi": parse("a*V + f"), "eta": solve_eta_case_b(), "F": F}
    )
    _report(3, residual.is_zero(), "source term matches and back-substitutes to zero")


def test_c04_six_power_case_list():
    got = {str(c) for c in six_power_cases()}
    want = {"k=p-1", "k=p+2", "p=0", "p=1", "k=1"}
    _report(4, got == want and len(six_power_cases()) == 5,
            f"exactly the five cases {sorted(want)}")


def test_c05_fifteen_power_case_list():
    got = [str(c) for c in fifteen_power_cases()]
    want = [
        "p=-4", "p=-3/2", "p=-1/2", "p=0", "p=1", "p=2",
        "k=p-1", "k=p+2", "k=2*p", "k=2*p+1", "k=2*p+2", "k=2*p+3", "k=2*p+4",
    ]
    _report(5, got == want, "exactly the thirteen catalogued cases, in order")


def test_c06_tables_cell_for_cell():
    t1, t2 = coincidence_tables_k_eq_p_minus_1()
    ok1 = t1.value_strings() == ["-", "-", "-", "-1", "-2", "-3", "-4", "-5", "-1", "-3/2"]
    ok2 = t2.value_strings() == ["-", "-", "0", "-1", "-2", "-3", "-1/2"]
    _report(6, ok1 and ok2, "leading and subleading tables reproduced cell for cell")


def test_c07_fifteen_powers_in_order():
    got = [str(a) for a in fifteen_powers_k_eq_p_minus_1()]
    want = [
        str(parse_affine(t))
        for t in fixture_json("powers_fifteen_k_eq_p_minus_1.json")
    ]
    _report(7, got == want, "fifteen specialized powers reproduced in order")


def test_c08_chain_p0_and_scaling_operator():
    steps = case_c_chain_p0()
    assert all(s.passed for s in steps), [s.id for s in steps if not s.passed]
    ops = fixture_json("operators.json")
    op = normalize_operator(SymOperator.of(**ops["scaling"]))
    eq = EvolutionEq.power(p=0, F2=parse("lambda1*V^(2*k+1)"))
    residuals = check_operator(eq, op)
    _report(
        8,
        all(r.is_zero() for r in residuals),
        f"p=0 chain passes ({len(steps)} steps) and the scaling operator "
        "satisfies all four determining equations symbolically",
    )


def test_c09_chain_k1_p2():
    steps = case_c_chain_k1_p2()
    assert all(s.passed for s in steps), [s.id for s in steps if not s.passed]
    fx = fixture_json("chain_k1_p2.json")
    eq3 = substitute(
        substitute(power_system().equations[2],
                   {"xi": parse("f"), "eta": parse("g*V + h")}),
        {"k": 1, "p": 2},
    )
    three = split(eq3)
    cubic = substitute(parse(fx["source_equation"]), {"F": parse(fx["cubic_source"])})
    four = split(cubic)
    first_literal = four.equations[0] == parse("g_t + 2*(g + lambda3)*(g + f_x)")
    g_binding = {"g": parse(fx["g_ansatz"])}
    from qcsym.calculus import solve_linear_for

    h = solve_linear_for(substitute(parse(fx["system_k1_p2"][2]), g_binding), "h")
    relation = substitute(
        parse(fx["system_k1_p2"][1]), {**g_binding, "h": h}
    ) * parse("-lambda")
    ok = (
        len(three) == 3
        and len(four) == 4
        and first_literal
        and h == parse(fx["h_solution"])
        and relation == parse(fx["f_relation"])
    )
    _report(9, ok, "k=1, p=2 chain: 3-equation system, 4-way cubic split with "
                   "the literal leading equation, h and the f-relation derived")


def test_c10_sampled_residuals():
    inst = Instance.from_json(fixture_json("instance_scaling.json"))
    op = normalize_operator(inst.operator)
    worst = sample_residuals(inst, op, 1000, seed=inst.seed)
    perturbed = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
    worst_p = sample_residuals(inst, perturbed, 1000, seed=inst.seed)
    _report(
        10,
        worst < 1e-9 and worst_p > 1e-3,
        f"scaling operator residual {worst:.2e} < 1e-9; perturbed {worst_p:.2e} > 1e-3",
    )


def test_c11_group_flow_on_fine_grid():
    inst = Instance.from_json(fixture_json("instance_scaling.json"))
    assert inst.grid.nx == 201 and inst.grid.steps == 200
    field = solve_pde(inst, initial_row(inst), inst.grid.steps)
    base = invariance_residual(field, inst)
    moved = group_transform(field, ScalingFlow(), 0.1, inst)
    ratio = invariance_residual(moved, inst) / base
    broken = group_transform(field, ScalingFlow(v_weight=2.0), 0.2, inst)
    bad_ratio = invariance_residual(broken, inst) / base
    _report(
        11,
        ratio <= 5.0 and bad_ratio >= 10.0,
        f"flow residual ratio {ratio:.2f} <= 5; wrong-weight ratio "
        f"{bad_ratio:.0f} >= 10 on the 201x200 grid",
    )


def test_c12_substitution_round_trip():
    rng = np.random.default_rng(5)
    U = rng.uniform(0.1, 10.0, size=(64, 64))
    worst = 0.0
    for m in (-1, 1, 2):
        V = substitute_power_log("u_to_v", m, U)
        back = substitute_power_log("v_to_u", m, V)
        worst = max(worst, float(np.max(np.abs(back - U))))
    _report(12, worst < 1e-12, f"round-trip deviation {worst:.2e} < 1e-12 "
                               "for m in {-1, 1, 2}")


def test_c13_property_suites_1000_cases():
    from qcsym.calculus import diff
    from qcsym.errors import AmbiguousGradingError

    rng = random.Random(13)
    failures = 0

    for _ in range(1000):  # product rule
        e1, e2 = random_expr(rng), random_expr(rng)
        var = rng.choice(("t", "x", "V"))
        if diff(e1 * e2, var) != diff(e1, var) * e2 + e1 * diff(e2, var):
            failures += 1

    for _ in range(1000):  # collect-rebuild
        e = random_expr(rng, max_terms=4)
        rebuilt = Expr.zero()
        for key, coeff in collect(e).items():
            rebuilt = rebuilt + coeff * Expr((key,))
        if rebuilt != e:
            failures += 1

    for _ in range(1000):  # parser round trip
        e = random_expr(rng, with_denominator=True)
        if parse(str(e)) != e:
            failures += 1

    done = 0
    while done < 1000:  # split-resum
        e = random_expr(rng, max_terms=3)
        try:
            system = split(e, ())
        except AmbiguousGradingError:
            continue
        done += 1
        rebuilt = Expr.zero()
        for key, eq in zip(system.grading, system.equations):
            rebuilt = rebuilt + eq * Expr((key,))
        if rebuilt != e:
            failures += 1

    _report(13, failures == 0,
            "product rule, collect-rebuild, parser round trip, split-resum: "
            "1000 random cases each, zero failures")
