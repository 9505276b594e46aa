"""Case analysis: general eta, source extraction, enumeration, tables, chains."""
from fractions import Fraction

import pytest

from qcsym import classify
from qcsym.calculus import (
    Constraint, EquationSystem, collect, solve_linear_for, split, substitute,
)
from qcsym.classify import (
    CASE_B_ASSUMPTIONS,
    case_c_chain_k1_p2,
    case_c_chain_p0,
    coincidence_table,
    coincidence_tables_k_eq_p_minus_1,
    enumerate_special_cases,
    extract_F,
    fifteen_power_cases,
    fifteen_powers,
    fifteen_powers_k_eq_p_minus_1,
    fixture_json,
    fixture_text,
    power_system,
    six_power_cases,
    solve_eta_case_b,
)
from qcsym.errors import (
    AmbiguousGradingError, PoleError, TableError, TermLanguageError, VerificationError,
)
from qcsym.expr import Expr
from qcsym.parser import parse, parse_affine


# ---------------------------------------------------------------------------
# case B


def test_eta_matches_closed_form():
    assert solve_eta_case_b() == parse(fixture_text("eta_case_b.txt"))


def test_eta_back_substitution_zero():
    eta = solve_eta_case_b()
    eq2 = power_system().equations[1]
    assert substitute(eq2, {"xi": parse("a*V + f"), "eta": eta}).is_zero()


def test_eta_with_a_zero_degenerates_to_case_c_shape():
    eta = substitute(solve_eta_case_b(), {"a": 0})
    assert eta == parse("g*V + h")


def test_eta_pole_guard():
    with pytest.raises(PoleError):
        substitute(solve_eta_case_b(), {"p": -2})


def test_source_term_matches_closed_form():
    assert extract_F() == parse(fixture_text("source_case_b.txt"))


def test_source_term_key_signature():
    keys = {str(k) for k in collect(extract_F())}
    assert keys == {
        "V^(2*p+3)", "V^(2*p+1)", "V^(p+k+2)", "V^(p+k+1)", "V^(2*p+2)",
        "V^(p+2)", "V^(p+1)", "V^p", "V^(p-1)", "V^(k+1)", "V^k",
        "V^(k-1)", "V", "1", "V^(2*k+1)",
    }


def test_source_term_back_substitution_zero():
    F = extract_F()
    eq3 = power_system().equations[2]
    residual = substitute(
        eq3, {"xi": parse("a*V + f"), "eta": solve_eta_case_b(), "F": F}
    )
    assert residual.is_zero()


def test_source_extraction_requires_nonzero_a():
    # the coefficient of F in the case-B eq3 is proportional to a
    eq3 = power_system().equations[2]
    e = substitute(eq3, {"xi": parse("a*V + f"), "eta": solve_eta_case_b()})
    with pytest.raises(TermLanguageError, match="F does not appear"):
        solve_linear_for(substitute(e, {"a": 0}), "F")


def test_constant_coefficient_reduction_keys():
    # with a and f constant, exactly the six analysed powers keep
    # non-constant coefficients
    Fc = substitute(
        extract_F(), {"a": Expr.generator("a0"), "f": Expr.generator("f0")}
    )
    groups = collect(Fc)
    non_const = {
        str(key)
        for key, coeff in groups.items()
        if any(t.fns or (t.coeff.gens() & {"t", "x"}) for t in coeff.terms)
    }
    assert non_const == {"V^(p+1)", "V^p", "V^(p-1)", "V^k", "V^(k-1)", "1"}


def test_constancy_ambiguous_grading_guard():
    with pytest.raises(AmbiguousGradingError):
        split(parse("g*V^k + h*V^p"), ())


# ---------------------------------------------------------------------------
# enumeration


def test_six_power_cases_exact():
    got = {str(c) for c in six_power_cases()}
    assert got == {"k=p-1", "k=p+2", "p=0", "p=1", "k=1"}
    assert len(six_power_cases()) == 5


def test_fifteen_power_cases_exact_order():
    got = [str(c) for c in fifteen_power_cases()]
    want = [
        "p=-4", "p=-3/2", "p=-1/2", "p=0", "p=1", "p=2",
        "k=p-1", "k=p+2", "k=2*p", "k=2*p+1", "k=2*p+2", "k=2*p+3", "k=2*p+4",
    ]
    assert got == want


def test_vanishing_roots_kill_leading_coefficients():
    # the supplied roots really do annihilate the two leading coefficients
    groups = collect(extract_F())
    by_key = {str(k): v for k, v in groups.items()}
    assert substitute(by_key["V^(2*p+3)"], {"p": 2}).is_zero()
    assert substitute(by_key["V^(2*p+1)"], {"p": 0}).is_zero()


def test_enumeration_order_independent():
    data = fixture_json("coincidence_six.json")
    forbidden = tuple(Constraint.parse(c) for c in data["forbidden"])
    exps = [parse_affine(t) for t in data["exponents"]]
    a = enumerate_special_cases(exps, None, forbidden)
    b = enumerate_special_cases(list(reversed(exps)), None, forbidden)
    assert [str(c) for c in a] == [str(c) for c in b]


def test_special_cases_equalize_their_pairs():
    # each case merges two distinct input exponents or is a supplied root
    six, fifteen = fixture_json("coincidence_six.json"), fixture_json("coincidence_fifteen.json")
    for exponents, cases, roots in (
        (six["exponents"], six_power_cases(), []),
        (fixture_json("powers_fifteen.json"), fifteen_power_cases(),
         [root for _, root in fifteen["vanishing"]]),
    ):
        exps = [parse_affine(t) for t in exponents]
        roots = {str(Constraint.parse(root)) for root in roots}
        for case in cases:
            name, value = case.solved_for()
            merged = any(
                (a - b).subst(name, value).is_zero()
                for i, a in enumerate(exps) for b in exps[i + 1:] if a != b
            )
            assert merged or str(case) in roots, str(case)


def test_special_cases_respect_forbidden():
    data = fixture_json("coincidence_fifteen.json")
    forbidden = tuple(Constraint.parse(c) for c in data["forbidden"])
    for case in fifteen_power_cases():
        form = case.form()
        for c in forbidden:
            assert not form.proportional_to(c.form())


def test_empty_exponent_list():
    assert enumerate_special_cases([], None, ()) == []


# ---------------------------------------------------------------------------
# powers and tables


def test_fifteen_powers_catalogue_order():
    got = [str(a) for a in fifteen_powers()]
    want = [str(parse_affine(t)) for t in fixture_json("powers_fifteen.json")]
    assert got == want
    assert {a.key() for a in fifteen_powers()} == {
        k.vpow.key() for k in collect(extract_F())
    }


def test_fifteen_powers_shifted():
    got = [str(a) for a in fifteen_powers_k_eq_p_minus_1()]
    want = [
        str(parse_affine(t))
        for t in fixture_json("powers_fifteen_k_eq_p_minus_1.json")
    ]
    assert got == want
    shift = parse_affine("p-1")
    assert parse_affine("p+k+2").subst("k", shift) == parse_affine("2*p+1")
    assert parse_affine("2*k+1").subst("k", shift) == parse_affine("2*p-1")


def test_leading_table_cells():
    t1, _ = coincidence_tables_k_eq_p_minus_1()
    fx = fixture_json("table_leading.json")
    assert [str(c) for c in t1.columns] == [str(parse_affine(c)) for c in fx["columns"]]
    assert t1.value_strings() == fx["values"]
    # the standing conditions knock out p = -1, -2, -3 (and p = -1 again)
    flagged = [str(c) for c, x in zip(t1.columns, t1.excluded) if x]
    assert flagged == ["p+2", "p+1", "p", "1"]


def test_subleading_table_cells():
    _, t2 = coincidence_tables_k_eq_p_minus_1()
    fx = fixture_json("table_subleading.json")
    assert [str(c) for c in t2.columns] == [str(parse_affine(c)) for c in fx["columns"]]
    assert t2.value_strings() == fx["values"]
    flagged = [str(c) for c, x in zip(t2.columns, t2.excluded) if x]
    assert flagged == ["p+1", "p", "p-1", "p-2"]


def test_table_degenerate_inputs():
    with pytest.raises(TableError):
        coincidence_table("2*p+3", ["2*p+3"])  # identical column
    with pytest.raises(TableError):
        coincidence_table("2*p+3", ["k"])  # not reducible to p
    table = coincidence_table("2*p+3", ["2*p+1", "p"])
    assert table.values[0] is None
    assert table.values[1] == Fraction(-3)


# ---------------------------------------------------------------------------
# chains


def test_chain_p0_all_steps_pass():
    steps = case_c_chain_p0()
    assert all(s.passed for s in steps)
    assert len(steps) == 9


def test_chain_k1_p2_all_steps_pass():
    steps = case_c_chain_k1_p2()
    assert all(s.passed for s in steps)
    assert len(steps) == 7


def test_chain_reports_deterministic():
    for chain in (case_c_chain_p0, case_c_chain_k1_p2):
        assert [s.to_json() for s in chain()] == [s.to_json() for s in chain()]


def test_match_system_counts_each_equation():
    # each fixture equation matches one split equation up to a unit, so a
    # repeated, a missing or an extra equation does not match
    texts = fixture_json("chain_p0.json")["system_p0"]
    e0, e1, e2 = (parse(t) for t in texts)

    def matches(*equations):
        system = EquationSystem(equations, tuple(range(len(equations))))
        return classify._match_system(system, texts)

    assert matches(e2, -e1, parse("(t+1)/(x+2)") * e0)
    assert not matches(e0, e0, e1)
    assert not matches(e0, e1)
    assert not matches(e0, e1, e2, parse("f"))


def test_chain_p0_g_zero_branch():
    # with g = 0 the split system forces f constant and h = 0, leaving the
    # plain translation operator for arbitrary source term
    fx = fixture_json("chain_p0.json")
    eqs = [substitute(parse(t), {"g": 0}) for t in fx["system_p0"]]
    assert eqs[0].is_zero() or eqs[0] == parse("lambda*k*h")
    assert substitute(eqs[1], {"f_x": 0}).is_zero()
    from qcsym.determining import EvolutionEq, SymOperator, check_operator

    residuals = check_operator(EvolutionEq.power(), SymOperator.of("1", "A", "0"))
    assert all(r.is_zero() for r in residuals)


def test_alpha_beta_solve_their_odes():
    fx = fixture_json("chain_p0.json")
    ode = parse(fx["alpha_beta_ode"])
    bound = substitute(ode, {"alpha": parse(fx["alpha"]), "beta": parse(fx["beta"])})
    assert bound.is_zero()


def test_cubic_split_first_equation_literal():
    fx = fixture_json("chain_k1_p2.json")
    e = substitute(parse(fx["source_equation"]), {"F": parse(fx["cubic_source"])})

    system = split(e)
    assert len(system) == 4
    assert system.equations[0] == parse("g_t + 2*(g + lambda3)*(g + f_x)")


def test_exponential_case_c_split_supported():
    # no catalogued fixtures exist for the exponential chains, but the
    # machinery must split the case-C reduction by its mixed keys
    from qcsym.determining import EvolutionEq, generate_determining_system

    sys_e = generate_determining_system(EvolutionEq.exponential())
    eq3 = substitute(
        sys_e.equations[2], {"xi": parse("f"), "eta": parse("g*V + h")}
    )
    system = split(eq3, (Constraint.parse("n!=0"), Constraint.parse("n!=-1")))
    assert len(system) == 5
    keys = {str(k) for k in system.grading}
    assert keys == {
        "V*exp((n+1)*V)", "V*exp(V)", "exp((n+1)*V)", "exp(V)", "1",
    }
    # the leading equation forces g = 0 outright (n != -1), matching the
    # conclusion that this branch only carries the plain translation
    from qcsym.calculus import solve_linear_for

    lead = dict(zip((str(k) for k in system.grading), system.equations))
    assert solve_linear_for(lead["V*exp((n+1)*V)"], "g").is_zero()


def test_case_b_triple_does_not_trivialize_eq4():
    # the fourth determining equation is a genuine constraint, not an
    # identity, once xi, eta and the source term are substituted
    eq4 = power_system().equations[3]
    residual = substitute(
        eq4,
        {"xi": parse("a*V + f"), "eta": solve_eta_case_b(), "F": extract_F()},
    )
    assert not residual.is_zero()


def test_euler_form_refuses_an_equation_not_of_euler_type():
    # F_V = -F^2: the coefficient of F is no multiple of F/V
    with pytest.raises(VerificationError, match="not of Euler type") as err:
        classify._euler_form(parse("F_V + F^2"))
    assert err.value.step == "euler-form"
