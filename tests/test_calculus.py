"""Differentiation, substitution, collection, splitting, Euler ODE solving."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qcsym.calculus import (
    Constraint,
    collect,
    collect_in,
    diff,
    equal_up_to_unit,
    euler_ode_solve,
    excluded_by,
    integrate_v,
    solve_linear_for,
    split,
    substitute,
)
from qcsym.classify import fixture_json
from qcsym.determining import (
    EvolutionEq, SymOperator, generate_determining_system, normalize_operator,
)
from qcsym.errors import (
    AmbiguousGradingError, DivisionError, PoleError, ResonanceError, TermLanguageError,
)
from qcsym.expr import AFF_ZERO, AffineExponent, Expr, FnAtom
from qcsym.parser import parse, parse_affine
from qcsym.poly import CoeffFrac

from conftest import AFFINE_FORMS, RATIONALS, random_expr


def test_diff_examples():
    assert diff(parse("V^(p+3)"), "V") == parse("(p+3)*V^(p+2)")
    assert diff(parse("exp((n+1)*V)"), "V") == parse("(n+1)*exp((n+1)*V)")
    assert diff(parse("a^2"), "t") == parse("2*a*a_t")
    got = diff(parse("(k*x+A2)/(2*k*t+A1)"), "t")
    want = parse("-2*k*(k*x+A2)/((2*k*t+A1)*(2*k*t+A1))")
    assert got == want


def test_diff_kills_absent_dependencies():
    assert diff(parse("alpha"), "x").is_zero()
    assert diff(parse("F"), "t").is_zero()
    assert diff(parse("h"), "V").is_zero()


def test_product_rule(rng):
    for _ in range(250):
        e1 = random_expr(rng)
        e2 = random_expr(rng)
        for var in ("t", "x", "V"):
            lhs = diff(e1 * e2, var)
            rhs = diff(e1, var) * e2 + e1 * diff(e2, var)
            assert lhs == rhs


def test_mixed_partials_commute(rng):
    for _ in range(200):
        e = random_expr(rng, with_denominator=True)
        assert diff(diff(e, "t"), "x") == diff(diff(e, "x"), "t")
        assert diff(diff(e, "V"), "x") == diff(diff(e, "x"), "V")


def test_substitute_param():
    assert substitute(parse("V^(2*p+1)"), {"p": 3}) == parse("V^7")
    assert substitute(parse("V^(2*p+1)"), {"p": Fraction(1, 2)}) == parse("V^2")
    assert substitute(parse("p*k*V^k"), {"k": parse_affine("p-1")}) == parse(
        "p*(p-1)*V^(p-1)"
    )


def test_substitute_pole_error():
    e = parse("1/((p+2)*(p+3))*V^(p+3)")
    with pytest.raises(PoleError):
        substitute(e, {"p": -2})


def test_substitute_function_induces_derivatives():
    e = parse("a_x*V + a*g")
    got = substitute(e, {"a": parse("f*g")})
    assert got == parse("(f_x*g + f*g_x)*V + f*g^2")


def test_substitute_derivative_key():
    # rewriting f_x leaves the underived f alone
    e = parse("f_t + 2*f*f_x - f_xx + 2*g_x")
    got = substitute(e, {"f_x": parse("-k*g")})
    assert got == parse("f_t - 2*k*f*g + k*g_x + 2*g_x")


def _refusal(e, bindings) -> str:
    with pytest.raises(ValueError) as info:
        substitute(e, bindings)
    return str(info.value)


def test_substitute_refuses_a_function_bound_twice():
    e = parse("f_x + f")
    bindings = {"f": parse("g"), "f_x": parse("h")}
    assert "bound twice" in _refusal(e, bindings)
    # a sequence is refused as one expression is
    assert _refusal([e, parse("g")], bindings) == _refusal(e, bindings)


@pytest.mark.parametrize("key", ["f_q", "F_x", "zz_t", "p_t"])
def test_bad_binding_key_is_refused(key):
    # f_q is no identifier, F does not depend on x, zz is no function and a
    # parameter takes no derivative suffix
    e = parse("f + f_x + F + p")
    assert repr(key) in _refusal(e, {key: parse("t")})
    assert _refusal([e, e], {key: parse("t")}) == _refusal(e, {key: parse("t")})
    with pytest.raises(ValueError, match=repr(key)):
        solve_linear_for(e, key)


@pytest.mark.parametrize("text, key, error, message", [
    ("f + p", "p", ValueError, "names a parameter"),
    ("f^2 + g", "f", TermLanguageError, "does not appear linearly"),
])
def test_solve_linear_for_refuses_a_parameter_and_a_nonlinear_atom(text, key, error, message):
    with pytest.raises(error, match=message):
        solve_linear_for(parse(text), key)


# a function key, a derivative key and a parameter; g, whose atoms may carry
# a negative power, is bound to a single term so each of them inverts
HOMOMORPHISM_BINDINGS = {
    "g": parse("2*t*h"),
    "f_x": parse("k*a + x*alpha"),
    "p": parse_affine("k-1"),
}


def test_substitute_is_a_ring_homomorphism(rng):
    def s(e):
        return substitute(e, HOMOMORPHISM_BINDINGS)

    pairs = [(parse("g^(-1)*f_xx"), parse("g^(-1) + f_x*f_tx"))]
    pairs += [(random_expr(rng), random_expr(rng)) for _ in range(150)]
    for e1, e2 in pairs:
        assert s(e1 + e2) == s(e1) + s(e2)
        assert s(e1 * e2) == s(e1) * s(e2)


# bare-name keys, derivative keys and parameters; a bare-name function whose
# atoms may carry a negative power is bound to a single term, so they invert
SEQUENCE_BINDINGS = [
    HOMOMORPHISM_BINDINGS,
    {"f": parse("t*x*a"), "h_x": parse("k*a + g"), "a_t": parse("x"), "k": 2},
    {"xi": parse("k*x*V/(2*k*t+A1)"), "F": parse("lambda1*V^(2*k+1)"),
     "alpha": parse("-1/(2*k*t+A1)"), "p": parse_affine("2*k+1")},
]


@pytest.mark.parametrize("bindings", SEQUENCE_BINDINGS)
def test_a_sequence_is_substituted_as_its_elements_are(rng, bindings):
    exprs = [random_expr(rng, with_denominator=True) for _ in range(60)]
    got = substitute(tuple(exprs), bindings)
    assert isinstance(got, list)
    assert got == [substitute(e, bindings) for e in exprs]


@pytest.mark.parametrize("name", ["translation", "scaling"])
def test_catalogued_operators_substitute_as_a_sequence(name):
    op = normalize_operator(SymOperator.of(**fixture_json("operators.json")[name]))
    equations = generate_determining_system(EvolutionEq.power()).equations
    bindings = {
        "F": parse(fixture_json("chain_p0.json")["source_term"]),
        "p": 0,
        "xi": op.xi,
        "eta": op.eta,
    }
    got = substitute(equations, bindings)
    assert got == [substitute(e, bindings) for e in equations]


def test_substitute_k1_p2_chain_steps():
    eq3 = parse("lambda*h + 2*g_x - f_xx")
    reduced = substitute(eq3, {"g": parse("A1*f_x")})
    assert reduced == parse("lambda*h + (2*A1-1)*f_xx")
    h = solve_linear_for(reduced, "h")
    assert h == parse("(1-2*A1)/lambda*f_xx")
    eq2 = parse("2*f*h + lambda*(f_x + g)")
    relation = substitute(eq2, {"g": parse("A1*f_x"), "h": h}) * parse("-lambda")
    assert relation == parse("2*(2*A1-1)*f*f_xx - lambda^2*(A1+1)*f_x")


def test_collect_case_c_equation():
    e = parse(
        "(2*f*f_x + f_t + p*f*g)*V^p + p*f*h*V^(p-1)"
        " + lambda*(f_x + k*g)*V^k + lambda*k*h*V^(k-1) + 2*g_x - f_xx"
    )
    groups = collect(e)
    got = {str(k): v for k, v in groups.items()}
    assert set(got) == {"V^p", "V^(p-1)", "V^k", "V^(k-1)", "1"}
    assert got["V^p"] == parse("2*f*f_x + f_t + p*f*g")
    assert got["V^(p-1)"] == parse("p*f*h")
    assert got["V^k"] == parse("lambda*(f_x + k*g)")
    assert got["V^(k-1)"] == parse("lambda*k*h")
    assert got["1"] == parse("2*g_x - f_xx")


def test_collect_zero_is_empty():
    assert collect(Expr.zero()) == {}


def test_collect_rebuild(rng):
    for _ in range(250):
        e = random_expr(rng, max_terms=4)
        rebuilt = Expr.zero()
        for key, coeff in collect(e).items():
            rebuilt = rebuilt + coeff * Expr((key,))
        assert rebuilt == e


def test_split_requires_assumptions():
    e = parse("lambda*(f_x + k*g)*V^k + lambda*k*h*V^(k-1) + f_t + 2*f*f_x - f_xx + 2*g_x")
    with pytest.raises(AmbiguousGradingError):
        split(e)
    system = split(e, (Constraint.parse("k!=0"), Constraint.parse("k!=1")))
    assert len(system) == 3


def test_split_concrete_powers_need_no_assumptions():
    e = parse("(2*f*f_x + f_t + 2*f*g)*V^2 + (2*f*h + lambda*(f_x + g))*V + lambda*h + 2*g_x - f_xx")
    system = split(e)
    assert len(system) == 3
    assert system.equations[0] == parse("2*f*f_x + f_t + 2*f*g")


def test_split_resum(rng):
    for _ in range(250):
        e = random_expr(rng, max_terms=3)
        try:
            system = split(e, ())
        except AmbiguousGradingError:
            continue
        rebuilt = Expr.zero()
        for key, eq in zip(system.grading, system.equations):
            rebuilt = rebuilt + eq * Expr((key,))
        assert rebuilt == e


def test_collect_in_x():
    e = parse("(-k*alpha_t + 2*k^2*alpha^2)*x + beta_t - 2*k*alpha*beta")
    groups = collect_in(e, "x")
    assert set(groups) == {0, 1}
    assert groups[1] == parse("-k*alpha_t + 2*k^2*alpha^2")
    assert groups[0] == parse("beta_t - 2*k*alpha*beta")


def test_euler_solver_reproduces_closed_form():
    rhs = parse("lambda*g_x*g^(-1)*V^k + g_xx*g^(-1) + 2*k*g - g_t*g^(-1)")
    F = euler_ode_solve(parse_affine("2*k+1"), rhs, (Constraint.parse("k!=0"),))
    want = parse(
        "lambda1*V^(2*k+1) - lambda/k*g_x*g^(-1)*V^(k+1)"
        " + (1/(2*k)*g_t*g^(-1) - 1/(2*k)*g_xx*g^(-1) - g)*V"
    )
    assert F == want


def test_euler_homogeneous_and_resonance():
    s = parse_affine("p")
    assert euler_ode_solve(s, Expr.zero()) == parse("lambda1*V^p")
    with pytest.raises(ResonanceError):
        euler_ode_solve(parse_affine("1"), parse("g"))  # e + 1 = s exactly
    with pytest.raises(ResonanceError):
        euler_ode_solve(parse_affine("k"), parse("g*V^(k-1)"))  # not excluded


def test_euler_back_substitution(rng):
    # the solution satisfies F_V - (s/V) F = rhs identically
    for _ in range(60):
        s = parse_affine("2*k+1")
        rhs_parts = []
        for exponent in ("k", "0", "2"):
            if rng.random() < 0.7:
                rhs_parts.append(f"{rng.randint(1, 5)}*g*V^({exponent})")
        if not rhs_parts:
            continue
        rhs = parse(" + ".join(rhs_parts))
        F = euler_ode_solve(
            s,
            rhs,
            (Constraint.parse("k!=0"), Constraint.parse("k!=1"),
             Constraint.parse("k!=-1/2")),
        )
        s_coeff = Expr.from_coeff(CoeffFrac(s.to_poly()))
        lhs = diff(F, "V") - parse("V^(-1)") * s_coeff * F
        assert (lhs - rhs).is_zero()


def test_equal_up_to_unit():
    e1 = parse("2*f*f_x + f_t")
    assert equal_up_to_unit(e1, parse("-lambda*(2*f*f_x + f_t)"))
    assert not equal_up_to_unit(e1, parse("2*f*f_x"))
    assert equal_up_to_unit(parse("(t+1)/(x+2)") * e1, e1)
    assert equal_up_to_unit(e1, -e1)
    assert not equal_up_to_unit(e1, parse("2*f*f_x - f_t"))
    assert equal_up_to_unit(Expr.zero(), Expr.zero())
    assert not equal_up_to_unit(e1, Expr.zero())


def test_split_exponential_atoms():
    # exponential-family style splitting: distinctness through slope
    # differences, excluded by the family's non-degeneracy conditions
    e = parse("f*exp(V) + g*exp((n+1)*V) + h")
    with pytest.raises(AmbiguousGradingError):
        split(e)
    system = split(
        e, (Constraint.parse("n!=0"), Constraint.parse("n!=-1"))
    )
    assert len(system) == 3
    assert {str(k) for k in system.grading} == {"exp(V)", "exp((n+1)*V)", "1"}


def test_param_substitution_commutes_with_diff(rng):
    for _ in range(150):
        e = random_expr(rng)
        for var in ("t", "x"):
            a = substitute(diff(e, var), {"p": 3})
            b = diff(substitute(e, {"p": 3}), var)
            assert a == b


def test_function_substitution_commutes_with_diff(rng):
    binding = {"g": parse("alpha*x + beta")}
    for _ in range(150):
        e = random_expr(rng)
        for var in ("t", "x"):
            a = substitute(diff(e, var), binding)
            b = diff(substitute(e, binding), var)
            assert a == b


def test_substitute_noninvertible_negative_power():
    from qcsym.errors import DivisionError

    with pytest.raises(DivisionError):
        substitute(parse("a^(-1)"), {"a": parse("f + g")})


def test_euler_rejects_non_power_right_side():
    from qcsym.errors import TermLanguageError

    with pytest.raises(TermLanguageError):
        euler_ode_solve(parse_affine("2*k+1"), parse("g*exp(V)"))
    with pytest.raises(TermLanguageError):
        euler_ode_solve(parse_affine("2*k+1"), parse("F*V"))


V_POWER_SUMS = st.lists(
    st.tuples(
        RATIONALS.filter(bool),
        st.sampled_from(("1", "a", "f*g", "h^(-1)", "alpha_t")),
        (AFFINE_FORMS | st.builds(AffineExponent.const, RATIONALS)).filter(
            lambda e: not (e + AffineExponent.const(1)).is_zero()
        ),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(V_POWER_SUMS, RATIONALS.filter(bool))
def test_integrate_v_is_an_antiderivative(parts, scale):
    # each non-constant shift e + 1 is forbidden, as a multiple of itself
    e = Expr.zero()
    assumptions = []
    for c, factor, power in parts:
        e = e + parse(factor).scale(c) * Expr.vpower(power)
        shift = power + AffineExponent.const(1)
        if not shift.is_const():
            assumptions.append(Constraint(shift.scale(scale), AFF_ZERO, "forbidden"))
    assert diff(integrate_v(e, assumptions), "V") == e


def test_integrate_v_refuses_resonance_and_other_atoms():
    with pytest.raises(ResonanceError):
        integrate_v(parse("g*V^(-1)"))
    with pytest.raises(ResonanceError):  # k = 0 is not excluded
        integrate_v(parse("g*V^(k-1)"), (Constraint.parse("k!=1"),))
    assert integrate_v(parse("g*V^(k-1)"), (Constraint.parse("k!=0"),)) == parse(
        "1/k*g*V^k"
    )
    with pytest.raises(TermLanguageError):
        integrate_v(parse("g*exp(V)"))
    with pytest.raises(TermLanguageError):
        integrate_v(parse("F*V"))


@settings(max_examples=300, deadline=None)
@given(AFFINE_FORMS, RATIONALS.filter(bool), st.integers(0, 3), RATIONALS.filter(bool))
@example(
    AffineExponent(cp=1, ck=Fraction(1, 2)), Fraction(3), 0, Fraction(1)
)  # p + k/2 against 3p + 3k/2: a ratio of 1/3 from an integral and a half pair
def test_proportional_is_exact(a, c, index, delta):
    b = a.scale(c)
    assert a.proportional_to(b) == (not a.is_zero())
    # moving one coefficient of b breaks the proportion, unless a is a
    # multiple of that coefficient's unit form
    coeffs = [b.cp, b.ck, b.cn, b.c0]
    if [i for i, v in enumerate(a.key()) if v] == [index]:
        index = (index + 1) % 4
    coeffs[index] += delta
    assert not a.proportional_to(AffineExponent(*coeffs))


def _at(a: AffineExponent, point) -> Fraction:
    p, k, n = point
    return a.cp * p + a.ck * k + a.cn * n + a.c0


# relations as the case analysis writes them (k = p - 1, p = 0, k != 1)
# involve one or two parameters; AFFINE_FORMS mostly involve all three
FORMS = AFFINE_FORMS | st.builds(
    AffineExponent, *[st.just(Fraction(0)) | RATIONALS] * 3, RATIONALS
)


@st.composite
def exclusion_problems(draw):
    """A rational point (p, k, n), assumptions that hold there, and a form.

    The equalities are shifted to hold at the point. The form is often moved
    by multiples of the equalities, and it vanishes at the point half of the
    time. One forbidden relation is a multiple of the form, moved by
    multiples of the equalities and sometimes by a constant, so that the
    equality reduction and the proportion test both decide verdicts.
    Forbidden relations that vanish at the point are dropped.
    """
    point = draw(st.tuples(RATIONALS, RATIONALS, RATIONALS))
    equal = []
    for e in draw(st.lists(FORMS, max_size=2)):
        e = e - AffineExponent.const(_at(e, point))
        if not e.is_const():
            equal.append(Constraint(e, AFF_ZERO, "equal"))

    def through_equalities(a):
        for c in equal:
            a = a + c.lhs.scale(draw(RATIONALS))
        return a

    form = draw(FORMS)
    if draw(st.booleans()):
        form = through_equalities(form)
    if draw(st.booleans()):
        form = form - AffineExponent.const(_at(form, point))
    witness = through_equalities(form.scale(draw(RATIONALS.filter(bool))))
    if draw(st.booleans()):
        witness = witness + AffineExponent.const(draw(RATIONALS.filter(bool)))
    forbidden = [
        Constraint(f, AFF_ZERO, "forbidden")
        for f in draw(st.lists(FORMS, max_size=2)) + [witness]
        if _at(f, point)
    ]
    order = draw(st.permutations(equal + forbidden))
    return point, tuple(order), form


@settings(max_examples=500, deadline=None)
@given(exclusion_problems())
def test_excluded_by_is_sound(problem):
    # a relation that holds at a point satisfying every assumption is
    # never ruled out
    point, assumptions, form = problem
    if excluded_by(form, assumptions):
        assert _at(form, point) != 0


@settings(max_examples=300, deadline=None)
@given(exclusion_problems(), RATIONALS.filter(bool), RATIONALS, st.integers(0, 2))
def test_excluded_by_is_complete(problem, scale, move, index):
    # after the equalities are applied, a nonzero constant is always ruled
    # out, and so is a nonzero multiple of a forbidden relation: that one is
    # nonzero at the point where the equalities hold, so its reduced form is
    # too. Each form is moved by a multiple of the first equality, which the
    # reduction removes.
    point, assumptions, _ = problem
    forbidden = [c.form() for c in assumptions if c.kind == "forbidden"]
    equal = [c.form() for c in assumptions if c.kind == "equal"]
    moved = equal[0].scale(move) if equal else AFF_ZERO
    assert excluded_by(AffineExponent.const(scale) + moved, assumptions)
    if forbidden:
        assert excluded_by(forbidden[index % len(forbidden)].scale(scale) + moved, assumptions)


@settings(max_examples=300, deadline=None)
@given(exclusion_problems(), st.integers(0, 3))
def test_split_separates_only_excluded_keys(problem, shape):
    # split keeps a*V^v*exp(c*V) apart from f only when (v, c) cannot be
    # (0, 0) under the assumptions
    point, assumptions, form = problem
    merged = sum((c.lhs for c in assumptions if c.kind == "equal"), AFF_ZERO)
    vpow, expc = [(form, AFF_ZERO), (AFF_ZERO, form), (form, form), (form, merged)][shape]
    a, f = FnAtom("a"), FnAtom("f")
    e = Expr.atom(a) * Expr.vpower(vpow) * Expr.exp_atom(expc) + Expr.atom(f)
    try:
        system = split(e, assumptions)
    except AmbiguousGradingError:
        return
    if len(system) == 2:
        assert (_at(vpow, point), _at(expc, point)) != (0, 0)


def _canonical_atoms(e: Expr) -> bool:
    """Every atom tuple sorted by sort_key, no key twice, no zero power."""
    for t in e.terms:
        keys = [a.sort_key() for a in t.fns]
        if keys != sorted(set(keys)) or not all(a.power for a in t.fns):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_atom_tuples_stay_canonical(seed):
    # a Term's signature is built from its atom tuple, so like terms
    # combine, and merge_fns merges, only while every tuple is canonical
    rng = random.Random(seed)
    e = random_expr(rng, with_denominator=True)
    results = [e, e * random_expr(rng)]
    results += [diff(e, var) for var in ("t", "x", "V")]
    for key in ("a", "f_x", "F", "xi", "alpha"):
        try:
            results.append(substitute(e, {key: random_expr(rng), "p": 2}))
        except (DivisionError, PoleError):
            pass  # a negative atom power met a sum, or p = 2 is a pole
    for t in e.terms:
        single = Expr((t,))
        if not any(a.is_derived() for a in t.fns):
            results += [single.invert(), single * single.invert()]
    for r in results:
        assert _canonical_atoms(r), r
