"""Polynomial and rational-function layer."""
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qcsym import poly
from qcsym.poly import (
    CoeffFrac, F_ZERO, P_ONE, P_ZERO, Poly, grlex_key, poly_divexact, poly_gcd,
)

from conftest import RATIONALS, random_coeff, random_fraction, random_poly


def P(name):
    return Poly.var(name)


def test_constants_and_zero():
    assert Poly.const(0).is_zero()
    assert (Poly.const(3) + Poly.const(-3)).is_zero()
    assert Poly.const(Fraction(1, 2)).const_value() == Fraction(1, 2)


def test_arithmetic_basics():
    p, t = P("p"), P("t")
    q = (p + t) * (p - t)
    assert q == p * p - t * t
    x, one = P("x"), Poly.const(1)
    for a, b in ((q, p * p - t * t), ((x + one) * (x - one), x * x - one)):
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert (p + t) ** 2 == p * p + p * t.scale(2) + t * t


def test_derivative_and_subst():
    t, x = P("t"), P("x")
    f = t * t * x + x.scale(3)
    assert f.deriv("t") == t * x.scale(2)
    assert f.deriv("x") == t * t + Poly.const(3)
    assert f.subst("x", Fraction(2)) == t * t.scale(2) + Poly.const(6)
    assert f.subst("x", t) == t * t * t + t.scale(3)


def test_gcd_simple():
    p = P("p")
    a = (p + Poly.const(1)) * (p + Poly.const(2))
    b = (p + Poly.const(2)) * (p + Poly.const(3))
    g = poly_gcd(a, b)
    assert g == p + Poly.const(2)


def test_gcd_multivariate():
    p, k = P("p"), P("k")
    common = p * k + Poly.const(1)
    a = common * (p + Poly.const(1))
    b = common * (k + Poly.const(2))
    assert poly_gcd(a, b) == common


def test_divexact_raises_on_inexact():
    p = P("p")
    with pytest.raises(ValueError):
        poly_divexact(p + Poly.const(1), p + Poly.const(2))


def test_coeff_frac_reduction():
    p = P("p")
    f = CoeffFrac((p + Poly.const(1)) * (p + Poly.const(2)), (p + Poly.const(2)))
    assert f == CoeffFrac(p + Poly.const(1))
    assert hash(f) == hash(CoeffFrac(p + Poly.const(1)))
    assert len({f, CoeffFrac(p + Poly.const(1))}) == 1
    assert f.den == Poly.const(1)


def test_coeff_frac_field_ops():
    p = P("p")
    half = CoeffFrac.const(Fraction(1, 2))
    inv = CoeffFrac(Poly.const(1), p + Poly.const(2))
    s = half + inv
    assert s * CoeffFrac(p + Poly.const(2)) == CoeffFrac(
        (p + Poly.const(2)).scale(Fraction(1, 2)) + Poly.const(1)
    )
    assert (inv * inv.inverse()).const_value() == 1


def test_common_factor_cancels(rng):
    # (u*w)/(v*w) canonicalizes to u/v
    for _ in range(300):
        u = random_poly(rng)
        v = random_poly(rng)
        w = random_poly(rng)
        if v.is_zero() or w.is_zero():
            continue
        assert CoeffFrac(u * w, v * w) == CoeffFrac(u, v)


def test_denominator_monic(rng):
    for _ in range(200):
        u, v = random_poly(rng), random_poly(rng)
        if v.is_zero():
            continue
        f = CoeffFrac(u, v)
        if not f.is_zero() and not f.den.is_const():
            assert f.den.lead_coeff() == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_gcd_divides_both(sa, sb, sc):
    rng = random.Random(sa * 31 + sb * 7 + sc)
    a = random_poly(rng)
    b = random_poly(rng)
    g = poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    for f in (a, b):
        if not f.is_zero():
            q = poly_divexact(f, g)
            assert q * g == f


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_coeff_frac_field_laws(seed):
    rng = random.Random(seed)
    def frac():
        num = random_poly(rng)
        den = random_poly(rng, gens=("t", "p"))
        if den.is_zero():
            den = Poly.const(1)
        return CoeffFrac(num, den)
    a, b, c = frac(), frac(), frac()
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert (a * a.inverse()).const_value() == 1


_GENS = ("t", "x", "p")

# small polynomials in t, x, p: up to three terms, degree <= 2 per generator
_MONOS = st.tuples(*(st.integers(0, 2) for _ in _GENS)).map(
    lambda exps: tuple(sorted((g, e) for g, e in zip(_GENS, exps) if e))
)
_POLYS = st.lists(st.tuples(_MONOS, RATIONALS), min_size=1, max_size=3).map(
    lambda terms: sum((Poly({m: c}) for m, c in terms), Poly())
)
# t - 2, x - 3*p, (t - 2)*p^e + rest and (t - 2)*(p - 3) + rest: factors
# that vanish, or whose leading coefficients vanish, at t, x or p = 2 or 3,
# so the pseudo-remainder chain meets leading coefficients that are
# polynomials in the other generators
_SCREENED = st.builds(
    lambda gens, s, s2, e, rest, kind: [
        P(gens[1]) - Poly.const(s),
        P(gens[0]) - P(gens[1]).scale(Fraction(s)),
        (P(gens[1]) - Poly.const(s)) * P(gens[0]) ** e + rest,
        (P(gens[0]) - Poly.const(s)) * (P(gens[1]) - Poly.const(s2)) + rest,
    ][kind],
    st.permutations(_GENS),
    st.sampled_from((2, 3)),
    st.sampled_from((2, 3)),
    st.integers(1, 2),
    st.one_of(RATIONALS.map(Poly.const), _POLYS),
    st.sampled_from((0, 1, 2, 3, 3, 3)),
)
_FACTORS = st.one_of(
    _SCREENED, _POLYS, st.builds(lambda f, g: f * g, _SCREENED, _POLYS)
)


def _to_sympy(sympy, p: Poly):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(g) ** e for g, e in m))
        for m, c in p.terms.items()
    ))


def _product(factors) -> Poly:
    out = P_ONE
    for f in factors:
        out = out * f
    return out


def _univariate(coeffs) -> Poly:
    return sum((Poly({(("p", e),) if e else (): c}) for e, c in enumerate(coeffs)), Poly())


# the gcd's inputs, as (a, b) pairs: products with a shared factor
_SHARED = st.builds(lambda a, b, c: (a * c, b * c), _POLYS, _POLYS, _FACTORS)
# a generator that only the first input has
_ONE_SIDED = st.builds(
    lambda f, g, h, c, y: ((f + P(y) * g) * c, h * c),
    _POLYS, _POLYS, _POLYS, _FACTORS, st.sampled_from(("A1", "lambda")),
)
# univariate in p, degree at most 4, rational coefficients, with or
# without a shared factor
_UNIVARIATE = st.one_of(
    st.builds(
        lambda f, g, c: (f * c, g * c),
        *(st.lists(RATIONALS, min_size=1, max_size=3).map(_univariate) for _ in range(3)),
    ),
    st.tuples(*(st.lists(RATIONALS, min_size=1, max_size=5).map(_univariate) for _ in range(2))),
)
# products of linear factors in k and p, such as (k+1)(k+2)(p+2)(p+3),
# some shared, the first input sometimes times lambda
_LINEAR = st.builds(
    lambda v, c: P(v) + Poly.const(c), st.sampled_from(("k", "p")), st.integers(-3, 3)
)
_PRODUCTS = st.builds(
    lambda fs, gs, shared, lam: (
        _product(fs + shared) * (P("lambda") if lam else P_ONE), _product(gs + shared)
    ),
    *(st.lists(_LINEAR, max_size=2) for _ in range(3)),
    st.booleans(),
)


def _slow_inputs():
    """Two coprime pairs on which the pseudo-remainder chain took 0.25-0.7 ms."""
    k, p, lam = P("k"), P("p"), P("lambda")
    one = Poly.const
    f = lam * (one(24) + p.scale(8) - (p ** 2).scale(6) - (p ** 3).scale(2)
               - k.scale(4) - (k ** 2).scale(6) - (k ** 3).scale(2))
    g = (k + one(1)) * (k + one(2)) * (p + one(2)) * (p + one(3))
    return [
        (f, g),
        (k * P("x") + P("A2"), k * P("t") + P("A1").scale(Fraction(1, 2))),
    ]


# leading coefficients in t and in p both vanish at t = p = 2
_VANISHING_LEADS = (P("t") - Poly.const(2)) * (P("p") - Poly.const(2)) + Poly.const(1)


def _one_sided_pairs():
    """Pairs in which an input has a generator the other lacks, whose
    content in it may or may not carry the common factor."""
    t, x, p, k, lam, one = P("t"), P("x"), P("p"), P("k"), P("lambda"), Poly.const(1)
    return [
        ((x - one) ** 3 * (p * t + one), (x - one) ** 2 * (t + x)),
        ((t + one) * ((x + one) * p + one), (t + one) * (t - x)),
        ((p + one) * (lam * t + one), (p + one) * (k + t)),
    ]


# different monomial contents, p*c and x*c, which GCDHEU sees only after
# they are divided out
_SHIFTED = (P("p") - Poly.const(2)) * (P("x") + Poly.const(1))


@example((P("p") * _SHIFTED, P("x") * _SHIFTED))
@example((P("p") * P("t") ** 2 * _SHIFTED, P("x") * P("t") * _SHIFTED))
@example(((P("x") + Poly.const(1)) * _VANISHING_LEADS, (P("x") - Poly.const(1)) * _VANISHING_LEADS))
@example(_slow_inputs()[0])
@example(_slow_inputs()[1])
@example(_one_sided_pairs()[0])
@example(_one_sided_pairs()[1])
@example(_one_sided_pairs()[2])
@settings(max_examples=250, deadline=None)
@given(st.one_of(_SHARED, _ONE_SIDED, _UNIVARIATE, _PRODUCTS))
def test_gcd_matches_sympy(pair):
    # against sympy's gcd, by the kernel and by the pseudo-remainder chain
    # alone, which the kernel reaches only where GCDHEU gives up; _cancel
    # hands back its inputs themselves when nothing cancels, and the exact
    # quotients when something does
    sympy = pytest.importorskip("sympy")
    a, b = pair
    got = poly_gcd(a, b)
    want = sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b))
    if want == 0:
        assert got.is_zero()
        return
    unit = sympy.cancel(_to_sympy(sympy, got) / want)
    assert unit.is_Rational and unit != 0, (a, b, got, want)
    if a.is_zero() or b.is_zero():
        return
    chain = sympy.cancel(_to_sympy(sympy, poly._prs_gcd(a, b)) / want)
    assert chain.is_Rational and chain != 0, (a, b, want)
    num, den = poly._cancel(a, b)
    if got == P_ONE or b.is_const():
        assert num is a and den is b
    else:
        assert num == poly_divexact(a, got)
        assert den == poly_divexact(b, got)


def test_cancelled_parts_are_the_exact_quotients():
    # inputs stored lowest degree first, or with a shared monomial or an
    # equal pair: each cancelled part is the exact quotient by the gcd
    k, lam = P("k"), P("lambda")
    ascending = Poly({(): 2, (("p", 1),): 3, (("p", 2),): 1})  # (p + 1)(p + 2)
    kt = Poly({(("A1", 1),): Fraction(1, 2), (("k", 1), ("t", 1)): 1})
    pairs = [
        (ascending, Poly({(): 3, (("p", 1),): 4, (("p", 2),): 1})),  # (p + 1)(p + 3)
        (Poly({(): 1, (("p", 1),): 1}) * lam, ascending * k),
        (kt * Poly({(): 1, (("t", 1),): 1}), kt * kt),
        (Poly({(("lambda", 1),): 2, (("lambda", 1), ("p", 1)): 1}), lam.scale(3)),
        (ascending, ascending),
    ]
    for a, b in pairs:
        g = poly_gcd(a, b)
        assert not g.is_const()
        for part, whole in zip(poly._cancel(a, b), (a, b)):
            assert part == poly_divexact(whole, g)


def test_gcd_falls_back_to_the_pseudo_remainder_chain(monkeypatch):
    # each evaluation maps k*x + A2 and k*t + A1 to integers that share a
    # power of the evaluation point, which no common factor explains, so no
    # GCDHEU candidate divides and the pseudo-remainder chain answers
    calls = []
    real = poly._prs_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(poly, "_prs_gcd", counted)
    k1 = P("k") + Poly.const(1)
    a = k1 * (P("k") * P("x") + P("A2"))
    b = k1 * (P("k") * P("t") + P("A1"))
    assert poly._heuristic_gcd(a, b) is None
    assert poly_gcd(a, b) == k1
    assert calls[0] == (a, b)
    num, den = poly._cancel(a, b)
    assert num == poly_divexact(a, k1)
    assert den == poly_divexact(b, k1)


def test_different_monomial_contents_need_no_pseudo_remainder_chain(monkeypatch):
    def refuse(a, b):
        raise AssertionError("the pseudo-remainder chain ran")

    monkeypatch.setattr(poly, "_prs_gcd", refuse)
    for a, b in ((P("p") * _SHIFTED, P("x") * _SHIFTED),
                 (P("p") * P("t") ** 2 * _SHIFTED, P("x") * P("t") * _SHIFTED)):
        g, qa, qb = poly._gcd_cofactors(a, b)
        assert g * qa == a and g * qb == b
        assert g == _SHIFTED * (P("t") if a.degree("t") else P_ONE)


def _screened(u):
    """u - point(u), which vanishes where _coprime puts u."""
    return P(u) - Poly.const(poly._point(u))


def _lead_pair(gens, rest, b, c, c0, kind):
    """A pair whose first input's leading coefficient in v vanishes at
    _coprime's point (rest, from _POLYS, has degree 2 in v at most), times
    no shared factor, a drawn one, or one whose leading coefficients in u
    and in v both vanish there."""
    u, v = gens[:2]
    shared = [P_ONE, c, _screened(u) * _screened(v) + Poly.const(c0)][kind]
    return (_screened(u) * P(v) ** 3 + rest) * shared, b * shared


_LEADS = st.builds(_lead_pair, st.permutations(_GENS), _POLYS, _POLYS, _FACTORS,
                   st.integers(1, 3), st.sampled_from((0, 1, 2)))


# a shared factor whose leading coefficients in t and in x both vanish
@example(tuple(f * (_screened("t") * _screened("x") + Poly.const(1))
               for f in (_screened("t") * P("x") ** 3 + P("p"), P("t") + P("p"))))
@settings(max_examples=150, deadline=None)
@given(st.one_of(_LEADS, _LEADS.map(lambda pair: pair[::-1]), _SHARED))
def test_coprime_proves_only_coprime_pairs(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    if a.is_zero() or b.is_zero() or not poly._coprime(a, b):
        return
    gcd = sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b))
    assert sympy.Poly(gcd, *sympy.symbols(_GENS)).is_ground, (a, b, gcd)


def test_a_leading_coefficient_that_vanishes_at_the_point_proves_nothing():
    # h's images in k and in x are the constant 1, and so are the leading
    # coefficients of a and b there, so only the check on those leading
    # coefficients keeps the images from "proving" gcd(a, b) = 1
    rk, rx = (Poly.const(poly._point(g)) for g in ("k", "x"))
    h = (P("x") - rx) * (P("k") - rk) + Poly.const(1)
    a = h * (P("x") + Poly.const(2))
    b = h * (P("x") + Poly.const(3))
    assert not poly._coprime(a, b)
    assert poly_gcd(a, b) == h


def test_a_denominator_the_test_prime_divides():
    # such a coefficient has no image modulo the prime, which proves nothing
    x, t, one = P("x"), P("t"), Poly.const(1)
    a = x.scale(Fraction(1, poly._PRIME)) + t
    b = x + t
    assert poly_gcd(a, b) == P_ONE
    assert poly_gcd(a * (x + one), b * (x + one)) == x + one
    # _coprime cannot prove this pair coprime either: GCDHEU finds their gcd
    # constant and gives back the inputs themselves, which CoeffFrac.__mul__
    # tests with `is`
    a = t * x + Poly.const(Fraction(1, poly._PRIME))
    assert not poly._coprime(a, b)
    for found in (poly._heuristic_gcd(a, b), poly._gcd_cofactors(a, b)):
        g, qa, qb = found
        assert g == P_ONE and qa is a and qb is b


@settings(max_examples=100, deadline=None)
@given(_FACTORS, _FACTORS, _POLYS)
def test_gcd_is_symmetric_and_normalised(a, b, c):
    got = poly_gcd(a * c, b * c)
    assert got == poly_gcd(b * c, a * c)
    if not got.is_zero():
        assert got.content() == 1 and got.lead_coeff() > 0, got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([operator.add, operator.mul, operator.truediv]))
def test_coeff_frac_matches_sympy_cancel(seed, op):
    # a sum, product or quotient is the rational function sympy.cancel gives
    # for the same operation, over the same denominator up to a unit
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    a = random_coeff(rng, with_denominator=True)
    b = random_coeff(rng, with_denominator=True)
    got = op(a, b)
    num, den = sympy.fraction(sympy.cancel(op(
        _to_sympy(sympy, a.num) / _to_sympy(sympy, a.den),
        _to_sympy(sympy, b.num) / _to_sympy(sympy, b.den),
    )))
    got_num, got_den = _to_sympy(sympy, got.num), _to_sympy(sympy, got.den)
    assert sympy.expand(got_num * den - got_den * num) == 0, (a, b, got)
    unit = sympy.cancel(got_den / den)
    assert unit.is_Rational and unit != 0, (a, b, got)


def _int_when_integral(p: Poly) -> bool:
    return all(type(c) is int if c.denominator == 1 else type(c) is Fraction
               for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_integral_coefficients_are_ints(seed):
    rng = random.Random(seed)
    a, b, c = random_poly(rng), random_poly(rng), random_poly(rng)
    s = rng.choice([Fraction(1, 2), Fraction(2), Fraction(-3, 2)])
    gen = rng.choice(("t", "x", "p"))
    results = [a + b, a * b, a.scale(s), a.deriv(gen), a.subst(gen, s), a.subst(gen, b),
               poly_gcd(a * c, b * c)]
    if not b.is_zero():
        results.append(poly_divexact(a * b, b))
    for p in results:
        assert _int_when_integral(p), p
        assert type(p.lead_coeff()) is Fraction
        if p.is_const():
            assert type(p.const_value()) is Fraction


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_lead_mono_is_grlex_max(seed):
    # one-term and constant polynomials skip the grlex key; all must agree
    rng = random.Random(seed)
    polys = [random_poly(rng, max_monos=n) for n in (1, 1, 3, 5)]
    polys.append(Poly.const(random_fraction(rng)))
    for p in polys:
        if p.is_zero():
            continue
        assert p.lead_mono() == max(p.terms, key=grlex_key(sorted(p.gens())))
        assert p.lead_coeff() == p.terms[p.lead_mono()]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 3)])
def test_gcd_with_nonzero_constant_is_one(c):
    k = Poly.const(c)
    for other in (P_ZERO, k, P("x") * P("t") - P("p").scale(c)):
        assert poly_gcd(k, other) == P_ONE
        assert poly_gcd(other, k) == P_ONE


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-1), Fraction(-3, 4)])
def test_constant_denominator_normalises_to_one(c):
    num = P("x") + Poly.const(1)
    f = CoeffFrac(num, Poly.const(c))
    assert f.den == P_ONE
    assert f.num == num.scale(1 / c)


def test_coefficient_division_is_exact():
    def lin(c1, c0):
        return P("x").scale(c1) + Poly.const(c0)

    # int / int is float division; 1/3 has no float, so a float quotient
    # shows as a wrong result
    assert poly_divexact(P("x") * P("t"), P("t").scale(3)) == P("x").scale(Fraction(1, 3))
    # the pseudo-remainder chain of a univariate gcd sees int coefficients
    assert poly_gcd(lin(7, -9) * lin(8, 6), lin(5, -2) * lin(8, 6)) == lin(4, 3)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        P("p") ** -1


def test_equality_and_hash_ignore_term_order_and_coefficient_type():
    x, t = (("x", 1),), (("t", 2),)
    forms = [
        Poly({x: 2, t: Fraction(1, 3), (): -1}),
        Poly({(): Fraction(-1), t: Fraction(1, 3), x: Fraction(2)}),
        Poly({t: Fraction(2, 6), x: 2, (): -1}),
    ]
    assert all(p == forms[0] and hash(p) == hash(forms[0]) for p in forms)
    assert len(set(forms)) == 1
    assert forms[0] != Poly({x: 2, t: Fraction(1, 3)})
    den = P("p") + Poly.const(1)
    fracs = [CoeffFrac(p, den) for p in forms]
    fracs.append(CoeffFrac(forms[1] * P("x"), Poly({(): 1, (("p", 1),): Fraction(1)}) * P("x")))
    assert all(f == fracs[0] and hash(f) == hash(fracs[0]) for f in fracs)
    assert len(set(fracs)) == 1


def test_constant_denominators_never_reach_poly_gcd(monkeypatch):
    # a constant shares no factor with anything, and a zero sum is 0/1
    t, x = P("t"), P("x")
    r = CoeffFrac(t, t + x)
    calls = []
    # the gcd kernel, which poly_gcd and the cancelling of fractions share
    real = poly._gcd_cofactors

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(poly, "_gcd_cofactors", counted)
    a = CoeffFrac((t * x + P("p")).scale(Fraction(3, 2)))
    b = CoeffFrac(t - x.scale(2))
    c = CoeffFrac.const(Fraction(-5, 7))
    for got in (a * b, a * c, c * b, a + b, a + c, b - c):
        assert got.den == P_ONE
    assert calls == []
    for zero in (a + (-a), c + (-c), r + (-r)):
        assert zero == F_ZERO and zero.den == P_ONE
    assert calls == []


def _convolution(a: Poly, b: Poly) -> Poly:
    """a*b by the general rule: a's monomials outer, b's inner."""
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            powers = dict(m1)
            for name, e in m2:
                powers[name] = powers.get(name, 0) + e
            m = tuple(sorted(powers.items()))
            new = out.get(m, 0) + c1 * c2
            if new:
                out[m] = new
            else:
                out.pop(m, None)
    return Poly(out)


def _reference_product(a: CoeffFrac, b: CoeffFrac) -> CoeffFrac:
    """a*b by the general rule: cancel each cross pair, multiply by
    convolution, then take the product's denominator monic."""
    n1, d2 = poly._cancel(a.num, b.den)
    n2, d1 = poly._cancel(b.num, a.den)
    return CoeffFrac(_convolution(n1, n2), _convolution(d1, d2), reduce=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
@example(0)
def test_products_with_trivial_factors_match_the_general_rule(seed):
    # a constant or unit factor takes an early return in Poly.__mul__, on
    # its own and inside fraction products; each must give what the general
    # rule gives
    rng = random.Random(seed)
    c = random_fraction(rng)
    polys = [P_ZERO, P_ONE, Poly.const(c), random_poly(rng), random_poly(rng, max_monos=4)]
    for a in polys:
        for b in polys:
            got = a * b
            assert got == _convolution(a, b), (a, b)
            assert _int_when_integral(got)
        if not a.is_const():
            assert P_ONE * a is a and a * P_ONE is a
    t, p = P("t"), P("p")
    shared = random_poly(rng, gens=("t", "p"))
    if shared.is_zero():
        shared = t + Poly.const(2)
    fracs = [
        F_ZERO, poly.F_ONE, CoeffFrac.const(c), random_coeff(rng),
        random_coeff(rng, with_denominator=True), random_coeff(rng, with_denominator=True),
        # these two cancel against each other across the product
        CoeffFrac(random_poly(rng), (t + p.scale(2)) * shared),
        CoeffFrac(shared * random_poly(rng), t.scale(3) + Poly.const(1)),
        CoeffFrac(t + Poly.const(1), t.scale(2) + Poly.const(1)),
        CoeffFrac(t.scale(2) + Poly.const(1), t + Poly.const(1)),
    ]
    for a in fracs:
        for b in fracs:
            got = a * b
            if a.is_zero() or b.is_zero():
                assert got == F_ZERO and got.den == P_ONE
                continue
            want = _reference_product(a, b)
            assert got.num == want.num and got.den == want.den, (a, b)
            assert poly_gcd(got.num, got.den) == P_ONE
            assert got.den.lead_coeff() == 1
            assert got == CoeffFrac(a.num * b.num, a.den * b.den)


def test_cross_cancelled_product_is_renormalised():
    # (t+1)/(2t+1) is stored as (t/2+1/2)/(t+1/2); times its inverse, both
    # cross pairs cancel and leave 1/2 over 1/2, which must become 1/1
    t, one = P("t"), P_ONE
    a = CoeffFrac(t + one, t.scale(2) + one)
    b = CoeffFrac(t.scale(2) + one, t + one)
    assert a * b == poly.F_ONE and (a * b).den == P_ONE
    assert b * a == poly.F_ONE and (b * a).den == P_ONE
