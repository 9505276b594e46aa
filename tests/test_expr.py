"""Canonical expression algebra, parser and printer."""
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcsym import parser
from qcsym.errors import ParseError, UnknownSymbolError
from qcsym.expr import AFF_ONE, AffineExponent, Expr, Term, expr_text
from qcsym.parser import MAX_POWER, WORK_BUDGET, parse, parse_affine
from qcsym.poly import F_ONE

from conftest import AFFINE_FORMS, RATIONALS, random_expr
import random


def test_parse_affine_power():
    e = parse("V^(2*p+3)")
    assert len(e.terms) == 1
    assert e.terms[0].vpow.key() == (2, 0, 0, 3)


def test_like_terms_merge():
    e = parse("a_t * V^p + a_t * V^p")
    assert len(e.terms) == 1
    assert e.terms[0].coeff.const_value() == 2


def test_cancellation_and_exponent_addition():
    assert parse("V^p + (-V^p)").is_zero()
    assert parse("V^k * V^(p+1)") == parse("V^(k+p+1)")
    assert parse("a * a^(-1)") == Expr.one()


def test_zero_prints_as_zero():
    assert expr_text(Expr.zero()) == "0"
    assert str(parse("0")) == "0"


def test_bare_symbol_prints_bare():
    assert str(parse("A")) == "A"


def test_eta_fixture_has_six_terms():
    text = (
        "-2/((p+2)*(p+3))*a^2*V^(p+3) - 2/((p+1)*(p+2))*a*f*V^(p+2)"
        " - 2/((k+1)*(k+2))*lambda*a*V^(k+2) + a_x*V^2 + g*V + h"
    )
    e = parse(text)
    assert len(e.terms) == 6
    keys = {t.vpow.key() for t in e.terms}
    assert keys == {
        (1, 0, 0, 3), (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 0, 2),
        (0, 0, 0, 1), (0, 0, 0, 0),
    }


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("V^(2*p+3) + $")
    assert err.value.position == 12
    with pytest.raises(UnknownSymbolError):
        parse("nosuchsymbol")
    with pytest.raises(ParseError):
        parse("a_t^(-1)")  # negative power on a derived atom
    with pytest.raises(ParseError):
        parse("(a+b")


# the message of a text that asks for more work than a parse may do
_SPENT = f"more work than the budget of {WORK_BUDGET} monomial products"


def test_integer_powers_are_capped():
    # the cap bounds the expansion work a short text can ask for; V takes
    # any power, because a power of V is one term whatever its exponent
    assert parse(f"a^{MAX_POWER}") == parse("a") ** MAX_POWER
    for text in (f"(a+f)^{MAX_POWER + 1}", f"a^(-{MAX_POWER + 1})", "9^9^9"):
        with pytest.raises(ParseError, match=f"cap of {MAX_POWER}"):
            parse(text)
    # a power of a capped power is refused by the work its expansion asks
    # for: (t+x+1)^32 has 561 monomials, and its square alone multiplies
    # 561 * 561 of them
    assert len(parse("(t+x+1)^32").terms[0].coeff.num.terms) == 561
    for text in ("((t+x+1)^32)^32", "((t+x+1)^(-32))^32", "((t+1)^32)^32",
                 "((t+1)^(-32))^32"):
        with pytest.raises(ParseError, match=_SPENT):
            parse(text)
    # powering multiplies a coefficient's digits, and the meter counts its
    # words: 9^32768 has 1624 of them, and its 32nd power would have 51,937
    # and prints past the 4300 digits str() takes; whatever a parse admits
    # reads back, since a product is charged what printing and reading back
    # its coefficients costs
    big = "(((9^32)^32)^32)"
    for text in (big, f"{big}*{big}", f"{big}*{big}*{big}",
                 "t/((9^32)^32)^32 + V^(((9^32)^32)^32*p - (9^32)^32)"):
        try:
            e = parse(text)
        except ParseError as exc:
            assert _SPENT in str(exc), text
            continue
        assert parse(str(e)) == e, text
    assert parse("((9^32)^32)^32") == Expr.const(9 ** 32768)
    with pytest.raises(ParseError, match=_SPENT):
        parse("(((9^32)^32)^32)^32")
    # a product of capped powers is charged the products it multiplies out:
    # 1024 * 3 of them pass, 969 * 969 do not, whether the divisor is a
    # negative power or not
    assert len(parse("(t+x)^31*(p+k)^31*(n+m+A)").terms[0].coeff.num.terms) == 3072
    with pytest.raises(ParseError, match=_SPENT):
        parse("(t+x+p+1)^16/(t+x+p+2)^(-16)")
    # a quotient by a positive power only puts 969 monomials over 969
    quotient = parse("(t+x+p+1)^16/(t+x+p+2)^16").terms[0].coeff
    assert (len(quotient.num.terms), len(quotient.den.terms)) == (969, 969)
    for text, sizes in (("(t+x)^7*(p+k)^7/n", (64, 1)), ("(t+x)^15*(p+k)^15/(n+1)", (256, 2)),
                        ("(t+x)^15*(p+k)^15 + 1/(n+1)", (513, 2)),
                        ("(x+m+3)^32/(x+m+p)^32", (561, 561)),
                        ("(t+x+p+k+n)^(-13)", (1, 2380)),
                        ("1/(t+x+p+1)^8/(t+x+p+2)^8", (1, 969))):
        coeff = parse(text).terms[0].coeff
        assert (len(coeff.num.terms), len(coeff.den.terms)) == sizes, text
    # multiplying two denominators of 993 monomials took 4 s
    with pytest.raises(ParseError, match=_SPENT):
        parse("((t+1)^(-32))^31*((t+2)^(-32))^31")
    assert parse("0^0") == parse("1")
    assert parse("V^99999") == Expr.vpower(AffineExponent.const(99999))


def test_sums_are_capped():
    # like terms a/b and c/d add to (a*d + c*b)/(b*d), so eight terms over
    # (t+x+p+i)^8 would grow past any budget; the third term already asks
    # for 969 * 165 products, and is refused before they are made
    text = "+".join(f"1/(t+x+p+{i})^8" for i in range(1, 9))
    start = time.perf_counter()
    with pytest.raises(ParseError, match=_SPENT):
        parse(text)
    assert time.perf_counter() - start < 1.0
    assert len(parse("1/(t+x+p+1)^8+1/(t+x+p+2)^8").terms[0].coeff.den.terms) == 969
    # over one denominator, and for unlike terms, a sum costs no products
    half = "(t+x)^31*(p+k)^31"
    assert len(parse(f"{half} - (t+x)^31*(n+m)^31").terms[0].coeff.num.terms) == 2048
    assert len(parse(f"{half} + V*(t+x)^31*(n+m)^31").terms) == 2
    assert len(parse(f"{half} - (t+x)^31*(n+m)^31 + 1").terms[0].coeff.num.terms) == 2049
    assert len(parse(f"{half} + V*(t+x)^31*(n+m)^31 + V").terms) == 2


# Texts whose last node cancels by a gcd or meets over different
# denominators. Each once ran for seconds to minutes.
_CANCELLING_TEXTS = [
    # like products meet over four different denominators
    "(1/(t+x+p+k+1)^2 + V/(t+x+p+k+2)^2 + V^2/(t+x+p+k+3)^2 + V^3/(t+x+p+k+4)^2)^2",
    # a quotient of 8 monomials by 8 that cancels to 32,768
    "(t^32-1)*(x^32-1)*(p^32-1)/((t-1)*(x-1)*(p-1))",
    "(t^32-1)*(x^32-1)*(p^32-1)*(k^32-1)/((t-1)*(x-1)*(p-1)*(k-1))",
    "(((((1)^(-8))/(f))/(((p)*(k))+((p)^16)))-((p)-(((p)*(2))^32)))^16",
    # the common denominator alone has 6545 monomials
    "1/(t+x+p+1)^16+1/(t+x+p+2)^16",
]


@pytest.mark.parametrize("text", _CANCELLING_TEXTS)
def test_cancelling_nodes_are_capped_by_degrees(text):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=_SPENT):
        parse(text)
    assert time.perf_counter() - start < 1.0


def test_a_refused_parse_leaves_the_meter_off():
    # only parse is metered: after a refusal, the work of (t+x+1)^40 outside
    # it is done in full
    with pytest.raises(ParseError, match=_SPENT):
        parse("((t+x+1)^32)^32")
    assert len((parse("(t+x+1)") ** 40).terms[0].coeff.num.terms) == 861


def _fixture_strings(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, (dict, list)):
        for item in doc.values() if isinstance(doc, dict) else doc:
            yield from _fixture_strings(item)


def test_no_fixture_text_meets_a_cap(monkeypatch):
    # constraints such as k!=0, names such as power and table dashes are
    # refused for what they are, but no text is refused for its work, not
    # even with a twentieth of the budget: the largest, source_case_b.txt,
    # asks for about 4000 monomial products
    fixtures = Path(parser.__file__).parent / "fixtures"
    texts = [path.read_text().strip() for path in fixtures.glob("*.txt")]
    for path in fixtures.glob("*.json"):
        texts.extend(_fixture_strings(json.loads(path.read_text())))
    assert len(texts) > 150
    monkeypatch.setattr(parser, "WORK_BUDGET", WORK_BUDGET // 20)
    parse.cache_clear()
    for text in texts:
        try:
            parse(text)
        except ParseError as exc:
            assert "budget" not in str(exc) and "cap of" not in str(exc), text
    parse.cache_clear()


def test_division_restricted():
    with pytest.raises(ParseError):
        parse("1/(a + f)")  # multi-term denominators are not invertible
    assert parse("1/a") == parse("a^(-1)")
    assert parse("V/(2*k*t+A1)") == parse("(2*k*t+A1)^(-1) * V")


def test_derivative_suffix_validation():
    with pytest.raises(ParseError):
        parse("alpha_x")  # alpha depends on t only
    with pytest.raises(ParseError):
        parse("F_t")  # F depends on V only
    e = parse("xi_xV")
    atom = e.terms[0].fns[0]
    assert (atom.dt, atom.dx, atom.dV) == (0, 1, 1)


def test_ring_axioms(rng):
    for _ in range(200):
        e1 = random_expr(rng)
        e2 = random_expr(rng)
        e3 = random_expr(rng)
        assert e1 + e2 == e2 + e1
        assert (e1 + e2) + e3 == e1 + (e2 + e3)
        assert e1 * e2 == e2 * e1
        assert (e1 * e2) * e3 == e1 * (e2 * e3)
        assert e1 * (e2 + e3) == e1 * e2 + e1 * e3
        assert (e1 - e1).is_zero()


def test_round_trip_random(rng):
    for _ in range(400):
        e = random_expr(rng, with_denominator=True)
        assert parse(str(e)) == e


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_hypothesis(seed):
    r = random.Random(seed)
    e = random_expr(r, max_terms=4, with_denominator=True)
    assert parse(str(e)) == e


def test_source_fixture_round_trip():
    from qcsym.classify import fixture_text

    e = parse(fixture_text("source_case_b.txt"))
    assert parse(str(e)) == e
    assert len({t.vpow.key() for t in e.terms}) == 15


def test_affine_text_round_trip():
    for text in ("2*p+3", "p-1", "k", "1/2*k-3/2", "-2", "0", "p+k+2"):
        a = parse_affine(text)
        assert parse_affine(str(a)) == a
    assert parse_affine("2p+3") == parse_affine("2*p+3")


def _fields(a: AffineExponent) -> tuple:
    return (a.cp, a.ck, a.cn, a.c0)


@settings(max_examples=300, deadline=None)
@given(AFFINE_FORMS, AFFINE_FORMS, st.lists(AFFINE_FORMS, max_size=8))
def test_exponent_key_is_canonical(a, b, forms):
    for entry, value in zip(a.key(), _fields(a)):
        assert (type(entry) is int) == (value.denominator == 1)
        assert entry == value
    assert (a == b) == (a.key() == b.key())
    same = a.scale(3).scale(Fraction(1, 3)) + AffineExponent()
    assert same == a and same.key() == a.key()
    assert hash(same) == hash(a) == hash(a.key()) == hash(_fields(a))
    assert sorted(forms, key=AffineExponent.key) == sorted(forms, key=_fields)


def _int_when_integral(a: AffineExponent) -> bool:
    return all(type(c) is int if c.denominator == 1
               else type(c) is Fraction and c.denominator > 1 for c in _fields(a))


def _proportional(fa, fb) -> bool:
    """fa = r*fb for a nonzero rational r, by Fraction division."""
    pivot = next((j for j, y in enumerate(fb) if y), None)
    if pivot is None:
        return False
    r = fa[pivot] / fb[pivot]
    return r != 0 and all(x == r * y for x, y in zip(fa, fb))


_BARE_FIELDS = {(1, 0, 0, 0): "p", (0, 1, 0, 0): "k", (0, 0, 1, 0): "n"}


@settings(max_examples=300, deadline=None)
@given(AFFINE_FORMS, AFFINE_FORMS | st.sampled_from([parse_affine(n) for n in "pkn"]),
       RATIONALS, st.sampled_from("pkn"))
def test_integral_exponent_coefficients_are_ints(a, b, s, name):
    # every result against the same computation on Fraction tuples
    fa, fb = (tuple(Fraction(c) for c in _fields(x)) for x in (a, b))
    expected = [
        (a + b, [x + y for x, y in zip(fa, fb)]),
        (a + AffineExponent(), fa),
        (AffineExponent() + a, fa),
        (a - b, [x - y for x, y in zip(fa, fb)]),
        (-a, [-x for x in fa]),
        (a.scale(s), [x * s for x in fa]),
        (AffineExponent.from_poly(a.to_poly()), fa),
        (parse_affine(str(a)), fa),
    ]
    i = "pkn".index(name)
    c = fa[i]
    rest = [Fraction(0) if j == i else x for j, x in enumerate(fa)]
    if c:
        expected.append((a.solve_for(name), [-x / c for x in rest]))
        expected.append((a.subst(name, b), [x + c * y for x, y in zip(rest, fb)]))
    else:
        assert a.solve_for(name) is None and a.subst(name, b) is a
    for got, want in expected:
        assert _int_when_integral(got), got
        assert _fields(got) == tuple(want)
    # a form built from int fields is the form built from Fraction fields
    for x, fx in ((a, fa), (b, fb)):
        built = AffineExponent(*fx)
        assert _fields(built) == _fields(x) and _int_when_integral(built)
        assert built.key() == x.key() == fx and hash(built) == hash(x) == hash(fx)
        assert built.parameter() == x.parameter() == _BARE_FIELDS.get(fx)
    assert a.proportional_to(b) == AffineExponent(*fa).proportional_to(AffineExponent(*fb))
    assert a.proportional_to(b) == _proportional(fa, fb)


def test_integral_sum_of_halves_merges_with_integer_power():
    half = AffineExponent.const(Fraction(1, 2))
    e = Expr.from_terms([Term(F_ONE, vpow=half + half), Term(F_ONE, vpow=AFF_ONE)])
    assert len(e.terms) == 1
    assert e.terms[0].coeff.const_value() == 2
    assert str(e) == "2*V"


def _pow_from_one(e: Expr, n: int) -> Expr:
    """The power as the product that starts from one, the reference for __pow__."""
    if n < 0:
        return _pow_from_one(e.invert(), -n)
    out = Expr.one()
    for _ in range(n):
        out = out * e
    return out


def test_power_is_the_product_from_one():
    rng = random.Random(7)
    for _ in range(150):
        e = random_expr(rng, with_denominator=True)
        for n in (0, 1, 2, 3):
            assert e ** n == _pow_from_one(e, n)
        single = Expr(e.terms[:1])
        if single.terms and not any(a.is_derived() for a in single.terms[0].fns):
            for n in (-1, -2, -3):
                assert single ** n == _pow_from_one(single, n)
        assert e ** 1 is e
    assert Expr.zero() ** 0 == Expr.one()
    assert Expr.zero() ** 2 == Expr.zero()
