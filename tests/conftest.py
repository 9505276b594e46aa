"""Shared random generators for the property suites.

Generators are deliberately small: a few terms, tiny rational coefficients,
shallow derivative indices, so thousand-case loops stay fast while still
covering the combinatorics of the term language.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from qcsym.expr import AffineExponent, Expr, FnAtom, Term
from qcsym.poly import CoeffFrac, Poly

FRACTIONS = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
]

FN_SPECS = [
    ("a", ("t", "x")),
    ("f", ("t", "x")),
    ("g", ("t", "x")),
    ("h", ("t", "x")),
    ("alpha", ("t",)),
    ("F", ("V",)),
    ("xi", ("t", "x", "V")),
]


def random_fraction(rng: random.Random) -> Fraction:
    return rng.choice(FRACTIONS)


def random_affine(rng: random.Random, allow_params: bool = True) -> AffineExponent:
    if allow_params and rng.random() < 0.6:
        return AffineExponent(
            cp=rng.choice((0, 0, 1, 2, -1)),
            ck=rng.choice((0, 0, 1, -1)),
            cn=0,
            c0=rng.choice((-2, -1, 0, 1, 2, 3)),
        )
    return AffineExponent.const(rng.choice((-2, -1, 0, 1, 2, 3)))


# rationals with denominators 1-3, the range of the sweep's exponents, so
# integral and non-integral coefficients mix
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
AFFINE_FORMS = st.builds(AffineExponent, RATIONALS, RATIONALS, RATIONALS, RATIONALS)


def random_poly(rng: random.Random, gens=("t", "x", "p"), max_monos: int = 2) -> Poly:
    out = Poly()
    for _ in range(rng.randint(1, max_monos)):
        mono = []
        for g in gens:
            e = rng.choice((0, 0, 0, 1, 1, 2))
            if e:
                mono.append((g, e))
        out = out + Poly({tuple(sorted(mono)): random_fraction(rng)})
    return out


def random_coeff(rng: random.Random, with_denominator: bool = False) -> CoeffFrac:
    num = random_poly(rng)
    if num.is_zero():
        num = Poly.const(1)
    if with_denominator and rng.random() < 0.3:
        den = random_poly(rng, gens=("t", "p"))
        if den.is_zero():
            den = Poly.const(1)
        return CoeffFrac(num, den)
    return CoeffFrac(num)


def random_atom(rng: random.Random) -> FnAtom:
    name, deps = rng.choice(FN_SPECS)
    dt = rng.choice((0, 0, 1)) if "t" in deps else 0
    dx = rng.choice((0, 0, 1, 2)) if "x" in deps else 0
    dV = rng.choice((0, 1)) if "V" in deps else 0
    if dt or dx or dV:
        power = rng.choice((1, 1, 2))
    else:
        power = rng.choice((1, 1, 2, -1))
    return FnAtom(name, dt, dx, dV, power)


def random_term(rng: random.Random, with_denominator: bool = False) -> Term:
    fns = tuple(random_atom(rng) for _ in range(rng.randint(0, 2)))
    merged: dict = {}
    for a in fns:
        merged[a.sort_key()] = a
    vpow = random_affine(rng) if rng.random() < 0.7 else AffineExponent.const(0)
    expc = (
        random_affine(rng)
        if rng.random() < 0.2
        else AffineExponent.const(0)
    )
    return Term(
        random_coeff(rng, with_denominator),
        vpow,
        expc,
        tuple(merged[k] for k in sorted(merged)),
    )


def random_expr(
    rng: random.Random, max_terms: int = 3, with_denominator: bool = False
) -> Expr:
    return Expr.from_terms(
        random_term(rng, with_denominator) for _ in range(rng.randint(0, max_terms))
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
