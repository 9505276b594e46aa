"""Differentiation, substitution, collection, splitting and the Euler ODE solver."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbiguousGradingError,
    DivisionError,
    ResonanceError,
    TermLanguageError,
)
from .expr import (
    AFF_ONE,
    AFF_ZERO,
    EXPONENT_PARAMS,
    PARAMETERS,
    AffineExponent,
    CoeffFrac,
    Expr,
    FnAtom,
    Term,
    affine_text,
    merge_fns,
)
from .parser import function_atom, parse_affine
from .poly import F_ONE, P_ONE, Poly

# ---------------------------------------------------------------------------
# differentiation


def _atom_deriv(a: FnAtom, var: str) -> FnAtom | None:
    if var not in a.deps:
        return None
    return FnAtom(
        a.name,
        a.dt + (var == "t"),
        a.dx + (var == "x"),
        a.dV + (var == "V"),
        1,
    )


def diff(e: Expr, var: str) -> Expr:
    """Partial derivative with respect to t, x or V (linear, product rule)."""
    if var not in ("t", "x", "V"):
        raise ValueError(f"cannot differentiate in {var!r}")
    out = []
    for t in e.terms:
        if var == "V":
            if not t.vpow.is_zero():
                c = CoeffFrac(t.vpow.to_poly())
                out.append(
                    Term(
                        t.coeff * c,
                        t.vpow + AffineExponent.const(-1),
                        t.expc,
                        t.fns,
                    )
                )
            if not t.expc.is_zero():
                c = CoeffFrac(t.expc.to_poly())
                out.append(Term(t.coeff * c, t.vpow, t.expc, t.fns))
        else:
            dc = t.coeff.deriv(var)
            if not dc.is_zero():
                out.append(Term(dc, t.vpow, t.expc, t.fns))
        for i, a in enumerate(t.fns):
            da = _atom_deriv(a, var)
            if da is None:
                continue
            rest = list(t.fns)
            if a.power == 1:
                del rest[i]
            else:
                rest[i] = FnAtom(a.name, a.dt, a.dx, a.dV, a.power - 1)
            coeff = t.coeff * CoeffFrac.const(a.power)
            new_fns = merge_fns(tuple(rest), (da,))
            out.append(Term(coeff, t.vpow, t.expc, new_fns))
    return Expr.from_terms(out)


# ---------------------------------------------------------------------------
# substitution


def _binding_atom(key: str) -> FnAtom | None:
    """The function atom a binding key names ('f', 'f_x'); None for a parameter.

    A key is read by the parser's identifier rule, so a key that names no
    parameter, no function or a derivative its function does not have is a
    ValueError naming the key.
    """
    if key in PARAMETERS:
        return None
    try:
        atom = function_atom(key)
    except ValueError as exc:
        raise ValueError(f"bad binding key {key!r}: {exc}") from None
    if atom is None:
        raise ValueError(
            f"binding key {key!r} names no parameter, function or derivative"
        )
    return atom


def _coerce_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Expr.const(Fraction(value))


def substitute(e, bindings: dict):
    """Substitute function atoms and parameter symbols into one Expr, or into
    each Expr of a sequence (returning a list).

    Keys are parameter names, function names, or derivative keys such as
    'f_x'.  A function takes one key: a bare name rewrites every atom of
    the function, a derivative key every atom carrying at least its
    indices, and the function's other atoms stay; a second key for the
    same function is a ValueError, as is a key that names none of these.
    Each distinct atom is replaced once per call, across all expressions
    given, by its binding differentiated up to the atom's indices and
    raised (or inverted) to its power; each derivative of a binding is
    taken once.  Function bindings are applied first, then parameter
    bindings are substituted through the whole result, so numeric
    instantiations see concrete functions.
    """
    exprs = [e] if isinstance(e, Expr) else list(e)
    fn_bindings: dict = {}
    param_bindings: dict = {}
    for key, value in bindings.items():
        atom = _binding_atom(str(key))
        if atom is None:
            param_bindings[str(key)] = value
        elif atom.name in fn_bindings:
            raise ValueError(f"function {atom.name!r} is bound twice")
        else:
            fn_bindings[atom.name] = ((atom.dt, atom.dx, atom.dV), _coerce_expr(value))
    if fn_bindings:
        replaced: dict = {}
        derived: dict = {}
        exprs = [_substitute_fns(x, fn_bindings, replaced, derived) for x in exprs]
    if param_bindings:
        affine = {name: _coerce_affine(value) for name, value in param_bindings.items()}
        exprs = [_substitute_params(x, affine) for x in exprs]
    return exprs[0] if isinstance(e, Expr) else exprs


def _substitute_fns(e: Expr, bindings: dict, replaced: dict, derived: dict) -> Expr:
    out = []
    for t in e.terms:
        product = Expr((Term(t.coeff, t.vpow, t.expc, ()),))
        for a in t.fns:
            rep = replaced.get(a)
            if rep is None:
                rep = replaced[a] = _replace_atom(a, bindings.get(a.name), derived)
            # a vanishing factor, such as xi_V of a V-free xi, empties the
            # product, which then takes no more factors; every atom is
            # still replaced
            if product.terms:
                product = product * rep if rep.terms else rep
        out.extend(product.terms)
    return Expr.from_terms(out)


def _replace_atom(a: FnAtom, binding, derived: dict) -> Expr:
    """The atom with its function's binding, or the atom itself when unbound."""
    indices = (a.dt, a.dx, a.dV)
    if binding is None or any(i < b for i, b in zip(indices, binding[0])):
        return Expr.atom(a)
    rep = _derivative(a.name, indices, binding, derived)
    try:
        return rep ** a.power
    except DivisionError as exc:
        raise DivisionError(
            f"substitution makes {a.base_text()}^({a.power}) "
            f"non-invertible: {exc}"
        ) from None


def _derivative(name: str, indices: tuple, binding, derived: dict) -> Expr:
    """The binding differentiated up to indices, taken once per memo: from its
    parent on the path that differentiates in t, then x, then V."""
    rep = derived.get((name, indices))
    if rep is None:
        orders, rep = binding
        for k in (2, 1, 0):
            if indices[k] > orders[k]:
                parent = indices[:k] + (indices[k] - 1,) + indices[k + 1:]
                rep = diff(_derivative(name, parent, binding, derived), "txV"[k])
                break
        derived[(name, indices)] = rep
    return rep


def _substitute_params(e: Expr, bindings: dict) -> Expr:
    out = []
    for t in e.terms:
        coeff, vpow, expc = t.coeff, t.vpow, t.expc
        for name, (aff, poly) in bindings.items():
            if name in coeff.gens():
                coeff = coeff.subst(name, poly)
            if name in EXPONENT_PARAMS:
                vpow = vpow.subst(name, aff)
                expc = expc.subst(name, aff)
        out.append(Term(coeff, vpow, expc, t.fns))
    return Expr.from_terms(out)


def _coerce_affine(value) -> tuple:
    """Return (affine form, polynomial form) for a parameter binding value."""
    if isinstance(value, AffineExponent):
        return value, value.to_poly()
    return AffineExponent.const(Fraction(value)), Poly.const(Fraction(value))


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True, slots=True)
class Constraint:
    """An affine relation lhs = rhs, either asserted or excluded."""

    lhs: AffineExponent
    rhs: AffineExponent
    kind: str  # "equal" | "forbidden"

    def form(self) -> AffineExponent:
        return self.lhs - self.rhs

    @staticmethod
    def parse(text: str, kind: str = "equal") -> "Constraint":
        if "!=" in text:
            lhs, _, rhs = text.partition("!=")
            kind = "forbidden"
        else:
            lhs, eq, rhs = text.partition("=")
            if not eq:
                raise ValueError(f"relation {text!r} needs '=' or '!='")
        return Constraint(parse_affine(lhs), parse_affine(rhs), kind)

    def solved_for(self) -> tuple:
        """Return (name, affine value) for a single-variable relation.

        A bare-variable left side keeps its orientation; otherwise the
        relation is solved for k, then p, then n.
        """
        name = self.lhs.parameter()
        if name and not self.rhs.coeff_of(name):
            return name, self.rhs
        form = self.form()
        for name in ("k", "p", "n"):
            value = form.solve_for(name)
            if value is not None:
                return name, value
        raise ValueError("constraint involves no exponent parameter")

    def __str__(self) -> str:
        op = "=" if self.kind == "equal" else "!="
        name, value = self.solved_for()
        return f"{name}{op}{affine_text(value)}"


def _apply_equalities(form: AffineExponent, assumptions) -> AffineExponent:
    """The form with every equality among the assumptions substituted in."""
    for c in assumptions:
        if c.kind == "equal":
            name, value = c.solved_for()
            form = form.subst(name, value)
    return form


def excluded_by(form: AffineExponent, assumptions) -> bool:
    """True when the relation form = 0 is ruled out by the assumptions.

    The one test of exclusion: the equalities are substituted into the form
    and into every forbidden relation; the relation is ruled out when what
    is left is a nonzero constant or a multiple of a forbidden one.
    """
    reduced = _apply_equalities(form, assumptions)
    if reduced.is_zero():
        return False
    if reduced.is_const():
        return True
    return any(
        c.kind == "forbidden"
        and reduced.proportional_to(_apply_equalities(c.form(), assumptions))
        for c in assumptions
    )


# ---------------------------------------------------------------------------
# collection and splitting


def collect(e: Expr) -> dict:
    """Group terms by grading key; coefficients are free of V.

    A key is a unit-coefficient Term: the V-power, the exponential and the
    V-dependent atoms of the terms it groups.  Returns an ordered mapping
    (descending key signature); summing coefficient * key over all entries
    rebuilds e.
    """
    groups: dict = {}
    for t in e.terms:
        vdep = tuple(a for a in t.fns if "V" in a.deps)
        rest = tuple(a for a in t.fns if "V" not in a.deps)
        key = Term(F_ONE, t.vpow, t.expc, vdep)
        coeff_term = Term(t.coeff, AFF_ZERO, AFF_ZERO, rest)
        groups.setdefault(key, []).append(coeff_term)
    ordered = sorted(groups, key=lambda k: k.signature, reverse=True)
    return {k: Expr.from_terms(groups[k]) for k in ordered}


def _keys_distinct(k1: Term, k2: Term, assumptions) -> bool:
    # the keys coincide only where both exponent differences vanish
    return (
        k1.fns != k2.fns
        or excluded_by(k1.expc - k2.expc, assumptions)
        or excluded_by(k1.vpow - k2.vpow, assumptions)
    )


@dataclass(frozen=True)
class EquationSystem:
    """Ordered equations (each required to vanish identically) with their
    grading: collect keys for a split, ``Vx^d`` labels for a determining
    system."""

    equations: tuple
    grading: tuple

    def __len__(self) -> int:
        return len(self.equations)

    def to_json(self) -> dict:
        return {
            "grading": [str(k) for k in self.grading],
            "equations": [str(eq) for eq in self.equations],
        }


def split(e: Expr, assumptions=()) -> EquationSystem:
    """Split an identity into one equation per grading key.

    Refuses (AmbiguousGradingError) when two keys cannot be proven distinct
    from the assumptions; silent splitting would hide degenerate cases.
    """
    groups = collect(e)
    keys = list(groups)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            if not _keys_distinct(k1, k2, assumptions):
                raise AmbiguousGradingError(str(k1), str(k2))
    return EquationSystem(
        equations=tuple(groups[k] for k in keys),
        grading=tuple(keys),
    )


def collect_in(e: Expr, gen: str) -> dict:
    """Collect by the power of a coefficient generator (t, x, or Vx while a
    determining system is derived).

    Denominators must be free of the generator.  Returns degree -> Expr with
    generator-free coefficients, in descending degree order.
    """
    groups: dict = {}
    for t in e.terms:
        if gen in t.coeff.den.gens():
            raise TermLanguageError(
                f"cannot collect in {gen}: denominator depends on it"
            )
        for d, c in t.coeff.num.coeffs_in(gen).items():
            coeff = CoeffFrac(c, t.coeff.den)
            groups.setdefault(d, []).append(Term(coeff, t.vpow, t.expc, t.fns))
    return {
        d: Expr.from_terms(groups[d]) for d in sorted(groups, reverse=True)
    }


# ---------------------------------------------------------------------------
# integration in V and the first-order Euler-type ODE solver


def integrate_v(e: Expr, assumptions=()) -> Expr:
    """Antiderivative in V, without a constant, of a sum of pure V-power terms.

    Each term c*V^e becomes c/(e + 1)*V^(e+1).  A shift e + 1 that the
    assumptions do not rule out as zero is a ResonanceError; exponential or
    V-dependent function atoms are a TermLanguageError.
    """
    out = []
    for t in e.terms:
        if not t.expc.is_zero() or any("V" in a.deps for a in t.fns):
            raise TermLanguageError(
                "can integrate in V only a sum of pure V-power terms"
            )
        shift = t.vpow + AFF_ONE
        if not excluded_by(shift, assumptions):
            raise ResonanceError(
                f"resonant power V^({t.vpow}): the assumptions do not exclude {shift} = 0"
            )
        inv = CoeffFrac(P_ONE, shift.to_poly())
        out.append(Term(t.coeff * inv, shift, AFF_ZERO, t.fns))
    return Expr.from_terms(out)


def euler_ode_solve(s: AffineExponent, rhs: Expr, assumptions=()) -> Expr:
    """Solve F_V - (s/V) F = rhs for rhs a sum of pure V-power terms.

    Through the integrating factor V^(-s) the general solution is
    V^s * (lambda1 + integral of V^(-s) rhs dV); a right-hand-side power e
    with e + 1 = s not excluded by the assumptions is a ResonanceError.
    """
    particular = integrate_v(Expr.vpower(-s) * rhs, assumptions)
    return Expr.vpower(s) * (Expr.generator("lambda1") + particular)


# ---------------------------------------------------------------------------
# equation-level helpers


def eq_normalize(e: Expr) -> Expr:
    """Scale an equation so its leading canonical term has coefficient 1."""
    if e.is_zero():
        return e
    return e.scale(e.lead().coeff.inverse())


def equal_up_to_unit(e1: Expr, e2: Expr) -> bool:
    """True when e1 = u * e2 for a nonzero coefficient-field unit u."""
    return eq_normalize(e1) == eq_normalize(e2)


def solve_linear_for(e: Expr, atom_key: str) -> Expr:
    """Solve e = 0 for an atom (given as a name or derivative key like 'f_x').

    The atom must appear linearly; its total coefficient must be an
    invertible single-term expression.  Returns the solved value.
    """
    atom = _binding_atom(atom_key)
    if atom is None:
        raise ValueError(f"{atom_key!r} names a parameter, not a function atom")
    target = atom.sort_key()
    with_atom = []
    rest = []
    for t in e.terms:
        hits = [a for a in t.fns if a.sort_key() == target]
        if not hits:
            rest.append(t)
            continue
        if len(hits) != 1 or hits[0].power != 1:
            raise TermLanguageError(f"{atom_key} does not appear linearly")
        others = tuple(a for a in t.fns if a.sort_key() != target)
        with_atom.append(Term(t.coeff, t.vpow, t.expc, others))
    if not with_atom:
        raise TermLanguageError(f"{atom_key} does not appear in the equation")
    # rest and the coefficient lack the atom, and inverting keeps it out
    return -(Expr.from_terms(rest) / Expr.from_terms(with_atom))
