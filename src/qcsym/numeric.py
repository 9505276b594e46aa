"""Concrete-instance verification: pointwise residuals, a finite-difference
solver for the evolution equation, one-parameter group flows, and the
power/log change of state variable.

The symbolic layer does the exact substitution work; this module turns the
results into floating-point evaluations on lattices.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .calculus import substitute
from .determining import SymOperator, check_operator
from .errors import EvalPoleError, InstabilityError, NumericError, PositivityError, UnboundFunctionError
from .expr import Expr
from .instance import MAX_CELLS, Instance
from .poly import grlex_key

_POLE_FLOOR = 1e-300
_BLOCK = 1024  # sample points drawn and evaluated at once, bounding the memory


@dataclass
class Field:
    """Samples of V on a uniform (t, x) lattice."""

    t0: float
    dt: float
    x0: float
    dx: float
    values: np.ndarray  # shape (nt, nx), row index is time

    @property
    def nt(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def copy(self) -> "Field":
        return Field(self.t0, self.dt, self.x0, self.dx, self.values.copy())

    def to_csv(self) -> str:
        """The field as ``t,x,V`` rows, time-major, every number in ``.17g``.

        A ``.17g`` number holds no comma, quote, newline or ``%``, so no
        cell needs CSV quoting and each time row is one ``%`` operation
        (``%.17g`` prints the bytes ``format(v, ".17g")`` does); each of
        the nt times and nx positions is formatted once.
        """
        # the leading empty cell puts the time before the first position too
        cells = ["", *(format(x, ".17g") + ",%.17g\n" for x in self.xs().tolist())]
        blocks = ["t,x,V\n"]
        for t, row in zip(self.times().tolist(), self.values.tolist()):
            blocks.append((format(t, ".17g") + ",").join(cells) % tuple(row))
        return "".join(blocks)

    @staticmethod
    def from_csv(text: str) -> "Field":
        """Read a field written by ``to_csv``; rows may come in any order.

        Every row holds three numbers and the rows cover each cell of the
        t x x lattice exactly once; anything else is a ``ValueError``.
        """
        lines = text.splitlines()
        if len(lines) < 2 or lines[0] != "t,x,V":
            raise ValueError("a field CSV needs the header t,x,V and at least one row")
        try:
            # blank lines are skipped here and caught by the row count below
            rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"a field CSV row needs three numbers t,x,V: {exc}") from None
        if rows.shape != (len(lines) - 1, 3):
            raise ValueError("a field CSV row needs three numbers t,x,V")
        ts, ti = np.unique(rows[:, 0], return_inverse=True)
        xs, xi = np.unique(rows[:, 1], return_inverse=True)
        cell = ti * len(xs) + xi
        count = np.bincount(cell, minlength=len(ts) * len(xs))
        bad = np.flatnonzero(count != 1)
        if bad.size:
            what = "duplicate" if count[bad[0]] else "missing"
            i, j = divmod(int(bad[0]), len(xs))
            raise ValueError(
                f"a field CSV has a {what} cell at t={float(ts[i])!r}, x={float(xs[j])!r}"
            )
        values = np.empty(len(ts) * len(xs))
        values[cell] = rows[:, 2]
        t0, t1, x0, x1 = float(ts[0]), float(ts[-1]), float(xs[0]), float(xs[-1])
        return Field(
            t0, (t1 - t0) / max(len(ts) - 1, 1),
            x0, (x1 - x0) / max(len(xs) - 1, 1),
            values.reshape(len(ts), len(xs)),
        )


# ---------------------------------------------------------------------------
# evaluation of substituted expressions


def _poly_value(monomials: list, t, x):
    """The sum of c * t**i * x**j over (c, i, j), from 0.0 in the given order."""
    total = 0.0
    for c, i, j in monomials:
        total = total + c * t**i * x**j
    return total


def _compile(e: Expr):
    """Compile a fully substituted expression to a numpy function of (t, x, V).

    The expression may contain only coefficient polynomials in t and x,
    constant V powers and constant exponential slopes. ``evaluate(t, x, V,
    out, work)`` takes arrays or scalars, and two arrays of the values'
    shape (0-d for scalars); it writes the values into ``out`` and returns
    (out, pole). pole marks the points where a denominator that is not
    constant lies below ``_POLE_FLOOR``, and is False when every denominator
    is constant. ``evaluate.calls`` returns, for the same arguments, the
    ``(function, arguments)`` list that ``evaluate`` runs, and pole; for a
    t,x-free expression the list can run again on new values of V.

    The float order is decided here: each coefficient's numerator and
    denominator are summed from 0.0 in the order ``poly_text`` prints them
    (descending graded lex over t, x), whatever order the Poly stores; each
    term is ``n / d * V**a * exp(b*V)`` in that order, and the terms are
    summed from 0.0 in their order. A coefficient free of t and x is folded
    here to one float. The first term that varies is built in ``out``, each
    later one in ``work``.
    """
    order = grlex_key(("t", "x"))
    compiled = []
    for term in e.terms:
        if term.fns:
            raise UnboundFunctionError(
                f"unbound function atom {term.fns[0].base_text()}"
            )
        if not term.vpow.is_const() or not term.expc.is_const():
            raise UnboundFunctionError(
                "exponents still carry parameters; bind p, k, n first"
            )
        extra = term.coeff.gens() - {"t", "x"}
        if extra:
            raise UnboundFunctionError(f"unbound symbols {sorted(extra)}")
        num, den = (
            [(float(poly.terms[m]), dict(m).get("t", 0), dict(m).get("x", 0))
             for m in sorted(poly.terms, key=order, reverse=True)]
            for poly in (term.coeff.num, term.coeff.den)
        )
        folded = None
        if not term.coeff.gens():
            folded = _poly_value(num, 0.0, 0.0) / _poly_value(den, 0.0, 0.0)
        compiled.append(
            (folded, num, den, not term.coeff.den.is_const(),
             float(term.vpow.c0), float(term.expc.c0))
        )

    def calls(t, x, V, out, work):
        steps, total, pole = [], 0.0, False
        for value, num, den, den_varies, a, b in compiled:
            if value is None:
                d = _poly_value(den, t, x)
                if den_varies:
                    pole = pole | (np.abs(d) < _POLE_FLOOR)
                value = _poly_value(num, t, x) / d
            buf = work if total is out else out
            if a:
                power = _power(steps, V, a, buf)
                steps.append((np.multiply, (value, power, buf)))
                value = buf
            if b:
                exp = np.empty_like(buf)
                steps += [(np.multiply, (b, V, exp)), (np.exp, (exp, exp)),
                          (np.multiply, (value, exp, buf))]
                value = buf
            if isinstance(value, float) and total is not out:
                total = total + value
            else:
                steps.append((np.add, (total, value, out)))
                total = out
        if total is not out:  # no term varies
            steps.append((np.copyto, (out, total)))
        return steps, pole

    def evaluate(t, x, V, out, work):
        steps, pole = calls(t, x, V, out, work)
        _run(steps)
        return out, pole

    evaluate.calls = calls
    return evaluate


def _run(calls: list) -> None:
    for fn, args in calls:
        fn(*args)


def _power(calls: list, v, e: float, out):
    """Append to ``calls`` the calls that leave ``v**e`` in ``out`` and
    return ``out``, or return ``v`` itself at e = 1; e is a float other than
    0. ``v**e`` calls ``np.power`` except where numpy's ``**`` hands e = 1/2,
    and in some versions 2 and -1, to sqrt, square and reciprocal; there a
    copy and the in-place ``**=`` take the same path, so the bits match
    ``v**e`` on any CPU."""
    if e == 1:
        return v
    if e in (0.5, 2, -1):
        calls += [(np.copyto, (out, v)), (operator.ipow, (out, e))]
    else:
        calls.append((np.power, (v, e, out)))
    return out


def sample_residuals(inst: Instance, op: SymOperator, N: int, seed: int) -> float:
    """Max absolute determining-equation residual over N seeded sample points,
    N from 1 to ``MAX_CELLS``.

    Points are drawn uniformly from [0.1, 2]^3, a box clear of the V = 0
    and 2kt + A1 = 0 poles, at most ``_BLOCK`` at a time. A point where a
    denominator lies below ``_POLE_FLOOR`` is rejected; at most 10*N points
    are drawn. For an operator the instance admits, such as its true one,
    the substituted equations are identically zero and the residual is 0.0,
    returned before any point is drawn; only an operator it does not admit,
    such as the perturbed one of the ``sampled-residuals`` step, exercises
    the evaluation. That step's detail stays as it is: the replay digests
    pin it.
    """
    if N < 1:
        raise ValueError("need at least one sample point")
    if N > MAX_CELLS:
        raise ValueError(f"at most {MAX_CELLS} sample points are allowed: {N}")
    equations = check_operator(inst.equation(), op)
    compiled = [_compile(e) for e in equations]  # refuses unbound atoms first
    if not any(e.terms for e in equations):
        return 0.0
    rng = np.random.default_rng(seed)
    *rows, work = np.empty((len(compiled) + 1, min(N, _BLOCK)))
    worst = 0.0
    produced = 0
    attempts = 0
    while produced < N:
        if attempts >= 10 * N:
            raise EvalPoleError("too many pole rejections while sampling")
        # no more points than still wanted: the ones a point-by-point draw evaluates
        m = min(N - produced, 10 * N - attempts, _BLOCK)
        t, x, V = rng.uniform(0.1, 2.0, size=(m, 3)).T
        attempts += m
        try:
            with np.errstate(over="raise", divide="ignore", invalid="ignore"):
                results = [fn(t, x, V, row[:m], work[:m]) for fn, row in zip(compiled, rows)]
        except FloatingPointError:
            raise NumericError("a sampled residual is outside the float range") from None
        keep = ~np.logical_or.reduce([np.broadcast_to(pole, m) for _, pole in results])
        produced += int(np.count_nonzero(keep))
        for values, _ in results:
            worst = np.max(np.abs(values)[keep], initial=worst)
    return float(worst)


# ---------------------------------------------------------------------------
# finite-difference solver


def _source(inst: Instance):
    """The instance's source bound to its parameters: the compiled function
    and the V powers of its terms. It does not depend on t or x, so callers
    build its calls with ``F.calls(0.0, 0.0, V, out, work)[0]``."""
    bound = substitute(inst.F, inst.param_bindings())
    if any(term.coeff.gens() & {"t", "x"} for term in bound.terms):
        raise UnboundFunctionError("source term must be a concrete function of V")
    return _compile(bound), [term.vpow.c0 for term in bound.terms]


def _needs_positive(e) -> bool:
    """True when the power V**e is real and finite only for V > 0."""
    return e < 0 or e != int(e)


def initial_row(inst: Instance) -> np.ndarray:
    """The initial row ``inst.initial`` describes on the grid's nx points; a
    NumericError refuses a row that is not finite. A Gaussian exponent that
    overflows to -inf gives its limit 0."""
    g, desc = inst.grid, inst.initial
    xs = np.linspace(g.x0, g.x1, g.nx)
    with np.errstate(over="ignore"):
        if desc["type"] == "constant":
            row = np.full_like(xs, desc["value"])
        elif desc["type"] == "linear":
            row = desc["slope"] * xs + desc["offset"]
        else:
            row = desc["amplitude"] * np.exp(-(((xs - desc["center"]) / desc["width"]) ** 2))
    if not np.isfinite(row).all():
        raise NumericError("instance entry 'initial' gives a row outside the float range")
    return row


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve_pde(
    inst: Instance,
    initial: np.ndarray,
    steps: int,
    boundary=None,
) -> Field:
    """Method-of-lines integration of V_t = (V_xx + lam V^k V_x - F(V)) / V^p.

    Second-order central differences in x, classical fourth-order
    Runge-Kutta in t, Dirichlet boundaries held at the initial end values
    unless a boundary callable t -> (left, right) is supplied. A row that
    is not positive stops it when a power of V it takes (p, k or one in F)
    is negative or not an integer, as does a nan from a stage that left
    V > 0. numpy's float warnings are off: a step that leaves the float
    range gives a row the magnitude check refuses. Each stage runs a list
    of ufunc calls built once, over buffers allocated once.
    """
    g = inst.grid
    dx = g.dx
    p = float(inst.p)
    k = float(inst.k)
    lam = float(inst.lam)
    F, source_powers = _source(inst)
    needs_positive = any(_needs_positive(e) for e in (inst.p, inst.k, *source_powers))
    row = np.asarray(initial, dtype=float)
    if row.shape != (g.nx,):
        raise ValueError(f"initial row must have {g.nx} points")

    magnitude = np.empty(g.nx)

    def check_row(r: np.ndarray, before=None, time=None):
        # a nan replays the step from ``before`` at ``time`` to name its cause
        if needs_positive and (r <= 0).any():
            raise PositivityError("V must stay positive for this instance")
        # a nan, or an infinity, fails the comparison as well
        if not np.abs(r, out=magnitude).max() <= 1e6:
            if needs_positive and before is not None and np.isnan(r).any():
                np.copyto(base, before)
                if advance(time, watch=True):
                    raise PositivityError(
                        "a Runge-Kutta stage left V > 0, the domain of this "
                        "instance's powers of V, so the new row holds a nan"
                    )
            raise InstabilityError("solution magnitude exceeded 1e6")

    def stability_bound(r: np.ndarray) -> float:
        vp = r**p if p else np.ones_like(r)
        return 0.4 * dx * dx * float(np.min(vp))

    # every buffer is allocated once; a stage writes only the interior of
    # its k, so the k's keep their zero ends. ``base`` holds the row a step
    # starts from, then the row it ends at
    base, stage = np.empty((2, g.nx))
    k1, k2, k3, k4 = np.zeros((4, g.nx))
    vxx, vx, conv, vp, source, work = np.empty((6, g.nx - 2))
    dx2, two_dx = dx * dx, 2 * dx
    half, sixth = g.dt / 2, g.dt / 6

    def rhs(r: np.ndarray, kk: np.ndarray) -> list:
        """The calls for kk = (((hi - 2*mid) + lo)/dx^2 + (lam*mid^k)*vx -
        F(mid)) / mid^p on the interior, cell by cell in that order, where
        lo, mid, hi is the stencil of r and vx = (hi - lo)/(2*dx); what
        ``_drift`` skips, an F without terms and division by mid^0 are
        skipped, since each leaves every bit as it is."""
        lo, mid, hi, inner = r[:-2], r[1:-1], r[2:], kk[1:-1]
        calls = [
            (np.multiply, (mid, 2, vxx)), (np.subtract, (hi, vxx, vxx)),
            (np.add, (vxx, lo, vxx)), (np.divide, (vxx, dx2, vxx)),
            (np.subtract, (hi, lo, vx)), (np.divide, (vx, two_dx, vx)),
        ]
        drift = _drift(calls, mid, vx, k, lam, conv)
        calls.append((np.add, (vxx, drift, inner)))
        if source_powers:
            calls += F.calls(0.0, 0.0, mid, source, work)[0]
            calls.append((np.subtract, (inner, source, inner)))
        if p:
            power = _power(calls, mid, p, vp)
            calls.append((np.divide, (inner, power, inner)))
        return calls

    # stage 1 reads base and the others read stage; the first three end
    # with stage = base + scale*kk, the boundary values aside, and the last
    # with base + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4), summed in that order in k2
    stages = [(_held(rhs(r, kk) + [(np.multiply, (kk, scale, stage)),
                                   (np.add, (stage, base, stage))]), scale)
              for r, kk, scale in ((base, k1, half), (stage, k2, half), (stage, k3, g.dt))]
    last = _held(rhs(stage, k4) + [
        (np.multiply, (k2, 2, k2)), (np.add, (k2, k1, k2)), (np.multiply, (k3, 2, k3)),
        (np.add, (k2, k3, k2)), (np.add, (k2, k4, k2)), (np.multiply, (k2, sixth, k2)),
        (np.add, (base, k2, base)),
    ])

    def advance(time: float, watch: bool = False) -> bool:
        """One step from base at ``time`` into base, the boundary values
        aside; with ``watch``, stop at a stage not positive inside, if any."""
        for calls, scale in stages:
            _run(calls)
            stage[0], stage[-1] = bc(time + scale)
            if watch and (stage[1:-1] <= 0).any():
                return True
        _run(last)
        return False

    ends = (float(initial[0]), float(initial[-1]))
    bc = (lambda time: ends) if boundary is None else boundary

    check_row(row)
    if inst.grid.dt > stability_bound(row) * (1 + 1e-12):
        raise InstabilityError(
            f"dt={g.dt} violates the bound 0.4*dx^2*min(V^p)={stability_bound(row):.3e}"
        )
    values = np.empty((steps + 1, g.nx))
    values[0] = row
    base[...] = row
    t = g.t0
    for i in range(steps):
        advance(t)
        start, t = t, t + g.dt
        base[0], base[-1] = bc(t)
        check_row(base, values[i], start)
        values[i + 1] = base
    return Field(g.t0, g.dt, g.x0, dx, values)


def _held(calls: list) -> list:
    """``calls`` with each number a ufunc takes held in a 0-d float array,
    which gives the same bits; a ufunc converts a Python number on every
    call, and on 200 cells that makes the call 40-75% slower."""
    return [(fn, tuple(np.array(float(a)) if isinstance(fn, np.ufunc)
                       and isinstance(a, (int, float)) else a for a in args))
            for fn, args in calls]


def _drift(calls: list, mid: np.ndarray, vx: np.ndarray, k: float, lam: float,
           out: np.ndarray) -> np.ndarray:
    """Append to ``calls`` the calls for (lam * mid**k) * vx cell by cell in
    ``out`` and return ``out``, or return ``vx`` itself at k = 0 and lam = 1:
    mid**0 = 1 and x * 1.0 = x leave every bit as it is, so those factors
    are skipped."""
    if k:
        factor = _power(calls, mid, k, out)
        if lam != 1:
            calls.append((np.multiply, (factor, lam, out)))
            factor = out
        calls.append((np.multiply, (factor, vx, out)))
        return out
    if lam == 1:
        return vx
    calls.append((np.multiply, (vx, lam, out)))
    return out


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def invariance_residual(field: Field, inst: Instance) -> float:
    """Max |V_xx - V^p V_t + lam V^k V_x - F(V)| over interior lattice points;
    a NumericError refuses one that is not finite.

    Each cell takes ((vxx - vp*vt) + (lam*vk)*vx) - F(V) in that order, in
    three lattice buffers; vp = V^0, what ``_drift`` skips and an F without
    terms are skipped, since each leaves every bit as it is.
    """
    if field.nt < 3 or field.nx < 3:
        raise ValueError("need at least a 3x3 field")
    V = field.values
    p = float(inst.p)
    k = float(inst.k)
    lam = float(inst.lam)
    F, source_powers = _source(inst)
    left, mid, right = V[1:-1, :-2], V[1:-1, 1:-1], V[1:-1, 2:]
    res, a, b = np.empty((3,) + mid.shape)
    try:
        dx2 = field.dx**2
    except OverflowError:  # V_xx is 0 on so coarse a lattice, as in the solver
        dx2 = math.inf
    # vt, times vp; vxx minus that; then vx
    calls = [(np.subtract, (V[2:, 1:-1], V[:-2, 1:-1], a)), (np.divide, (a, 2 * field.dt, a))]
    if p:
        power = _power(calls, mid, p, b)
        calls.append((np.multiply, (power, a, a)))
    calls += [
        (np.multiply, (mid, 2, res)), (np.subtract, (right, res, res)),
        (np.add, (res, left, res)), (np.divide, (res, dx2, res)), (np.subtract, (res, a, res)),
        (np.subtract, (right, left, a)), (np.divide, (a, 2 * field.dx, a)),
    ]
    drift = _drift(calls, mid, a, k, lam, b)
    calls.append((np.add, (res, drift, res)))
    if source_powers:
        calls += F.calls(0.0, 0.0, mid, a, b)[0]
        calls.append((np.subtract, (res, a, res)))
    _run(calls)
    worst = float(np.abs(res, out=res).max())
    if not math.isfinite(worst):
        raise NumericError("the invariance residual is outside the float range")
    return worst


# ---------------------------------------------------------------------------
# one-parameter group flow


@dataclass(frozen=True)
class ScalingFlow:
    """Flow of (2kt+A1) d/dt + (kx+A2) d/dx - w V d/dV.

    The symmetry generator has weight w = 1; other weights provide
    deliberately broken flows for negative controls.
    """

    A1: float = 1.0
    A2: float = 0.0
    v_weight: float = 1.0

    # at k = 0 the generator is the translation A1 d/dt + A2 d/dx
    def map_t(self, t, k: float, eps: float):
        if k == 0:
            return t + self.A1 * eps
        return (math.exp(2 * k * eps) * (2 * k * t + self.A1) - self.A1) / (2 * k)

    def map_x(self, x, k: float, eps: float):
        if k == 0:
            return x + self.A2 * eps
        return (math.exp(k * eps) * (k * x + self.A2) - self.A2) / k


def group_transform(
    field: Field,
    generator: ScalingFlow,
    epsilon: float,
    inst: Instance,
) -> Field:
    """Apply the one-parameter flow to a solution field.

    The lattice is carried along exactly (the flow is affine in each
    coordinate, so the image of a uniform lattice is uniform) and the
    values are scaled by exp(-w*eps); no interpolation error enters. A
    NumericError refuses an epsilon that carries the lattice, the scale or
    a value out of the float range.
    """
    if not math.isfinite(epsilon):
        raise NumericError(f"epsilon must be a finite number: {epsilon!r}")
    if epsilon == 0:
        return field.copy()
    k = float(inst.k)
    try:
        t0 = generator.map_t(field.t0, k, epsilon)
        x0 = generator.map_x(field.x0, k, epsilon)
        dt = math.exp(2 * k * epsilon) * field.dt
        dx = math.exp(k * epsilon) * field.dx
        scale = math.exp(-generator.v_weight * epsilon)
        in_range = (math.isfinite(t0) and math.isfinite(x0) and 0 < dt < math.inf
                    and 0 < dx < math.inf and scale > 0)
        if in_range:
            with np.errstate(over="ignore"):
                values = scale * field.values
            # only a scale above 1 can carry a finite value past the float range
            in_range = scale <= 1 or bool(np.isfinite(values).all())
    except OverflowError:
        in_range = False
    if not in_range:
        raise NumericError(
            f"epsilon = {epsilon!r} carries the field out of floating-point range"
        )
    return Field(t0=t0, dt=dt, x0=x0, dx=dx, values=values)


# ---------------------------------------------------------------------------
# the power/log change of state variable


def substitute_power_log(direction: str, m: float, value):
    """Change of state variable V = U^(m+1) (or ln U at m = -1) and back.

    Accepts floats or arrays. The input must be positive where the power
    taken is negative or not an integer, and for ln U.
    """
    arr = np.asarray(value, dtype=float)
    if direction not in ("u_to_v", "v_to_u"):
        raise ValueError("direction must be 'u_to_v' or 'v_to_u'")
    forward = direction == "u_to_v"
    if m == -1:
        if forward:
            _require_positive(arr, "U", "the log branch")
        out = np.log(arr) if forward else np.exp(arr)
    else:
        e = m + 1 if forward else 1.0 / (m + 1)
        if _needs_positive(e):
            _require_positive(arr, "U" if forward else "V", f"the power {e:g}")
        out = np.power(arr, e)
    if np.ndim(value) == 0:
        return float(out)
    return out


def power_log_roundtrip(seed: int) -> float:
    """Largest |U - back(forward(U))| of the state substitution at m = -1,
    1 and 2, over a seeded 50 x 50 sample of U in [0.1, 10]."""
    U = np.random.default_rng(seed).uniform(0.1, 10.0, size=(50, 50))
    back = (substitute_power_log("v_to_u", m, substitute_power_log("u_to_v", m, U))
            for m in (-1, 1, 2))
    return max(float(np.max(np.abs(U2 - U))) for U2 in back)


def _require_positive(arr: np.ndarray, name: str, what: str):
    if np.any(arr <= 0):
        raise PositivityError(f"{name} must be positive for {what}")
