"""Concrete-instance verification: pointwise residuals, a finite-difference
solver for the evolution equation, one-parameter group flows, and the
power/log change of state variable.

The symbolic layer does the exact substitution work; this module turns the
results into floating-point evaluations on lattices.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import substitute
from .determining import EvolutionEq, SymOperator, generate_determining_system
from .errors import (
    EvalPoleError,
    InstabilityError,
    NumericError,
    PositivityError,
    TermLanguageError,
    UnboundFunctionError,
)
from .expr import Expr
from .parser import parse

_POLE_FLOOR = 1e-300
_BLOCK = 1024  # sample points drawn and evaluated at once, bounding the memory
_MAX_CELLS = 10**7  # largest nx * (steps + 1) lattice an instance may ask for


@dataclass(frozen=True)
class Grid:
    x0: float
    x1: float
    nx: int
    t0: float
    dt: float
    steps: int

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)


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

        A ``.17g`` number holds no comma, quote or newline, so no cell
        needs CSV quoting; each of the nt times and nx positions is
        formatted once.
        """
        ts = [format(t, ".17g") + "," for t in self.times().tolist()]
        xs = [format(x, ".17g") + "," for x in self.xs().tolist()]
        blocks = ["t,x,V\n"]
        for t, row in zip(ts, self.values.tolist()):
            blocks.append("".join([f"{t}{x}{v:.17g}\n" for x, v in zip(xs, row)]))
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


def _entry(doc, key: str, where: str = ""):
    """doc[key] of an instance document; a NumericError names a missing key."""
    if not isinstance(doc, dict) or key not in doc:
        raise NumericError(f"instance has no {where + key!r} entry")
    return doc[key]


def _rational(doc: dict, key: str, alias: str | None = None, default=None) -> Fraction:
    """doc[key], or doc[alias], of an instance document as an exact rational;
    a NumericError names the key when it is missing and has no default, or
    when its value is not a finite rational within the float range."""
    if key not in doc and alias in doc:
        key = alias
    value = _entry(doc, key) if default is None else doc.get(key, default)
    try:
        exact = Fraction(str(value))
        if abs(exact) <= sys.float_info.max:
            return exact
    except (ValueError, ZeroDivisionError):
        pass
    raise NumericError(f"instance entry {key!r} is not a finite rational: {value!r}")


def _number(doc: dict, key: str, where: str = "", default=None, integral: bool = False):
    """doc[key] of an instance document as a finite float, or as an int when
    ``integral``; a NumericError names the key when it is missing and has no
    default, or when its value is not a JSON number of that kind."""
    value = _entry(doc, key, where) if default is None else doc.get(key, default)
    # an exact comparison, so NaN and ints beyond the float range fail too
    if (isinstance(value, bool) or not isinstance(value, int if integral else (int, float))
            or not (integral or abs(value) <= sys.float_info.max)):
        kind = "an integer" if integral else "a finite number"
        raise NumericError(f"instance entry {where + key!r} must be {kind}: {value!r}")
    return value if integral else float(value)


def _expression(doc: dict, key: str, where: str = "", default: str | None = None) -> Expr:
    """doc[key] of an instance document parsed as an expression; a
    NumericError names the key when it is missing and has no default, when
    its value is not a string, or when the string does not parse."""
    value = _entry(doc, key, where) if default is None else doc.get(key, default)
    if not isinstance(value, str):
        raise NumericError(f"instance entry {where + key!r} must be a string: {value!r}")
    try:
        return parse(value)
    except TermLanguageError as exc:
        raise NumericError(f"instance entry {where + key!r} does not parse: {exc}") from None


# the optional number fields each type of initial row reads
_INITIAL_FIELDS = {
    "constant": ("value",),
    "linear": ("slope", "offset"),
    "gaussian": ("amplitude", "center", "width"),
}


def _check_initial(initial) -> None:
    """A NumericError names the first entry of an instance's ``initial``
    that ``initial_row`` could not turn into a finite row."""
    if initial is not None and not isinstance(initial, dict):
        raise NumericError(f"instance entry 'initial' must be an object or null: {initial!r}")
    desc = initial or {}
    kind = desc.get("type", "constant")
    if not (isinstance(kind, str) and kind in _INITIAL_FIELDS):
        raise NumericError(
            f"instance entry 'initial.type' must be one of {sorted(_INITIAL_FIELDS)}: {kind!r}"
        )
    for field in _INITIAL_FIELDS[kind]:
        value = _number(desc, field, "initial.", 1.0)
        if field == "width" and value <= 0:
            raise NumericError(
                f"instance entry 'initial.width' must be a finite number above 0: {value!r}"
            )


@dataclass(frozen=True)
class Instance:
    """A fully concrete power-family instance plus a candidate operator."""

    p: Fraction
    k: Fraction
    lam: Fraction
    F: Expr
    operator: SymOperator
    grid: Grid
    seed: int
    initial: dict | None = None

    @staticmethod
    def from_json(data: dict) -> "Instance":
        g = _entry(data, "grid")
        grid = Grid(**{
            key: _number(g, key, "grid.", integral=key in ("nx", "steps"))
            for key in ("x0", "x1", "nx", "t0", "dt", "steps")
        })
        if grid.nx < 2:
            raise NumericError("instance entry 'grid.nx' must be at least 2")
        if grid.dt <= 0:
            raise NumericError(f"instance entry 'grid.dt' must be positive: {grid.dt!r}")
        if grid.steps < 0:
            raise NumericError("instance entry 'grid.steps' must be at least 0")
        cells = grid.nx * (grid.steps + 1)
        if cells > _MAX_CELLS:
            raise NumericError(
                f"instance entries 'grid.nx' * ('grid.steps' + 1) = {cells} "
                f"exceed the {_MAX_CELLS} lattice cells allowed"
            )
        if data.get("family", "power") != "power":
            raise NumericError(
                f"instance entry 'family' must be 'power': {data['family']!r}"
            )
        seed = _number(data, "seed", default=0, integral=True)
        if seed < 0:
            raise NumericError(f"instance entry 'seed' must be at least 0: {seed!r}")
        initial = data.get("initial")
        _check_initial(initial)
        op = data.get("operator", {"tau": "1", "xi": "0", "eta": "0"})
        return Instance(
            p=_rational(data, "p", "m", 0),
            k=_rational(data, "k", "n", 1),
            lam=_rational(data, "lambda"),
            F=_expression(data, "F", default="0"),
            operator=SymOperator(
                *(_expression(op, name, "operator.") for name in ("tau", "xi", "eta"))
            ),
            grid=grid,
            seed=seed,
            initial=initial,
        )

    @staticmethod
    def load(path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # not UTF-8 text, or not JSON
                raise NumericError(f"instance file {str(path)!r} is not JSON: {exc}") from None
            except RecursionError:
                raise NumericError(f"instance file {str(path)!r} nests too deeply") from None
        return Instance.from_json(doc)

    def param_bindings(self) -> dict:
        return {"p": self.p, "k": self.k, "lambda": self.lam}

    def equation(self) -> EvolutionEq:
        return EvolutionEq.power(p=self.p, k=self.k, F2=self.F)


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
    constant V powers and constant exponential slopes. The function takes
    arrays or scalars and returns (values, pole): pole marks the points
    where a denominator that is not constant lies below ``_POLE_FLOOR``,
    and is False when every denominator is constant. Each term is
    ``n / d * V**a * exp(b*V)`` in that order, with n and d summed in stored
    monomial order, and the terms are summed from 0.0 in their order.
    """
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
            [(float(c), dict(m).get("t", 0), dict(m).get("x", 0))
             for m, c in poly.terms.items()]
            for poly in (term.coeff.num, term.coeff.den)
        )
        compiled.append(
            (num, den, not term.coeff.den.is_const(),
             float(term.vpow.c0), float(term.expc.c0))
        )

    def evaluate(t, x, V):
        total, pole = 0.0, False
        for num, den, den_varies, a, b in compiled:
            d = _poly_value(den, t, x)
            if den_varies:
                pole = pole | (np.abs(d) < _POLE_FLOOR)
            value = _poly_value(num, t, x) / d
            if a:
                value = value * V**a
            if b:
                value = value * np.exp(b * V)
            total = total + value
        return total, pole

    return evaluate


def sample_residuals(inst: Instance, op: SymOperator, N: int, seed: int) -> float:
    """Max absolute determining-equation residual over N seeded sample points.

    Points are drawn uniformly from [0.1, 2]^3, a box clear of the V = 0
    and 2kt + A1 = 0 poles, at most ``_BLOCK`` at a time. A point where a
    denominator lies below ``_POLE_FLOOR`` is rejected; at most 10*N points
    are drawn. For an operator the instance admits, such as its true one,
    the substituted equations are identically zero and the residual is 0.0
    with no float work; only an operator it does not admit, such as the
    perturbed one of the ``sampled-residuals`` step, exercises the
    evaluation. That step's detail stays as it is: the replay digests pin it.
    """
    if N < 1:
        raise ValueError("need at least one sample point")
    system = generate_determining_system(
        EvolutionEq.power(F2=None)
    )
    bindings = {
        "xi": op.xi,
        "eta": op.eta,
        "F": inst.F,
        **inst.param_bindings(),
    }
    compiled = [_compile(substitute(eq, bindings)) for eq in system.equations]
    rng = np.random.default_rng(seed)
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
                results = [fn(t, x, V) for fn in compiled]
        except FloatingPointError:
            raise NumericError("a sampled residual is outside the float range") from None
        keep = ~np.logical_or.reduce([np.broadcast_to(pole, m) for _, pole in results])
        produced += int(np.count_nonzero(keep))
        for values, _ in results:
            worst = np.max(np.broadcast_to(np.abs(values), m)[keep], initial=worst)
    return float(worst)


# ---------------------------------------------------------------------------
# finite-difference solver


def _source(inst: Instance):
    """The instance's source bound to its parameters: the compiled function
    and the V powers of its terms. It does not depend on t or x, so callers
    evaluate ``F(0.0, 0.0, V)[0]``."""
    bound = substitute(inst.F, inst.param_bindings())
    if any(term.coeff.gens() & {"t", "x"} for term in bound.terms):
        raise UnboundFunctionError("source term must be a concrete function of V")
    return _compile(bound), [term.vpow.c0 for term in bound.terms]


def _needs_positive(e) -> bool:
    """True when the power V**e is real and finite only for V > 0."""
    return e < 0 or e != int(e)


def initial_row(inst: Instance) -> np.ndarray:
    """Build the initial data described by the instance file, whose fields
    ``Instance.from_json`` has checked."""
    xs = inst.grid.xs()
    desc = inst.initial or {"type": "constant", "value": 1.0}
    kind = desc.get("type", "constant")
    if kind == "constant":
        return np.full_like(xs, float(desc.get("value", 1.0)))
    if kind == "linear":
        return float(desc.get("slope", 1.0)) * xs + float(desc.get("offset", 0.0))
    c = float(desc.get("center", 0.5 * (xs[0] + xs[-1])))
    w = float(desc.get("width", 1.0))
    a = float(desc.get("amplitude", 1.0))
    return a * np.exp(-(((xs - c) / w) ** 2))


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
    is negative or not an integer.
    """
    g = inst.grid
    dx = g.dx
    p = float(inst.p)
    k = float(inst.k)
    lam = float(inst.lam)
    F, source_powers = _source(inst)
    needs_positive = any(_needs_positive(e) for e in (inst.p, inst.k, *source_powers))
    row = np.asarray(initial, dtype=float).copy()
    if row.shape != (g.nx,):
        raise ValueError(f"initial row must have {g.nx} points")

    def check_row(r: np.ndarray):
        if needs_positive and np.any(r <= 0):
            raise PositivityError("V must stay positive for this instance")
        if np.any(np.abs(r) > 1e6) or not np.all(np.isfinite(r)):
            raise InstabilityError("solution magnitude exceeded 1e6")

    def stability_bound(r: np.ndarray) -> float:
        vp = r**p if p else np.ones_like(r)
        return 0.4 * dx * dx * float(np.min(vp))

    def rhs(r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r)
        vxx = (r[2:] - 2 * r[1:-1] + r[:-2]) / (dx * dx)
        vx = (r[2:] - r[:-2]) / (2 * dx)
        mid = r[1:-1]
        conv = lam * mid**k * vx if k else lam * vx
        source, _ = F(0.0, 0.0, mid)
        vp = mid**p if p else 1.0
        out[1:-1] = (vxx + conv - source) / vp
        return out

    def bc(time: float) -> tuple:
        if boundary is None:
            return float(initial[0]), float(initial[-1])
        return boundary(time)

    check_row(row)
    if inst.grid.dt > stability_bound(row) * (1 + 1e-12):
        raise InstabilityError(
            f"dt={g.dt} violates the bound 0.4*dx^2*min(V^p)={stability_bound(row):.3e}"
        )
    rows = [row.copy()]
    t = g.t0
    for _ in range(steps):
        def stage(base: np.ndarray, scale: float, kk: np.ndarray, time: float):
            r = base + scale * kk
            left, right = bc(time)
            r[0], r[-1] = left, right
            return r

        k1 = rhs(row)
        k2 = rhs(stage(row, g.dt / 2, k1, t + g.dt / 2))
        k3 = rhs(stage(row, g.dt / 2, k2, t + g.dt / 2))
        k4 = rhs(stage(row, g.dt, k3, t + g.dt))
        row = row + (g.dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += g.dt
        left, right = bc(t)
        row[0], row[-1] = left, right
        check_row(row)
        rows.append(row.copy())
    return Field(g.t0, g.dt, g.x0, dx, np.array(rows))


def invariance_residual(field: Field, inst: Instance) -> float:
    """Max |V_xx - V^p V_t + lam V^k V_x - F(V)| over interior lattice points."""
    if field.nt < 3 or field.nx < 3:
        raise ValueError("need at least a 3x3 field")
    V = field.values
    p = float(inst.p)
    k = float(inst.k)
    lam = float(inst.lam)
    F, _ = _source(inst)
    mid = V[1:-1, 1:-1]
    vt = (V[2:, 1:-1] - V[:-2, 1:-1]) / (2 * field.dt)
    vx = (V[1:-1, 2:] - V[1:-1, :-2]) / (2 * field.dx)
    vxx = (V[1:-1, 2:] - 2 * mid + V[1:-1, :-2]) / (field.dx**2)
    vp = mid**p if p else 1.0
    vk = mid**k if k else 1.0
    res = vxx - vp * vt + lam * vk * vx - F(0.0, 0.0, mid)[0]
    return float(np.max(np.abs(res)))


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
    values are scaled by exp(-w*eps); no interpolation error enters.
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
    except OverflowError:
        in_range = False
    if not in_range:
        raise NumericError(
            f"epsilon = {epsilon!r} carries the field out of floating-point range"
        )
    return Field(t0=t0, dt=dt, x0=x0, dx=dx, values=scale * field.values)


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
