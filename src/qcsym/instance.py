"""Instance files: one concrete power-family equation, a candidate operator,
a lattice and its initial row, read from JSON and checked entry by entry
without numpy, which only ``numeric`` imports."""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .determining import EvolutionEq, SymOperator
from .errors import NumericError, TermLanguageError
from .expr import Expr
from .parser import parse

MAX_CELLS = 10**7  # largest nx * (steps + 1) lattice, and most sample points, allowed


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


# the number fields each type of initial row reads, with their defaults; a
# Gaussian's center defaults to the middle of the grid
_INITIAL_FIELDS = {
    "constant": {"value": 1.0},
    "linear": {"slope": 1.0, "offset": 0.0},
    "gaussian": {"amplitude": 1.0, "center": None, "width": 1.0},
}


def _initial(initial, grid: Grid) -> dict:
    """An instance's ``initial`` entry with its ``type`` and every field of
    that type filled in; a NumericError names the first entry that is not
    a finite number where one is needed."""
    initial = {} if initial is None else initial
    if not isinstance(initial, dict):
        raise NumericError(f"instance entry 'initial' must be an object or null: {initial!r}")
    kind = initial.get("type", "constant")
    if not (isinstance(kind, str) and kind in _INITIAL_FIELDS):
        raise NumericError(
            f"instance entry 'initial.type' must be one of {sorted(_INITIAL_FIELDS)}: {kind!r}"
        )
    desc = {"type": kind}
    for field, default in _INITIAL_FIELDS[kind].items():
        if default is None and field not in initial:
            # unchecked: a middle beyond the float range gives the zero row
            desc[field] = 0.5 * (grid.x0 + grid.x1)
        else:
            desc[field] = _number(initial, field, "initial.", default)
    if kind == "gaussian" and desc["width"] <= 0:
        raise NumericError(
            f"instance entry 'initial.width' must be a finite number above 0: {desc['width']!r}"
        )
    return desc


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
    initial: dict  # the initial row's type and every one of its fields

    @staticmethod
    def from_json(data: dict) -> "Instance":
        g = _entry(data, "grid")
        grid = Grid(**{
            key: _number(g, key, "grid.", integral=key in ("nx", "steps"))
            for key in ("x0", "x1", "nx", "t0", "dt", "steps")
        })
        if grid.nx < 2:
            raise NumericError("instance entry 'grid.nx' must be at least 2")
        if not grid.x1 > grid.x0:
            raise NumericError(
                f"instance entry 'grid.x1' must be above 'grid.x0': {grid.x1!r} <= {grid.x0!r}"
            )
        if not grid.x1 - grid.x0 <= sys.float_info.max:
            raise NumericError(
                f"instance entries 'grid.x1' - 'grid.x0' exceed the float range: "
                f"{grid.x1!r} - {grid.x0!r}"
            )
        if grid.dt <= 0:
            raise NumericError(f"instance entry 'grid.dt' must be positive: {grid.dt!r}")
        if grid.steps < 0:
            raise NumericError("instance entry 'grid.steps' must be at least 0")
        cells = grid.nx * (grid.steps + 1)
        if cells > MAX_CELLS:
            raise NumericError(
                f"instance entries 'grid.nx' * ('grid.steps' + 1) = {cells} "
                f"exceed the {MAX_CELLS} lattice cells allowed"
            )
        if data.get("family", "power") != "power":
            raise NumericError(
                f"instance entry 'family' must be 'power': {data['family']!r}"
            )
        seed = _number(data, "seed", default=0, integral=True)
        if seed < 0:
            raise NumericError(f"instance entry 'seed' must be at least 0: {seed!r}")
        initial = _initial(data.get("initial"), grid)
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
        return EvolutionEq("power", {**self.param_bindings(), "F": self.F})
