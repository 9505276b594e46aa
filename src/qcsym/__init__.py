"""Symbolic and numeric workbench for classifying conditional symmetries of
reaction-diffusion-convection equations."""

from .calculus import (
    Constraint,
    collect,
    collect_in,
    diff,
    equal_up_to_unit,
    euler_ode_solve,
    split,
    substitute,
)
from .determining import (
    EvolutionEq,
    SymOperator,
    check_operator,
    generate_determining_system,
    normalize_operator,
)
from .expr import AffineExponent, Expr, FnAtom
from .parser import parse, parse_affine

__version__ = "0.1.0"

__all__ = [
    "AffineExponent",
    "Constraint",
    "EvolutionEq",
    "Expr",
    "FnAtom",
    "SymOperator",
    "check_operator",
    "collect",
    "collect_in",
    "diff",
    "equal_up_to_unit",
    "euler_ode_solve",
    "generate_determining_system",
    "normalize_operator",
    "parse",
    "parse_affine",
    "split",
    "substitute",
    "__version__",
]
