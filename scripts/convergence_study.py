#!/usr/bin/env python3
"""Grid-refinement study for the finite-difference solver.

Solves V_t = V_xx + V V_x with the exact solution V = x/(1-t) fed through
the boundaries and reports how the discrete residual of the solved field
shrinks as dx is halved (dt scaled with dx^2).
"""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qcsym.instance import Instance  # noqa: E402
from qcsym.numeric import initial_row, invariance_residual, solve_pde  # noqa: E402


def instance(nx: int) -> Instance:
    """V_t = V_xx + V V_x on [0, 1] from V = x, dt = 0.4 dx^2, steps up to
    t = 0.1."""
    dx = 1.0 / (nx - 1)
    dt = 0.4 * dx * dx
    return Instance.from_json(
        {
            "family": "power", "p": 0, "k": 1, "lambda": 1, "F": "0",
            "operator": {"tau": "1", "xi": "0", "eta": "0"},
            "grid": {"x0": 0.0, "x1": 1.0, "nx": nx, "t0": 0.0,
                     "dt": dt, "steps": int(round(0.1 / dt))},
            "initial": {"type": "linear"},
            "seed": 0,
        }
    )


def boundary(t: float) -> tuple:
    """The exact solution's end values at time t."""
    return 0.0, 1.0 / (1.0 - t)


def run(nx: int) -> float:
    inst = instance(nx)
    field = solve_pde(inst, initial_row(inst), inst.grid.steps, boundary=boundary)
    return invariance_residual(field, inst)


def main() -> int:
    previous = None
    print(f"{'nx':>6} {'residual':>12} {'factor':>8} {'order':>6}")
    for nx in (26, 51, 101, 201):
        res = run(nx)
        if previous is None:
            print(f"{nx:>6} {res:>12.3e} {'-':>8} {'-':>6}")
        else:
            factor = previous / res
            print(f"{nx:>6} {res:>12.3e} {factor:>8.2f} {math.log2(factor):>6.2f}")
        previous = res
    return 0


if __name__ == "__main__":
    sys.exit(main())
