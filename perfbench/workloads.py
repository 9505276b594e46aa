"""The three benchmark workloads: inputs from a seed, one op, its correctness gate.

Each workload object offers

- ``run_op(i)``: the timed work of op ``i``; returns what ``check`` needs;
- ``check(result)``: ``None`` when the output is right, else a one-line reason;
- ``cli_argv(workdir)`` and ``cli_check(stdout)``: the workload's command-line
  equivalent, run cold in a fresh interpreter to time ``cold_cli_s``;
- ``rss_ops``: how many ops the fresh interpreter that measures
  ``peak_rss_mib`` runs (about 1.5 s of work).

Inputs depend only on the seed. qcsym must be importable when this module is
imported; ``run.py`` puts the checkout's ``src`` on the path first. Calls into
qcsym go through module attributes, so the tracer's rebinding sees them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from qcsym import cli, classify, determining, numeric, parser

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "replay_reference.json"
STEP_COUNT = 14


def report_bytes(report) -> bytes:
    """The bytes ``qcsym verify-paper --json`` prints for this report."""
    return (json.dumps(report, indent=2) + "\n").encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Replay:
    """One op is a warm ``cli.verify_paper(s)``; s is drawn from the seeds
    whose ``--json`` report digests ``replay_reference.json`` records."""

    name = "replay"
    rss_ops = 3

    def __init__(self, seed: int, corrupt: str | None = None):
        self.reference = json.loads(REFERENCE.read_text())["sha256"]
        rng = random.Random(seed)
        self.seeds = [rng.randrange(len(self.reference)) for _ in range(4096)]
        self.cli_seed = self.seeds[0]
        self.corrupt = corrupt
        for path in sorted((Path(classify.__file__).parent / "fixtures").iterdir()):
            classify.fixture_text(path.name)

    def run_op(self, i: int):
        s = self.seeds[i % len(self.seeds)]
        report, ok = cli.verify_paper(s, corrupt=self.corrupt)
        return s, report, ok

    def check(self, result) -> str | None:
        s, report, ok = result
        failed = [r["id"] for r in report if r["status"] != "pass"]
        if not ok or failed or len(report) != STEP_COUNT:
            return f"seed {s}: steps not passed: {failed}"
        if _digest(report_bytes(report)) != self.reference[s]:
            return f"seed {s}: --json report differs from the reference bytes"
        return None

    def cli_argv(self, workdir: Path) -> list:
        return ["verify-paper", "--json", "--seed", str(self.cli_seed)]

    def cli_check(self, stdout: bytes) -> str | None:
        if _digest(stdout) != self.reference[self.cli_seed]:
            return f"seed {self.cli_seed}: cold --json report differs from the reference bytes"
        return None


def _q(x: Fraction) -> str:
    return f"({x.numerator}/{x.denominator})" if x.denominator != 1 else f"({x.numerator})"


def sweep_pairs() -> list:
    """Every (p, k) with denominators 1-3 in [-12, 12] that the sweep accepts."""
    values = sorted({Fraction(n, d) for d in (1, 2, 3) for n in range(-12 * d, 12 * d + 1)})
    return [
        (p, k) for p in values for k in values
        if k not in (0, p, p + 1) and p != -1 and 2 * k != p
    ]


class Sweep:
    """One op checks three operators on one distinct concrete (p, k).

    The scaling operator ((2k-p)t+A1, kx+A2, -V) comes from dimensional
    analysis of V_xx = V^p V_t - lambda V^k V_x + lambda1 V^(2k+1), so the
    oracle shares nothing with qcsym. The perturbed check uses its own
    coefficient symbol lambda3, so no op derives one equation twice.
    """

    name = "sweep"
    rss_ops = 30

    def __init__(self, seed: int):
        self.pairs = sweep_pairs()
        random.Random(seed).shuffle(self.pairs)
        self.translation = determining.normalize_operator(
            determining.SymOperator.of("1", "A", "0")
        )
        self.bump = parser.parse("1/10*V^2")

    def scaling_texts(self, p: Fraction, k: Fraction) -> tuple:
        return f"{_q(2 * k - p)}*t+A1", f"{_q(k)}*x+A2", "-V"

    def run_op(self, i: int):
        p, k = self.pairs[i % len(self.pairs)]
        power = _q(2 * k + 1)
        scaling = determining.normalize_operator(
            determining.SymOperator.of(*self.scaling_texts(p, k))
        )
        bumped = determining.SymOperator(scaling.tau, scaling.xi, scaling.eta + self.bump)
        plain = determining.EvolutionEq.power(p=p, k=k, F2=parser.parse(f"lambda1*V^{power}"))
        other = determining.EvolutionEq.power(p=p, k=k, F2=parser.parse(f"lambda3*V^{power}"))
        mixed = determining.EvolutionEq.power(
            p=p, k=k, F2=parser.parse(f"lambda1*V^{power} + lambda2*V^{_q(p + 3)}")
        )
        return (
            (p, k),
            determining.check_operator(plain, scaling),
            determining.check_operator(other, bumped),
            determining.check_operator(mixed, self.translation),
        )

    def check(self, result) -> str | None:
        (p, k), scaled, bumped, translated = result
        if not all(r.is_zero() for r in scaled):
            return f"p={p}, k={k}: scaling operator left a residual"
        if all(r.is_zero() for r in bumped):
            return f"p={p}, k={k}: perturbed operator passed"
        if not all(r.is_zero() for r in translated):
            return f"p={p}, k={k}: translation operator left a residual"
        return None

    def cli_argv(self, workdir: Path) -> list:
        p, k = self.pairs[0]
        path = workdir / "sweep_instance.json"
        data = classify.fixture_json("instance_scaling.json")
        data.update(p=str(p), k=str(k), F=f"lambda1*V^{_q(2 * k + 1)}")
        path.write_text(json.dumps(data))
        tau, xi, eta = self.scaling_texts(p, k)
        return ["check-op", f"--equation={path}", f"--tau={tau}", f"--xi={xi}",
                f"--eta={eta}", "--json"]

    def cli_check(self, stdout: bytes) -> str | None:
        if json.loads(stdout)["satisfied"] is not True:
            return "cold check-op did not accept the scaling operator"
        return None


class Numeric:
    """One op solves the scaling instance from seeded Gaussian data, moves the
    solution along the scaling flow, writes and re-reads it as CSV and samples
    the determining residuals at 1000 points.

    The fixture has p = 0 and dt = 0.4 dx^2, so the solver's stability bound
    holds for any amplitude; the ranges keep the cubic source tame.
    """

    name = "numeric"
    rss_ops = 3
    samples = 1000
    epsilon = 0.1

    def __init__(self, seed: int):
        self.base = numeric.Instance.from_json(classify.fixture_json("instance_scaling.json"))
        self.op = determining.normalize_operator(self.base.operator)
        self.flow = numeric.ScalingFlow(A1=1.0, A2=0.0)
        self.seed = seed

    def instance(self, i: int):
        rng = random.Random(f"{self.seed}:{i}")
        initial = {
            "type": "gaussian",
            "amplitude": rng.uniform(0.5, 1.5),
            "center": rng.uniform(4.0, 6.0),
            "width": rng.uniform(1.5, 2.5),
        }
        return dataclasses.replace(self.base, initial=initial, seed=rng.randrange(2**31))

    def run_op(self, i: int):
        inst = self.instance(i)
        field = numeric.solve_pde(inst, numeric.initial_row(inst), inst.grid.steps)
        base = numeric.invariance_residual(field, inst)
        moved = numeric.group_transform(field, self.flow, self.epsilon, inst)
        ratio = numeric.invariance_residual(moved, inst) / base
        back = numeric.Field.from_csv(moved.to_csv())
        worst = numeric.sample_residuals(inst, self.op, self.samples, inst.seed)
        return ratio, moved, back, worst

    def check(self, result) -> str | None:
        ratio, moved, back, worst = result
        if not ratio <= 5.0:
            return f"flow residual ratio {ratio:.3g} exceeds 5"
        if not worst < 1e-9:
            return f"sampled residual {worst:.3g} is not below 1e-9"
        lattice = (back.t0, back.dt, back.x0, back.dx)
        want = (moved.t0, moved.dt, moved.x0, moved.dx)
        if not np.array_equal(back.values, moved.values) or not np.allclose(
            lattice, want, rtol=1e-12, atol=1e-12
        ):
            return "CSV read-back differs from the written field"
        return None

    def cli_argv(self, workdir: Path) -> list:
        path = workdir / "numeric_instance.json"
        inst = self.instance(0)
        data = classify.fixture_json("instance_scaling.json")
        data.update(initial=inst.initial)
        path.write_text(json.dumps(data))
        self.cli_out = workdir / "numeric_field.csv"
        return ["transform", f"--equation={path}", f"--eps={self.epsilon}",
                f"--out={self.cli_out}", "--json"]

    def cli_check(self, stdout: bytes) -> str | None:
        ratio = json.loads(stdout)["ratio"]
        if not ratio <= 5.0:
            return f"cold transform: flow residual ratio {ratio:.3g} exceeds 5"
        if not self.cli_out.read_text().startswith("t,x,V\n"):
            return "cold transform wrote no field CSV"
        return None


WORKLOADS = {w.name: w for w in (Replay, Sweep, Numeric)}


def make(name: str, seed: int, corrupt: str | None = None):
    """Build a workload's inputs; this is the work ``setup_s`` times."""
    if name == "replay":
        return Replay(seed, corrupt)
    return WORKLOADS[name](seed)
