#!/usr/bin/env python3
"""Check that another checkout's numeric output has the same bytes as this one's.

    python scripts/numeric_bits.py OTHER_CHECKOUT

Runs `qcsym transform --out FILE --json` on the scaling fixture, on three
seeded Gaussian variants of it and on an instance with p = 1, k = 2,
lambda = 3/2 and the source 1 - V^(-1), whose solver and residual take the
branches the fixture never does (a division by V^p, a power for the
convection, a multiply by lambda, a constant summed before a negative power);
on an instance with k = 1, lambda = 100/7 and the source V^2 - exp(-V), which
adds an exponential after a power in the source; on one with the source
20000*V^(-1) - 20000*V^(-11/10) + 1/7*V^3, far larger than V, whose row bits
change with the order the source's terms are summed in; and
`qcsym check-op-numeric --json --samples 1` at seeds 0-9 on a copy of the
fixture whose operator's eta has a term with a ten-monomial coefficient added
(the fixture's own operator admits the equation and draws no point). With one sample, each printed residual is the
largest equation value at one point, so these runs guard the sampler's bits
across checkouts down to the order it sums a coefficient's monomials in; a
max over many points would hide a change in the low bits.
Each runs with each checkout's `src`; the script names every run whose exit
status, stdout, stderr or field CSV differs (exit 1). Float bits may depend on
the CPU, so run both checkouts on one machine.
"""
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
FIXTURE = HERE / "src" / "qcsym" / "fixtures" / "instance_scaling.json"


# V stays in [1, 1.5], and dt is below the bound 0.4*dx^2*min(V^p) = 2.5e-4
BRANCHES = {
    "family": "power", "p": 1, "k": 2, "lambda": "3/2", "F": "1 - V^(-1)",
    "operator": {"tau": "1", "xi": "0", "eta": "0"},
    "grid": {"x0": 0.0, "x1": 1.0, "nx": 41, "t0": 0.0, "dt": 0.0002, "steps": 200},
    "initial": {"type": "linear", "slope": 0.5, "offset": 1.0},
}

# the fixture's convection power times a lambda, and an exponential source term
EXPONENTIAL = {
    "family": "power", "p": 0, "k": 1, "lambda": "100/7", "F": "V^2 - exp(-V)",
    "operator": {"tau": "1", "xi": "0", "eta": "0"},
    "grid": {"x0": 0.0, "x1": 1.0, "nx": 21, "t0": 0.0, "dt": 0.0004, "steps": 50},
    "initial": {"type": "linear", "slope": 0.5, "offset": 1.0},
}

# a source far larger than V, so a one-ulp change in its sum shows in the row
BIG_SOURCE = dict(EXPONENTIAL, F="20000*V^(-1) - 20000*V^(-11/10) + 1/7*V^3")


def instances(workdir: Path) -> list:
    """The fixture, Gaussian initial rows drawn with seeds 1-3, BRANCHES,
    EXPONENTIAL and BIG_SOURCE."""
    paths = [FIXTURE]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        doc = json.loads(FIXTURE.read_text())
        doc["initial"] = {"type": "gaussian", "amplitude": rng.uniform(0.5, 1.5),
                          "center": rng.uniform(4.0, 6.0), "width": rng.uniform(1.5, 2.5)}
        paths.append(workdir / f"gaussian_{seed}.json")
        paths[-1].write_text(json.dumps(doc))
    for name, doc in (("branches", BRANCHES), ("exponential", EXPONENTIAL),
                      ("big_source", BIG_SOURCE)):
        paths.append(workdir / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    return paths


BUMP = "+(t^3+2*t^2*x+3*t*x^2+x^3+t+x+1)/7*V^2"


def perturbed(workdir: Path) -> Path:
    """The fixture with BUMP added to its operator's eta."""
    doc = json.loads(FIXTURE.read_text())
    doc["operator"]["eta"] += BUMP
    path = workdir / "perturbed.json"
    path.write_text(json.dumps(doc))
    return path


def run(checkout: Path, argv: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "qcsym.cli", *argv], capture_output=True, env=env)
    return {"exit status": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def transform(checkout: Path, instance: Path, out: Path) -> dict:
    out.unlink(missing_ok=True)
    result = run(checkout, ["transform", f"--equation={instance}", f"--out={out}", "--json"])
    result["CSV"] = out.read_bytes() if out.exists() else None
    return result


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    differ = []

    def compare(name: str, ours: dict, theirs: dict):
        differ.extend(f"{name}: {what} differs" for what in ours if ours[what] != theirs[what])

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for instance in instances(work):
            compare(f"transform {instance.name}", transform(HERE, instance, work / "ours.csv"),
                    transform(other, instance, work / "theirs.csv"))
        instance = perturbed(work)
        for seed in range(10):
            sample = ["check-op-numeric", f"--equation={instance}", "--json", "--samples=1",
                      f"--seed={seed}"]
            compare(f"check-op-numeric perturbed.json seed {seed}", run(HERE, sample),
                    run(other, sample))
    print("\n".join(differ) or "every byte matches")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
