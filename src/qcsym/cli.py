"""Command-line interface: derivation, enumeration, verification, and the
one-shot reproduction suite. numeric, and with it numpy, is imported only
where float work runs, so the symbolic commands never load numpy."""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import classify
from .calculus import Constraint, eq_normalize, split, substitute
from .determining import EvolutionEq, SymOperator, check_operator, generate_determining_system, normalize_operator
from .errors import NumericError, ParseError, TermLanguageError
from .instance import Instance
from .parser import parse, parse_affine

_CHECK_TOL = 1e-9

# the equation family each --family value names
_EQUATIONS = {"power": EvolutionEq.power, "exp": EvolutionEq.exponential}


def non_negative_int(text: str) -> int:
    """argparse type of --seed: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return value


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcsym",
        description="Symmetry-classification workbench for "
        "reaction-diffusion-convection equations",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive a determining system", allow_abbrev=False)
    p.add_argument("--family", choices=("power", "exp"), default="power")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "coincide", help="enumerate exponent-coincidence cases", allow_abbrev=False
    )
    p.add_argument("--exponents", help="comma-separated affine exponents")
    p.add_argument("--target", action="append", help="target exponent (repeatable)")
    p.add_argument("--forbidden", help="comma-separated excluded relations")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="coincidence table for a case", allow_abbrev=False)
    p.add_argument("--case", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "check-op", help="check an operator against the determining system",
        allow_abbrev=False,
    )
    p.add_argument("--family", choices=("power", "exp"), default="power")
    p.add_argument("--tau", default="1")
    p.add_argument("--xi", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--equation", help="instance JSON file supplying p, k, lambda, F")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "check-op-numeric", help="sample determining residuals numerically",
        allow_abbrev=False,
    )
    p.add_argument("--equation", required=True)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "split", help="split an expression by graded atoms", allow_abbrev=False
    )
    p.add_argument("expression")
    p.add_argument("--forbidden", help="comma-separated excluded relations")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "transform", help="solve an instance and apply the scaling flow",
        allow_abbrev=False,
    )
    p.add_argument("--equation", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--out", help="write the transformed field CSV here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "verify-paper", help="run the full reproduction suite", allow_abbrev=False
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--keep-going", action="store_true")
    p.add_argument(
        "--corrupt", choices=("determining-systems",),
        help="test hook: corrupt the named step's fixture to force a failure",
    )
    return ap


def _parsed(flag: str, text: str, parse_text, *args):
    """parse_text(text, *args); a parse error names the flag and its text."""
    try:
        return parse_text(text, *args)
    except ParseError as exc:
        raise TermLanguageError(f"{flag} {text!r}: {exc}") from None


def _parse_constraints(text: str | None) -> tuple:
    parts = text.split(",") if text else ()
    return tuple(_parsed("--forbidden", p, Constraint.parse, "forbidden") for p in parts)


def _emit(payload, as_json: bool, lines) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _cmd_derive(args) -> int:
    eq = _EQUATIONS[args.family]()
    system = generate_determining_system(eq)
    lines = [f"determining system ({eq.family} family)"]
    for g, e in zip(system.grading, system.equations):
        lines.append(f"  {g:<5} : {e}")
    _emit({"family": eq.family, **system.to_json()}, args.json, lines)
    return 0


def _cmd_coincide(args) -> int:
    # every text is parsed, and its error reported, before the flags are
    # checked against each other
    forbidden = _parse_constraints(args.forbidden)
    exponents = None if args.exponents is None else [
        _parsed("--exponents", t, parse_affine) for t in args.exponents.split(",")
    ]
    targets = (
        [_parsed("--target", t, parse_affine) for t in args.target] if args.target else None
    )
    if exponents is not None:
        cases = classify.enumerate_special_cases(exponents, targets, forbidden)
    elif args.target is not None or args.forbidden is not None:
        raise ValueError("--target and --forbidden apply only with --exponents")
    else:
        cases = classify.fifteen_power_cases()
    payload = [str(c) for c in cases]
    lines = [f"{len(cases)} coincidence cases"] + [f"  {c}" for c in payload]
    _emit(payload, args.json, lines)
    return 0


def _cmd_table(args) -> int:
    case = _parsed("--case", args.case, Constraint.parse)
    target = _parsed("--target", args.target, parse_affine)
    tables = {
        (str(t.case), str(t.target)): t for t in classify.coincidence_tables_k_eq_p_minus_1()
    }
    table = tables.get((str(case), str(target)))
    if table is None:
        raise TermLanguageError(f"no catalogued table for case {case} and target {target}")
    lines = [f"case {case}, target {table.target}"]
    header = "  column | " + "  ".join(f"{str(c):>6}" for c in table.columns)
    values = "  value  | " + "  ".join(f"{v:>6}" for v in table.value_strings())
    lines += [header, values]
    excl = [str(c) for c, x in zip(table.columns, table.excluded) if x]
    if excl:
        lines.append("  excluded by the standing conditions: " + ", ".join(excl))
    _emit(table.to_json(), args.json, lines)
    return 0


def _cmd_check_op(args) -> int:
    if args.equation and args.family != "power":
        raise ValueError(
            f"--family {args.family} cannot be used with --equation: "
            "an instance file gives a power-family equation"
        )
    op = normalize_operator(SymOperator(
        *(_parsed(f"--{name}", getattr(args, name), parse) for name in ("tau", "xi", "eta"))
    ))
    if args.equation:
        eq = Instance.load(args.equation).equation()
    else:
        eq = _EQUATIONS[args.family]()
    residuals = check_operator(eq, op)
    ok = all(r.is_zero() for r in residuals)
    payload = {"satisfied": ok, "residuals": [str(r) for r in residuals]}
    lines = [f"operator {'satisfies' if ok else 'violates'} the determining system"]
    for g, r in zip(generate_determining_system(eq).grading, residuals):
        lines.append(f"  {g:<5} residual: {r}")
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def _cmd_check_op_numeric(args) -> int:
    from . import numeric
    inst = Instance.load(args.equation)
    seed = inst.seed if args.seed is None else args.seed
    op = normalize_operator(inst.operator)
    worst = numeric.sample_residuals(inst, op, args.samples, seed)
    ok = worst < _CHECK_TOL
    payload = {"max_residual": worst, "samples": args.samples, "seed": seed,
               "satisfied": ok}
    _emit(
        payload, args.json,
        [f"max residual over {args.samples} points (seed {seed}): {worst:.3e}",
         "within tolerance" if ok else "exceeds tolerance"],
    )
    return 0 if ok else 1


def _cmd_split(args) -> int:
    e = _parsed("expression", args.expression, parse)
    system = split(e, _parse_constraints(args.forbidden))
    lines = [f"{len(system)} equations"]
    for k, eq in zip(system.grading, system.equations):
        lines.append(f"  {str(k):<10} : {eq}")
    _emit(system.to_json(), args.json, lines)
    return 0


def _cmd_transform(args) -> int:
    from . import numeric
    inst = Instance.load(args.equation)
    field = numeric.solve_pde(inst, numeric.initial_row(inst), inst.grid.steps)
    base = numeric.invariance_residual(field, inst)
    moved = numeric.group_transform(field, numeric.ScalingFlow(), args.eps, inst)
    res = numeric.invariance_residual(moved, inst)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(moved.to_csv())
    # no ratio to a baseline that is already an exact solution
    ratio = res / base if base else None
    payload = {
        "epsilon": args.eps,
        "baseline_residual": base,
        "transformed_residual": res,
        "ratio": ratio,
    }
    _emit(
        payload, args.json,
        [f"baseline residual   : {base:.3e}",
         f"transformed residual: {res:.3e} (eps = {args.eps})",
         "ratio               : " + ("n/a" if ratio is None else f"{ratio:.2f}")],
    )
    return 0


# ---------------------------------------------------------------------------
# the reproduction suite


def _suite_steps(seed: int, corrupt: str | None):
    """Yield (id, description, callable) for the fourteen suite steps."""
    from . import numeric

    def regeneration():
        for make in _EQUATIONS.values():
            eq = make()
            system = generate_determining_system(eq)
            fixture = classify.fixture_json(f"determining_{eq.family}.json")["equations"]
            if corrupt == "determining-systems":
                fixture = list(fixture)
                fixture[0] = fixture[0] + " + V^p"
            if len(system.equations) != 4:
                return False, f"{eq.family}: expected 4 equations"
            for got, text in zip(system.equations, fixture):
                if got != eq_normalize(parse(text)):
                    return False, f"{eq.family}: mismatch against {text!r}"
        return True, "both families regenerate their catalogued systems"

    def eta_solution():
        eta = classify.solve_eta_case_b()
        if eta != parse(classify.fixture_text("eta_case_b.txt")):
            return False, "closed form differs"
        eq2 = classify.power_system().equations[1]
        residual = substitute(eq2, {**classify.CASE_B_ANSATZ, "eta": eta})
        return residual.is_zero(), "back-substitution residual is zero"

    def source_extraction():
        F = classify.extract_F()
        if F != parse(classify.fixture_text("source_case_b.txt")):
            return False, "closed form differs"
        eq3 = classify.power_system().equations[2]
        residual = substitute(
            eq3, {**classify.CASE_B_ANSATZ, "eta": classify.solve_eta_case_b(), "F": F}
        )
        return residual.is_zero(), "extraction and back-substitution verified"

    def six_cases():
        got = {str(c) for c in classify.six_power_cases()}
        want = set(classify.fixture_json("coincidence_six.json")["cases"])
        return got == want, f"{len(got)} cases"

    def fifteen_cases():
        got = [str(c) for c in classify.fifteen_power_cases()]
        want = [
            str(Constraint.parse(c))
            for c in classify.fixture_json("coincidence_fifteen.json")["cases"]
        ]
        return got == want, f"{len(got)} cases in catalogued order"

    def fifteen_list():
        got = [str(a) for a in classify.fifteen_powers_k_eq_p_minus_1()]
        want = [
            str(parse_affine(t))
            for t in classify.fixture_json("powers_fifteen_k_eq_p_minus_1.json")
        ]
        return got == want, "fifteen powers reproduced in order"

    def tables():
        t1, t2 = classify.coincidence_tables_k_eq_p_minus_1()
        for table, name in ((t1, "table_leading.json"), (t2, "table_subleading.json")):
            fx = classify.fixture_json(name)
            if [str(c) for c in table.columns] != [
                str(parse_affine(c)) for c in fx["columns"]
            ]:
                return False, f"{name}: column mismatch"
            if table.value_strings() != fx["values"]:
                return False, f"{name}: value mismatch"
        return True, "both tables reproduced cell for cell"

    # Each derivation chain runs once per suite. Its own step reports the
    # whole chain; a later step reports the verdict of one check inside it.
    # A chain that raises is not cached: it runs again for the later step and
    # raises the same error there.
    chain_steps = functools.cache(lambda chain: chain())

    def whole_chain(chain):
        def step():
            steps = chain_steps(chain)
            failed = "; ".join(f"check {s.id!r} failed" for s in steps if not s.passed)
            return not failed, failed or f"{len(steps)} steps"
        return step

    def chain_check(chain, check_id, detail):
        def step():
            ok = any(s.id == check_id and s.passed for s in chain_steps(chain))
            return ok, detail if ok else f"check {check_id!r} failed"
        return step

    def numeric_sampled():
        inst = Instance.from_json(classify.fixture_json("instance_scaling.json"))
        op = normalize_operator(inst.operator)
        worst = numeric.sample_residuals(inst, op, 1000, seed)
        if worst >= _CHECK_TOL:
            return False, f"max residual {worst:.3e}"
        perturbed = SymOperator(op.tau, op.xi, op.eta + parse("1/10*V^2"))
        worst_p = numeric.sample_residuals(inst, perturbed, 200, seed)
        return worst_p > 1e-3, (
            f"symmetry residual {worst:.3e}; perturbed {worst_p:.3e}"
        )

    def numeric_group():
        inst = Instance.from_json(classify.fixture_json("instance_scaling.json"))
        field = numeric.solve_pde(inst, numeric.initial_row(inst), inst.grid.steps)
        base = numeric.invariance_residual(field, inst)
        moved = numeric.group_transform(field, numeric.ScalingFlow(), 0.1, inst)
        ratio = numeric.invariance_residual(moved, inst) / base
        broken = numeric.group_transform(field, numeric.ScalingFlow(v_weight=2.0), 0.2, inst)
        bad_ratio = numeric.invariance_residual(broken, inst) / base
        ok = ratio <= 5.0 and bad_ratio >= 10.0
        return ok, f"flow ratio {ratio:.2f}; wrong-weight ratio {bad_ratio:.1f}"

    def substitution_roundtrip():
        worst = numeric.power_log_roundtrip(seed)
        return worst < 1e-12, f"max round-trip deviation {worst:.2e}"

    p0, k1_p2 = classify.case_c_chain_p0, classify.case_c_chain_k1_p2
    return [
        ("determining-systems", "regenerate both determining systems", regeneration),
        ("eta-general-solution", "general eta for V-linear xi", eta_solution),
        ("source-term-extraction", "extract and re-check the source term", source_extraction),
        ("coincidence-six-powers", "five coincidence cases of the reduced analysis", six_cases),
        ("coincidence-fifteen-powers", "thirteen coincidence cases of the full analysis", fifteen_cases),
        ("fifteen-powers-shifted", "fifteen powers under k = p-1", fifteen_list),
        ("coincidence-tables", "leading and subleading coincidence tables", tables),
        ("chain-p0", "derivation chain for p = 0", whole_chain(p0)),
        ("chain-k1-p2", "derivation chain for k = 1, p = 2", whole_chain(k1_p2)),
        ("cubic-source-split", "cubic source splits into the four relations",
         chain_check(k1_p2, "cubic-split", "four exact equations, leading one literal")),
        ("scaling-operator-symbolic", "scaling-translation operator check",
         chain_check(p0, "scaling-operator", "all four residuals vanish")),
        ("sampled-residuals", "numeric determining residuals", numeric_sampled),
        ("group-flow-invariance", "group flow maps solutions to solutions", numeric_group),
        ("substitution-roundtrip", "state-substitution round trip", substitution_roundtrip),
    ]


def verify_paper(seed: int = 0, keep_going: bool = False, corrupt: str | None = None):
    """Run the fourteen-step reproduction suite; returns (JSON rows, all passed)."""
    results = []
    all_ok = True
    for step_id, description, fn in _suite_steps(seed, corrupt):
        if not all_ok and not keep_going:
            results.append(classify.StepResult(step_id, description, None))
            continue
        try:
            ok, detail = fn()
        except (TermLanguageError, NumericError) as exc:
            ok, detail = False, str(exc)
        results.append(classify.StepResult(step_id, description, ok, detail))
        all_ok = all_ok and ok
    return [r.to_json() for r in results], all_ok


def _cmd_verify_paper(args) -> int:
    report, ok = verify_paper(args.seed, args.keep_going, args.corrupt)
    lines = []
    for step in report:
        status = step["status"][:4].upper()  # PASS, FAIL or SKIP: ids in one column
        lines.append(f"[{status}] {step['id']:<28} {step['detail']}")
    lines.append(
        f"{sum(1 for s in report if s['status'] == 'pass')}/{len(report)} steps passed"
    )
    _emit(report, args.json, lines)
    return 0 if ok else 1


_HANDLERS = {
    "derive": _cmd_derive,
    "coincide": _cmd_coincide,
    "table": _cmd_table,
    "check-op": _cmd_check_op,
    "check-op-numeric": _cmd_check_op_numeric,
    "split": _cmd_split,
    "transform": _cmd_transform,
    "verify-paper": _cmd_verify_paper,
}


def main(argv=None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (TermLanguageError, NumericError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
