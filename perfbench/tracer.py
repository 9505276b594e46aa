"""Call tracing from outside qcsym: wrap each layer's public functions,
keep spans in memory, and reduce them to the per-layer metrics.

Every wrapped call pushes a frame on one stack, so self time (duration minus
the time of the wrapped calls it made) is exact for every name. The hot
dunders and ``poly_gcd`` run hundreds of thousands of times per op; they are
counted and timed on the stack but record no span, which would distort them.
All other wrapped calls record a span (name, start, end, parent, op).
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from qcsym import calculus, classify, cli, determining, expr, numeric, parser, poly

# (module or class, attribute, metric name, records a span)
TARGETS = [
    (poly, "poly_gcd", "poly.poly_gcd", False),
    (poly.CoeffFrac, "__add__", "poly.CoeffFrac.add", False),
    (poly.CoeffFrac, "__mul__", "poly.CoeffFrac.mul", False),
    (expr.Expr, "from_terms", "expr.Expr.from_terms", False),
    (expr.Expr, "__mul__", "expr.Expr.mul", False),
    (parser, "parse", "parser.parse", True),
    (calculus, "diff", "calculus.diff", True),
    (calculus, "substitute", "calculus.substitute", True),
    (calculus, "split", "calculus.split", True),
    (determining, "generate_determining_system", "determining.generate_determining_system", True),
    (determining, "check_operator", "determining.check_operator", True),
    (classify, "case_c_chain_p0", "classify.case_c_chain_p0", True),
    (classify, "case_c_chain_k1_p2", "classify.case_c_chain_k1_p2", True),
    (classify, "coincidence_tables_k_eq_p_minus_1", "classify.coincidence_tables_k_eq_p_minus_1", True),
    (classify, "extract_F", "classify.extract_F", True),
    (numeric, "solve_pde", "numeric.solve_pde", True),
    (numeric, "invariance_residual", "numeric.invariance_residual", True),
    (numeric, "group_transform", "numeric.group_transform", True),
    (numeric, "sample_residuals", "numeric.sample_residuals", True),
    (numeric.Field, "to_csv", "numeric.csv_write", True),
    (numeric.Field, "from_csv", "numeric.csv_read", True),
    (cli, "verify_paper", "cli.verify_paper", True),
]

# the fourteen verify-paper step ids, in suite order
STEP_IDS = [step_id for step_id, _, _ in cli._suite_steps(0, None)]

MIB = 1 << 20


def _int_exponents(term) -> bool:
    return all(c.denominator == 1 for c in term.vpow.key() + term.expc.key())


class Tracer:
    """Wraps the targets while enabled; aggregates over the ops it saw."""

    def __init__(self):
        self.stack = [[0.0, None]]  # frames: [child time, enclosing span index]
        self.spans = []  # [name, start, end, parent span index, op]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.amount = defaultdict(float)  # chars, cells, bytes, points per name
        self.gcd_nontrivial = 0
        self.terms_seen = 0
        self.int_terms = 0
        self.max_terms = 0
        self.derived = []  # per op: equations derived, in order
        self.op = -1
        self.originals = []
        self.wrappers = {}
        for owner, attr, metric, span in TARGETS:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(fn, metric, span)
            self.wrappers[id(fn)] = (owner, attr, raw, fn, staticmethod(wrapped)
                                     if isinstance(raw, staticmethod) else wrapped)
        self.suite_steps = cli._suite_steps

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, metric, span):
        stack, spans = self.stack, self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        after = getattr(self, "_after_" + metric.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = parent[1]
            if span:
                index = len(spans)
                spans.append([metric, 0.0, 0.0, parent[1], self.op])
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                calls[metric] += 1
                self_s[metric] += duration - frame[0]
                total_s[metric] += duration
                if span:
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_poly_poly_gcd(self, args, result):
        if not result.is_const():
            self.gcd_nontrivial += 1

    def _after_expr_Expr_from_terms(self, args, result):
        n = len(result.terms)
        self.terms_seen += n
        self.int_terms += sum(1 for t in result.terms if _int_exponents(t))
        self.max_terms = max(self.max_terms, n)

    def _after_parser_parse(self, args, result):
        self.amount["parser.parse"] += len(args[0])

    def _after_determining_generate_determining_system(self, args, result):
        eq = args[0]
        self.derived[-1].append((eq.family, str(eq.F0), str(eq.F1), str(eq.F2)))

    def _after_numeric_solve_pde(self, args, result):
        self.amount["numeric.solve_pde"] += result.values.size

    def _after_numeric_csv_write(self, args, result):
        self.amount["numeric.csv_write"] += len(result)

    def _after_numeric_csv_read(self, args, result):
        self.amount["numeric.csv_read"] += len(args[0])

    def _after_numeric_sample_residuals(self, args, result):
        self.amount["numeric.sample_residuals"] += args[2]

    def _steps(self, *args, **kwargs):
        wrap = self._wrap
        return [(sid, desc, wrap(fn, "step." + sid, True))
                for sid, desc, fn in self.suite_steps(*args, **kwargs)]

    def enable(self):
        """Rebind every wrapped function wherever a qcsym module holds it."""
        by_id = self.wrappers
        for name, module in list(sys.modules.items()):
            if name != "qcsym" and not name.startswith("qcsym."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id and by_id[id(value)][3] is value:
                    self.originals.append((module, attr, value))
                    setattr(module, attr, by_id[id(value)][4])
        for owner, attr, raw, fn, wrapped in by_id.values():
            if isinstance(owner, type):
                self.originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        self.originals.append((cli, "_suite_steps", self.suite_steps))
        cli._suite_steps = self._steps

    def disable(self):
        for owner, attr, value in reversed(self.originals):
            setattr(owner, attr, value)
        self.originals.clear()

    def run(self, fn, *args):
        """Run one op with tracing on; the op is the root span."""
        self.op += 1
        self.derived.append([])
        self.enable()
        try:
            return self._wrap(fn, "op", True)(*args)
        finally:
            self.disable()

    # -- reduction -------------------------------------------------------------

    def per_op(self) -> dict:
        """Name -> median over ops of the inclusive time in that name per op."""
        per = defaultdict(lambda: [0.0] * (self.op + 1))
        for name, start, end, _, op in self.spans:
            per[name][op] += end - start
        return defaultdict(float, {name: statistics.median(v) for name, v in per.items()})

    def rate(self, name, scale=1.0) -> float:
        t = self.total_s[name]
        return self.amount[name] / scale / t if t else 0.0

    def metrics(self) -> dict:
        ops = max(self.op + 1, 1)
        per_op = self.per_op()
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        def calls_and_self(name):
            put(name + ".calls", self.calls[name] / ops, "count")
            put(name + ".self_s", self.self_s[name] / ops, "s")

        calls_and_self("poly.poly_gcd")
        gcd_calls = self.calls["poly.poly_gcd"]
        put("poly.gcd_nontrivial_ratio",
            self.gcd_nontrivial / gcd_calls if gcd_calls else 0.0, "ratio")
        put("poly.CoeffFrac.add.calls", self.calls["poly.CoeffFrac.add"] / ops, "count")
        put("poly.CoeffFrac.mul.calls", self.calls["poly.CoeffFrac.mul"] / ops, "count")
        put("poly.CoeffFrac.self_s",
            (self.self_s["poly.CoeffFrac.add"] + self.self_s["poly.CoeffFrac.mul"]) / ops, "s")
        calls_and_self("expr.Expr.from_terms")
        calls_and_self("expr.Expr.mul")
        put("expr.max_terms", self.max_terms, "count")
        put("expr.int_exponent_share",
            self.int_terms / self.terms_seen if self.terms_seen else 0.0, "ratio")
        calls_and_self("parser.parse")
        put("parser.parse.chars_per_s", self.rate("parser.parse"), "1/s")
        for name in ("calculus.diff", "calculus.substitute", "calculus.split",
                     "determining.generate_determining_system", "determining.check_operator"):
            calls_and_self(name)
        derived = sum(len(d) for d in self.derived)
        repeats = sum(len(d) - len(set(d)) for d in self.derived)
        put("determining.derive_repeat_ratio", repeats / derived if derived else 0.0, "ratio")
        for sid in STEP_IDS:
            put(f"step.{sid}.s", per_op["step." + sid], "s")
        for fn in ("case_c_chain_p0", "case_c_chain_k1_p2",
                   "coincidence_tables_k_eq_p_minus_1", "extract_F"):
            put(f"classify.{fn}.s", per_op["classify." + fn], "s")
        for fn in ("solve_pde", "invariance_residual", "group_transform"):
            put(f"numeric.{fn}.s", per_op["numeric." + fn], "s")
        put("numeric.solve_pde.cells_per_s", self.rate("numeric.solve_pde"), "1/s")
        put("numeric.csv_write.mib_per_s", self.rate("numeric.csv_write", MIB), "MiB/s")
        put("numeric.csv_read.mib_per_s", self.rate("numeric.csv_read", MIB), "MiB/s")
        put("numeric.sample_residuals.points_per_s",
            self.rate("numeric.sample_residuals"), "1/s")
        put("cli.verify_paper.s", per_op["cli.verify_paper"], "s")
        return m

    def write_spans(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
