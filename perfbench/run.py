"""qcsym benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload replay|sweep|numeric|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; qcsym is loaded from the checkout's
``src``. Each run is one process with no worker threads. It runs the
workload's ops in a closed loop for ``--seconds`` of op time and checks every
output; between ops, spread over the loop, it times fresh interpreters
(set-up, cold CLI, import) one at a time. Peak memory comes from one more
fresh interpreter that sets up the workload and runs a fixed number of ops.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit and the sample counts. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics, the tracing overhead, and writes the spans to
``perfbench/.work/``. ``--workload all`` runs the three workloads in turn.
The exit status is 0 only when every output was correct.

On a shared virtual machine (2 vCPUs of a 2.1 GHz Xeon, see notes.json) the
speed drifts by up to 40% over minutes, alike for every piece of Python
code. So between ops, every
CALIBRATE_EVERY_S of op time, the loop also times one fixed calibration chunk
of standard-library work that shares no code with qcsym. The end-to-end times
are reported at the speed at which that chunk takes CALIBRATION_S: each raw
time is multiplied by CALIBRATION_S over the run's median chunk time. The raw
times and that factor are printed on the lines before the result. The run
and the interpreters it starts keep to one CPU, the one the chunks time.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("replay", "sweep", "numeric")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10  # fewest samples the reported tail may leave above it
MAX_REPEATS = 9  # fresh interpreters timed per subprocess metric in a long run
CALIBRATE_EVERY_S = 0.5  # op time between two calibration chunks
CALIBRATION_S = 0.047  # median chunk time on the reference host (notes.json)


SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
    "workloads.make({name!r}, {seed})"
)
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import qcsym.cli; "
    "print(repr(time.perf_counter() - t))"
)
RSS_CODE = """\
import resource, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
work = workloads.make({name!r}, {seed})
for i in range(work.rss_ops):
    reason = work.check(work.run_op(i))
    if reason:
        sys.exit(reason)
print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
"""


def calibration_chunk() -> float:
    """Seconds taken by one fixed piece of work that shares no code with
    qcsym: rational arithmetic, tuple-keyed dicts, float formatting, and a
    CSV write and read-back of 3000 rows, the kinds of work the workloads
    do. A chunk of this size follows the host's drift more closely than one
    of 600 rows."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for i in range(1, 3000):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, i % 11 + 1)
        key = (i % 997, i % 13, i % 5)
        table[key] = table.get(key, 0) + i
        x = i * 0.013717
        writer.writerow([format(x, ".17g"), format(x * x, ".17g"), format(1 / x, ".17g")])
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    for row in rows:
        float(row[2])
    return perf_counter() - start


def _child(argv: list) -> tuple:
    """Run one interpreter to completion; return (seconds, returncode, stdout)."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
    )
    seconds = perf_counter() - start
    if proc.returncode != 0 and proc.stderr:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    return seconds, proc.returncode, proc.stdout


class Tally:
    """Attempted and failed outputs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                sys.stderr.write(f"failed: {reason}\n")


class Sampler:
    """Measures one kind of fresh-interpreter run; its metric is the median.

    The value is the child's wall time as the parent sees it, or with
    ``inner`` the number the child prints (a span or a count inside the child).
    """

    def __init__(self, name: str, argv: list, check=None, inner: bool = False,
                 unit: str = "s"):
        self.name = name
        self.argv = argv
        self.check = check
        self.inner = inner
        self.unit = unit
        self.values = []

    def sample(self, tally: Tally, keep: bool = True):
        seconds, code, stdout = _child(self.argv)
        if code != 0:
            reason = f"{self.name}: interpreter exited with {code}"
        else:
            reason = _guarded(self.check, stdout) if self.check else None
        tally.record(reason)
        if keep:
            self.values.append(float(stdout) if self.inner and code == 0 else seconds)

    def median(self) -> float:
        return statistics.median(self.values)


def setup_sampler(workload: str, seed: int) -> Sampler:
    """A fresh interpreter that imports qcsym and builds the workload's
    inputs, up to where the first op would start."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=workload, seed=seed)
    return Sampler("setup_s", ["-c", code])


def rss_sampler(workload: str, seed: int) -> Sampler:
    """A fresh interpreter that sets up the workload, runs its first
    ``rss_ops`` ops with their checks and prints its peak resident memory.
    A fixed amount of work, so the figure does not grow with the ops a run
    has time for; the allocator is left as a user's process has it."""
    code = RSS_CODE.format(src=str(SRC), here=str(HERE), name=workload, seed=seed)
    return Sampler("peak_rss_mib", ["-c", code], inner=True, unit="MiB")


def _guarded(fn, *args):
    """Run a check; an exception is a failure reason, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:  # the run goes on and counts the failure
        return f"{type(exc).__name__}: {exc}"


def run_ops(work, seconds: float, tally: Tally, tracer, samplers: list, repeats: int) -> tuple:
    """Closed loop: one warm-up op, then ops back to back for ``seconds`` of op time.

    Each sampler runs once untimed first, then ``repeats`` times spread evenly
    over the loop, so its median sees the same stretch of box load as the
    ops, and a calibration chunk runs after every CALIBRATE_EVERY_S of op
    time. Returns (untraced op times, traced op times, calibration chunk
    times, loop seconds without the samplers and chunks). With a tracer, odd
    ops run traced, so both kinds see the same inputs and load.
    """
    plain, traced, chunks = [], [], []

    def one(i: int, trace: bool) -> float:
        start = perf_counter()
        try:
            result = tracer.run(work.run_op, i) if trace else work.run_op(i)
            reason = None
        except Exception as exc:  # counted as a failed op; the run goes on
            reason = f"op {i}: {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        tally.record(reason or _guarded(work.check, result))
        return elapsed

    for sampler in samplers:
        sampler.sample(tally, keep=False)
    chores = [s for _ in range(repeats) for s in samplers]
    gap = seconds / (len(chores) + 1)
    one(0, False)
    for _ in range(5):
        calibration_chunk()
    i = done = 0
    op_time = chore_time = 0.0
    start = perf_counter()
    while True:
        i += 1
        trace = tracer is not None and i % 2 == 1
        elapsed = one(i, trace)
        (traced if trace else plain).append(elapsed)
        op_time += elapsed
        if done < len(chores) and op_time >= gap * (done + 1):
            begun = perf_counter()
            chores[done].sample(tally)
            done += 1
            chore_time += perf_counter() - begun
        if op_time >= CALIBRATE_EVERY_S * (len(chunks) + 1):
            chunks.append(calibration_chunk())
            chore_time += chunks[-1]
        if (op_time >= seconds and done == len(chores) and plain and chunks
                and (tracer is None or traced)):
            break
    return plain, traced, chunks, perf_counter() - start - chore_time


def tail(times: list) -> tuple:
    """(value, percentile) of the tail: the p90, or with fewer than 110 samples
    the highest percentile that leaves TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, n // 10)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def run_workload(args) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    tally = Tally()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    import workloads

    work = workloads.make(args.workload, args.seed, args.corrupt)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        samplers = [Sampler("cli.import_s", ["-c", IMPORT_CODE], inner=True)]
    else:
        cold = ["-m", "qcsym.cli", *work.cli_argv(workdir)]
        samplers = [setup_sampler(args.workload, args.seed),
                    Sampler("cold_cli_s", cold, work.cli_check)]
    repeats = max(1, min(MAX_REPEATS, int(args.seconds // 3)))
    try:
        plain, traced, chunks, loop_s = run_ops(work, args.seconds, tally, tracer, samplers, repeats)
    finally:
        shutil.rmtree(workdir)
    if not args.trace:
        rss = rss_sampler(args.workload, args.seed)
        rss.sample(tally)  # the same inputs every time, so one run is enough
        samplers.append(rss)
    # traced runs report per-layer figures as measured, without the speed factor
    scale = 1.0 if args.trace else CALIBRATION_S / statistics.median(chunks)
    for sampler in samplers:
        put(sampler.name, sampler.median() * (scale if sampler.unit == "s" else 1.0),
            sampler.unit)
    notes = [f"{len(plain)} untraced ops in {loop_s:.2f} s"]
    if args.trace:
        notes.append(f"{len(traced)} traced ops")
        metrics.update(tracer.metrics())
        overhead = statistics.median(traced) - statistics.median(plain)
        put("trace.overhead_s", overhead, "s")
        put("trace.overhead_ratio", overhead / statistics.median(plain), "ratio")
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        notes.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        value, pct = tail(plain)
        notes.append(f"op_tail_s is the p{pct:.1f} of {len(plain)} samples")
        notes.append(
            f"speed factor {scale:.4f}: median calibration chunk "
            f"{statistics.median(chunks) * 1e3:.3f} ms of {len(chunks)}, "
            f"{CALIBRATION_S * 1e3:.3f} ms at the reference speed"
        )
        raw = {s.name: s.median() for s in samplers if s.unit == "s"}
        raw.update(op_p50_s=statistics.median(plain), op_tail_s=value)
        notes.append("raw " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())
                     + f", ops_per_s {len(plain) / loop_s:.6g} 1/s")
        put("op_p50_s", statistics.median(plain) * scale, "s")
        put("op_tail_s", value * scale, "s")
        put("ops_per_s", len(plain) / loop_s / scale, "1/s")
    notes.append(f"fail_ratio {tally.failed}/{tally.attempted}")
    for note in notes:
        print(f"# {args.workload}: {note}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Run each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, text=True,
                              timeout=10 * CHILD_TIMEOUT_S + args.seconds)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", help="replay only: pass this step id to verify_paper's "
                    "corrupt hook, to show that the replay gate fails")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.corrupt is not None and args.workload != "replay":
        ap.error("--corrupt applies only to --workload replay")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the ops, the calibration chunks and every fresh interpreter
    # (they inherit it), so the speed factor is measured where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "qcsym" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qcsym sources under {SRC}; run from a qcsym checkout\n")
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
