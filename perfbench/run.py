"""Layered benchmark of the ``mnlbandit`` CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times untraced ``mnlbandit run`` processes at ``MNL_THREADS=2``
for about ``--seconds`` seconds (at least three of them) and reports the
end-to-end metrics: replications and simulated steps per second, the set-up
time of ``mnlbandit gen`` and the peak RSS of a run.  ``--trace 1`` runs
``gen`` and ``run`` once each in-process under ``perfbench/trace_layers.py``
at ``MNL_THREADS=1`` and reports per-layer metrics from its spans, plus the
pool speed-up and the tracing overhead from untraced 1- and 2-worker runs.

Both modes check every output: exit code, the results CSV header and row
count, each row's fields (a ``phase-cap`` row is a failed replication), the
regret bounds and curve file of the regret workload, and that the CSV and
curve bytes of all runs of one master seed are identical whatever the worker
count and whether traced.  ``--trace 1`` also checks span coverage: the
traced sampler and exploitation steps add up to the CSV's ``steps`` column,
there is one top-level driver span per replication, and every span sits
inside the layer that calls it.  Metadata lines go to stdout
first; the last line is the JSON result.  The exit code is 0 only when every
check passed.  ``--smoke`` runs each workload with a few replications.

See ``perfbench/WORKLOADS.md`` for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Header of the ``mnlbandit-results-v1`` CSV format.
CSV_HEADER = "replication,seed,steps,success,set_size,phases,regret,status"

#: Worker processes of the timed runs (the machine the benchmark was sized on
#: has two CPUs; fixed so that results compare across machines).
WORKERS = 2

#: Set-up repetitions (``gen`` processes) per ``--trace 0`` run.
SETUP_REPEATS = 7

#: Runs of one benchmark run take master seeds ``seed * SEEDS_PER_RUN + i``.
SEEDS_PER_RUN = 1000

#: Minimum number of timed ``run`` processes per ``--trace 0`` run.
MIN_SAMPLES = 3

#: No new timed process is started once this much of a run has elapsed, so
#: that a run on a very slow machine still ends within three minutes.
RUN_BUDGET_S = 60.0

#: A child process still running after this long is killed (a failure).
CHILD_TIMEOUT_S = 90.0

CLI = ("-c", "import sys; from mnlbandit.cli import main; sys.exit(main())")
COMMON_ARGS = ("--delta", "0.1", "--tuning", "desk")
HARD_INSTANCE = ("--family", "lower-bound", "--n", "4", "--k", "2", "--gaps", "0.002,0.002")


@dataclass(frozen=True)
class Workload:
    """A fixed instance (``gen`` arguments) and mode (``run`` arguments)."""

    gen: Tuple[str, ...]
    mode: Tuple[str, ...]
    reps: int
    smoke_reps: int
    horizon: Optional[int] = None  # regret mode: writes a curve for rep 0


WORKLOADS: Dict[str, Workload] = {
    "hard-pac": Workload(HARD_INSTANCE, ("--mode", "pac"), reps=16, smoke_reps=4),
    "many-small": Workload(
        ("--family", "uniform", "--n", "8", "--k", "3", "--seed", "7"),
        ("--mode", "pac"),
        reps=400,
        smoke_reps=40,
    ),
    "wide-oracle": Workload(
        ("--family", "uniform", "--n", "20", "--k", "10", "--seed", "3"),
        ("--mode", "pac"),
        reps=4,
        smoke_reps=2,
    ),
    "regret-curve": Workload(
        HARD_INSTANCE,
        ("--mode", "regret", "--horizon", "1000000"),
        reps=10,
        smoke_reps=2,
        horizon=1_000_000,
    ),
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, bad arguments)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    rss_mb: float
    log: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: Sequence[str], env: Dict[str, str], cwd: str, log_path: str) -> Child:
    """Run ``argv`` to completion; wall time and peak RSS from ``wait4``.

    The RSS is the largest of the child and every descendant it waited for,
    so it covers the worker pool of a multi-worker run.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, text[-2000:])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_instance(path: str) -> Tuple[int, List[float], List[float]]:
    """``(k, r, v)`` from an instance file, parsed independently of the program."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep and not line.lstrip().startswith("#"):
                fields[key.strip()] = value.strip()
    r = [float(x) for x in fields["r"].split(",")]
    v = [float(x) for x in fields["v"].split(",")]
    return int(fields["k"]), r, v


def best_revenue(k: int, r: Sequence[float], v: Sequence[float]) -> float:
    """Optimal MNL revenue by enumeration (small instances only)."""
    best = 0.0
    for size in range(1, k + 1):
        for s in combinations(range(len(r)), size):
            best = max(best, sum(r[i] * v[i] for i in s) / (1.0 + sum(v[i] for i in s)))
    return best


@dataclass
class RunCheck:
    """Outcome of checking one ``run`` process's outputs."""

    failed: int
    steps: int
    successes: int
    digest: str
    problems: List[str]
    sidecar: Optional[dict] = None


def _row_ok(fields: List[str], rep: int, wl: Workload, k: int, theta_star: float) -> bool:
    try:
        steps, set_size, phases = int(fields[2]), int(fields[4]), int(fields[5])
        int(fields[1])
    except ValueError:
        return False
    if fields[0] != str(rep) or fields[3] not in ("0", "1") or steps < 1:
        return False
    if not (0 <= set_size <= k and phases >= 1):
        return False
    if wl.horizon is None:
        return fields[6] == "" and fields[7] == "ok"
    try:
        regret = float(fields[6])
    except ValueError:
        return False
    bound = theta_star * wl.horizon * (1.0 + 1e-9)
    return fields[7] in ("ok", "horizon") and steps == wl.horizon and 0.0 <= regret <= bound


def _check_curve(data: Optional[bytes], horizon: int, regret: float) -> Optional[str]:
    if data is None:
        return "regret curve missing"
    body = data.rstrip(b"\n")
    if data.count(b"\n") != horizon + 1 or not body.startswith(b"step,cum_regret\n"):
        return "regret curve has the wrong header or row count"
    step, _, value = body.rsplit(b"\n", 1)[-1].partition(b",")
    try:
        if int(step) != horizon or abs(float(value) - regret) > 1e-6 * max(1.0, regret):
            return "regret curve does not end at the replication's regret"
    except ValueError:
        return "regret curve has a malformed last row"
    return None


def check_run(
    child: Child, csv_path: str, curve_path: str, wl: Workload, reps: int,
    k: int, theta_star: float,
) -> RunCheck:
    """Check a finished ``run`` process against the results format and the workload."""
    if child.code != 0:
        return RunCheck(reps, 0, 0, "", [f"exit code {child.code}: {child.log.strip()}"])
    try:
        with open(csv_path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return RunCheck(reps, 0, 0, "", ["results CSV missing"])
    try:
        with open(csv_path + ".meta.json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError):
        return RunCheck(reps, 0, 0, "", ["results sidecar missing or malformed"])
    lines = raw.decode("utf-8", errors="replace").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != reps + 2:
        return RunCheck(reps, 0, 0, "", ["results CSV header or row count is wrong"])
    digest = hashlib.sha256(raw)
    failed = steps = successes = 0
    regret0 = 0.0  # replication 0 writes the regret curve
    for rep, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        if len(fields) != 8 or not _row_ok(fields, rep, wl, k, theta_star):
            failed += 1
            continue
        steps += int(fields[2])
        successes += fields[3] == "1"
        if rep == 0 and wl.horizon is not None:
            regret0 = float(fields[6])
    problems = [f"{failed} malformed or failed rows"] if failed else []
    if wl.horizon is not None:
        try:
            with open(curve_path, "rb") as fh:
                curve = fh.read()
        except OSError:
            curve = None
        problem = _check_curve(curve, wl.horizon, regret0)
        if problem:
            problems.append(problem)
            failed = max(failed, 1)
        else:
            digest.update(curve)
    return RunCheck(failed, steps, successes, digest.hexdigest(), problems, sidecar)


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


class Bench:
    """The inputs, scratch directory and failure tally of one benchmark run."""

    def __init__(self, root: str, name: str, wl: Workload, seed: int, reps: int) -> None:
        self.wl, self.seed, self.reps = wl, seed, reps
        self.work = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.instance_bytes: Optional[bytes] = None
        self.k, self.theta_star = 0, 0.0
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[int, str] = {}
        self.sidecar: dict = {}

    def master_seed(self, index: int) -> int:
        """``run --seed`` of the ``index``-th run: a function of the benchmark seed."""
        return self.seed * SEEDS_PER_RUN + index

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _child(self, args: Sequence[str], workers: int, tag: str, spans: Optional[str]) -> Child:
        """Run the CLI in the scratch directory.

        File arguments are names relative to it, so the outputs (the sidecar
        records the instance path) do not depend on where the checkout is.
        """
        prefix = CLI if spans is None else (os.path.join(HERE, "trace_layers.py"), spans)
        env = dict(self.env, MNL_THREADS=str(workers))
        return run_child([sys.executable, *prefix, *args], env, self.work, self.path(tag + ".log"))

    def gen(self, spans: Optional[str] = None) -> Child:
        """Write the workload's instance in a fresh process; check it is always the same."""
        name = "instance.traced.txt" if spans else "instance.txt"
        out = self.path(name)
        child = self._child(("gen", *self.wl.gen, "--out", name), 1, "gen", spans)
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            data = None
        if child.code != 0 or data is None:
            raise BenchError(f"gen failed with exit code {child.code}: {child.log.strip()}")
        if self.instance_bytes is None:
            self.instance_bytes = data
            self.k, r, v = read_instance(out)
            if self.wl.horizon is not None:
                self.theta_star = best_revenue(self.k, r, v)
        elif data != self.instance_bytes:
            raise BenchError("gen wrote a different instance for the same arguments")
        return child

    def run(
        self, workers: int, tag: str, seed: int, spans: Optional[str] = None
    ) -> Tuple[Child, RunCheck]:
        """One ``run`` of all replications; its outputs are checked and tallied.

        Runs of the same master seed must write identical CSV and curve bytes.
        """
        out, curve = self.path(tag + ".csv"), self.path(tag + ".curve.csv")
        for stale in (out, out + ".meta.json", curve):  # each run writes fresh files
            if os.path.exists(stale):
                os.unlink(stale)
        args = ["run", "--instance", "instance.txt", *self.wl.mode, *COMMON_ARGS,
                "--seed", str(seed), "--reps", str(self.reps), "--out", tag + ".csv"]
        if self.wl.horizon is not None:
            args += ["--curve-out", tag + ".curve.csv", "--curve-rep", "0"]
        child = self._child(args, workers, tag, spans)
        check = check_run(child, out, curve, self.wl, self.reps, self.k, self.theta_star)
        self.attempted += self.reps
        if check.digest:
            first = self.digests.setdefault(seed, check.digest)
            self.sidecar = self.sidecar or check.sidecar
            if check.digest != first:
                check.problems.append("outputs differ from an earlier run of the same seed")
                check.failed = self.reps
        self.tally(check.failed, [f"{tag}: {p}" for p in check.problems])
        return child, check

    def tally(self, failed: int, problems: Sequence[str]) -> None:
        self.failed += failed
        self.problems.extend(problems)

    def bytes_written(self, tag: str) -> int:
        names = (tag + ".csv", tag + ".csv.meta.json", tag + ".curve.csv")
        return sum(os.path.getsize(self.path(n)) for n in names if os.path.exists(self.path(n)))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(metrics: Dict[str, dict], name: str, unit: str, value: float,
           samples: Sequence[float]) -> None:
    """Store ``value``; print the quartiles and count of its per-process ``samples``."""
    q1, median, q3 = quartiles(samples)
    metrics[name] = {"value": value, "unit": unit}
    print(f"metric {name} value={value:.6g} unit={unit} "
          f"per-process median={median:.6g} q1={q1:.6g} q3={q3:.6g} n={len(samples)}")


def measure_end_to_end(b: Bench, seconds: float) -> Dict[str, dict]:
    """Untraced ``WORKERS``-worker runs for about ``seconds``, each with its own seed.

    Throughput is total replications (or CSV steps) over total wall time, so
    that the per-seed spread of work and the machine's timing noise both
    average out over the runs; set-up time and RSS are medians.
    """
    setup = [b.gen().wall_s for _ in range(SETUP_REPEATS)]
    samples: List[Tuple[Child, RunCheck]] = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > RUN_BUDGET_S:
            break
        child, check = b.run(WORKERS, "run", b.master_seed(len(samples)))
        if check.failed:
            return {}
        samples.append((child, check))
    wall = sum(c.wall_s for c, _ in samples)
    metrics: Dict[str, dict] = {}
    report(metrics, "reps_per_s", "1/s", b.reps * len(samples) / wall,
           [b.reps / c.wall_s for c, _ in samples])
    report(metrics, "steps_per_s", "1/s", sum(k.steps for _, k in samples) / wall,
           [k.steps / c.wall_s for c, k in samples])
    report(metrics, "setup_s", "s", statistics.median(setup), setup)
    rss = [c.rss_mb for c, _ in samples]
    report(metrics, "peak_rss_mb", "MB", statistics.median(rss), rss)
    successes = sum(k.successes for _, k in samples)
    print(f"quality success_rate={successes / b.attempted:.6g} "
          f"error_rate={b.failed / b.attempted:.6g} reps={b.attempted} runs={len(samples)}")
    return metrics


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

ESTIMATOR_SPANS = ("estimators.naive", "estimators.rough", "estimators.adaptive",
                   "estimators.reduced", "estimators.reg")


def span_table(spans: Sequence[list]) -> List[tuple]:
    """``(name, duration, self time, attrs, layers above)`` per span.

    A span's self time is its duration minus the durations of its direct
    children (one thread, so children never overlap).  The layers above are
    the name prefixes (``driver``, ``estimators``, ...) of its enclosing spans.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    above: List[frozenset] = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is None:
            above.append(frozenset())
        else:
            child_time[parent] += duration[i]
            above.append(above[parent] | {spans[parent][0].split(".")[0]})
    return [
        (name, duration[i], duration[i] - child_time[i], attrs, above[i])
        for i, (name, _, _, _, attrs) in enumerate(spans)
    ]


def top_drivers(table: Sequence[tuple]) -> List[tuple]:
    """Driver spans with no driver span above them: one per replication."""
    return [row for row in table if row[0].startswith("driver.") and "driver" not in row[4]]


#: Span name prefix -> layers of which one must enclose it.  The program calls
#: each of these only from those layers, so a span outside them means a
#: binding site of its caller was left unwrapped.
SPAN_NESTING = (
    ("instances.generate", ("cli",)),
    ("oracle.margin", ("instances",)),
    ("env.init", ("cli",)),
    ("env.curve", ("cli",)),
    ("driver.", ("cli",)),
    ("estimators.", ("driver",)),
    ("env.sample", ("estimators",)),
    ("env.advance", ("driver",)),
    ("oracle.brute_force", ("env",)),
    ("oracle.fractional", ("env", "estimators", "driver")),
)


def span_coverage(table: Sequence[tuple], csv_steps: int, reps: int) -> List[str]:
    """Problems with the coverage of a traced run's spans (empty when complete)."""
    problems = []
    sample = sum(row[3]["steps"] for row in table if row[0] in ("env.sample", "env.advance"))
    if sample != csv_steps:
        problems.append(f"traced sampler and advance steps {sample} != CSV steps {csv_steps}")
    drivers = len(top_drivers(table))
    if drivers != reps:
        problems.append(f"{drivers} top-level driver spans != {reps} replications")
    for prefix, layers in SPAN_NESTING:
        stray = sum(1 for row in table if row[0].startswith(prefix) and not row[4] & set(layers))
        if stray:
            problems.append(f"{stray} {prefix} spans outside any {'/'.join(layers)} span")
    return [f"span coverage: {p}" for p in problems]


def layer_metrics(gen: Sequence[tuple], run: Sequence[tuple]) -> Dict[str, float]:
    """Per-layer values of one traced ``gen`` and one traced 1-worker ``run``."""
    both = list(gen) + list(run)

    def total(name: str) -> float:
        return sum(row[1] for row in both if row[0] == name)

    def own(name: str) -> float:
        return sum(row[2] for row in both if row[0] == name)

    def calls(name: str) -> int:
        return sum(1 for row in both if row[0] == name)

    def attrs(name: str) -> List[dict]:
        return [row[3] for row in run if row[0] == name]

    samples, advances = attrs("env.sample"), attrs("env.advance")
    drivers = top_drivers(run)
    results = [row[3] for row in drivers]  # attrs of each replication's RunResult
    run_s = [row[1] for row in drivers]
    p50 = statistics.median(run_s) if run_s else 0.0
    p90 = statistics.quantiles(run_s, n=10)[8] if len(run_s) > 1 else p50
    main = [row for row in run if row[0] == "cli.main"]
    sample_s = own("env.sample")
    epochs = sum(a["completed"] for a in samples)
    requested = sum(a["requested"] for a in samples)
    sample_steps = sum(a["steps"] for a in samples)
    est_calls = sum(calls(name) for name in ESTIMATOR_SPANS)
    pending = sum(r["pending"] for r in results)
    return {
        "instances.generate_s": total("instances.generate"),
        "instances.draws": calls("oracle.margin") / max(1, calls("instances.generate")),
        "oracle.margin_s": total("oracle.margin"),
        "oracle.brute_force_s": total("oracle.brute_force"),
        "oracle.brute_force_calls": calls("oracle.brute_force"),
        "oracle.fractional_s": total("oracle.fractional"),
        "oracle.fractional_calls": calls("oracle.fractional"),
        "oracle.fractional_us": 1e6 * total("oracle.fractional") / max(1, calls("oracle.fractional")),
        "env.init_s": own("env.init"),
        "env.sample_s": sample_s,
        "env.sample_calls": len(samples),
        "env.sample_epochs": epochs,
        "env.sample_steps": sample_steps,
        "env.sample_draws": sum(a["requested"] * (a["tracked"] + 1) for a in samples),
        "env.ns_per_epoch": 1e9 * sample_s / max(1, epochs),
        "env.sample_steps_per_s": sample_steps / sample_s if sample_s > 0 else 0.0,
        "env.truncated_calls": sum(1 for a in samples if a["truncated"]),
        "env.completed_ratio": epochs / requested if requested else 0.0,
        "env.advance_steps": sum(a["steps"] for a in advances),
        "env.curve_s": total("env.curve"),
        "env.ledger_segments": sum(r["segments"] for r in results),
        "estimators.calls": est_calls,
        "estimators.rough_s": own("estimators.rough"),
        "estimators.adaptive_s": own("estimators.adaptive"),
        "estimators.reg_s": own("estimators.reg"),
        "estimators.ci_theta_s": own("estimators.ci_theta"),
        "estimators.epochs_per_call": requested / max(1, est_calls),
        "driver.runs": len(drivers),
        "driver.run_s.p50": p50,
        "driver.run_s.p90": p90,
        "driver.self_s": sum(row[2] for row in run if row[0].startswith("driver.")),
        "driver.phases": sum(r["phases"] for r in results),
        "driver.decided_ratio": sum(r["decided"] for r in results) / pending if pending else 0.0,
        "cli.main_s": sum(row[1] for row in main),
        "cli.serial_s": sum(row[2] for row in main),
    }


#: Unit of every per-layer metric.  Counts marked exact in WORKLOADS.md are
#: computed from call arguments and outputs, so they repeat exactly per seed.
PER_LAYER_UNITS = {
    "instances.generate_s": "s",
    "instances.draws": "count",
    "oracle.margin_s": "s",
    "oracle.brute_force_s": "s",
    "oracle.brute_force_calls": "count",
    "oracle.fractional_s": "s",
    "oracle.fractional_calls": "count",
    "oracle.fractional_us": "us",
    "env.init_s": "s",
    "env.sample_s": "s",
    "env.sample_calls": "count",
    "env.sample_epochs": "count",
    "env.sample_steps": "count",
    "env.sample_draws": "count",
    "env.ns_per_epoch": "ns",
    "env.sample_steps_per_s": "1/s",
    "env.truncated_calls": "count",
    "env.completed_ratio": "ratio",
    "env.advance_steps": "count",
    "env.curve_s": "s",
    "env.ledger_segments": "count",
    "estimators.calls": "count",
    "estimators.rough_s": "s",
    "estimators.adaptive_s": "s",
    "estimators.reg_s": "s",
    "estimators.ci_theta_s": "s",
    "estimators.epochs_per_call": "count",
    "driver.runs": "count",
    "driver.run_s.p50": "s",
    "driver.run_s.p90": "s",
    "driver.self_s": "s",
    "driver.phases": "count",
    "driver.decided_ratio": "ratio",
    "driver.success_rate": "ratio",
    "cli.main_s": "s",
    "cli.serial_s": "s",
    "cli.bytes_written": "count",
    "cli.pool_speedup": "ratio",
    "trace.overhead_s": "s",
}


def _load_trace(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def measure_layers(b: Bench, seconds: float) -> Dict[str, dict]:
    """One traced gen and 1-worker run, then untraced 1- and 2-worker runs."""
    start = time.perf_counter()
    b.gen()
    b.gen(spans="gen.spans.json")
    seed = b.master_seed(0)
    traced, check = b.run(1, "traced", seed, spans="run.spans.json")
    if check.failed:
        return {}
    run_trace = _load_trace(b.path("run.spans.json"))
    gen = span_table(_load_trace(b.path("gen.spans.json"))["spans"])
    run = span_table(run_trace["spans"])
    coverage = span_coverage(gen + run, check.steps, b.reps)
    if coverage:
        b.tally(b.reps, coverage)
    values = layer_metrics(gen, run)
    values["driver.success_rate"] = check.successes / b.reps
    values["cli.bytes_written"] = b.bytes_written("traced")

    walls: Dict[int, List[float]] = {1: [], WORKERS: []}
    while not walls[1] or time.perf_counter() - start < seconds:
        for workers in walls:
            child, check = b.run(workers, f"run{workers}", seed)
            if check.failed:
                return {}
            walls[workers].append(child.wall_s)
        if time.perf_counter() - start > RUN_BUDGET_S:
            break
    one = statistics.median(walls[1])
    values["cli.pool_speedup"] = one / statistics.median(walls[WORKERS])
    values["trace.overhead_s"] = traced.wall_s - one
    print(f"trace traced_wall_s={traced.wall_s:.6g} untraced_1w_wall_s={one:.6g} "
          f"overhead_s={traced.wall_s - one:.6g} pairs={len(walls[1])} "
          f"binding_sites={run_trace['binding_sites']} spans={len(run_trace['spans'])}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# ---------------------------------------------------------------------------
# Metadata and entry point
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> Dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"l{level}"] = size
    except OSError:
        pass
    return sizes


def _git_sha(root: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(package: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def metadata(root: str, b: Bench, name: str, trace: int) -> dict:
    return {
        "workload": name,
        "seed": b.seed,
        "reps": b.reps,
        "workers": 1 if trace else WORKERS,
        "master_seeds": sorted(b.digests),
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(os.path.join(root, "src", "mnlbandit")),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": b.sidecar.get("python_version", platform.python_version()),
        "numpy": b.sidecar.get("numpy_version"),
        "rng_algorithm": b.sidecar.get("rng_algorithm"),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the mnlbandit CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="non-negative workload seed")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="run a few replications only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mnlbandit", "cli.py")):
        print("error: run from the root of an mnlbandit source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    b = Bench(root, args.workload, wl, args.seed, wl.smoke_reps if args.smoke else wl.reps)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        try:
            metrics = measure(b, args.seconds)
        except BenchError as exc:
            b.attempted += b.reps
            b.tally(b.reps, [str(exc)])
            metrics = {}
        print("meta " + json.dumps(metadata(root, b, args.workload, args.trace), sort_keys=True))
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(b.work))
        except OSError:
            pass
    for problem in b.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not b.problems and b.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
