"""Benchmark CLI: generate instances, solve, run replications, summarize.

Subcommands
-----------
* ``gen``        — draw an instance from a named family, write a ``.inst`` file;
* ``oracle``     — print the exact optimum (and per-item gaps) of an instance;
* ``run``        — run seeded replications on an instance file, write CSV + sidecar;
* ``summarize``  — aggregate one or more results CSVs into a summary table.

Tuning: ``run`` takes its `Tuning` whole from the profile that ``--tuning``
names, ``paper`` (the default) or ``desk``; other multipliers are set through
the library.

Determinism: with a fixed ``--seed``, results CSVs are byte-identical across
runs and across worker counts (rows are computed in independent per-index
streams and written in replication order).  Timestamps appear only in the
JSON sidecar, never in the CSV.  Replication 0 runs in this process, and
its time sizes, once, the pool that runs the rest: more than this process
only when the pool's projected saving exceeds its start-up cost.
``MNL_THREADS`` caps the pool's processes (default: the CPUs this process may
use).  The pool is this process and children forked from it (on Linux only;
elsewhere every replication runs here): each process runs a strided share of
the remaining replications, and each child sends its outcomes back as one
pickle.

Start-up: a process pays only for its own command.  Importing this module
loads no numpy, and sets ``OPENBLAS_NUM_THREADS=1`` unless it is already
set, so that numpy, once a command loads it, starts no BLAS worker thread.
``gen`` and ``summarize`` load no numpy at all (a random family draws
numpy's stream in integer arithmetic, and ``summarize`` takes numpy's means,
medians and percentiles by numpy's rules on Python numbers); ``gen``,
``oracle`` and ``summarize`` load neither the simulator layers nor OpenSSL;
and ``main()`` as the process entry, once the command has imported what it
uses, freezes the import heap out of the garbage collector's reach.

Exit codes: 0 = success, 1 = usage error, 2 = runtime failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple,
)

# Every vector here holds at most n items, far below the size where BLAS
# threads pay; OpenBLAS's worker thread would only spin beside the main one.
# Set before numpy loads; a value the user set wins, and pool workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .instances import (
    FAMILIES,
    generate_instance,
    read_instance,
    write_instance,
)
from .model import Instance

if TYPE_CHECKING:
    from .driver import RunResult
    from .env import Environment, RegretLedger

__all__ = ["main"]

MODES = ("pac", "pac-eps", "regret")
#: The phase estimators `driver.pac_exact` runs by name, spelled out here
#: because building the parser loads no simulator layer.
ESTIMATORS = ("naive", "reduced", "adaptive", "reg")

#: Results CSV schema, bumped together with the sidecar ``format`` tag.
CSV_COLUMNS = (
    "replication",
    "seed",
    "steps",
    "success",
    "set_size",
    "phases",
    "regret",
    "status",
)
RESULTS_FORMAT = "mnlbandit-results-v1"

#: The largest ``--horizon``, a chosen cap keeping ``delta = 1 / horizon`` far above
#: `driver._check_delta`'s floor; exploiting ``S*`` then adds exactly 0 regret.
MAX_HORIZON = 2**63 - 1

#: Seconds a worker pool costs before it saves any, weighed once per run
#: against replication 0's time.  Forking a child, reading its result back and
#: reaping it takes about 2.5 ms, but each child then pays copy-on-write
#: faults on the pages it touches, and on a 2-vCPU Xeon VM two processes ran
#: many-small replications at only 0.9-1.8x the speed of one as the host's
#: load varied; the constant budgets both.
POOL_STARTUP_S = 0.05


class UsageError(Exception):
    """Bad flags or parameter combinations (exit code 1)."""


def _seed(text: str) -> int:
    """A seed flag's value: a non-negative integer, as ``SeedSequence`` needs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _refuse_overwrites(inputs, outputs) -> None:
    """Refuse, as a usage error, an output that names an input or an earlier
    output once both paths are resolved (`os.path.realpath`); inputs may repeat.
    Each entry is ``(label, path)``; a ``None`` path is skipped."""
    taken = {os.path.realpath(path): f"{label} {path}" for label, path in inputs}
    for label, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in taken:
            raise UsageError(f"{label} {path} names the same file as {taken[real]}")
        taken[real] = f"{label} {path}"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mnlbandit", description=__doc__ and __doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--k", required=True, type=int)
    gen.add_argument("--seed", type=_seed, help="generator seed (random families)")
    gen.add_argument(
        "--gaps",
        type=str,
        help="comma-separated gap per item beyond the capacity (lower-bound family)",
    )
    gen.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="print the exact optimum of an instance")
    orc.add_argument("--instance", required=True)

    run = sub.add_parser("run", help="run seeded replications of a driver")
    run.add_argument("--instance", required=True, help="instance file path (see gen)")
    run.add_argument("--mode", required=True, choices=MODES)
    run.add_argument("--delta", type=float, default=0.1)
    run.add_argument("--eps", type=float)
    run.add_argument("--horizon", type=int)
    run.add_argument("--reps", type=int, default=1)
    run.add_argument("--seed", type=_seed, required=True, help="master seed")
    run.add_argument("--estimator", choices=ESTIMATORS)
    run.add_argument("--tuning", choices=("paper", "desk"), default="paper")
    run.add_argument("--out", required=True, help="results CSV path")
    run.add_argument("--curve-out", help="regret-curve CSV path (mode=regret)")
    run.add_argument(
        "--curve-rep",
        type=int,
        help="replication whose curve goes to --curve-out (default 0)",
    )

    summ = sub.add_parser("summarize", help="aggregate results CSVs")
    summ.add_argument("--results", required=True, nargs="+")
    summ.add_argument("--out", help="summary CSV path (default stdout)")

    return parser


# ---------------------------------------------------------------------------
# gen / oracle
# ---------------------------------------------------------------------------


def _parse_gaps(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed --gaps list: {exc}") from exc


def _import_numpy_random() -> None:
    """Import ``numpy.random`` for ``run`` without loading OpenSSL (``gen``
    and ``summarize`` load no numpy: they compute on Python numbers).

    ``numpy.random`` imports ``secrets`` (entropy for unseeded generators),
    whose ``hmac`` loads OpenSSL through ``_hashlib``: 3.4 MB resident and
    about 8 ms on a 2-CPU Xeon VM, in a process whose streams are all seeded
    and which hashes nothing.  ``_hashlib`` is hidden for that one import, so
    ``hashlib`` and ``hmac`` fall back to CPython's built-in hashes; both are
    then forgotten, so that a later import gets the usual modules.  This acts
    only if no module of the package touched ``numpy.random`` at import time
    (``tests/test_cli.py`` checks that ``import mnlbandit.cli`` does not).
    """
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return
    sys.modules["_hashlib"] = None  # type: ignore[assignment]
    try:
        import numpy.random  # noqa: F401
    finally:
        for name in ("_hashlib", "hashlib", "hmac"):
            sys.modules.pop(name, None)


def _cmd_gen(args, loaded: Callable[[], None]) -> int:
    """Draw an instance from its family's flags and write it, with the
    metadata that records the draw, to ``--out``."""
    meta = {"family": args.family}
    gaps = _parse_gaps(args.gaps) if args.gaps is not None else None
    if args.family == "lower-bound":
        if gaps is None:
            raise UsageError("the lower-bound family requires --gaps")
        if args.seed is not None:
            raise UsageError("--seed does not apply to the lower-bound family")
        meta["gaps"] = ", ".join(format(g, ".17g") for g in gaps)
    else:
        if args.seed is None:
            raise UsageError(f"the {args.family} family requires --seed")
        if gaps is not None:
            raise UsageError("--gaps applies only to the lower-bound family")
        meta["seed"] = str(args.seed)
    loaded()
    inst = generate_instance(args.family, args.n, args.k, seed=args.seed, gaps=gaps)
    write_instance(args.out, inst, meta)
    return 0


def _cmd_oracle(args, loaded: Callable[[], None]) -> int:
    from .oracle import suboptimality_gaps

    loaded()
    inst, _ = read_instance(args.instance)
    opt, gaps = suboptimality_gaps(inst)
    lines = [
        f"n = {inst.n}",
        f"k = {inst.k}",
        f"theta_star = {format(opt.theta_star, '.17g')}",
        "s_star = " + (", ".join(str(i) for i in opt.s_star) if opt.s_star else "(empty)"),
    ]
    for i in sorted(gaps):
        lines.append(f"gap.{i} = {format(gaps[i], '.17g')}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


class RunJob(NamedTuple):
    """Everything a replication needs besides its index: ``drive`` is the
    mode's driver with all but the environment bound; ``eps`` grades a
    ``pac-eps`` run, and ``horizon`` budgets a ``regret`` run's environment."""

    inst: Instance
    master_seed: int
    drive: Callable[[Environment], RunResult]
    eps: Optional[float]
    horizon: Optional[int]
    curve_rep: Optional[int]  # the replication whose regret curve is kept


class Outcome(NamedTuple):
    """One replication's CSV row and, for ``RunJob.curve_rep``, its regret
    ledger, whose dense curve `_cmd_run` expands outside the timed span."""

    row: Dict[str, str]
    ledger: Optional[RegretLedger]


def _replicate(job: RunJob, rep: int) -> Outcome:
    """Run one replication on a fresh environment and grade it: its steps and
    regret are the environment's ledger, its success an exact match with the
    optimum (a revenue shortfall of at most ``eps`` for ``pac-eps``).  It
    imports only what `_cmd_run` has loaded, so replication 0 times no import."""
    from .env import Environment, fork_stream, generator_digest

    rng = fork_stream(job.master_seed, rep)
    env = Environment(job.inst, rng, horizon=job.horizon)
    result = job.drive(env)
    opt = env.oracle_solution()
    if job.eps is not None:
        success = opt.theta_star - env.true_revenue(result.assortment) <= job.eps
    else:
        success = result.assortment == opt.s_star
    row = {
        "replication": str(rep),
        "seed": str(generator_digest(rng)),
        "steps": str(env.ledger.steps),
        "success": "1" if success else "0",
        "set_size": str(len(result.assortment)),
        "phases": str(len(result.phases)),
        "regret": repr(env.ledger.cum_regret) if job.horizon is not None else "",
        "status": result.status,
    }
    return Outcome(row, env.ledger if rep == job.curve_rep else None)


def _worker_count() -> int:
    """The largest pool ``run`` may start: ``MNL_THREADS``, else the CPUs in
    this process's affinity mask; 1 off Linux, where the pool does not fork."""
    raw = os.environ.get("MNL_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise UsageError(f"MNL_THREADS must be an integer, got {raw!r}") from exc
        if cap < 1:
            raise UsageError("MNL_THREADS must be >= 1")
    if sys.platform != "linux":  # the pool forks, which only Linux supports here
        return 1
    return cap if raw else len(os.sched_getaffinity(0))


def _pool_size(rep_s: float, left: int, workers: int) -> int:
    """Processes to run ``left`` more replications of about ``rep_s`` seconds
    each: a pool of ``w = min(workers, left)`` once its projected saving,
    ``rep_s × left × (1 − 1/w)``, exceeds ``POOL_STARTUP_S``; else this one.

    The projection is a best case: it takes ``w`` processes to run ``w``
    times as fast, which a shared host need not grant (README measures it).
    ``rep_s`` is one timing, so runs of a command whose saving sits near
    ``POOL_STARTUP_S`` may size their pools differently: their sidecars'
    ``workers`` and ``wall_s`` differ, their CSV bytes do not.
    ``MNL_THREADS=1`` skips the fork.
    """
    w = min(workers, left)
    return w if w > 1 and rep_s * left * (1 - 1 / w) > POOL_STARTUP_S else 1


def _run_replications(job: RunJob, reps: int, workers: int) -> Tuple[List[Outcome], int]:
    """Run replications ``0 .. reps-1``; return their outcomes in order and the
    number of processes that ran them at once (1, or the pool's size).

    Replication 0 runs in this process, which so pays the one-off costs
    (``numpy.random``, the instance's optimum and plan table) once; forked
    workers inherit them.  Its time, an overestimate of a warm replication's,
    sizes once the pool that runs the rest (``_pool_size``).
    """
    start = time.perf_counter()
    first = _replicate(job, 0)
    size = _pool_size(time.perf_counter() - start, reps - 1, workers)
    return [first] + _run_in_pool(job, range(1, reps), size), size


def _run_in_pool(job: RunJob, indices: range, workers: int) -> List[Outcome]:
    """Run ``indices`` in ``workers`` processes: this one and ``workers - 1``
    children forked from it, which inherit its warm state.  Process ``j``
    runs the strided share ``indices[j::workers]``; replications on one
    instance cost alike, so the shares balance; a pool of one forks nothing.
    Returns the outcomes in the order of ``indices``.

    A child's exception is raised here unchanged; a child that ends without a
    result raises `RuntimeError`.  However this ends, no child outlives it.
    """
    import pickle

    children: List[Tuple[int, int, int]] = []  # (worker, pid, read end of its pipe)
    try:
        for j in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_share(job, indices[j::workers], write_fd)
            os.close(write_fd)
            children.append((j, pid, read_fd))
        shares = [[_replicate(job, rep) for rep in indices[0::workers]]]
        while children:
            j, pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            os.close(read_fd)
            code = os.waitstatus_to_exitcode(status)
            if code < 0:
                raise RuntimeError(f"worker {j} was killed by signal {-code} before its result")
            if code > 0:
                raise RuntimeError(f"worker {j} exited with status {code} before its result")
            share = pickle.loads(data)
            if isinstance(share, BaseException):
                raise share
            shares.append(share)
    finally:
        for _, pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, 9)  # SIGKILL: the pool forks only on Linux
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(len(indices))]


def _run_share(job: RunJob, share: range, write_fd: int) -> NoReturn:
    """A forked child's whole life: run ``share``, write one pickle of its
    outcomes, or of the exception that stopped it, to ``write_fd``, and leave
    with `os._exit`, so that the child never returns into its parent's code
    (its ``finally`` blocks, buffered output or exit handlers)."""
    import pickle

    status = 1
    try:
        try:
            result: object = [_replicate(job, rep) for rep in share]
        except Exception as exc:
            result = exc
        with open(write_fd, "wb") as fh:
            pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _cmd_run(args, loaded: Callable[[], None]) -> int:
    # the simulator layers and the output formats load only for this command
    import csv
    import json
    from datetime import datetime, timezone

    import numpy as np

    from .driver import pac_eps, pac_exact, regret_min
    from .env import RNG_ALGORITHM_ID, SamplerLimitError
    from .estimators import C0, C2, DESK_TUNING, PAPER_TUNING

    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.mode == "pac-eps":
        if args.eps is None:
            raise UsageError("--eps is required for mode=pac-eps")
        if args.estimator not in (None, "adaptive"):
            raise UsageError("mode=pac-eps supports only the adaptive estimator")
    elif args.eps is not None:
        raise UsageError("--eps applies only to mode=pac-eps")
    if args.mode == "regret":
        if args.horizon is None:
            raise UsageError("--horizon is required for mode=regret")
        if args.estimator not in (None, "reg"):
            raise UsageError(f"--estimator {args.estimator} does not apply to mode=regret, "
                             "which runs the reg estimator")
        if args.horizon > MAX_HORIZON:
            raise ValueError(f"--horizon {args.horizon} exceeds the limit {MAX_HORIZON}")
    elif args.horizon is not None:
        raise UsageError("--horizon applies only to mode=regret")
    curve_rep = None
    if args.curve_out is not None:
        if args.mode != "regret":
            raise UsageError("--curve-out applies only to mode=regret")
        curve_rep = 0 if args.curve_rep is None else args.curve_rep
        if not (0 <= curve_rep < args.reps):
            raise UsageError("--curve-rep must name one of the replications")
    elif args.curve_rep is not None:
        raise UsageError("--curve-rep applies only with --curve-out")
    estimator = args.estimator or ("reg" if args.mode == "regret" else "adaptive")
    tuning = DESK_TUNING if args.tuning == "desk" else PAPER_TUNING
    if args.mode == "regret":
        drive = partial(regret_min, tuning=tuning)
    elif args.mode == "pac-eps":
        drive = partial(pac_eps, delta=args.delta, eps=args.eps, tuning=tuning)
    else:
        drive = partial(pac_exact, delta=args.delta, tuning=tuning, estimator=estimator)
    max_workers = _worker_count()
    _import_numpy_random()
    loaded()

    _refuse_overwrites(
        [("--instance", args.instance)],
        [("--out", args.out), ("the sidecar", args.out + ".meta.json"),
         ("--curve-out", args.curve_out)],
    )
    inst, inst_meta = read_instance(args.instance)
    for path in filter(None, (args.out, args.curve_out)):  # fail before replication 0
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"{path}: no such directory {folder!r}")
    job = RunJob(inst, args.seed, drive, args.eps, args.horizon, curve_rep)

    start = time.perf_counter()
    try:
        outcomes, workers = _run_replications(job, args.reps, max_workers)
    except SamplerLimitError as exc:
        raise SamplerLimitError(f"{exc} at --tuning {args.tuning}") from None
    wall_s = time.perf_counter() - start
    # before any file is written, so that a curve too large to expand leaves none
    curve = None if curve_rep is None else outcomes[curve_rep].ledger.curve()

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
        writer.writeheader()
        writer.writerows(row for row, _ in outcomes)

    if args.curve_out is not None:
        with open(args.curve_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["step", "cum_regret"])
            for t, value in enumerate(curve, start=1):
                writer.writerow([t, repr(float(value))])

    sidecar = {
        "format": RESULTS_FORMAT,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "workers": workers,
        "wall_s": wall_s,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "rng_algorithm": RNG_ALGORITHM_ID,
        "config": {
            "mode": args.mode,
            # regret_min runs at delta = 1/horizon, whatever --delta says
            "delta": 1.0 / args.horizon if args.mode == "regret" else args.delta,
            "eps": args.eps,
            "horizon": args.horizon,
            "reps": args.reps,
            "master_seed": args.seed,
            "estimator": estimator,
            "tuning": {
                "c0": C0,
                "c2": C2,
                "tau_scale": tuning.tau_scale,
                "rough_tau_scale": tuning.rough_tau_scale,
                "ci_scale": tuning.ci_scale,
            },
            "instance": {
                "source": args.instance,
                "meta": inst_meta,
                "n": inst.n,
                "k": inst.k,
                "r": [format(x, ".17g") for x in inst.r],
                "v": [format(x, ".17g") for x in inst.v],
            },
        },
    }
    with open(args.out + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

SUMMARY_COLUMNS = (
    "file",
    "rows",
    "success_rate",
    "steps_median",
    "steps_mean",
    "steps_p10",
    "steps_p90",
    "phases_median",
    "regret_median",
)


def _count(text: str) -> int:
    """A results field that `run` writes as a non-negative integer, in
    ``str(int)``'s own spelling: no sign, space, underscore or leading zero."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"count {text!r} is not written as run writes it")
    if value < 0:
        raise ValueError(f"negative count {text!r}")
    return value


def _regret(text: str) -> float:
    """A results ``regret`` that `run` writes, ``repr`` of a finite float."""
    value = float(text)
    if repr(value) != text:
        raise ValueError(f"regret {text!r} is not written as run writes it")
    if not math.isfinite(value):
        raise ValueError(f"regret {text!r} is not finite")
    return value


def _summary_numbers(steps: List[float], success: List[int], phases: List[float],
                     regret: List[float]) -> Dict[str, Optional[float]]:
    """The numeric summary columns of a results file's rows (at least one),
    computed on Python numbers by numpy's own rules, so that each is what
    ``numpy.mean``, ``numpy.median`` or ``numpy.percentile`` returns:

    * a median is numpy's mean of the sorted values' middle one, ``0.0 + m``,
      or middle two, ``(0.0 + a + b) / 2``: numpy's sums start from +0.0, so a
      median of -0.0 reads 0.0, and ties of -0.0 and 0.0 cannot change it;
    * ``steps_p10`` and ``steps_p90`` follow numpy's default ``linear`` rule:
      with ``h = (n - 1) * (q / 100)`` and ``t = h - floor(h)``, between the
      sorted value ``a`` at ``floor(h)`` and ``b`` after it (``a`` again past
      the end), the value is ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)``
      when ``t >= 0.5``;
    * a mean is the sum, rounded once (`math.fsum`), over the count.

    Order statistics equal numpy's bit for bit on any finite values; a p10 or
    p90 of a single -0.0 would read 0.0, but steps are never negative.  A
    mean equals numpy's whenever numpy's float sum is exact (every partial
    sum an integer within 2**53); beyond that numpy's pairwise sum can round
    differently in the last bit, but not in the ``.6g`` summary bytes of
    ``tests/test_cli.py``'s seeded grid.
    """

    def median(values: List[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return 0.0 + ordered[mid]
        return (0.0 + ordered[mid - 1] + ordered[mid]) / 2

    def percentile(ordered: List[float], q: int) -> float:
        h = (len(ordered) - 1) * (q / 100)
        i = math.floor(h)
        t = h - i
        a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    ordered = sorted(steps)
    return {
        "success_rate": sum(success) / len(success),
        "steps_median": median(ordered),
        "steps_mean": math.fsum(steps) / len(steps),
        "steps_p10": percentile(ordered, 10),
        "steps_p90": percentile(ordered, 90),
        "phases_median": median(phases),
        "regret_median": median(regret) if regret else None,
    }


def _summarize_file(path: str) -> Optional[Dict[str, str]]:
    """One summary row of a results file, or None for a header alone.  Each
    row must be one `run` writes: ``len(CSV_COLUMNS)`` fields, non-negative
    integer ``steps`` and ``phases`` spelled as ``str(int)`` spells them, a
    ``success`` of 0 or 1, and an empty or finite ``regret`` spelled as
    ``repr(float)`` spells it, which may sit just below 0 (see
    `RegretLedger`).  Its columns are `_summary_numbers` in ``.6g``: numpy's
    means, medians and percentiles, computed without numpy, equal to numpy's
    bit for bit but for a mean's last bit once the steps total past 2**53."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or set(CSV_COLUMNS) - set(header):
            raise ValueError(f"{path}: missing results columns")
        steps: List[float] = []
        success: List[int] = []
        phases: List[float] = []
        regret: List[float] = []
        for fields in reader:
            if not fields:  # a blank line holds no row
                continue
            try:
                if len(fields) != len(CSV_COLUMNS):
                    raise ValueError(f"{len(fields)} fields, not {len(CSV_COLUMNS)}")
                row = dict(zip(header, fields))
                if row["success"] not in ("0", "1"):
                    raise ValueError(f"success {row['success']!r} is not 0 or 1")
                steps.append(float(_count(row["steps"])))
                phases.append(float(_count(row["phases"])))
                success.append(int(row["success"]))
                if row["regret"]:
                    regret.append(_regret(row["regret"]))
            except (ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path}: line {reader.line_num}: malformed row ({exc})"
                ) from exc
    if not steps:
        return None
    numbers = _summary_numbers(steps, success, phases, regret)
    return {
        "file": os.path.basename(path),
        "rows": str(len(steps)),
        **{name: "" if x is None else format(x, ".6g") for name, x in numbers.items()},
    }


def _cmd_summarize(args, loaded: Callable[[], None]) -> int:
    import csv

    loaded()
    _refuse_overwrites([("--results", path) for path in args.results], [("--out", args.out)])
    rows = [row for row in map(_summarize_file, args.results) if row is not None]
    target = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(target, fieldnames=list(SUMMARY_COLUMNS), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            target.close()
    return 0


# ---------------------------------------------------------------------------


def _nothing() -> None:
    """What a command's ``loaded`` does when ``main`` is not the process entry."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; return its exit code.  With no ``argv``, ``main`` is the
    process entry and reads ``sys.argv``: once the command has imported what it
    uses, it then freezes the objects that imports left (``gc.freeze``), so that
    no later collection, forked worker or exit-time collection walks them again.
    Frozen before numpy loads, numpy's objects would still be walked at exit,
    which doubled the exit time of a process that loads numpy."""
    loaded = gc.freeze if argv is None else _nothing
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            return _cmd_gen(args, loaded)
        if args.command == "oracle":
            return _cmd_oracle(args, loaded)
        if args.command == "run":
            return _cmd_run(args, loaded)
        return _cmd_summarize(args, loaded)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
