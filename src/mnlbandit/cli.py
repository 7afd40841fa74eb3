"""Benchmark CLI: generate instances, solve, run replications, summarize.

Subcommands
-----------
* ``gen``        — draw an instance from a named family, write a ``.inst`` file;
* ``oracle``     — print the exact optimum (and per-item gaps) of an instance;
* ``run``        — run seeded replications of a driver, write CSV + sidecar;
* ``summarize``  — aggregate one or more results CSVs into a summary table.

Determinism: with a fixed ``--seed``, results CSVs are byte-identical across
runs and across worker counts (rows are computed in independent per-index
streams and written in replication order).  Timestamps appear only in the
JSON sidecar, never in the CSV.  ``MNL_THREADS`` caps worker processes
(default: machine parallelism).

Exit codes: 0 = success, 1 = usage error, 2 = runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .driver import pac_eps, pac_exact, regret_min, sar_mnl
from .env import RNG_ALGORITHM_ID, Environment, fork_stream, stream_digest
from .estimators import (
    DESK_TUNING,
    PAPER_TUNING,
    Tuning,
    est_naive,
    est_reduced,
    est_reg,
)
from .instances import (
    FAMILIES,
    generate_instance,
    read_instance,
    write_instance,
)
from .model import Instance
from .oracle import exact_optimum, suboptimality_gaps

__all__ = ["main"]

MODES = ("pac", "pac-eps", "regret", "oracle")
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


class UsageError(Exception):
    """Bad flags or parameter combinations (exit code 1)."""


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
    gen.add_argument("--seed", type=int, help="generator seed (random families)")
    gen.add_argument(
        "--gaps",
        type=str,
        help="comma-separated gap per item beyond the capacity (lower-bound family)",
    )
    gen.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="print the exact optimum of an instance")
    orc.add_argument("--instance", required=True)

    run = sub.add_parser("run", help="run seeded replications of a driver")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", help="instance file path")
    src.add_argument("--family", choices=FAMILIES, help="generate the instance inline")
    run.add_argument("--n", type=int)
    run.add_argument("--k", type=int)
    run.add_argument("--gen-seed", type=int, help="inline generator seed")
    run.add_argument("--gaps", type=str, help="inline lower-bound gap list")
    run.add_argument("--mode", required=True, choices=MODES)
    run.add_argument("--delta", type=float, default=0.1)
    run.add_argument("--eps", type=float)
    run.add_argument("--horizon", type=int)
    run.add_argument("--reps", type=int, default=1)
    run.add_argument("--seed", type=int, required=True, help="master seed")
    run.add_argument("--estimator", choices=ESTIMATORS, default="adaptive")
    run.add_argument("--tuning", choices=("paper", "desk"), default="paper")
    run.add_argument("--tau-scale", type=float)
    run.add_argument("--rough-tau-scale", type=float)
    run.add_argument("--ci-scale", type=float)
    run.add_argument("--out", help="results CSV path (required unless mode=oracle)")
    run.add_argument("--curve-out", help="regret-curve CSV path (mode=regret)")
    run.add_argument(
        "--curve-rep",
        type=int,
        default=0,
        help="replication whose curve goes to --curve-out",
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


def _cmd_gen(args) -> int:
    meta: Dict[str, str] = {"family": args.family}
    gaps = _parse_gaps(args.gaps) if args.gaps is not None else None
    if args.family == "lower-bound":
        if gaps is None:
            raise UsageError("the lower-bound family requires --gaps")
        meta["gaps"] = ", ".join(format(g, ".17g") for g in gaps)
    else:
        if args.seed is None:
            raise UsageError(f"the {args.family} family requires --seed")
        meta["seed"] = str(args.seed)
    inst = generate_instance(args.family, args.n, args.k, seed=args.seed, gaps=gaps)
    write_instance(args.out, inst, meta)
    return 0


def _oracle_report(inst: Instance) -> str:
    opt = exact_optimum(inst)
    lines = [
        f"n = {inst.n}",
        f"k = {inst.k}",
        f"theta_star = {format(opt.theta_star, '.17g')}",
        "s_star = " + (", ".join(str(i) for i in opt.s_star) if opt.s_star else "(empty)"),
    ]
    gaps = suboptimality_gaps(inst)
    for i in sorted(gaps):
        lines.append(f"gap.{i} = {format(gaps[i], '.17g')}")
    return "\n".join(lines) + "\n"


def _cmd_oracle(args) -> int:
    inst, _ = read_instance(args.instance)
    sys.stdout.write(_oracle_report(inst))
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _resolve_tuning(args) -> Tuning:
    base = DESK_TUNING if args.tuning == "desk" else PAPER_TUNING
    overrides = {
        name: getattr(args, name)
        for name in ("tau_scale", "rough_tau_scale", "ci_scale")
        if getattr(args, name) is not None
    }
    return replace(base, **overrides)


def _resolve_instance(args) -> Tuple[Instance, Dict[str, str]]:
    if args.instance:
        return read_instance(args.instance)
    if args.n is None or args.k is None:
        raise UsageError("inline generation requires --n and --k")
    gaps = _parse_gaps(args.gaps) if args.gaps is not None else None
    if args.family != "lower-bound" and args.gen_seed is None:
        raise UsageError(f"the {args.family} family requires --gen-seed")
    inst = generate_instance(
        args.family, args.n, args.k, seed=args.gen_seed, gaps=gaps
    )
    meta = {"family": args.family}
    if args.gen_seed is not None:
        meta["seed"] = str(args.gen_seed)
    return inst, meta


@dataclass(frozen=True)
class RunJob:
    """Everything a replication needs besides its index."""

    inst: Instance
    mode: str
    master_seed: int
    delta: float
    eps: Optional[float]
    horizon: Optional[int]
    estimator: str
    tuning: Tuning
    curve_rep: Optional[int]  # the replication whose regret curve is kept


def _replicate(job: RunJob, rep: int) -> Tuple[Dict[str, str], Optional[List[float]]]:
    """Run one replication."""
    tuning = job.tuning
    rng = fork_stream(job.master_seed, rep)
    env = Environment(job.inst, rng, horizon=job.horizon if job.mode == "regret" else None)

    if job.mode == "pac":
        if job.estimator == "adaptive":
            result = pac_exact(env, job.delta, tuning)
        else:
            fn = {"naive": est_naive, "reduced": est_reduced, "reg": est_reg}[job.estimator]

            def phase_est(e, a, b, dk, eh):
                return fn(e, a, b, dk, eh, tuning)

            result = sar_mnl(env, job.delta, phase_est)
    elif job.mode == "pac-eps":
        result = pac_eps(env, job.delta, job.eps, tuning)
    else:  # regret
        result = regret_min(env, job.horizon, tuning)

    status = "ok"
    if result.aborted:
        status = "phase-cap"
    elif result.horizon_hit:
        status = "horizon"
    row = {
        "replication": str(rep),
        "seed": str(stream_digest(job.master_seed, rep)),
        "steps": str(result.steps),
        "success": "1" if result.success else "0",
        "set_size": str(len(result.assortment)),
        "phases": str(len(result.phases)),
        "regret": repr(result.final_regret) if result.final_regret is not None else "",
        "status": status,
    }
    curve = env.ledger.curve().tolist() if rep == job.curve_rep else None
    return row, curve


#: The job of a pool worker, received once when the worker starts, so that the
#: worker's environments share one instance, hence one optimum and plan table.
_worker_job: Optional[RunJob] = None


def _start_worker(job: RunJob) -> None:
    global _worker_job
    _worker_job = job


def _replicate_in_worker(rep: int) -> Tuple[Dict[str, str], Optional[List[float]]]:
    return _replicate(_worker_job, rep)


def _worker_count(reps: int) -> int:
    raw = os.environ.get("MNL_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise UsageError(f"MNL_THREADS must be an integer, got {raw!r}") from exc
        if cap < 1:
            raise UsageError("MNL_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, reps))


def _cmd_run(args) -> int:
    if args.mode == "oracle":
        inst, _ = _resolve_instance(args)
        report = _oracle_report(inst)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
        return 0

    if args.out is None:
        raise UsageError("--out is required for replication runs")
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.mode == "pac-eps":
        if args.eps is None:
            raise UsageError("--eps is required for mode=pac-eps")
        if args.estimator != "adaptive":
            raise UsageError("mode=pac-eps supports only the adaptive estimator")
    if args.mode == "regret":
        if args.horizon is None:
            raise UsageError("--horizon is required for mode=regret")
        if args.estimator not in ("adaptive", "reg"):
            raise UsageError("mode=regret uses the reg estimator")
    if args.curve_out is not None:
        if args.mode != "regret":
            raise UsageError("--curve-out applies only to mode=regret")
        if not (0 <= args.curve_rep < args.reps):
            raise UsageError("--curve-rep must name one of the replications")

    inst, inst_meta = _resolve_instance(args)
    tuning = _resolve_tuning(args)
    # regret_min always runs est_reg; record that, not the --estimator default
    estimator = "reg" if args.mode == "regret" else args.estimator
    job = RunJob(
        inst=inst,
        mode=args.mode,
        master_seed=args.seed,
        delta=args.delta,
        eps=args.eps,
        horizon=args.horizon,
        estimator=estimator,
        tuning=tuning,
        curve_rep=args.curve_rep if args.curve_out is not None else None,
    )

    workers = _worker_count(args.reps)
    if workers == 1:
        outcomes = [_replicate(job, rep) for rep in range(args.reps)]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(job,)
        ) as pool:
            outcomes = list(
                pool.map(
                    _replicate_in_worker,
                    range(args.reps),
                    chunksize=max(1, args.reps // (4 * workers)),
                )
            )

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
        writer.writeheader()
        for row, _ in outcomes:
            writer.writerow(row)

    curve = next((c for _, c in outcomes if c is not None), None)
    if args.curve_out is not None and curve is not None:
        with open(args.curve_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["step", "cum_regret"])
            for t, value in enumerate(curve, start=1):
                writer.writerow([t, repr(float(value))])

    sidecar = {
        "format": RESULTS_FORMAT,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "rng_algorithm": RNG_ALGORITHM_ID,
        "config": {
            "mode": args.mode,
            "delta": args.delta,
            "eps": args.eps,
            "horizon": args.horizon,
            "reps": args.reps,
            "master_seed": args.seed,
            "estimator": estimator,
            "tuning": {
                "c0": tuning.c0,
                "c2": tuning.c2,
                "tau_scale": tuning.tau_scale,
                "rough_tau_scale": tuning.rough_tau_scale,
                "ci_scale": tuning.ci_scale,
            },
            "instance": {
                "source": args.instance or "inline",
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


def _summarize_file(path: str) -> Optional[Dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(CSV_COLUMNS) - set(reader.fieldnames):
            raise ValueError(f"{path}: missing results columns")
        steps: List[float] = []
        success: List[int] = []
        phases: List[float] = []
        regret: List[float] = []
        for lineno, row in enumerate(reader, start=2):
            try:
                steps.append(float(row["steps"]))
                success.append(int(row["success"]))
                phases.append(float(row["phases"]))
                if row["regret"]:
                    regret.append(float(row["regret"]))
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed row ({exc})") from exc
    if not steps:
        return None
    arr = np.array(steps)
    out = {
        "file": os.path.basename(path),
        "rows": str(len(steps)),
        "success_rate": format(float(np.mean(success)), ".6g"),
        "steps_median": format(float(np.median(arr)), ".6g"),
        "steps_mean": format(float(np.mean(arr)), ".6g"),
        "steps_p10": format(float(np.percentile(arr, 10)), ".6g"),
        "steps_p90": format(float(np.percentile(arr, 90)), ".6g"),
        "phases_median": format(float(np.median(phases)), ".6g"),
        "regret_median": format(float(np.median(regret)), ".6g") if regret else "",
    }
    return out


def _cmd_summarize(args) -> int:
    rows = []
    for path in args.results:
        row = _summarize_file(path)
        if row is not None:
            rows.append(row)
    target = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(target, fieldnames=list(SUMMARY_COLUMNS), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if args.out:
            target.close()
    return 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
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
            return _cmd_gen(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_summarize(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
