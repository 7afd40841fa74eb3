"""End-to-end tests of the command-line interface (via main(argv))."""

import csv
import itertools
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from mnlbandit import cli, oracle
from mnlbandit.cli import CSV_COLUMNS, RESULTS_FORMAT, SUMMARY_COLUMNS, main
from mnlbandit.driver import pac_exact
from mnlbandit.env import Environment, RegretLedger, fork_stream
from mnlbandit.estimators import DESK_TUNING
from mnlbandit.instances import read_instance
from mnlbandit.oracle import brute_force_optimum, exact_optimum, fractional_optimum
from stream_reference import stream_digest


def run_cli(*argv):
    return main(list(argv))


def tick_clock(step_s):
    """A stand-in for ``cli.time`` whose clock advances ``step_s`` a reading,
    so that every replication of a run times at exactly ``step_s``."""
    ticks = itertools.count()
    return types.SimpleNamespace(perf_counter=lambda: next(ticks) * step_s)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_python(script, **env):
    """Run ``script`` in a fresh ``python -B`` with the package on its path and
    ``env`` over this process's environment, where ``None`` unsets a variable
    (this process has imported the CLI, so ``OPENBLAS_NUM_THREADS`` is set);
    assert that it exits 0 and return its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    environ = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env.items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    proc = subprocess.run([sys.executable, "-B", "-c", script], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: `gen` flags of the small instance most `run` tests read
UNIFORM_4 = ("--family", "uniform", "--n", "4", "--k", "2", "--seed", "5")
#: `gen` flags of the instance `shape_argv` runs
UNIFORM_8 = ("--family", "uniform", "--n", "8", "--k", "3", "--seed", "5")
#: `gen` flags of the README's regret instance
UNIFORM_10 = ("--family", "uniform", "--n", "10", "--k", "4", "--seed", "14618")

#: One small instance run four ways: each mode, and the pac loop on a plain
#: estimator; ``{curve}`` stands for a curve file's path.
RUN_SHAPES = {
    "pac": ("--mode", "pac"),
    "pac-naive": ("--mode", "pac", "--estimator", "naive"),
    "pac-eps": ("--mode", "pac-eps", "--eps", "0.1"),
    "regret-curve": ("--mode", "regret", "--horizon", "2000", "--curve-out", "{curve}"),
}


def shape_argv(inst, shape, tmp_path, out_name):
    """``run`` argv of a `RUN_SHAPES` entry on the instance file ``inst`` at
    desk tuning, two replications."""
    flags = [flag.format(curve=tmp_path / f"{out_name}.curve") for flag in RUN_SHAPES[shape]]
    return ["run", "--instance", inst, "--tuning", "desk", "--seed", "3", "--reps", "2",
            *flags, "--out", str(tmp_path / out_name)]


class TestGen:
    def test_writes_a_readable_instance(self, tmp_path):
        out = str(tmp_path / "u.inst")
        code = run_cli(
            "gen", "--family", "uniform", "--n", "5", "--k", "2",
            "--seed", "7", "--out", out,
        )
        assert code == 0
        inst, meta = read_instance(out)
        assert inst.n == 5 and inst.k == 2
        assert meta["family"] == "uniform" and meta["seed"] == "7"

    def test_gen_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.inst"), str(tmp_path / "b.inst")
        for out in (a, b):
            assert run_cli(
                "gen", "--family", "dense", "--n", "4", "--k", "2",
                "--seed", "3", "--out", out,
            ) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_lower_bound_needs_gaps(self, tmp_path):
        out = str(tmp_path / "lb.inst")
        assert run_cli(
            "gen", "--family", "lower-bound", "--n", "4", "--k", "2", "--out", out
        ) == 1
        assert run_cli(
            "gen", "--family", "lower-bound", "--n", "4", "--k", "2",
            "--gaps", "0.01,0.02", "--out", out,
        ) == 0
        inst, meta = read_instance(out)
        assert inst.n == 4
        assert meta["gaps"].startswith("0.01")

    def test_random_family_needs_seed(self, tmp_path):
        assert run_cli(
            "gen", "--family", "uniform", "--n", "4", "--k", "2",
            "--out", str(tmp_path / "x.inst"),
        ) == 1

    @pytest.mark.parametrize(
        "family, message",
        [
            ("lower-bound", "the lower-bound family requires --gaps"),
            ("uniform", "the uniform family requires --seed"),
            ("dense", "the dense family requires --seed"),
            ("sparse", "the sparse family requires --seed"),
        ],
        ids=["lower-bound-gaps", "uniform-seed", "dense-seed", "sparse-seed"],
    )
    def test_family_rule_names_the_missing_flag(self, tmp_path, capsys, monkeypatch,
                                                family, message):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_instance", fail)
        out = tmp_path / "x.inst"
        assert run_cli("gen", "--family", family, "--n", "4", "--k", "2",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_shape_is_required(self, tmp_path, capsys):
        out = tmp_path / "x.inst"
        assert run_cli("gen", "--family", "uniform", "--seed", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --n, --k\n"
        )
        assert not out.exists()

    def test_malformed_gaps_list(self, tmp_path):
        assert run_cli(
            "gen", "--family", "lower-bound", "--n", "4", "--k", "2",
            "--gaps", "0.01,oops", "--out", str(tmp_path / "x.inst"),
        ) == 1

    def test_gaps_below_float_resolution_write_nothing(self, tmp_path, capsys):
        # 1e-20 moves no weight off v_2 = 1/4: the instance would tie every item
        out = tmp_path / "x.inst"
        assert run_cli(
            "gen", "--family", "lower-bound", "--n", "4", "--k", "2",
            "--gaps", "1e-20,1e-20", "--out", str(out),
        ) == 2
        assert capsys.readouterr().err == (
            "error: gap 1e-20 is below float resolution: item 3's weight rounds "
            "onto v_2 = 0.25, a gap of 0\n"
        )
        assert not out.exists()

    def test_unknown_family_is_a_usage_error(self, tmp_path):
        assert run_cli(
            "gen", "--family", "cauchy", "--n", "4", "--k", "2",
            "--seed", "1", "--out", str(tmp_path / "x.inst"),
        ) == 1

    def test_unwritable_path_is_a_runtime_error(self, tmp_path):
        assert run_cli(
            "gen", "--family", "uniform", "--n", "4", "--k", "2",
            "--seed", "1", "--out", str(tmp_path / "no" / "dir" / "x.inst"),
        ) == 2


    def test_nan_gap_fails_the_gap_check(self, tmp_path, capsys):
        out = tmp_path / "x.inst"
        assert run_cli(
            "gen", "--family", "lower-bound", "--n", "4", "--k", "2",
            "--gaps", "nan,0.01", "--out", str(out),
        ) == 2
        assert capsys.readouterr().err == "error: every gap must lie in (0, 1/(16 k)]\n"
        assert not out.exists()

    def test_sparse_family_refuses_zero_capacity(self, tmp_path, capsys):
        out = tmp_path / "x.inst"
        assert run_cli(
            "gen", "--family", "sparse", "--n", "3", "--k", "0",
            "--seed", "1", "--out", str(out),
        ) == 2
        assert capsys.readouterr().err == "error: k must satisfy 1 <= k <= n\n"
        assert not out.exists()


class TestOracle:
    def test_report_matches_the_solver(self, tmp_path, capsys):
        out = str(tmp_path / "u.inst")
        run_cli("gen", "--family", "uniform", "--n", "5", "--k", "2",
                "--seed", "7", "--out", out)
        assert run_cli("oracle", "--instance", out) == 0
        report = capsys.readouterr().out
        inst, _ = read_instance(out)
        opt = brute_force_optimum(inst)
        assert f"theta_star = {format(opt.theta_star, '.17g')}" in report
        assert "s_star = " + ", ".join(str(i) for i in opt.s_star) in report
        assert "gap.1 = " in report

    def test_missing_file_is_a_runtime_error(self, tmp_path):
        assert run_cli("oracle", "--instance", str(tmp_path / "nope.inst")) == 2

    def test_report_solves_the_instance_once(self, tmp_path, capsys, monkeypatch):
        # the many-small benchmark instance: one cold solve for S*, one warm per gap
        out = str(tmp_path / "u.inst")
        run_cli("gen", "--family", "uniform", "--n", "8", "--k", "3",
                "--seed", "7", "--out", out)
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return fractional_optimum(*args, **kwargs)

        monkeypatch.setattr(oracle, "fractional_optimum", counted)
        assert run_cli("oracle", "--instance", out) == 0
        report = capsys.readouterr().out
        assert len(solves) == 8 + 1
        opt = exact_optimum(read_instance(out)[0])
        assert report.splitlines()[2:4] == [
            f"theta_star = {format(opt.theta_star, '.17g')}",
            "s_star = " + ", ".join(str(i) for i in opt.s_star),
        ]

    def test_reports_beyond_the_brute_force_limit(self, tmp_path, capsys):
        out = str(tmp_path / "lb.inst")
        assert run_cli(
            "gen", "--family", "lower-bound", "--n", "30", "--k", "2",
            "--gaps", ",".join(["0.01"] * 28), "--out", out,
        ) == 0
        assert run_cli("oracle", "--instance", out) == 0
        report = capsys.readouterr().out
        opt = exact_optimum(read_instance(out)[0])
        assert "n = 30" in report
        assert f"theta_star = {format(opt.theta_star, '.17g')}" in report
        assert "s_star = " + ", ".join(str(i) for i in opt.s_star) in report
        gaps = [line for line in report.splitlines() if line.startswith("gap.")]
        assert [line.split(" = ")[0] for line in gaps] == [f"gap.{i}" for i in range(1, 31)]
        for line in gaps[2:]:
            assert abs(float(line.split(" = ")[1]) - 0.01) <= 1e-12


class TestRunValidation:
    @pytest.fixture(autouse=True)
    def _instance(self, instance_file):
        self.inst = instance_file(*UNIFORM_4)

    def usage_error(self, capsys, *flags):
        """The standard error of ``run`` on the small instance with ``flags``,
        which must exit 1."""
        assert run_cli("run", "--instance", self.inst, *flags) == 1
        return capsys.readouterr().err

    def test_instance_required(self, tmp_path, capsys, monkeypatch):
        # `run` reads its instance from a file that `gen` wrote; it draws none
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_instance", fail)
        monkeypatch.setattr(cli, "_replicate", fail)
        assert run_cli(
            "run", "--family", "uniform", "--n", "8", "--k", "3", "--gen-seed", "5",
            "--mode", "pac", "--seed", "1", "--out", str(tmp_path / "r.csv"),
        ) == 1
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --instance\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--family", "uniform"), ("--n", "8"), ("--k", "3"), ("--gen-seed", "5"),
        ("--gaps", "0.01,0.01"),
    ])
    def test_generation_flag_is_not_a_run_flag(self, tmp_path, capsys, monkeypatch,
                                               flag, value):
        # an instance's shape and draw belong to the file that `gen` wrote
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "read_instance", fail)
        monkeypatch.setattr(cli, "_replicate", fail)
        out = tmp_path / "r.csv"
        assert self.usage_error(capsys, "--mode", "pac", "--seed", "1", flag, value,
                                "--out", str(out)) == (
            f"usage error: unrecognized arguments: {flag} {value}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content, message", [
        (None, "error: [Errno 2] No such file or directory: '{path}'\n"),
        ("garbage\n", "error: line 1: expected 'key = value', got 'garbage'\n"),
    ], ids=["missing", "malformed"])
    def test_unreadable_instance_is_a_runtime_error(self, tmp_path, capsys, monkeypatch,
                                                    content, message):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "_replicate", fail)
        path = tmp_path / "x.inst"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        out = tmp_path / "r.csv"
        assert run_cli("run", "--instance", str(path), "--mode", "pac", "--seed", "1",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == message.format(path=path)
        assert not out.exists()

    def test_out_required(self, capsys):
        assert self.usage_error(capsys, "--mode", "pac", "--seed", "1") == (
            "usage error: the following arguments are required: --out\n"
        )

    def test_oracle_is_not_a_run_mode(self, tmp_path, capsys):
        err = self.usage_error(capsys, "--mode", "oracle", "--seed", "1",
                               "--out", str(tmp_path / "r.csv"))
        assert err.startswith("usage error: argument --mode: invalid choice: 'oracle'")

    def test_pac_eps_needs_eps_and_adaptive(self, tmp_path, capsys):
        base = ("--mode", "pac-eps", "--seed", "1", "--out", str(tmp_path / "r.csv"),
                "--tuning", "desk")
        assert self.usage_error(capsys, *base) == (
            "usage error: --eps is required for mode=pac-eps\n"
        )
        assert self.usage_error(capsys, *base, "--eps", "0.2", "--estimator", "naive") == (
            "usage error: mode=pac-eps supports only the adaptive estimator\n"
        )

    def test_regret_needs_horizon_and_reg_estimator(self, tmp_path, capsys):
        base = ("--mode", "regret", "--seed", "1", "--out", str(tmp_path / "r.csv"),
                "--tuning", "desk")
        assert self.usage_error(capsys, *base) == (
            "usage error: --horizon is required for mode=regret\n"
        )
        assert self.usage_error(capsys, *base, "--horizon", "100", "--estimator", "naive") == (
            "usage error: --estimator naive does not apply to mode=regret, "
            "which runs the reg estimator\n"
        )

    def test_curve_flags(self, tmp_path, capsys):
        out = ("--out", str(tmp_path / "r.csv"), "--curve-out", str(tmp_path / "c.csv"))
        assert self.usage_error(capsys, "--mode", "pac", "--seed", "1", *out) == (
            "usage error: --curve-out applies only to mode=regret\n"
        )
        assert self.usage_error(
            capsys, "--mode", "regret", "--horizon", "100", "--seed", "1", *out,
            "--curve-rep", "5", "--reps", "2",
        ) == "usage error: --curve-rep must name one of the replications\n"

    def test_reps_must_be_positive(self, tmp_path, capsys):
        assert self.usage_error(
            capsys, "--mode", "pac", "--seed", "1", "--reps", "0",
            "--out", str(tmp_path / "r.csv"),
        ) == "usage error: --reps must be >= 1\n"

    @pytest.mark.parametrize("threads, message", [
        ("zero", "MNL_THREADS must be an integer, got 'zero'"),
        ("0", "MNL_THREADS must be >= 1"),
    ])
    def test_bad_thread_env_fails_before_any_replication(self, tmp_path, capsys, monkeypatch,
                                                         threads, message):
        def replicate(job, rep):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cli, "_replicate", replicate)
        monkeypatch.setenv("MNL_THREADS", threads)
        out = tmp_path / "r.csv"
        assert self.usage_error(
            capsys, "--mode", "pac", "--seed", "1", "--reps", "3", "--out", str(out),
            "--tuning", "desk",
        ) == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["1.5", "1.0"])
    def test_pac_delta_outside_the_unit_interval(self, tmp_path, capsys, monkeypatch, delta):
        monkeypatch.setenv("MNL_THREADS", "1")
        assert run_cli(
            "run", "--instance", self.inst, "--mode", "pac", "--delta", delta, "--seed", "1",
            "--out", str(tmp_path / "r.csv"), "--tuning", "desk",
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: delta must lie in (0, 1)")

    @pytest.mark.parametrize("delta", ["5e-324", "1e-304"])
    def test_pac_delta_too_small_to_split(self, tmp_path, capsys, monkeypatch, instance_file,
                                          delta):
        # 5e-324 halves to 0; 1e-304 splits below 1e-308 by phase 4, where 2 / delta overflows
        monkeypatch.setenv("MNL_THREADS", "1")
        inst = instance_file("--family", "uniform", "--n", "8", "--k", "3", "--seed", "7")
        assert run_cli(
            "run", "--instance", inst, "--mode", "pac", "--tuning", "desk", "--delta", delta,
            "--seed", "1", "--out", str(tmp_path / "r.csv"),
        ) == 2
        assert capsys.readouterr().err == (
            f"error: delta {delta} is too small to split for n = 8 items: "
            "the smallest delta accepted is 6.536376966750755e-302\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_horizon_past_the_limit_is_refused(self, tmp_path, capsys, monkeypatch,
                                               instance_file):
        # a regret horizon above 2^63 is refused before any replication, naming both numbers
        monkeypatch.setenv("MNL_THREADS", "1")
        assert run_cli(
            "run", "--instance", instance_file(*UNIFORM_10), "--mode", "regret",
            "--horizon", "10000000000000000000", "--seed", "1", "--reps", "1",
            "--out", str(tmp_path / "r.csv"),
        ) == 2
        assert capsys.readouterr().err == (
            "error: --horizon 10000000000000000000 exceeds the limit 9223372036854775807\n"
        )
        assert list(tmp_path.iterdir()) == []

    #: gaps of 1e-7 keep both items pending while tau grows 4x a phase
    PAST_THE_LIMIT = (
        "error: a batch of 12325066167620392 epochs exceeds the sampler's limit of "
        "9007199254740992 in phase 15 at --tuning paper\n"
    )

    def past_the_limit_run(self, instance_file, tmp_path, reps):
        inst = instance_file("--family", "lower-bound", "--n", "4", "--k", "2",
                             "--gaps", "1e-7,1e-7")
        return run_cli(
            "run", "--instance", inst, "--mode", "pac", "--tuning", "paper", "--seed", "1",
            "--reps", str(reps), "--out", str(tmp_path / "r.csv"),
        )

    def test_batch_past_the_limit_names_the_phase_and_the_profile(self, tmp_path, capsys,
                                                                  monkeypatch, instance_file):
        monkeypatch.setenv("MNL_THREADS", "1")
        assert self.past_the_limit_run(instance_file, tmp_path, 1) == 2
        assert capsys.readouterr().err == self.PAST_THE_LIMIT
        assert list(tmp_path.iterdir()) == []

    def test_batch_past_the_limit_in_a_worker_reads_as_in_a_serial_run(self, tmp_path, capsys,
                                                                      monkeypatch, instance_file):
        # replications 0 and 1 (this process's share) pass; replication 2
        # runs in the forked worker and fails there as replication 0 does alone
        replicate = cli._replicate

        def replicate_from_2(job, rep):
            return replicate(job, rep) if rep >= 2 else ({}, None)

        monkeypatch.setattr(cli, "_replicate", replicate_from_2)
        monkeypatch.setattr(cli, "POOL_STARTUP_S", -1.0)
        monkeypatch.setenv("MNL_THREADS", "2")
        assert self.past_the_limit_run(instance_file, tmp_path, 3) == 2
        assert capsys.readouterr().err == self.PAST_THE_LIMIT
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_regret_batch_past_the_limit_and_the_budget_ends_at_the_horizon(
            self, tmp_path, monkeypatch):
        # on a tied instance phase 14 asks for 2.1e16 epochs, past the sampler's
        # limit and past the 2.1e15 steps left: the budget ends the run
        monkeypatch.setenv("MNL_THREADS", "1")
        inst = tmp_path / "tied.txt"
        inst.write_text("# mnlbandit instance v1\nn = 3\nk = 2\nr = 1, 1, 1\nv = 0.5, 0.5, 0.5\n")
        horizon = 30_000_000_000_000_000
        out = tmp_path / "r.csv"
        assert run_cli(
            "run", "--instance", str(inst), "--mode", "regret", "--horizon", str(horizon),
            "--seed", "1", "--reps", "1", "--out", str(out),
        ) == 0
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["status"], int(row["steps"])) == ("horizon", horizon)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("run", "--instance", "{inst}", "--mode", "pac", "--seed", "-1"),
             "expected a non-negative integer, got -1"),
            (("gen", "--family", "uniform", "--n", "4", "--k", "2", "--seed", "-1"),
             "expected a non-negative integer, got -1"),
            (("run", "--instance", "{inst}", "--mode", "pac", "--seed", "1.5"),
             "invalid int value: '1.5'"),
            (("gen", "--family", "uniform", "--n", "4", "--k", "2", "--seed", "abc"),
             "invalid int value: 'abc'"),
        ],
        ids=["run-negative", "gen-negative", "run-fraction", "gen-word"],
    )
    def test_negative_or_non_integer_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                           argv, message):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_instance", fail)
        monkeypatch.setattr(cli, "read_instance", fail)
        monkeypatch.setattr(cli, "_replicate", fail)
        out = tmp_path / "out"
        argv = [arg.format(inst=self.inst) for arg in argv]
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: argument --seed: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tau-scale", "--rough-tau-scale", "--ci-scale"])
    def test_tuning_multiplier_is_not_a_flag(self, tmp_path, capsys, monkeypatch, flag):
        # --tuning names the whole profile; other multipliers are a library `Tuning`
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "read_instance", fail)
        monkeypatch.setattr(cli, "_replicate", fail)
        out = tmp_path / "r.csv"
        assert self.usage_error(capsys, "--mode", "pac", "--seed", "1", flag, "0.5",
                                "--out", str(out)) == (
            f"usage error: unrecognized arguments: {flag} 0.5\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("pac", "--eps", "0.3"),
            ("regret", "--eps", "0.3"),
            ("pac", "--horizon", "50"),
            ("pac-eps", "--horizon", "50"),
        ],
    )
    def test_flag_the_mode_ignores_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                    mode, flag, value):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "_replicate", fail)
        needed = {"pac": (), "pac-eps": ("--eps", "0.3"), "regret": ("--horizon", "50")}[mode]
        out = tmp_path / "r.csv"
        assert self.usage_error(
            capsys, "--mode", mode, *needed, flag, value, "--seed", "1", "--out", str(out),
        ) == (
            f"usage error: {flag} applies only to mode="
            f"{'pac-eps' if flag == '--eps' else 'regret'}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("gen", "--family", "uniform", "--n", "4", "--k", "2", "--seed", "7",
              "--gaps", "0.1"), "--gaps applies only to the lower-bound family"),
            (("gen", "--family", "lower-bound", "--n", "4", "--k", "2", "--gaps", "0.1,0.1",
              "--seed", "5"), "--seed does not apply to the lower-bound family"),
            (("run", "--instance", "{inst}", "--mode", "regret", "--horizon", "50",
              "--curve-rep", "0", "--seed", "1"), "--curve-rep applies only with --curve-out"),
            (("run", "--instance", "{inst}", "--mode", "regret", "--horizon", "50",
              "--estimator", "adaptive", "--seed", "1"),
             "--estimator adaptive does not apply to mode=regret, which runs the reg estimator"),
        ],
        ids=["gen-uniform-gaps", "gen-lower-bound-seed",
             "curve-rep-without-curve-out", "regret-estimator-adaptive"],
    )
    def test_ignored_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, message):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_instance", fail)
        monkeypatch.setattr(cli, "read_instance", fail)
        monkeypatch.setattr(cli, "_replicate", fail)
        out = tmp_path / "out"
        argv = [arg.format(inst=self.inst) for arg in argv]
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--curve-out"])
    def test_missing_output_directory_fails_before_any_replication(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        def fail(*args, **kwargs):
            raise AssertionError("replications started")

        monkeypatch.setattr(cli, "_run_replications", fail)
        paths = {"--out": str(tmp_path / "r.csv"), "--curve-out": str(tmp_path / "c.csv")}
        missing = paths[flag] = str(tmp_path / "no-such-dir" / "x.csv")
        folder = str(tmp_path / "no-such-dir")
        assert run_cli(
            "run", "--instance", self.inst, "--mode", "regret", "--horizon", "100",
            "--seed", "1", "--reps", "2", "--out", paths["--out"],
            "--curve-out", paths["--curve-out"],
        ) == 2
        assert capsys.readouterr().err == (
            f"error: {missing}: no such directory {folder!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (("--out", "same.csv", "--curve-out", "{d}/same.csv"),
         "--curve-out {d}/same.csv names the same file as --out same.csv"),
        (("--out", "s2.txt"), "--out s2.txt names the same file as --instance {d}/s2.txt"),
        (("--out", "a.csv", "--curve-out", "a.csv.meta.json"),
         "--curve-out a.csv.meta.json names the same file as the sidecar a.csv.meta.json"),
    ], ids=["curve-is-out", "out-is-instance", "curve-is-sidecar"])
    def test_output_naming_another_file_fails_before_any_replication(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # paths compare resolved: a relative --out names the file an absolute
        # --curve-out does
        def fail(*args, **kwargs):
            raise AssertionError("replications started")

        monkeypatch.setattr(cli, "_run_replications", fail)
        monkeypatch.chdir(tmp_path)
        inst = tmp_path / "s2.txt"
        inst.write_bytes(Path(self.inst).read_bytes())
        argv = [flag.format(d=tmp_path) for flag in flags]
        for path in map(Path, argv[1::2]):
            if not path.exists():
                path.write_text(f"earlier {path.name}\n", encoding="utf-8")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run_cli("run", "--instance", str(inst), "--mode", "regret", "--horizon", "100",
                       "--seed", "1", "--reps", "2", *argv) == 1
        assert capsys.readouterr().err == f"usage error: {message.format(d=tmp_path)}\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_out_of_memory_is_a_runtime_error(self, tmp_path, capsys, monkeypatch,
                                              instance_file):
        # the regret curve of a 1e15-step horizon asks numpy for petabytes
        monkeypatch.setenv("MNL_THREADS", "1")
        out = tmp_path / "r.csv"
        assert run_cli(
            "run", "--instance", instance_file(*UNIFORM_10), "--mode", "regret",
            "--horizon", "1000000000000000", "--tuning", "desk", "--seed", "99",
            "--out", str(out), "--curve-out", str(tmp_path / "c.csv"),
        ) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "gen" in capsys.readouterr().out


class TestRunPac:
    @pytest.fixture(autouse=True)
    def _fixtures(self, instance_file, fork_threads):
        self.inst = instance_file(*UNIFORM_4)
        self.forks = fork_threads

    def pac_args(self, tmp_path, out_name, **extra):
        argv = [
            "run", "--instance", self.inst, "--mode", "pac", "--seed", "1234",
            "--reps", "3", "--tuning", "desk", "--out", str(tmp_path / out_name),
        ]
        for key, value in extra.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        return argv

    def test_csv_schema_and_seed_column(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        out = tmp_path / "r.csv"
        assert run_cli(*self.pac_args(tmp_path, "r.csv")) == 0
        with open(out, newline="") as fh:
            header = fh.readline().rstrip("\n")
        assert header == ",".join(CSV_COLUMNS)
        rows = read_rows(out)
        assert len(rows) == 3
        for rep, row in enumerate(rows):
            assert row["replication"] == str(rep)
            assert row["seed"] == str(stream_digest(1234, rep))
            assert row["success"] in ("0", "1")
            assert int(row["steps"]) > 0
            assert row["status"] == "ok"
            assert row["regret"] == ""
            assert 0 <= int(row["set_size"]) <= 2

    def test_sidecar_holds_the_config_and_timestamps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        out = tmp_path / "r.csv"
        assert run_cli(*self.pac_args(tmp_path, "r.csv")) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["format"] == RESULTS_FORMAT
        assert "created_utc" in meta
        assert meta["config"]["mode"] == "pac"
        assert meta["config"]["master_seed"] == 1234
        assert meta["config"]["tuning"] == {  # the desk profile's multipliers
            "c0": 196, "c2": 1024, "tau_scale": 2e-6, "rough_tau_scale": 0.02, "ci_scale": 0.02,
        }
        assert meta["config"]["instance"]["n"] == 4
        # timestamps never contaminate the CSV itself
        assert "created" not in out.read_text()

    def test_byte_identical_across_reruns_and_worker_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        assert run_cli(*self.pac_args(tmp_path, "a.csv")) == 0
        assert run_cli(*self.pac_args(tmp_path, "b.csv")) == 0
        monkeypatch.setenv("MNL_THREADS", "2")
        assert run_cli(*self.pac_args(tmp_path, "c.csv")) == 0
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()
        # a pool that costs nothing to start runs every replication after the
        # first in 2 workers
        monkeypatch.setenv("MNL_THREADS", "1")
        assert run_cli(*self.pac_args(tmp_path, "d.csv", reps=6)) == 0
        monkeypatch.setenv("MNL_THREADS", "2")
        monkeypatch.setattr(cli, "POOL_STARTUP_S", 0.0)
        assert run_cli(*self.pac_args(tmp_path, "e.csv", reps=6)) == 0
        assert json.loads((tmp_path / "e.csv.meta.json").read_text())["workers"] == 2
        d = (tmp_path / "d.csv").read_bytes()
        assert d == (tmp_path / "e.csv").read_bytes()
        assert d.startswith(a)

    def test_short_run_starts_no_pool(self, tmp_path, monkeypatch):
        # 7 replications left at 1 ms save less than the pool costs to start,
        # so this process runs them all and forks nothing
        monkeypatch.setattr(cli, "time", tick_clock(0.001))
        monkeypatch.setenv("MNL_THREADS", "2")
        assert run_cli(*self.pac_args(tmp_path, "r.csv", reps=8)) == 0
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["workers"] == 1
        assert meta["wall_s"] > 0
        assert len(read_rows(tmp_path / "r.csv")) == 8
        assert self.forks == []

    @pytest.mark.parametrize("cpus, workers", [({0}, 1), ({0, 1}, 2)])
    def test_default_pool_fits_the_affinity_mask(self, tmp_path, monkeypatch, cpus, workers):
        # with MNL_THREADS unset, the pool takes the CPUs this process may
        # run on, not every CPU of the machine
        monkeypatch.delenv("MNL_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(cli, "POOL_STARTUP_S", -1.0)
        assert run_cli(*self.pac_args(tmp_path, "r.csv")) == 0
        assert json.loads((tmp_path / "r.csv.meta.json").read_text())["workers"] == workers
        assert len(self.forks) == workers - 1

    def test_curve_expansion_is_not_timed(self, tmp_path, monkeypatch, instance_file):
        # replication 0's time sizes the pool, and expanding its dense regret
        # curve is output work: a slow expansion starts no pool (3 replications,
        # so that 2 are left to share)
        curve = RegretLedger.curve

        def slow_curve(ledger):
            time.sleep(0.2)
            return curve(ledger)

        monkeypatch.setattr(RegretLedger, "curve", slow_curve)
        inst = instance_file(*UNIFORM_10)
        for threads in ("1", "2"):
            monkeypatch.setenv("MNL_THREADS", threads)
            assert run_cli(
                "run", "--instance", inst, "--mode", "regret", "--horizon", "1000",
                "--tuning", "desk", "--seed", "7", "--reps", "3",
                "--out", str(tmp_path / f"r{threads}.csv"),
                "--curve-out", str(tmp_path / f"c{threads}.csv"),
            ) == 0
        assert json.loads((tmp_path / "r2.csv.meta.json").read_text())["workers"] == 1
        assert self.forks == []
        for name in ("r", "c"):
            serial, pooled = (tmp_path / f"{name}{threads}.csv" for threads in "12")
            assert serial.read_bytes() == pooled.read_bytes()

    def test_long_first_replication_starts_the_pool_at_once(self, tmp_path, monkeypatch):
        calls = []

        def run_in_pool(job, indices, workers):
            calls.append((indices, workers))
            return [cli._replicate(job, rep) for rep in indices]

        monkeypatch.setenv("MNL_THREADS", "1")
        assert run_cli(*self.pac_args(tmp_path, "a.csv")) == 0
        monkeypatch.setattr(cli, "_run_in_pool", run_in_pool)
        monkeypatch.setattr(cli, "time", tick_clock(0.1))
        monkeypatch.setenv("MNL_THREADS", "2")
        assert run_cli(*self.pac_args(tmp_path, "b.csv")) == 0
        assert calls == [(range(1, 3), 2)]
        assert json.loads((tmp_path / "b.csv.meta.json").read_text())["workers"] == 2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("rep_s, left, workers, size", [
        (0.001, 7, 2, 1),  # saves 3.5 ms
        (0.009, 10, 2, 1),  # saves 45 ms
        (0.02, 10, 2, 2),  # saves 100 ms
        (0.2, 3, 4, 3),  # the pool is no larger than the work
        (0.2, 1, 4, 1),  # one replication left
        (10.0, 5, 1, 1),  # MNL_THREADS=1
    ])
    def test_pool_size_weighs_the_saving_against_start_up(self, rep_s, left, workers, size):
        assert cli.POOL_STARTUP_S == 0.05
        assert cli._pool_size(rep_s, left, workers) == size

    def forced_pool_run(self, tmp_path, monkeypatch, fail_at, failure):
        """Run 5 replications through a 2-process pool that starts at once, with
        ``failure`` called in replication ``fail_at``: this process runs 1 and 3,
        the forked worker 2 and 4.  Return the exit code, and assert that this
        process forked once and that no child is left (the suite's fork hook
        checks that it had one OS thread when it forked)."""
        replicate = cli._replicate

        def failing(job, rep):
            if rep == fail_at:
                failure()
            return replicate(job, rep)

        monkeypatch.setattr(cli, "_replicate", failing)
        monkeypatch.setattr(cli, "POOL_STARTUP_S", -1.0)
        monkeypatch.setenv("MNL_THREADS", "2")
        code = run_cli(*self.pac_args(tmp_path, "r.csv", reps=5))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(self.forks) == 1
        return code

    def test_worker_failure_reads_as_in_a_serial_run(self, tmp_path, capsys, monkeypatch):
        def failure():
            raise ValueError("replication failed")

        assert self.forced_pool_run(tmp_path, monkeypatch, 2, failure) == 2
        pooled = capsys.readouterr().err
        monkeypatch.setenv("MNL_THREADS", "1")
        assert run_cli(*self.pac_args(tmp_path, "r.csv", reps=5)) == 2
        assert capsys.readouterr().err == pooled == "error: replication failed\n"
        assert list(tmp_path.iterdir()) == []

    def test_killed_worker_is_named(self, tmp_path, capsys, monkeypatch):
        def failure():
            os.kill(os.getpid(), signal.SIGKILL)

        assert self.forced_pool_run(tmp_path, monkeypatch, 2, failure) == 2
        assert capsys.readouterr().err == (
            f"error: worker 1 was killed by signal {int(signal.SIGKILL)} before its result\n"
        )

    @pytest.mark.parametrize("exc", [SystemExit(0), KeyboardInterrupt()],
                             ids=["SystemExit", "KeyboardInterrupt"])
    def test_worker_leaves_by_os_exit_whatever_it_raised(self, tmp_path, capsys, monkeypatch,
                                                        exc):
        # a worker that let these through would return into this test runner
        def failure():
            raise exc

        assert self.forced_pool_run(tmp_path, monkeypatch, 2, failure) == 2
        assert capsys.readouterr().err == "error: worker 1 exited with status 1 before its result\n"

    def test_failure_in_own_share_kills_the_workers(self, tmp_path, capsys, monkeypatch):
        # the worker's replications would sleep for a minute; the failing
        # replication 1 of this process ends the run at once
        parent = os.getpid()
        replicate = cli._replicate

        def sleepy(job, rep):
            if os.getpid() != parent:
                time.sleep(60)
            return replicate(job, rep)

        def failure():
            raise ValueError("replication failed")

        monkeypatch.setattr(cli, "_replicate", sleepy)
        start = time.monotonic()
        assert self.forced_pool_run(tmp_path, monkeypatch, 1, failure) == 2
        assert time.monotonic() - start < 30
        assert capsys.readouterr().err == "error: replication failed\n"

    def test_pool_runs_serially_off_linux(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        assert run_cli(*self.pac_args(tmp_path, "a.csv", reps=6)) == 0
        monkeypatch.setattr(cli, "POOL_STARTUP_S", -1.0)
        monkeypatch.setattr(cli.sys, "platform", "darwin")
        monkeypatch.setenv("MNL_THREADS", "2")
        assert run_cli(*self.pac_args(tmp_path, "b.csv", reps=6)) == 0
        assert json.loads((tmp_path / "b.csv.meta.json").read_text())["workers"] == 1
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_short_runs_load_neither_the_pool_nor_openssl(self, tmp_path):
        # importing the CLI leaves numpy.random (where numpy imports it
        # lazily) and concurrent.futures.process unloaded; a short run then
        # loads numpy.random but neither the pool nor OpenSSL's _hashlib, a
        # later hashlib import is the usual one, and gen loads no pool either
        out = tmp_path / "r.csv"
        script = (
            "import importlib.util, itertools, sys, types\n"
            "import numpy\n"
            "lazy = 'numpy.random' not in sys.modules\n"
            "from mnlbandit import cli\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "assert ('numpy.random' not in sys.modules) == lazy\n"
            "ticks = itertools.count()\n"
            "cli.time = types.SimpleNamespace(perf_counter=lambda: next(ticks) * 0.001)\n"
            f"assert cli.main({self.pac_args(tmp_path, 'r.csv', reps=8)!r}) == 0\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "assert 'numpy.random' in sys.modules\n"
            "assert not lazy or '_hashlib' not in sys.modules\n"
            "import hashlib\n"
            "assert hashlib.sha256(b'abc').hexdigest().startswith('ba7816bf')\n"
            "if importlib.util.find_spec('_hashlib') is not None:\n"
            "    assert '_hashlib' in sys.modules\n"
            f"assert cli.main(['gen', '--family', 'uniform', '--n', '4', '--k', '2', "
            f"'--seed', '5', '--out', {str(tmp_path / 'u.inst')!r}]) == 0\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
        )
        run_python(script, MNL_THREADS="2")
        assert len(read_rows(out)) == 8
        # a random family's gen in a fresh process draws numpy's stream in
        # Python, so it loads no numpy module, nor the solver, nor the
        # simulator layers, nor the run's output formats, nor OpenSSL
        for family in ("uniform", "dense", "sparse"):
            gen = ["gen", "--family", family, "--n", "4", "--k", "2", "--seed", "5",
                   "--out", str(tmp_path / f"{family}.inst")]
            script = (
                "import sys\n"
                "from mnlbandit import cli\n"
                f"assert cli.main({gen!r}) == 0\n"
                "unused = ['mnlbandit.oracle', 'mnlbandit.env', 'mnlbandit.estimators',\n"
                "          'mnlbandit.driver', 'csv', 'json', '_hashlib']\n"
                "loaded = [name for name in sys.modules\n"
                "          if name in unused or name.split('.')[0] == 'numpy']\n"
                "assert not loaded, loaded\n"
            )
            run_python(script)
        assert (tmp_path / "uniform.inst").read_bytes() == (tmp_path / "u.inst").read_bytes()
        # a lower-bound gen draws nothing and sums nothing, so it loads neither
        # numpy nor OpenSSL, and its hard family solves nothing
        gen = ["gen", "--family", "lower-bound", "--n", "4", "--k", "2",
               "--gaps", "0.01,0.01", "--out", str(tmp_path / "lb.inst")]
        script = (
            "import sys\n"
            "from mnlbandit import cli\n"
            f"assert cli.main({gen!r}) == 0\n"
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'numpy']\n"
            "assert not loaded, loaded\n"
            "assert '_hashlib' not in sys.modules\n"
            "assert 'mnlbandit.oracle' not in sys.modules\n"
        )
        run_python(script)
        # summarize reads results and loads no layer above the instances, and
        # takes its order statistics on Python numbers, so it loads no numpy
        summarize = ["summarize", "--results", str(out), "--out", str(tmp_path / "s.csv")]
        script = (
            "import sys\n"
            "from mnlbandit import cli\n"
            f"assert cli.main({summarize!r}) == 0\n"
            "unused = ['mnlbandit.oracle', 'mnlbandit.env', 'mnlbandit.estimators',\n"
            "          'mnlbandit.driver', 'json']\n"
            "loaded = [name for name in sys.modules\n"
            "          if name in unused or name.split('.')[0] == 'numpy']\n"
            "assert not loaded, loaded\n"
        )
        run_python(script)
        # a run through a pool that starts at once loads no executor, and its
        # process has one OS thread when it forks the worker
        script = (
            "import os, sys\n"
            "from mnlbandit import cli\n"
            "lazy = 'numpy.random' not in sys.modules\n"
            "cli.POOL_STARTUP_S = -1.0\n"
            "fork, threads = os.fork, []\n"
            "def counting_fork():\n"
            "    threads.append(len(os.listdir('/proc/self/task')))\n"
            "    return fork()\n"
            "os.fork = counting_fork\n"
            f"assert cli.main({self.pac_args(tmp_path, 'p.csv', reps=8)!r}) == 0\n"
            "assert threads == [1], threads\n"
            "unused = ['concurrent.futures', 'multiprocessing', 'queue'] + ['_hashlib'] * lazy\n"
            "loaded = [name for name in unused if name in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        run_python(script, MNL_THREADS="2")
        assert json.loads((tmp_path / "p.csv.meta.json").read_text())["workers"] == 2
        assert (tmp_path / "p.csv").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("shape", sorted(RUN_SHAPES))
    def test_job_survives_pickling(self, tmp_path, monkeypatch, instance_file, shape):
        # forked workers inherit the job and send back only their outcomes,
        # but a job stays a plain value: a copy from pickle replicates alike
        jobs = []

        def capture(job, reps, workers):
            jobs.append(job)
            return [cli._replicate(job, rep) for rep in range(reps)], 1

        monkeypatch.setattr(cli, "_run_replications", capture)
        assert run_cli(*shape_argv(instance_file(*UNIFORM_8), shape, tmp_path, "r.csv")) == 0
        (job,) = jobs
        copy = pickle.loads(pickle.dumps(job))
        outcomes = [cli._replicate(job, rep) for rep in (0, 1)]
        copied = [cli._replicate(copy, rep) for rep in (0, 1)]
        assert [row for row, _ in copied] == [row for row, _ in outcomes]
        for (_, ledger), (_, want) in zip(copied, outcomes):
            assert (ledger is None) == (want is None)
            assert want is None or np.array_equal(ledger.curve(), want.curve())
        assert [ledger is not None for _, ledger in outcomes] == [shape == "regret-curve", False]

    def test_replications_import_no_module(self, tmp_path, instance_file):
        # replication 0's time decides whether a pool starts, so a module that
        # a replication imports on first use would tilt that decision
        inst = instance_file(*UNIFORM_8)
        runs = [shape_argv(inst, shape, tmp_path, f"{shape}.csv") for shape in sorted(RUN_SHAPES)]
        script = (
            "import sys\n"
            "from mnlbandit import cli\n"
            "replicate, grown = cli._replicate, []\n"
            "def recording(job, rep):\n"
            "    before = set(sys.modules)\n"
            "    outcome = replicate(job, rep)\n"
            "    grown.append(sorted(set(sys.modules) - before))\n"
            "    return outcome\n"
            "cli._replicate = recording\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0\n"
            "assert len(grown) == 8 and not any(grown), grown\n"
        )
        run_python(script, MNL_THREADS="1")

    def test_instance_file_source(self, tmp_path, monkeypatch, instance_file):
        # the sidecar names the file and records the metadata `gen` wrote to it
        monkeypatch.setenv("MNL_THREADS", "1")
        lower_bound = ("--family", "lower-bound", "--n", "4", "--k", "2", "--gaps", "0.01,0.02")
        for gen in (UNIFORM_4, lower_bound):
            path = instance_file(*gen)
            out = str(tmp_path / "r.csv")
            assert run_cli("run", "--instance", path, "--mode", "pac", "--seed", "1",
                           "--tuning", "desk", "--out", out) == 0
            inst, meta = read_instance(path)
            with open(out + ".meta.json") as fh:
                recorded = json.load(fh)["config"]["instance"]
            assert recorded == {
                "source": path, "meta": meta, "n": 4, "k": 2,
                "r": [format(x, ".17g") for x in inst.r],
                "v": [format(x, ".17g") for x in inst.v],
            }

    def test_estimator_choices_are_the_drivers(self):
        # spelled out in the CLI, whose parser loads no simulator layer
        env = Environment(read_instance(self.inst)[0], fork_stream(1, 0))
        with pytest.raises(ValueError) as info:
            pac_exact(env, 0.1, DESK_TUNING, estimator="bogus")
        assert str(info.value).endswith(f"choose one of {', '.join(cli.ESTIMATORS)}")

    @pytest.mark.parametrize("estimator", ["naive", "reduced", "reg"])
    def test_estimator_rows_are_the_drivers(self, tmp_path, monkeypatch, estimator):
        # every --estimator runs driver.pac_exact's one body, at the same delta split
        monkeypatch.setenv("MNL_THREADS", "1")
        out = tmp_path / f"{estimator}.csv"
        assert run_cli(*self.pac_args(tmp_path, out.name, estimator=estimator)) == 0
        inst, _ = read_instance(self.inst)
        s_star = exact_optimum(inst).s_star
        want = []
        for rep in range(3):
            env = Environment(inst, fork_stream(1234, rep))
            res = pac_exact(env, 0.1, DESK_TUNING, estimator=estimator)
            want.append((str(env.ledger.steps), str(len(res.phases)),
                         "1" if res.assortment == s_star else "0"))
        got = [(row["steps"], row["phases"], row["success"]) for row in read_rows(out)]
        assert got == want

    def test_paper_tuning_runs_to_completion(self, tmp_path, monkeypatch):
        # the README instance at the paper's own constants (about 4e8 steps
        # per replication)
        monkeypatch.setenv("MNL_THREADS", "1")
        inst_path = str(tmp_path / "inst.txt")
        assert run_cli("gen", "--family", "uniform", "--n", "8", "--k", "3",
                       "--seed", "7", "--out", inst_path) == 0
        out = tmp_path / "paper.csv"
        assert run_cli(
            "run", "--instance", inst_path, "--mode", "pac", "--seed", "1234",
            "--reps", "2", "--tuning", "paper", "--out", str(out),
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert all(row["status"] == "ok" for row in rows)


class TestRunRegret:
    def test_curve_file_matches_the_result_row(self, tmp_path, monkeypatch, instance_file):
        monkeypatch.setenv("MNL_THREADS", "1")
        out = str(tmp_path / "r.csv")
        curve_out = str(tmp_path / "curve.csv")
        assert run_cli(
            "run", "--instance", instance_file(*UNIFORM_4), "--mode", "regret",
            "--horizon", "20000", "--seed", "99", "--reps", "2", "--tuning", "desk",
            "--out", out, "--curve-out", curve_out, "--curve-rep", "0",
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert all(r["status"] in ("ok", "horizon") for r in rows)
        assert all(int(r["steps"]) == 20000 for r in rows)
        with open(curve_out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            curve = [(int(t), float(x)) for t, x in reader]
        assert header == ["step", "cum_regret"]
        assert len(curve) == 20000
        assert curve[0][0] == 1 and curve[-1][0] == 20000
        values = np.array([x for _, x in curve])
        assert np.all(np.diff(values) >= -1e-12)  # cumulative, nondecreasing
        # the row total and the curve tail sum the same segments in a
        # different order; they agree to float accumulation error
        np.testing.assert_allclose(float(rows[0]["regret"]), values[-1], rtol=1e-9)


    def test_sidecar_records_the_estimator_that_ran(self, tmp_path, monkeypatch, instance_file):
        monkeypatch.setenv("MNL_THREADS", "1")
        out = str(tmp_path / "r.csv")
        assert run_cli(
            "run", "--instance", instance_file(*UNIFORM_4), "--mode", "regret", "--horizon", "2000",
            "--seed", "99", "--tuning", "desk", "--delta", "0.5", "--out", out,
        ) == 0
        with open(out + ".meta.json") as fh:
            config = json.load(fh)["config"]
        # the run used est_reg at delta = 1/horizon, whatever --delta said
        assert config["estimator"] == "reg"
        assert (config["delta"], config["horizon"], config["eps"]) == (1 / 2000, 2000, None)


class TestSummarize:
    def write_results(self, path, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow(row)

    @staticmethod
    def row(rep, steps, success, phases, regret=""):
        return {
            "replication": str(rep),
            "seed": "0",
            "steps": str(steps),
            "success": str(success),
            "set_size": "2",
            "phases": str(phases),
            "regret": regret,
            "status": "ok",
        }

    def test_statistics_are_exact(self, tmp_path, capsys):
        path = str(tmp_path / "r.csv")
        self.write_results(
            path,
            [
                self.row(0, 10, 1, 1),
                self.row(1, 20, 0, 2, "5.0"),
                self.row(2, 30, 1, 3, "7.0"),
            ],
        )
        assert run_cli("summarize", "--results", path) == 0
        output = capsys.readouterr().out.splitlines()
        assert output[0] == ",".join(SUMMARY_COLUMNS)
        parsed = dict(zip(SUMMARY_COLUMNS, output[1].split(",")))
        assert parsed["file"] == "r.csv"
        assert parsed["rows"] == "3"
        assert parsed["success_rate"] == format(2 / 3, ".6g")
        assert parsed["steps_median"] == "20"
        assert parsed["steps_mean"] == "20"
        assert parsed["steps_p10"] == "12"
        assert parsed["steps_p90"] == "28"
        assert parsed["phases_median"] == "2"
        assert parsed["regret_median"] == "6"

    def test_multiple_files_and_output_path(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self.write_results(a, [self.row(0, 10, 1, 1)])
        self.write_results(b, [self.row(0, 40, 0, 2)])
        out = str(tmp_path / "summary.csv")
        assert run_cli("summarize", "--results", a, b, "--out", out) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("a.csv,") and lines[2].startswith("b.csv,")

    def test_empty_results_yield_header_only(self, tmp_path, capsys):
        path = str(tmp_path / "empty.csv")
        self.write_results(path, [])
        assert run_cli("summarize", "--results", path) == 0
        assert capsys.readouterr().out.strip() == ",".join(SUMMARY_COLUMNS)

    def test_missing_columns_are_a_runtime_error(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        with open(path, "w", newline="") as fh:
            fh.write("foo,bar\n1,2\n")
        assert run_cli("summarize", "--results", path) == 2
        assert "missing results columns" in capsys.readouterr().err

    def test_malformed_row_names_the_line(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        self.write_results(path, [self.row(0, 10, 1, 1)])
        with open(path, "a", newline="") as fh:
            fh.write("1,0,not-a-number,1,2,1,,ok\n")
        assert run_cli("summarize", "--results", path) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("line, reason", [
        ("1,0,10,7,2,1,,ok", "success '7' is not 0 or 1"),
        ("1,0,nan,1,2,1,,ok", "invalid literal for int() with base 10: 'nan'"),
        ("1,0,2.5,1,2,1,,ok", "invalid literal for int() with base 10: '2.5'"),
        ("1,0,-5,1,2,1,,ok", "negative count '-5'"),
        ("1,0,10,1,2,inf,,ok", "invalid literal for int() with base 10: 'inf'"),
        ("1,0,10,1,2,1,nan,ok", "regret 'nan' is not finite"),
        ("1,0,10,1,2,1,-inf,ok", "regret '-inf' is not finite"),
        ("1,0,10,1,2,1,,ok,extra", "9 fields, not 8"),
        ("1,0,10,1,2,1,", "7 fields, not 8"),
        # int() and float() read these, but run spells its counts as str(int)
        # and its regrets as repr(float)
        ("1,0,1_000,1,2,1,,ok", "count '1_000' is not written as run writes it"),
        ("1,0,10,1,2,+3,,ok", "count '+3' is not written as run writes it"),
        ("1,0, 20 ,1,2,1,,ok", "count ' 20 ' is not written as run writes it"),
        ("1,0,10,1,2,1,1_0.5,ok", "regret '1_0.5' is not written as run writes it"),
    ], ids=["success", "nan-steps", "fractional-steps", "negative-steps", "inf-phases",
            "nan-regret", "infinite-regret", "extra-field", "short-row", "underscored-steps",
            "signed-phases", "spaced-steps", "underscored-regret"])
    def test_rows_run_never_writes_are_refused(self, tmp_path, capsys, line, reason):
        path = str(tmp_path / "bad.csv")
        self.write_results(path, [self.row(0, 10, 1, 1)])
        with open(path, "a", newline="") as fh:
            fh.write(line + "\n")
        assert run_cli("summarize", "--results", path) == 2
        assert capsys.readouterr().err == f"error: {path}: line 3: malformed row ({reason})\n"

    def test_missing_file_is_a_runtime_error(self, tmp_path):
        assert run_cli("summarize", "--results", str(tmp_path / "nope.csv")) == 2

    def test_columns_are_numpys_bit_for_bit(self, tmp_path):
        # numpy is the reference: every order statistic must be its float bit
        # for bit, a mean wherever numpy's float sum is exact (a total within
        # 2**53), and every column its .6g bytes.  The grid has ties, steps up
        # to 1e15 with totals past 2**53, steps up to a regret run's largest
        # horizon, where floats round them, six rows, where a percentile falls
        # exactly halfway (t = 0.5), and regrets near and at -0.0 (none in a
        # quarter of the files)
        rng = random.Random(45)
        regrets = [-0.0, 0.0, -5e-324, -1e-300, -3.7e-17, 2.5e-16, 880.4600751295272]
        grid = itertools.product((1, 2, 3, 6, 10, 57, 400),
                                 (3, 10**6, 10**15, cli.MAX_HORIZON), range(4))
        for case, (n, top, trial) in enumerate(grid):
            steps = [rng.randint(0, top) for _ in range(n)]
            success = [rng.randint(0, 1) for _ in range(n)]
            phases = [rng.randint(0, 3) for _ in range(n)]
            regret = [rng.choice(regrets) if rng.random() < 0.7 else rng.uniform(-1e-9, 1e9)
                      for _ in range(n)] if trial else []
            path = tmp_path / f"r{case}.csv"
            self.write_results(path, [
                self.row(i, steps[i], success[i], phases[i], repr(regret[i]) if regret else "")
                for i in range(n)])
            as_floats = np.array(steps, dtype=float)
            want = {
                "success_rate": np.mean(success),
                "steps_median": np.median(as_floats),
                "steps_mean": np.mean(as_floats),
                "steps_p10": np.percentile(as_floats, 10),
                "steps_p90": np.percentile(as_floats, 90),
                "phases_median": np.median(np.array(phases, dtype=float)),
                "regret_median": np.median(regret) if regret else None,
            }
            got = cli._summary_numbers(as_floats.tolist(), success, list(map(float, phases)),
                                       regret)
            assert sorted(got) == sorted(want)
            row = cli._summarize_file(str(path))
            for name, value in want.items():
                if value is None:
                    assert got[name] is None and row[name] == ""
                    continue
                if name != "steps_mean" or sum(steps) <= 2**53:
                    assert got[name].hex() == float(value).hex(), (path, name)
                assert row[name] == format(float(value), ".6g"), (path, name)

    def test_out_naming_a_results_file_fails_before_any_summary(self, tmp_path, capsys,
                                                                monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("summary started")

        monkeypatch.setattr(cli, "_summarize_file", fail)
        a, res = str(tmp_path / "a.csv"), str(tmp_path / "res.csv")
        self.write_results(a, [self.row(0, 10, 1, 1)])
        self.write_results(res, [self.row(0, 40, 0, 2)])
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run_cli("summarize", "--results", a, res, "--out", res) == 1
        assert capsys.readouterr().err == (
            f"usage error: --out {res} names the same file as --results {res}\n"
        )
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestProcessStartUp:
    """What a process pays before and after its command: one OS thread, no
    environment change from a plain package import, and a frozen import heap
    only when `main` is the process entry.  Each check runs a fresh process."""

    GEN = ["gen", "--family", "uniform", "--n", "4", "--k", "2", "--seed", "5"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_import_runs_one_thread(self):
        out = run_python(
            "import os\n"
            "import mnlbandit.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n",
            OPENBLAS_NUM_THREADS=None,
        )
        assert out.split() == ["1", "1"]

    def test_cli_import_keeps_a_preset_thread_count(self):
        out = run_python(
            "import os\n"
            "import mnlbandit.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
            OPENBLAS_NUM_THREADS="2",
        )
        assert out.split() == ["2"]

    def test_package_import_leaves_the_environment_and_numpy_alone(self):
        run_python(
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import mnlbandit\n"
            "assert dict(os.environ) == before\n"
            "assert 'numpy' not in sys.modules\n",
            OPENBLAS_NUM_THREADS=None,
        )

    def test_every_exported_name_resolves(self):
        run_python(
            "import importlib\n"
            "import mnlbandit\n"
            "for module in mnlbandit._LAYERS:\n"
            "    assert getattr(mnlbandit, module) is importlib.import_module('mnlbandit.' + module)\n"
            "table = {name: module for module, names in mnlbandit._LAYERS.items()\n"
            "         for name in names}\n"
            "assert sorted(table) == sorted(mnlbandit.__all__)\n"
            "for name, module in table.items():\n"
            "    defined = getattr(importlib.import_module('mnlbandit.' + module), name)\n"
            "    assert getattr(mnlbandit, name) is defined, name\n"
            "namespace = {}\n"
            "exec('from mnlbandit import *', namespace)\n"
            "assert set(mnlbandit.__all__) <= set(namespace)\n"
            "assert set(mnlbandit.__all__) <= set(dir(mnlbandit))\n"
            "try:\n"
            "    mnlbandit.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('an unknown name resolved')\n"
        )

    def test_only_the_process_entry_freezes_the_heap(self, tmp_path):
        argv = [*self.GEN, "--out", str(tmp_path / "u.inst")]
        run_python(
            "import gc, sys\n"
            "from mnlbandit import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert gc.get_freeze_count() == 0\n"
            f"sys.argv = ['mnlbandit', *{argv!r}]\n"
            "assert cli.main() == 0\n"
            "assert gc.get_freeze_count() > 0\n"
        )

    def test_the_process_entry_freezes_after_the_command_imports(self, tmp_path, instance_file):
        # frozen before a command's imports, their objects would be walked
        # again at exit: the entry must freeze at least what they leave, numpy
        # and numpy.random for run, the CLI's own modules for gen (which loads
        # no numpy)
        run = ["run", "--instance", instance_file(*UNIFORM_4), "--mode", "pac",
               "--tuning", "desk", "--seed", "1", "--out", str(tmp_path / "r.csv")]
        for argv, imports in (
            ([*self.GEN, "--out", str(tmp_path / "u.inst")], "from mnlbandit import cli\n"),
            (run, "import numpy, numpy.random\nfrom mnlbandit import cli\n"),
        ):
            imported = int(run_python(
                "import gc\n" + imports + "gc.freeze()\nprint(gc.get_freeze_count())\n"
            ))
            frozen = int(run_python(
                "import gc, sys\n"
                "from mnlbandit import cli\n"
                f"sys.argv = ['mnlbandit', *{argv!r}]\n"
                "assert cli.main() == 0\n"
                "print(gc.get_freeze_count())\n",
                MNL_THREADS="1",
            ))
            assert frozen >= imported, (argv[0], frozen, imported)
