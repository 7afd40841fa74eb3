"""End-to-end tests of the command-line interface (via main(argv))."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from mnlbandit.cli import CSV_COLUMNS, RESULTS_FORMAT, SUMMARY_COLUMNS, main
from mnlbandit.env import stream_digest
from mnlbandit.instances import read_instance
from mnlbandit.oracle import brute_force_optimum, exact_optimum


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_malformed_gaps_list(self, tmp_path):
        assert run_cli(
            "gen", "--family", "lower-bound", "--n", "4", "--k", "2",
            "--gaps", "0.01,oops", "--out", str(tmp_path / "x.inst"),
        ) == 1

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
    def test_out_required(self, tmp_path):
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "pac", "--seed", "1",
        ) == 1

    def test_inline_generation_needs_shape(self, tmp_path):
        assert run_cli(
            "run", "--family", "uniform", "--gen-seed", "5", "--mode", "pac",
            "--seed", "1", "--out", str(tmp_path / "r.csv"),
        ) == 1

    def test_inline_generation_needs_gen_seed(self, tmp_path):
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--mode", "pac", "--seed", "1", "--out", str(tmp_path / "r.csv"),
        ) == 1

    def test_pac_eps_needs_eps_and_adaptive(self, tmp_path):
        base = (
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "pac-eps", "--seed", "1",
            "--out", str(tmp_path / "r.csv"), "--tuning", "desk",
        )
        assert run_cli(*base) == 1
        assert run_cli(*base, "--eps", "0.2", "--estimator", "naive") == 1

    def test_regret_needs_horizon_and_reg_estimator(self, tmp_path):
        base = (
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "regret", "--seed", "1",
            "--out", str(tmp_path / "r.csv"), "--tuning", "desk",
        )
        assert run_cli(*base) == 1
        assert run_cli(*base, "--horizon", "100", "--estimator", "naive") == 1

    def test_curve_flags(self, tmp_path):
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "pac", "--seed", "1",
            "--out", str(tmp_path / "r.csv"),
            "--curve-out", str(tmp_path / "c.csv"),
        ) == 1
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "regret", "--horizon", "100",
            "--seed", "1", "--out", str(tmp_path / "r.csv"),
            "--curve-out", str(tmp_path / "c.csv"), "--curve-rep", "5",
            "--reps", "2",
        ) == 1

    def test_reps_must_be_positive(self, tmp_path):
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "pac", "--seed", "1",
            "--reps", "0", "--out", str(tmp_path / "r.csv"),
        ) == 1

    def test_bad_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "zero")
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "pac", "--seed", "1",
            "--out", str(tmp_path / "r.csv"), "--tuning", "desk",
        ) == 1
        monkeypatch.setenv("MNL_THREADS", "0")
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "pac", "--seed", "1",
            "--out", str(tmp_path / "r.csv"), "--tuning", "desk",
        ) == 1

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "gen" in capsys.readouterr().out


class TestRunPac:
    def pac_args(self, tmp_path, out_name, **extra):
        argv = [
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "pac", "--seed", "1234",
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
        assert run_cli(
            *self.pac_args(tmp_path, "r.csv", ci_scale="0.05")
        ) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["format"] == RESULTS_FORMAT
        assert "created_utc" in meta
        assert meta["config"]["mode"] == "pac"
        assert meta["config"]["master_seed"] == 1234
        assert meta["config"]["tuning"]["ci_scale"] == 0.05
        assert meta["config"]["tuning"]["tau_scale"] == 2e-6  # desk base kept
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

    def test_instance_file_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        inst_path = str(tmp_path / "u.inst")
        run_cli("gen", "--family", "uniform", "--n", "4", "--k", "2",
                "--seed", "5", "--out", inst_path)
        out = str(tmp_path / "r.csv")
        assert run_cli(
            "run", "--instance", inst_path, "--mode", "pac", "--seed", "1234",
            "--tuning", "desk", "--out", out,
        ) == 0
        # identical instance => identical replication-0 row as inline generation
        inline_out = tmp_path / "inline.csv"
        assert run_cli(*self.pac_args(tmp_path, "inline.csv")) == 0
        assert read_rows(out)[0] == read_rows(inline_out)[0]

    def test_alternative_estimators_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        for estimator in ("naive", "reduced", "reg"):
            out = tmp_path / f"{estimator}.csv"
            argv = [
                "run", "--family", "uniform", "--n", "4", "--k", "2",
                "--gen-seed", "5", "--mode", "pac", "--seed", "7",
                "--tuning", "desk", "--estimator", estimator, "--out", str(out),
            ]
            assert run_cli(*argv) == 0
            assert len(read_rows(out)) == 1

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

    def test_run_mode_oracle_prints_or_writes(self, tmp_path, capsys):
        argv = [
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "oracle", "--seed", "1",
        ]
        assert run_cli(*argv) == 0
        assert "theta_star" in capsys.readouterr().out
        out = str(tmp_path / "report.txt")
        assert run_cli(*argv, "--out", out) == 0
        assert "theta_star" in Path(out).read_text()


class TestRunRegret:
    def test_curve_file_matches_the_result_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        out = str(tmp_path / "r.csv")
        curve_out = str(tmp_path / "curve.csv")
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "regret", "--horizon", "20000",
            "--seed", "99", "--reps", "2", "--tuning", "desk",
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


    def test_sidecar_records_the_estimator_that_ran(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MNL_THREADS", "1")
        out = str(tmp_path / "r.csv")
        assert run_cli(
            "run", "--family", "uniform", "--n", "4", "--k", "2",
            "--gen-seed", "5", "--mode", "regret", "--horizon", "2000",
            "--seed", "99", "--tuning", "desk", "--estimator", "adaptive",
            "--out", out,
        ) == 0
        with open(out + ".meta.json") as fh:
            assert json.load(fh)["config"]["estimator"] == "reg"


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

    def test_missing_file_is_a_runtime_error(self, tmp_path):
        assert run_cli("summarize", "--results", str(tmp_path / "nope.csv")) == 2
