"""A fixed grid of edge-case CLI commands, run in-process through `main`.

Every command must exit 0, 1 or 2; a failure must write exactly one stderr
line, ``error: ...`` or ``usage error: ...``, and no traceback; and a command
that succeeds must write byte-identical files when it runs again.  The grid
reaches the limits the CLI accepts: instances of up to 1000 items in every
family, lower-bound gaps down to 1e-12 at the paper's constants, horizons from
2 to past 2**63, and confidence and slack parameters at and beyond the ends of
(0, 1).  A ``run`` case names the `INSTANCES` entry whose file ``gen`` writes
for it to read, and only the cases of `_usage_cases` may end in a usage error,
so that every other case reaches the run it was written for.
``MNL_THREADS=1`` keeps every replication in this process.
"""

import pytest

from mnlbandit.cli import main

N_BIG = 1000

#: `gen` flags of each instance that ``run`` cases read, by the name a case gives
INSTANCES = {
    "uniform-6": ("--family", "uniform", "--n", "6", "--k", "3", "--seed", "3"),
    "dense-6": ("--family", "dense", "--n", "6", "--k", "2", "--seed", "3"),
    "sparse-6": ("--family", "sparse", "--n", "6", "--k", "3", "--seed", "3"),
    "uniform-1000": ("--family", "uniform", "--n", str(N_BIG), "--k", "50", "--seed", "3"),
    "uniform-8": ("--family", "uniform", "--n", "8", "--k", "3", "--seed", "5"),
    **{
        f"lower-bound-{gap}": ("--family", "lower-bound", "--n", "4", "--k", "2",
                               "--gaps", f"{gap},{gap}")
        for gap in ("1e-3", "1e-6", "1e-9", "1e-12")
    },
}


def _gaps(count, gap):
    return ",".join([gap] * count)


def _gen_cases():
    cases = []
    for family in ("uniform", "dense", "sparse"):
        for n, k in ((1, 1), (2, 1), (7, 7), (N_BIG, 50), (5, 0), (5, 6), (0, 1)):
            cases.append((family, ("--n", str(n), "--k", str(k), "--seed", "3")))
    for n, k, gap in ((4, 2, "0.01"), (N_BIG, 2, "0.01"), (6, 2, "1e-12"),
                      (4, 2, "0.5"), (4, 2, "0"), (4, 2, "nan")):
        cases.append(("lower-bound", ("--n", str(n), "--k", str(k), "--gaps", _gaps(n - k, gap))))
    cases.append(("lower-bound", ("--n", "4", "--k", "2", "--gaps", "0.01")))  # one gap short
    return [("gen", "--family", family, *flags) for family, flags in cases]


def _run_cases():
    """``(instance name, run flags...)`` of the runs that reach a replication or
    a runtime refusal."""
    cases = []
    for name in ("uniform-6", "dense-6", "sparse-6", "uniform-1000"):
        cases.append((name, "--mode", "pac", "--tuning", "desk", "--reps", "2"))
        cases.append((name, "--mode", "pac-eps", "--eps", "0.1", "--tuning", "desk"))
        cases.append((name, "--mode", "regret", "--horizon", "20000", "--tuning", "desk"))
    for gap in ("1e-3", "1e-6", "1e-9", "1e-12"):
        cases.append((f"lower-bound-{gap}", "--mode", "pac", "--tuning", "paper"))
    for name, n in (("uniform-8", 8), ("uniform-1000", N_BIG)):
        for horizon in (2, n - 1, n):
            cases.append((name, "--mode", "regret", "--horizon", str(horizon)))
    for horizon in (2**63 - 1, 2**64):
        cases.append(("uniform-8", "--mode", "regret", "--horizon", str(horizon),
                      "--tuning", "paper"))
    for tuning in ("desk", "paper"):
        for delta in ("5e-324", "1e-300", "0.999999", "0", "1", "nan"):
            cases.append(("uniform-8", "--mode", "pac", "--delta", delta, "--tuning", tuning))
            cases.append(("uniform-8", "--mode", "pac-eps", "--eps", "0.1", "--delta", delta,
                          "--tuning", tuning))
        for eps in ("1e-9", "0.999", "1"):
            cases.append(("uniform-8", "--mode", "pac-eps", "--eps", eps, "--tuning", tuning))
    return [(*case, "--seed", "1") for case in cases]


def _usage_cases():
    """Runs whose flags ``run`` refuses before it reads the instance."""
    return [
        ("uniform-8", "--mode", "regret", "--horizon", "2.5", "--seed", "1"),
        ("uniform-8", "--mode", "pac", "--eps", "0.1", "--seed", "1"),
    ]


def _curve_cases():
    """Regret runs that also write a curve: horizons of at most 1e5 only."""
    return [
        ("uniform-8", "--mode", "regret", "--horizon", horizon, "--tuning", tuning,
         "--reps", "2", "--curve-rep", "1", "--seed", "2")
        for horizon in ("8", "1000", "100000")
        for tuning in ("desk", "paper")
    ]


def _call(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        assert lines[0].startswith(("error: ", "usage error: ")), (argv, err)
        assert "Traceback" not in err
    return code, out


def _outputs(tmp_path, argv, tag, curve):
    """``argv`` with its output flags pointing at ``tmp_path`` files named by
    ``tag``; and the paths the command writes that must repeat byte for byte."""
    if argv[0] == "gen":
        path = tmp_path / f"{tag}.inst"
        return (*argv, "--out", str(path)), [path]
    if argv[0] == "oracle":
        return argv, []
    paths = [tmp_path / f"{tag}.csv"]
    flags = ("--out", str(paths[0]))
    if curve:
        paths.append(tmp_path / f"{tag}.curve.csv")
        flags += ("--curve-out", str(paths[1]))
    return (*argv, *flags), paths


def _check_repeatable(tmp_path, capsys, argv, curve=False):
    first, paths = _outputs(tmp_path, argv, "first", curve)
    code, out = _call(capsys, first)
    if code == 0:
        again, again_paths = _outputs(tmp_path, argv, "again", curve)
        assert _call(capsys, again) == (0, out), argv
        for a, b in zip(paths, again_paths):
            assert a.read_bytes() == b.read_bytes(), (argv, a.name)
    return code


@pytest.fixture(autouse=True)
def _one_process(monkeypatch):
    monkeypatch.setenv("MNL_THREADS", "1")


def _run_argv(instance_file, case):
    """The ``run`` argv of a case: its instance's file and its flags."""
    name, *flags = case
    return ("run", "--instance", instance_file(*INSTANCES[name]), *flags)


@pytest.mark.parametrize("argv", _gen_cases(), ids=lambda a: " ".join(a)[:80])
def test_gen_then_oracle(tmp_path, capsys, argv):
    if _check_repeatable(tmp_path, capsys, argv) == 0:
        _check_repeatable(tmp_path, capsys, ("oracle", "--instance", str(tmp_path / "first.inst")))


@pytest.mark.parametrize("case", _run_cases(), ids=lambda a: " ".join(a)[:80])
def test_run(tmp_path, capsys, instance_file, case):
    assert _check_repeatable(tmp_path, capsys, _run_argv(instance_file, case)) in (0, 2)


@pytest.mark.parametrize("case", _usage_cases(), ids=lambda a: " ".join(a)[:80])
def test_run_usage_error(tmp_path, capsys, instance_file, case):
    assert _check_repeatable(tmp_path, capsys, _run_argv(instance_file, case)) == 1


@pytest.mark.parametrize("case", _curve_cases(), ids=lambda a: " ".join(a)[:80])
def test_run_with_curve(tmp_path, capsys, instance_file, case):
    assert _check_repeatable(tmp_path, capsys, _run_argv(instance_file, case), curve=True) == 0

