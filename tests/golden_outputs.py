"""Golden CLI outputs: run the commands of ``tests/golden/manifest.json``.

Each case of the manifest is a list of ``mnlbandit`` command lines (without
the program name; ``> FILE`` keeps a command's standard output in ``FILE``)
run in-process through ``cli.main`` in an empty directory.  Every file a
case leaves is one of its outputs.  A results sidecar is reduced to its
``format`` and ``config``, the fields that depend only on the command line;
its timestamp, wall time, worker count and versions are left out.

The manifest records, per output, its size and SHA-256, plus the numpy
version and ``RNG_ALGORITHM_ID`` the outputs were made with.  Outputs of at
most `INLINE_LIMIT` bytes are also committed under ``tests/golden/<case>/``,
so that a mismatch can show the first differing row.  ``tests/test_golden.py``
compares a fresh run with all of it.

The CLI's outputs show an interval only where it flips a decision, so
``tests/golden/intervals.json`` also pins, for a few seeded many-small
replications, each phase's ``max_width`` and its ``ci_theta`` ends, read
from the phase records of the run's result (`phase_intervals`).

A change that alters outputs by design regenerates them, at
``MNL_THREADS=1``, with::

    PYTHONPATH=src python tests/golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import tempfile
from pathlib import Path

import numpy as np

from mnlbandit import cli, driver
from mnlbandit.env import RNG_ALGORITHM_ID, Environment, fork_stream
from mnlbandit.estimators import DESK_TUNING
from mnlbandit.instances import generate_instance

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN_DIR / "manifest.json"
INTERVALS = GOLDEN_DIR / "intervals.json"

#: Outputs larger than this are recorded by their SHA-256 only.
INLINE_LIMIT = 50 * 1024


def load_manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def parse_command(line):
    """``(argv, stdout file or None)`` of one manifest command line."""
    argv = shlex.split(line)
    if ">" in argv:
        at = argv.index(">")
        return argv[:at], argv[at + 1]
    return argv, None


def _normalise(name, data):
    if not name.endswith(".meta.json"):
        return data
    sidecar = json.loads(data)
    kept = {key: sidecar[key] for key in ("format", "config")}
    return (json.dumps(kept, indent=2, sort_keys=True) + "\n").encode("utf-8")


def run_case(case, workdir):
    """Run a case's commands in ``workdir``; return ``{file name: bytes}``.

    Raises `RuntimeError` naming the command and its error output when a
    command does not exit 0.
    """
    back = os.getcwd()
    os.chdir(workdir)
    try:
        for line in case["commands"]:
            argv, stdout_name = parse_command(line)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"`{line}` exited {code}: {err.getvalue().strip()}")
            if stdout_name is not None:
                Path(stdout_name).write_text(out.getvalue(), encoding="utf-8")
        return {
            path.name: _normalise(path.name, path.read_bytes())
            for path in sorted(Path(".").iterdir())
        }
    finally:
        os.chdir(back)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def first_difference(want, got):
    """Where two outputs first differ, as one line per side."""
    want_rows, got_rows = want.decode().splitlines(), got.decode().splitlines()
    for row, (a, b) in enumerate(zip(want_rows, got_rows), start=1):
        if a != b:
            return f"row {row}:\n  expected {a!r}\n  got      {b!r}"
    row = min(len(want_rows), len(got_rows)) + 1
    return f"row {row}: expected {len(want_rows)} rows, got {len(got_rows)}"


def phase_intervals():
    """Per phase of the first replications of the many-small case's ``run``
    (``pac`` at ``--delta 0.1 --tuning desk --seed 1000``), read from the
    run's phase records: ``max_width`` and the ``ci_theta`` ends
    ``[theta_lo, theta_hi]``, each as its ``repr``."""
    inst = generate_instance("uniform", 8, 3, seed=7)
    replications = []
    for rep in range(5):
        res = driver.pac_exact(Environment(inst, fork_stream(1000, rep)), 0.1, DESK_TUNING)
        replications.append(
            [
                {
                    "max_width": repr(p.est.max_width()),
                    "theta": [repr(p.est.theta_lo), repr(p.est.theta_hi)],
                }
                for p in res.phases
            ]
        )
    return {"case": "many-small", "replications": replications}


def regenerate():
    """Rerun every case and rewrite the manifest's records and inline files."""
    os.environ["MNL_THREADS"] = "1"
    manifest = load_manifest()
    for case in manifest["cases"]:
        with tempfile.TemporaryDirectory() as work:
            outputs = run_case(case, work)
        case_dir = GOLDEN_DIR / case["name"]
        shutil.rmtree(case_dir, ignore_errors=True)
        case_dir.mkdir()
        case["outputs"] = {}
        for name, data in outputs.items():
            case["outputs"][name] = {"bytes": len(data), "sha256": digest(data)}
            if len(data) <= INLINE_LIMIT:
                (case_dir / name).write_bytes(data)
    manifest["numpy"] = np.__version__
    manifest["rng_algorithm"] = RNG_ALGORITHM_ID
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    INTERVALS.write_text(json.dumps(phase_intervals(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
