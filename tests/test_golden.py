"""Golden CLI outputs stay byte-identical (see ``tests/golden_outputs.py``).

Every case of ``tests/golden/manifest.json`` runs in-process at
``MNL_THREADS=1`` and once more through a worker pool that every run of two
or more replications starts.  A mismatch names the first differing row of an
output and both numpy versions: numpy may change a distribution's stream
between releases, and the outputs are pinned to the version they were made
with.  ``tests/golden/intervals.json`` pins the interval widths and ends of a
few many-small replications, which the outputs see only through decisions.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mnlbandit import cli
from mnlbandit.env import RNG_ALGORITHM_ID
from golden_outputs import (
    GOLDEN_DIR,
    INLINE_LIMIT,
    INTERVALS,
    digest,
    first_difference,
    load_manifest,
    parse_command,
    phase_intervals,
    run_case,
)

MANIFEST = load_manifest()
CASES = {case["name"]: case for case in MANIFEST["cases"]}
ROOT = Path(__file__).resolve().parent.parent


def _versions():
    return f"outputs made with numpy {MANIFEST['numpy']}; this run has numpy {np.__version__}"


@pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match(name, pool, tmp_path, monkeypatch):
    monkeypatch.setenv("MNL_THREADS", "2" if pool else "1")
    if pool:
        monkeypatch.setattr(cli, "POOL_STARTUP_S", -1.0)
    got = run_case(CASES[name], tmp_path)
    want = CASES[name]["outputs"]
    problems = []
    if sorted(got) != sorted(want):
        problems.append(f"{name}: expected files {sorted(want)}, got {sorted(got)}")
    for file in sorted(set(got) & set(want)):
        data = got[file]
        if digest(data) == want[file]["sha256"]:
            continue
        committed = GOLDEN_DIR / name / file
        if committed.exists():
            where = first_difference(committed.read_bytes(), data)
        else:
            rows = data.count(b"\n")
            where = f"SHA-256 differs ({len(data)} bytes in {rows} rows, expected {want[file]['bytes']} bytes)"
        problems.append(f"{name}/{file}: {where}")
    assert not problems, "\n".join(problems + [_versions()])


def test_phase_intervals_match():
    # a change that only widens an interval leaves the CLI's outputs alone
    want = json.loads(INTERVALS.read_text(encoding="utf-8"))
    assert phase_intervals() == want, _versions()


def test_committed_files_match_the_manifest():
    for name, case in CASES.items():
        small = {f for f, rec in case["outputs"].items() if rec["bytes"] <= INLINE_LIMIT}
        case_dir = GOLDEN_DIR / name
        assert {p.name for p in case_dir.iterdir()} == small, name
        for file in small:
            assert digest((case_dir / file).read_bytes()) == case["outputs"][file]["sha256"], file


def test_made_under_the_current_rng_algorithm():
    # a stream change bumps RNG_ALGORITHM_ID and regenerates the outputs
    assert MANIFEST["rng_algorithm"] == RNG_ALGORITHM_ID


def test_ci_pins_the_manifest_numpy():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert f'numpy: "numpy=={MANIFEST["numpy"]}"' in workflow


def test_readme_cli_block_is_the_readme_case():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```$", readme, re.M | re.S)
    commands = []
    for line in block.group(1).replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "mnlbandit"
            commands.append(argv[1:])
    want = [parse_command(line)[0] for line in CASES["readme"]["commands"]]
    assert commands == want
