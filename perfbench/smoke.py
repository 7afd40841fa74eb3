"""Smoke test of the benchmark: every workload with a few replications.

Usage, from the root of a source checkout::

    python3 perfbench/smoke.py

For each workload of ``perfbench/run.py`` (those in ``BENCHMARK.json`` and
``regret-curve``) this runs the benchmark command with ``--smoke`` (a few
replications), once untraced and once traced.  It asserts that each run exits
0, that the output checks and the span-coverage check passed (``correct`` and
no failed replication), and that it printed exactly the metrics
``BENCHMARK.json`` names, each with its unit.  It then checks that the
benchmark refuses to run, without printing a result, in a directory holding
only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory
from run import WORKLOADS  # noqa: E402  (perfbench/run.py, next to this file)

TIMEOUT_S = 300


def _check_result(spec: dict, name: str, trace: int) -> list:
    command = [*spec["command"], "--workload", name, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=TIMEOUT_S)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: checks did not pass: {result}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    if set(printed) != set(expected):
        problems.append(f"{where}: metrics differ: missing {sorted(set(expected) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(expected))}")
    for metric, unit in expected.items():
        entry = printed.get(metric, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} printed as {entry}, want a number in {unit}")
    return problems


def _check_refuses_without_sources(spec: dict) -> list:
    bare = os.path.join(".perfbench_work", f"smoke-bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = subprocess.run(
            [*spec["command"], "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["the benchmark ran in a directory without the program's sources"]
    return []


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            found = _check_result(spec, name, trace)
            print(f"{name} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            problems.extend(found)
    found = _check_refuses_without_sources(spec)
    print(f"refuses without sources: {'FAIL' if found else 'ok'}")
    problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
