"""The benchmark tracer's bindings resolve in the package, and a traced run
records every span attribute.

``perfbench/trace_layers.py`` wraps each function and method it lists by name
before a traced run.  A name that the package no longer defines breaks every
``--trace 1`` run of the benchmark; the name check finds it.  The tracer also
reads fields of what the wrapped calls return (``EpochBatch.truncated``,
``PhaseState.b_set`` and others), which only a traced run exercises, so two
tiny traced runs check those.  Neither writes bytecode, so the checkout stays
clean.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "trace_layers.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in tracer.FUNCTIONS
        if not callable(getattr(module, name, None))
    ]
    missing += [
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls, name, _ in tracer.METHODS
        if not callable(vars(cls).get(name))
    ]
    assert not missing, f"the tracer binds names the package lacks: {missing}"
    modules = {module.__name__.split(".")[0] for module, _, _ in tracer.FUNCTIONS}
    assert modules == {"mnlbandit"}


#: Traced runs on one small instance: their mode flags and the driver spans
#: each must record (``pac_eps`` runs its own span, never a nested ``pac_exact``).
TRACED_RUNS = {
    "pac": (("--mode", "pac", "--reps", "3"), {"driver.pac_exact": 3, "driver.sar_mnl": 3}),
    "pac-eps": (("--mode", "pac-eps", "--eps", "0.1"), {"driver.pac_eps": 1, "driver.sar_mnl": 1}),
    # a budget of 2000 steps cuts an estimator's batch in each replication
    "regret": (("--mode", "regret", "--horizon", "2000", "--reps", "2"),
               {"driver.regret_min": 2, "driver.sar_mnl": 2}),
}


@pytest.mark.parametrize("mode", sorted(TRACED_RUNS))
def test_traced_run_records_every_attribute(tmp_path, instance_file, mode):
    flags, driver_spans = TRACED_RUNS[mode]
    inst = instance_file("--family", "uniform", "--n", "8", "--k", "3", "--seed", "7")
    spans_path = tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", str(TRACER), str(spans_path), "run", "--instance", inst,
         "--tuning", "desk", "--seed", "1", *flags, "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, MNL_THREADS="1", PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    samples = [s for s in spans if s[0] == "env.sample"]
    drivers = [s for s in spans if s[0].startswith("driver.")]
    assert samples
    assert {name: sum(s[0] == name for s in drivers) for name in driver_spans} == driver_spans
    assert len(drivers) == sum(driver_spans.values())
    missing = [s[0] for s in samples + drivers if not s[4]]
    assert not missing, f"spans without attributes: {missing}"
    if mode == "regret":
        assert any(s[4]["truncated"] for s in samples)
