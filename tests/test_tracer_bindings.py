"""The benchmark tracer's bindings resolve in the package.

``perfbench/trace_layers.py`` wraps each function and method it lists by name
before a traced run.  A name that the package no longer defines breaks every
``--trace 1`` run of the benchmark; this test finds it in the tier-1 run.  It
imports the tracer without writing bytecode, so the checkout stays clean.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


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
