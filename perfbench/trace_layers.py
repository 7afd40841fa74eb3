"""One traced, in-process call of the mnlbandit CLI, writing its spans as JSON.

Usage (from a checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/trace_layers.py SPANS.json gen|run ARGS...

Every public function of the timed layers is wrapped before ``cli.main`` runs,
at every module attribute that binds it (``env``, ``estimators``, ``driver``
and ``cli`` import these functions by name, so patching only the defining
module would miss their calls).  Each call becomes a span
``[name, start_s, end_s, parent_index, attrs]``; spans are kept in memory and
written once ``main`` returns.  Run with ``MNL_THREADS=1`` so that every
replication runs in this process.  The process exits with ``main``'s code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from mnlbandit import cli, driver, env, estimators, instances, oracle

#: (module, function name, span name) of every traced module-level function.
FUNCTIONS = (
    (instances, "generate_instance", "instances.generate"),
    (oracle, "revenue_margin", "oracle.margin"),
    (oracle, "brute_force_optimum", "oracle.brute_force"),
    (oracle, "fractional_optimum", "oracle.fractional"),
    (estimators, "est_naive", "estimators.naive"),
    (estimators, "est_rough", "estimators.rough"),
    (estimators, "est_adaptive", "estimators.adaptive"),
    (estimators, "est_reduced", "estimators.reduced"),
    (estimators, "est_reg", "estimators.reg"),
    (estimators, "ci_theta", "estimators.ci_theta"),
    (driver, "sar_mnl", "driver.sar_mnl"),
    (driver, "pac_exact", "driver.pac_exact"),
    (driver, "pac_eps", "driver.pac_eps"),
    (driver, "regret_min", "driver.regret_min"),
    (cli, "main", "cli.main"),
)

#: (class, method name, span name) of every traced method.
METHODS = (
    (env.Environment, "__init__", "env.init"),
    (env.Environment, "sample_epochs", "env.sample"),
    (env.Environment, "advance", "env.advance"),
    (env.RegretLedger, "curve", "env.curve"),
)

_ADVANCE_SIGNATURE = inspect.signature(env.Environment.advance)


def _sample_attrs(args, kwargs, batch) -> dict:
    return {
        "requested": batch.requested,
        "completed": batch.epochs,
        "steps": batch.steps,
        "tracked": len(batch.x_sums),
        "truncated": bool(batch.truncated),
    }


def _advance_attrs(args, kwargs, out) -> dict:
    return {"steps": int(_ADVANCE_SIGNATURE.bind(*args, **kwargs).arguments["steps"])}


def _driver_attrs(args, kwargs, result) -> dict:
    run_env = args[0] if args else kwargs["env"]
    return {
        "phases": len(result.phases),
        "pending": sum(len(p.b_set) for p in result.phases),
        "decided": sum(len(p.b_acc) + len(p.b_rej) for p in result.phases),
        "segments": len(run_env.ledger._segments),
    }


ATTRS = {
    "env.sample": _sample_attrs,
    "env.advance": _advance_attrs,
    "driver.sar_mnl": _driver_attrs,
    "driver.pac_exact": _driver_attrs,
    "driver.pac_eps": _driver_attrs,
    "driver.regret_min": _driver_attrs,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []  # indices of spans not yet closed

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, opened[-1] if opened else None, None]
            index = len(spans)
            spans.append(span)
            opened.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                opened.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, out)
            return out

        return traced


def install(tracer: Tracer) -> int:
    """Wrap every traced function at every binding site; return the site count."""
    packages = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mnlbandit"]
    sites = 0
    for module, attr, name in FUNCTIONS:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for pkg in packages:
            for key, value in list(vars(pkg).items()):
                if value is original:
                    setattr(pkg, key, wrapped)
                    sites += 1
        for pkg in packages:
            if any(v is original for v in vars(pkg).values()):
                raise RuntimeError(f"{name}: a binding site was left unwrapped")
    for cls, attr, name in METHODS:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))
        sites += 1
    return sites


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    sites = install(tracer)
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "binding_sites": sites, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
