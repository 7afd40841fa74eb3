"""Assortment optimization and pure exploration under the MNL choice model.

Layers, bottom to top:

* `mnlbandit.model`      — instances, assortments and revenue;
* `mnlbandit.instances`  — instance families, the hard one included, and the
  text file format;
* `mnlbandit.oracle`     — the exact optimization oracle;
* `mnlbandit.env`        — seeded simulator, step accounting, regret ledger;
* `mnlbandit.estimators` — one exploration loop and the five estimation
  procedures built on it;
* `mnlbandit.driver`     — accept-reject drivers (exact PAC, eps-PAC, regret);
* `mnlbandit.cli`        — the ``mnlbandit`` benchmark command.

A module imports only the modules listed above it.

The package exports each layer's entry points: instances, the oracle, the
simulator, the estimators and the drivers.  The building blocks under them
(`C0`, `C2`, `PHASE_CAP`, `PhaseState`, `accept_reject`, the interval
functions and others) are imported from their modules.

``import mnlbandit`` loads no layer, hence not numpy: each exported name, and
each layer module, is looked up in ``_LAYERS`` and imported on access (PEP 562).
So ``mnlbandit.cli`` can set its process defaults before numpy starts, and a
command loads only the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The module that defines each exported name.
_LAYERS = {
    "model": ("Instance", "revenue", "validate_assortment"),
    "oracle": ("OptimumSolution", "exact_optimum", "revenue_margin", "suboptimality_gaps"),
    "env": ("Environment", "HorizonExhausted", "RNG_ALGORITHM_ID", "fork_stream"),
    "estimators": ("DESK_TUNING", "EstimateSet", "PAPER_TUNING", "Tuning", "est_adaptive",
                   "est_naive", "est_reduced", "est_reg", "est_rough"),
    "driver": ("RunResult", "pac_eps", "pac_exact", "regret_min", "sar_mnl"),
    "instances": ("generate_instance", "lower_bound_instance", "read_instance",
                  "write_instance"),
}

__all__ = [name for names in _LAYERS.values() for name in names]


def __getattr__(name: str):
    if name in _LAYERS:  # `mnlbandit.oracle` and the like work after `import mnlbandit`
        return import_module(f".{name}", __name__)
    for module, names in _LAYERS.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
