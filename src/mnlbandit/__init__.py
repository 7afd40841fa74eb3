"""Assortment optimization and pure exploration under the MNL choice model.

Layers, bottom to top:

* `mnlbandit.model`      — instances, assortments and revenue;
* `mnlbandit.oracle`     — the exact optimization oracle and the hard family;
* `mnlbandit.env`        — seeded simulator, step accounting, regret ledger;
* `mnlbandit.estimators` — one epoch-exploration kernel and the estimation
  procedures built on it;
* `mnlbandit.driver`     — accept-reject drivers (exact PAC, eps-PAC, regret);
* `mnlbandit.instances`  — instance families and the text file format;
* `mnlbandit.cli`        — the ``mnlbandit`` benchmark command.

The package exports each layer's entry points: instances, the oracle, the
simulator, the estimators and the drivers.  The building blocks under them
(`C0`, `C2`, `PHASE_CAP`, `PhaseState`, `accept_reject`, the interval
functions and others) are imported from their modules.
"""

__version__ = "0.1.0"

from .model import Instance, revenue, validate_assortment
from .oracle import (
    OptimumSolution,
    exact_optimum,
    lower_bound_instance,
    revenue_margin,
    suboptimality_gaps,
)
from .env import Environment, HorizonExhausted, RNG_ALGORITHM_ID, fork_stream
from .estimators import (
    DESK_TUNING,
    EstimateSet,
    PAPER_TUNING,
    Tuning,
    est_adaptive,
    est_naive,
    est_reduced,
    est_reg,
    est_rough,
)
from .driver import RunResult, pac_eps, pac_exact, regret_min, sar_mnl
from .instances import generate_instance, read_instance, write_instance

__all__ = [
    "Instance",
    "revenue",
    "validate_assortment",
    "OptimumSolution",
    "exact_optimum",
    "lower_bound_instance",
    "revenue_margin",
    "suboptimality_gaps",
    "Environment",
    "HorizonExhausted",
    "RNG_ALGORITHM_ID",
    "fork_stream",
    "DESK_TUNING",
    "EstimateSet",
    "PAPER_TUNING",
    "Tuning",
    "est_adaptive",
    "est_naive",
    "est_reduced",
    "est_reg",
    "est_rough",
    "RunResult",
    "pac_eps",
    "pac_exact",
    "regret_min",
    "sar_mnl",
    "generate_instance",
    "read_instance",
    "write_instance",
]
