"""Assortment optimization and pure exploration under the MNL choice model.

Layers, bottom to top:

* `mnlbandit.model`      — choice probabilities, revenue, reductions, scores;
* `mnlbandit.oracle`     — exact optimization oracles and the hard family;
* `mnlbandit.env`        — seeded simulator, step accounting, regret ledger;
* `mnlbandit.estimators` — epoch exploration and the estimation procedures;
* `mnlbandit.driver`     — accept-reject drivers (exact PAC, eps-PAC, regret);
* `mnlbandit.instances`  — instance families and the text file format;
* `mnlbandit.cli`        — the ``mnlbandit`` benchmark command.
"""

__version__ = "0.1.0"

from .model import (
    Instance,
    ReducedParams,
    advantage_scores,
    choice_probabilities,
    reduce_params,
    reduced_revenue,
    revenue,
    validate_assortment,
)
from .oracle import (
    OptimumSolution,
    brute_force_optimum,
    fractional_optimum,
    lower_bound_instance,
    revenue_margin,
    select_f,
    suboptimality_gaps,
)
from .env import (
    Environment,
    EpochBatch,
    HorizonExhausted,
    RegretLedger,
    RNG_ALGORITHM_ID,
    fork_stream,
)
from .estimators import (
    DESK_TUNING,
    EstimateSet,
    ExploreState,
    GroupPlan,
    LayerPlan,
    PAPER_TUNING,
    Schedule,
    Tuning,
    ci_nu,
    ci_theta,
    ci_xi,
    ci_zeta,
    est_adaptive,
    est_naive,
    est_reduced,
    est_reg,
    est_rough,
    explore,
    explore_epochs,
)
from .driver import (
    PhaseState,
    RunResult,
    accept_reject,
    pac_eps,
    pac_exact,
    regret_min,
    sar_mnl,
)
from .instances import (
    FAMILIES,
    generate_instance,
    read_instance,
    write_instance,
)

__all__ = [
    "Instance",
    "ReducedParams",
    "advantage_scores",
    "choice_probabilities",
    "reduce_params",
    "reduced_revenue",
    "revenue",
    "validate_assortment",
    "OptimumSolution",
    "brute_force_optimum",
    "fractional_optimum",
    "lower_bound_instance",
    "revenue_margin",
    "select_f",
    "suboptimality_gaps",
    "Environment",
    "EpochBatch",
    "HorizonExhausted",
    "RegretLedger",
    "RNG_ALGORITHM_ID",
    "fork_stream",
    "DESK_TUNING",
    "EstimateSet",
    "ExploreState",
    "GroupPlan",
    "LayerPlan",
    "PAPER_TUNING",
    "Schedule",
    "Tuning",
    "ci_nu",
    "ci_theta",
    "ci_xi",
    "ci_zeta",
    "est_adaptive",
    "est_naive",
    "est_reduced",
    "est_reg",
    "est_rough",
    "explore",
    "explore_epochs",
    "PhaseState",
    "RunResult",
    "accept_reject",
    "pac_eps",
    "pac_exact",
    "regret_min",
    "sar_mnl",
    "FAMILIES",
    "generate_instance",
    "read_instance",
    "write_instance",
    "main",
]

from .cli import main  # noqa: E402  (CLI pulls from every layer above)
