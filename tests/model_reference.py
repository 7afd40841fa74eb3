"""Model quantities the tests compute from the true weights.

The library never needs them: the simulator draws outcomes from its own
per-key plans and the estimators see only outcomes.  The tests use them as
the ground truth that choice frequencies, epoch moments, reductions and
scores are checked against.

``ReducedParams`` and ``reduced_revenue`` are the reduced problem's earlier
record and revenue function, kept verbatim as the reference that
``oracle.fractional_optimum`` and ``estimators.ci_theta`` are pinned to.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

import numpy as np

from mnlbandit.model import Instance, _idx, revenue, validate_assortment


@dataclass(frozen=True)
class ReducedParams:
    """Parameters of the revenue problem reduced relative to a pinned set A.

    ``zeta = R(A, v)`` is the pinned set's own revenue and
    ``nu[i] = v_i / (1 + sum_{j in A} v_j)`` for each pending item i (i not
    in A).  The reduced revenue of a pending assortment ``S0`` is

        R(S0, nu, zeta) = (zeta + sum_{i in S0} nu_i r_i)
                          / (1 + sum_{i in S0} nu_i),

    and for any S containing A, R(S, v) = R(S \\ A, nu, zeta).
    """

    zeta: float
    nu: Mapping[int, float]

    def __post_init__(self) -> None:
        if not (0.0 <= self.zeta <= 1.0):
            raise ValueError("zeta must lie in [0, 1]")
        for item, value in self.nu.items():
            if item < 1:
                raise ValueError("nu keys must be 1-indexed item ids")
            if not (0.0 <= value <= 1.0) or not np.isfinite(value):
                raise ValueError(f"nu[{item}] must lie in [0, 1]")


def reduced_revenue(
    rewards: Mapping[int, float], params: ReducedParams, s0: Iterable[int]
) -> float:
    """Reduced revenue ``R(s0, nu, zeta)`` of a pending assortment ``s0``.

    ``rewards`` maps item id -> reward; every item of ``s0`` must have both a
    reward and a reduced weight.  ``R({}, nu, zeta) = zeta``.
    """
    t = tuple(int(i) for i in s0)
    num = params.zeta
    den = 1.0
    for i in t:
        num += params.nu[i] * rewards[i]
        den += params.nu[i]
    return num / den


def choice_probabilities(inst: Instance, s: Iterable[int]) -> Dict[int, float]:
    """Purchase probability map over ``s ∪ {0}`` when ``s`` is offered.

    ``P(c) = v_c / (1 + sum_{j in s} v_j)``, with the no-purchase option 0
    carrying weight 1.  Probabilities sum to 1 exactly up to float rounding.
    """
    t = validate_assortment(s, inst.n)
    w = inst.v[_idx(t)]
    denom = 1.0 + float(w.sum())
    probs = {0: 1.0 / denom}
    for item, weight in zip(t, w):
        probs[item] = float(weight) / denom
    return probs


def reduce_params(inst: Instance, a: Iterable[int]) -> ReducedParams:
    """Reduce the instance relative to pinned set ``a``.

    Returns ``ReducedParams`` with ``zeta = R(a, v)`` and ``nu`` defined for
    every item outside ``a``.
    """
    ta = validate_assortment(a, inst.n)
    zeta = revenue(inst, ta)
    denom = 1.0 + float(inst.v[_idx(ta)].sum())
    pinned = set(ta)
    nu = {
        i: float(inst.v[i - 1]) / denom
        for i in range(1, inst.n + 1)
        if i not in pinned
    }
    return ReducedParams(zeta=zeta, nu=nu)


def advantage_scores(inst: Instance, theta: float) -> Dict[int, float]:
    """Scores ``u_i = v_i * (r_i - theta)`` for every item.

    At ``theta = theta*`` (the optimal revenue) the capacity-constrained
    top-positive-score selection recovers the optimal assortment, and the
    scores of its members sum to ``theta*``.
    """
    return {
        i: float(inst.v[i - 1]) * (float(inst.r[i - 1]) - theta)
        for i in range(1, inst.n + 1)
    }
