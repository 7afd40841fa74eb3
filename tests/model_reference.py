"""Model quantities the tests compute from the true weights.

The library never needs them: the simulator draws outcomes from its own
per-key plans and the estimators see only outcomes.  The tests use them as
the ground truth that choice frequencies, epoch moments, reductions and
scores are checked against.
"""

from typing import Dict, Iterable

from mnlbandit.model import Instance, ReducedParams, _idx, revenue, validate_assortment


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
        for i in inst.items()
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
        for i in inst.items()
    }
