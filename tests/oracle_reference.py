"""Enumeration references for the per-item gaps and the revenue margin, the
array kernel and the gaps solved with it on reduced arrays, the score
selection on item ids, and the dict-interface reduced solve.

Both enumeration references enumerate every assortment of size <= k (keep
``n`` small); the tests require ``suboptimality_gaps`` and ``revenue_margin``
to agree with them bit for bit on instances without tied assortments.
``_solve`` (with its selection ``_top_positive``) is Dinkelbach's iteration
on numpy arrays, started cold at ``zeta`` over every position; the tests
require ``oracle.fractional_optimum``, the same iteration on Python floats,
to return its positions.
``deleted_item_gaps`` states each gap by its definition: ``θ*`` less the best
revenue with item ``i``'s membership flipped, each solved cold by ``_solve``
on arrays that ``np.delete`` shortens; the tests require
``suboptimality_gaps``, whose solves start warm and skip items, to match it
bit for bit at any ``n``, ties included.
``select_f`` is the oracle's top-positive selection keyed by item id.
``fractional_optimum`` solves one reduced problem given as a
``model_reference.ReducedParams`` keyed by item id, with ``_solve``, and prices
its set with ``reduced_revenue``; the tests require the list-interface
``oracle.fractional_optimum`` and ``estimators.ci_theta`` to match it bit for
bit.
"""

from typing import Dict, Mapping

import numpy as np

from mnlbandit.model import Assortment, Instance, _revenue_at
from mnlbandit.oracle import OptimumSolution, _revenue_table, brute_force_optimum
from model_reference import ReducedParams, reduced_revenue


def _top_positive(scores: np.ndarray, capacity: int) -> np.ndarray:
    """Ascending positions of the top-``capacity`` strictly positive scores,
    breaking score ties toward the smaller position."""
    pos = (scores > 0.0).nonzero()[0]
    if pos.size > capacity:
        pos = pos[(-scores[pos]).argsort(kind="stable")[:capacity]]
        pos.sort()
    return pos


def _solve(
    nu: np.ndarray, r: np.ndarray, zeta: float, capacity: int
) -> np.ndarray:
    """Optimal pending set of the reduced problem, as ascending positions.

    Dinkelbach's iteration (``mnlbandit.oracle``'s docstring) on arrays:
    the result is the ``_top_positive`` selection at the optimal revenue
    ``theta*``.  ``oracle.fractional_optimum`` is the same iteration on
    Python floats, and this is its reference.
    """
    theta = zeta
    nu_r = nu * r
    while True:
        s = _top_positive(nu * (r - theta), capacity)
        value = (zeta + nu_r[s].sum()) / (1.0 + nu[s].sum())
        if not value > theta:
            return s
        theta = value


def select_f(
    scores: Mapping[int, float], capacity: int
) -> Assortment:
    """Capacity-constrained positive-score selection.

    Returns the items with strictly positive score, keeping at most
    ``capacity`` of them — the ones with the largest scores, breaking score
    ties in favor of the smaller item id.  The result is sorted ascending.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    items = sorted(scores)
    chosen = _top_positive(np.array([scores[i] for i in items], dtype=float), capacity)
    return tuple(items[j] for j in chosen)


def enumerated_gaps(inst: Instance) -> Dict[int, float]:
    """``suboptimality_gaps`` by exhaustive enumeration."""
    opt = brute_force_optimum(inst)
    in_opt = set(opt.s_star)
    # best_with[j] over assortments containing item j+1 (-inf until seen);
    # best_without[j] over assortments excluding it (empty set counts: 0).
    best_with = np.full(inst.n, -np.inf)
    best_without = np.zeros(inst.n)
    for idx, rev in _revenue_table(inst):
        member = np.zeros((idx.shape[0], inst.n), dtype=bool)
        rows = np.repeat(np.arange(idx.shape[0]), idx.shape[1])
        member[rows, idx.ravel()] = True
        with_max = np.where(member, rev[:, None], -np.inf).max(axis=0)
        without_max = np.where(member, -np.inf, rev[:, None]).max(axis=0)
        np.maximum(best_with, with_max, out=best_with)
        np.maximum(best_without, without_max, out=best_without)
    gaps: Dict[int, float] = {}
    for i in range(1, inst.n + 1):
        bound = best_without[i - 1] if i in in_opt else best_with[i - 1]
        gaps[i] = float(opt.theta_star - bound)
    return gaps


def deleted_item_gaps(inst: Instance) -> Dict[int, float]:
    """``suboptimality_gaps`` with item ``i`` deleted from the arrays and the
    selection mapped back through ``rest``."""
    v, r, k = np.asarray(inst.v), np.asarray(inst.r), inst.k
    star = _solve(v, r, 0.0, k)
    theta = _revenue_at(inst, star)
    gaps: Dict[int, float] = {}
    for i in range(inst.n):
        rest = np.delete(np.arange(inst.n), i)
        if i in star:
            s = rest[_solve(v[rest], r[rest], 0.0, k)]
        else:  # reduced by {i}: zeta = R({i}), nu = v / (1 + v_i)
            w = 1.0 + v[i]
            s = rest[_solve(v[rest] / w, r[rest], v[i] * r[i] / w, k - 1)]
            s = np.sort(np.append(s, i))
        gaps[i + 1] = theta - _revenue_at(inst, s)
    return gaps


def enumerated_margin(inst: Instance) -> float:
    """``revenue_margin`` by exhaustive enumeration."""
    # All revenues including the empty assortment; the two largest values
    # (counting duplicates separately) give best and runner-up.  Ties for the
    # top therefore yield margin 0.
    all_rev = [np.array([0.0])]
    all_rev.extend(rev for _, rev in _revenue_table(inst))
    flat = np.concatenate(all_rev)
    top_two = np.partition(flat, len(flat) - 2)[-2:]
    return float(top_two.max() - top_two.min())


def fractional_optimum(
    rewards: Mapping[int, float],
    params: ReducedParams,
    capacity: int,
) -> OptimumSolution:
    """Exact optimum of the reduced revenue over pending assortments.

    Solves ``max_{S0 subset of params.nu keys, |S0| <= capacity}
    R(S0, nu, zeta)`` with ``_solve`` and recomputes the selected set's
    reduced revenue with ``reduced_revenue``.  The empty set (revenue
    ``zeta``) is always admissible, so the returned revenue is >= ``zeta``.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    items = sorted(params.nu)
    for i in items:
        if i not in rewards:
            raise ValueError(f"item {i} has a weight but no reward")
    nu = np.array([params.nu[i] for i in items], dtype=float)
    r = np.array([rewards[i] for i in items], dtype=float)
    s0 = tuple(items[j] for j in _solve(nu, r, params.zeta, capacity))
    return OptimumSolution(s_star=s0, theta_star=float(reduced_revenue(rewards, params, s0)))
