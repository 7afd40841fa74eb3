"""Exact assortment-optimization oracles.

Every oracle entry point solves ``max_{|S0| <= K} R(S0, nu, zeta)``, the
reduced revenue problem (``zeta = 0`` and ``nu = v`` for a whole instance),
with one kernel, ``_solve``: Dinkelbach's iteration for fractional programs
(Dinkelbach 1967, "On nonlinear fractional programming"), whose inner step is
the capacity-constrained top-positive-score selection of Rusmevichientong,
Shen & Shmoys (2010, Oper. Res. 58(6)).

For a revenue level ``theta``, ``R(S0) >= theta`` holds exactly when
``zeta + sum_{i in S0} nu_i (r_i - theta) >= theta``, so the set that
maximizes the score sum at ``theta`` -- the top-``K`` strictly positive
scores ``nu_i (r_i - theta)`` -- has revenue above ``theta`` unless
``theta`` is already optimal.  Starting from ``theta = zeta`` (the empty
set), the iteration sets ``theta`` to the revenue of that selection until it
stops improving.  ``theta`` strictly increases, so no set is selected twice
and the iteration ends after finitely many selections (a handful in
practice) with the selection at ``theta*``, an optimal set, and its exact
revenue.

``brute_force_optimum`` enumerates every assortment; it is the reference the
tests compare the kernel against, and is guarded to ``n <= 24``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Mapping, Sequence

import numpy as np

from .model import (
    Assortment,
    Instance,
    ReducedParams,
    reduced_revenue,
)

__all__ = [
    "OptimumSolution",
    "select_f",
    "fractional_optimum",
    "brute_force_optimum",
    "exact_optimum",
    "suboptimality_gaps",
    "revenue_margin",
    "lower_bound_instance",
]

#: Brute-force enumeration guard: refuse instances whose subset lattice would
#: be astronomically large.
BRUTE_FORCE_MAX_N = 24


@dataclass(frozen=True)
class OptimumSolution:
    """An optimal assortment together with its revenue.

    Invariant: ``theta_star`` equals the revenue of ``s_star`` under the
    problem it was solved for (within 1e-9); the solvers recompute the
    revenue from the selected set, so the identity is exact up to rounding.
    """

    s_star: Assortment
    theta_star: float


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

    Dinkelbach's iteration (module docstring): the result is the
    ``_top_positive`` selection at the optimal revenue ``theta*``.
    """
    theta = zeta
    nu_r = nu * r
    while True:
        s = _top_positive(nu * (r - theta), capacity)
        value = (zeta + nu_r[s].sum()) / (1.0 + nu[s].sum())
        if not value > theta:
            return s
        theta = value


def _revenue(inst: Instance, ix: np.ndarray) -> float:
    """Revenue of the 0-based ascending positions ``ix``, rounded exactly as
    ``brute_force_optimum`` rounds it."""
    return float((inst.v * inst.r)[ix].sum() / (1.0 + inst.v[ix].sum()))


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


def _revenue_table(inst: Instance):
    """Vectorized revenue of every assortment, grouped by size.

    Returns a list over sizes 1..k of ``(index_matrix, revenues)`` where
    ``index_matrix`` has one row per size-``s`` assortment (0-based item
    indices, rows in lexicographic order) and ``revenues`` the matching
    revenue vector.  The empty assortment (revenue 0) is implicit.
    """
    vr = inst.v * inst.r
    table = []
    for size in range(1, inst.k + 1):
        idx = np.fromiter(
            (j for comb in combinations(range(inst.n), size) for j in comb),
            dtype=np.int64,
        ).reshape(-1, size)
        weight = inst.v[idx].sum(axis=1)
        rev = vr[idx].sum(axis=1) / (1.0 + weight)
        table.append((idx, rev))
    return table


def brute_force_optimum(inst: Instance) -> OptimumSolution:
    """Reference oracle: enumerate every assortment of size <= k.

    Ties on revenue are broken toward the lexicographically smallest item
    tuple (the empty tuple precedes every nonempty one).  Guarded to
    ``n <= 24``.
    """
    if inst.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force enumeration refused for n = {inst.n} > {BRUTE_FORCE_MAX_N}"
        )
    best_s: Assortment = ()
    best_rev = 0.0  # the empty assortment
    for idx, rev in _revenue_table(inst):
        j = int(np.argmax(rev))  # first max = lexicographically least in size
        if rev[j] > best_rev:
            best_s = tuple(int(x) + 1 for x in idx[j])
            best_rev = float(rev[j])
        elif rev[j] == best_rev:
            cand = tuple(int(x) + 1 for x in idx[j])
            if cand < best_s:
                best_s = cand
    return OptimumSolution(s_star=best_s, theta_star=best_rev)


def exact_optimum(inst: Instance) -> OptimumSolution:
    """The instance's optimum, for any ``n``, by ``_solve``.

    Tie-break rule: ``s_star`` is ``select_f``'s selection at ``theta*`` --
    the items with strictly positive score ``v_i (r_i - theta*)``, the top
    ``k`` of them, and among equal scores the smaller id.  An item with
    ``r_i = theta*`` scores 0 and is left out even where adding it keeps the
    revenue at ``theta*``; ``brute_force_optimum``'s lexicographic rule can
    pick such a set instead, at the same revenue.
    """
    s = _solve(inst.v, inst.r, 0.0, inst.k)
    return OptimumSolution(s_star=tuple(int(j) + 1 for j in s), theta_star=_revenue(inst, s))


def suboptimality_gaps(inst: Instance) -> Dict[int, float]:
    """Per-item suboptimality gaps, one ``_solve`` per item.

    With ``theta*`` the optimal revenue and ``S*`` the optimal assortment:

    * for ``i`` outside ``S*``: ``gap_i = theta* - max_{|S|<=k, i in S} R(S)``
      (the best one can do while forced to include i: reduce by ``{i}`` and
      solve at capacity ``k - 1``);
    * for ``i`` in ``S*``: ``gap_i = theta* - max_{|S|<=k, i not in S} R(S)``
      (the best one can do while forced to exclude i: drop ``i`` and solve
      at capacity ``k``).

    The empty assortment is admissible in the exclusion maxima.  Gaps are
    >= 0, and equal 0 only in degenerate tied instances.
    """
    v, r, k = inst.v, inst.r, inst.k
    star = _solve(v, r, 0.0, k)
    theta = _revenue(inst, star)
    gaps: Dict[int, float] = {}
    for i in range(inst.n):
        rest = np.delete(np.arange(inst.n), i)
        if i in star:
            s = rest[_solve(v[rest], r[rest], 0.0, k)]
        else:  # reduced by {i}: zeta = R({i}), nu = v / (1 + v_i)
            w = 1.0 + v[i]
            s = rest[_solve(v[rest] / w, r[rest], v[i] * r[i] / w, k - 1)]
            s = np.sort(np.append(s, i))
        gaps[i + 1] = float(theta - _revenue(inst, s))
    return gaps


def revenue_margin(inst: Instance) -> float:
    """Gap between the best and second-best assortment revenues.

    Returns ``theta* - max{R(S) : S != S*}``, the smallest suboptimality gap:
    every ``S != S*`` differs from ``S*`` in some item ``i``, so its revenue
    is bounded by the maximum behind ``gap_i``.  Tied optima give 0.  A
    healthy margin makes "the" optimum well defined for benchmarking;
    generators reject near-tied draws.
    """
    return min(suboptimality_gaps(inst).values())


def lower_bound_instance(
    n: int, k: int, gaps: Sequence[float]
) -> Instance:
    """Hard-instance family with prescribed suboptimality gaps.

    All rewards are 1, so revenue is ``W/(1+W)`` with ``W`` the offered
    weight sum — maximized by the heaviest ``k`` items.  The first ``k``
    items form the optimal assortment with total weight exactly 1 (hence
    ``theta* = 1/2`` and ``R([k]) = 1/2``), and each item ``k + j`` (j >= 1)
    gets a weight that makes its realized suboptimality gap exactly
    ``gaps[j-1]``:

        k >= 2:  v_i = 1/k + 1/(2k(k-1))  for i < k,   v_k = 1/(2k);
        k  = 1:  v_1 = 1  (the singleton optimal set must carry weight 1);
        both:    v_{k+j} = v_k - g_j,   g_j = 4 d_j / (1 + 2 d_j),
                 d_j = gaps[j-1].

    Why this realizes the gaps: the best assortment containing item ``k+j``
    swaps it for the lightest optimal item (weight ``v_k``), dropping the
    weight sum from 1 to ``1 - g_j`` and the revenue from ``1/2`` to
    ``(1 - g_j) / (2 - g_j)``; the difference equals ``d_j`` precisely when
    ``g_j = 4 d_j / (1 + 2 d_j)``.

    Preconditions: ``n >= 2``, ``k <= n/2``, and every gap lies in
    ``(0, 1/(16k)]``.  The realized gaps of items ``k+1..n`` (via
    ``suboptimality_gaps``) equal the inputs exactly up to float rounding.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (1 <= k and 2 * k <= n):
        raise ValueError("capacity must satisfy 1 <= k <= n/2")
    gap_arr = np.asarray(gaps, dtype=float)
    if gap_arr.shape != (n - k,):
        raise ValueError(
            f"need exactly n - k = {n - k} gaps for the non-optimal items, "
            f"got {gap_arr.shape}"
        )
    if np.any(gap_arr <= 0.0) or np.any(gap_arr > 1.0 / (16.0 * k)):
        raise ValueError("every gap must lie in (0, 1/(16 k)]")

    v = np.empty(n, dtype=float)
    r = np.ones(n, dtype=float)
    if k == 1:
        # Optimal set {1} must carry total weight 1 on its own.
        v[0] = 1.0
    else:
        v[: k - 1] = 1.0 / k + 1.0 / (2.0 * k * (k - 1))
        v[k - 1] = 1.0 / (2.0 * k)
    # Swapping the lightest optimal item (weight w_k = v[k-1]) for item k+j
    # changes the optimal-set weight sum from 1 to 1 - g_j, which moves the
    # revenue from 1/2 to (1 - g_j)/(2 - g_j); solving
    # 1/2 - (1 - g)/(2 - g) = d gives g = 4 d / (1 + 2 d).
    g = 4.0 * gap_arr / (1.0 + 2.0 * gap_arr)
    v[k:] = v[k - 1] - g
    if np.any(v[k:] <= 0.0):  # cannot happen under the gap precondition
        raise ValueError("gap sequence produced a nonpositive weight")
    return Instance(n=n, k=k, r=r, v=v)
