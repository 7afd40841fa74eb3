"""Exact assortment-optimization oracles.

Two routes to the optimum ``max_{|S| <= K} R(S, v)``:

* ``brute_force_optimum`` — exhaustive enumeration (reference oracle, small n);
* ``fractional_optimum`` — fixed-point binary search on the reduced problem,
  polynomial in n, exact to the bracket tolerance.

The fractional route rests on two facts.  First, for any candidate revenue
level ``theta`` the map

    g(theta) = zeta + max_{|S0| <= M} sum_{i in S0} nu_i * (r_i - theta)

is nonincreasing in ``theta`` (each summand is nonincreasing and the max of
nonincreasing functions is nonincreasing), ``g(0) >= zeta >= 0`` and
``g(1) = zeta <= 1``, so ``g`` has a unique fixed point ``theta* in [0, 1]``;
``theta*`` equals the optimal reduced revenue and the maximizing ``S0`` at
``theta*`` is an optimal assortment.  Second, the inner max is solved by the
capacity-constrained top-positive-score selection ``select_f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .model import (
    Assortment,
    Instance,
    ReducedParams,
    reduce_params,
    reduced_revenue,
    revenue,
    validate_assortment,
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

#: Fixed-point bracket tolerance and iteration cap for the binary search.
FRACTIONAL_TOL = 1e-12
FRACTIONAL_MAX_ITER = 80


@dataclass(frozen=True)
class OptimumSolution:
    """An optimal assortment together with its revenue.

    Invariant: ``theta_star`` equals the revenue of ``s_star`` under the
    problem it was solved for (within 1e-9); the solvers recompute the
    revenue from the selected set, so the identity is exact up to rounding.
    """

    s_star: Assortment
    theta_star: float


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
    positive = [(item, s) for item, s in scores.items() if s > 0.0]
    # Sort by descending score, then ascending id: a stable, total order that
    # makes the top-`capacity` cut deterministic under ties.
    positive.sort(key=lambda p: (-p[1], p[0]))
    chosen = sorted(item for item, _ in positive[:capacity])
    return tuple(chosen)


def fractional_optimum(
    rewards: Mapping[int, float],
    params: ReducedParams,
    capacity: int,
) -> OptimumSolution:
    """Exact optimum of the reduced revenue over pending assortments.

    Solves ``max_{S0 subset of params.nu keys, |S0| <= capacity}
    R(S0, nu, zeta)`` by binary search for the fixed point of ``g`` (module
    docstring), then selects the assortment via ``select_f`` at the bracket
    midpoint and recomputes its reduced revenue exactly.  The empty set
    (revenue ``zeta``) is always admissible, so the returned revenue is
    >= ``zeta``.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    items = sorted(params.nu)
    for i in items:
        if i not in rewards:
            raise ValueError(f"item {i} has a weight but no reward")

    nu = np.array([params.nu[i] for i in items], dtype=float)
    r = np.array([rewards[i] for i in items], dtype=float)

    def g(theta: float) -> float:
        if len(items) == 0 or capacity == 0:
            return params.zeta
        scores = nu * (r - theta)
        pos = scores[scores > 0.0]
        if pos.size > capacity:
            pos = np.sort(pos)[-capacity:]
        return params.zeta + float(pos.sum())

    lo, hi = 0.0, 1.0
    for _ in range(FRACTIONAL_MAX_ITER):
        if hi - lo <= FRACTIONAL_TOL:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) >= mid:
            lo = mid
        else:
            hi = mid

    theta_mid = 0.5 * (lo + hi)
    scores = {i: params.nu[i] * (rewards[i] - theta_mid) for i in items}
    s0 = select_f(scores, capacity)
    theta_star = reduced_revenue(rewards, params, s0)
    return OptimumSolution(s_star=s0, theta_star=float(theta_star))


def _enumerate_assortments(n: int, k: int):
    """All assortments of size 0..k over items 1..n, sizes ascending."""
    items = range(1, n + 1)
    yield ()
    for size in range(1, k + 1):
        yield from combinations(items, size)


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
    """The instance's optimum: brute force up to ``BRUTE_FORCE_MAX_N`` items,
    the fractional oracle beyond."""
    if inst.n <= BRUTE_FORCE_MAX_N:
        return brute_force_optimum(inst)
    return fractional_optimum(
        {i: float(inst.r[i - 1]) for i in inst.items()}, reduce_params(inst, ()), inst.k
    )


def suboptimality_gaps(inst: Instance) -> Dict[int, float]:
    """Per-item suboptimality gaps by exhaustive enumeration.

    With ``theta*`` the optimal revenue and ``S*`` the optimal assortment:

    * for ``i`` outside ``S*``: ``gap_i = theta* - max_{|S|<=k, i in S} R(S)``
      (the best one can do while forced to include i);
    * for ``i`` in ``S*``: ``gap_i = theta* - max_{|S|<=k, i not in S} R(S)``
      (the best one can do while forced to exclude i).

    The empty assortment is admissible in the exclusion maxima.  Gaps are
    >= 0, and equal 0 only in degenerate tied instances.
    """
    if inst.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"gap enumeration refused for n = {inst.n} > {BRUTE_FORCE_MAX_N}"
        )
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
    for i in inst.items():
        bound = best_without[i - 1] if i in in_opt else best_with[i - 1]
        gaps[i] = float(opt.theta_star - bound)
    return gaps


def revenue_margin(inst: Instance) -> float:
    """Gap between the best and second-best assortment revenues.

    Enumerates every assortment of size <= k (so ``n <= 24``) and returns
    ``theta* - max{R(S) : S != S*}``.  A healthy margin makes "the" optimum
    well defined for benchmarking; generators reject near-tied draws.
    """
    if inst.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"margin enumeration refused for n = {inst.n} > {BRUTE_FORCE_MAX_N}"
        )
    # All revenues including the empty assortment; the two largest values
    # (counting duplicates separately) give best and runner-up.  Ties for the
    # top therefore yield margin 0, which is what callers screen against.
    all_rev = [np.array([0.0])]
    all_rev.extend(rev for _, rev in _revenue_table(inst))
    flat = np.concatenate(all_rev)
    top_two = np.partition(flat, len(flat) - 2)[-2:]
    return float(top_two.max() - top_two.min())


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
