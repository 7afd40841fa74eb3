"""Exact assortment-optimization oracles.

Every oracle entry point solves ``max_{|S0| <= K} R(S0, nu, zeta)``, the
reduced revenue problem (``zeta = 0`` and ``nu = v`` for a whole instance),
by Dinkelbach's iteration for fractional programs (Dinkelbach 1967, "On
nonlinear fractional programming"), whose inner step is the
capacity-constrained top-positive-score selection of Rusmevichientong, Shen &
Shmoys (2010, Oper. Res. 58(6)).

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

One loop, ``fractional_optimum``, runs the iteration on Python floats for
every caller: ``exact_optimum``, ``suboptimality_gaps`` (and through them
``revenue_margin``), and the estimators' reduced problems over a phase's
pending items (``ci_theta``, two solves a phase, and ``pac_eps``'s
completion).  Those mostly hold a handful of items, where numpy's per-call
cost is most of a solve.  A whole instance costs more on floats: 1.4 ms at
``n = 4000`` and 49 ms at ``n = 100,000``, against 0.4 and 13 ms on arrays
(2-vCPU VM, numpy 2.4.6), paid once per process for each ``Environment``'s
``S*``.  The gaps' ``n`` solves are warm-started and filtered instead, and
at ``n = 4000`` took 0.38 s, against 1.32 s cold on arrays:

* Warm start.  ``F(theta) = max_{|S0| <= K} (1 + sum_{S0} nu_j) (R(S0) -
  theta)`` decreases in ``theta`` and is positive exactly below
  ``theta*``.  From ``theta < theta*`` the selection ``S`` at ``theta``
  maximizes that product, so ``theta < R(S) <= theta*``; at ``theta*`` the
  selection is returned.  So any start in ``[zeta, theta*]`` -- such as a
  feasible set's revenue -- ends at ``theta*`` with the selection there,
  the cold start's set: the start changes the path, never the result.
* Filter.  ``theta`` only rises from the start ``theta0``, so an item with
  ``nu_j = 0`` or ``r_j <= theta0`` scores ``nu_j (r_j - theta) <= 0`` at
  every step (in floats too: the rounded difference and product are
  monotone) and is never selected.  Leaving it out changes no selection,
  and the kept items stay in ascending order, so ties still break toward
  the smaller id.

``suboptimality_gaps`` returns, with the gaps, the cold optimum that its
starts are built from, so a report of ``S*``, ``theta*`` and every gap costs
``n + 1`` solves.

The tests hold warm and cold solves to the same positions and revenue bits,
and the loop's positions to the array kernel it replaced
(``tests/oracle_reference.py``), on tied and zero-weight problems.

``brute_force_optimum`` enumerates every assortment; it is the reference the
tests compare the oracle against, and is guarded to ``n <= 24``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import Assortment, Instance, _revenue_at

__all__ = [
    "OptimumSolution",
    "fractional_optimum",
    "brute_force_optimum",
    "exact_optimum",
    "suboptimality_gaps",
    "revenue_margin",
]

#: Brute-force enumeration guard: refuse instances whose subset lattice would
#: be astronomically large.
BRUTE_FORCE_MAX_N = 24


class OptimumSolution(NamedTuple):
    """An optimal assortment together with its revenue.

    Invariant: ``theta_star`` is the revenue of ``s_star`` recomputed from the set;
    ``exact_optimum``'s equals ``model.revenue(inst, s_star)`` exactly.
    """

    s_star: Assortment
    theta_star: float


def _value(nu: Sequence[float] | Dict[int, float], r: Sequence[float], zeta: float,
           s: Iterable[int]) -> float:
    """Reduced revenue of the pending items ``s``, summed in their order."""
    num, den = zeta, 1.0
    for j in s:
        num += nu[j] * r[j]
        den += nu[j]
    return num / den


def fractional_optimum(
    nu: Sequence[float], r: Sequence[float], zeta: float, capacity: int,
    start: Optional[float] = None,
) -> Tuple[List[int], float]:
    """Exact optimum of the reduced revenue over pending assortments.

    Relative to a pinned set ``A``, with ``zeta = R(A, v)`` and reduced
    weights ``nu_i = v_i / (1 + sum_{j in A} v_j)``, every ``S ⊇ A`` has
    ``R(S, v) = R(S0, nu, zeta) = (zeta + sum_{S0} nu_i r_i) / (1 + sum_{S0}
    nu_i)`` with ``S0 = S \\ A``.  ``nu`` and ``r`` are aligned by position
    (the caller's ascending ids).  Returns the ascending positions of the
    optimum at ``|S0| <= capacity`` and its revenue, summed on that set in
    ascending position order; the empty set (revenue ``zeta``) is
    admissible, so the revenue is >= ``zeta``.

    Dinkelbach's iteration (module docstring) on the caller's Python floats:
    each step selects the top ``capacity`` strictly positive scores
    ``nu_j (r_j - theta)``, ties to the smaller position.  ``theta`` starts
    at ``start`` (default ``zeta``); any start in ``[zeta, theta*]``, such as
    a feasible pending set's revenue, gives the same result.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if len(nu) != len(r):
        raise ValueError("nu and r must hold one entry per pending item")
    theta = zeta if start is None else start
    live = range(len(nu))
    while True:
        # theta only rises, so with nu >= 0 an item scoring <= 0 never scores > 0 again
        live = [j for j in live if nu[j] * (r[j] - theta) > 0.0]
        s = live
        if len(s) > capacity:
            # a stable sort: equal scores keep ascending positions
            s = sorted(live, key=lambda j: nu[j] * (r[j] - theta), reverse=True)[:capacity]
            s.sort()
        value = _value(nu, r, zeta, s)
        if not value > theta:
            return s, value
        theta = value


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
    """The instance's optimum, for any ``n``, by a cold `fractional_optimum`.

    Tie-break rule: ``s_star`` is the top-positive selection at ``theta*``
    -- the items with strictly positive score ``v_i (r_i - theta*)``, the
    top ``k`` of them, and among equal scores the smaller id.  An item with
    ``r_i = theta*`` scores 0 and is left out even where adding it keeps the
    revenue at ``theta*``; ``brute_force_optimum``'s lexicographic rule can
    pick such a set instead, at the same revenue.
    """
    s, _ = fractional_optimum(inst.v.tolist(), inst.r.tolist(), 0.0, inst.k)
    return OptimumSolution(s_star=tuple(j + 1 for j in s), theta_star=_revenue_at(inst, s))


def suboptimality_gaps(inst: Instance) -> Tuple[OptimumSolution, Dict[int, float]]:
    """The optimum and the per-item suboptimality gaps measured against it.

    Returns ``exact_optimum(inst)`` (the one cold solve) and the gaps by
    1-based id, one warm `fractional_optimum` per item.

    With ``theta*`` the optimal revenue and ``S*`` the optimal assortment:

    * for ``i`` outside ``S*``: ``gap_i = theta* - max_{|S|<=k, i in S} R(S)``
      (the best one can do while forced to include i: reduce by ``{i}`` and
      solve at capacity ``k - 1``);
    * for ``i`` in ``S*``: ``gap_i = theta* - max_{|S|<=k, i not in S} R(S)``
      (the best one can do while forced to exclude i: drop ``i`` and solve
      at capacity ``k``).

    The empty assortment is admissible in the exclusion maxima.  Gaps are
    >= 0, and equal 0 only in degenerate tied instances.

    Each solve starts at the best revenue, summed as the solve sums it, of a
    feasible neighbour of ``S*``: ``S* \\ {i}`` for a member; for an
    outsider, ``S*`` with its lowest-scoring member swapped for ``i``, and
    ``S* + i`` when ``S*`` has room.  It runs over only the items with
    ``v_j > 0`` and ``r_j`` above that start (module docstring).
    """
    v, r, k = inst.v, inst.r, inst.k
    opt = exact_optimum(inst)
    star = [j - 1 for j in opt.s_star]
    members = set(star)
    vl, rl = v.tolist(), r.tolist()
    low = min(star, key=lambda j: vl[j] * (rl[j] - opt.theta_star), default=None)
    weighted = v > 0.0
    gaps: Dict[int, float] = {}
    for i in range(inst.n):
        if i in members:  # forced out: drop i, capacity k
            w, zeta, capacity = 1.0, 0.0, k
            near = [[j for j in star if j != i]]
        else:  # forced in: reduced by {i}, zeta = R({i}), nu = v / (1 + v_i)
            w = 1.0 + vl[i]
            zeta, capacity = vl[i] * rl[i] / w, k - 1
            near = [[j for j in star if j != low]] + ([star] if len(star) < k else [])
        nu = {j: vl[j] / w for j in star}
        start = max(zeta, *(_value(nu, rl, zeta, s) for s in near))
        keep = weighted & (r > start)
        keep[i] = False
        ids = keep.nonzero()[0]
        s, _ = fractional_optimum((v[ids] / w).tolist(), r[ids].tolist(), zeta, capacity, start)
        s = ids[s] if i in members else np.sort(np.append(ids[s], i))
        gaps[i + 1] = opt.theta_star - _revenue_at(inst, s)
    return opt, gaps


def revenue_margin(inst: Instance) -> float:
    """Gap between the best and second-best assortment revenues.

    Returns ``theta* - max{R(S) : S != S*}``, the smallest suboptimality gap:
    every ``S != S*`` differs from ``S*`` in some item ``i``, so its revenue
    is bounded by the maximum behind ``gap_i``.  Tied optima give 0.  It
    costs ``n + 1`` solves, and no generator filters on it: a near-tied
    draw is a hard instance, not a refused one.
    """
    return min(suboptimality_gaps(inst)[1].values())
