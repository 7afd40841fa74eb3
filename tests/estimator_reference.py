"""Frozen reference of the five estimators, as they were before they shared
one exploration loop.

``est_naive``, ``est_adaptive``, ``est_reduced`` and ``est_reg`` below are the
earlier bodies, each with its own validation, schedule, exploration loop and
call of the twelve-argument ``_finish``.  The tests require the loop-based
estimators to return equal `EstimateSet`s (or raise the same error), to
spend the same steps and regret, and to leave the generator in the same
state, so the two draw the same numbers in the same order.  Since the
estimates stopped carrying their schedule and plan records, these bodies
pass ``delta`` to ``_finish`` in place of the schedule and build no plan.

``est_rough`` is the rough pass's own loop, which offered each item alone and
read its upper weight end right after the item's batch.

``_explore_epochs`` is the batch helper these bodies called, kept verbatim
after the estimators' exploration loop absorbed it.
"""

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from mnlbandit.env import Environment, EpochBatch, HorizonExhausted
from mnlbandit.estimators import (
    PAPER_TUNING,
    EstimateSet,
    ExploreState,
    Tuning,
    _confidence,
    _refinement_tau,
    _rough_tau,
    _split_delta,
    ci_nu,
    ci_theta,
    ci_xi,
    ci_zeta,
)
from mnlbandit.model import validate_assortment
from model_reference import ReducedParams
from oracle_reference import fractional_optimum


def _explore_epochs(
    env: Environment, state: ExploreState, s: Sequence[int], epochs: int
) -> EpochBatch:
    """Run ``epochs`` exploration epochs in a vectorized batch.

    Commits the batch's statistics to ``state`` and returns the batch.
    Raises `HorizonExhausted`, committing nothing, if the step budget ran out
    within the batch.
    """
    batch = env.sample_epochs(state.z_stop, s, epochs)
    if batch.truncated:
        raise HorizonExhausted(f"step budget exhausted within a batch of {epochs} epochs")
    state.n_z += batch.z_sum
    state.t_z += epochs
    n, t = state.n, state.t
    for i, x in zip(batch.tracked, batch.x_sums.tolist()):
        n[i] = n.get(i, 0) + x
        t[i] = t.get(i, 0) + epochs
    return batch


def _rewards_map(env: Environment, items: Sequence[int]) -> Dict[int, float]:
    return {i: float(env.rewards[i - 1]) for i in items}


def _finish(
    env: Environment,
    items: Sequence[int],
    state: ExploreState,
    delta: float,
    tuning: Tuning,
    capacity: int,
    zeta_bounds: Optional[Tuple[float, float]],
    scored: Sequence[int],
    epochs: int,
    extra_nu_items: Sequence[int] = (),
) -> EstimateSet:
    """Assemble the interval set from a populated exploration state."""
    big_l = _confidence(delta, tuning)
    if zeta_bounds is None:
        zeta_lo, zeta_hi = ci_zeta(state, big_l)
    else:
        zeta_lo, zeta_hi = zeta_bounds
    nu_lo: Dict[int, float] = {}
    nu_hi: Dict[int, float] = {}
    for i in list(items) + list(extra_nu_items):
        nu_lo[i], nu_hi[i] = ci_nu(state.n.get(i, 0), state.t.get(i, 0), big_l)
    rewards = _rewards_map(env, list(items) + list(extra_nu_items))
    theta_lo, theta_hi, _ = ci_theta(
        rewards,
        sorted(nu_lo),
        nu_lo,
        nu_hi,
        zeta_lo,
        zeta_hi,
        capacity,
    )
    upper = fractional_optimum(rewards, ReducedParams(zeta_hi, nu_hi), capacity)
    xi_lo: Dict[int, float] = {}
    xi_hi: Dict[int, float] = {}
    for i in scored:
        xi_lo[i], xi_hi[i] = ci_xi(
            rewards[i], (nu_lo[i], nu_hi[i]), (theta_lo, theta_hi)
        )
    return EstimateSet(
        items=tuple(sorted(scored)),
        zeta_lo=zeta_lo,
        zeta_hi=zeta_hi,
        nu_lo=nu_lo,
        nu_hi=nu_hi,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        s_hi=tuple(i for i in upper.s_star if i in scored),
        xi_lo=xi_lo,
        xi_hi=xi_hi,
        epochs=epochs,
    )


def _check_disjoint(a: Sequence[int], b: Sequence[int]) -> None:
    if set(a) & set(b):
        raise ValueError("pinned and pending sets must be disjoint")


# ---------------------------------------------------------------------------
# Estimation procedures
# ---------------------------------------------------------------------------


def est_naive(
    env: Environment,
    a: Sequence[int],
    b: Sequence[int],
    delta0: float,
    eps: float,
    tuning: Tuning = PAPER_TUNING,
) -> EstimateSet:
    """Singleton exploration of every item, no reduction.

    Each item of ``a ∪ b`` is offered alone (empty stopping set) for
    ``k * tau`` epochs with ``tau = ceil(c2 c0 log(2/delta) / eps^2)`` and
    ``delta = delta0 / (15 n)``.  The raw weights are estimated directly;
    the revenue interval maximizes over assortments of ``a ∪ b`` under the
    true capacity ``k``, with the stop-reward term pinned to 0 (nothing is
    reduced away).  Scores are returned for the pending items ``b``.
    """
    ta = validate_assortment(a, env.n)
    tb = validate_assortment(b, env.n)
    _check_disjoint(ta, tb)
    items = tuple(sorted(ta + tb))
    delta = delta0 / (15.0 * env.n)
    tau = _refinement_tau(delta, eps, tuning)
    state = ExploreState(z_stop=())
    epochs = 0
    for i in items:
        batch = _explore_epochs(env, state, (i,), env.k * tau)
        epochs += batch.epochs
    capacity = min(env.k, len(items))
    return _finish(
        env,
        items,
        state,
        delta,
        tuning,
        capacity,
        zeta_bounds=(0.0, 0.0),
        scored=tb,
        epochs=epochs,
    )


def est_rough(
    env: Environment, delta0: float, tuning: Tuning = PAPER_TUNING
) -> Dict[int, float]:
    """Coarse upper estimates of every raw weight, one item at a time."""
    delta = _split_delta(delta0, 17.0, env.n)
    tau = _rough_tau(delta, env.k, tuning)
    big_l = _confidence(delta, tuning)
    state = ExploreState(z_stop=())
    rough: Dict[int, float] = {}
    for i in range(1, env.n + 1):
        _explore_epochs(env, state, (i,), tau)
        rough[i] = ci_nu(state.n[i], state.t[i], big_l)[1]
    return rough


def est_adaptive(
    env: Environment,
    a: Sequence[int],
    b: Sequence[int],
    delta0: float,
    eps: float,
    rough: Mapping[int, float],
    tuning: Tuning = PAPER_TUNING,
) -> EstimateSet:
    """Layered exploration of the pending items relative to the pinned set.

    Pending items are bucketed by their rough *reduced* weight
    ``rough_i / (1 + sum_{j in a} rough_j)`` into dyadic layers; layer ``i``
    is explored in consecutive groups of ``d_i = min(2^i, M)`` items, each
    for ``d_i * tau`` epochs, with the pinned set as the stopping set.
    Heavier items (small layer index) get smaller groups — their epochs are
    long and informative — while light items share long batches.  ``M =
    min(k - |a|, |b|)`` is the residual capacity and the revenue interval's
    assortment bound.
    """
    ta = validate_assortment(a, env.n)
    tb = validate_assortment(b, env.n)
    _check_disjoint(ta, tb)
    if not tb:
        raise ValueError("pending set must be nonempty")
    m_cap = min(env.k - len(ta), len(tb))
    if m_cap < 1:
        raise ValueError("pinned set already fills the capacity")
    for i in ta + tb:
        if i not in rough:
            raise ValueError(f"missing rough estimate for item {i}")

    delta = delta0 / (15.0 * env.n)
    tau = _refinement_tau(delta, eps, tuning)

    denom = 1.0 + sum(rough[j] for j in ta)
    nu_tilde = {i: rough[i] / denom for i in tb}

    depth = max(0, math.ceil(math.log2(m_cap)))
    layer_items: List[List[int]] = [[] for _ in range(depth + 1)]
    for i in tb:
        x = nu_tilde[i]
        layer = depth
        for lv in range(depth):
            if x > 2.0 ** (-(lv + 1)):
                layer = lv
                break
        layer_items[layer].append(i)
    widths = tuple(min(2 ** lv, m_cap) for lv in range(depth + 1))

    groups: List[Tuple[int, Tuple[int, ...]]] = []
    for lv, members in enumerate(layer_items):
        members = sorted(members)
        d = widths[lv]
        for pos in range(0, len(members), d):
            groups.append((lv, tuple(members[pos : pos + d])))

    state = ExploreState(z_stop=ta)
    epochs = 0
    for lv, group in groups:
        assert len(ta) + len(group) <= env.k
        batch = _explore_epochs(env, state, group, widths[lv] * tau)
        epochs += batch.epochs
    return _finish(
        env,
        tb,
        state,
        delta,
        tuning,
        m_cap,
        zeta_bounds=None,
        scored=tb,
        epochs=epochs,
    )


def est_reduced(
    env: Environment,
    a: Sequence[int],
    b: Sequence[int],
    delta0: float,
    eps: float,
    tuning: Tuning = PAPER_TUNING,
) -> EstimateSet:
    """Singleton exploration of pending items relative to the pinned set.

    Like the adaptive estimator but without layering: every pending item is
    explored alone (stopping set = pinned set) for ``k * tau`` epochs.
    Simpler, and costlier by roughly the capacity factor on dense instances.

    An empty pending set is legal and consumes nothing: the result scores no
    items and carries only the trivial intervals.
    """
    ta = validate_assortment(a, env.n)
    tb = validate_assortment(b, env.n)
    _check_disjoint(ta, tb)
    delta = delta0 / (15.0 * env.n)
    tau = _refinement_tau(delta, eps, tuning)
    state = ExploreState(z_stop=ta)
    if not tb:
        return _finish(
            env, (), state, delta, tuning, 0, None, (), 0
        )
    m_cap = min(env.k - len(ta), len(tb))
    if m_cap < 1:
        raise ValueError("pinned set already fills the capacity")
    epochs = 0
    for i in tb:
        batch = _explore_epochs(env, state, (i,), env.k * tau)
        epochs += batch.epochs
    return _finish(
        env,
        tb,
        state,
        delta,
        tuning,
        m_cap,
        zeta_bounds=None,
        scored=tb,
        epochs=epochs,
    )


def est_reg(
    env: Environment,
    a: Sequence[int],
    b: Sequence[int],
    delta0: float,
    eps: float,
    tuning: Tuning = PAPER_TUNING,
) -> EstimateSet:
    """Full-assortment exploration for regret-sensitive phases.

    Pending items are covered by groups of exactly ``M = min(k - |a|, |b|)``
    items (the last group padded with the smallest remaining pending items),
    and each group is offered *together with the pinned set* as one
    assortment of size ``min(k, |a| + |b|)`` for ``k * tau`` epochs with an
    empty stopping set — so every offered set is large and (once the pinned
    set is good) cheap in regret.  Raw weights are estimated for pinned and
    pending items alike; the revenue interval maximizes over ``a ∪ b`` under
    the true capacity with the stop-reward term pinned to 0.

    ``delta = delta0 / (13 n)``; ``tau = ceil(c2 c0 log(2/delta) / eps^2)``.
    """
    ta = validate_assortment(a, env.n)
    tb = validate_assortment(b, env.n)
    _check_disjoint(ta, tb)
    if not tb:
        raise ValueError("pending set must be nonempty")
    m_cap = min(env.k - len(ta), len(tb))
    if m_cap < 1:
        raise ValueError("pinned set already fills the capacity")
    delta = delta0 / (13.0 * env.n)
    tau = _refinement_tau(delta, eps, tuning)

    pending = list(tb)
    groups: List[Tuple[int, ...]] = []
    for pos in range(0, len(pending), m_cap):
        chunk = pending[pos : pos + m_cap]
        if len(chunk) < m_cap:
            pad = [i for i in pending if i not in chunk][: m_cap - len(chunk)]
            chunk = sorted(chunk + pad)
        groups.append(tuple(chunk))

    state = ExploreState(z_stop=())
    epochs = 0
    for group in groups:
        offered = tuple(sorted(ta + group))
        assert len(offered) == min(env.k, len(ta) + len(tb))
        batch = _explore_epochs(env, state, offered, env.k * tau)
        epochs += batch.epochs
    capacity = min(env.k, len(ta) + len(tb))
    return _finish(
        env,
        tb,
        state,
        delta,
        tuning,
        capacity,
        zeta_bounds=(0.0, 0.0),
        scored=tb,
        epochs=epochs,
        extra_nu_items=ta,
    )
