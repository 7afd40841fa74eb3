"""Epoch-based exploration and the five estimation procedures.

All estimators share one primitive: an *exploration epoch* for a stopping
set ``Z`` and tracked set ``S`` offers ``Z ∪ S`` until the outcome lands in
``Z ∪ {0}``.  Over one epoch, the stop reward ``z`` has mean ``R(Z, v)``,
each tracked item's purchase count ``x_i`` has mean
``nu_i = v_i / (1 + sum_{j in Z} v_j)``, and the epoch length minus one has
mean ``sum_{i in S} nu_i`` — so empirical epoch averages estimate the
*reduced* parameters relative to ``Z`` directly, without knowing ``v``.

One exploration loop, ``_explore``, serves all five procedures.  Each is a
group plan over it: a stopping set and a list of tracked sets, each explored
for a number of ``tau``-epoch units.  The rough procedure offers each item
alone for one unit and keeps only the upper weight ends.  The four
refinement procedures bound theirs in ``_estimate``, given a confidence
divisor and whether the estimate is *reduced* (stopping at the pinned set)
or *raw* (no stopping set, stop-reward term pinned to 0): the naive and
reduced ones explore items one at a time, the adaptive one in weight layers,
and the regret one in full assortments.

Confidence intervals:

* the stop-reward mean uses a Hoeffding radius
  ``sqrt(log(2/delta) / (2 T_Z))``;
* each reduced weight uses an empirical-Bernstein-style radius for
  geometric samples, ``sqrt(48 nu_bar log(2/delta) / T) + 48 log(2/delta)/T``;
* the optimal-revenue interval plugs the lower/upper parameter ends into the
  exact fractional oracle (monotonicity of the reduced optimum in every
  parameter makes the plug-in ends valid bounds);
* each advantage-score interval combines the weight interval with the
  revenue interval: for ``xi_i = nu_i (r_i - theta)``,
  ``xi_lo = min(nu_lo, nu_hi) * (r_i - theta_hi)`` taken over both weight
  ends, and symmetrically for ``xi_hi`` with ``theta_lo``.

Schedules and tuning.  `_log_term` turns an estimate's share ``delta0`` into
``log(2/delta)`` at ``delta = delta0 / (divisor n)``, the one factor that both
schedules and both radii derive from.  The refinement procedures use
``tau = ceil(C2 * C0 * log(2/delta) / eps^2)`` epochs per unit of work and
the rough procedure uses ``tau = ceil(4 k C0 log(2/delta))``, with the
paper's ``C0 = 196`` and ``C2 = 1024``.  These constants make the guarantees
hold with large slack and are far too conservative to simulate at desk scale,
so `Tuning` carries three multipliers, all 1.0 by default (exact constants):
``tau_scale`` (refinement epoch counts), ``rough_tau_scale`` (rough epoch
counts) and ``ci_scale`` (the ``log(2/delta)`` factor inside both confidence
radii).  `PAPER_TUNING` is the exact profile; `DESK_TUNING` is a calibrated
profile that keeps the width-vs-phase race and the relative estimator costs
at interactive runtimes.  Acceptance checks 06-10 run at desk, and so do
check 11's reproducibility runs; checks 05, 12, 13 and 14 run at the paper's
constants.  Desk does not keep every interval valid at one confidence level:
``ci_scale`` shrinks both radii's ``log(2/delta)``, but only the weight
radius carries the factor 48, so at ``ci_scale = 0.02`` the weight radius is
about 3 sigma and the stop-reward radius about 0.6 sigma.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .env import Environment, HorizonExhausted
from .model import Assortment, validate_assortment
from .oracle import fractional_optimum

__all__ = [
    "Tuning", "PAPER_TUNING", "DESK_TUNING", "ExploreState", "ci_zeta",
    "ci_nu", "ci_theta", "ci_xi", "EstimateSet",
    "est_naive", "est_rough", "est_adaptive", "est_reduced", "est_reg",
]


#: The paper's schedule constants (see the module docstring).
C0 = 196
C2 = 1024

#: The rough pass's ``delta = delta0 / (17 n)``: the largest of the estimators' divisors.
ROUGH_DIVISOR = 17.0


@dataclass(frozen=True)
class Tuning:
    """Desk-scale multipliers of the schedules and radii (1.0 = exact)."""

    tau_scale: float = 1.0
    rough_tau_scale: float = 1.0
    ci_scale: float = 1.0

    def __post_init__(self) -> None:
        scales = (self.tau_scale, self.rough_tau_scale, self.ci_scale)
        if not all(math.isfinite(x) and x > 0 for x in scales):
            raise ValueError("tuning multipliers must be finite and positive")


#: Exact constants — guarantee-faithful, impractically expensive to simulate.
PAPER_TUNING = Tuning()

#: Desk-scale profile of acceptance checks 06-11 (05 and 12-14 run at
#: `PAPER_TUNING`); see module docstring.  Calibrated so that interval
#: widths cross the phase targets around phases 4-7 for gaps in
#: [0.0125, 0.05] (the same regime the exact constants produce, at ~10^-5 of
#: the cost).  In `pac_exact` runs at
#: ``delta = 0.1`` on uniform n = 8, k = 3 instances (generator seeds 0-19, 25
#: replications each), its stop-reward interval missed the truth in 293 of the
#: 728 phases with a pinned set.
DESK_TUNING = Tuning(tau_scale=2e-6, rough_tau_scale=0.02, ci_scale=0.02)


def _log_term(delta0: float, divisor: float, n: int) -> float:
    """``log(2/delta)`` at ``delta = delta0 / (divisor n)``, refusing a ``delta0``
    outside (0, 1) or one that splits below the smallest normal float, where the
    log overflows."""
    if not (0.0 < delta0 < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    smallest = sys.float_info.min * divisor * n
    if delta0 < smallest:
        raise ValueError(f"delta {delta0!r} is too small to split for n = {n} items: "
                         f"the smallest delta accepted is {smallest!r}")
    return math.log(2.0 / (delta0 / (divisor * n)))


def _epochs(raw: float, multiplier: str, value: float) -> int:
    """``ceil(raw)``, at least 1; an infinite ``raw`` is refused, naming the
    ``multiplier`` that overflowed it and its ``value``."""
    if not math.isfinite(raw):
        raise OverflowError(f"{multiplier} {value!r} overflows the epoch count")
    return max(1, math.ceil(raw))


def _refinement_tau(log_term: float, eps: float, tuning: Tuning) -> int:
    """``ceil(tau_scale * C2 * C0 * log(2/delta) / eps^2)``, at least 1."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    raw = tuning.tau_scale * C2 * C0 * log_term / (eps * eps)
    return _epochs(raw, "tau_scale", tuning.tau_scale)


def _rough_tau(log_term: float, k: int, tuning: Tuning) -> int:
    """``ceil(rough_tau_scale * 4 k C0 log(2/delta))``, at least 1."""
    raw = tuning.rough_tau_scale * 4.0 * k * C0 * log_term
    return _epochs(raw, "rough_tau_scale", tuning.rough_tau_scale)


# ---------------------------------------------------------------------------
# Exploration state
# ---------------------------------------------------------------------------


@dataclass
class ExploreState:
    """Running counters of exploration relative to a fixed stopping set.

    ``n_z / t_z`` estimate the stop-reward mean, and ``n[i] / t[i]`` estimate
    item i's reduced weight; ``t[i]`` counts the epochs in which i was
    tracked.
    """

    z_stop: Assortment = ()
    n_z: float = 0.0
    t_z: int = 0
    n: Dict[int, int] = field(default_factory=dict)
    t: Dict[int, int] = field(default_factory=dict)

    def bar_zeta(self) -> float:
        """Empirical stop-reward mean (0 before any epoch)."""
        return self.n_z / self.t_z if self.t_z else 0.0


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------


def ci_zeta(state: ExploreState, big_l: float) -> Tuple[float, float]:
    """Hoeffding interval for the stop-reward mean: radius ``sqrt(L / (2 t_z))``
    with ``L = ci_scale log(2/delta)``, clamped to [0, 1]; [0, 1] before any epoch."""
    if state.t_z == 0:
        return (0.0, 1.0)
    rad = math.sqrt(big_l / (2.0 * state.t_z))
    bar = state.bar_zeta()
    return (max(0.0, bar - rad), min(1.0, bar + rad))


def ci_nu(count: int, t: int, big_l: float) -> Tuple[float, float]:
    """Bernstein-style interval for the reduced weight of an item bought
    ``count`` times in ``t`` epochs: radius ``sqrt(48 nu_bar L / t) + 48 L / t``
    with ``nu_bar = count / t`` and ``L = ci_scale log(2/delta)``, clamped to
    [0, 1]; [0, 1] when ``t = 0``."""
    if t == 0:
        return (0.0, 1.0)
    bar = count / t
    rad = math.sqrt(48.0 * bar * big_l / t) + 48.0 * big_l / t
    # The empirical mean of per-epoch purchase counts can exceed 1 even
    # though the weight itself never does, so both ends are intersected
    # with the a-priori range [0, 1].
    return (min(1.0, max(0.0, bar - rad)), min(1.0, bar + rad))


def ci_theta(
    rewards: Mapping[int, float],
    items: Sequence[int],
    nu_lo: Mapping[int, float],
    nu_hi: Mapping[int, float],
    zeta_lo: float,
    zeta_hi: float,
    capacity: int,
) -> Tuple[float, float, Assortment]:
    """``(theta_lo, theta_hi, s_hi)``: the optimal reduced revenue's interval via
    plug-in fractional solves, and the ascending ids the upper one selects.

    The reduced optimum is nondecreasing in ``zeta`` and in every ``nu_i``
    whose reward side can only help (formally: raising any parameter never
    lowers the constrained optimum), so solving at the lower ends bounds it
    from below and at the upper ends from above.  Each end is one
    `fractional_optimum` solve over ``items`` in ascending order.
    """
    items = sorted(items)
    r = [rewards[i] for i in items]
    _, lo = fractional_optimum([nu_lo[i] for i in items], r, zeta_lo, capacity)
    s, hi = fractional_optimum([nu_hi[i] for i in items], r, zeta_hi, capacity)
    return (lo, hi, tuple(items[j] for j in s))


def ci_xi(
    reward: float,
    nu_bounds: Tuple[float, float],
    theta_bounds: Tuple[float, float],
) -> Tuple[float, float]:
    """Interval for one advantage score ``xi = nu (r - theta)``.

    Lower end: the smaller of ``nu_lo (r - theta_hi)`` and
    ``nu_hi (r - theta_hi)`` (whichever weight end hurts, given the
    pessimistic revenue); upper end symmetric with ``theta_lo``.  Given
    ``nu_lo <= nu_hi`` and ``theta_lo <= theta_hi`` the two ends are always
    ordered — asserted, not clamped.
    """
    nu_lo, nu_hi = nu_bounds
    theta_lo, theta_hi = theta_bounds
    lo = min(nu_lo * (reward - theta_hi), nu_hi * (reward - theta_hi))
    hi = max(nu_lo * (reward - theta_lo), nu_hi * (reward - theta_lo))
    assert lo <= hi, "advantage-score interval ends out of order"
    return (lo, hi)


# ---------------------------------------------------------------------------
# Estimate container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateSet:
    """One estimator invocation's output: intervals plus bookkeeping.

    ``items`` are the pending items scored, ``m >= 1`` their residual capacity
    from `_sets`, and ``s_hi`` the items of the upper `ci_theta` solve;
    ``nu_lo/nu_hi`` may also cover pinned items.  All interval pairs are
    ordered; weights and revenues lie in [0, 1]; scores lie in [-1, 1].  A
    run keeps each phase's estimate as ``PhaseState.est``, so ``m``,
    ``epochs`` and every interval end are read through ``res.phases``.
    """

    items: Assortment
    m: int
    zeta_lo: float
    zeta_hi: float
    nu_lo: Dict[int, float]
    nu_hi: Dict[int, float]
    theta_lo: float
    theta_hi: float
    s_hi: Assortment
    xi_lo: Dict[int, float]
    xi_hi: Dict[int, float]
    epochs: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("residual capacity must be >= 1")
        if not set(self.s_hi) <= set(self.items):
            raise ValueError("the upper solve's set must lie in the scored items")
        if not (0.0 <= self.zeta_lo <= self.zeta_hi <= 1.0):
            raise ValueError("stop-reward interval out of order or range")
        if not (0.0 <= self.theta_lo <= self.theta_hi <= 1.0):
            raise ValueError("revenue interval out of order or range")
        for i in self.nu_lo:
            if not (0.0 <= self.nu_lo[i] <= self.nu_hi[i] <= 1.0):
                raise ValueError(f"weight interval for item {i} out of order")
        for i in self.items:
            if not (-1.0 <= self.xi_lo[i] <= self.xi_hi[i] <= 1.0):
                raise ValueError(f"score interval for item {i} out of order")

    def max_width(self) -> float:
        """Largest score-interval width over pending items (0 if none)."""
        if not self.items:
            return 0.0
        return max(self.xi_hi[i] - self.xi_lo[i] for i in self.items)


# ---------------------------------------------------------------------------
# Estimation procedures
# ---------------------------------------------------------------------------


def _sets(
    env: Environment, a: Sequence[int], b: Sequence[int]
) -> Tuple[Assortment, Assortment, int]:
    """The validated pinned and pending sets, which must be disjoint, and the
    residual capacity ``M = min(k - |a|, |b|)``, which must be at least 1: the
    pending set is nonempty and the pinned one leaves room."""
    ta = validate_assortment(a, env.n)
    tb = validate_assortment(b, env.n)
    if set(ta) & set(tb):
        raise ValueError("pinned and pending sets must be disjoint")
    if not tb:
        raise ValueError("pending set must be nonempty")
    if len(ta) >= env.k:
        raise ValueError("pinned set already fills the capacity")
    return ta, tb, min(env.k - len(ta), len(tb))


def _explore(env: Environment, stop: Assortment, groups: Sequence[Tuple[Assortment, int]],
             tau: int) -> ExploreState:
    """The one exploration loop of all five procedures: from a fresh state that
    stops at ``stop``, explore each group ``(s, units)`` of the plan in turn for
    ``units * tau`` epochs, one `Environment.sample_epochs` batch each, and add
    its stop reward, epochs and per-item counts to the state.  A step budget
    spent within a batch raises `HorizonExhausted`."""
    state = ExploreState(z_stop=stop)
    n, t = state.n, state.t
    for s, units in groups:
        epochs = units * tau
        batch = env.sample_epochs(stop, s, epochs)
        if batch.truncated:
            raise HorizonExhausted(f"step budget exhausted within a batch of {epochs} epochs")
        state.n_z += batch.z_sum
        state.t_z += epochs
        for i, x in zip(batch.tracked, batch.x_sums.tolist()):
            n[i] = n.get(i, 0) + x
            t[i] = t.get(i, 0) + epochs
    return state


def _estimate(
    env: Environment,
    ta: Assortment,
    tb: Assortment,
    m: int,
    delta0: float,
    eps: float,
    tuning: Tuning,
    divisor: float,
    groups: Sequence[Tuple[Assortment, int]],
    reduced: bool,
) -> EstimateSet:
    """The refinement procedures: `_explore` the group plan, then bound.

    One `_log_term`, at ``delta = delta0 / (divisor n)``, gives both ``tau =
    ceil(C2 C0 log(2/delta) / eps^2)`` and the radii's ``L``.  A *reduced*
    estimate stops at the pinned set ``ta``, estimates the stop reward and the
    reduced weights of ``tb``, and bounds the revenue at the residual capacity
    ``m`` from `_sets`; a *raw* one stops at nothing, pins the stop-reward term
    to 0, estimates the raw weights of ``ta ∪ tb`` and bounds the revenue at
    capacity ``|a| + m = min(k, |a| + |b|)``.  Scores are returned for the
    pending items ``tb``.
    """
    log_term = _log_term(delta0, divisor, env.n)
    tau = _refinement_tau(log_term, eps, tuning)
    if reduced:
        stop, weighed, capacity = ta, tb, m
    else:
        stop, weighed, capacity = (), tuple(sorted(ta + tb)), len(ta) + m
    state = _explore(env, stop, groups, tau)
    big_l = tuning.ci_scale * log_term
    zeta_lo, zeta_hi = ci_zeta(state, big_l) if reduced else (0.0, 0.0)
    nu_lo: Dict[int, float] = {}
    nu_hi: Dict[int, float] = {}
    rewards: Dict[int, float] = {}
    all_rewards = env.rewards.tolist()
    for i in weighed:
        nu_lo[i], nu_hi[i] = ci_nu(state.n.get(i, 0), state.t.get(i, 0), big_l)
        rewards[i] = all_rewards[i - 1]
    theta_lo, theta_hi, s_hi = ci_theta(rewards, weighed, nu_lo, nu_hi, zeta_lo, zeta_hi, capacity)
    xi_lo: Dict[int, float] = {}
    xi_hi: Dict[int, float] = {}
    for i in tb:
        xi_lo[i], xi_hi[i] = ci_xi(rewards[i], (nu_lo[i], nu_hi[i]), (theta_lo, theta_hi))
    return EstimateSet(
        items=tb,
        m=m,
        zeta_lo=zeta_lo,
        zeta_hi=zeta_hi,
        nu_lo=nu_lo,
        nu_hi=nu_hi,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        s_hi=tuple(i for i in s_hi if i in xi_lo),  # a raw solve's pending part
        xi_lo=xi_lo,
        xi_hi=xi_hi,
        epochs=state.t_z,
    )


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
    ``k * tau`` epochs with ``tau = ceil(C2 C0 log(2/delta) / eps^2)`` and
    ``delta = delta0 / (15 n)``.  The raw weights are estimated directly;
    the revenue interval maximizes over assortments of ``a ∪ b`` under the
    true capacity ``k``, with the stop-reward term pinned to 0 (nothing is
    reduced away).  Scores are returned for the pending items ``b``.
    """
    ta, tb, m = _sets(env, a, b)
    groups = [((i,), env.k) for i in sorted(ta + tb)]
    return _estimate(env, ta, tb, m, delta0, eps, tuning, 15.0, groups, reduced=False)


def est_rough(
    env: Environment, delta0: float, tuning: Tuning = PAPER_TUNING
) -> Dict[int, float]:
    """Coarse upper estimates of every raw weight.

    Each item is offered alone for ``tau = ceil(4 k C0 log(2/delta))``
    epochs with ``delta = delta0 / (17 n)``; the returned value is the upper
    confidence end, so with probability ``1 - delta0`` it lies in
    ``[v_i, max(2 v_i, 1/k)]`` — exactly the quality the adaptive
    estimator's layer assignment needs.
    """
    log_term = _log_term(delta0, ROUGH_DIVISOR, env.n)
    tau = _rough_tau(log_term, env.k, tuning)
    items = range(1, env.n + 1)
    state = _explore(env, (), [((i,), 1) for i in items], tau)  # per-item counters keep items apart
    big_l = tuning.ci_scale * log_term
    return {i: ci_nu(state.n[i], state.t[i], big_l)[1] for i in items}


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
    ta, tb, m = _sets(env, a, b)
    for i in ta + tb:
        if i not in rough:
            raise ValueError(f"missing rough estimate for item {i}")

    denom = 1.0 + sum(rough[j] for j in ta)
    depth = max(0, math.ceil(math.log2(m)))
    floors = [2.0 ** (-(lv + 1)) for lv in range(depth)]  # layers' lower ends
    layer_items: List[List[int]] = [[] for _ in range(depth + 1)]
    for i in tb:  # ascending, so every layer is too
        x = rough[i] / denom
        layer = 0
        for floor in floors:
            if x > floor:
                break
            layer += 1
        layer_items[layer].append(i)
    groups: List[Tuple[Assortment, int]] = []
    for lv, members in enumerate(layer_items):
        d = min(2 ** lv, m)
        for pos in range(0, len(members), d):
            groups.append((tuple(members[pos : pos + d]), d))
    return _estimate(env, ta, tb, m, delta0, eps, tuning, 15.0, groups, reduced=True)


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
    """
    ta, tb, m = _sets(env, a, b)
    groups = [((i,), env.k) for i in tb]
    return _estimate(env, ta, tb, m, delta0, eps, tuning, 15.0, groups, reduced=True)


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

    ``delta = delta0 / (13 n)``; ``tau = ceil(C2 C0 log(2/delta) / eps^2)``.
    """
    ta, tb, m = _sets(env, a, b)
    groups: List[Tuple[int, ...]] = []
    for pos in range(0, len(tb), m):
        chunk = list(tb[pos : pos + m])
        if len(chunk) < m:
            pad = [i for i in tb if i not in chunk][: m - len(chunk)]
            chunk = sorted(chunk + pad)
        groups.append(tuple(chunk))
    offered = [(tuple(sorted(ta + group)), env.k) for group in groups]
    return _estimate(env, ta, tb, m, delta0, eps, tuning, 13.0, offered, reduced=False)
