"""Epoch-based exploration and the five estimation procedures.

All estimators share one primitive: an *exploration epoch* for a stopping
set ``Z`` and tracked set ``S`` offers ``Z ∪ S`` until the outcome lands in
``Z ∪ {0}``.  Over one epoch, the stop reward ``z`` has mean ``R(Z, v)``,
each tracked item's purchase count ``x_i`` has mean
``nu_i = v_i / (1 + sum_{j in Z} v_j)``, and the epoch length minus one has
mean ``sum_{i in S} nu_i`` — so empirical epoch averages estimate the
*reduced* parameters relative to ``Z`` directly, without knowing ``v``.

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

Schedules and tuning.  The refinement procedures use
``tau = ceil(c2 * c0 * log(2/delta) / eps^2)`` epochs per unit of work and
the rough procedure uses ``tau = ceil(4 k c0 log(2/delta))``, with
``c0 = 196`` and ``c2 = 1024``.  These constants make the guarantees hold
with large slack and are far too conservative to simulate at desk scale, so
`Tuning` carries three multipliers, all 1.0 by default (exact constants):
``tau_scale`` (refinement epoch counts), ``rough_tau_scale`` (rough epoch
counts) and ``ci_scale`` (the ``log(2/delta)`` factor inside both confidence
radii).  `PAPER_TUNING` is the exact profile; `DESK_TUNING` is a calibrated
profile that preserves every structural property (interval validity at a
reduced confidence level, the width-vs-phase race, relative estimator
costs) at interactive runtimes, and is what the statistical acceptance
checks run under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .env import Environment, EpochBatch, HorizonExhausted
from .model import Assortment, validate_assortment
from .oracle import _solve

__all__ = [
    "Tuning",
    "PAPER_TUNING",
    "DESK_TUNING",
    "Schedule",
    "ExploreState",
    "explore",
    "explore_epochs",
    "ci_zeta",
    "ci_nu",
    "ci_theta",
    "ci_xi",
    "EstimateSet",
    "LayerPlan",
    "GroupPlan",
    "est_naive",
    "est_rough",
    "est_adaptive",
    "est_reduced",
    "est_reg",
]


@dataclass(frozen=True)
class Tuning:
    """Schedule constants plus desk-scale multipliers (1.0 = exact)."""

    c0: int = 196
    c2: int = 1024
    tau_scale: float = 1.0
    rough_tau_scale: float = 1.0
    ci_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.c0 < 1 or self.c2 < 1:
            raise ValueError("schedule constants must be >= 1")
        if min(self.tau_scale, self.rough_tau_scale, self.ci_scale) <= 0:
            raise ValueError("tuning multipliers must be positive")


#: Exact constants — guarantee-faithful, impractically expensive to simulate.
PAPER_TUNING = Tuning()

#: Desk-scale profile used by the statistical acceptance checks; see module
#: docstring.  Calibrated so that decisions carry ~3-sigma confidence and
#: interval widths cross the phase targets around phases 4-7 for gaps in
#: [0.0125, 0.05] (the same regime the exact constants produce, at ~10^-5 of
#: the cost).
DESK_TUNING = Tuning(tau_scale=2e-6, rough_tau_scale=0.02, ci_scale=0.02)


@dataclass(frozen=True)
class Schedule:
    """Resolved constants of one estimator invocation."""

    c0: int
    c2: int
    delta: float
    tau: int

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")


def _log_term(delta: float) -> float:
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return math.log(2.0 / delta)


def _refinement_tau(delta: float, eps: float, tuning: Tuning) -> int:
    """``ceil(tau_scale * c2 * c0 * log(2/delta) / eps^2)``, at least 1."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    raw = tuning.tau_scale * tuning.c2 * tuning.c0 * _log_term(delta) / (eps * eps)
    return max(1, math.ceil(raw))


def _rough_tau(delta: float, k: int, tuning: Tuning) -> int:
    """``ceil(rough_tau_scale * 4 k c0 log(2/delta))``, at least 1."""
    raw = tuning.rough_tau_scale * 4.0 * k * tuning.c0 * _log_term(delta)
    return max(1, math.ceil(raw))


# ---------------------------------------------------------------------------
# Exploration state
# ---------------------------------------------------------------------------


@dataclass
class ExploreState:
    """Running counters of exploration relative to a fixed stopping set.

    ``n_z / t_z`` estimate the stop-reward mean, and ``n[i] / t[i]`` estimate
    item i's reduced weight; ``t[i]`` counts the epochs in which i was
    tracked.  ``epoch_lengths`` records individual epoch lengths when
    ``record_lengths`` is set (diagnostics only — the counters never need it).
    """

    z_stop: Assortment = ()
    n_z: float = 0.0
    t_z: int = 0
    n: Dict[int, int] = field(default_factory=dict)
    t: Dict[int, int] = field(default_factory=dict)
    epoch_lengths: List[int] = field(default_factory=list)
    record_lengths: bool = False

    def bar_zeta(self) -> float:
        """Empirical stop-reward mean (0 before any epoch)."""
        return self.n_z / self.t_z if self.t_z else 0.0

    def bar_nu(self, item: int) -> float:
        """Empirical reduced weight of ``item`` (0 before any epoch)."""
        t = self.t.get(item, 0)
        return self.n.get(item, 0) / t if t else 0.0


def explore(env: Environment, state: ExploreState, s: Sequence[int]) -> int:
    """Run ONE exploration epoch step by step; return its length.

    Reference implementation of the epoch primitive: offers
    ``state.z_stop ∪ s`` repeatedly via ``env.offer`` until the outcome lands
    in the stopping set or is a no-purchase, then commits the epoch's
    statistics to ``state``.  If the step budget dies mid-epoch the partial
    statistics are discarded (the consumed steps remain on the ledger) and
    `HorizonExhausted` propagates.
    """
    ts = validate_assortment(s, env.n)
    if set(ts) & set(state.z_stop):
        raise ValueError("tracked set must be disjoint from the stopping set")
    offered = tuple(sorted(state.z_stop + ts))
    stop = set(state.z_stop)
    x = {i: 0 for i in ts}
    length = 0
    while True:
        c = env.offer(offered)
        length += 1
        if c == 0 or c in stop:
            z = 0.0 if c == 0 else float(env.rewards[c - 1])
            state.n_z += z
            state.t_z += 1
            for i in ts:
                state.n[i] = state.n.get(i, 0) + x[i]
                state.t[i] = state.t.get(i, 0) + 1
            if state.record_lengths:
                state.epoch_lengths.append(length)
            return length
        x[c] += 1


def explore_epochs(
    env: Environment, state: ExploreState, s: Sequence[int], epochs: int
) -> EpochBatch:
    """Run ``epochs`` exploration epochs in a vectorized batch.

    Commits completed-epoch statistics to ``state`` and returns the batch.
    Raises `HorizonExhausted` (after committing what completed) if the step
    budget ran out before all requested epochs finished.
    """
    ts = validate_assortment(s, env.n)
    batch = env.sample_epochs(state.z_stop, ts, epochs, collect=state.record_lengths)
    state.n_z += batch.z_sum
    state.t_z += batch.epochs
    for j, i in enumerate(ts):
        state.n[i] = state.n.get(i, 0) + int(batch.x_sums[j])
        state.t[i] = state.t.get(i, 0) + batch.epochs
    if state.record_lengths and batch.lengths is not None:
        state.epoch_lengths.extend(int(v) for v in batch.lengths)
    if batch.truncated:
        raise HorizonExhausted(
            f"step budget exhausted after {batch.epochs}/{epochs} epochs"
        )
    return batch


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------


def ci_zeta(state: ExploreState, delta: float, tuning: Tuning = PAPER_TUNING) -> Tuple[float, float]:
    """Two-sided Hoeffding interval for the stop-reward mean.

    Radius ``sqrt(ci_scale * log(2/delta) / (2 t_z))``, clamped to [0, 1];
    with no epochs yet, the trivial interval [0, 1].
    """
    if state.t_z == 0:
        return (0.0, 1.0)
    rad = math.sqrt(tuning.ci_scale * _log_term(delta) / (2.0 * state.t_z))
    bar = state.bar_zeta()
    return (max(0.0, bar - rad), min(1.0, bar + rad))


def ci_nu(
    state: ExploreState, item: int, delta: float, tuning: Tuning = PAPER_TUNING
) -> Tuple[float, float]:
    """Bernstein-style interval for one reduced weight.

    Radius ``sqrt(48 nu_bar L / t) + 48 L / t`` with
    ``L = ci_scale * log(2/delta)``, clamped to [0, 1]; trivial [0, 1] when
    the item has no epochs yet.
    """
    t = state.t.get(item, 0)
    if t == 0:
        return (0.0, 1.0)
    big_l = tuning.ci_scale * _log_term(delta)
    bar = state.bar_nu(item)
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
) -> Tuple[float, float]:
    """Interval for the optimal reduced revenue via plug-in fractional solves.

    The reduced optimum is nondecreasing in ``zeta`` and in every ``nu_i``
    whose reward side can only help (formally: raising any parameter never
    lowers the constrained optimum), so solving at the lower ends bounds it
    from below and at the upper ends from above.  Each end is the oracle's
    ``_solve`` on arrays, with the revenue recomputed on the chosen set by
    ``reduced_revenue``'s expression, so it equals ``fractional_optimum``'s
    ``theta_star`` bit for bit.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    items = sorted(items)
    r = [rewards[i] for i in items]
    r_arr = np.array(r, dtype=float)

    def plug_in(nu_end: Mapping[int, float], zeta: float) -> float:
        nu = [nu_end[i] for i in items]
        num, den = zeta, 1.0
        for j in _solve(np.array(nu, dtype=float), r_arr, zeta, capacity).tolist():
            num += nu[j] * r[j]
            den += nu[j]
        return float(num / den)

    return (plug_in(nu_lo, zeta_lo), plug_in(nu_hi, zeta_hi))


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
class LayerPlan:
    """Weight-layer grouping used by the adaptive estimator.

    Layer ``i < depth`` holds items with rough reduced weight in
    ``(2^-(i+1), 2^-i]``; layer ``depth`` holds ``[0, 2^-depth]``.  Layer
    ``i`` is split into consecutive groups of at most ``width[i] =
    min(2^i, capacity)`` items, each explored for ``width[i] * tau`` epochs.
    """

    depth: int
    layers: Tuple[Tuple[int, ...], ...]
    widths: Tuple[int, ...]
    groups: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (layer index, items)


@dataclass(frozen=True)
class GroupPlan:
    """Fixed-size grouping used by the regret estimator.

    Every group has exactly ``size`` items; the last group is padded with
    the smallest items of earlier groups when the pending set does not
    divide evenly (padded items simply accrue extra epochs).
    """

    size: int
    groups: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class EstimateSet:
    """One estimator invocation's output: intervals plus bookkeeping.

    ``items`` are the pending items scored; ``nu_lo/nu_hi`` may cover more
    items than ``items`` (procedures that also estimate pinned items).  All
    interval pairs are ordered; weights and revenues lie in [0, 1]; scores
    lie in [-1, 1].
    """

    items: Assortment
    zeta_lo: float
    zeta_hi: float
    nu_lo: Dict[int, float]
    nu_hi: Dict[int, float]
    theta_lo: float
    theta_hi: float
    xi_lo: Dict[int, float]
    xi_hi: Dict[int, float]
    schedule: Schedule
    epochs: int
    steps: int
    plan: Optional[object] = None

    def __post_init__(self) -> None:
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

    def width(self, item: int) -> float:
        """Score-interval width of one pending item."""
        return self.xi_hi[item] - self.xi_lo[item]

    def max_width(self) -> float:
        """Largest score-interval width over pending items (0 if none)."""
        if not self.items:
            return 0.0
        return max(self.width(i) for i in self.items)


def _rewards_map(env: Environment, items: Sequence[int]) -> Dict[int, float]:
    return {i: float(env.rewards[i - 1]) for i in items}


def _finish(
    env: Environment,
    items: Sequence[int],
    state: ExploreState,
    schedule: Schedule,
    tuning: Tuning,
    capacity: int,
    zeta_bounds: Optional[Tuple[float, float]],
    scored: Sequence[int],
    epochs: int,
    steps: int,
    plan: Optional[object] = None,
    extra_nu_items: Sequence[int] = (),
) -> EstimateSet:
    """Assemble the interval set from a populated exploration state."""
    if zeta_bounds is None:
        zeta_lo, zeta_hi = ci_zeta(state, schedule.delta, tuning)
    else:
        zeta_lo, zeta_hi = zeta_bounds
    nu_lo: Dict[int, float] = {}
    nu_hi: Dict[int, float] = {}
    for i in list(items) + list(extra_nu_items):
        nu_lo[i], nu_hi[i] = ci_nu(state, i, schedule.delta, tuning)
    rewards = _rewards_map(env, list(items) + list(extra_nu_items))
    theta_lo, theta_hi = ci_theta(
        rewards,
        sorted(nu_lo),
        nu_lo,
        nu_hi,
        zeta_lo,
        zeta_hi,
        capacity,
    )
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
        xi_lo=xi_lo,
        xi_hi=xi_hi,
        schedule=schedule,
        epochs=epochs,
        steps=steps,
        plan=plan,
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
    schedule = Schedule(c0=tuning.c0, c2=tuning.c2, delta=delta, tau=tau)
    state = ExploreState(z_stop=())
    start = env.ledger.steps
    epochs = 0
    for i in items:
        batch = explore_epochs(env, state, (i,), env.k * tau)
        epochs += batch.epochs
    capacity = min(env.k, len(items))
    return _finish(
        env,
        items,
        state,
        schedule,
        tuning,
        capacity,
        zeta_bounds=(0.0, 0.0),
        scored=tb,
        epochs=epochs,
        steps=env.ledger.steps - start,
    )


def est_rough(
    env: Environment, delta0: float, tuning: Tuning = PAPER_TUNING
) -> Dict[int, float]:
    """Coarse upper estimates of every raw weight.

    Each item is offered alone for ``tau = ceil(4 k c0 log(2/delta))``
    epochs with ``delta = delta0 / (17 n)``; the returned value is the upper
    confidence end, so with probability ``1 - delta0`` it lies in
    ``[v_i, max(2 v_i, 1/k)]`` — exactly the quality the adaptive
    estimator's layer assignment needs.
    """
    delta = delta0 / (17.0 * env.n)
    tau = _rough_tau(delta, env.k, tuning)
    rough: Dict[int, float] = {}
    for i in range(1, env.n + 1):
        state = ExploreState(z_stop=())
        explore_epochs(env, state, (i,), tau)
        rough[i] = ci_nu(state, i, delta, tuning)[1]
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
    schedule = Schedule(c0=tuning.c0, c2=tuning.c2, delta=delta, tau=tau)

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

    plan = LayerPlan(
        depth=depth,
        layers=tuple(tuple(sorted(ms)) for ms in layer_items),
        widths=widths,
        groups=tuple(groups),
    )

    state = ExploreState(z_stop=ta)
    start = env.ledger.steps
    epochs = 0
    for lv, group in groups:
        assert len(ta) + len(group) <= env.k
        batch = explore_epochs(env, state, group, widths[lv] * tau)
        epochs += batch.epochs
    return _finish(
        env,
        tb,
        state,
        schedule,
        tuning,
        m_cap,
        zeta_bounds=None,
        scored=tb,
        epochs=epochs,
        steps=env.ledger.steps - start,
        plan=plan,
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
    schedule = Schedule(c0=tuning.c0, c2=tuning.c2, delta=delta, tau=tau)
    state = ExploreState(z_stop=ta)
    if not tb:
        return _finish(
            env, (), state, schedule, tuning, 0, None, (), 0, 0
        )
    m_cap = min(env.k - len(ta), len(tb))
    if m_cap < 1:
        raise ValueError("pinned set already fills the capacity")
    start = env.ledger.steps
    epochs = 0
    for i in tb:
        batch = explore_epochs(env, state, (i,), env.k * tau)
        epochs += batch.epochs
    return _finish(
        env,
        tb,
        state,
        schedule,
        tuning,
        m_cap,
        zeta_bounds=None,
        scored=tb,
        epochs=epochs,
        steps=env.ledger.steps - start,
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
    schedule = Schedule(c0=tuning.c0, c2=tuning.c2, delta=delta, tau=tau)

    pending = list(tb)
    groups: List[Tuple[int, ...]] = []
    for pos in range(0, len(pending), m_cap):
        chunk = pending[pos : pos + m_cap]
        if len(chunk) < m_cap:
            pad = [i for i in pending if i not in chunk][: m_cap - len(chunk)]
            chunk = sorted(chunk + pad)
        groups.append(tuple(chunk))
    plan = GroupPlan(size=m_cap, groups=tuple(groups))

    state = ExploreState(z_stop=())
    start = env.ledger.steps
    epochs = 0
    for group in groups:
        offered = tuple(sorted(ta + group))
        assert len(offered) == min(env.k, len(ta) + len(tb))
        batch = explore_epochs(env, state, offered, env.k * tau)
        epochs += batch.epochs
    capacity = min(env.k, len(ta) + len(tb))
    return _finish(
        env,
        tb,
        state,
        schedule,
        tuning,
        capacity,
        zeta_bounds=(0.0, 0.0),
        scored=tb,
        epochs=epochs,
        steps=env.ledger.steps - start,
        plan=plan,
        extra_nu_items=ta,
    )
