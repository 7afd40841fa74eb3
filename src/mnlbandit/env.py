"""Simulation environment: seeded MNL buyer, step accounting, regret ledger.

The environment owns the hidden instance and a private RNG stream.  Every
``offer`` consumes exactly one time step; ``sample_epochs`` runs whole
exploration epochs in one batch with exact step accounting; and
``advance`` replays a fixed assortment for many steps at once (exploitation,
where outcomes do not feed any estimator).

Epoch law used by the batch sampler.  One epoch offers ``Z ∪ S`` repeatedly
until the outcome lands in ``Z ∪ {0}``.  Write ``V_Z = sum_{j in Z} v_j``,
``V_S = sum_{i in S} v_i`` and ``nu_i = v_i / (1 + V_Z)``.  Each step stops the
epoch with probability ``q = (1 + V_Z) / (1 + V_Z + V_S)``, so the epoch's
total purchase count ``sum_i x_i`` is geometric on {0, 1, ...} with mean
``sum_i nu_i``, and each purchase is item ``i`` with probability
``v_i / V_S``.  Each item's marginal count ``x_i`` is therefore geometric with
mean ``nu_i``, but the counts are jointly negative-multinomial, not
independent: ``Cov(x_i, x_j) = nu_i nu_j``.  The stop outcome is independent
of all counts and is distributed over ``Z ∪ {0}`` proportionally to ``v_c``
(weight 1 for the no-purchase option), and the epoch length is
``1 + sum_i x_i``.

Over ``T`` epochs the batch sampler draws only sufficient statistics: the
purchase total ``M ~ NegBin(T, q)``, the item counts
``Multinomial(M, v_S / V_S)`` and the stop counts
``Multinomial(T, (1, v_Z) / (1 + V_Z))``; the batch takes ``T + M`` steps, so
its cost does not depend on ``T``.  A batch that overruns the step budget is
refined exactly, never redrawn.  The step-level ``offer`` path and the batch
path are distributionally identical (and tested against each other).

Determinism: a replication's entire outcome sequence is a pure function of
``(master_seed, replication_index)`` via `fork_stream`.  The RNG algorithm
identifier is pinned in `RNG_ALGORITHM_ID` and echoed by the CLI metadata.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .model import Assortment, Instance, revenue, validate_assortment
from .oracle import OptimumSolution, exact_optimum

__all__ = [
    "RNG_ALGORITHM_ID",
    "fork_stream",
    "HorizonExhausted",
    "EpochBatch",
    "RegretLedger",
    "Environment",
]

#: Pinned RNG recipe: numpy PCG64 seeded from
#: ``SeedSequence(master_seed, spawn_key=(replication_index,))``, consumed by
#: the sufficient-statistic epoch sampler.
RNG_ALGORITHM_ID = "numpy-pcg64-seedseq-spawnkey-v2"

#: numpy's hypergeometric sampler requires both of its counts below this.
_HYPERGEOM_LIMIT = 10**9

#: Instance -> (its optimum, its plan table): what every environment on one
#: instance shares, so a process builds each once however many replications
#: it runs.  Entries go when their instance does.
_PER_INSTANCE: "weakref.WeakKeyDictionary[Instance, tuple]" = weakref.WeakKeyDictionary()


class HorizonExhausted(RuntimeError):
    """Raised when an operation would exceed the environment's step budget."""


def fork_stream(master_seed: int, replication_index: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one replication.

    Uses ``SeedSequence(master_seed, spawn_key=(replication_index,))`` to
    derive statistically independent streams: same arguments give the same
    stream, different replication indices give streams with no shared state.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(replication_index,))
    return np.random.Generator(np.random.PCG64(ss))


def stream_digest(master_seed: int, replication_index: int) -> int:
    """Deterministic 64-bit digest identifying a replication's stream."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(replication_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class EpochBatch:
    """Result of a vectorized batch of exploration epochs.

    ``epochs`` is the number of *completed* epochs (== requested unless the
    step budget ran out), ``steps`` the exact number of time steps consumed
    (including a final partial epoch when truncated — its statistics are
    discarded but its steps still count), ``x_sums[j]`` the total purchase
    count of the j-th item of ``s`` over completed epochs, and ``z_sum`` the
    summed stop rewards over completed epochs.
    """

    requested: int
    epochs: int
    steps: int
    x_sums: np.ndarray
    z_sum: float
    truncated: bool
    # Optional per-epoch detail (collect=True): one row/entry per completed epoch.
    x: Optional[np.ndarray] = None
    z_values: Optional[np.ndarray] = None
    lengths: Optional[np.ndarray] = None


@dataclass
class RegretLedger:
    """Exact pseudo-regret and offer accounting.

    ``cum_regret`` accumulates ``theta_star - R(S_t, v)`` per step (pseudo
    regret — deterministic given the offered sets), is nondecreasing and
    never exceeds ``theta_star * steps``.  ``per_item_offer_counts[i-1]``
    counts the steps at which item ``i`` was part of the offered set, so the
    total never exceeds ``capacity * steps``.
    """

    n: int
    steps: int = 0
    cum_regret: float = 0.0
    per_item_offer_counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    _segments: List[List[float]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.per_item_offer_counts is None:
            self.per_item_offer_counts = np.zeros(self.n, dtype=np.int64)

    def record(self, item_indices: np.ndarray, per_step_regret: float, steps: int) -> None:
        if steps <= 0:
            return
        self.steps += steps
        self.cum_regret += per_step_regret * steps
        if item_indices.size:
            self.per_item_offer_counts[item_indices] += steps
        if self._segments and self._segments[-1][0] == per_step_regret:
            self._segments[-1][1] += steps
        else:
            self._segments.append([per_step_regret, steps])

    def curve(self) -> np.ndarray:
        """Cumulative pseudo-regret after each step: shape ``(steps,)``."""
        if not self._segments:
            return np.zeros(0, dtype=float)
        per_step = np.concatenate(
            [np.full(int(c), g, dtype=float) for g, c in self._segments]
        )
        return np.cumsum(per_step)


class Environment:
    """Seeded MNL market simulator with exclusive ownership semantics.

    The instance's weights are hidden from algorithms: only ``n``, ``k`` and
    the reward vector are exposed.  The optimal solution is computed once per
    instance for regret accounting and success evaluation; accessors
    ``oracle_solution`` / ``true_revenue`` are evaluation scaffolding and
    must not be consulted by estimation or driver logic.

    An environment must be driven by a single owner at a time: interleaving
    two algorithms on one environment corrupts both runs' step accounting.
    """

    def __init__(
        self,
        inst: Instance,
        rng: np.random.Generator,
        horizon: Optional[int] = None,
    ) -> None:
        self._inst = inst
        self._rng = rng
        if horizon is not None and horizon < 1:
            raise ValueError("horizon must be >= 1 when given")
        self._horizon = horizon
        self.n = inst.n
        self.k = inst.k
        self.rewards = inst.r.copy()
        self.rewards.setflags(write=False)
        self.ledger = RegretLedger(n=inst.n)
        shared = _PER_INSTANCE.get(inst)
        if shared is None:
            shared = _PER_INSTANCE[inst] = (exact_optimum(inst), {})
        # The optimum, and the per-(S, Z) table of `_Plan`s (bounded, cleared
        # wholesale when full), are shared by every environment on `inst`.
        self._solution, self._offer_cache = shared

    # -- evaluation scaffolding (not for algorithm use) ---------------------

    def oracle_solution(self) -> OptimumSolution:
        """The instance's optimal assortment and revenue (scaffolding)."""
        return self._solution

    def true_revenue(self, s: Iterable[int]) -> float:
        """True expected revenue of ``s`` (scaffolding)."""
        return revenue(self._inst, s)

    # -- step budget --------------------------------------------------------

    @property
    def horizon(self) -> Optional[int]:
        return self._horizon

    def set_horizon(self, horizon: int) -> None:
        """Install a step budget on a fresh environment (one-time)."""
        if self._horizon is not None:
            raise ValueError("horizon is already set")
        if self.ledger.steps > 0:
            raise ValueError("cannot set a horizon after steps were consumed")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self._horizon = horizon

    @property
    def steps_remaining(self) -> Optional[int]:
        if self._horizon is None:
            return None
        return self._horizon - self.ledger.steps

    def _cached(self, key: Tuple[Assortment, Assortment]) -> "_Plan":
        """The plan of a validated ``(S, Z)`` key, built on first use."""
        plan = self._offer_cache.get(key)
        if plan is None:
            if len(self._offer_cache) >= 4096:
                self._offer_cache.clear()
            plan = self._offer_cache[key] = _Plan.build(self._inst, self._solution, *key)
        return plan

    # -- single step --------------------------------------------------------

    def offer(self, s: Iterable[int]) -> int:
        """Offer assortment ``s`` for one time step; return the outcome.

        The outcome is the purchased item id, or 0 for no purchase.  Raises
        on capacity violations (``|s| > k``) — this is a hard error, never a
        silent truncation — and raises `HorizonExhausted` when the step
        budget is spent.
        """
        t = validate_assortment(s, self.n)
        if len(t) > self.k:
            raise ValueError(f"assortment size {len(t)} exceeds capacity {self.k}")
        if self._horizon is not None and self.ledger.steps >= self._horizon:
            raise HorizonExhausted("step budget exhausted")
        plan = self._cached((t, ()))
        u = self._rng.random() * plan.cum[-1]
        j = int(np.searchsorted(plan.cum, u, side="right"))
        self.ledger.record(plan.idx, plan.regret, 1)
        return 0 if j == 0 else plan.offered[j - 1]

    # -- exploitation -------------------------------------------------------

    def advance(self, s: Iterable[int], steps: int) -> None:
        """Offer ``s`` for ``steps`` consecutive steps, discarding outcomes.

        Pseudo-regret accounting is exact (it depends only on the offered
        set), and no RNG is consumed: use only where outcomes feed nothing.
        """
        t = validate_assortment(s, self.n, self.k)
        if steps < 0:
            raise ValueError("steps must be >= 0")
        remaining = self.steps_remaining
        if remaining is not None and steps > remaining:
            raise HorizonExhausted("step budget exhausted")
        plan = self._cached((t, ()))
        self.ledger.record(plan.idx, plan.regret, steps)

    # -- vectorized epochs ---------------------------------------------------

    def sample_epochs(
        self,
        z: Iterable[int],
        s: Iterable[int],
        epochs: int,
        collect: bool = False,
    ) -> EpochBatch:
        """Run up to ``epochs`` exploration epochs of ``(Z, S)`` in batch.

        ``z`` (the stopping set) and ``s`` (the tracked set) must be
        disjoint with ``|z ∪ s| <= k``.  Statistics of completed epochs are
        returned; when the step budget runs out, the in-flight epoch's steps
        are consumed but its statistics are discarded (``truncated=True``).
        With ``collect=True`` the per-epoch detail is drawn after, and
        conditioned on, the aggregates, which therefore do not depend on
        ``collect``.
        """
        try:
            plan = self._offer_cache[(s, z)]
        except (KeyError, TypeError):  # a key not seen yet, or not a tuple pair
            plan = self._epoch_plan(z, s)
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        rng = self._rng
        budget = self.steps_remaining  # None = unlimited
        chunk = epochs if budget is None else plan.chunk
        done = 0  # completed epochs
        bought = 0  # purchases within completed epochs
        used = 0
        truncated = False
        while done < epochs:
            t = min(epochs - done, chunk)
            m = int(rng.negative_binomial(t, plan.q))
            if budget is None or used + t + m <= budget:
                done += t
                bought += m
                used += t + m
                continue
            # The budget ends inside this chunk.  Its first t + m - 1 steps are
            # a uniform arrangement of t - 1 stops and m purchases, so the
            # stops within the budget are hypergeometric; given k of them, the
            # last stop sits at the maximum of k uniforms (Beta(k, 1)), and the
            # purchases after it belong to the cut-off epoch.
            room = budget - used
            k = int(rng.hypergeometric(t - 1, m, room))
            tail = (
                int(rng.binomial(room - k, 1.0 - rng.beta(k, 1.0)))
                if k
                else room
            )
            done += k
            bought += room - k - tail
            used = budget
            truncated = True
            break

        x_sums = plan.items.draw(rng, bought)
        stop_counts = plan.stops.draw(rng, done)
        self.ledger.record(plan.idx, plan.regret, used)
        batch = EpochBatch(
            requested=epochs,
            epochs=done,
            steps=used,
            x_sums=x_sums,
            z_sum=float(stop_counts @ plan.stop_rewards),
            truncated=truncated,
        )
        if collect:
            # Per-epoch detail conditioned on the aggregates: given the
            # totals, the per-epoch purchase totals are a uniform composition
            # of `bought` into `done` parts, and the item labels and the stop
            # outcomes are uniform shuffles of their counts.
            tracked = plan.items.size
            totals = _composition(rng, bought, done)
            labels = rng.permutation(np.repeat(np.arange(tracked), x_sums))
            owner = np.repeat(np.arange(done), totals)
            batch.x = np.bincount(
                owner * tracked + labels, minlength=done * tracked
            ).reshape(done, tracked)
            stops = rng.permutation(np.repeat(np.arange(plan.stops.size), stop_counts))
            batch.z_values = plan.stop_rewards[stops]
            batch.lengths = 1 + totals
        return batch

    def _epoch_plan(self, z: Iterable[int], s: Iterable[int]) -> "_Plan":
        """Validate a ``(Z, S)`` pair, then return its plan."""
        tz = validate_assortment(z, self.n)
        ts = validate_assortment(s, self.n)
        if set(tz) & set(ts):
            raise ValueError("stopping set and tracked set must be disjoint")
        if len(tz) + len(ts) > self.k:
            raise ValueError(
                f"offered size {len(tz) + len(ts)} exceeds capacity {self.k}"
            )
        return self._cached((ts, tz))


def _composition(rng: np.random.Generator, total: int, parts: int) -> np.ndarray:
    """Uniformly random composition of ``total`` into ``parts`` parts >= 0.

    Stars and bars: ``parts - 1`` bar positions chosen among
    ``total + parts - 1`` slots; part sizes are the gaps between bars.
    """
    if parts == 0:
        return np.zeros(0, dtype=np.int64)
    slots = total + parts - 1
    bars = np.sort(rng.choice(slots, size=parts - 1, replace=False))
    return np.diff(bars, prepend=-1, append=slots) - 1


@dataclass(frozen=True)
class _Split:
    """Multinomial split of a count over fixed category weights.

    Zero-weight categories get exactly zero: only positive weights enter the
    draw, so a zero weight never picks up rounding leftovers.  The mask and
    the normalised probabilities are computed once, when the plan is built.
    """

    size: int
    mask: Optional[np.ndarray]  # positive weights; None when all are
    probs: Optional[np.ndarray]  # None when no weight is positive

    @classmethod
    def of(cls, weights: np.ndarray) -> "_Split":
        positive = weights > 0
        probs = weights[positive] / weights[positive].sum() if positive.any() else None
        return cls(len(weights), None if positive.all() else positive, probs)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if not count or self.probs is None:
            return np.zeros(self.size, dtype=np.int64)
        drawn = rng.multinomial(count, self.probs)
        if self.mask is None:
            return drawn
        out = np.zeros(self.size, dtype=np.int64)
        out[self.mask] = drawn
        return out


@dataclass(frozen=True)
class _Plan:
    """What ``offer``, ``advance`` and ``sample_epochs`` need of one offered
    pair: tracked set ``S`` and stopping set ``Z`` (``Z`` empty for a plain
    offer), validated by the caller."""

    offered: Assortment  # S ∪ Z, ascending
    idx: np.ndarray  # its 0-based indices
    cum: np.ndarray  # cumulative outcome weights, no-purchase first
    regret: float  # per-step pseudo-regret of offering S ∪ Z
    q: float  # an epoch's per-step stop probability
    chunk: int  # epochs per negative-binomial draw under a step budget
    items: _Split  # purchases over S
    stops: _Split  # stops over no-purchase, then Z
    stop_rewards: np.ndarray

    @classmethod
    def build(
        cls, inst: Instance, solution: OptimumSolution, ts: Assortment, tz: Assortment
    ) -> "_Plan":
        offered = tuple(sorted(set(ts) | set(tz)))
        idx = np.asarray(offered, dtype=int) - 1
        v_z = inst.v[np.asarray(tz, dtype=int) - 1] if tz else np.zeros(0)
        v_s = inst.v[np.asarray(ts, dtype=int) - 1] if ts else np.zeros(0)
        stop_weights = np.concatenate(([1.0], v_z))  # no-purchase, then Z
        stop_rewards = np.concatenate(
            ([0.0], inst.r[np.asarray(tz, dtype=int) - 1] if tz else np.zeros(0))
        )
        q = stop_weights.sum() / (stop_weights.sum() + v_s.sum())
        return cls(
            offered=offered,
            idx=idx,
            cum=np.cumsum(np.concatenate(([1.0], inst.v[idx]))),
            regret=solution.theta_star - revenue(inst, offered),
            q=q,
            # Under a budget, an overflowing draw is refined by a
            # hypergeometric draw, so epochs go in chunks whose expected steps
            # (chunk / q) stay far below numpy's limit on its counts.
            chunk=max(1, int(q * _HYPERGEOM_LIMIT) // 10),
            items=_Split.of(v_s),
            stops=_Split.of(stop_weights),
            stop_rewards=stop_rewards,
        )
