"""Simulation environment: seeded MNL buyer, step accounting, regret ledger.

The environment owns the hidden instance and a private RNG stream.
``sample_epochs`` runs whole exploration epochs in one batch with exact step
accounting, and ``advance`` replays a fixed assortment for many steps at once
(exploitation, where outcomes do not feed any estimator).

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
its cost does not depend on ``T``.  A split over one category is the count
itself, and a batch whose stops all land on the no-purchase option (an empty
``Z``, or one of zero-weight items only) has stop reward 0: neither draws, as
numpy's multinomial draws nothing for one category, so the stream is the same
as if both were drawn.  Under a step budget, a batch whose ``T + M`` steps
overrun the budget ends the run: it is charged exactly the remaining steps and
draws nothing after ``M``, as no statistic of it is ever read.  One batch is at
most ``2**53`` epochs, as numpy reads the epoch count as a double, and within
numpy's limit on the draw of ``M`` (`_NEGBIN_LAM_MAX`).  A batch past either is
refused, unless its ``T`` epochs alone overrun the budget: it then ends the run
as above, drawing nothing.  The tests check the batch law against a step-level
reference that offers one step per draw (``tests/offer_reference.py``).

Determinism: a replication's entire outcome sequence is a pure function of
``(master_seed, replication_index)`` via `fork_stream`.  The RNG algorithm
identifier is pinned in `RNG_ALGORITHM_ID` and echoed by the CLI metadata.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional

import numpy as np

from .model import Assortment, Instance, _as_int, _idx, _revenue_at, revenue, validate_assortment
from .oracle import OptimumSolution, exact_optimum

__all__ = [
    "RNG_ALGORITHM_ID",
    "fork_stream",
    "HorizonExhausted",
    "SamplerLimitError",
    "EpochBatch",
    "RegretLedger",
    "Environment",
]

#: Pinned RNG recipe: numpy PCG64 seeded from
#: ``SeedSequence(master_seed, spawn_key=(replication_index,))``, consumed by
#: the sufficient-statistic epoch sampler.
RNG_ALGORITHM_ID = "numpy-pcg64-seedseq-spawnkey-v3"

#: The most epochs one batch may ask for: numpy reads the epoch count of its
#: negative-binomial draw as a double, exact up to this.
_DRAW_LIMIT = 2**53

#: numpy refuses a negative-binomial draw of ``T`` epochs at stop probability
#: ``q`` when ``(1 - q) / q * (T + 10 sqrt(T))`` exceeds this, the largest
#: mean of the Poisson draw inside it (see the Notes of
#: ``Generator.negative_binomial``); computed as numpy computes it.
_NEGBIN_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10

#: Instance -> (its optimum, its plan table, sized by `Environment._plan`):
#: what every environment on one instance shares, so a process builds each
#: once however many replications it runs.  Entries go when their instance does.
_PER_INSTANCE: "weakref.WeakKeyDictionary[Instance, tuple]" = weakref.WeakKeyDictionary()


class HorizonExhausted(RuntimeError):
    """Raised when an operation would exceed the environment's step budget."""


class SamplerLimitError(OverflowError):
    """Raised for a batch past what the sampler draws exactly: more than
    `_DRAW_LIMIT` epochs, or past numpy's negative-binomial limit."""


def fork_stream(master_seed: int, replication_index: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one replication.

    Uses ``SeedSequence(master_seed, spawn_key=(replication_index,))`` to
    derive statistically independent streams: same arguments give the same
    stream, different replication indices give streams with no shared state.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(replication_index,))
    return np.random.Generator(np.random.PCG64(ss))


def generator_digest(rng: np.random.Generator) -> int:
    """Deterministic 64-bit digest of a stream made by `fork_stream`, from its
    seed: it identifies the replication whose stream it is."""
    return int(rng.bit_generator.seed_seq.generate_state(1, dtype=np.uint64)[0])


class EpochBatch(NamedTuple):
    """Result of a vectorized batch of exploration epochs.

    ``steps`` is the exact number of time steps consumed, ``x_sums[j]`` the
    total purchase count of the j-th item of ``s`` (``tracked[j]``, the
    validated ``s``) and ``z_sum`` the summed stop rewards.  A batch the step
    budget cuts (``truncated=True``) consumed the rest of the budget and
    reports ``epochs = 0``, zero counts and ``z_sum = 0.0``; otherwise
    ``epochs == requested``.
    """

    requested: int
    epochs: int
    steps: int
    x_sums: np.ndarray
    z_sum: float
    truncated: bool
    tracked: Assortment = ()


@dataclass
class RegretLedger:
    """Exact step and pseudo-regret accounting.

    ``steps`` is a Python int, so it stays exact at any count.
    ``cum_regret`` accumulates ``theta_star - R(S_t, v)`` per step (pseudo
    regret — deterministic given the offered sets) and never exceeds
    ``theta_star * steps``.  It is nondecreasing: ``S*`` costs exactly 0 and
    any other ``S`` costs ``theta_star - R(S) >= 0``, unless ``R(S)`` ties
    ``theta_star`` within one ulp.  ``_segments`` holds the per-step regret
    as ``[regret, steps]`` runs, from which ``curve`` expands.
    """

    steps: int = 0
    cum_regret: float = 0.0
    _segments: List[List[float]] = field(default_factory=list, repr=False)

    def record(self, per_step_regret: float, steps: int) -> None:
        if steps <= 0:
            return
        self.steps += steps
        self.cum_regret += per_step_regret * steps
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
    The horizon and every count of steps or epochs must be an integer (see
    `model._as_int`), so ``ledger.steps`` stays an exact Python int.
    """

    def __init__(
        self,
        inst: Instance,
        rng: np.random.Generator,
        horizon: Optional[int] = None,
    ) -> None:
        self._inst = inst
        self._rng = rng
        if horizon is not None:
            horizon = _as_int(horizon, "horizon")
            if horizon < 1:
                raise ValueError("horizon must be >= 1 when given")
        self._horizon = horizon
        self.n = inst.n
        self.k = inst.k
        self.rewards = inst.r  # read-only, as `Instance` makes it
        self.ledger = RegretLedger()
        shared = _PER_INSTANCE.get(inst)
        if shared is None:
            shared = _PER_INSTANCE[inst] = (exact_optimum(inst), {})
        # Every environment on `inst` shares its optimum and its `_Plan` table.
        self._solution, self._plans = shared

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
        """The step budget fixed at construction; None = unlimited."""
        return self._horizon

    @property
    def steps_remaining(self) -> Optional[int]:
        if self._horizon is None:
            return None
        return self._horizon - self.ledger.steps

    # -- exploitation -------------------------------------------------------

    def advance(self, s: Iterable[int], steps: int) -> None:
        """Offer ``s`` for ``steps`` consecutive steps, discarding outcomes.

        Pseudo-regret accounting is exact (it depends only on the offered
        set), and no RNG is consumed: use only where outcomes feed nothing.
        """
        plan = self._plan(s, ())
        steps = _as_int(steps, "steps")
        if steps < 0:
            raise ValueError("steps must be >= 0")
        remaining = self.steps_remaining
        if remaining is not None and steps > remaining:
            raise HorizonExhausted("step budget exhausted")
        self.ledger.record(plan.regret, steps)

    # -- vectorized epochs ---------------------------------------------------

    def sample_epochs(
        self,
        z: Iterable[int],
        s: Iterable[int],
        epochs: int,
    ) -> EpochBatch:
        """Run ``epochs`` exploration epochs of ``(Z, S)`` in batch.

        ``z`` (the stopping set) and ``s`` (the tracked set) must be
        disjoint with ``|z ∪ s| <= k``.  A batch that does not fit in the
        remaining step budget consumes the rest of it and returns no
        statistics (``truncated=True``): the run is over.  A batch past
        ``2**53`` epochs or `_NEGBIN_LAM_MAX` raises `SamplerLimitError`,
        unless its epochs alone overrun the budget: then it is cut undrawn.
        """
        plan = self._plan(s, z)
        epochs = _as_int(epochs, "epochs")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        q = plan.q
        limit = None
        if epochs > _DRAW_LIMIT:
            limit = f"a batch of {epochs} epochs exceeds the sampler's limit of {_DRAW_LIMIT}"
        elif (1.0 - q) / q * (epochs + 10.0 * math.sqrt(epochs)) > _NEGBIN_LAM_MAX:
            limit = (f"a batch of T = {epochs} epochs at q = {q!r} exceeds numpy's negative-"
                     f"binomial limit (1 - q) / q * (T + 10 sqrt(T)) <= {_NEGBIN_LAM_MAX:.17g}")
        budget = self.steps_remaining  # None = unlimited
        if limit is not None and (budget is None or epochs <= budget):
            raise SamplerLimitError(limit)
        rng = self._rng
        # past a limit, the epochs alone overrun the budget: the batch is cut undrawn
        bought = 0 if limit else int(rng.negative_binomial(epochs, q))  # purchases
        steps = epochs + bought
        if budget is not None and steps > budget:
            self.ledger.record(plan.regret, budget)
            return EpochBatch(
                requested=epochs,
                epochs=0,
                steps=budget,
                x_sums=np.zeros(len(plan.tracked), dtype=np.int64),
                z_sum=0.0,
                truncated=True,
                tracked=plan.tracked,
            )
        x_sums = plan.items.draw(rng, bought)
        z_sum = 0.0
        if plan.stops is not None:
            z_sum = float(plan.stops.draw(rng, epochs) @ plan.stop_rewards)
        self.ledger.record(plan.regret, steps)
        return EpochBatch(
            requested=epochs,
            epochs=epochs,
            steps=steps,
            x_sums=x_sums,
            z_sum=z_sum,
            truncated=False,
            tracked=plan.tracked,
        )

    def _plan(self, s: Iterable[int], z: Iterable[int]) -> "_Plan":
        """The plan of tracked set ``s`` under stopping set ``z``: looked up as
        given when every id is exactly an ``int``, else validated (ids in
        ``1..n``, ascending, disjoint sets, ``|s ∪ z| <= k``), then built and
        stored.  A key that only compares equal to a stored one (``4.0 ==
        4``) is validated, so whether a call is refused does not depend on
        what the table holds.  The table empties at
        ``4 n + 1024`` plans, past what replications offer: at ``n = 4000``
        about ``1.3 n`` pairs each, 8,943 in all after 160 at ``desk``; at
        ``n = 20``, 139 after 100 pac-eps ones.  At ``0.5 + 0.06 k`` kB a plan,
        it holds at most 110 MB at ``n = 4000``, ``k = 100``."""
        try:
            plan = self._plans[(s, z)]
        except (KeyError, TypeError):  # a pair not seen yet, or no key
            pass
        else:
            if all(type(i) is int for i in s + z):
                return plan
        tz, ts = validate_assortment(z, self.n), validate_assortment(s, self.n)
        if set(tz) & set(ts):
            raise ValueError("stopping set and tracked set must be disjoint")
        if len(tz) + len(ts) > self.k:
            raise ValueError(f"offered size {len(tz) + len(ts)} exceeds capacity {self.k}")
        plan = self._plans.get((ts, tz))
        if plan is None:
            if len(self._plans) >= 4 * self.n + 1024:
                self._plans.clear()
            plan = self._plans[(ts, tz)] = _Plan.build(self._inst, self._solution, ts, tz)
        return plan


class _Split(NamedTuple):
    """Multinomial split of a count over fixed category weights.

    Zero-weight categories get exactly zero: only positive weights enter the
    draw, so a zero weight never picks up rounding leftovers.  A split with one
    positive weight is the count itself, at that weight's position: it draws
    nothing, as numpy's multinomial draws nothing for one category, so the
    stream is unchanged.  The mask, the normalised probabilities and the one
    positive position are computed once, when the plan is built.
    """

    size: int
    mask: Optional[np.ndarray]  # positive weights; None when all are
    probs: Optional[np.ndarray]  # None when fewer than two weights are positive
    only: Optional[int]  # the position of the one positive weight, if one is

    @classmethod
    def of(cls, weights: np.ndarray) -> "_Split":
        positive = weights > 0
        where = positive.nonzero()[0].tolist()
        if len(where) < 2:
            return cls(len(weights), None, None, where[0] if where else None)
        probs = weights[positive] / weights[positive].sum()
        return cls(len(weights), None if positive.all() else positive, probs, None)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.int64)
        if self.probs is None:  # at most one category: nothing to draw
            if self.only is not None:
                out[self.only] = count
            return out
        if not count:
            return out
        drawn = rng.multinomial(count, self.probs)
        if self.mask is None:
            return drawn
        out[self.mask] = drawn
        return out


class _Plan(NamedTuple):
    """What ``advance`` and ``sample_epochs`` need of one offered pair:
    tracked set ``S`` and stopping set ``Z`` (``S`` alone for ``advance``),
    validated by `Environment._plan`.  The step-level reference sampler in
    ``tests/offer_reference.py`` rebuilds its outcome weights itself."""

    tracked: Assortment  # S, ascending
    regret: float  # per-step pseudo-regret of offering S ∪ Z
    q: float  # an epoch's per-step stop probability
    items: _Split  # purchases over S
    # Stops over no-purchase, then Z; None when every stop is a no-purchase
    # (Z is empty or weighs nothing), so a batch's stop reward is 0.
    stops: Optional[_Split]
    stop_rewards: np.ndarray

    @classmethod
    def build(
        cls, inst: Instance, solution: OptimumSolution, ts: Assortment, tz: Assortment
    ) -> "_Plan":
        ix_z, ix_s = _idx(tz), _idx(ts)
        stop_weights = np.concatenate(([1.0], inst.v[ix_z]))  # no-purchase, then Z
        v_s = inst.v[ix_s]
        q = float(stop_weights.sum() / (stop_weights.sum() + v_s.sum()))
        stops = _Split.of(stop_weights)
        return cls(
            tracked=ts,
            regret=solution.theta_star - _revenue_at(inst, np.sort(np.concatenate((ix_z, ix_s)))),
            q=q,
            items=_Split.of(v_s),
            stops=None if stops.only == 0 else stops,
            stop_rewards=np.concatenate(([0.0], inst.r[ix_z])),
        )
