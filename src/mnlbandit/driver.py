"""Successive accept-reject drivers: exact PAC, approximate PAC, regret.

All three drivers run one loop, `sar_mnl`.  It maintains a pinned set ``A``
(accepted into the answer) and a pending set ``B``; phase ``k`` estimates
score intervals for ``B`` at accuracy target ``eps_k = 2^-k`` and confidence
``delta_k = delta / (3 k^2)`` (so the budgets sum to at most ``delta`` over
all phases), then

* accepts pending items whose score interval is strictly positive,
* rejects those whose interval is strictly negative, and
* when more than ``M = min(k_cap - |A|, |B|)`` items are pending, tightens
  both rules with the rank thresholds ``alpha`` (M-th largest lower end:
  anything whose upper end falls below it can never make the top M) and
  ``beta`` ((M+1)-th largest upper end: only items whose lower end beats it
  can claim a top-M slot).

The loop has three exits:

* nothing is pending, which a phase that fills the capacity ensures;
* the ε stop: the first phase whose predecessor's accuracy is at most
  ``eps / 3`` accepts the set its estimate's upper revenue solve selected
  (`pac_eps`'s optimistic completion);
* the step budget runs out inside an estimate (`HorizonExhausted`), which
  returns the pinned set so far (`regret_min`).

A batch past the sampler's limit (`SamplerLimitError`) ends the run with the
phase, or the rough pass, that asked for it named in the message.  A run
that takes `PHASE_CAP` phases without an exit aborts with the pinned set so
far.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

from .env import Environment, HorizonExhausted, SamplerLimitError
from .estimators import (
    EstimateSet,
    PAPER_TUNING,
    ROUGH_DIVISOR,
    Tuning,
    _log_term,
    est_adaptive,
    est_naive,
    est_reduced,
    est_reg,
    est_rough,
)
from .model import Assortment

__all__ = [
    "PhaseState",
    "RunResult",
    "accept_reject",
    "sar_mnl",
    "pac_exact",
    "pac_eps",
    "regret_min",
    "PHASE_CAP",
]

#: Hard cap on accept-reject phases; exceeding it aborts with a diagnostic
#: result (near-tied instances can stall progress indefinitely).
PHASE_CAP = 60

#: An estimator suitable for the accept-reject loop:
#: (env, pinned, pending, delta_k, eps) -> EstimateSet, which scores the whole
#: pending set (``est.items == pending``) and carries its residual capacity.
PhaseEstimator = Callable[[Environment, Assortment, Assortment, float, float], EstimateSet]

class PhaseState(NamedTuple):
    """One accept-reject phase: its inputs, its decisions and its estimate."""

    k: int
    a_set: Assortment
    b_set: Assortment
    eps_k: float
    delta_k: float
    alpha: Optional[float]
    beta: Optional[float]
    b_acc: Assortment
    b_rej: Assortment
    steps: int
    est: EstimateSet


class RunResult(NamedTuple):
    """Decisions of one driver run.

    ``status`` names how the run ended: ``"ok"`` (the capacity filled, nothing
    pending or the ε stop), ``"horizon"`` (cut off by the step budget) or
    ``"phase-cap"`` (a `PHASE_CAP` abort, diagnostic, not an exception); the
    CLI's ``run`` writes it to its ``status`` column.  A run's steps and
    regret are its environment's ledger; grading the assortment against the
    optimum is the caller's job (the CLI's ``run``).
    """

    assortment: Assortment
    phases: Tuple[PhaseState, ...]
    status: str = "ok"


def accept_reject(
    est: EstimateSet,
) -> Tuple[Assortment, Assortment, Optional[float], Optional[float]]:
    """Apply one phase's accept/reject rules to the items its estimate scored,
    the pending set ``b = est.items``, at its residual capacity ``m = est.m``.

    Returns ``(accepted, rejected, alpha, beta)``; the rank thresholds are
    ``None`` when ``|b| <= m`` (no over-subscription, plain sign rules).
    The two sets are disjoint, at most ``m`` items are accepted (both
    asserted) and accepting ``m`` decides all of ``b``: if ``|b| > m``, an
    accepted item's upper end exceeds ``beta``, the (m+1)-th largest, so
    ``m`` accepted items are all those whose upper end exceeds ``beta``;
    their lower ends are the ``m`` largest, so ``alpha > beta``, and the
    rank rule rejects every other item (upper end at most ``beta``).
    """
    b, m, xi_lo, xi_hi = est.items, est.m, est.xi_lo, est.xi_hi
    acc = {i for i in b if xi_lo[i] > 0.0}
    rej = {i for i in b if xi_hi[i] < 0.0}
    alpha: Optional[float] = None
    beta: Optional[float] = None
    if len(b) > m:
        lo_sorted = sorted((xi_lo[i] for i in b), reverse=True)
        hi_sorted = sorted((xi_hi[i] for i in b), reverse=True)
        alpha = lo_sorted[m - 1]
        beta = hi_sorted[m]
        acc = {i for i in acc if xi_lo[i] > beta}
        rej |= {i for i in b if xi_hi[i] < alpha}
    assert not (acc & rej), "an item was both accepted and rejected"
    assert len(acc) <= m, "accepted more items than the residual capacity"
    return tuple(sorted(acc)), tuple(sorted(rej)), alpha, beta


def _check_delta(delta: float, n: int, share: float = 1.0) -> None:
    """Refuse a ``delta`` whose smallest split `_log_term` refuses: `sar_mnl` gets
    ``share * delta``, phase ``k`` divides it by ``3 k^2`` and an estimator by at most
    ``ROUGH_DIVISOR n``."""
    _log_term(delta, 3 * PHASE_CAP**2 * ROUGH_DIVISOR / share, n)


def sar_mnl(
    env: Environment,
    delta: float,
    estimator: PhaseEstimator,
    eps: Optional[float] = None,
) -> RunResult:
    """Successive accept-reject until the capacity is filled.

    Phase ``k`` uses ``delta_k = delta / (3 k^2)`` and accuracy target
    ``eps_k / 2`` with ``eps_k = 2^-k``.  Returns the pinned set once nothing
    is pending, which a filled capacity implies (`accept_reject`); an empty
    answer is legal (every item can be harmful).  Given ``eps``, the first
    phase with ``2^-(k-1) <= eps / 3`` accepts its estimate's ``s_hi`` and
    the run ends: the best pending assortment under the upper estimates for
    a reduced estimator; for a raw one (``naive``, ``reg``), the pending part
    of the best assortment of ``a ∪ b`` under the upper raw weights.  A step
    budget spent mid-phase ends the run with status ``"horizon"`` and the
    pinned set so far; the cut-off phase is not recorded.  Exceeding
    `PHASE_CAP` aborts with status ``"phase-cap"`` and the pinned set so far.
    """
    _check_delta(delta, env.n)
    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = tuple(range(1, env.n + 1))
    phases: List[PhaseState] = []
    status = "ok"
    for k in range(1, PHASE_CAP + 1):
        eps_k = 2.0 ** (-k)
        delta_k = delta / (3.0 * k * k)
        phase_start = env.ledger.steps
        try:
            est = estimator(env, a, b, delta_k, eps_k / 2.0)
        except HorizonExhausted:
            status = "horizon"
            break
        except SamplerLimitError as exc:
            raise SamplerLimitError(f"{exc} in phase {k}") from None
        done = eps is not None and 2.0 ** (-(k - 1)) <= eps / 3.0
        if done:  # the optimistic completion: the set of the phase's upper revenue solve
            b_acc, b_rej, alpha, beta = est.s_hi, (), None, None
        else:
            b_acc, b_rej, alpha, beta = accept_reject(est)
        phases.append(
            PhaseState(
                k=k,
                a_set=a,
                b_set=b,
                eps_k=eps_k,
                delta_k=delta_k,
                alpha=alpha,
                beta=beta,
                b_acc=b_acc,
                b_rej=b_rej,
                steps=env.ledger.steps - phase_start,
                est=est,
            )
        )
        a = tuple(sorted(a + b_acc))
        dropped = set(b_acc) | set(b_rej)
        b = tuple(i for i in b if i not in dropped)
        assert len(a) <= env.k
        if done or not b:
            break
    else:
        status = "phase-cap"
    return RunResult(assortment=a, phases=tuple(phases), status=status)


def _pac(
    env: Environment, delta: float, tuning: Tuning, estimator: str, eps: Optional[float]
) -> RunResult:
    """Every PAC run: `sar_mnl` at ``delta / 2`` with the named phase estimator;
    only ``adaptive`` runs the rough pass its layers read, at the other half."""
    # read at each call, so that a rebound module attribute is the one that runs
    phases = {"naive": est_naive, "reduced": est_reduced, "adaptive": est_adaptive, "reg": est_reg}
    if estimator not in phases:
        raise ValueError(f"unknown estimator {estimator!r}: choose one of {', '.join(phases)}")
    _check_delta(delta, env.n, share=0.5)
    phase = partial(phases[estimator], tuning=tuning)
    if estimator == "adaptive":
        try:
            phase = partial(phase, rough=est_rough(env, delta / 2.0, tuning))
        except SamplerLimitError as exc:
            raise SamplerLimitError(f"{exc} in the rough pass") from None
    return sar_mnl(env, delta / 2.0, phase, eps)


def pac_exact(
    env: Environment, delta: float, tuning: Tuning = PAPER_TUNING, estimator: str = "adaptive"
) -> RunResult:
    """Identify the exactly optimal assortment with confidence ``1 - delta``.

    Spends ``delta / 2`` on the accept-reject loop with the phase estimator
    ``naive``, ``reduced``, ``adaptive`` or ``reg``; only ``adaptive`` spends
    the other half, on one rough pass feeding its layer assignment.
    """
    return _pac(env, delta, tuning, estimator, None)


def pac_eps(
    env: Environment, delta: float, eps: float, tuning: Tuning = PAPER_TUNING
) -> RunResult:
    """Identify an ``eps``-optimal assortment with confidence ``1 - delta``.

    Runs the exact-PAC loop with the adaptive estimator but stops early: at
    the first phase ``k`` whose predecessor's accuracy ``eps_{k-1} =
    2^-(k-1)`` is at most ``eps / 3``, the answer is the pinned set plus the
    best pending assortment under the phase's *upper* parameter estimates
    (optimistic completion).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    return _pac(env, delta, tuning, "adaptive", eps)


def regret_min(env: Environment, tuning: Tuning = PAPER_TUNING) -> RunResult:
    """Minimize cumulative pseudo-regret over the environment's step budget,
    ``horizon = env.horizon``, fixed at its construction.

    Runs the accept-reject loop with the full-assortment (regret) estimator
    at confidence ``delta = 1 / horizon``; if identification finishes early
    (or aborts), the pinned assortment is offered for every remaining step.
    If an estimator's batch does not fit in the remaining budget, the batch
    is charged the rest of it, its phase is discarded, and the pinned set so
    far is returned.  The run always consumes the budget exactly.  ``env``
    must be fresh: a budget and no step spent.
    """
    horizon = env.horizon
    if horizon is None or env.ledger.steps:
        raise ValueError("regret runs require a fresh environment with a step budget")
    if horizon < max(env.n, 2):  # delta = 1 / horizon must lie below 1
        raise ValueError("horizon must be at least 2 and at least the number of items")
    res = sar_mnl(env, 1.0 / horizon, partial(est_reg, tuning=tuning))
    exploit = env.steps_remaining
    if exploit:
        env.advance(res.assortment, exploit)
    assert env.ledger.steps == horizon, "regret run must consume the budget exactly"
    return res
