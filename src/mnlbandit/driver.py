"""Successive accept-reject drivers: exact PAC, approximate PAC, regret.

The core loop maintains a pinned set ``A`` (accepted into the answer) and a
pending set ``B``; phase ``k`` estimates score intervals for ``B`` at
accuracy target ``eps_k = 2^-k`` and confidence ``delta_k = delta / (3 k^2)``
(so the budgets sum to at most ``delta`` over all phases), then

* accepts pending items whose score interval is strictly positive,
* rejects those whose interval is strictly negative, and
* when more than ``M = min(k_cap - |A|, |B|)`` items are pending, tightens
  both rules with the rank thresholds ``alpha`` (M-th largest lower end:
  anything whose upper end falls below it can never make the top M) and
  ``beta`` ((M+1)-th largest upper end: only items whose lower end beats it
  can claim a top-M slot).

The loop ends when the capacity is filled or nothing is pending.  Under
valid intervals at most ``M`` items are ever accepted per phase (an accepted
item's upper end exceeds ``beta``, placing it in the strict top ``M`` of the
upper ends), so the pinned set never exceeds the capacity — asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .env import Environment, HorizonExhausted
from .estimators import (
    EstimateSet,
    PAPER_TUNING,
    Tuning,
    est_adaptive,
    est_reg,
    est_rough,
)
from .model import Assortment, ReducedParams
from .oracle import fractional_optimum

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
#: (env, pinned, pending, delta_k, eps) -> EstimateSet.
PhaseEstimator = Callable[[Environment, Assortment, Assortment, float, float], EstimateSet]


@dataclass(frozen=True)
class PhaseState:
    """Snapshot of one accept-reject phase (inputs and decisions)."""

    k: int
    a_set: Assortment
    b_set: Assortment
    eps_k: float
    delta_k: float
    m: int
    alpha: Optional[float]
    beta: Optional[float]
    b_acc: Assortment
    b_rej: Assortment
    steps: int
    max_width: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of one driver run.

    ``steps`` counts every time step the run consumed (phase trace steps sum
    to it, minus any exploitation tail in the regret driver, which is
    reported in ``exploit_steps``).  ``success`` is evaluated against the
    environment's oracle solution: exact-set match for the exact-PAC and
    regret drivers, revenue shortfall within the requested slack for the
    approximate-PAC driver.  ``aborted`` marks a phase-cap abort (diagnostic,
    not an exception); ``horizon_hit`` marks a run cut off by the step
    budget.
    """

    assortment: Assortment
    steps: int
    phases: Tuple[PhaseState, ...]
    success: bool
    aborted: bool = False
    horizon_hit: bool = False
    exploit_steps: int = 0
    final_regret: Optional[float] = None


def accept_reject(
    est: EstimateSet, b: Assortment, m: int
) -> Tuple[Assortment, Assortment, Optional[float], Optional[float]]:
    """Apply one phase's accept/reject rules to the pending set.

    Returns ``(accepted, rejected, alpha, beta)``; the rank thresholds are
    ``None`` when ``|b| <= m`` (no over-subscription, plain sign rules).
    Accepted and rejected sets are disjoint and accepted never exceeds ``m``
    (both asserted — see module docstring for why they cannot fire).
    """
    if m < 1:
        raise ValueError("residual capacity must be >= 1")
    xi_lo, xi_hi = est.xi_lo, est.xi_hi
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


def sar_mnl(
    env: Environment,
    delta: float,
    estimator: PhaseEstimator,
    phase_cap: int = PHASE_CAP,
) -> RunResult:
    """Successive accept-reject until the capacity is filled.

    Phase ``k`` uses ``delta_k = delta / (3 k^2)`` and accuracy target
    ``eps_k / 2`` with ``eps_k = 2^-k``.  Returns the pinned set when the
    residual capacity hits zero or nothing is pending; an empty answer is
    legal (every item can be harmful).  Exceeding ``phase_cap`` aborts with
    ``aborted=True`` and the best pinned set so far.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = tuple(range(1, env.n + 1))
    phases: List[PhaseState] = []
    start = env.ledger.steps
    aborted = True
    for k in range(1, phase_cap + 1):
        m = min(env.k - len(a), len(b))
        if m == 0:
            aborted = False
            break
        eps_k = 2.0 ** (-k)
        delta_k = delta / (3.0 * k * k)
        phase_start = env.ledger.steps
        est = estimator(env, a, b, delta_k, eps_k / 2.0)
        b_acc, b_rej, alpha, beta = accept_reject(est, b, m)
        phases.append(
            PhaseState(
                k=k,
                a_set=a,
                b_set=b,
                eps_k=eps_k,
                delta_k=delta_k,
                m=m,
                alpha=alpha,
                beta=beta,
                b_acc=b_acc,
                b_rej=b_rej,
                steps=env.ledger.steps - phase_start,
                max_width=est.max_width(),
            )
        )
        a = tuple(sorted(a + b_acc))
        dropped = set(b_acc) | set(b_rej)
        b = tuple(i for i in b if i not in dropped)
        assert len(a) <= env.k
        if not b:
            aborted = False
            break
    success = a == env.oracle_solution().s_star
    return RunResult(
        assortment=a,
        steps=env.ledger.steps - start,
        phases=tuple(phases),
        success=success,
        aborted=aborted,
    )


def pac_exact(
    env: Environment, delta: float, tuning: Tuning = PAPER_TUNING
) -> RunResult:
    """Identify the exactly optimal assortment with confidence ``1 - delta``.

    Spends ``delta / 2`` on one rough pass (upper weight estimates feeding
    the adaptive estimator's layer assignment) and ``delta / 2`` on the
    accept-reject loop with the adaptive estimator.
    """
    start = env.ledger.steps
    rough = est_rough(env, delta / 2.0, tuning)

    def estimator(e: Environment, a, b, dk, eps):
        return est_adaptive(e, a, b, dk, eps, rough, tuning)

    res = sar_mnl(env, delta / 2.0, estimator)
    return RunResult(
        assortment=res.assortment,
        steps=env.ledger.steps - start,
        phases=res.phases,
        success=res.success,
        aborted=res.aborted,
    )


def pac_eps(
    env: Environment, delta: float, eps: float, tuning: Tuning = PAPER_TUNING
) -> RunResult:
    """Identify an ``eps``-optimal assortment with confidence ``1 - delta``.

    Runs the exact-PAC loop but stops early: at the first phase ``k`` whose
    predecessor's accuracy ``eps_{k-1} = 2^-(k-1)`` is at most ``eps / 3``,
    the phase's estimates are computed once more and the answer is the
    pinned set plus the best pending assortment under the *upper* parameter
    estimates (optimistic completion).  Success means the returned set's
    true revenue is within ``eps`` of optimal.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    start = env.ledger.steps
    rough = est_rough(env, delta / 2.0, tuning)
    sar_delta = delta / 2.0
    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = tuple(range(1, env.n + 1))
    phases: List[PhaseState] = []
    aborted = True
    returned: Tuple[int, ...] = ()
    for k in range(1, PHASE_CAP + 1):
        m = min(env.k - len(a), len(b))
        if m == 0:
            returned = a
            aborted = False
            break
        eps_k = 2.0 ** (-k)
        delta_k = sar_delta / (3.0 * k * k)
        phase_start = env.ledger.steps
        if 2.0 ** (-(k - 1)) <= eps / 3.0:
            # Terminal phase: estimate once more, then complete optimistically.
            est = est_adaptive(env, a, b, delta_k, eps_k / 2.0, rough, tuning)
            rewards = {i: float(env.rewards[i - 1]) for i in b}
            sol = fractional_optimum(
                rewards,
                ReducedParams(est.zeta_hi, {i: est.nu_hi[i] for i in b}),
                m,
            )
            returned = tuple(sorted(a + sol.s_star))
            phases.append(
                PhaseState(
                    k=k,
                    a_set=a,
                    b_set=b,
                    eps_k=eps_k,
                    delta_k=delta_k,
                    m=m,
                    alpha=None,
                    beta=None,
                    b_acc=sol.s_star,
                    b_rej=(),
                    steps=env.ledger.steps - phase_start,
                    max_width=est.max_width(),
                )
            )
            aborted = False
            break
        est = est_adaptive(env, a, b, delta_k, eps_k / 2.0, rough, tuning)
        b_acc, b_rej, alpha, beta = accept_reject(est, b, m)
        phases.append(
            PhaseState(
                k=k,
                a_set=a,
                b_set=b,
                eps_k=eps_k,
                delta_k=delta_k,
                m=m,
                alpha=alpha,
                beta=beta,
                b_acc=b_acc,
                b_rej=b_rej,
                steps=env.ledger.steps - phase_start,
                max_width=est.max_width(),
            )
        )
        a = tuple(sorted(a + b_acc))
        dropped = set(b_acc) | set(b_rej)
        b = tuple(i for i in b if i not in dropped)
        assert len(a) <= env.k
        if not b:
            returned = a
            aborted = False
            break
    opt = env.oracle_solution().theta_star
    success = (opt - env.true_revenue(returned)) <= eps
    return RunResult(
        assortment=returned,
        steps=env.ledger.steps - start,
        phases=tuple(phases),
        success=success,
        aborted=aborted,
    )


def regret_min(
    env: Environment, horizon: int, tuning: Tuning = PAPER_TUNING
) -> RunResult:
    """Minimize cumulative pseudo-regret over exactly ``horizon`` steps.

    Runs the accept-reject loop with the full-assortment (regret) estimator
    at confidence ``delta = 1 / horizon``; if identification finishes early,
    the identified assortment is offered for every remaining step.  If the
    budget dies mid-estimator, the in-flight epoch's steps are consumed
    (statistics discarded) and the best pinned set so far is returned.  The
    run always consumes the budget exactly.
    """
    if horizon < env.n:
        raise ValueError("horizon must be at least the number of items")
    if env.horizon is None:
        env.set_horizon(horizon)
    elif env.horizon != horizon:
        raise ValueError("environment horizon disagrees with the requested one")
    if env.ledger.steps:
        raise ValueError("regret runs require a fresh environment")
    delta = 1.0 / horizon

    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = tuple(range(1, env.n + 1))
    phases: List[PhaseState] = []
    aborted = False
    horizon_hit = False
    try:
        for k in range(1, PHASE_CAP + 1):
            m = min(env.k - len(a), len(b))
            if m == 0:
                break
            eps_k = 2.0 ** (-k)
            delta_k = delta / (3.0 * k * k)
            phase_start = env.ledger.steps
            est = est_reg(env, a, b, delta_k, eps_k / 2.0, tuning)
            b_acc, b_rej, alpha, beta = accept_reject(est, b, m)
            phases.append(
                PhaseState(
                    k=k,
                    a_set=a,
                    b_set=b,
                    eps_k=eps_k,
                    delta_k=delta_k,
                    m=m,
                    alpha=alpha,
                    beta=beta,
                    b_acc=b_acc,
                    b_rej=b_rej,
                    steps=env.ledger.steps - phase_start,
                    max_width=est.max_width(),
                )
            )
            a = tuple(sorted(a + b_acc))
            dropped = set(b_acc) | set(b_rej)
            b = tuple(i for i in b if i not in dropped)
            assert len(a) <= env.k
            if not b:
                break
        else:
            aborted = True
    except HorizonExhausted:
        horizon_hit = True

    exploit = env.steps_remaining or 0
    if exploit:
        env.advance(a, exploit)
    assert env.ledger.steps == horizon, "regret run must consume the budget exactly"
    return RunResult(
        assortment=a,
        steps=horizon,
        phases=tuple(phases),
        success=a == env.oracle_solution().s_star,
        aborted=aborted,
        horizon_hit=horizon_hit,
        exploit_steps=exploit,
        final_regret=env.ledger.cum_regret,
    )

