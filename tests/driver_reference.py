"""Frozen reference of the drivers, as they were before they shared one loop.

``pac_eps`` and ``regret_min`` below are the earlier bodies, each with its own
copy of the accept-reject phase loop.  The tests require the drivers built on
``sar_mnl`` to return equal results, leave equal ledgers and leave the
generator in the same state, so the two run the same phases on the same
draws.
"""

from typing import List, Tuple

from mnlbandit.driver import PHASE_CAP, PhaseState, RunResult, accept_reject
from mnlbandit.env import Environment, HorizonExhausted
from mnlbandit.estimators import PAPER_TUNING, Tuning, est_adaptive, est_reg, est_rough
from model_reference import ReducedParams
from oracle_reference import fractional_optimum


def pac_eps(
    env: Environment, delta: float, eps: float, tuning: Tuning = PAPER_TUNING
) -> RunResult:
    """Identify an ``eps``-optimal assortment with confidence ``1 - delta``.

    Runs the exact-PAC loop but stops early: at the first phase ``k`` whose
    predecessor's accuracy ``eps_{k-1} = 2^-(k-1)`` is at most ``eps / 3``,
    the phase's estimates are computed once more and the answer is the
    pinned set plus the best pending assortment under the *upper* parameter
    estimates (optimistic completion).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    rough = est_rough(env, delta / 2.0, tuning)
    sar_delta = delta / 2.0
    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = tuple(range(1, env.n + 1))
    phases: List[PhaseState] = []
    status = "phase-cap"
    returned: Tuple[int, ...] = ()
    for k in range(1, PHASE_CAP + 1):
        m = min(env.k - len(a), len(b))
        if m == 0:
            returned = a
            status = "ok"
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
                    est=est,
                )
            )
            status = "ok"
            break
        est = est_adaptive(env, a, b, delta_k, eps_k / 2.0, rough, tuning)
        b_acc, b_rej, alpha, beta = accept_reject(est, m)
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
                est=est,
            )
        )
        a = tuple(sorted(a + b_acc))
        dropped = set(b_acc) | set(b_rej)
        b = tuple(i for i in b if i not in dropped)
        assert len(a) <= env.k
        if not b:
            returned = a
            status = "ok"
            break
    return RunResult(assortment=returned, phases=tuple(phases), status=status)


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
    if env.horizon != horizon:
        raise ValueError("environment horizon disagrees with the requested one")
    if env.ledger.steps:
        raise ValueError("regret runs require a fresh environment")
    delta = 1.0 / horizon

    a: Tuple[int, ...] = ()
    b: Tuple[int, ...] = tuple(range(1, env.n + 1))
    phases: List[PhaseState] = []
    status = "ok"
    try:
        for k in range(1, PHASE_CAP + 1):
            m = min(env.k - len(a), len(b))
            if m == 0:
                break
            eps_k = 2.0 ** (-k)
            delta_k = delta / (3.0 * k * k)
            phase_start = env.ledger.steps
            est = est_reg(env, a, b, delta_k, eps_k / 2.0, tuning)
            b_acc, b_rej, alpha, beta = accept_reject(est, m)
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
                    est=est,
                )
            )
            a = tuple(sorted(a + b_acc))
            dropped = set(b_acc) | set(b_rej)
            b = tuple(i for i in b if i not in dropped)
            assert len(a) <= env.k
            if not b:
                break
        else:
            status = "phase-cap"
    except HorizonExhausted:
        status = "horizon"

    exploit = env.steps_remaining or 0
    if exploit:
        env.advance(a, exploit)
    assert env.ledger.steps == horizon, "regret run must consume the budget exactly"
    return RunResult(assortment=a, phases=tuple(phases), status=status)
