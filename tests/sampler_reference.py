"""Frozen reference of the epoch sampler, as it was before per-key plans.

``sample_epochs`` below is the earlier ``Environment.sample_epochs`` body,
written as a function of the environment: it re-validates both sets and
rebuilds every weight vector and probability on each call.  The tests
require the planned sampler to match it field for field and to leave the
generator in the same state, so the two draw the same numbers in the same
order.
"""

import numpy as np

from mnlbandit.env import EpochBatch
from mnlbandit.model import revenue, validate_assortment

#: numpy's hypergeometric sampler requires both of its counts below this.
_HYPERGEOM_LIMIT = 10**9


def sample_epochs(env, z, s, epochs):
    """``env.sample_epochs(z, s, epochs)``, the earlier way."""
    tz = validate_assortment(z, env.n)
    ts = validate_assortment(s, env.n)
    if set(tz) & set(ts):
        raise ValueError("stopping set and tracked set must be disjoint")
    if len(tz) + len(ts) > env.k:
        raise ValueError(
            f"offered size {len(tz) + len(ts)} exceeds capacity {env.k}"
        )
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    regret = env.oracle_solution().theta_star - revenue(
        env._inst, tuple(sorted(set(ts) | set(tz)))
    )

    v_z = env._inst.v[np.asarray(tz, dtype=int) - 1] if tz else np.zeros(0)
    v_s = env._inst.v[np.asarray(ts, dtype=int) - 1] if ts else np.zeros(0)
    stop_weights = np.concatenate(([1.0], v_z))  # no-purchase, then Z
    stop_rewards = np.concatenate(
        ([0.0], env._inst.r[np.asarray(tz, dtype=int) - 1] if tz else np.zeros(0))
    )
    q = stop_weights.sum() / (stop_weights.sum() + v_s.sum())

    budget = env.steps_remaining  # None = unlimited
    chunk = epochs if budget is None else max(1, int(q * _HYPERGEOM_LIMIT) // 10)
    done = 0  # completed epochs
    bought = 0  # purchases within completed epochs
    used = 0
    truncated = False
    while done < epochs:
        t = min(epochs - done, chunk)
        m = int(env._rng.negative_binomial(t, q))
        if budget is None or used + t + m <= budget:
            done += t
            bought += m
            used += t + m
            continue
        room = budget - used
        k = int(env._rng.hypergeometric(t - 1, m, room))
        tail = (
            int(env._rng.binomial(room - k, 1.0 - env._rng.beta(k, 1.0)))
            if k
            else room
        )
        done += k
        bought += room - k - tail
        used = budget
        truncated = True
        break

    x_sums = _multinomial(env._rng, bought, v_s)
    stop_counts = _multinomial(env._rng, done, stop_weights)
    env.ledger.record(regret, used)
    return EpochBatch(
        requested=epochs,
        epochs=done,
        steps=used,
        x_sums=x_sums,
        z_sum=float(stop_counts @ stop_rewards),
        truncated=truncated,
    )


def _multinomial(rng, count, weights):
    out = np.zeros(len(weights), dtype=np.int64)
    positive = weights > 0
    if count and positive.any():
        out[positive] = rng.multinomial(count, weights[positive] / weights[positive].sum())
    return out
