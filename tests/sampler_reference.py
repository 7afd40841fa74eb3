"""Law reference of the epoch sampler: the v3 stream, stated from its definition.

``sample_epochs`` below draws what ``Environment.sample_epochs`` draws under
``RNG_ALGORITHM_ID`` v3, written as a function of the environment and computed
from the instance on every call: it re-validates both sets and rebuilds every
weight vector and probability, with no plan, table or cached split.  A batch
whose ``T`` epochs alone overrun the remaining budget draws nothing; any other
draws the purchase total ``M ~ NegBin(T, q)``.  A batch whose ``T + M`` steps
overrun the budget is cut there, charged the rest of the budget and draws
nothing more; any other batch then draws the item split and the stop split.
The tests require the sampler to match it field for field, ledger and
generator state included, for every batch below the sampler's limits.
"""

import numpy as np

from mnlbandit.env import EpochBatch
from mnlbandit.model import revenue, validate_assortment


def sample_epochs(env, z, s, epochs):
    """``env.sample_epochs(z, s, epochs)``, by the v3 law."""
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

    v, r = np.asarray(env._inst.v), np.asarray(env._inst.r)
    v_z = v[np.asarray(tz, dtype=int) - 1] if tz else np.zeros(0)
    v_s = v[np.asarray(ts, dtype=int) - 1] if ts else np.zeros(0)
    stop_weights = np.concatenate(([1.0], v_z))  # no-purchase, then Z
    stop_rewards = np.concatenate(
        ([0.0], r[np.asarray(tz, dtype=int) - 1] if tz else np.zeros(0))
    )
    q = stop_weights.sum() / (stop_weights.sum() + v_s.sum())

    budget = env.steps_remaining  # None = unlimited
    if budget is not None and epochs > budget:
        bought = 0  # no purchase count fits: nothing is drawn
    else:
        bought = int(env._rng.negative_binomial(epochs, q))  # purchases
    if budget is not None and epochs + bought > budget:
        env.ledger.record(regret, budget)
        return EpochBatch(
            requested=epochs,
            epochs=0,
            steps=budget,
            x_sums=np.zeros(len(ts), dtype=np.int64),
            z_sum=0.0,
            truncated=True,
        )
    x_sums = _multinomial(env._rng, bought, v_s)
    stop_counts = _multinomial(env._rng, epochs, stop_weights)
    env.ledger.record(regret, epochs + bought)
    return EpochBatch(
        requested=epochs,
        epochs=epochs,
        steps=epochs + bought,
        x_sums=x_sums,
        z_sum=float(stop_counts @ stop_rewards),
        truncated=False,
    )


def _multinomial(rng, count, weights):
    out = np.zeros(len(weights), dtype=np.int64)
    positive = weights > 0
    if count and positive.any():
        out[positive] = rng.multinomial(count, weights[positive] / weights[positive].sum())
    return out
