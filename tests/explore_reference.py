"""Step-level exploration epoch, the reference the epoch-batch tests compare to.

``explore`` offers the epoch's set one step at a time through
``offer_reference.offer``, so it draws each purchase the way a market would;
``Environment.sample_epochs`` must reproduce its law in one batch.
"""

from typing import Sequence

from mnlbandit.env import Environment
from mnlbandit.estimators import ExploreState
from mnlbandit.model import validate_assortment
from offer_reference import offer


def explore(env: Environment, state: ExploreState, s: Sequence[int]) -> int:
    """Run ONE exploration epoch step by step; return its length.

    Reference implementation of the epoch primitive: offers
    ``state.z_stop ∪ s`` repeatedly via ``offer`` until the outcome lands
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
        c = offer(env, offered)
        length += 1
        if c == 0 or c in stop:
            z = 0.0 if c == 0 else float(env.rewards[c - 1])
            state.n_z += z
            state.t_z += 1
            for i in ts:
                state.n[i] = state.n.get(i, 0) + x[i]
                state.t[i] = state.t.get(i, 0) + 1
            return length
        x[c] += 1
