"""Step-level reference sampler: one MNL purchase decision per time step.

``offer`` is the step-level way to drive an `Environment`: each call spends
one step, draws the buyer's choice from ``s`` with one uniform from the
environment's stream, and books the step's pseudo-regret on its ledger.  The
library samples only whole epochs in batch (``Environment.sample_epochs``);
the tests check that sampler's law against this one (through
``explore_reference.explore``) and use it to spend single steps.
"""

from typing import Iterable

import numpy as np

from mnlbandit.env import Environment, HorizonExhausted
from mnlbandit.model import validate_assortment


def offer(env: Environment, s: Iterable[int]) -> int:
    """Offer assortment ``s`` for one time step; return the outcome.

    The outcome is the purchased item id, or 0 for no purchase.  Raises
    ``ValueError`` on capacity violations (``|s| > k``), never truncating, and
    `HorizonExhausted` when the step budget is spent.
    """
    t = validate_assortment(s, env.n)
    if len(t) > env.k:
        raise ValueError(f"assortment size {len(t)} exceeds capacity {env.k}")
    if env.horizon is not None and env.ledger.steps >= env.horizon:
        raise HorizonExhausted("step budget exhausted")
    # outcome weights, no-purchase first, then the offered items
    cum = np.cumsum(np.concatenate(([1.0], np.asarray(env._inst.v)[np.asarray(t, dtype=int) - 1])))
    u = env._rng.random() * cum[-1]
    j = int(np.searchsorted(cum, u, side="right"))
    env.ledger.record(env._plan(t, ()).regret, 1)
    return 0 if j == 0 else t[j - 1]
