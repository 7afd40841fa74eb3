"""Uniform-random regret baseline, the reference the regret tests compare to.

It enumerates all ``C(n, k)`` size-``k`` assortments, so keep ``n`` small.
"""

from itertools import combinations

import numpy as np

from mnlbandit.model import Instance, revenue
from mnlbandit.oracle import exact_optimum


def uniform_random_regret(
    inst: Instance, horizon: int, rng: np.random.Generator
) -> float:
    """Cumulative pseudo-regret of offering a uniform random size-k set each step.

    Pseudo-regret depends only on the offered sets, so no purchases need to
    be simulated: draw the per-step assortment indices and sum the revenue
    shortfalls.
    """
    opt = exact_optimum(inst)
    choices = list(combinations(range(1, inst.n + 1), inst.k))
    revenues = np.array([revenue(inst, s) for s in choices])
    draws = rng.integers(0, len(choices), size=horizon)
    return float((opt.theta_star - revenues[draws]).sum())
