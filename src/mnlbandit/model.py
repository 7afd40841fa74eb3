"""Multinomial logit (MNL) choice model primitives.

An instance has ``n`` items with rewards ``r_i in [0, 1]`` and preference
weights ``v_i in [0, 1]``, plus an implicit no-purchase option (item 0) with
weight 1 and reward 0.  When an assortment ``S`` (at most ``k`` items) is
offered, a buyer picks ``c in S ∪ {0}`` with probability

    P(c | S) = v_c / (1 + sum_{j in S} v_j),        v_0 = 1.

The expected revenue of ``S`` is

    R(S, v) = sum_{i in S} r_i * v_i / (1 + sum_{i in S} v_i),

with ``R({}) = 0``.  Items are 1-indexed in every public interface;
the implicit outside option is index 0.  Internally, numpy arrays are
0-indexed, so item ``i`` lives at array slot ``i - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "Instance",
    "ReducedParams",
    "Assortment",
    "validate_assortment",
    "choice_probabilities",
    "revenue",
    "reduce_params",
    "reduced_revenue",
    "advantage_scores",
]

#: An assortment is a strictly increasing tuple of 1-indexed item ids.
Assortment = Tuple[int, ...]

#: Default absolute tolerance for revenue / parameter comparisons.
DEFAULT_ATOL = 1e-9


def _as_unit_array(x: Sequence[float], name: str, n: int) -> np.ndarray:
    arr = np.array(x, dtype=float)  # always copy: the instance owns its arrays
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return arr


@dataclass(frozen=True, eq=False)
class Instance:
    """A problem instance: item count, capacity, rewards and weights.

    Attributes
    ----------
    n : number of items (>= 1).
    k : assortment capacity, 1 <= k <= n.
    r : rewards, shape (n,), entries in [0, 1].  ``r[i-1]`` is item i's reward.
    v : preference weights, shape (n,), entries in [0, 1].
    """

    n: int
    k: int
    r: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (1 <= self.k <= self.n):
            raise ValueError("k must satisfy 1 <= k <= n")
        object.__setattr__(self, "r", _as_unit_array(self.r, "r", self.n))
        object.__setattr__(self, "v", _as_unit_array(self.v, "v", self.n))
        self.r.setflags(write=False)
        self.v.setflags(write=False)

    def __reduce__(self):
        # Unpickle through the constructor: the copy is validated and its
        # arrays are read-only, as the original's are.
        return (Instance, (self.n, self.k, self.r, self.v))

    def items(self) -> range:
        """All item ids, 1..n."""
        return range(1, self.n + 1)


def validate_assortment(
    s: Iterable[int], n: int, k: int | None = None
) -> Assortment:
    """Check that ``s`` is a strictly increasing tuple of item ids in 1..n.

    The empty assortment is legal.  If ``k`` is given, enforce ``|s| <= k``.
    Returns the validated tuple.
    """
    t = tuple(int(i) for i in s)
    for a, b in zip(t, t[1:]):
        if not a < b:
            raise ValueError(f"assortment must be strictly increasing, got {t}")
    if t and (t[0] < 1 or t[-1] > n):
        raise ValueError(f"assortment items must lie in 1..{n}, got {t}")
    if k is not None and len(t) > k:
        raise ValueError(f"assortment size {len(t)} exceeds capacity {k}")
    return t


def _idx(s: Assortment) -> np.ndarray:
    """0-based array indices for a 1-indexed assortment."""
    return np.asarray(s, dtype=int) - 1


def choice_probabilities(inst: Instance, s: Iterable[int]) -> Dict[int, float]:
    """Purchase probability map over ``s ∪ {0}`` when ``s`` is offered.

    ``P(c) = v_c / (1 + sum_{j in s} v_j)``, with the no-purchase option 0
    carrying weight 1.  Probabilities sum to 1 exactly up to float rounding.
    """
    t = validate_assortment(s, inst.n)
    w = inst.v[_idx(t)]
    denom = 1.0 + float(w.sum())
    probs = {0: 1.0 / denom}
    for item, weight in zip(t, w):
        probs[item] = float(weight) / denom
    return probs


def revenue(inst: Instance, s: Iterable[int]) -> float:
    """Expected revenue ``R(s, v)`` of offering ``s``; 0 for the empty set."""
    t = validate_assortment(s, inst.n)
    if not t:
        return 0.0
    ix = _idx(t)
    w = inst.v[ix]
    return float(np.dot(w, inst.r[ix]) / (1.0 + w.sum()))


@dataclass(frozen=True)
class ReducedParams:
    """Parameters of the revenue problem reduced relative to a pinned set A.

    ``zeta = R(A, v)`` is the pinned set's own revenue and
    ``nu[i] = v_i / (1 + sum_{j in A} v_j)`` for each pending item i (i not
    in A).  The reduced revenue of a pending assortment ``S0`` is

        R(S0, nu, zeta) = (zeta + sum_{i in S0} nu_i r_i)
                          / (1 + sum_{i in S0} nu_i),

    and for any S containing A, R(S, v) = R(S \\ A, nu, zeta).
    """

    zeta: float
    nu: Mapping[int, float]

    def __post_init__(self) -> None:
        if not (0.0 <= self.zeta <= 1.0):
            raise ValueError("zeta must lie in [0, 1]")
        for item, value in self.nu.items():
            if item < 1:
                raise ValueError("nu keys must be 1-indexed item ids")
            if not (0.0 <= value <= 1.0) or not np.isfinite(value):
                raise ValueError(f"nu[{item}] must lie in [0, 1]")


def reduce_params(inst: Instance, a: Iterable[int]) -> ReducedParams:
    """Reduce the instance relative to pinned set ``a``.

    Returns ``ReducedParams`` with ``zeta = R(a, v)`` and ``nu`` defined for
    every item outside ``a``.
    """
    ta = validate_assortment(a, inst.n)
    zeta = revenue(inst, ta)
    denom = 1.0 + float(inst.v[_idx(ta)].sum())
    pinned = set(ta)
    nu = {
        i: float(inst.v[i - 1]) / denom
        for i in inst.items()
        if i not in pinned
    }
    return ReducedParams(zeta=zeta, nu=nu)


def reduced_revenue(
    rewards: Mapping[int, float], params: ReducedParams, s0: Iterable[int]
) -> float:
    """Reduced revenue ``R(s0, nu, zeta)`` of a pending assortment ``s0``.

    ``rewards`` maps item id -> reward; every item of ``s0`` must have both a
    reward and a reduced weight.  ``R({}, nu, zeta) = zeta``.
    """
    t = tuple(int(i) for i in s0)
    num = params.zeta
    den = 1.0
    for i in t:
        num += params.nu[i] * rewards[i]
        den += params.nu[i]
    return num / den


def advantage_scores(inst: Instance, theta: float) -> Dict[int, float]:
    """Scores ``u_i = v_i * (r_i - theta)`` for every item.

    At ``theta = theta*`` (the optimal revenue) the capacity-constrained
    top-positive-score selection recovers the optimal assortment, and the
    scores of its members sum to ``theta*``.
    """
    return {
        i: float(inst.v[i - 1]) * (float(inst.r[i - 1]) - theta)
        for i in inst.items()
    }
