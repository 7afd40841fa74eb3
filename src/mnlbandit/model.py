"""Multinomial logit (MNL) choice model primitives.

An instance has ``n`` items with rewards ``r_i in [0, 1]`` and preference
weights ``v_i in [0, 1]``, plus an implicit no-purchase option (item 0) with
weight 1 and reward 0.  When an assortment ``S`` (at most ``k`` items) is
offered, a buyer picks ``c in S ∪ {0}`` with probability

    P(c | S) = v_c / (1 + sum_{j in S} v_j),        v_0 = 1.

The expected revenue of ``S`` is

    R(S, v) = sum_{i in S} r_i * v_i / (1 + sum_{i in S} v_i),

with ``R({}) = 0``.  The revenue reduced relative to a pinned set is defined,
and maximized, by ``oracle.fractional_optimum``.  Items are 1-indexed in every
public interface; the implicit outside option is index 0.  Internally, numpy
arrays are 0-indexed, so item ``i`` lives at array slot ``i - 1``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "Instance",
    "Assortment",
    "validate_assortment",
    "revenue",
]

#: An assortment is a strictly increasing tuple of 1-indexed item ids.
Assortment = Tuple[int, ...]


def _as_unit_array(x: Sequence[float], name: str, n: int) -> np.ndarray:
    arr = np.array(x, dtype=float)  # always copy: the instance owns its arrays
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return arr


def _check_shape(n: int, k: int) -> None:
    """Require ``n >= 1`` items and a capacity ``1 <= k <= n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= k <= n):
        raise ValueError("k must satisfy 1 <= k <= n")


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
        _check_shape(self.n, self.k)
        object.__setattr__(self, "r", _as_unit_array(self.r, "r", self.n))
        object.__setattr__(self, "v", _as_unit_array(self.v, "v", self.n))
        self.r.setflags(write=False)
        self.v.setflags(write=False)

    def __reduce__(self):
        # Unpickle through the constructor: the copy is validated and its
        # arrays are read-only, as the original's are.
        return (Instance, (self.n, self.k, self.r, self.v))


def _as_int(x: object, name: str) -> int:
    """``x`` as a Python int through `operator.index`: numpy integers pass, and a
    float, a string or a bool is refused with a `ValueError`, never truncated."""
    try:
        if isinstance(x, bool):  # operator.index reads True as 1 (np.True_ it refuses)
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def validate_assortment(s: Iterable[int], n: int) -> Assortment:
    """Check that ``s`` is a strictly increasing tuple of integer item ids in
    1..n (see `_as_int`).

    The empty assortment is legal; a capacity is the caller's to check.
    Returns the validated tuple of Python ints.
    """
    t = tuple(_as_int(i, "assortment item") for i in s)
    for a, b in zip(t, t[1:]):
        if not a < b:
            raise ValueError(f"assortment must be strictly increasing, got {t}")
    if t and (t[0] < 1 or t[-1] > n):
        raise ValueError(f"assortment items must lie in 1..{n}, got {t}")
    return t


def _idx(s: Assortment) -> np.ndarray:
    """0-based array indices for a 1-indexed assortment."""
    return np.asarray(s, dtype=int) - 1


def _revenue_at(inst: Instance, ix: np.ndarray) -> float:
    """Revenue of the 0-based ascending positions ``ix``: the one whole-set pricing."""
    v = inst.v[ix]
    return float((v * inst.r[ix]).sum() / (1.0 + v.sum()))


def revenue(inst: Instance, s: Iterable[int]) -> float:
    """Expected revenue ``R(s, v)`` of offering ``s``; 0 for the empty set."""
    return _revenue_at(inst, _idx(validate_assortment(s, inst.n)))
