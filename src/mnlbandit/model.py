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
public interface; the implicit outside option is index 0.  Internally,
positions are 0-indexed: item ``i``'s reward is ``inst.r[i - 1]``, in the
instance's float tuples and in the numpy arrays that whole-set pricing sums.

This module loads numpy only when it prices a set (`_arrays`), so that a
process which builds, reads or writes instances alone never imports it.
"""

from __future__ import annotations

import math
import operator
import weakref
from typing import TYPE_CHECKING, Iterable, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Instance",
    "Assortment",
    "validate_assortment",
    "revenue",
]

#: An assortment is a strictly increasing tuple of 1-indexed item ids.
Assortment = Tuple[int, ...]


def _unit_floats(x: Iterable[float], name: str, n: int) -> Tuple[float, ...]:
    """``x`` as a tuple of ``n`` finite Python floats in [0, 1]; anything else is
    a `ValueError`."""
    try:
        values = tuple(map(float, x))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a sequence of {n} numbers: {exc}") from None
    if len(values) != n:
        raise ValueError(f"{name} must hold {n} entries, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    if not all(0.0 <= value <= 1.0 for value in values):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return values


def _check_shape(n: int, k: int) -> None:
    """Require ``n >= 1`` items and a capacity ``1 <= k <= n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= k <= n):
        raise ValueError("k must satisfy 1 <= k <= n")


class Instance:
    """A problem instance: item count, capacity, rewards and weights.

    Attributes
    ----------
    n : number of items (>= 1).
    k : assortment capacity, 1 <= k <= n.
    r : rewards, a tuple of ``n`` Python floats in [0, 1].  ``r[i-1]`` is item
        i's reward.
    v : preference weights, a tuple of ``n`` Python floats in [0, 1].

    An instance is immutable and equal only to itself, so that per-instance
    caches (`_arrays`, ``env._PER_INSTANCE``) can key on it weakly.  It is not
    a dataclass, because in a process without numpy ``dataclasses`` loads
    ``inspect``, about 10 ms; nor a NamedTuple, which cannot be weakly
    referenced.
    """

    def __init__(self, n: int, k: int, r: Sequence[float], v: Sequence[float]) -> None:
        _check_shape(n, k)
        r, v = _unit_floats(r, "r", n), _unit_floats(v, "v", n)
        self.__dict__.update(n=n, k=k, r=r, v=v)  # past `__setattr__`, which refuses

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: an Instance is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: an Instance is immutable")

    def __repr__(self) -> str:
        return f"Instance(n={self.n!r}, k={self.k!r})"


#: Instance -> its ``(r, v)`` as read-only float arrays, built by `_arrays` on
#: first use and shared by every caller; entries go when their instance does.
_ARRAYS: "weakref.WeakKeyDictionary[Instance, tuple]" = weakref.WeakKeyDictionary()


def _arrays(inst: Instance) -> Tuple[np.ndarray, np.ndarray]:
    """``inst.r`` and ``inst.v`` as read-only numpy arrays, built once per instance.

    Whole-set pricing (`_revenue_at`, ``env._Plan``, the oracle's gaps) sums on
    these: numpy's pairwise sum, which sets of 8 or more items reach, rounds
    otherwise than a sum in order, and the golden bytes hold numpy's.
    """
    arrays = _ARRAYS.get(inst)
    if arrays is None:
        import numpy as np

        arrays = tuple(np.array(x, dtype=float) for x in (inst.r, inst.v))
        for arr in arrays:
            arr.setflags(write=False)
        _ARRAYS[inst] = arrays
    return arrays


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
    import numpy as np

    return np.asarray(s, dtype=int) - 1


def _revenue_at(inst: Instance, ix: np.ndarray) -> float:
    """Revenue of the 0-based ascending positions ``ix``: the one whole-set pricing."""
    r, v = _arrays(inst)
    w = v[ix]
    return float((w * r[ix]).sum() / (1.0 + w.sum()))


def revenue(inst: Instance, s: Iterable[int]) -> float:
    """Expected revenue ``R(s, v)`` of offering ``s``; 0 for the empty set."""
    return _revenue_at(inst, _idx(validate_assortment(s, inst.n)))
