"""Instance generators and the plain-text instance file format.

Families
--------
* ``uniform``      — rewards and weights i.i.d. uniform on [0, 1];
* ``dense``        — weights uniform on [0.5, 1] (every item attractive);
* ``sparse``       — weights on the order of 1/k (uniform on [0.5/k, 1.5/k],
                     capped at 1), so full assortments stay lightweight;
* ``lower-bound``  — the prescribed-gap hard family (`lower_bound_instance`).

A random family keeps the first draw of its seeded stream, at any ``n``, and
runs no oracle solve: a near-tied draw is a hard instance, not a refused one.
``mnlbandit oracle`` prints every item's gap; the smallest is the margin.

File format (``*.inst``): plain ``key = value`` text with ``#`` comments.
Float lists are comma-separated and written with 17 significant digits, so a
write/read roundtrip reproduces every bit.  Keys: ``n``, ``k``, ``r``,
``v``, and free-form ``meta.<name>`` strings, each at most once.
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .model import Instance, _check_shape

__all__ = [
    "FAMILIES",
    "generate_instance",
    "lower_bound_instance",
    "write_instance",
    "read_instance",
    "format_instance",
    "parse_instance",
]

FAMILIES = ("uniform", "dense", "sparse", "lower-bound")


def generate_instance(
    family: str,
    n: int,
    k: int,
    seed: Optional[int] = None,
    gaps: Optional[Sequence[float]] = None,
) -> Instance:
    """Draw one instance from a named family, deterministically in ``seed``.

    ``uniform``/``dense``/``sparse`` require ``seed`` and return the first
    draw of ``Generator(PCG64(SeedSequence(seed)))``: ``r``, then ``v``, in
    the family's ranges.  ``lower-bound`` requires ``gaps`` (one per item
    beyond the capacity) and ignores ``seed``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {FAMILIES}")
    if family == "lower-bound":
        if gaps is None:
            raise ValueError("the lower-bound family needs a gap sequence")
        return lower_bound_instance(n, k, gaps)
    if seed is None:
        raise ValueError(f"the {family} family needs a seed")
    _check_shape(n, k)  # before any draw: the sparse family divides by k
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    r = rng.uniform(0.0, 1.0, size=n)
    if family == "uniform":
        v = rng.uniform(0.0, 1.0, size=n)
    elif family == "dense":
        v = rng.uniform(0.5, 1.0, size=n)
    else:  # sparse
        v = np.minimum(1.0, rng.uniform(0.5 / k, 1.5 / k, size=n))
    return Instance(n=n, k=k, r=r, v=v)


def lower_bound_instance(
    n: int, k: int, gaps: Sequence[float]
) -> Instance:
    """Hard-instance family with prescribed suboptimality gaps.

    All rewards are 1, so revenue is ``W/(1+W)`` with ``W`` the offered
    weight sum — maximized by the heaviest ``k`` items.  The first ``k``
    items form the optimal assortment with total weight exactly 1 (hence
    ``theta* = 1/2`` and ``R([k]) = 1/2``), and each item ``k + j`` (j >= 1)
    gets a weight that makes its realized suboptimality gap exactly
    ``gaps[j-1]``:

        k >= 2:  v_i = 1/k + 1/(2k(k-1))  for i < k,   v_k = 1/(2k);
        k  = 1:  v_1 = 1  (the singleton optimal set must carry weight 1);
        both:    v_{k+j} = v_k - g_j,   g_j = 4 d_j / (1 + 2 d_j),
                 d_j = gaps[j-1].

    Why this realizes the gaps: the best assortment containing item ``k+j``
    swaps it for the lightest optimal item (weight ``v_k``), dropping the
    weight sum from 1 to ``1 - g_j`` and the revenue from ``1/2`` to
    ``(1 - g_j) / (2 - g_j)``; the difference equals ``d_j`` precisely when
    ``g_j = 4 d_j / (1 + 2 d_j)``.

    Preconditions: ``n >= 2``, ``k <= n/2``, every gap lies in
    ``(0, 1/(16k)]``, and every ``v_{k+j}`` rounds strictly below ``v_k``.
    A gap below ``2^-56 v_k`` to ``2^-55 v_k`` (3.5e-18 at ``k = 2``) moves
    ``v_k`` by less than half its last place: item ``k+j`` would tie item
    ``k`` at a realized gap of 0, so such a gap is refused.  The realized
    gaps of items ``k+1..n`` (via ``suboptimality_gaps``) equal the inputs
    exactly up to float rounding.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (1 <= k and 2 * k <= n):
        raise ValueError("capacity must satisfy 1 <= k <= n/2")
    gap_arr = np.asarray(gaps, dtype=float)
    if gap_arr.shape != (n - k,):
        raise ValueError(
            f"need exactly n - k = {n - k} gaps for the non-optimal items, "
            f"got {gap_arr.shape}"
        )
    if not np.all((gap_arr > 0.0) & (gap_arr <= 1.0 / (16.0 * k))):  # NaN fails
        raise ValueError("every gap must lie in (0, 1/(16 k)]")

    v = np.empty(n, dtype=float)
    r = np.ones(n, dtype=float)
    if k == 1:
        # Optimal set {1} must carry total weight 1 on its own.
        v[0] = 1.0
    else:
        v[: k - 1] = 1.0 / k + 1.0 / (2.0 * k * (k - 1))
        v[k - 1] = 1.0 / (2.0 * k)
    # Swapping the lightest optimal item (weight w_k = v[k-1]) for item k+j
    # changes the optimal-set weight sum from 1 to 1 - g_j, which moves the
    # revenue from 1/2 to (1 - g_j)/(2 - g_j); solving
    # 1/2 - (1 - g)/(2 - g) = d gives g = 4 d / (1 + 2 d).
    g = 4.0 * gap_arr / (1.0 + 2.0 * gap_arr)
    v[k:] = v[k - 1] - g
    tied = np.flatnonzero(v[k:] >= v[k - 1])
    if tied.size:
        j = int(tied[0])
        raise ValueError(
            f"gap {float(gap_arr[j])!r} is below float resolution: item {k + j + 1}'s "
            f"weight rounds onto v_{k} = {float(v[k - 1])!r}, a gap of 0"
        )
    return Instance(n=n, k=k, r=r, v=v)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _fmt_floats(values: np.ndarray) -> str:
    return ", ".join(format(float(x), ".17g") for x in values)


def format_instance(inst: Instance, meta: Optional[Dict[str, str]] = None) -> str:
    """Serialize an instance (plus string metadata) to the text format."""
    buf = io.StringIO()
    buf.write("# mnlbandit instance v1\n")
    buf.write(f"n = {inst.n}\n")
    buf.write(f"k = {inst.k}\n")
    buf.write(f"r = {_fmt_floats(inst.r)}\n")
    buf.write(f"v = {_fmt_floats(inst.v)}\n")
    for key in sorted(meta or {}):
        value = str((meta or {})[key])
        # `parse_instance` splits lines, strips both sides and splits at the first '='
        if "=" in key or any(len(t.splitlines()) > 1 or t != t.strip() for t in (key, value)):
            raise ValueError(f"metadata {key!r}: {value!r} would not read back the same")
        buf.write(f"meta.{key} = {value}\n")
    return buf.getvalue()


def parse_instance(text: str) -> Tuple[Instance, Dict[str, str]]:
    """Parse the text format; raises ``ValueError`` naming the bad line."""
    fields: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key.startswith("meta.") and key not in ("n", "k", "r", "v"):
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value
    for key in ("n", "k", "r", "v"):
        if key not in fields:
            raise ValueError(f"missing required key {key!r}")
    try:
        n = int(fields["n"])
        k = int(fields["k"])
        r = np.array([float(x) for x in fields["r"].split(",")])
        v = np.array([float(x) for x in fields["v"].split(",")])
    except ValueError as exc:
        raise ValueError(f"malformed numeric field: {exc}") from exc
    meta = {key[5:]: value for key, value in fields.items() if key.startswith("meta.")}
    return Instance(n=n, k=k, r=r, v=v), meta


def write_instance(
    path: str, inst: Instance, meta: Optional[Dict[str, str]] = None
) -> None:
    """Write the text format to ``path`` (LF newlines, UTF-8); refused metadata
    leaves no file."""
    text = format_instance(inst, meta)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_instance(path: str) -> Tuple[Instance, Dict[str, str]]:
    """Read an instance file; raises ``ValueError`` on malformed content."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
