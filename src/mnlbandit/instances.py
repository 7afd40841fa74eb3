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
from .oracle import lower_bound_instance

__all__ = [
    "FAMILIES",
    "generate_instance",
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
