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

No family loads numpy: a random family draws numpy's stream
(``Generator(PCG64(SeedSequence(seed)))``) in integer arithmetic (`_draws`), and
the lower-bound family and the file format compute on Python floats.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence, Tuple

from .model import Instance, _as_int, _check_shape

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

    ``uniform``/``dense``/``sparse`` require ``seed``, a non-negative integer
    (numpy integers pass, a bool does not), and return the first draw of
    ``Generator(PCG64(SeedSequence(seed)))``: ``r``, then ``v``, each mapped
    into the family's range as numpy's ``uniform`` maps it.  ``lower-bound``
    requires ``gaps`` (one per item beyond the capacity) and ignores ``seed``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {FAMILIES}")
    if family == "lower-bound":
        if gaps is None:
            raise ValueError("the lower-bound family needs a gap sequence")
        return lower_bound_instance(n, k, gaps)
    if seed is None:
        raise ValueError(f"the {family} family needs a seed")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    _check_shape(n, k)  # before any draw: the sparse family divides by k
    low, high = {"uniform": (0.0, 1.0), "dense": (0.5, 1.0), "sparse": (0.5 / k, 1.5 / k)}[family]
    draws = _draws(seed, 2 * n)
    r = draws[:n]  # numpy's uniform(0, 1) is 0.0 + 1.0 * u: u itself
    v = [low + (high - low) * u for u in draws[n:]]  # numpy's uniform(low, high)
    if family == "sparse":
        v = [min(1.0, w) for w in v]
    return Instance(n=n, k=k, r=r, v=v)


# ---------------------------------------------------------------------------
# numpy's PCG64 stream in integer arithmetic: PCG64 is O'Neill's XSL-RR
# 128/64 generator ("PCG: A Family of Simple Fast Space-Efficient Statistically
# Good Algorithms for Random Number Generation", 2014), seeded as numpy seeds it
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as Python ints.

    The seed's 32-bit words, least significant first, are hashed into a pool
    of four words, every pool word is mixed into every other, and any words
    beyond four are mixed into each; the pool is then hashed out to eight
    words, read in pairs as little-endian 64-bit words.  The constants are
    numpy's (``numpy/random/bit_generator.pyx``).
    """
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _draws(seed: int, count: int) -> List[float]:
    """The first ``count`` doubles of ``Generator(PCG64(SeedSequence(seed)))``,
    each ``(x >> 11) * 2**-53`` of a 64-bit output ``x``, as ``random()`` draws them.

    PCG64 seeds its 128-bit LCG from the four words, high word first, as
    ``initstate`` and ``initseq``: ``state = 0``, ``inc = initseq << 1 | 1``,
    a step, ``state += initstate``, a step.  Each output steps the LCG and
    returns XSL-RR of the new state: its two halves xor-ed, rotated right by
    the state's top six bits.
    """
    state_hi, state_lo, seq_hi, seq_lo = _seed_words(seed)
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
    mult, mask128, mask64 = _PCG_MULT, _MASK128, _MASK64  # locals, read faster in the loop
    out = []
    append = out.append
    for _ in range(count):
        state = (state * mult + inc) & mask128
        x = (state ^ state >> 64) & mask64
        # x rotated right by the top six bits, less its low 11 bits: the 128-bit
        # word (x, x) shifted right by rot + 11, cut to 53 bits
        append(((x * 0x10000000000000001 >> (state >> 122) + 11) & 0x1FFFFFFFFFFFFF) * 2.0**-53)
    return out


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
    try:
        gaps = tuple(map(float, gaps))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"gaps must be a sequence of numbers: {exc}") from None
    if len(gaps) != n - k:
        raise ValueError(
            f"need exactly n - k = {n - k} gaps for the non-optimal items, got {len(gaps)}"
        )
    if not all(0.0 < d <= 1.0 / (16.0 * k) for d in gaps):  # NaN fails
        raise ValueError("every gap must lie in (0, 1/(16 k)]")

    if k == 1:
        # Optimal set {1} must carry total weight 1 on its own.
        v = [1.0]
    else:
        v = [1.0 / k + 1.0 / (2.0 * k * (k - 1))] * (k - 1) + [1.0 / (2.0 * k)]
    pivot = v[k - 1]
    # Swapping the lightest optimal item (weight w_k = pivot) for item k+j
    # changes the optimal-set weight sum from 1 to 1 - g_j, which moves the
    # revenue from 1/2 to (1 - g_j)/(2 - g_j); solving
    # 1/2 - (1 - g)/(2 - g) = d gives g = 4 d / (1 + 2 d).
    for j, d in enumerate(gaps):
        w = pivot - 4.0 * d / (1.0 + 2.0 * d)
        if w >= pivot:
            raise ValueError(
                f"gap {d!r} is below float resolution: item {k + j + 1}'s "
                f"weight rounds onto v_{k} = {pivot!r}, a gap of 0"
            )
        v.append(w)
    return Instance(n=n, k=k, r=[1.0] * n, v=v)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _fmt_floats(values: Sequence[float]) -> str:
    return ", ".join(format(x, ".17g") for x in values)


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
        r = [float(x) for x in fields["r"].split(",")]
        v = [float(x) for x in fields["v"].split(",")]
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
