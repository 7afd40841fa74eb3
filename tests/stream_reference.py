"""The digest of a replication's stream, by master seed and index.

The CLI writes ``generator_digest`` of each replication's generator in the
CSV ``seed`` column; the tests recompute it from the two numbers that name
the stream.
"""

from mnlbandit.env import fork_stream, generator_digest


def stream_digest(master_seed: int, replication_index: int) -> int:
    """Deterministic 64-bit digest identifying a replication's stream."""
    return generator_digest(fork_stream(master_seed, replication_index))
