"""Per-epoch detail of an epoch batch, drawn after its aggregates.

``Environment.sample_epochs`` draws only a batch's sufficient statistics.
Given them, the per-epoch purchase totals are a uniform composition of the
purchases into the completed epochs, and the item labels are a uniform
shuffle of the item counts.  `epoch_detail` draws both from the
environment's generator, right after the batch, so a test can check the
epoch law one epoch at a time.
"""

from typing import Tuple

import numpy as np

from mnlbandit.env import Environment, EpochBatch


def epoch_detail(env: Environment, batch: EpochBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Per-epoch item counts ``x`` (``epochs x |S|``) and epoch ``lengths``.

    Draws the composition, then the labels, from ``env._rng``; each length
    is one plus the epoch's purchase total.  Call it right after the batch.
    """
    rng = env._rng
    done, tracked = batch.epochs, len(batch.x_sums)
    totals = _composition(rng, int(batch.x_sums.sum()), done)
    labels = rng.permutation(np.repeat(np.arange(tracked), batch.x_sums))
    owner = np.repeat(np.arange(done), totals)
    x = np.bincount(owner * tracked + labels, minlength=done * tracked).reshape(
        done, tracked
    )
    return x, 1 + totals


def _composition(rng: np.random.Generator, total: int, parts: int) -> np.ndarray:
    """Uniformly random composition of ``total`` into ``parts`` parts >= 0.

    Stars and bars: ``parts - 1`` bar positions chosen among
    ``total + parts - 1`` slots; part sizes are the gaps between bars.
    """
    if parts == 0:
        return np.zeros(0, dtype=np.int64)
    slots = total + parts - 1
    bars = np.sort(rng.choice(slots, size=parts - 1, replace=False))
    return np.diff(bars, prepend=-1, append=slots) - 1
