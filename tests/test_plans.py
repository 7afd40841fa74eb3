"""Differential tests of the per-key sampling plans and the array ``ci_theta``.

The planned sampler must draw exactly what the earlier one drew
(``sampler_reference``), call for call, and the array-native ``ci_theta``
must return the ``fractional_optimum`` plug-in revenues bit for bit.
"""

import numpy as np
import pytest

from mnlbandit.env import Environment, fork_stream
from mnlbandit.estimators import ci_theta
from mnlbandit.model import Instance, ReducedParams
from mnlbandit.oracle import fractional_optimum
from sampler_reference import sample_epochs as reference_sample_epochs


def _random_instance(rng):
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, n + 1))
    v = rng.uniform(0.0, 1.0, n)
    v[rng.random(n) < 0.25] = 0.0  # zero-weight items
    return Instance(n=n, k=k, r=rng.uniform(0.0, 1.0, n), v=v)


def _random_pair(rng, inst):
    size = int(rng.integers(0, inst.k + 1))
    offered = rng.choice(np.arange(1, inst.n + 1), size=size, replace=False)
    cut = int(rng.integers(0, size + 1))
    z = tuple(sorted(int(i) for i in offered[:cut]))
    s = tuple(sorted(int(i) for i in offered[cut:]))
    return z, s


def _assert_same_batch(new, old):
    assert (new.requested, new.epochs, new.steps, new.truncated) == (
        old.requested, old.epochs, old.steps, old.truncated,
    )
    assert new.z_sum == old.z_sum
    for name in ("x_sums", "x", "z_values", "lengths"):
        a, b = getattr(new, name), getattr(old, name)
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("budgeted", [False, True])
    def test_random_cases(self, budgeted):
        rng = np.random.default_rng(20 + budgeted)
        for case in range(150):
            inst = _random_instance(rng)
            horizon = int(rng.integers(1, 5000)) if budgeted else None
            new = Environment(inst, fork_stream(case, 0), horizon=horizon)
            old = Environment(inst, fork_stream(case, 0), horizon=horizon)
            pairs = [_random_pair(rng, inst) for _ in range(3)]
            for call in range(8):  # repeated pairs hit the plan table
                z, s = pairs[int(rng.integers(0, len(pairs)))]
                epochs = int(rng.integers(1, 400))
                collect = bool(rng.random() < 0.5)
                _assert_same_batch(
                    new.sample_epochs(z, s, epochs, collect=collect),
                    reference_sample_epochs(old, z, s, epochs, collect=collect),
                )
            assert new._rng.bit_generator.state == old._rng.bit_generator.state
            assert new.ledger.steps == old.ledger.steps
            assert new.ledger.cum_regret == old.ledger.cum_regret
            assert new.ledger._segments == old.ledger._segments
            np.testing.assert_array_equal(
                new.ledger.per_item_offer_counts, old.ledger.per_item_offer_counts
            )

    def test_truncation_in_chunks(self):
        # A budgeted batch far beyond the budget is drawn in epoch chunks and
        # refined exactly where the budget ends.
        inst = Instance(n=4, k=3, r=[1.0, 0.6, 0.3, 0.8], v=[0.2, 0.0, 0.9, 0.5])
        for seed, (z, s) in enumerate([((1,), (3, 4)), ((), (2, 3)), ((2, 4), (1,))]):
            new = Environment(inst, fork_stream(seed, 1), horizon=3 * 10**8)
            old = Environment(inst, fork_stream(seed, 1), horizon=3 * 10**8)
            for epochs in (10**7, 10**10, 5):
                batch = new.sample_epochs(z, s, epochs)
                _assert_same_batch(batch, reference_sample_epochs(old, z, s, epochs))
            assert batch.truncated and batch.epochs == 0
            assert new._rng.bit_generator.state == old._rng.bit_generator.state

    def test_lists_and_numpy_ids_draw_the_same(self):
        inst = Instance(n=5, k=3, r=[0.5] * 5, v=[0.3, 0.6, 0.1, 0.0, 0.8])
        new = Environment(inst, fork_stream(3, 0))
        old = Environment(inst, fork_stream(3, 0))
        for z, s in [([1], [2, 5]), ((np.int64(1),), (np.int64(2), np.int64(5)))]:
            _assert_same_batch(
                new.sample_epochs(z, s, 50, collect=True),
                reference_sample_epochs(old, z, s, 50, collect=True),
            )
        assert new._rng.bit_generator.state == old._rng.bit_generator.state


class TestPlanTable:
    def make_env(self):
        inst = Instance(n=5, k=3, r=[0.9, 0.7, 0.5, 0.3, 0.1], v=[0.4] * 5)
        env = Environment(inst, fork_stream(9, 0))
        env.sample_epochs((1,), (2, 3), 10)
        env.sample_epochs((), (4,), 10)
        env.offer((1, 2))
        return env

    @pytest.mark.parametrize(
        "z, s, epochs",
        [
            ((1,), (2, 3), 0),  # a cached pair, epochs < 1
            ((1,), (2, 3), -3),
            ((1,), (1, 2), 10),  # overlapping sets
            ((1, 2), (1,), 10),
            ((1,), (2, 3, 4), 10),  # capacity overflow
            ((1, 2), (3, 4), 10),
            ((), (3, 2), 10),  # unsorted
            ((2, 1), (3,), 10),
            ((), (0,), 10),  # out of range
            ((6,), (), 10),
            ((), (1, 1), 10),  # repeated id
        ],
    )
    def test_invalid_calls_raise_after_caching(self, z, s, epochs):
        env = self.make_env()
        before = (env.ledger.steps, env._rng.bit_generator.state, len(env._offer_cache))
        with pytest.raises(ValueError):
            env.sample_epochs(z, s, epochs)
        after = (env.ledger.steps, env._rng.bit_generator.state, len(env._offer_cache))
        assert after == before

    def test_offer_and_epoch_keys_share_a_plan(self):
        env = self.make_env()
        batch = env.sample_epochs((), (1, 2), 10)  # the key offer((1, 2)) built
        assert batch.epochs == 10 and len(env._offer_cache) == 3

    def test_one_table_and_optimum_per_instance(self):
        env = self.make_env()
        inst = env._inst
        other = Environment(inst, fork_stream(9, 1))
        assert other._offer_cache is env._offer_cache
        assert other.oracle_solution() is env.oracle_solution()
        copy = Environment(Instance(n=5, k=3, r=inst.r, v=inst.v), fork_stream(9, 2))
        assert copy._offer_cache is not env._offer_cache

    def test_table_stays_bounded(self):
        inst = Instance(n=16, k=4, r=np.linspace(0.1, 1.0, 16), v=[0.5] * 16)
        env = Environment(inst, fork_stream(4, 0))
        rng = np.random.default_rng(4)
        seen = set()
        while len(seen) <= 4096:
            pair = _random_pair(rng, inst)
            seen.add(pair)
            env.sample_epochs(*pair, 1)
            assert len(env._offer_cache) <= 4096


class TestCiThetaMatchesFractionalOptimum:
    def test_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            n = int(rng.integers(0, 9))
            items = [int(i) for i in rng.permutation(np.arange(1, n + 1))]
            rewards = {i: float(rng.choice([rng.uniform(), 0.5, 1.0])) for i in items}
            nu_lo = {i: float(rng.choice([rng.uniform(0, 0.5), 0.0, 0.25])) for i in items}
            nu_hi = {i: min(1.0, nu_lo[i] + float(rng.uniform(0, 0.5))) for i in items}
            zeta_lo = float(rng.uniform(0, 0.6))
            zeta_hi = min(1.0, zeta_lo + float(rng.uniform(0, 0.4)))
            capacity = int(rng.integers(0, n + 2))
            expected = tuple(
                fractional_optimum(
                    rewards, ReducedParams(zeta, {i: nu[i] for i in items}), capacity
                ).theta_star
                for nu, zeta in ((nu_lo, zeta_lo), (nu_hi, zeta_hi))
            )
            got = ci_theta(rewards, items, nu_lo, nu_hi, zeta_lo, zeta_hi, capacity)
            assert got == expected

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ci_theta({1: 0.5}, [1], {1: 0.1}, {1: 0.2}, 0.0, 0.1, -1)
