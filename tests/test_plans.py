"""Differential tests of the per-key sampling plans and of ``ci_theta``.

The planned sampler must draw exactly what the v3 law reference
(``sampler_reference``) draws, call for call, for every batch, cut by the step
budget or not, also when per-epoch detail (``epoch_detail``) is drawn after a
batch.  ``ci_theta`` and its list-interface ``fractional_optimum`` must return
what the dict-interface reference solve (``oracle_reference``) returns, bit for
bit.
"""

import numpy as np
import pytest

from mnlbandit import env as env_module
from mnlbandit.env import Environment, fork_stream
from mnlbandit.estimators import ci_theta, est_rough
from mnlbandit.model import Instance
from mnlbandit.oracle import fractional_optimum
from epoch_detail import epoch_detail
from model_reference import ReducedParams
from offer_reference import offer
from oracle_reference import fractional_optimum as reference_fractional_optimum
from sampler_reference import sample_epochs as reference_sample_epochs


def _random_instance(rng, n_max=8):
    n = int(rng.integers(2, n_max + 1))
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


def _assert_same_draws(new_env, old_env, z, s, epochs, detail=False):
    """Sample one batch in each environment (and its per-epoch detail when
    asked) and require equal results, ledgers and generator states, whether
    or not the step budget cuts the batch; return the new batch."""
    new = new_env.sample_epochs(z, s, epochs)
    old = reference_sample_epochs(old_env, z, s, epochs)
    assert (new.requested, new.epochs, new.steps, new.z_sum, new.truncated) == (
        old.requested, old.epochs, old.steps, old.z_sum, old.truncated,
    )
    assert (new_env.ledger.steps, new_env.ledger.cum_regret, new_env.ledger._segments) == (
        old_env.ledger.steps, old_env.ledger.cum_regret, old_env.ledger._segments,
    )
    arrays = [(new.x_sums, old.x_sums)]
    if detail:
        arrays += zip(epoch_detail(new_env, new), epoch_detail(old_env, old))
    for a, b in arrays:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert new_env._rng.bit_generator.state == old_env._rng.bit_generator.state
    return new


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("budgeted", [False, True])
    def test_random_cases(self, budgeted):
        rng = np.random.default_rng(20 + budgeted)
        cuts = fits = 0
        widths = set()
        for case in range(150):
            # every third instance is wide enough for numpy's pairwise sums:
            # eight accumulators past 8 items, recursion past 128
            inst = _random_instance(rng, 300 if case % 3 == 0 else 8)
            horizon = int(rng.integers(1, 5000)) if budgeted else None
            new = Environment(inst, fork_stream(case, 0), horizon=horizon)
            old = Environment(inst, fork_stream(case, 0), horizon=horizon)
            pairs = [_random_pair(rng, inst) for _ in range(3)]
            for call in range(8):  # repeated pairs hit the plan table
                z, s = pairs[int(rng.integers(0, len(pairs)))]
                epochs = int(rng.integers(1, 400))
                detail = bool(rng.random() < 0.5)
                cut = _assert_same_draws(new, old, z, s, epochs, detail).truncated
                cuts += cut
                fits += not cut
                widths.update((len(z) + 1, len(s)))  # the weight vectors summed
        assert fits > 0 and (cuts > 0) == budgeted
        assert max(widths) > 128 and any(8 < w <= 128 for w in widths)

    @pytest.mark.parametrize("horizon", [None, 30_000], ids=["unbudgeted", "budgeted"])
    @pytest.mark.parametrize(
        "z, s",
        [
            pytest.param((), (3,), id="one-item"),
            pytest.param((), (1, 3, 4), id="items"),
            pytest.param((1, 4), (3,), id="one-item-with-stops"),
            pytest.param((2, 5), (1,), id="weightless-stops"),
            pytest.param((1,), (2, 3), id="weightless-tracked-item"),
        ],
    )
    def test_draw_free_splits(self, z, s, horizon):
        # One-category splits and weightless stopping sets draw nothing; the
        # budgeted runs fit their first batches, are cut undrawn by one whose
        # epochs alone overrun the budget, and then again on a spent budget.
        inst = Instance(n=5, k=3, r=[0.9, 0.7, 0.5, 0.3, 0.1], v=[0.3, 0.0, 0.8, 0.6, 0.0])
        new = Environment(inst, fork_stream(6, 2), horizon=horizon)
        old = Environment(inst, fork_stream(6, 2), horizon=horizon)
        cuts = [_assert_same_draws(new, old, z, s, epochs).truncated
                for epochs in (1, 7, 300, 5000, 10**6, 3)]
        if horizon is None:
            assert not any(cuts)
        else:
            assert cuts == [False] * 4 + [True] * 2
            assert new.ledger.steps == horizon

    def test_a_batch_far_past_the_budget_is_cut(self):
        # Batches that fit a large budget draw as the reference does, also one
        # of 10**8 epochs; one whose epochs alone overrun what is left is cut
        # undrawn, however many it asks for, and so is any on a spent budget.
        inst = Instance(n=4, k=3, r=[1.0, 0.6, 0.3, 0.8], v=[0.2, 0.0, 0.9, 0.5])
        for seed, (z, s) in enumerate([((1,), (3, 4)), ((), (2, 3)), ((2, 4), (1,))]):
            new = Environment(inst, fork_stream(seed, 1), horizon=3 * 10**8)
            old = Environment(inst, fork_stream(seed, 1), horizon=3 * 10**8)
            cuts = [_assert_same_draws(new, old, z, s, epochs).truncated
                    for epochs in (10**7, 10**8, 10**10, 5)]
            assert cuts == [False, False, True, True]
            assert new.ledger.steps == 3 * 10**8

    def test_lists_and_numpy_ids_draw_the_same(self):
        inst = Instance(n=5, k=3, r=[0.5] * 5, v=[0.3, 0.6, 0.1, 0.0, 0.8])
        new = Environment(inst, fork_stream(3, 0))
        old = Environment(inst, fork_stream(3, 0))
        for z, s in [([1], [2, 5]), ((np.int64(1),), (np.int64(2), np.int64(5)))]:
            _assert_same_draws(new, old, z, s, 50, detail=True)
        assert new._rng.bit_generator.state == old._rng.bit_generator.state


class TestPlanTable:
    def make_env(self):
        inst = Instance(n=5, k=3, r=[0.9, 0.7, 0.5, 0.3, 0.1], v=[0.4] * 5)
        env = Environment(inst, fork_stream(9, 0))
        env.sample_epochs((1,), (2, 3), 10)
        env.sample_epochs((), (4,), 10)
        offer(env, (1, 2))
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
            ((), (4.0,), 10),  # a float id equal to a cached int one
        ],
    )
    def test_invalid_calls_raise_after_caching(self, z, s, epochs):
        env = self.make_env()
        before = (env.ledger.steps, env._rng.bit_generator.state, len(env._plans))
        with pytest.raises(ValueError):
            env.sample_epochs(z, s, epochs)
        after = (env.ledger.steps, env._rng.bit_generator.state, len(env._plans))
        assert after == before

    def test_offer_and_epoch_keys_share_a_plan(self):
        env = self.make_env()
        batch = env.sample_epochs((), (1, 2), 10)  # the key offer(env, (1, 2)) built
        assert batch.epochs == 10 and len(env._plans) == 3

    def test_one_table_and_optimum_per_instance(self):
        env = self.make_env()
        inst = env._inst
        other = Environment(inst, fork_stream(9, 1))
        assert other._plans is env._plans
        assert other.oracle_solution() is env.oracle_solution()
        copy = Environment(Instance(n=5, k=3, r=inst.r, v=inst.v), fork_stream(9, 2))
        assert copy._plans is not env._plans

    def test_table_stays_bounded(self):
        inst = Instance(n=16, k=4, r=np.linspace(0.1, 1.0, 16), v=[0.5] * 16)
        env = Environment(inst, fork_stream(4, 0))
        bound = 4 * inst.n + 1024
        rng = np.random.default_rng(4)
        seen, sizes = set(), set()
        while len(seen) <= bound:
            pair = _random_pair(rng, inst)
            seen.add(pair)
            env.sample_epochs(*pair, 1)
            sizes.add(len(env._plans))
        assert max(sizes) == bound and len(env._plans) < bound

    def test_wide_instance_plans_each_pair_once(self, monkeypatch):
        # two rough passes, on two environments of one instance, offer each of
        # 4,500 items alone twice: every plan is built once and then reused
        n = 4500
        inst = Instance(n=n, k=2, r=np.linspace(0.1, 1.0, n), v=np.full(n, 0.5))
        build, builds = env_module._Plan.build, []

        def counted(*args):
            builds.append(args[2:])  # the (S, Z) pair
            return build(*args)

        monkeypatch.setattr(env_module._Plan, "build", counted)
        for replication in range(2):
            est_rough(Environment(inst, fork_stream(5, replication)), 0.1)
        assert len(builds) == n


class TestCiThetaMatchesFractionalOptimum:
    """The list-interface ``fractional_optimum`` and ``ci_theta`` against the
    dict-interface reference solve, bit for bit: positions, revenue, ends and
    the upper end's set."""

    @staticmethod
    def _check(rewards, items, nu_lo, nu_hi, zeta_lo, zeta_hi, capacity):
        ids = sorted(items)
        r = [rewards[i] for i in ids]
        wants = []
        for nu, zeta in ((nu_lo, zeta_lo), (nu_hi, zeta_hi)):
            want = reference_fractional_optimum(
                rewards, ReducedParams(zeta, {i: nu[i] for i in ids}), capacity
            )
            s, theta = fractional_optimum([nu[i] for i in ids], r, zeta, capacity)
            assert (tuple(ids[j] for j in s), theta) == (want.s_star, want.theta_star)
            wants.append(want)
        got = ci_theta(rewards, items, nu_lo, nu_hi, zeta_lo, zeta_hi, capacity)
        lo, hi = wants
        assert got == (lo.theta_star, hi.theta_star, hi.s_star)

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
            self._check(rewards, items, nu_lo, nu_hi, zeta_lo, zeta_hi, capacity)
        rewards = {1: 0.9, 2: 0.6, 3: 0.3, 4: 1.0}
        nu = {1: 0.4, 2: 0.7, 3: 0.2, 4: 0.5}
        zero = dict.fromkeys(nu, 0.0)
        tied = dict.fromkeys(nu, 0.25)
        for args in [
            (rewards, [2, 4, 1, 3], zero, nu, 0.1, 0.3, 0),  # capacity 0
            (rewards, [1, 2, 3, 4], zero, zero, 0.2, 0.4, 2),  # all-zero weights
            (rewards, [1, 2, 3, 4], nu, nu, 1.0, 1.0, 3),  # zeta = 1
            (rewards, [3, 1, 4, 2], tied, tied, 0.0, 0.0, 2),  # tied weights
            (dict.fromkeys(nu, 0.8), [4, 3, 2, 1], tied, tied, 0.1, 0.2, 3),  # tied scores
        ]:
            self._check(*args)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ci_theta({1: 0.5}, [1], {1: 0.1}, {1: 0.2}, 0.0, 0.1, -1)
