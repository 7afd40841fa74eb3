"""Tests for the pure choice-model mathematics."""

import numpy as np
import pytest

from mnlbandit.model import Instance, revenue, validate_assortment
from mnlbandit.oracle import brute_force_optimum
from model_reference import (
    ReducedParams,
    advantage_scores,
    choice_probabilities,
    reduce_params,
    reduced_revenue,
)


def random_instance(rng, n_max=8, k_max=None):
    n = int(rng.integers(1, n_max + 1))
    k_hi = n if k_max is None else min(n, k_max)
    k = int(rng.integers(1, k_hi + 1))
    return Instance(n=n, k=k, r=rng.uniform(0, 1, n), v=rng.uniform(0, 1, n))


class TestInstanceValidation:
    def test_valid_instance_round_trips_fields(self):
        inst = Instance(n=3, k=2, r=[0.1, 0.5, 1.0], v=[0.0, 0.3, 1.0])
        assert inst.n == 3 and inst.k == 2
        np.testing.assert_array_equal(inst.r, [0.1, 0.5, 1.0])
        np.testing.assert_array_equal(inst.v, [0.0, 0.3, 1.0])

    def test_arrays_are_read_only(self):
        inst = Instance(n=2, k=1, r=[0.5, 0.5], v=[0.5, 0.5])
        with pytest.raises(ValueError):
            inst.r[0] = 0.0
        with pytest.raises(ValueError):
            inst.v[0] = 0.0

    def test_input_arrays_are_copied(self):
        r = np.array([0.5, 0.5])
        inst = Instance(n=2, k=1, r=r, v=[0.5, 0.5])
        r[0] = 0.9
        assert inst.r[0] == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, k=1, r=[], v=[]),
            dict(n=2, k=0, r=[0.5, 0.5], v=[0.5, 0.5]),
            dict(n=2, k=3, r=[0.5, 0.5], v=[0.5, 0.5]),
            dict(n=2, k=1, r=[0.5], v=[0.5, 0.5]),
            dict(n=2, k=1, r=[0.5, 1.5], v=[0.5, 0.5]),
            dict(n=2, k=1, r=[0.5, -0.1], v=[0.5, 0.5]),
            dict(n=2, k=1, r=[0.5, 0.5], v=[0.5, np.nan]),
            dict(n=2, k=1, r=[0.5, 0.5], v=[0.5, np.inf]),
        ],
    )
    def test_invalid_instances_raise(self, kwargs):
        with pytest.raises(ValueError):
            Instance(**kwargs)


class TestValidateAssortment:
    def test_accepts_sorted_tuples_and_empty(self):
        assert validate_assortment((1, 3, 5), 5) == (1, 3, 5)
        assert validate_assortment([], 5) == ()
        assert validate_assortment(range(1, 4), 5) == (1, 2, 3)
        for s in (np.array([2, 4]), (np.int64(2), np.uint8(4))):  # as Python ints
            assert [type(i) for i in validate_assortment(s, 5)] == [int, int]

    @pytest.mark.parametrize("s", [(2, 1), (1, 1), (0, 1), (1, 6)])
    def test_rejects_unsorted_duplicate_or_out_of_range(self, s):
        with pytest.raises(ValueError):
            validate_assortment(s, 5)

    @pytest.mark.parametrize(
        "s", [(1.9, 2.2), (1.0, 2.0), ("1", "2"), (np.float64(2.0),), (1, None), (True, 2),
              (np.True_,)]
    )
    def test_rejects_ids_that_are_not_integers(self, s):
        # never truncated: (1.9, 2.2) is not (1, 2), and (True, 2) is not (1, 2)
        with pytest.raises(ValueError, match="^assortment item must be an integer, got "):
            validate_assortment(s, 6)


class TestChoiceProbabilities:
    def test_two_unit_weights_split_evenly_with_no_purchase(self):
        inst = Instance(n=2, k=2, r=[1.0, 1.0], v=[1.0, 1.0])
        probs = choice_probabilities(inst, (1, 2))
        np.testing.assert_allclose(
            [probs[0], probs[1], probs[2]], [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15
        )

    def test_empty_assortment_forces_no_purchase(self):
        inst = Instance(n=3, k=2, r=[1.0, 1.0, 1.0], v=[0.2, 0.5, 0.9])
        assert choice_probabilities(inst, ()) == {0: 1.0}

    def test_single_unit_weight_item_is_a_coin_flip(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[1.0])
        probs = choice_probabilities(inst, (1,))
        np.testing.assert_allclose([probs[0], probs[1]], [0.5, 0.5], atol=1e-15)

    def test_probabilities_sum_to_one_across_sizes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            inst = random_instance(rng)
            from itertools import combinations

            for size in range(0, inst.k + 1):
                for s in combinations(range(1, inst.n + 1), size):
                    probs = choice_probabilities(inst, s)
                    assert set(probs) == {0, *s}
                    assert all(p >= 0.0 for p in probs.values())
                    np.testing.assert_allclose(sum(probs.values()), 1.0, atol=1e-12)

    def test_invalid_item_raises(self):
        inst = Instance(n=2, k=2, r=[1.0, 1.0], v=[0.5, 0.5])
        with pytest.raises(ValueError):
            choice_probabilities(inst, (1, 3))


class TestRevenue:
    def test_single_unit_item_yields_half(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[1.0])
        np.testing.assert_allclose(revenue(inst, (1,)), 0.5, atol=1e-15)

    def test_empty_assortment_earns_zero(self):
        inst = Instance(n=3, k=3, r=[1.0, 1.0, 1.0], v=[0.5, 0.5, 0.5])
        assert revenue(inst, ()) == 0.0

    def test_matches_direct_formula_on_random_subsets(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            inst = random_instance(rng)
            size = int(rng.integers(0, inst.n + 1))
            s = tuple(sorted(rng.choice(inst.n, size=size, replace=False) + 1))
            num = sum(inst.v[i - 1] * inst.r[i - 1] for i in s)
            den = 1.0 + sum(inst.v[i - 1] for i in s)
            np.testing.assert_allclose(revenue(inst, s), num / den, rtol=1e-12)

    def test_revenue_bounded_by_extreme_rewards(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            inst = random_instance(rng)
            size = int(rng.integers(0, inst.n + 1))
            s = tuple(sorted(rng.choice(inst.n, size=size, replace=False) + 1))
            rev = revenue(inst, s)
            assert 0.0 <= rev <= float(inst.r.max())

    def test_matches_monte_carlo_mean_reward(self):
        # Expected per-step reward from sampled purchases equals the revenue
        # formula: simulate a million purchases on a fixed 5-item assortment.
        rng = np.random.default_rng(14)
        inst = Instance(n=5, k=5, r=rng.uniform(0, 1, 5), v=rng.uniform(0, 1, 5))
        s = (1, 2, 3, 4, 5)
        probs = choice_probabilities(inst, s)
        outcomes = np.array([0, *s])
        p = np.array([probs[c] for c in outcomes])
        rewards = np.array([0.0, *(inst.r[i - 1] for i in s)])
        trials = 1_000_000
        draws = rng.choice(len(outcomes), size=trials, p=p)
        sample_mean = rewards[draws].mean()
        # exact standard error of the sampled per-step reward
        mean = float((p * rewards).sum())
        se = float(np.sqrt(((p * (rewards - mean) ** 2).sum()) / trials))
        assert abs(sample_mean - revenue(inst, s)) <= 3 * se


class TestReduction:
    def test_empty_pending_set_returns_zeta(self):
        params = ReducedParams(zeta=0.37, nu={1: 0.2})
        assert reduced_revenue({1: 1.0}, params, ()) == 0.37

    def test_empty_pinned_set_recovers_plain_revenue(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            inst = random_instance(rng)
            params = reduce_params(inst, ())
            assert params.zeta == 0.0
            rewards = {i: float(inst.r[i - 1]) for i in range(1, inst.n + 1)}
            size = int(rng.integers(0, inst.n + 1))
            s = tuple(sorted(rng.choice(inst.n, size=size, replace=False) + 1))
            np.testing.assert_allclose(
                reduced_revenue(rewards, params, s), revenue(inst, s), rtol=1e-12
            )

    def test_swap_identity_for_random_pinned_subsets(self):
        # For any S and A subset of S: R(S, v) = R(S \ A, nu, zeta).
        rng = np.random.default_rng(16)
        for _ in range(300):
            inst = random_instance(rng)
            size = int(rng.integers(0, inst.n + 1))
            s = tuple(sorted(rng.choice(inst.n, size=size, replace=False) + 1))
            a_size = int(rng.integers(0, len(s) + 1)) if s else 0
            a = tuple(sorted(rng.choice(s, size=a_size, replace=False))) if a_size else ()
            params = reduce_params(inst, a)
            rewards = {i: float(inst.r[i - 1]) for i in range(1, inst.n + 1)}
            rest = tuple(i for i in s if i not in set(a))
            np.testing.assert_allclose(
                reduced_revenue(rewards, params, rest),
                revenue(inst, s),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_reduce_params_values(self):
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.4, 0.3])
        params = reduce_params(inst, (1,))
        np.testing.assert_allclose(params.zeta, 0.5 / 1.5, rtol=1e-15)
        assert set(params.nu) == {2, 3}
        np.testing.assert_allclose(params.nu[2], 0.4 / 1.5, rtol=1e-15)
        np.testing.assert_allclose(params.nu[3], 0.3 / 1.5, rtol=1e-15)

    @pytest.mark.parametrize(
        "zeta,nu",
        [
            (-0.1, {}),
            (1.1, {}),
            (0.5, {0: 0.5}),
            (0.5, {1: -0.1}),
            (0.5, {1: 1.5}),
            (0.5, {1: np.nan}),
        ],
    )
    def test_reduced_params_validation(self, zeta, nu):
        with pytest.raises(ValueError):
            ReducedParams(zeta=zeta, nu=nu)


class TestAdvantageScores:
    def test_unit_item_at_half_revenue(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[1.0])
        scores = advantage_scores(inst, 0.5)
        np.testing.assert_allclose(scores[1], 0.5, atol=1e-15)

    def test_matches_componentwise_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            inst = random_instance(rng)
            theta = float(rng.uniform(0, 1))
            scores = advantage_scores(inst, theta)
            for i in range(1, inst.n + 1):
                np.testing.assert_allclose(
                    scores[i], inst.v[i - 1] * (inst.r[i - 1] - theta), rtol=1e-15
                )

    def test_optimal_scores_sum_to_optimal_revenue(self):
        # sum of scores over the optimal assortment equals its revenue.
        rng = np.random.default_rng(18)
        for _ in range(200):
            inst = random_instance(rng)
            opt = brute_force_optimum(inst)
            scores = advantage_scores(inst, opt.theta_star)
            total = sum(scores[i] for i in opt.s_star)
            np.testing.assert_allclose(total, opt.theta_star, atol=1e-9)
