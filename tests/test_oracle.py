"""Tests for the exact optimization oracles and the hard-instance family."""

from itertools import combinations

import numpy as np
import pytest

from mnlbandit.instances import generate_instance, lower_bound_instance
from mnlbandit.model import Instance, revenue
from mnlbandit.oracle import (
    BRUTE_FORCE_MAX_N,
    brute_force_optimum,
    exact_optimum,
    fractional_optimum,
    revenue_margin,
    suboptimality_gaps,
)
from model_reference import ReducedParams, advantage_scores, reduced_revenue
from oracle_reference import _solve, deleted_item_gaps, enumerated_gaps, enumerated_margin, select_f


def random_instance(rng, n_max=8, k_max=None):
    n = int(rng.integers(1, n_max + 1))
    k_hi = n if k_max is None else min(n, k_max)
    k = int(rng.integers(1, k_hi + 1))
    return Instance(n=n, k=k, r=rng.uniform(0, 1, n), v=rng.uniform(0, 1, n))


def tied_instances(rng, count):
    """``count`` random instances of up to 40 items, about a fifth of the
    weights 0, and a third of the weights and rewards on coarse tied grids;
    then lower-bound instances whose non-optimal items all tie."""
    insts = []
    for _ in range(count):
        n = int(rng.integers(1, 41))
        v = rng.choice([0.0, 0.25, 0.5, 1.0], n) if rng.random() < 0.3 else rng.uniform(0, 1, n)
        r = rng.choice([0.5, 1.0], n) if rng.random() < 0.3 else rng.uniform(0, 1, n)
        insts.append(Instance(n=n, k=int(rng.integers(1, n + 1)), r=r, v=v * (rng.random(n) > 0.2)))
    for k, gap in ((1, 0.01), (2, 1e-3), (3, 1e-5)):
        insts.append(lower_bound_instance(3 * k, k, [gap] * (2 * k)))
    return insts


class TestSelectF:
    def test_nonpositive_scores_select_nothing(self):
        assert select_f({1: 0.0, 2: -0.5, 3: -1e-12}, 3) == ()

    def test_strict_ordering_keeps_top_capacity(self):
        assert select_f({1: 3.0, 2: 2.0, 3: 1.0}, 2) == (1, 2)

    def test_score_ties_break_toward_smaller_id(self):
        assert select_f({3: 1.0, 1: 1.0, 2: 1.0}, 2) == (1, 2)

    def test_capacity_zero_selects_nothing(self):
        assert select_f({1: 5.0}, 0) == ()

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            select_f({1: 1.0}, -1)

    def test_optimal_scores_recover_the_optimal_assortment(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            inst = random_instance(rng)
            opt = brute_force_optimum(inst)
            scores = advantage_scores(inst, opt.theta_star)
            assert select_f(scores, inst.k) == opt.s_star


class TestFractionalOptimum:
    def test_single_unit_item(self):
        s, theta = fractional_optimum([1.0], [1.0], 0.0, 1)
        np.testing.assert_allclose(theta, 0.5, atol=1e-11)
        assert s == [0]

    def test_offset_only_problem_returns_offset(self):
        for zeta in (0.0, 0.37, 1.0):
            s, theta = fractional_optimum([0.0, 0.0], [1.0, 0.5], zeta, 2)
            np.testing.assert_allclose(theta, zeta, atol=1e-11)
            assert s == []

    def test_pinned_two_item_problem(self):
        # With zeta=0.3, nu=(0.5, 0.2), r=(1.0, 0.5), capacity 2, item 2's
        # reward falls below the optimum so only item 1 is kept:
        # theta solves theta = 0.3 + 0.5 (1 - theta)  =>  theta = 8/15.
        s, theta = fractional_optimum([0.5, 0.2], [1.0, 0.5], 0.3, 2)
        np.testing.assert_allclose(theta, 8.0 / 15.0, atol=1e-11)
        assert s == [0]

    @pytest.mark.parametrize("nu, r", [([0.5], [1.0, 0.5]), ([0.5, 0.4], [1.0])])
    def test_misaligned_inputs_rejected(self, nu, r):
        with pytest.raises(ValueError, match="one entry per pending item"):
            fractional_optimum(nu, r, 0.0, 2)

    def test_matches_exhaustive_search_on_random_reduced_problems(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = 6
            zeta = float(rng.uniform(0, 1))
            nu = [float(x) for x in rng.uniform(0, 1, n)]
            r = [float(x) for x in rng.uniform(0, 1, n)]
            m = int(rng.integers(0, n + 1))
            params = ReducedParams(zeta, dict(enumerate(nu, start=1)))
            rewards = dict(enumerate(r, start=1))
            _, theta = fractional_optimum(nu, r, zeta, m)
            best = zeta  # empty pending assortment
            for size in range(1, m + 1):
                for s in combinations(range(1, n + 1), size):
                    best = max(best, reduced_revenue(rewards, params, s))
            np.testing.assert_allclose(theta, best, atol=1e-9)

    def test_solution_revenue_matches_theta(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            zeta = float(rng.uniform(0, 1))
            nu = [float(x) for x in rng.uniform(0, 1, n)]
            r = [float(x) for x in rng.uniform(0, 1, n)]
            m = int(rng.integers(0, n + 1))
            s, theta = fractional_optimum(nu, r, zeta, m)
            params = ReducedParams(zeta, dict(enumerate(nu, start=1)))
            ids = [j + 1 for j in s]
            np.testing.assert_allclose(
                theta, reduced_revenue(dict(enumerate(r, start=1)), params, ids), atol=1e-9
            )
            assert len(s) <= m and s == sorted(set(s))

    def test_raising_any_parameter_never_lowers_the_optimum(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = 5
            zeta = float(rng.uniform(0, 0.9))
            nu = [float(x) for x in rng.uniform(0, 0.9, n)]
            r = [float(x) for x in rng.uniform(0, 1, n)]
            m = int(rng.integers(0, n + 1))
            base = fractional_optimum(nu, r, zeta, m)[1]
            bumped_zeta = fractional_optimum(nu, r, min(1.0, zeta + 0.05), m)[1]
            assert bumped_zeta >= base - 1e-10
            j = int(rng.integers(0, n))
            nu2 = list(nu)
            nu2[j] = min(1.0, nu2[j] + 0.1)
            bumped_nu = fractional_optimum(nu2, r, zeta, m)[1]
            assert bumped_nu >= base - 1e-10

    def test_matches_the_array_kernel_bit_for_bit(self):
        # The float loop against _solve on arrays: the same positions, and the
        # revenue summed over them in ascending position order.
        def check(nu, r, zeta, m):
            s, theta = fractional_optimum(nu, r, zeta, m)
            assert s == _solve(np.array(nu), np.array(r), zeta, m).tolist()
            num, den = zeta, 1.0
            for j in s:
                num += nu[j] * r[j]
                den += nu[j]
            assert theta.hex() == (num / den).hex()
            return s

        rng = np.random.default_rng(32)
        for _ in range(2400):
            n = int(rng.integers(1, 65))
            if rng.random() < 0.3:  # coarse grids: tied scores, r at theta*
                nu = rng.choice([0.0, 0.25, 0.5, 1.0], n)
                r = rng.choice([0.25, 0.5, 0.75, 1.0], n)
            else:  # repeated (nu, r) pairs tie exactly; some weights zero
                pick = rng.integers(0, int(rng.integers(1, n + 1)), n)
                nu = (rng.uniform(0, 1, n) * (rng.random(n) > 0.2))[pick]
                r = rng.uniform(0, 1, n)[pick]
            zeta = float(rng.choice([rng.uniform(), 0.0, 0.5, 1.0]))
            check(nu.tolist(), r.tolist(), zeta, int(rng.integers(0, n + 2)))
            zeta = float(r.max() + (1.0 - r.max()) * rng.uniform())  # >= every reward
            assert check(nu.tolist(), r.tolist(), zeta, int(rng.integers(0, n + 2))) == []
        for _ in range(4):  # wide problems, as in a 4000-item run's phase 1
            nu = rng.uniform(0, 1, 4000) * (rng.random(4000) > 0.1)
            r = rng.uniform(0, 1, 4000)
            m = int(rng.choice([1, 100, 4000]))
            check(nu.tolist(), r.tolist(), float(rng.uniform(0, 0.5)), m)
        tied = [0.5] * 6  # six equal scores, capacities through every cut
        for m in range(8):
            assert check(tied, [1.0] * 6, 0.0, m) == list(range(min(m, 6)))

    def test_a_warm_start_returns_the_cold_solve(self):
        # Started from the revenue of any feasible pending set (at least zeta,
        # summed as the solve sums it), the loop returns the cold start's
        # positions and revenue bits, and so does the solve over only the
        # items that can score above that start: weight > 0 and r > start.
        def revenue_of(nu, r, zeta, s):
            num, den = zeta, 1.0
            for j in s:
                num += nu[j] * r[j]
                den += nu[j]
            return num / den

        rng = np.random.default_rng(33)
        for _ in range(1500):
            n = int(rng.integers(1, 25))
            if rng.random() < 0.4:  # coarse grids: tied scores, r at theta*
                nu = rng.choice([0.0, 0.25, 0.5, 1.0], n).tolist()
                r = rng.choice([0.25, 0.5, 0.75, 1.0], n).tolist()
            else:  # repeated (nu, r) pairs tie exactly; some weights zero
                pick = rng.integers(0, int(rng.integers(1, n + 1)), n)
                nu = (rng.uniform(0, 1, n) * (rng.random(n) > 0.2))[pick].tolist()
                r = rng.uniform(0, 1, n)[pick].tolist()
            zeta = float(rng.choice([rng.uniform(), 0.0, 0.5]))
            m = int(rng.integers(0, n + 1))
            cold, theta = fractional_optimum(nu, r, zeta, m)
            sets = [cold, []] + [sorted(rng.choice(n, int(rng.integers(0, m + 1)), replace=False))
                                 for _ in range(4)]
            for s in sets:
                start = max(zeta, revenue_of(nu, r, zeta, s))
                assert start <= theta
                warm, warm_theta = fractional_optimum(nu, r, zeta, m, start)
                assert warm == cold and warm_theta.hex() == theta.hex()
                keep = [j for j in range(n) if nu[j] > 0.0 and r[j] > start]
                sub, sub_theta = fractional_optimum(
                    [nu[j] for j in keep], [r[j] for j in keep], zeta, m, start)
                assert [keep[q] for q in sub] == cold and sub_theta.hex() == theta.hex()


class TestBruteForceOptimum:
    def test_single_unit_item(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[1.0])
        opt = brute_force_optimum(inst)
        assert opt.s_star == (1,)
        np.testing.assert_allclose(opt.theta_star, 0.5, atol=1e-15)

    def test_size_guard(self):
        inst = Instance(
            n=BRUTE_FORCE_MAX_N + 1,
            k=2,
            r=np.full(BRUTE_FORCE_MAX_N + 1, 0.5),
            v=np.full(BRUTE_FORCE_MAX_N + 1, 0.5),
        )
        with pytest.raises(ValueError):
            brute_force_optimum(inst)

    def test_ties_break_lexicographically(self):
        inst = Instance(n=3, k=1, r=[0.8, 0.8, 0.8], v=[0.6, 0.6, 0.6])
        assert brute_force_optimum(inst).s_star == (1,)

    def test_all_zero_rewards_select_the_empty_assortment(self):
        inst = Instance(n=3, k=2, r=[0.0, 0.0, 0.0], v=[0.5, 0.9, 0.1])
        opt = brute_force_optimum(inst)
        assert opt.s_star == ()
        assert opt.theta_star == 0.0

    def test_agrees_with_fractional_on_random_instances(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            inst = random_instance(rng)
            bf = brute_force_optimum(inst)
            s, theta = fractional_optimum(inst.v, inst.r, 0.0, inst.k)
            np.testing.assert_allclose(bf.theta_star, theta, atol=1e-9)
            assert bf.s_star == tuple(j + 1 for j in s)


class TestExactOptimum:
    def test_matches_the_enumeration_references_bit_for_bit(self):
        rng = np.random.default_rng(28)
        for _ in range(2000):
            inst = random_instance(rng, n_max=10)
            opt = exact_optimum(inst)
            assert opt == brute_force_optimum(inst)
            assert opt.theta_star == revenue(inst, opt.s_star)
            assert revenue_margin(inst) == enumerated_margin(inst)
            assert suboptimality_gaps(inst) == (opt, enumerated_gaps(inst))

    def test_the_warm_start_returns_the_cold_solve(self):
        # exact_optimum starts at the best singleton and drops the items at or
        # below it; the set and the revenue bits are those of a cold solve over
        # every item, on the family grid and on zero-weight, tied instances
        insts = [generate_instance(family, n, k, seed=seed)
                 for family in ("uniform", "dense", "sparse")
                 for n, k in ((8, 3), (20, 10), (50, 5), (200, 40)) for seed in range(40)]
        for inst in insts + tied_instances(np.random.default_rng(32), 200):
            s, _ = fractional_optimum(inst.v, inst.r, 0.0, inst.k)
            cold = tuple(j + 1 for j in s)
            opt = exact_optimum(inst)
            assert (opt.s_star, opt.theta_star.hex()) == (cold, revenue(inst, cold).hex())

    def test_equal_items_break_toward_smaller_ids(self):
        inst = Instance(n=5, k=2, r=[0.3, 0.9, 0.9, 0.9, 0.9], v=[0.4, 0.5, 0.5, 0.5, 0.5])
        opt = exact_optimum(inst)
        assert opt.s_star == (2, 3)
        assert opt == brute_force_optimum(inst)

    def test_an_item_at_the_optimal_revenue_is_left_out(self):
        # R({2}) = R({1, 2}) = 1/2 = r_1: item 1 scores 0 at theta* = 1/2.
        inst = Instance(n=2, k=2, r=[0.5, 1.0], v=[0.5, 1.0])
        opt, bf = exact_optimum(inst), brute_force_optimum(inst)
        assert opt.s_star == (2,)
        assert bf.s_star == (1, 2)
        assert revenue(inst, opt.s_star) == revenue(inst, bf.s_star) == opt.theta_star == 0.5

    def test_solves_beyond_the_brute_force_limit(self):
        inst = lower_bound_instance(60, 10, [0.001] * 50)
        opt = exact_optimum(inst)
        assert opt.s_star == tuple(range(1, 11))
        np.testing.assert_allclose(opt.theta_star, 0.5, atol=1e-12)
        gap_opt, gaps = suboptimality_gaps(inst)
        assert gap_opt == opt
        np.testing.assert_allclose([gaps[i] for i in range(11, 61)], 0.001, atol=1e-12)
        np.testing.assert_allclose(revenue_margin(inst), 0.001, atol=1e-12)


class TestSuboptimalityGaps:
    def test_single_item_gap_is_half(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[1.0])
        _, gaps = suboptimality_gaps(inst)
        np.testing.assert_allclose(gaps[1], 0.5, atol=1e-15)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            inst = random_instance(rng, n_max=7)
            opt = brute_force_optimum(inst)
            _, gaps = suboptimality_gaps(inst)
            for i in range(1, inst.n + 1):
                want_member = i not in opt.s_star
                best = 0.0 if not want_member else -np.inf
                for size in range(1, inst.k + 1):
                    for s in combinations(range(1, inst.n + 1), size):
                        if (i in s) == want_member:
                            best = max(best, revenue(inst, s))
                if best == -np.inf:  # item in every feasible assortment: n = k = 1
                    best = 0.0
                np.testing.assert_allclose(gaps[i], opt.theta_star - best, atol=1e-12)

    def test_matches_the_deletion_loop_bit_for_bit(self):
        insts = [generate_instance(family, n, k, seed=seed)
                 for family in ("uniform", "dense", "sparse")
                 for n, k in ((8, 3), (30, 10)) for seed in range(3)]
        for inst in insts + tied_instances(np.random.default_rng(31), 200):
            (_, gaps), want = suboptimality_gaps(inst), deleted_item_gaps(inst)
            assert list(gaps) == list(want)
            assert [g.hex() for g in gaps.values()] == [g.hex() for g in want.values()]

    def test_every_gap_dominates_the_global_margin(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            inst = random_instance(rng)
            margin = revenue_margin(inst)
            _, gaps = suboptimality_gaps(inst)
            for i in range(1, inst.n + 1):
                assert gaps[i] >= margin - 1e-12

    def test_gaps_are_nonnegative(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            inst = random_instance(rng)
            for g in suboptimality_gaps(inst)[1].values():
                assert g >= -1e-12


class TestRevenueMargin:
    def test_two_distinct_singletons(self):
        inst = Instance(n=2, k=1, r=[1.0, 1.0], v=[1.0, 0.5])
        # best = 1/2 (item 1), runner-up = 1/3 (item 2); empty set is worse.
        np.testing.assert_allclose(revenue_margin(inst), 0.5 - 1.0 / 3.0, atol=1e-12)

    def test_tied_optima_have_zero_margin(self):
        inst = Instance(n=2, k=1, r=[0.8, 0.8], v=[0.6, 0.6])
        np.testing.assert_allclose(revenue_margin(inst), 0.0, atol=1e-15)

    def test_empty_set_can_be_the_runner_up(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[1.0])
        np.testing.assert_allclose(revenue_margin(inst), 0.5, atol=1e-15)


class TestLowerBoundInstance:
    def test_single_capacity_two_items(self):
        # With capacity 1 the lone optimal item must carry weight exactly 1 so
        # that the optimum is 1/2 and the competitor's shortfall equals the
        # requested gap: with gap 1/32 the adjustment is 4*(1/32)/(1+2/32)
        # = 2/17, so v = (1, 15/17).
        inst = lower_bound_instance(2, 1, [1.0 / 32.0])
        np.testing.assert_allclose(inst.r, [1.0, 1.0], atol=0)
        np.testing.assert_allclose(inst.v, [1.0, 15.0 / 17.0], rtol=1e-15)
        opt = brute_force_optimum(inst)
        assert opt.s_star == (1,)
        np.testing.assert_allclose(opt.theta_star, 0.5, atol=1e-15)
        np.testing.assert_allclose(
            suboptimality_gaps(inst)[1][2], 1.0 / 32.0, atol=1e-15
        )

    def test_capacity_two_weights(self):
        # For capacity 2: the first item gets 1/2 + 1/4, the pivot item 1/4,
        # and each extra item sits 4*gap/(1+2*gap) below the pivot.
        gap = 1.0 / 64.0
        inst = lower_bound_instance(4, 2, [gap, gap])
        np.testing.assert_allclose(inst.v[0], 0.5 + 0.25, rtol=1e-15)
        np.testing.assert_allclose(inst.v[1], 0.25, rtol=1e-15)
        adj = 4.0 * gap / (1.0 + 2.0 * gap)
        np.testing.assert_allclose(inst.v[2:], 0.25 - adj, rtol=1e-15)

    def test_first_k_weights_sum_to_one(self):
        rng = np.random.default_rng(28)
        for k in (1, 2, 4, 8):
            gaps = rng.uniform(1e-4, 1.0 / (16 * k), size=k)
            inst = lower_bound_instance(2 * k, k, gaps)
            np.testing.assert_allclose(np.asarray(inst.v[:k]).sum(), 1.0, atol=1e-12)
            np.testing.assert_allclose(
                revenue(inst, tuple(range(1, k + 1))), 0.5, atol=1e-12
            )

    def test_gap_roundtrip(self):
        rng = np.random.default_rng(29)
        for k in (1, 2, 4, 8):
            gaps = rng.uniform(1e-4, 1.0 / (16 * k), size=k)
            inst = lower_bound_instance(2 * k, k, gaps)
            opt = brute_force_optimum(inst)
            assert opt.s_star == tuple(range(1, k + 1))
            _, got = suboptimality_gaps(inst)
            for j in range(k):
                np.testing.assert_allclose(got[k + 1 + j], gaps[j], atol=1e-9)

    def test_weights_stay_in_the_guaranteed_band(self):
        rng = np.random.default_rng(30)
        for k in (1, 2, 4, 8):
            for _ in range(10):
                gaps = rng.uniform(1e-6, 1.0 / (16 * k), size=k)
                inst = lower_bound_instance(2 * k, k, gaps)
                v = np.asarray(inst.v)
                assert np.all(v >= 1.0 / (4 * k) - 1e-15)
                assert np.all(v <= 1.0 + 1e-15)

    @pytest.mark.parametrize(
        "n,k,gaps,message",
        [
            (1, 1, [0.01], r"^n must be >= 2$"),  # n too small
            (5, 3, [0.01, 0.01], r"^capacity must satisfy"),  # 2k > n
            (4, 2, [0.5, 0.01], r"^every gap must lie in"),  # gap above 1/(16k)
            (4, 2, [0.0, 0.01], r"^every gap must lie in"),  # gap not strictly positive
            (4, 2, [np.nan, 0.01], r"^every gap must lie in"),  # gap not a number
            (4, 2, [0.01], r"^need exactly n - k = 2 gaps"),  # wrong gap count
        ],
        ids=["1-1-gaps0", "5-3-gaps1", "4-2-gaps2", "4-2-gaps3", "4-2-gaps4", "4-2-gaps5"],
    )
    def test_preconditions(self, n, k, gaps, message):
        with pytest.raises(ValueError, match=message):
            lower_bound_instance(n, k, gaps)


class TestRevenueComparisonIdentity:
    def test_identity_on_random_pairs(self):
        # (1 + sum_{i in S} v_i) (theta* - R(S)) equals the score mass of the
        # optimal items missing from S minus the score mass of the extras.
        rng = np.random.default_rng(31)
        for _ in range(500):
            inst = random_instance(rng)
            opt = brute_force_optimum(inst)
            scores = advantage_scores(inst, opt.theta_star)
            size = int(rng.integers(0, inst.n + 1))
            s = tuple(sorted(rng.choice(inst.n, size=size, replace=False) + 1))
            lhs = (1.0 + sum(inst.v[i - 1] for i in s)) * (
                opt.theta_star - revenue(inst, s)
            )
            rhs = sum(scores[i] for i in opt.s_star if i not in s) - sum(
                scores[i] for i in s if i not in opt.s_star
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)
