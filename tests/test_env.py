"""Tests for the seeded simulator, step accounting, and the regret ledger."""

import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from mnlbandit.env import (
    Environment,
    EpochBatch,
    HorizonExhausted,
    RegretLedger,
    RNG_ALGORITHM_ID,
    SamplerLimitError,
    fork_stream,
)
from mnlbandit.estimators import ExploreState
from mnlbandit.model import Instance, revenue
from mnlbandit.oracle import brute_force_optimum
from epoch_detail import epoch_detail
from explore_reference import explore
from model_reference import choice_probabilities, reduce_params
from offer_reference import offer
from stream_reference import stream_digest


def make_env(seed=0, rep=0, horizon=None, inst=None):
    if inst is None:
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
    return Environment(inst, fork_stream(seed, rep), horizon=horizon)


class TestForkStream:
    def test_same_arguments_reproduce_the_stream(self):
        a = fork_stream(42, 0).random(16)
        b = fork_stream(42, 0).random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_indices_differ(self):
        a = fork_stream(42, 0).random(16)
        b = fork_stream(42, 1).random(16)
        assert not np.array_equal(a, b)

    def test_first_draws_distinct_across_thousand_indices(self):
        first = {float(fork_stream(42, i).random()) for i in range(1000)}
        assert len(first) == 1000

    def test_digest_is_deterministic_and_spread(self):
        assert stream_digest(42, 7) == stream_digest(42, 7)
        digests = {stream_digest(42, i) for i in range(1000)}
        assert len(digests) == 1000

    def test_algorithm_id_is_pinned(self):
        assert RNG_ALGORITHM_ID == "numpy-pcg64-seedseq-spawnkey-v3"

    def test_streams_feed_statistically_consistent_outcomes(self):
        # First outcome of 1000 independent replication streams on a single
        # item with weight 0.5: purchase probability 1/3.
        inst = Instance(n=1, k=1, r=[1.0], v=[0.5])
        outcomes = []
        for i in range(1000):
            env = Environment(inst, fork_stream(42, i))
            outcomes.append(offer(env, (1,)))
        buys = sum(outcomes)
        expected = 1000 / 3.0
        se = np.sqrt(1000 * (1 / 3) * (2 / 3))
        assert abs(buys - expected) <= 4 * se
        # Consecutive-pair collision rate close to sum of squared outcome
        # probabilities (5/9 for this two-outcome draw).
        same = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if a == b
        ) / (len(outcomes) - 1)
        assert abs(same - 5.0 / 9.0) <= 5 * np.sqrt((5 / 9) * (4 / 9) / 999)


class TestEnvironmentSurface:
    def test_exposes_only_public_problem_data(self):
        inst = Instance(n=3, k=2, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = Environment(inst, fork_stream(0, 0))
        assert env.n == 3 and env.k == 2
        np.testing.assert_array_equal(env.rewards, inst.r)
        assert not hasattr(env, "v")
        with pytest.raises(TypeError):
            env.rewards[0] = 0.0

    def test_oracle_scaffolding_matches_brute_force(self):
        inst = Instance(n=4, k=2, r=[0.9, 0.5, 0.7, 0.2], v=[0.5, 0.3, 0.8, 0.6])
        env = Environment(inst, fork_stream(0, 0))
        opt = brute_force_optimum(inst)
        assert env.oracle_solution().s_star == opt.s_star
        np.testing.assert_allclose(env.oracle_solution().theta_star, opt.theta_star)
        np.testing.assert_allclose(env.true_revenue((1, 2)), revenue(inst, (1, 2)))

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            make_env(horizon=0)

    def test_counts_must_be_integers(self):
        # a fractional horizon, step count or epoch count is refused before
        # any draw or charge, so ``ledger.steps`` stays an exact int
        with pytest.raises(ValueError, match="^horizon must be an integer, got 10.5$"):
            make_env(horizon=10.5)
        with pytest.raises(ValueError, match="^horizon must be an integer, got True$"):
            make_env(horizon=True)  # not a budget of one step
        env = make_env(seed=3, horizon=np.int64(100))
        assert type(env.horizon) is int
        rng_state = env._rng.bit_generator.state
        with pytest.raises(ValueError, match="^steps must be an integer, got 2.5$"):
            env.advance((1,), 2.5)
        for epochs in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="^epochs must be an integer, got "):
                env.sample_epochs((1,), (2,), epochs)
        with pytest.raises(ValueError, match="^assortment item must be an integer, got 1.5$"):
            env.sample_epochs((), (1.5,), 10)
        with pytest.raises(ValueError, match="^assortment item must be an integer, got True$"):
            env.sample_epochs((), (True,), 10)  # not item 1
        assert env.ledger.steps == 0 and env._rng.bit_generator.state == rng_state
        env.advance((1,), np.int64(2))
        env.sample_epochs((1,), (2,), np.int32(3))
        assert type(env.ledger.steps) is int and env.ledger.steps >= 5


class TestOffer:
    def test_outcome_sequences_are_reproducible(self):
        a = make_env(seed=42, rep=0)
        b = make_env(seed=42, rep=0)
        seq_a = [offer(a, (1, 2, 3)) for _ in range(200)]
        seq_b = [offer(b, (1, 2, 3)) for _ in range(200)]
        assert seq_a == seq_b
        c = make_env(seed=42, rep=1)
        seq_c = [offer(c, (1, 2, 3)) for _ in range(200)]
        assert seq_c != seq_a

    def test_capacity_violation_is_a_hard_error(self):
        inst = Instance(n=3, k=2, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = Environment(inst, fork_stream(0, 0))
        with pytest.raises(ValueError):
            offer(env, (1, 2, 3))
        with pytest.raises(ValueError):
            offer(env, (0, 1))
        with pytest.raises(ValueError):
            offer(env, (2, 4))

    def test_offering_the_optimum_accrues_zero_regret(self):
        env = make_env(seed=1)
        s_star = env.oracle_solution().s_star
        for _ in range(100):
            offer(env, s_star)
        assert env.ledger.cum_regret == 0.0
        assert env.ledger.steps == 100

    def test_empty_assortment_always_no_purchase(self):
        env = make_env(seed=2)
        assert all(offer(env, ()) == 0 for _ in range(20))
        theta = env.oracle_solution().theta_star
        np.testing.assert_allclose(env.ledger.cum_regret, 20 * theta, rtol=1e-12)

    def test_single_item_purchase_frequency(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[0.5])
        env = Environment(inst, fork_stream(3, 0))
        trials = 100_000
        buys = sum(offer(env, (1,)) for _ in range(trials))
        p = 1.0 / 3.0
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(buys / trials - p) <= 3 * se

    def test_purchase_distribution_chi_square(self):
        # Empirical outcome distribution over 1e5 offers of a fixed set
        # matches the model's choice probabilities (GOF at significance 0.001).
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = Environment(inst, fork_stream(4, 0))
        s = (1, 2, 3)
        probs = choice_probabilities(inst, s)
        outcomes = [0, 1, 2, 3]
        counts = dict.fromkeys(outcomes, 0)
        trials = 100_000
        for _ in range(trials):
            counts[offer(env, s)] += 1
        observed = np.array([counts[c] for c in outcomes], dtype=float)
        expected = np.array([probs[c] * trials for c in outcomes])
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001


class TestAdvance:
    def test_consumes_no_randomness(self):
        rng = fork_stream(5, 0)
        env = Environment(
            Instance(n=2, k=2, r=[1.0, 0.3], v=[0.5, 0.4]), rng
        )
        before = rng.bit_generator.state
        env.advance((1,), 1000)
        assert rng.bit_generator.state == before

    def test_regret_and_counts_are_exact(self):
        inst = Instance(n=2, k=2, r=[1.0, 0.3], v=[0.5, 0.4])
        env = Environment(inst, fork_stream(5, 0))
        theta = env.oracle_solution().theta_star
        env.advance((2,), 1000)
        np.testing.assert_allclose(
            env.ledger.cum_regret, 1000 * (theta - revenue(inst, (2,))), rtol=1e-12
        )
        assert env.ledger.steps == 1000

    def test_exploiting_the_optimum_costs_exactly_zero(self):
        # The optimum and the regret of an offered set are priced alike, so
        # even 2**62 steps of S* add nothing, on every seeded instance.
        rng = np.random.default_rng(28)
        for rep in range(300):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, n + 1))
            inst = Instance(n=n, k=k, r=rng.uniform(0, 1, n), v=rng.uniform(0, 1, n))
            env = Environment(inst, fork_stream(5, rep))
            env.advance(env.oracle_solution().s_star, 2**62)
            assert env.ledger.cum_regret == 0.0

    def test_step_count_stays_exact_past_int64(self):
        env = make_env(seed=5)
        env.advance((1,), 2**63)
        assert env.ledger.steps == 2**63

    def test_respects_the_budget(self):
        env = make_env(seed=5, horizon=100)
        env.advance((1,), 100)
        with pytest.raises(HorizonExhausted):
            env.advance((1,), 1)
        assert env.ledger.steps == 100

    def test_zero_steps_is_a_no_op(self):
        env = make_env(seed=5)
        env.advance((1,), 0)
        assert (env.ledger.steps, env.ledger.cum_regret, env.ledger._segments) == (0, 0.0, [])

    def test_negative_steps_rejected(self):
        env = make_env(seed=5)
        with pytest.raises(ValueError):
            env.advance((1,), -1)

    def test_prices_its_set_without_storing_a_plan(self):
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = Environment(inst, fork_stream(5, 0))
        env.sample_epochs((), (1,), 10)
        env.advance((2, 3), 10)  # a set no batch has sampled
        assert len(env._plans) == 1

    def test_records_the_sets_regret_bit_for_bit(self):
        # sets of 8 or more items reach numpy's pairwise sum
        rng = np.random.default_rng(43)
        for rep in range(100):
            n = int(rng.integers(1, 21))
            inst = Instance(n=n, k=n, r=rng.uniform(0, 1, n), v=rng.uniform(0, 1, n))
            env = Environment(inst, fork_stream(5, rep))
            size = int(rng.integers(0, n + 1))
            s = tuple(int(i) + 1 for i in np.sort(rng.choice(n, size, replace=False)))
            steps = int(rng.integers(1, 10**9))
            env.advance(s, steps)
            regret = env.oracle_solution().theta_star - revenue(inst, s)
            ((charged, count),) = env.ledger._segments
            assert (charged.hex(), count) == (regret.hex(), steps)

    @pytest.mark.parametrize(
        "s", [(0,), (4,), (2, 1), (1, 1), (1.0,), (1, 2, 3)],
        ids=["below-range", "above-range", "descending", "repeated", "float-id", "over-capacity"],
    )
    def test_refuses_a_bad_set_as_a_batch_does_before_charging(self, s):
        inst = Instance(n=3, k=2, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = Environment(inst, fork_stream(5, 0), horizon=100)
        with pytest.raises(ValueError) as batch:
            env.sample_epochs((), s, 1)
        with pytest.raises(ValueError) as advance:
            env.advance(s, 10)
        assert str(advance.value) == str(batch.value)
        assert (env.ledger.steps, env.ledger._segments) == (0, [])


class TestHorizon:
    def test_offer_raises_once_spent(self):
        env = make_env(seed=6, horizon=3)
        for _ in range(3):
            offer(env, (1,))
        assert env.steps_remaining == 0
        with pytest.raises(HorizonExhausted):
            offer(env, (1,))
        assert env.ledger.steps == 3

    def test_the_budget_is_fixed_at_construction(self):
        env = make_env(seed=6)
        assert env.horizon is None and env.steps_remaining is None
        env = make_env(seed=6, horizon=10)
        assert env.horizon == env.steps_remaining == 10
        with pytest.raises(AttributeError):
            env.horizon = 20
        offer(env, (1,))
        assert env.horizon == 10 and env.steps_remaining == 9

    def test_exhaustion_error_is_a_runtime_error(self):
        assert issubclass(HorizonExhausted, RuntimeError)


class TestRegretLedger:
    def test_curve_matches_step_by_step_accounting(self):
        inst = Instance(n=2, k=1, r=[1.0, 0.4], v=[0.6, 0.9])
        env = Environment(inst, fork_stream(7, 0))
        theta = env.oracle_solution().theta_star
        plan = [(1,), (1,), (2,), (2,), (1,), (), (2,)]
        for s in plan:
            offer(env, s)
        curve = env.ledger.curve()
        per_step = [theta - revenue(inst, s) for s in plan]
        np.testing.assert_allclose(curve, np.cumsum(per_step), rtol=1e-12)
        assert len(curve) == env.ledger.steps
        assert np.all(np.diff(curve) >= -1e-15)
        np.testing.assert_allclose(curve[-1], env.ledger.cum_regret, rtol=1e-12)

    def test_regret_bounded_by_optimal_revenue_mass(self):
        env = make_env(seed=8)
        rng = np.random.default_rng(8)
        for _ in range(200):
            size = int(rng.integers(0, env.k + 1))
            s = tuple(sorted(rng.choice(env.n, size=size, replace=False) + 1))
            offer(env, s)
        theta = env.oracle_solution().theta_star
        assert 0.0 <= env.ledger.cum_regret <= theta * env.ledger.steps + 1e-12

    def test_empty_ledger_curve(self):
        ledger = RegretLedger()
        assert ledger.curve().shape == (0,)


class TestSampleEpochs:
    def test_validations(self):
        env = make_env(seed=10)
        with pytest.raises(ValueError):
            env.sample_epochs((1,), (1, 2), 10)  # overlap
        inst = Instance(n=4, k=2, r=[1.0] * 4, v=[0.5] * 4)
        env2 = Environment(inst, fork_stream(10, 0))
        with pytest.raises(ValueError):
            env2.sample_epochs((1, 2), (3,), 10)  # capacity
        with pytest.raises(ValueError, match="^epochs must be >= 1$"):
            env2.sample_epochs((), (1,), 0)  # refused here, not by numpy's draw

    def test_a_batch_past_int64_is_refused_naming_the_limit(self):
        env = make_env(seed=19)
        before = (env.ledger.steps, env._rng.bit_generator.state)
        # drawn stops, then a one-category split with no stops to draw
        for z, s in [((1,), (2,)), ((), (1,))]:
            with pytest.raises(OverflowError, match=r"\b9007199254740992$"):
                env.sample_epochs(z, s, 2**63)
        assert (env.ledger.steps, env._rng.bit_generator.state) == before

    @pytest.mark.parametrize("horizon", [None, 2**62], ids=["unbudgeted", "budgeted"])
    def test_a_batch_past_the_draw_limit_is_refused(self, horizon):
        # numpy reads the epoch count as a double, which rounds 2**53 + 1
        env = make_env(seed=19, horizon=horizon)
        env.sample_epochs((1,), (2,), 10)
        before = (env.ledger.steps, env._rng.bit_generator.state)
        with pytest.raises(OverflowError, match=r"\b9007199254740992$"):
            env.sample_epochs((1,), (2,), 2**53 + 1)
        assert (env.ledger.steps, env._rng.bit_generator.state) == before

    #: (instance, stopping set, tracked set, epochs) of a batch past each limit:
    #: 2**53 + 1 epochs, and 9e15 epochs at q = 1/1101, past numpy's draw of M
    PAST_A_LIMIT = {
        "draw-limit": (None, (), (1,), 2**53 + 1),
        "negative-binomial": (Instance(n=1200, k=1100, r=[0.5] * 1100 + [1.0] * 100,
                                       v=np.ones(1200)), (), tuple(range(1, 1101)), 9 * 10**15),
    }

    @pytest.mark.parametrize("limit", list(PAST_A_LIMIT))
    def test_a_batch_past_a_limit_and_the_budget_is_cut_undrawn(self, limit):
        # its epochs alone overrun the budget: it ends the run as a cut batch
        # does, charged the rest of the budget, without refusing or drawing
        inst, z, s, epochs = self.PAST_A_LIMIT[limit]
        env = make_env(seed=19, inst=inst, horizon=epochs - 1)
        env.sample_epochs(z, s, 10)
        steps, regret = env.ledger.steps, env.ledger.cum_regret
        state, remaining = env._rng.bit_generator.state, env.steps_remaining
        batch = env.sample_epochs(z, s, epochs)
        assert (batch.requested, batch.epochs, batch.steps) == (epochs, 0, remaining)
        assert batch.truncated and batch.z_sum == 0.0 and not batch.x_sums.any()
        assert env._rng.bit_generator.state == state
        assert env.ledger.steps == steps + remaining == epochs - 1
        per_step = env.oracle_solution().theta_star - env.true_revenue(z + s)
        assert per_step > 0
        assert env.ledger.cum_regret == pytest.approx(regret + per_step * remaining, rel=1e-12)

    @pytest.mark.parametrize("limit", list(PAST_A_LIMIT))
    def test_a_batch_past_a_limit_within_the_budget_is_refused(self, limit):
        # a budget of exactly its epochs may hold the batch: no purchase at all
        inst, z, s, epochs = self.PAST_A_LIMIT[limit]
        env = make_env(seed=19, inst=inst, horizon=epochs)
        before = (env.ledger.steps, env._rng.bit_generator.state)
        with pytest.raises(SamplerLimitError):
            env.sample_epochs(z, s, epochs)
        assert (env.ledger.steps, env._rng.bit_generator.state) == before

    def test_a_batch_at_the_draw_limit_draws(self):
        env = make_env(seed=19)
        batch = env.sample_epochs((1,), (2, 3), 2**53)
        assert batch.epochs == 2**53 and not batch.truncated
        assert batch.steps == env.ledger.steps == 2**53 + int(batch.x_sums.sum())
        assert batch.x_sums.min() > 0

    def test_numpys_negative_binomial_limit_is_refused_by_name(self):
        # 1100 tracked items of weight 1: q = 1/1101, so numpy refuses the
        # purchase draw below 2**53 epochs; find its boundary by asking numpy
        inst = Instance(n=1200, k=1100, r=np.full(1200, 0.5), v=np.ones(1200))
        s, q = tuple(range(1, 1101)), 1.0 / 1101

        def numpy_refuses(epochs):
            try:
                np.random.default_rng(0).negative_binomial(epochs, q)
            except ValueError:
                return True
            return False

        lo, hi = 1, 9 * 10**15  # numpy draws lo epochs and refuses hi
        assert numpy_refuses(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if numpy_refuses(mid) else (mid, hi)
        env = make_env(seed=21, inst=inst)
        before = (env.ledger.steps, env._rng.bit_generator.state)
        limit = f"^a batch of T = {hi} epochs .* negative-binomial limit"
        with pytest.raises(OverflowError, match=limit):
            env.sample_epochs((), s, hi)
        assert (env.ledger.steps, env._rng.bit_generator.state) == before
        batch = env.sample_epochs((), s, lo)
        assert batch.epochs == lo and batch.steps == env.ledger.steps > lo

    def test_deterministic_and_collect_invariant(self):
        env_a = make_env(seed=11)
        env_b = make_env(seed=11)
        a = env_a.sample_epochs((1,), (2, 3), 500)
        b = env_b.sample_epochs((1,), (2, 3), 500)
        x, lengths = epoch_detail(env_b, b)
        np.testing.assert_array_equal(a.x_sums, b.x_sums)
        assert a.z_sum == b.z_sum and a.steps == b.steps
        assert x.shape == (500, 2)
        assert lengths.sum() == b.steps
        np.testing.assert_array_equal(x.sum(axis=0), b.x_sums)
        np.testing.assert_array_equal(lengths, 1 + x.sum(axis=1))

    def test_moments_match_the_epoch_law(self):
        # Purchase counts are geometric with mean nu_i, the stop reward has
        # mean zeta = R(Z, v), and epoch length minus one, the total purchase
        # count, is geometric with mean sum(nu).
        inst = Instance(
            n=6, k=6, r=[1.0, 0.7, 0.5, 0.9, 0.2, 0.4],
            v=[0.5, 0.3, 0.8, 0.6, 0.9, 0.2],
        )
        env = Environment(inst, fork_stream(12, 0))
        z, s = (1, 2), (3, 4)
        epochs = 20_000
        batch = env.sample_epochs(z, s, epochs)
        x, lengths = epoch_detail(env, batch)
        params = reduce_params(inst, z)
        nu = np.array([params.nu[i] for i in s])
        zeta = params.zeta
        x_bar = x.mean(axis=0)
        se_x = np.sqrt(nu * (1 + nu) / epochs)
        assert np.all(np.abs(x_bar - nu) <= 4 * se_x)
        probs = choice_probabilities(inst, z)
        stop_r = {0: 0.0, **{i: float(inst.r[i - 1]) for i in z}}
        mean_z = sum(probs[c] * stop_r[c] for c in probs)
        var_z = sum(probs[c] * (stop_r[c] - mean_z) ** 2 for c in probs)
        np.testing.assert_allclose(mean_z, zeta, rtol=1e-12)
        z_bar = batch.z_sum / batch.epochs
        assert abs(z_bar - zeta) <= 4 * np.sqrt(var_z / epochs)
        e_bar = (lengths - 1).mean()
        se_e = np.sqrt(nu.sum() * (1 + nu.sum()) / epochs)
        assert abs(e_bar - nu.sum()) <= 4 * se_e
        assert env.ledger.steps == batch.steps

    def test_empty_tracked_set_spends_one_step_per_epoch(self):
        env = make_env(seed=13)
        batch = env.sample_epochs((1,), (), 250)
        assert batch.steps == 250 and batch.epochs == 250
        assert batch.x_sums.shape == (0,)

    def test_truncation_consumes_the_budget_exactly(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[0.9])
        env = Environment(inst, fork_stream(14, 0), horizon=50)
        batch = env.sample_epochs((), (1,), 1000)
        assert batch.truncated
        assert batch.epochs < 1000
        assert batch.steps == 50
        assert env.ledger.steps == 50
        assert env.steps_remaining == 0
        with pytest.raises(HorizonExhausted):
            offer(env, (1,))

    def test_untruncated_batch_reports_requested_epochs(self):
        env = make_env(seed=15)
        batch = env.sample_epochs((), (1, 2), 300)
        assert isinstance(batch, EpochBatch)
        assert batch.requested == 300 and batch.epochs == 300
        assert not batch.truncated
        assert batch.steps >= 300  # every epoch costs at least one step

    def test_step_accounting_matches_ledger_and_regret(self):
        # Each step of a batch costs theta* - R(Z ∪ S) bit for bit, R summed in
        # ascending id order: on three or more offered items another order
        # rounds differently for some of these pairs.
        rng = np.random.default_rng(0)
        inst = Instance(n=5, k=4, r=rng.uniform(0, 1, 5), v=rng.uniform(0, 1, 5))
        env = Environment(inst, fork_stream(16, 0))
        theta = env.oracle_solution().theta_star
        for size in (3, 4):
            for offered in combinations(range(1, inst.n + 1), size):
                for cut in range(size + 1):
                    for z in combinations(offered, cut):
                        s = tuple(i for i in offered if i not in z)
                        steps, cum_regret = env.ledger.steps, env.ledger.cum_regret
                        batch = env.sample_epochs(z, s, 40)
                        per_step = theta - revenue(inst, sorted(z + s))
                        assert env.ledger._segments[-1][0] == per_step
                        assert env.ledger.steps == steps + batch.steps
                        assert env.ledger.cum_regret == cum_regret + per_step * batch.steps

    def test_paper_scale_batch_is_exact_and_fast(self):
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = Environment(inst, fork_stream(17, 0))
        start = time.perf_counter()
        batch = env.sample_epochs((1,), (2, 3), 10**11)
        assert time.perf_counter() - start < 1.0
        assert batch.epochs == 10**11 and not batch.truncated
        assert batch.steps == batch.epochs + int(batch.x_sums.sum())
        assert env.ledger.steps == batch.steps
        per_step = env.oracle_solution().theta_star - revenue(inst, (1, 2, 3))
        np.testing.assert_allclose(
            env.ledger.cum_regret, per_step * batch.steps, rtol=1e-12
        )
        # Under a budget it fits, loosely or exactly, the batch draws what it
        # draws without one; under one it overruns, it spends the budget and
        # reports nothing.
        for horizon in (2 * 10**11, batch.steps):
            env = Environment(inst, fork_stream(17, 0), horizon=horizon)
            fits = env.sample_epochs((1,), (2, 3), 10**11)
            assert (fits.epochs, fits.steps, fits.z_sum) == (batch.epochs, batch.steps, batch.z_sum)
            np.testing.assert_array_equal(fits.x_sums, batch.x_sums)
        horizon = 15 * 10**10  # the batch needs about 1.7e11 steps
        env = Environment(inst, fork_stream(17, 1), horizon=horizon)
        start = time.perf_counter()
        batch = env.sample_epochs((1,), (2, 3), 10**11)
        assert time.perf_counter() - start < 1.0
        assert batch.truncated and batch.epochs == 0 and not batch.x_sums.any()
        assert batch.steps == env.ledger.steps == horizon

    def test_a_cut_batch_charges_the_rest_of_the_budget_and_draws_once(self):
        # its epochs fit what is left, so it draws its purchases, which do not
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = Environment(inst, fork_stream(20, 0), horizon=1000)
        env.sample_epochs((), (1,), 100)
        steps, regret = env.ledger.steps, env.ledger.cum_regret
        remaining = env.steps_remaining
        state = env._rng.bit_generator.state
        batch = env.sample_epochs((1,), (2, 3), remaining)
        assert (batch.requested, batch.epochs, batch.steps) == (remaining, 0, remaining)
        assert batch.truncated and batch.z_sum == 0.0 and batch.tracked == (2, 3)
        np.testing.assert_array_equal(batch.x_sums, np.zeros(2, dtype=np.int64))
        assert batch.x_sums.dtype == np.int64
        # exactly one negative-binomial draw, at the batch's stop probability
        reference = np.random.Generator(np.random.PCG64())
        reference.bit_generator.state = state
        reference.negative_binomial(remaining, (1 + 0.5) / (1 + 0.5 + 0.3 + 0.8))
        assert env._rng.bit_generator.state == reference.bit_generator.state
        per_step = env.oracle_solution().theta_star - revenue(inst, (1, 2, 3))
        assert env.ledger.steps == steps + remaining == 1000
        assert env.ledger.cum_regret == regret + per_step * remaining
        assert env.ledger._segments[-1] == [per_step, remaining]

    def test_a_batch_whose_epochs_overrun_the_budget_is_cut_undrawn(self):
        # no purchase count can make it fit, so it draws nothing: with one
        # step left, a batch of 2 or 10**6 epochs; on a spent budget, any
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        spent = Environment(inst, fork_stream(20, 0)).sample_epochs((), (1,), 100).steps
        for left, epochs in [(1, 2), (1, 10**6), (0, 1), (0, 2), (0, 10**6)]:
            env = Environment(inst, fork_stream(20, 0), horizon=spent + left)
            assert not env.sample_epochs((), (1,), 100).truncated
            per_step = env.oracle_solution().theta_star - revenue(inst, (1, 2, 3))
            state, regret = env._rng.bit_generator.state, env.ledger.cum_regret
            batch = env.sample_epochs((1,), (2, 3), epochs)
            assert env._rng.bit_generator.state == state
            assert (batch.requested, batch.epochs, batch.steps) == (epochs, 0, left)
            assert batch.truncated and batch.z_sum == 0.0 and not batch.x_sums.any()
            assert env.ledger.steps == spent + left and env.steps_remaining == 0
            assert env.ledger.cum_regret == regret + per_step * left

    def test_zero_weight_tracked_items(self):
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.0, 0.4, 0.0])
        env = Environment(inst, fork_stream(18, 0))
        batch = env.sample_epochs((), (1, 2), 5000)
        x, _ = epoch_detail(env, batch)
        assert batch.x_sums[0] == 0 and batch.x_sums[1] > 0
        assert np.all(x[:, 0] == 0)
        assert batch.steps == batch.epochs + int(batch.x_sums.sum())
        # only weightless items tracked: every epoch stops at its first step
        batch = env.sample_epochs((2,), (1, 3), 300)
        _, lengths = epoch_detail(env, batch)
        assert batch.steps == batch.epochs == 300
        np.testing.assert_array_equal(batch.x_sums, [0, 0])
        np.testing.assert_array_equal(lengths, np.ones(300))


def _explore_epochs(env, z, s, epochs):
    """Step-level reference: per-epoch lengths and item counts via ``explore``."""
    state = ExploreState(z_stop=z)
    lengths = np.zeros(epochs, dtype=np.int64)
    x = np.zeros((epochs, len(s)), dtype=np.int64)
    for e in range(epochs):
        before = [state.n.get(i, 0) for i in s]
        lengths[e] = explore(env, state, s)
        x[e] = [state.n[i] - b for i, b in zip(s, before)]
    return lengths, x


def _stats_with_se(lengths, x):
    """P(length = 1), Var(length), Cov(x_1, x_2) and their standard errors."""
    n = len(lengths)
    first = (lengths == 1).astype(float)
    sq = (lengths - lengths.mean()) ** 2
    cross = (x[:, 0] - x[:, 0].mean()) * (x[:, 1] - x[:, 1].mean())
    per_epoch = (first, sq, cross)
    return (
        np.array([v.mean() for v in per_epoch]),
        np.array([v.std() / np.sqrt(n) for v in per_epoch]),
    )


class TestEpochLaw:
    def test_batch_matches_step_level_joint_law(self):
        # v = (1, 1), Z empty: the stop probability per step is q = 1/3, so
        # P(length = 1) = 1/3, Var(length) = (1 - q) / q^2 = 6, and the
        # item counts are negative-multinomial with Cov(x_1, x_2) =
        # nu_1 nu_2 = 1 (independent geometrics would give 0).
        inst = Instance(n=2, k=2, r=[1.0, 0.5], v=[1.0, 1.0])
        env = Environment(inst, fork_stream(21, 0))
        x, lengths = epoch_detail(env, env.sample_epochs((), (1, 2), 200_000))
        got, se_got = _stats_with_se(lengths, x)
        ref, se_ref = _stats_with_se(
            *_explore_epochs(Environment(inst, fork_stream(22, 0)), (), (1, 2), 20_000)
        )
        truth = np.array([1.0 / 3.0, 6.0, 1.0])
        assert np.all(np.abs(got - ref) <= 4 * np.hypot(se_got, se_ref))
        assert np.all(np.abs(got - truth) <= 4 * se_got)
        assert np.all(np.abs(ref - truth) <= 4 * se_ref)

    def test_truncated_batch_matches_step_level_law(self):
        # Under a budget of B = 23 steps for T = 12 epochs (about 25 steps
        # expected), about half the batches are cut: compare the law of the
        # steps spent with `explore`'s.  A cut batch spends the whole budget.
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.7], v=[0.9, 0.6, 0.4])
        budget, epochs, reps = 23, 12, 4000
        batch_steps, step_steps = [], []
        for rep in range(reps):
            env = Environment(inst, fork_stream(23, rep), horizon=budget)
            b = env.sample_epochs((3,), (1, 2), epochs)
            assert b.steps == (budget if b.truncated else b.epochs + int(b.x_sums.sum()))
            batch_steps.append(b.steps)
            env = Environment(inst, fork_stream(24, rep), horizon=budget)
            state = ExploreState(z_stop=(3,))
            try:
                while state.t_z < epochs:
                    explore(env, state, (1, 2))
            except HorizonExhausted:
                pass
            step_steps.append(env.ledger.steps)
        values = np.union1d(batch_steps, step_steps)
        table = np.array(
            [[np.sum(np.array(rows) == v) for v in values] for rows in (batch_steps, step_steps)]
        )
        sparse = table.sum(axis=0) < 10  # pool rare values into one cell
        if sparse.any():
            table = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
        assert stats.chi2_contingency(table).pvalue > 0.001
