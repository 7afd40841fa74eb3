"""Tests for epoch exploration, interval formulas, and the estimators."""

import dataclasses
import math
import re
import sys
from functools import partial

import numpy as np
import pytest
from scipy import stats

from mnlbandit.env import Environment, HorizonExhausted, fork_stream
from mnlbandit.instances import generate_instance
from mnlbandit.estimators import (
    C0,
    C2,
    DESK_TUNING,
    EstimateSet,
    ExploreState,
    PAPER_TUNING,
    Tuning,
    _explore,
    _log_term,
    _refinement_tau,
    _rough_tau,
    ci_nu,
    ci_theta,
    ci_xi,
    ci_zeta,
    est_adaptive,
    est_naive,
    est_reduced,
    est_reg,
    est_rough,
)
from mnlbandit.model import Instance
from epoch_detail import epoch_detail
from explore_reference import explore
from model_reference import ReducedParams, reduce_params
from oracle_reference import fractional_optimum

# Fast-but-valid profile for coverage runs: tiny epoch budgets, exact
# confidence radii (ci_scale=1), so the intervals keep their guarantees
# while the simulation stays cheap.
COVER_TUNING = Tuning(tau_scale=1e-5, rough_tau_scale=0.02, ci_scale=1.0)


def make_env(inst, seed=0, rep=0, horizon=None):
    return Environment(inst, fork_stream(seed, rep), horizon=horizon)


def record_batches(env):
    """Record each ``env.sample_epochs`` call as ``(Z, S, epochs)``: the plan
    an estimator actually explored."""
    calls = []
    sample = env.sample_epochs

    def recording(z, s, epochs):
        calls.append((tuple(z), tuple(s), epochs))
        return sample(z, s, epochs)

    env.sample_epochs = recording
    return calls


def fixed_instance():
    rng = np.random.default_rng(100)
    return Instance(n=4, k=2, r=rng.uniform(0, 1, 4), v=rng.uniform(0, 1, 4))


class TestTuningProfiles:
    def test_exact_profile_constants(self):
        assert (C0, C2) == (196, 1024)
        assert [f.name for f in dataclasses.fields(Tuning)] == [
            "tau_scale", "rough_tau_scale", "ci_scale"
        ]
        assert PAPER_TUNING.tau_scale == 1.0
        assert PAPER_TUNING.rough_tau_scale == 1.0
        assert PAPER_TUNING.ci_scale == 1.0

    def test_desk_profile_is_pinned(self):
        assert DESK_TUNING.tau_scale == 2e-6
        assert DESK_TUNING.rough_tau_scale == 0.02
        assert DESK_TUNING.ci_scale == 0.02

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
    @pytest.mark.parametrize("name", ["tau_scale", "rough_tau_scale", "ci_scale"])
    def test_validation(self, name, bad):
        with pytest.raises(ValueError, match="^tuning multipliers must be finite and positive$"):
            Tuning(**{name: bad})


class TestSchedules:
    def test_refinement_tau_pinned_value(self):
        # ceil(1024 * 196 * log(2/0.01) / 0.5^2) computed independently.
        assert _refinement_tau(_log_term(0.01, 1, 1), 0.5, PAPER_TUNING) == 4253574

    def test_rough_tau_pinned_value(self):
        # ceil(4 * 3 * 196 * log(2/0.01)) computed independently.
        assert _rough_tau(_log_term(0.01, 1, 1), 3, PAPER_TUNING) == 12462

    def test_tau_rounds_up_and_floors_at_one(self):
        tiny = Tuning(tau_scale=1e-12, rough_tau_scale=1e-12)
        assert _refinement_tau(_log_term(0.1, 1, 1), 1.0, tiny) == 1
        assert _rough_tau(_log_term(0.1, 1, 1), 2, tiny) == 1
        raw = 1024 * 196 * math.log(2 / 0.3) / (0.7**2)
        assert _refinement_tau(_log_term(0.3, 1, 1), 0.7, PAPER_TUNING) == math.ceil(raw)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
            _log_term(0.0, 15, 4)
        log_term = _log_term(0.1, 15, 4)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\]$"):
            _refinement_tau(log_term, 0.0, PAPER_TUNING)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\]$"):
            _refinement_tau(log_term, 1.5, PAPER_TUNING)


class TestDeltaFloor:
    """A public estimator refuses a delta whose split would fall below the
    smallest normal float before any step, naming delta and n."""

    INST = generate_instance("uniform", 8, 3, seed=7)

    @staticmethod
    def _calls(env):
        # (estimator, its delta divisor)
        return {
            "est_rough": (lambda d: est_rough(env, d, DESK_TUNING), 17),
            "est_naive": (lambda d: est_naive(env, (), (1, 2), d, 0.5, DESK_TUNING), 15),
        }

    @pytest.mark.parametrize("name", ["est_rough", "est_naive"])
    @pytest.mark.parametrize("delta", [1e-307, sys.float_info.min, 5e-324])
    def test_refused_before_any_step(self, name, delta):
        env = make_env(self.INST, seed=1)
        call, divisor = self._calls(env)[name]
        smallest = sys.float_info.min * divisor * 8
        message = (
            rf"delta {re.escape(repr(delta))} is too small to split for n = 8 items: "
            rf"the smallest delta accepted is {re.escape(repr(smallest))}$"
        )
        with pytest.raises(ValueError, match=message):
            call(delta)
        assert env.ledger.steps == 0

    @pytest.mark.parametrize("name", ["est_rough", "est_naive"])
    def test_the_smallest_delta_accepted_runs(self, name):
        env = make_env(self.INST, seed=1)
        call, divisor = self._calls(env)[name]
        call(sys.float_info.min * divisor * 8)
        assert env.ledger.steps > 0

    @pytest.mark.parametrize("name", ["est_rough", "est_naive"])
    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1])
    def test_outside_the_unit_interval_refused(self, name, delta):
        env = make_env(self.INST, seed=1)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            self._calls(env)[name][0](delta)


class TestExploreState:
    def test_running_means(self):
        state = ExploreState(z_stop=(1,))
        assert state.bar_zeta() == 0.0
        state.n_z, state.t_z = 3.0, 10
        assert state.bar_zeta() == 0.3


class TestCiZeta:
    def test_pinned_interval(self):
        state = ExploreState()
        state.n_z, state.t_z = 200.0, 800
        lo, hi = ci_zeta(state, math.log(2 / 0.05))
        rad = math.sqrt(math.log(2 / 0.05) / (2 * 800))
        np.testing.assert_allclose(lo, 0.25 - rad, rtol=1e-15)
        np.testing.assert_allclose(hi, 0.25 + rad, rtol=1e-15)

    def test_no_data_gives_trivial_interval(self):
        assert ci_zeta(ExploreState(), math.log(2 / 0.1)) == (0.0, 1.0)

    def test_clamps_to_unit_interval(self):
        state = ExploreState()
        state.n_z, state.t_z = 0.0, 10
        lo, hi = ci_zeta(state, math.log(2 / 0.1))
        assert lo == 0.0 and 0.0 < hi <= 1.0

    def test_width_shrinks_with_epochs(self):
        widths = []
        for t in (100, 400, 1600):
            state = ExploreState()
            state.n_z, state.t_z = 0.25 * t, t
            lo, hi = ci_zeta(state, math.log(2 / 0.1))
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]
        np.testing.assert_allclose(widths[0] / widths[1], 2.0, rtol=1e-12)

    def test_recomputation_is_bitwise_identical(self):
        state = ExploreState()
        state.n_z, state.t_z = 123.0, 777
        assert ci_zeta(state, math.log(2 / 0.03)) == ci_zeta(state, math.log(2 / 0.03))


class TestCiNu:
    def test_zero_mean_radius(self):
        lo, hi = ci_nu(0, 400, math.log(2 / 0.1))
        assert lo == 0.0
        np.testing.assert_allclose(hi, 48 * math.log(2 / 0.1) / 400, rtol=1e-15)

    def test_no_data_gives_trivial_interval(self):
        assert ci_nu(0, 0, math.log(2 / 0.1)) == (0.0, 1.0)

    def test_radius_formula(self):
        t, bar = 100_000, 0.3
        big_l = math.log(2 / 0.01)
        lo, hi = ci_nu(int(bar * t), t, big_l)
        rad = math.sqrt(48 * bar * big_l / t) + 48 * big_l / t
        np.testing.assert_allclose(hi - lo, 2 * rad, rtol=1e-12)

    def test_doubling_epochs_shrinks_width_moderately(self):
        # At nu = 0.3 the radius mixes sqrt(1/T) and 1/T terms, so doubling
        # T shrinks the width by a factor strictly between sqrt(2) and 2.
        def width(t):
            lo, hi = ci_nu(int(0.3 * t), t, math.log(2 / 0.01))
            return hi - lo

        ratio = width(100_000) / width(200_000)
        assert 1.3 <= ratio <= 2.1


class TestCiTheta:
    def test_degenerate_intervals_recover_the_optimum(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            params = ReducedParams(
                float(rng.uniform(0, 1)),
                {i: float(rng.uniform(0, 1)) for i in range(1, n + 1)},
            )
            rewards = {i: float(rng.uniform(0, 1)) for i in range(1, n + 1)}
            m = int(rng.integers(0, n + 1))
            truth = fractional_optimum(rewards, params, m).theta_star
            lo, hi, _ = ci_theta(
                rewards, sorted(params.nu), params.nu, params.nu,
                params.zeta, params.zeta, m,
            )
            np.testing.assert_allclose(lo, truth, atol=1e-9)
            np.testing.assert_allclose(hi, truth, atol=1e-9)

    def test_valid_inputs_contain_the_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = 5
            params = ReducedParams(
                float(rng.uniform(0, 0.8)),
                {i: float(rng.uniform(0, 0.8)) for i in range(1, n + 1)},
            )
            rewards = {i: float(rng.uniform(0, 1)) for i in range(1, n + 1)}
            m = int(rng.integers(0, n + 1))
            truth = fractional_optimum(rewards, params, m).theta_star
            nu_lo = {i: max(0.0, v - rng.uniform(0, 0.2)) for i, v in params.nu.items()}
            nu_hi = {i: min(1.0, v + rng.uniform(0, 0.2)) for i, v in params.nu.items()}
            z_lo = max(0.0, params.zeta - rng.uniform(0, 0.2))
            z_hi = min(1.0, params.zeta + rng.uniform(0, 0.2))
            lo, hi, _ = ci_theta(rewards, sorted(nu_lo), nu_lo, nu_hi, z_lo, z_hi, m)
            assert lo - 1e-10 <= truth <= hi + 1e-10
            assert lo <= hi + 1e-12

    def test_widening_a_weight_interval_never_shrinks_the_result(self):
        rewards = {1: 0.9, 2: 0.6, 3: 0.3}
        nu_lo = {1: 0.2, 2: 0.3, 3: 0.1}
        nu_hi = {1: 0.4, 2: 0.5, 3: 0.3}
        base = ci_theta(rewards, [1, 2, 3], nu_lo, nu_hi, 0.1, 0.2, 2)
        wider_lo = {**nu_lo, 2: 0.1}
        wider_hi = {**nu_hi, 2: 0.7}
        wide = ci_theta(rewards, [1, 2, 3], wider_lo, wider_hi, 0.1, 0.2, 2)
        assert wide[0] <= base[0] + 1e-12
        assert wide[1] >= base[1] - 1e-12


class TestCiXi:
    def test_zero_reward_margin_gives_zero_interval(self):
        assert ci_xi(0.5, (0.1, 0.9), (0.5, 0.5)) == (0.0, 0.0)

    def test_degenerate_inputs_give_the_point_score(self):
        nu, theta, r = 0.4, 0.3, 0.8
        lo, hi = ci_xi(r, (nu, nu), (theta, theta))
        np.testing.assert_allclose([lo, hi], [nu * (r - theta)] * 2, rtol=1e-15)

    def test_negative_scores_pick_the_heavy_end(self):
        # reward below both revenue ends: the upper weight end hurts most.
        lo, hi = ci_xi(0.2, (0.1, 0.5), (0.6, 0.9))
        np.testing.assert_allclose(lo, 0.5 * (0.2 - 0.9), rtol=1e-15)
        np.testing.assert_allclose(hi, 0.1 * (0.2 - 0.6), rtol=1e-15)

    def test_containment_under_valid_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            nu = float(rng.uniform(0, 1))
            theta = float(rng.uniform(0, 1))
            r = float(rng.uniform(0, 1))
            nu_b = (max(0.0, nu - rng.uniform(0, 0.3)), min(1.0, nu + rng.uniform(0, 0.3)))
            th_b = (max(0.0, theta - rng.uniform(0, 0.3)), min(1.0, theta + rng.uniform(0, 0.3)))
            lo, hi = ci_xi(r, nu_b, th_b)
            truth = nu * (r - theta)
            assert lo - 1e-12 <= truth <= hi + 1e-12
            assert lo <= hi


class TestExplore:
    def test_zero_weight_items_stop_immediately(self):
        inst = Instance(n=2, k=2, r=[1.0, 1.0], v=[0.0, 0.0])
        env = make_env(inst, seed=50)
        state = ExploreState()
        length = explore(env, state, (1, 2))
        assert length == 1
        assert state.t_z == 1 and state.n_z == 0.0
        assert state.n == {1: 0, 2: 0} and state.t == {1: 1, 2: 1}

    def test_overlap_with_stopping_set_rejected(self):
        inst = Instance(n=3, k=3, r=[1.0] * 3, v=[0.5] * 3)
        env = make_env(inst, seed=50)
        state = ExploreState(z_stop=(1,))
        with pytest.raises(ValueError):
            explore(env, state, (1, 2))

    def test_capacity_violations_surface_from_the_environment(self):
        inst = Instance(n=3, k=2, r=[1.0] * 3, v=[0.5] * 3)
        env = make_env(inst, seed=50)
        state = ExploreState(z_stop=(1,))
        with pytest.raises(ValueError):
            explore(env, state, (2, 3))

    def test_budget_death_discards_the_partial_epoch(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[0.9])
        env = make_env(inst, seed=51, horizon=25)
        state = ExploreState()
        completed = 0
        with pytest.raises(HorizonExhausted):
            while True:
                explore(env, state, (1,))
                completed += 1
        assert env.ledger.steps == 25
        assert state.t_z == completed
        assert state.t[1] == completed

    def test_step_route_matches_the_epoch_law(self):
        # The reference step-by-step epoch collects geometric counts: compare
        # its histogram against the exact law (this is the distribution the
        # batched sampler draws from directly).
        inst = Instance(n=3, k=3, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = make_env(inst, seed=52)
        state = ExploreState(z_stop=(1,))
        epochs = 10_000
        counts_3 = np.zeros(epochs, dtype=int)
        for ell in range(epochs):
            prev = state.n.get(3, 0)
            explore(env, state, (2, 3))
            counts_3[ell] = state.n[3] - prev
        nu = reduce_params(inst, (1,)).nu[3]  # 8/15: fat enough tail bins
        # geometric pmf on {0,1,...}: P(x=j) = nu^j / (1+nu)^(j+1)
        edges = list(range(0, 7))
        pmf = np.array([nu**j / (1 + nu) ** (j + 1) for j in edges])
        tail = 1.0 - pmf.sum()
        observed = np.array(
            [(counts_3 == j).sum() for j in edges] + [(counts_3 > edges[-1]).sum()],
            dtype=float,
        )
        expected = np.array(list(pmf * epochs) + [tail * epochs])
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_both_routes_estimate_the_same_parameters(self):
        inst = Instance(n=4, k=3, r=[1.0, 0.6, 0.4, 0.8], v=[0.5, 0.7, 0.2, 0.9])
        params = reduce_params(inst, (1,))
        epochs = 4000

        step_state = ExploreState(z_stop=(1,))
        env_a = make_env(inst, seed=53, rep=0)
        for _ in range(epochs):
            explore(env_a, step_state, (2, 3))

        env_b = make_env(inst, seed=53, rep=1)
        batch_state = _explore(env_b, (1,), [((2, 3), 1)], epochs)

        for state in (step_state, batch_state):
            assert state.t_z == epochs
            for i in (2, 3):
                se = math.sqrt(params.nu[i] * (1 + params.nu[i]) / epochs)
                assert abs(state.n[i] / state.t[i] - params.nu[i]) <= 4 * se
            se_z = math.sqrt(0.25 / epochs)
            assert abs(state.bar_zeta() - params.zeta) <= 4 * se_z

    def test_batch_route_commits_nothing_on_truncation(self):
        inst = Instance(n=1, k=1, r=[1.0], v=[0.9])
        env = make_env(inst, seed=54, horizon=60)
        assert _explore(env, (), [((1,), 1)], 5).t_z == 5
        # the second group overruns the budget, after a first one that fits
        with pytest.raises(HorizonExhausted, match="within a batch of 10000 epochs"):
            _explore(env, (), [((1,), 1), ((1,), 2000)], 5)
        assert env.ledger.steps == 60

    def test_batch_route_records_lengths_when_asked(self):
        inst = Instance(n=2, k=2, r=[1.0, 0.5], v=[0.5, 0.3])
        env = make_env(inst, seed=55)
        _, lengths = epoch_detail(env, env.sample_epochs((), (1, 2), 300))
        assert len(lengths) == 300
        assert sum(lengths) == env.ledger.steps

    def test_batch_route_accepts_any_sequence_of_ids(self):
        inst = Instance(n=4, k=3, r=[1.0, 0.6, 0.4, 0.8], v=[0.5, 0.7, 0.2, 0.9])
        runs = []
        for s in ((2, 3), [2, 3], np.array([2, 3]), (np.int64(2), np.int64(3))):
            env = make_env(inst, seed=56)
            state = _explore(env, (1,), [(s, 1)], 500)
            runs.append((state, env.ledger.steps))
        assert all(run == runs[0] for run in runs[1:])
        assert all(type(i) is int for state, _ in runs for i in state.n)

    def test_batch_route_rejects_invalid_sets_before_any_step(self):
        inst = Instance(n=3, k=2, r=[1.0] * 3, v=[0.5] * 3)
        env = make_env(inst, seed=57)
        _explore(env, (1,), [((2,), 1)], 10)  # a cached key
        steps, rng_state = env.ledger.steps, env._rng.bit_generator.state
        for bad in ((3, 2), [3, 2], (2, 2), (0,), (4,), (1, 2), (2, 3)):
            with pytest.raises(ValueError):
                _explore(env, (1,), [(bad, 1)], 10)
        assert env.ledger.steps == steps
        assert env._rng.bit_generator.state == rng_state


class TestEstNaive:
    def test_bookkeeping(self):
        inst = fixed_instance()
        env = make_env(inst, seed=61)
        tuning = Tuning(tau_scale=1e-5, ci_scale=1.0)
        calls = record_batches(env)
        est = est_naive(env, (1,), (2, 3), 0.2, 0.5, tuning)
        assert est.items == (2, 3)
        assert set(est.nu_lo) == {1, 2, 3}
        units = inst.k * _refinement_tau(_log_term(0.2, 15, inst.n), 0.5, tuning)
        assert calls == [((), (i,), units) for i in (1, 2, 3)]
        assert est.epochs == 3 * units
        assert env.ledger.steps >= est.epochs  # an epoch takes at least one step
        assert (est.zeta_lo, est.zeta_hi) == (0.0, 0.0)

    def test_disjointness_enforced(self):
        env = make_env(fixed_instance(), seed=61)
        with pytest.raises(ValueError):
            est_naive(env, (1, 2), (2, 3), 0.1, 0.5, DESK_TUNING)

    def test_score_coverage(self):
        # True scores are u_i = v_i (r_i - theta*) with theta* the optimum
        # over the explored items; intervals must cover them in at least
        # 1 - delta0 of replications.
        inst = fixed_instance()
        rewards = {i: float(inst.r[i - 1]) for i in range(1, inst.n + 1)}
        truth_theta = fractional_optimum(
            rewards, reduce_params(inst, ()), inst.k
        ).theta_star
        u = {i: float(inst.v[i - 1]) * (rewards[i] - truth_theta) for i in rewards}
        delta0 = 0.2
        covered = 0
        reps = 200
        for rep in range(reps):
            env = make_env(inst, seed=62, rep=rep)
            est = est_naive(env, (), tuple(range(1, inst.n + 1)), delta0, 0.5, COVER_TUNING)
            if all(est.xi_lo[i] - 1e-12 <= u[i] <= est.xi_hi[i] + 1e-12 for i in est.items):
                covered += 1
        assert covered >= (1 - delta0) * reps

    def test_consumed_steps_track_the_expected_epoch_cost(self):
        # Each singleton epoch of item i costs 1 + v_i steps in expectation,
        # so a full invocation costs about k tau sum(1 + v_i).
        inst = fixed_instance()
        tuning = Tuning(tau_scale=2e-4, ci_scale=1.0)
        expected = None
        for rep in range(20):
            env = make_env(inst, seed=63, rep=rep)
            est = est_naive(env, (), tuple(range(1, inst.n + 1)), 0.2, 0.5, tuning)
            if expected is None:
                tau = _refinement_tau(_log_term(0.2, 15, inst.n), 0.5, tuning)
                expected = inst.k * tau * float((1.0 + np.asarray(inst.v)).sum())
            assert expected / 2 <= env.ledger.steps <= expected * 2


class TestEstRough:
    def test_zero_weight_item_upper_end_is_exact(self):
        # A weightless item is never purchased, so its empirical mean is 0
        # and the upper end is exactly the deterministic radius 48 L / tau,
        # which is at most 3/(49 k) — comfortably within (0, 1/k].
        inst = Instance(n=1, k=1, r=[1.0], v=[0.0])
        env = make_env(inst, seed=64)
        delta0 = 0.1
        rough = est_rough(env, delta0, PAPER_TUNING)
        log_term = _log_term(delta0, 17, inst.n)
        tau = _rough_tau(log_term, inst.k, PAPER_TUNING)
        want = 48 * log_term / tau
        np.testing.assert_allclose(rough[1], want, rtol=1e-15)
        assert 0.0 < rough[1] <= 3.0 / (49 * inst.k) + 1e-12

    def test_quality_contract(self):
        # With the exact constants, each upper estimate lands in
        # [v_i, max(2 v_i, 1/k)] with probability at least 1 - delta0.
        inst = fixed_instance()
        delta0 = 0.2
        reps = 100
        ok = 0
        tau = _rough_tau(_log_term(delta0, 17, inst.n), inst.k, PAPER_TUNING)
        for rep in range(reps):
            env = make_env(inst, seed=65, rep=rep)
            rough = est_rough(env, delta0, PAPER_TUNING)
            good = all(
                inst.v[i - 1] <= rough[i] <= max(2 * inst.v[i - 1], 1.0 / inst.k) + 1e-12
                for i in range(1, inst.n + 1)
            )
            ok += good
            assert env.ledger.steps <= 24 * inst.n * tau
        assert ok >= (1 - delta0) * reps

    @pytest.mark.parametrize(
        "family, n, k, seed, gaps",
        [
            ("lower-bound", 4, 2, None, [0.002, 0.002]),
            ("uniform", 8, 3, 7, None),
            ("uniform", 20, 10, 3, None),
        ],
        ids=["hard-pac", "many-small", "wide-oracle"],
    )
    def test_a_budget_only_decides_whether_the_pass_completes(self, family, n, k, seed, gaps):
        # Every item gets an upper end, in id order; under a budget the pass
        # fills exactly it draws the same bytes, and under half of that it
        # spends the whole budget and returns nothing.
        inst = generate_instance(family, n, k, seed, gaps)

        def outcome(horizon):
            env = make_env(inst, seed=1, horizon=horizon)
            out = [(i, x.hex()) for i, x in est_rough(env, 0.05, DESK_TUNING).items()]
            return out, env.ledger.steps, env._rng.bit_generator.state

        full = outcome(None)
        assert [i for i, _ in full[0]] == list(range(1, n + 1))
        assert outcome(full[1]) == full
        env = make_env(inst, seed=1, horizon=full[1] // 2)
        with pytest.raises(HorizonExhausted):
            est_rough(env, 0.05, DESK_TUNING)
        assert env.ledger.steps == full[1] // 2


class TestEstAdaptive:
    def test_layer_plan_is_deterministic(self):
        inst = Instance(n=5, k=4, r=[0.9] * 5, v=[0.5] * 5)
        env = make_env(inst, seed=66)
        rough = {1: 0.5, 2: 0.9, 3: 0.3, 4: 0.15, 5: 0.01}
        tuning = Tuning(tau_scale=1e-9)  # tau = 1: the plan is what matters
        calls = record_batches(env)
        est = est_adaptive(env, (1,), (2, 3, 4, 5), 0.1, 0.5, rough, tuning)
        # reduced rough weights: 0.6, 0.2, 0.1, 1/150 against capacity 3, so
        # layers (2,), () and (3, 4, 5), explored in groups of 1, 2 and 3.
        assert calls == [((1,), (2,), 1), ((1,), (3, 4, 5), 3)]
        assert est.epochs == 4

    def test_single_pending_item_gets_tau_epochs(self):
        inst = Instance(n=2, k=2, r=[1.0, 0.5], v=[0.5, 0.3])
        env = make_env(inst, seed=67)
        rough = {1: 0.5, 2: 0.3}
        tuning = Tuning(tau_scale=1e-6)
        calls = record_batches(env)
        est = est_adaptive(env, (1,), (2,), 0.1, 0.5, rough, tuning)
        tau = _refinement_tau(_log_term(0.1, 15, inst.n), 0.5, tuning)
        assert calls == [((1,), (2,), tau)]
        assert est.epochs == tau

    def test_preconditions(self):
        inst = fixed_instance()
        env = make_env(inst, seed=68)
        rough = {i: 0.5 for i in range(1, inst.n + 1)}
        with pytest.raises(ValueError):
            est_adaptive(env, (1,), (1, 2), 0.1, 0.5, rough, DESK_TUNING)
        with pytest.raises(ValueError):
            est_adaptive(env, (1,), (), 0.1, 0.5, rough, DESK_TUNING)
        with pytest.raises(ValueError):
            est_adaptive(env, (1, 2), (3,), 0.1, 0.5, rough, DESK_TUNING)  # k = 2
        with pytest.raises(ValueError, match="^missing rough estimate for item 3$"):
            est_adaptive(env, (), (2, 3), 0.1, 0.5, {2: 0.5}, DESK_TUNING)

    def test_exact_constants_deliver_the_requested_width(self):
        # At the exact constants the returned score intervals must be
        # narrower than the requested accuracy, within the step budget
        # 120 |B| tau.
        inst = Instance(n=3, k=2, r=[1.0, 0.5, 0.2], v=[0.5, 0.3, 0.8])
        env = make_env(inst, seed=69)
        rough = {i: float(inst.v[i - 1]) for i in range(1, inst.n + 1)}
        eps = 1.0
        calls = record_batches(env)
        est = est_adaptive(env, (), (1, 2, 3), 0.2, eps, rough, PAPER_TUNING)
        expected_tau = math.ceil(1024 * 196 * math.log(2 / (0.2 / 45)))
        assert calls == [((), (3,), expected_tau), ((), (1, 2), 2 * expected_tau)]
        assert est.max_width() <= eps
        assert env.ledger.steps <= 120 * 3 * expected_tau
        assert est.epochs == 3 * expected_tau  # groups of widths 1 and 2

    def test_score_coverage(self):
        inst = fixed_instance()
        a, b = (1,), (2, 3, 4)
        params = reduce_params(inst, a)
        rewards = {i: float(inst.r[i - 1]) for i in b}
        m = min(inst.k - 1, len(b))
        theta = fractional_optimum(
            rewards, ReducedParams(params.zeta, {i: params.nu[i] for i in b}), m
        ).theta_star
        xi = {i: params.nu[i] * (rewards[i] - theta) for i in b}
        delta0 = 0.2
        covered = 0
        reps = 200
        for rep in range(reps):
            env = make_env(inst, seed=70, rep=rep)
            rough = est_rough(env, delta0, COVER_TUNING)
            est = est_adaptive(env, a, b, delta0, 0.5, rough, COVER_TUNING)
            if all(est.xi_lo[i] - 1e-12 <= xi[i] <= est.xi_hi[i] + 1e-12 for i in b):
                covered += 1
        assert covered >= (1 - delta0) * reps

    def test_deterministic_given_the_stream(self):
        inst = fixed_instance()
        rough = {i: float(inst.v[i - 1]) for i in range(1, inst.n + 1)}
        runs = []
        for _ in range(2):
            env = make_env(inst, seed=71)
            runs.append(est_adaptive(env, (1,), (2, 3, 4), 0.1, 0.5, rough, DESK_TUNING))
        assert runs[0] == runs[1]


class TestEstReduced:
    def test_bookkeeping(self):
        inst = fixed_instance()
        env = make_env(inst, seed=73)
        tuning = Tuning(tau_scale=1e-5, ci_scale=1.0)
        calls = record_batches(env)
        est = est_reduced(env, (1,), (2, 3), 0.2, 0.5, tuning)
        assert est.items == (2, 3)
        units = inst.k * _refinement_tau(_log_term(0.2, 15, inst.n), 0.5, tuning)
        assert calls == [((1,), (2,), units), ((1,), (3,), units)]
        assert est.epochs == 2 * units
        assert env.ledger.steps >= est.epochs  # an epoch takes at least one step

    def test_full_pinned_set_rejected_when_items_pend(self):
        env = make_env(fixed_instance(), seed=73)  # k = 2
        with pytest.raises(ValueError):
            est_reduced(env, (1, 2), (3,), 0.1, 0.5, DESK_TUNING)

    def test_score_coverage(self):
        inst = fixed_instance()
        a, b = (1,), (2, 3, 4)
        params = reduce_params(inst, a)
        rewards = {i: float(inst.r[i - 1]) for i in b}
        m = min(inst.k - 1, len(b))
        theta = fractional_optimum(
            rewards, ReducedParams(params.zeta, {i: params.nu[i] for i in b}), m
        ).theta_star
        xi = {i: params.nu[i] * (rewards[i] - theta) for i in b}
        delta0 = 0.2
        covered = 0
        reps = 200
        for rep in range(reps):
            env = make_env(inst, seed=74, rep=rep)
            est = est_reduced(env, a, b, delta0, 0.5, COVER_TUNING)
            if all(est.xi_lo[i] - 1e-12 <= xi[i] <= est.xi_hi[i] + 1e-12 for i in b):
                covered += 1
        assert covered >= (1 - delta0) * reps


class TestEstReg:
    def test_single_group_when_pending_fits(self):
        inst = Instance(n=4, k=4, r=[0.9] * 4, v=[0.5] * 4)
        env = make_env(inst, seed=75)
        tuning = Tuning(tau_scale=1e-9)
        calls = record_batches(env)
        est_reg(env, (1,), (2, 3, 4), 0.1, 0.5, tuning)
        assert calls == [((), (1, 2, 3, 4), inst.k)]

    def test_last_group_padded_to_full_size(self):
        inst = Instance(n=5, k=3, r=[0.9] * 5, v=[0.5] * 5)
        env = make_env(inst, seed=76)
        tuning = Tuning(tau_scale=1e-9)
        calls = record_batches(env)
        est_reg(env, (1,), (2, 3, 4, 5), 0.1, 0.5, tuning)
        assert [s for _, s, _ in calls] == [(1, 2, 3), (1, 4, 5)]
        env2 = make_env(inst, seed=76)
        calls2 = record_batches(env2)
        est_reg(env2, (), (1, 2, 3), 0.1, 0.5, tuning)
        assert [s for _, s, _ in calls2] == [(1, 2, 3)]
        inst3 = Instance(n=5, k=4, r=[0.9] * 5, v=[0.5] * 5)
        env3 = make_env(inst3, seed=76)
        calls3 = record_batches(env3)
        est_reg(env3, (1,), (2, 3, 4, 5), 0.1, 0.5, tuning)
        # capacity 3 over four pending items: the short tail is padded with
        # the smallest pending items outside it.
        assert [s for _, s, _ in calls3] == [(1, 2, 3, 4), (1, 2, 3, 5)]

    def test_groups_cover_the_pending_set(self):
        inst = Instance(n=7, k=3, r=[0.9] * 7, v=[0.5] * 7)
        env = make_env(inst, seed=77)
        calls = record_batches(env)
        est_reg(env, (1,), (2, 3, 4, 5, 6, 7), 0.1, 0.5, Tuning(tau_scale=1e-9))
        union = set()
        for z, s, _ in calls:
            assert z == () and len(s) == inst.k and 1 in s
            union |= set(s)
        assert union == {1, 2, 3, 4, 5, 6, 7}

    def test_bookkeeping_and_pinned_stop_reward(self):
        inst = fixed_instance()
        env = make_env(inst, seed=78)
        tuning = Tuning(tau_scale=1e-5, ci_scale=1.0)
        calls = record_batches(env)
        est = est_reg(env, (1,), (2, 3, 4), 0.2, 0.5, tuning)
        assert (est.zeta_lo, est.zeta_hi) == (0.0, 0.0)
        assert set(est.nu_lo) == {1, 2, 3, 4}  # pinned items estimated too
        units = inst.k * _refinement_tau(_log_term(0.2, 13, inst.n), 0.5, tuning)
        assert calls == [((), (1, 2), units), ((), (1, 3), units), ((), (1, 4), units)]
        assert est.epochs == 3 * units
        assert env.ledger.steps >= est.epochs  # an epoch takes at least one step

    def test_preconditions(self):
        env = make_env(fixed_instance(), seed=78)  # k = 2
        with pytest.raises(ValueError):
            est_reg(env, (1, 2), (3,), 0.1, 0.5, DESK_TUNING)
        with pytest.raises(ValueError):
            est_reg(env, (1,), (), 0.1, 0.5, DESK_TUNING)

    def test_score_coverage(self):
        inst = fixed_instance()
        a, b = (1,), (2, 3, 4)
        rewards = {i: float(inst.r[i - 1]) for i in range(1, inst.n + 1)}
        theta = fractional_optimum(
            rewards, reduce_params(inst, ()), min(inst.k, 4)
        ).theta_star
        u = {i: float(inst.v[i - 1]) * (rewards[i] - theta) for i in b}
        delta0 = 0.2
        covered = 0
        reps = 200
        for rep in range(reps):
            env = make_env(inst, seed=79, rep=rep)
            est = est_reg(env, a, b, delta0, 0.5, COVER_TUNING)
            if all(est.xi_lo[i] - 1e-12 <= u[i] <= est.xi_hi[i] + 1e-12 for i in b):
                covered += 1
        assert covered >= (1 - delta0) * reps


@pytest.mark.parametrize("name", ["naive", "reduced", "adaptive", "reg"])
@pytest.mark.parametrize(
    "a, b, delta0, eps, message",
    [
        ((), (), 0.01, 0.25, "pending set must be nonempty"),
        ((1, 2), (), 0.01, 0.25, "pending set must be nonempty"),
        # M = min(k - |a|, |b|) = 0, refused before delta and eps are read
        ((1, 2, 3), (4, 5), 0.01, 0.25, "pinned set already fills the capacity"),
        ((1, 2, 3), (4, 5), 0.01, 0.0, "pinned set already fills the capacity"),
        ((1, 2, 3), (4, 5), 500.0, 0.25, "pinned set already fills the capacity"),
        ((1,), (1, 2), 0.1, 0.25, "pinned and pending sets must be disjoint"),
        ((2, 1), (3,), 0.1, 0.25, "assortment must be strictly increasing, got (2, 1)"),
        ((), (0, 2), 0.1, 0.25, "assortment items must lie in 1..8, got (0, 2)"),
        ((9,), (2, 3), 0.1, 0.25, "assortment items must lie in 1..8, got (9,)"),
        ((1,), (2, 3), 0.1, 1.5, "eps must lie in (0, 1]"),
        ((1,), (2, 3), 500.0, 0.25, "delta must lie in (0, 1)"),
        ((), (2, 3), -0.1, 0.25, "delta must lie in (0, 1)"),
    ],
)
def test_phase_inputs_refused_before_any_draw(name, a, b, delta0, eps, message):
    inst = generate_instance("uniform", 8, 3, seed=7)
    env = make_env(inst, seed=60)
    rng_state = env._rng.bit_generator.state
    estimator = {
        "naive": est_naive,
        "reduced": est_reduced,
        "adaptive": partial(est_adaptive, rough={i: 0.5 for i in range(1, 9)}),
        "reg": est_reg,
    }[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        estimator(env, a, b, delta0, eps, tuning=DESK_TUNING)
    assert env.ledger.steps == 0
    assert env._rng.bit_generator.state == rng_state


@pytest.mark.parametrize("name", ["naive", "reduced", "adaptive", "reg"])
def test_a_budget_only_decides_whether_the_estimate_completes(name):
    # Under a budget the estimate fills exactly, it is the one drawn without a
    # budget, to the bit; under one that runs out halfway through, it spends
    # the whole budget and returns nothing.
    inst = generate_instance("uniform", 7, 3, seed=11)
    estimator = {
        "naive": est_naive,
        "reduced": est_reduced,
        "adaptive": partial(est_adaptive, rough={i: 0.5 for i in range(1, 8)}),
        "reg": est_reg,
    }[name]

    def outcome(horizon):
        env = make_env(inst, seed=5, horizon=horizon)
        est = estimator(env, (1,), (2, 3, 4, 5), 0.1, 0.25, tuning=DESK_TUNING)
        ledger = (env.ledger.steps, env.ledger.cum_regret, env.ledger._segments)
        return est, ledger, env._rng.bit_generator.state

    full = outcome(None)
    assert outcome(full[1][0]) == full
    horizon = full[1][0] // 2
    env = make_env(inst, seed=5, horizon=horizon)
    with pytest.raises(HorizonExhausted):
        estimator(env, (1,), (2, 3, 4, 5), 0.1, 0.25, tuning=DESK_TUNING)
    assert env.ledger.steps == horizon


class TestEstimateSet:
    def test_ordering_validation(self):
        valid = dict(
            items=(1,), m=1, zeta_lo=0.0, zeta_hi=1.0, nu_lo={1: 0.1}, nu_hi={1: 0.2},
            theta_lo=0.0, theta_hi=1.0, s_hi=(), xi_lo={1: 0.0}, xi_hi={1: 0.1}, epochs=0,
        )
        EstimateSet(**valid)
        for change, message in [
            ({"m": 0}, "residual capacity must be >= 1"),
            ({"zeta_lo": 0.5, "zeta_hi": 0.4}, "stop-reward interval out of order or range"),
            ({"theta_lo": 0.6, "theta_hi": 0.5}, "revenue interval out of order or range"),
            ({"theta_hi": 1.5}, "revenue interval out of order or range"),
            ({"nu_lo": {1: 0.3}}, "weight interval for item 1 out of order"),
            ({"xi_lo": {1: 0.2}}, "score interval for item 1 out of order"),
            ({"nu_lo": {1: 0.1, 2: 0.1}, "nu_hi": {1: 0.2, 2: 0.2}, "s_hi": (2,)},
             "the upper solve's set must lie in the scored items"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                EstimateSet(**{**valid, **change})

    def test_width_helpers(self):
        est = EstimateSet(
            items=(1, 2), m=2, zeta_lo=0.0, zeta_hi=1.0,
            nu_lo={1: 0.1, 2: 0.2}, nu_hi={1: 0.2, 2: 0.6},
            theta_lo=0.0, theta_hi=1.0, s_hi=(),
            xi_lo={1: -0.1, 2: 0.0}, xi_hi={1: 0.1, 2: 0.5},
            epochs=0,
        )
        np.testing.assert_allclose(est.max_width(), 0.5, rtol=1e-15)
        assert dataclasses.replace(est, items=()).max_width() == 0.0
