"""Tests for the accept-reject drivers."""

import numpy as np
import pytest

from mnlbandit.driver import (
    PHASE_CAP,
    RunResult,
    accept_reject,
    pac_eps,
    pac_exact,
    regret_min,
    sar_mnl,
)
from mnlbandit.env import Environment, fork_stream
from mnlbandit.estimators import DESK_TUNING, EstimateSet, Schedule, Tuning
from mnlbandit.instances import generate_instance
from mnlbandit.model import Instance, ReducedParams, reduce_params, revenue
from mnlbandit.oracle import (
    brute_force_optimum,
    fractional_optimum,
    lower_bound_instance,
    suboptimality_gaps,
)
from baselines import uniform_random_regret

STUB_SCHEDULE = Schedule(c0=196, c2=1024, delta=0.1, tau=1)


def make_est(items, xi):
    """EstimateSet with prescribed score intervals and trivial everything else."""
    items = tuple(sorted(items))
    return EstimateSet(
        items=items,
        zeta_lo=0.0,
        zeta_hi=1.0,
        nu_lo={i: 0.0 for i in items},
        nu_hi={i: 1.0 for i in items},
        theta_lo=0.0,
        theta_hi=1.0,
        xi_lo={i: xi[i][0] for i in items},
        xi_hi={i: xi[i][1] for i in items},
        schedule=STUB_SCHEDULE,
        epochs=0,
        steps=0,
    )


def oracle_estimator(inst):
    """Phase estimator returning point intervals at the true scores."""

    def estimator(env, a, b, delta_k, eps):
        params = reduce_params(inst, a)
        rewards = {i: float(inst.r[i - 1]) for i in b}
        m = min(inst.k - len(a), len(b))
        theta = fractional_optimum(
            rewards, ReducedParams(params.zeta, {i: params.nu[i] for i in b}), m
        ).theta_star
        xi = {i: params.nu[i] * (rewards[i] - theta) for i in b}
        return make_est(b, {i: (xi[i], xi[i]) for i in b})

    return estimator


def wide_estimator(env, a, b, delta_k, eps):
    return make_est(b, {i: (-1.0, 1.0) for i in b})


class TestAcceptReject:
    def test_sign_rules_without_oversubscription(self):
        est = make_est(
            (1, 2, 3), {1: (0.1, 0.2), 2: (-0.2, -0.1), 3: (-0.1, 0.1)}
        )
        acc, rej, alpha, beta = accept_reject(est, (1, 2, 3), 3)
        assert acc == (1,) and rej == (2,)
        assert alpha is None and beta is None

    def test_rank_rules_when_oversubscribed(self):
        est = make_est(
            (1, 2, 3, 4),
            {1: (0.5, 0.6), 2: (0.3, 0.4), 3: (0.1, 0.2), 4: (-0.3, -0.2)},
        )
        acc, rej, alpha, beta = accept_reject(est, (1, 2, 3, 4), 2)
        # alpha = 2nd largest lower end, beta = 3rd largest upper end.
        assert alpha == 0.3 and beta == 0.2
        assert acc == (1, 2)
        # 3 is positive but cannot beat the top two: rejected by rank.
        assert rej == (3, 4)

    def test_rank_rule_caps_acceptance_at_capacity(self):
        est = make_est((1, 2), {1: (0.5, 0.6), 2: (0.4, 0.45)})
        acc, rej, alpha, beta = accept_reject(est, (1, 2), 1)
        assert acc == (1,)
        assert rej == (2,)  # its upper end 0.45 < alpha = 0.5
        assert alpha == 0.5 and beta == 0.45

    def test_all_negative_rejects_everything(self):
        est = make_est((1, 2), {1: (-0.6, -0.5), 2: (-0.4, -0.3)})
        acc, rej, alpha, beta = accept_reject(est, (1, 2), 2)
        assert acc == () and rej == (1, 2)

    def test_wide_intervals_leave_everything_pending(self):
        est = make_est((1, 2, 3), {i: (-1.0, 1.0) for i in (1, 2, 3)})
        acc, rej, _, _ = accept_reject(est, (1, 2, 3), 2)
        assert acc == () and rej == ()

    def test_capacity_below_one_rejected(self):
        est = make_est((1,), {1: (0.1, 0.2)})
        with pytest.raises(ValueError):
            accept_reject(est, (1,), 0)


class TestSarMnl:
    def test_point_intervals_identify_in_one_phase(self):
        inst = generate_instance("uniform", 6, 3, seed=8)
        env = Environment(inst, fork_stream(1, 0))
        res = sar_mnl(env, 0.1, oracle_estimator(inst))
        assert res.success and not res.aborted
        assert res.assortment == brute_force_optimum(inst).s_star
        assert len(res.phases) == 1
        assert res.steps == 0  # the stub consumes nothing
        p = res.phases[0]
        assert p.k == 1 and p.eps_k == 0.5
        np.testing.assert_allclose(p.delta_k, 0.1 / 3.0, rtol=1e-15)
        assert p.m == 3 and p.a_set == () and p.b_set == (1, 2, 3, 4, 5, 6)
        assert p.max_width == 0.0

    def test_phase_trace_schedule_and_monotone_sets(self):
        inst = generate_instance("uniform", 5, 2, seed=3)
        calls = [0]

        def staged(env, a, b, delta_k, eps):
            calls[0] += 1
            if calls[0] <= 3:
                return wide_estimator(env, a, b, delta_k, eps)
            return oracle_estimator(inst)(env, a, b, delta_k, eps)

        env = Environment(inst, fork_stream(1, 0))
        res = sar_mnl(env, 0.2, staged)
        assert res.success and not res.aborted
        assert len(res.phases) == 4
        for idx, p in enumerate(res.phases, start=1):
            assert p.k == idx
            assert p.eps_k == 2.0 ** (-idx)
            np.testing.assert_allclose(p.delta_k, 0.2 / (3 * idx * idx), rtol=1e-15)
        for prev, nxt in zip(res.phases, res.phases[1:]):
            assert set(prev.a_set) <= set(nxt.a_set)
            assert set(nxt.b_set) <= set(prev.b_set)
        assert res.steps == sum(p.steps for p in res.phases)
        wide = res.phases[0]
        assert wide.b_acc == () and wide.b_rej == ()
        assert wide.max_width == 2.0

    def test_empty_answer_is_legal(self):
        inst = Instance(n=3, k=2, r=[0.0, 0.0, 0.0], v=[0.5, 0.5, 0.5])

        def all_bad(env, a, b, delta_k, eps):
            return make_est(b, {i: (-0.5, -0.1) for i in b})

        env = Environment(inst, fork_stream(1, 0))
        res = sar_mnl(env, 0.1, all_bad)
        assert res.assortment == ()
        assert res.success  # the optimum of an all-zero-reward instance is empty
        assert len(res.phases) == 1

    def test_phase_cap_aborts_with_diagnostic_result(self):
        inst = generate_instance("uniform", 5, 2, seed=3)
        env = Environment(inst, fork_stream(1, 0))
        res = sar_mnl(env, 0.1, wide_estimator, phase_cap=5)
        assert res.aborted and not res.success
        assert res.assortment == ()
        assert len(res.phases) == 5

    def test_default_phase_cap_is_pinned(self):
        assert PHASE_CAP == 60

    def test_delta_validation(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(1, 0))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                sar_mnl(env, bad, wide_estimator)

    def test_real_run_is_deterministic(self):
        from mnlbandit.estimators import est_reduced

        inst = generate_instance("uniform", 5, 2, seed=11)

        def estimator(env, a, b, delta_k, eps):
            return est_reduced(env, a, b, delta_k, eps, DESK_TUNING)

        results = []
        for _ in range(2):
            env = Environment(inst, fork_stream(77, 0))
            results.append(sar_mnl(env, 0.1, estimator))
        assert results[0] == results[1]
        assert results[0].steps > 0


class TestPacExact:
    def test_rough_pass_runs_once_and_feeds_every_phase(self, monkeypatch):
        inst = generate_instance("uniform", 5, 2, seed=11)
        rough_calls = []
        adaptive_roughs = []

        import mnlbandit.driver as driver_mod

        real_rough = driver_mod.est_rough

        def spying_rough(env, delta0, tuning):
            rough_calls.append(delta0)
            return real_rough(env, delta0, tuning)

        real_adaptive = driver_mod.est_adaptive

        def spying_adaptive(env, a, b, delta_k, eps, rough, tuning):
            adaptive_roughs.append(rough)
            return real_adaptive(env, a, b, delta_k, eps, rough, tuning)

        monkeypatch.setattr(driver_mod, "est_rough", spying_rough)
        monkeypatch.setattr(driver_mod, "est_adaptive", spying_adaptive)
        env = Environment(inst, fork_stream(78, 0))
        res = pac_exact(env, 0.1, DESK_TUNING)
        assert rough_calls == [0.05]  # half the confidence budget, once
        assert len(adaptive_roughs) == len(res.phases) >= 1
        assert all(r is adaptive_roughs[0] for r in adaptive_roughs)
        np.testing.assert_allclose(
            res.phases[0].delta_k, 0.05 / 3.0, rtol=1e-15
        )

    def test_identifies_on_pinned_seed(self):
        inst = generate_instance("uniform", 6, 3, seed=8)
        env = Environment(inst, fork_stream(79, 0))
        res = pac_exact(env, 0.1, DESK_TUNING)
        assert res.success and not res.aborted
        assert res.assortment == brute_force_optimum(inst).s_star
        # steps include the rough pass, which the phase trace does not cover.
        assert res.steps > sum(p.steps for p in res.phases) > 0

    def test_invariants_on_pinned_seed(self):
        inst = generate_instance("uniform", 6, 3, seed=13)
        gaps = suboptimality_gaps(inst)
        s_star = set(brute_force_optimum(inst).s_star)
        env = Environment(inst, fork_stream(80, 0))
        res = pac_exact(env, 0.1, DESK_TUNING)
        assert res.success
        for p in res.phases:
            pinned_after = set(p.a_set) | set(p.b_acc)
            pending_after = set(p.b_set) - set(p.b_acc) - set(p.b_rej)
            assert pinned_after <= s_star
            assert s_star <= pinned_after | pending_after
            assert all(gaps[i] <= p.eps_k for i in pending_after)


class TestPacEps:
    def test_validations(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(1, 0))
        for bad_eps in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                pac_eps(env, 0.1, bad_eps, DESK_TUNING)
        with pytest.raises(ValueError):
            pac_eps(env, 0.0, 0.5, DESK_TUNING)

    def test_terminal_phase_index_for_loose_eps(self):
        # eps = 0.99 makes phase 3 terminal: 2^-(k-1) <= eps/3 first at k = 3.
        inst = lower_bound_instance(4, 2, [0.005, 0.005])
        env = Environment(inst, fork_stream(81, 0))
        res = pac_eps(env, 0.1, 0.99, DESK_TUNING)
        assert not res.aborted
        assert res.phases[-1].k == 3
        terminal = res.phases[-1]
        assert terminal.alpha is None and terminal.beta is None
        assert terminal.b_rej == ()
        assert set(terminal.b_acc) <= set(terminal.b_set)
        assert res.assortment == tuple(sorted(set(res.assortment)))
        assert len(res.assortment) <= inst.k
        assert res.success  # any assortment is within 0.99 of optimal

    def test_tight_eps_forces_exact_identification(self):
        # eps below the smallest positive gap: only S* itself can succeed.
        inst = generate_instance("uniform", 6, 3, seed=8)
        gaps = suboptimality_gaps(inst)
        assert min(g for g in gaps.values() if g > 0) > 0.04
        env = Environment(inst, fork_stream(82, 0))
        res = pac_eps(env, 0.1, 0.04, DESK_TUNING)
        assert res.success
        assert res.assortment == brute_force_optimum(inst).s_star

    def test_early_stop_saves_steps_on_near_ties(self):
        # Gaps of 0.002 force exact identification deep into the phase
        # schedule, while the approximate run stops at its terminal phase.
        inst = lower_bound_instance(4, 2, [0.002, 0.002])
        eps_steps = []
        exact_steps = []
        for rep in range(6):
            env = Environment(inst, fork_stream(83, rep))
            res = pac_eps(env, 0.1, 0.1, DESK_TUNING)
            assert not res.aborted
            eps_steps.append(res.steps)
            env2 = Environment(inst, fork_stream(84, rep))
            exact_steps.append(pac_exact(env2, 0.1, DESK_TUNING).steps)
        assert np.median(eps_steps) < 0.5 * np.median(exact_steps)


class TestRegretMin:
    def test_horizon_validations(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(1, 0))
        with pytest.raises(ValueError):
            regret_min(env, 3, DESK_TUNING)  # below n
        env2 = Environment(inst, fork_stream(1, 0), horizon=500)
        with pytest.raises(ValueError):
            regret_min(env2, 600, DESK_TUNING)

    def test_used_environment_rejected(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(1, 0))
        env.offer((1, 2))
        with pytest.raises(ValueError):
            regret_min(env, 100, DESK_TUNING)

    def test_consumes_budget_exactly_and_exploits(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        horizon = 20_000
        env = Environment(inst, fork_stream(85, 0))
        res = regret_min(env, horizon, DESK_TUNING)
        assert res.steps == horizon == env.ledger.steps
        assert not res.horizon_hit and not res.aborted
        assert res.success
        assert res.assortment == brute_force_optimum(inst).s_star
        assert res.exploit_steps == horizon - sum(p.steps for p in res.phases)
        assert res.exploit_steps > 0
        assert res.final_regret == env.ledger.cum_regret >= 0.0
        # exploiting the true optimum accrues no further regret
        curve = env.ledger.curve()
        identified_at = horizon - res.exploit_steps
        np.testing.assert_allclose(curve[identified_at - 1], curve[-1], rtol=0, atol=0)

    def test_horizon_hit_mid_estimation(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(86, 0))
        res = regret_min(env, 10, DESK_TUNING)
        assert res.horizon_hit and not res.aborted
        assert res.steps == 10 == env.ledger.steps
        assert res.phases == ()
        assert res.assortment == ()
        assert res.exploit_steps == 0
        assert not res.success
        assert res.final_regret is not None and res.final_regret > 0.0

    def test_presetting_the_same_horizon_is_allowed(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(85, 0), horizon=20_000)
        res = regret_min(env, 20_000, DESK_TUNING)
        assert res.steps == 20_000

    def test_deterministic(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        runs = [
            regret_min(Environment(inst, fork_stream(87, 0)), 5000, DESK_TUNING)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestUniformRandomRegret:
    def test_matches_expected_per_step_shortfall(self):
        from itertools import combinations

        inst = generate_instance("uniform", 4, 2, seed=5)
        opt = brute_force_optimum(inst).theta_star
        revs = np.array(
            [revenue(inst, s) for s in combinations(range(1, 5), 2)]
        )
        per_step = opt - revs.mean()
        horizon = 4000
        total = uniform_random_regret(inst, horizon, np.random.default_rng(9))
        se = revs.std() * np.sqrt(horizon)
        assert abs(total - per_step * horizon) <= 4 * se
        assert total >= 0.0

    def test_deterministic_in_the_generator(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        a = uniform_random_regret(inst, 100, np.random.default_rng(3))
        b = uniform_random_regret(inst, 100, np.random.default_rng(3))
        assert a == b


class TestRunResult:
    def test_defaults(self):
        res = RunResult(assortment=(1,), steps=5, phases=(), success=True)
        assert not res.aborted and not res.horizon_hit
        assert res.exploit_steps == 0 and res.final_regret is None
