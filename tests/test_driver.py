"""Tests for the accept-reject drivers."""

import dataclasses
import math
import re
import sys
from functools import partial

import numpy as np
import pytest

from mnlbandit import driver
from mnlbandit.driver import (
    PHASE_CAP,
    RunResult,
    accept_reject,
    pac_eps,
    pac_exact,
    regret_min,
    sar_mnl,
)
from mnlbandit.env import Environment, SamplerLimitError, fork_stream
from mnlbandit.estimators import (
    DESK_TUNING,
    PAPER_TUNING,
    EstimateSet,
    Tuning,
    est_adaptive,
    est_naive,
    est_reduced,
    est_reg,
    est_rough,
    _sets,
)
from mnlbandit.instances import generate_instance, lower_bound_instance
from mnlbandit.model import Instance, revenue
from mnlbandit.oracle import brute_force_optimum, suboptimality_gaps
from baselines import uniform_random_regret
from model_reference import ReducedParams, reduce_params
from offer_reference import offer
from oracle_reference import fractional_optimum


def make_est(items, xi, m):
    """EstimateSet with prescribed score intervals and residual capacity ``m``,
    and trivial everything else."""
    items = tuple(sorted(items))
    return EstimateSet(
        items=items,
        m=m,
        zeta_lo=0.0,
        zeta_hi=1.0,
        nu_lo={i: 0.0 for i in items},
        nu_hi={i: 1.0 for i in items},
        theta_lo=0.0,
        theta_hi=1.0,
        s_hi=(),  # at zeta_hi = 1 no item beats the empty set
        xi_lo={i: xi[i][0] for i in items},
        xi_hi={i: xi[i][1] for i in items},
        epochs=0,
    )


def phase_est(env, a, b, xi):
    """`make_est` for a phase estimator stub, at the residual capacity of `_sets`."""
    return make_est(b, xi, _sets(env, a, b)[2])


def oracle_estimator(inst):
    """Phase estimator returning point intervals at the true scores."""

    def estimator(env, a, b, delta_k, eps):
        params = reduce_params(inst, a)
        rewards = {i: float(inst.r[i - 1]) for i in b}
        m = _sets(env, a, b)[2]
        theta = fractional_optimum(
            rewards, ReducedParams(params.zeta, {i: params.nu[i] for i in b}), m
        ).theta_star
        xi = {i: params.nu[i] * (rewards[i] - theta) for i in b}
        return make_est(b, {i: (xi[i], xi[i]) for i in b}, m)

    return estimator


def wide_estimator(env, a, b, delta_k, eps):
    return phase_est(env, a, b, {i: (-1.0, 1.0) for i in b})


class TestAcceptReject:
    def test_sign_rules_without_oversubscription(self):
        est = make_est(
            (1, 2, 3), {1: (0.1, 0.2), 2: (-0.2, -0.1), 3: (-0.1, 0.1)}, 3
        )
        acc, rej, alpha, beta = accept_reject(est)
        assert acc == (1,) and rej == (2,)
        assert alpha is None and beta is None

    def test_rank_rules_when_oversubscribed(self):
        est = make_est(
            (1, 2, 3, 4),
            {1: (0.5, 0.6), 2: (0.3, 0.4), 3: (0.1, 0.2), 4: (-0.3, -0.2)},
            2,
        )
        acc, rej, alpha, beta = accept_reject(est)
        # alpha = 2nd largest lower end, beta = 3rd largest upper end.
        assert alpha == 0.3 and beta == 0.2
        assert acc == (1, 2)
        # 3 is positive but cannot beat the top two: rejected by rank.
        assert rej == (3, 4)

    def test_rank_rule_caps_acceptance_at_capacity(self):
        est = make_est((1, 2), {1: (0.5, 0.6), 2: (0.4, 0.45)}, 1)
        acc, rej, alpha, beta = accept_reject(est)
        assert acc == (1,)
        assert rej == (2,)  # its upper end 0.45 < alpha = 0.5
        assert alpha == 0.5 and beta == 0.45

    def test_all_negative_rejects_everything(self):
        est = make_est((1, 2), {1: (-0.6, -0.5), 2: (-0.4, -0.3)}, 2)
        acc, rej, alpha, beta = accept_reject(est)
        assert acc == () and rej == (1, 2)

    def test_wide_intervals_leave_everything_pending(self):
        est = make_est((1, 2, 3), {i: (-1.0, 1.0) for i in (1, 2, 3)}, 2)
        acc, rej, _, _ = accept_reject(est)
        assert acc == () and rej == ()

    @pytest.mark.parametrize(
        "xi, accepted, rejected",
        [
            # 2's lower end equals beta = 0.3: not accepted (and rejected by
            # rank, as its upper end falls below alpha = 0.5)
            ({1: (0.5, 0.6), 2: (0.3, 0.3)}, (1,), (2,)),
            # 2's upper end equals alpha = 0.5: not rejected (beta = 0.7)
            ({1: (0.5, 0.9), 2: (0.1, 0.5), 3: (0.2, 0.7)}, (), ()),
            ({1: (0.0, 0.2)}, (), ()),  # a lower end of exactly 0: not accepted
            ({1: (-0.2, 0.0)}, (), ()),  # an upper end of exactly 0: not rejected
        ],
        ids=["lower-end-at-beta", "upper-end-at-alpha", "lower-end-at-0", "upper-end-at-0"],
    )
    def test_ties_decide_nothing(self, xi, accepted, rejected):
        acc, rej, _, _ = accept_reject(make_est(xi, xi, 1))
        assert (acc, rej) == (accepted, rejected)

    def test_filling_the_capacity_decides_every_pending_item(self):
        # Random estimates of 1-8 pending items at capacities 1..|b|, their
        # score ends drawn continuous or on a 1/4 grid (ties): whenever the
        # rules accept m items, none is left pending (`accept_reject`'s proof).
        rng = np.random.default_rng(38)
        fills = 0
        for trial in range(20_000):
            size = int(rng.integers(1, 9))
            ends = np.sort(rng.uniform(-1.0, 1.0, size=(size, 2)), axis=1)
            if trial % 2:
                ends = np.round(ends * 4.0) / 4.0
            items = tuple(range(1, size + 1))
            xi = dict(zip(items, map(tuple, ends.tolist())))
            est = make_est(items, xi, int(rng.integers(1, size + 1)))
            acc, rej, _, _ = accept_reject(est)
            if len(acc) == est.m:
                fills += 1
                assert sorted(acc + rej) == list(items), (xi, est.m)
        assert fills > 1000

    @pytest.mark.parametrize("name", ["naive", "reduced", "adaptive", "reg"])
    def test_no_item_pending_once_the_pinned_set_is_full(self, name):
        # so `sar_mnl` needs no exit of its own for a full pinned set
        instances = [generate_instance(family, 8, 3, seed=seed)
                     for family in ("uniform", "dense", "sparse") for seed in range(3)]
        instances.append(lower_bound_instance(5, 2, [0.02, 0.02, 0.02]))
        rank_decided = 0
        for inst in instances:
            for rep in range(3):
                res = pac_exact(Environment(inst, fork_stream(38, rep)), 0.1, DESK_TUNING,
                                estimator=name)
                for p in res.phases:
                    if len(p.a_set) + len(p.b_acc) == inst.k:
                        assert sorted(p.b_acc + p.b_rej) == list(p.b_set)
                        assert p is res.phases[-1] and res.status == "ok"
                        rank_decided += len(p.b_rej) > 0
        assert rank_decided > 0

    def test_capacity_below_one_rejected(self):
        # the estimate refuses it, so no capacity below one reaches the rules
        with pytest.raises(ValueError, match=r"^residual capacity must be >= 1$"):
            make_est((1,), {1: (0.1, 0.2)}, 0)


class TestSarMnl:
    def test_point_intervals_identify_in_one_phase(self):
        inst = generate_instance("uniform", 6, 3, seed=8)
        env = Environment(inst, fork_stream(1, 0))
        res = sar_mnl(env, 0.1, oracle_estimator(inst))
        assert res.status == "ok"
        assert res.assortment == brute_force_optimum(inst).s_star
        assert len(res.phases) == 1
        assert env.ledger.steps == 0  # the stub consumes nothing
        p = res.phases[0]
        assert p.k == 1 and p.eps_k == 0.5
        np.testing.assert_allclose(p.delta_k, 0.1 / 3.0, rtol=1e-15)
        assert p.est.m == 3 and p.a_set == () and p.b_set == (1, 2, 3, 4, 5, 6)
        assert p.est.max_width() == 0.0

    def test_residual_capacity_counts_the_pending_items(self):
        # M = min(k - |A|, |B|): phase 1 rejects three of five items, so phase
        # 2 scores two pending items against a free capacity of four.
        inst = generate_instance("uniform", 5, 4, seed=3)

        def staged(env, a, b, delta_k, eps):
            if len(b) == 5:
                return phase_est(env, a, b, {i: (-0.2, -0.1) if i <= 3 else (-1.0, 1.0) for i in b})
            return wide_estimator(env, a, b, delta_k, eps)

        res = sar_mnl(Environment(inst, fork_stream(1, 0)), 0.1, staged)
        assert [(p.b_set, p.est.m) for p in res.phases[:2]] == [((1, 2, 3, 4, 5), 4), ((4, 5), 2)]

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
        assert res.assortment == brute_force_optimum(inst).s_star and res.status == "ok"
        assert len(res.phases) == 4
        for idx, p in enumerate(res.phases, start=1):
            assert p.k == idx
            assert p.eps_k == 2.0 ** (-idx)
            np.testing.assert_allclose(p.delta_k, 0.2 / (3 * idx * idx), rtol=1e-15)
        for prev, nxt in zip(res.phases, res.phases[1:]):
            assert set(prev.a_set) <= set(nxt.a_set)
            assert set(nxt.b_set) <= set(prev.b_set)
        assert env.ledger.steps == sum(p.steps for p in res.phases)
        wide = res.phases[0]
        assert wide.b_acc == () and wide.b_rej == ()
        assert wide.est.max_width() == 2.0

    def test_each_phase_keeps_the_estimators_own_object(self):
        scores = [
            {1: (0.5, 0.6), 2: (-0.1, 0.4), 3: (-0.3, -0.1), 4: (-0.3, -0.2)},
            {2: (0.1, 0.2)},
        ]
        returned = []

        def scripted(env, a, b, delta_k, eps):
            returned.append(phase_est(env, a, b, scores[len(returned)]))
            return returned[-1]

        env = Environment(generate_instance("uniform", 4, 2, seed=5), fork_stream(1, 0))
        res = sar_mnl(env, 0.1, scripted)
        ranked, plain = res.phases
        assert ranked.alpha is not None and ranked.b_set == (1, 2, 3, 4)
        assert plain.alpha is None and plain.b_set == (2,)  # sign rules only
        assert res.assortment == (1, 2)
        assert len(returned) == 2
        for p, est in zip(res.phases, returned):
            assert p.est is est
            assert p.est.items == p.b_set

    def test_empty_answer_is_legal(self):
        inst = Instance(n=3, k=2, r=[0.0, 0.0, 0.0], v=[0.5, 0.5, 0.5])

        def all_bad(env, a, b, delta_k, eps):
            return phase_est(env, a, b, {i: (-0.5, -0.1) for i in b})

        env = Environment(inst, fork_stream(1, 0))
        res = sar_mnl(env, 0.1, all_bad)
        # the optimum of an all-zero-reward instance is empty
        assert res.assortment == () == brute_force_optimum(inst).s_star
        assert len(res.phases) == 1

    def test_phase_cap_aborts_with_diagnostic_result(self, monkeypatch):
        monkeypatch.setattr(driver, "PHASE_CAP", 5)
        inst = generate_instance("uniform", 5, 2, seed=3)
        env = Environment(inst, fork_stream(1, 0))
        res = sar_mnl(env, 0.1, wide_estimator)
        assert res.status == "phase-cap"
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
            results.append((sar_mnl(env, 0.1, estimator), env.ledger.steps))
        assert results[0] == results[1]
        assert results[0][1] > 0


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

    def test_unknown_estimator_is_refused_before_any_step(self):
        env = Environment(generate_instance("uniform", 5, 2, seed=11), fork_stream(78, 1))
        with pytest.raises(ValueError, match=r"^unknown estimator 'bogus': "
                           r"choose one of naive, reduced, adaptive, reg$"):
            pac_exact(env, 0.1, DESK_TUNING, estimator="bogus")
        assert env.ledger.steps == 0

    @pytest.mark.parametrize("estimator", ["naive", "reduced", "reg"])
    def test_every_estimator_loops_at_half_delta_without_a_rough_pass(self, estimator):
        # the same split as adaptive's loop; the other half stays unspent
        inst = generate_instance("uniform", 5, 2, seed=11)
        env = Environment(inst, fork_stream(78, 2))
        res = pac_exact(env, 0.1, DESK_TUNING, estimator=estimator)
        direct = Environment(inst, fork_stream(78, 2))
        phase = {"naive": est_naive, "reduced": est_reduced, "reg": est_reg}[estimator]
        assert res == sar_mnl(direct, 0.05, partial(phase, tuning=DESK_TUNING))
        assert env.ledger.steps == direct.ledger.steps == sum(p.steps for p in res.phases)

    @pytest.mark.parametrize("delta", [1.5, 1.0, 0.0, -0.1])
    def test_delta_validated_before_any_step(self, delta):
        env = Environment(generate_instance("uniform", 5, 2, seed=11), fork_stream(78, 1))
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            pac_exact(env, delta, DESK_TUNING)
        assert env.ledger.steps == 0

    def test_identifies_on_pinned_seed(self):
        inst = generate_instance("uniform", 6, 3, seed=8)
        env = Environment(inst, fork_stream(79, 0))
        res = pac_exact(env, 0.1, DESK_TUNING)
        assert res.status == "ok"
        assert res.assortment == brute_force_optimum(inst).s_star
        # the ledger counts the rough pass, which the phase trace does not cover.
        assert env.ledger.steps > sum(p.steps for p in res.phases) > 0

    def test_invariants_on_pinned_seed(self):
        inst = generate_instance("uniform", 6, 3, seed=13)
        _, gaps = suboptimality_gaps(inst)
        s_star = set(brute_force_optimum(inst).s_star)
        env = Environment(inst, fork_stream(80, 0))
        res = pac_exact(env, 0.1, DESK_TUNING)
        assert set(res.assortment) == s_star
        for p in res.phases:
            pinned_after = set(p.a_set) | set(p.b_acc)
            pending_after = set(p.b_set) - set(p.b_acc) - set(p.b_rej)
            assert pinned_after <= s_star
            assert s_star <= pinned_after | pending_after
            assert all(gaps[i] <= p.eps_k for i in pending_after)

    @pytest.mark.parametrize("gap", [1e-3, 1e-5])
    def test_layered_extra_phase_stays_cheap_on_the_lower_bound_family(self, gap):
        # On this family the layered estimator can need one phase more than
        # naive; it read 1.13 and 1.55 times naive's median steps at master
        # seed 1 (1.13-1.50 and 1.55 over seeds 1-8).  Not a numbered
        # acceptance check: it guards a regime, at the paper's constants.
        inst = lower_bound_instance(8, 2, [gap] * 6)
        s_star = brute_force_optimum(inst).s_star
        median_steps = {}
        for estimator in ("naive", "adaptive"):
            steps = []
            for rep in range(20):
                env = Environment(inst, fork_stream(1, rep))
                res = pac_exact(env, 0.1, PAPER_TUNING, estimator=estimator)
                assert res.assortment == s_star and res.status == "ok"
                steps.append(env.ledger.steps)
            median_steps[estimator] = float(np.median(steps))
        assert median_steps["adaptive"] <= 2.0 * median_steps["naive"], median_steps


class TestPacEps:
    def test_validations(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(1, 0))
        for bad_eps in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                pac_eps(env, 0.1, bad_eps, DESK_TUNING)
        with pytest.raises(ValueError):
            pac_eps(env, 0.0, 0.5, DESK_TUNING)

    # eps = 0.99 makes phase 3 terminal: 2^-(k-1) <= eps/3 first at k = 3;
    # at eps = 0.75, eps/3 = 2^-2 exactly, and the stop still comes in phase 3.
    @pytest.mark.parametrize("eps", [0.99, 0.75])
    def test_terminal_phase_index_for_loose_eps(self, eps):
        inst = lower_bound_instance(4, 2, [0.005, 0.005])
        env = Environment(inst, fork_stream(81, 0))
        res = pac_eps(env, 0.1, eps, DESK_TUNING)
        assert res.status == "ok"
        assert res.phases[-1].k == 3
        terminal = res.phases[-1]
        assert terminal.alpha is None and terminal.beta is None
        assert terminal.b_rej == ()
        assert set(terminal.b_acc) <= set(terminal.b_set)
        assert res.assortment == tuple(sorted(set(res.assortment)))
        assert len(res.assortment) <= inst.k
        # any assortment is within eps of optimal: theta* = 1/2 here
        assert env.oracle_solution().theta_star - revenue(inst, res.assortment) <= eps

    def test_completion_phase_keeps_the_estimators_own_object(self, monkeypatch):
        returned = []

        def wide(env, a, b, delta_k, eps, rough, tuning):
            returned.append(phase_est(env, a, b, {i: (-1.0, 1.0) for i in b}))
            return returned[-1]

        monkeypatch.setattr(driver, "est_adaptive", wide)
        env = Environment(generate_instance("uniform", 5, 2, seed=3), fork_stream(1, 0))
        res = pac_eps(env, 0.1, 0.99, DESK_TUNING)  # phase 3 completes
        assert [p.k for p in res.phases] == [1, 2, 3] and len(returned) == 3
        assert res.phases[-1].b_rej == () and res.phases[-1].alpha is None
        for p, est in zip(res.phases, returned):
            assert p.est is est
            assert p.est.items == p.b_set

    def test_tight_eps_forces_exact_identification(self):
        # eps below the smallest positive gap: only S* itself can succeed.
        inst = generate_instance("uniform", 6, 3, seed=8)
        _, gaps = suboptimality_gaps(inst)
        assert min(g for g in gaps.values() if g > 0) > 0.04
        env = Environment(inst, fork_stream(82, 0))
        res = pac_eps(env, 0.1, 0.04, DESK_TUNING)
        assert res.assortment == brute_force_optimum(inst).s_star

    def test_early_stop_saves_steps_on_near_ties(self):
        # Gaps of 0.002 force exact identification deep into the phase
        # schedule, while the approximate run stops at its terminal phase.
        inst = lower_bound_instance(4, 2, [0.002, 0.002])
        eps_steps = []
        exact_steps = []
        for rep in range(6):
            env = Environment(inst, fork_stream(83, rep))
            assert pac_eps(env, 0.1, 0.1, DESK_TUNING).status == "ok"
            eps_steps.append(env.ledger.steps)
            env2 = Environment(inst, fork_stream(84, rep))
            pac_exact(env2, 0.1, DESK_TUNING)
            exact_steps.append(env2.ledger.steps)
        assert np.median(eps_steps) < 0.5 * np.median(exact_steps)


class TestDeltaFloor:
    """A delta whose smallest split would underflow is refused before any step,
    with a message naming the smallest delta accepted."""

    INST = generate_instance("uniform", 8, 3, seed=7)

    @staticmethod
    def _drivers(env):
        return {
            "pac_exact": lambda d: pac_exact(env, d, DESK_TUNING),
            "pac_eps": lambda d: pac_eps(env, d, 0.1, DESK_TUNING),
            "sar_mnl": lambda d: sar_mnl(env, d, partial(est_naive, tuning=DESK_TUNING)),
        }

    @staticmethod
    def _smallest(run, delta):
        message = rf"delta {re.escape(repr(delta))} is too small to split for n = 8 items: "
        with pytest.raises(ValueError, match=message + "the smallest delta accepted is ") as info:
            run(delta)
        return float(str(info.value).rsplit(" ", 1)[1])

    @pytest.mark.parametrize("name", ["pac_exact", "pac_eps", "sar_mnl"])
    @pytest.mark.parametrize("delta", [5e-324, 1e-304])
    def test_refused_before_any_step(self, name, delta):
        env = Environment(self.INST, fork_stream(1, 0))
        smallest = self._smallest(self._drivers(env)[name], delta)
        # sar_mnl splits all of delta; the PAC drivers hand it half
        share = 1.0 if name == "sar_mnl" else 0.5
        assert smallest == sys.float_info.min * (3 * PHASE_CAP**2 * 17 * 8) / share
        assert env.ledger.steps == 0

    @pytest.mark.parametrize("name", ["pac_exact", "pac_eps", "sar_mnl"])
    def test_smallest_delta_runs_at_the_deepest_split(self, monkeypatch, name):
        # With one phase allowed, phase 1 is the last, so the run splits delta
        # as finely as the floor allows.
        monkeypatch.setattr(driver, "PHASE_CAP", 1)
        env = Environment(self.INST, fork_stream(1, 0))
        smallest = self._smallest(self._drivers(env)[name], 5e-324)
        self._smallest(self._drivers(env)[name], math.nextafter(smallest, 0.0))
        assert env.ledger.steps == 0
        assert len(self._drivers(env)[name](smallest).phases) == 1
        assert env.ledger.steps > 0


class TestRegretMin:
    def test_horizon_validations(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(1, 0), horizon=3)
        with pytest.raises(ValueError):
            regret_min(env, DESK_TUNING)  # below n
        # the budget is set at construction, never by the driver
        env3 = Environment(inst, fork_stream(1, 0))
        with pytest.raises(ValueError):
            regret_min(env3, DESK_TUNING)
        assert env3.horizon is None and env3.ledger.steps == 0

    def test_one_step_horizon_rejected(self):
        # delta = 1 / horizon must lie below 1, even where n = 1 allows it.
        inst = Instance(n=1, k=1, r=[1.0], v=[0.5])
        with pytest.raises(ValueError):
            regret_min(Environment(inst, fork_stream(1, 0), horizon=1), DESK_TUNING)

    def test_used_environment_rejected(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(1, 0), horizon=100)
        offer(env, (1, 2))
        with pytest.raises(ValueError):
            regret_min(env, DESK_TUNING)

    def test_consumes_budget_exactly_and_exploits(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        horizon = 20_000
        env = Environment(inst, fork_stream(85, 0), horizon=horizon)
        res = regret_min(env, DESK_TUNING)
        assert env.ledger.steps == horizon
        assert res.status == "ok"
        # the loop runs at delta = 1 / horizon
        assert [p.delta_k for p in res.phases] == [
            1.0 / horizon / (3.0 * p.k * p.k) for p in res.phases]
        assert res.assortment == brute_force_optimum(inst).s_star
        identified_at = sum(p.steps for p in res.phases)
        assert identified_at < horizon  # the rest exploits
        assert env.ledger.cum_regret >= 0.0
        # exploiting the true optimum accrues no further regret
        curve = env.ledger.curve()
        np.testing.assert_allclose(curve[identified_at - 1], curve[-1], rtol=0, atol=0)

    def test_exploiting_the_optimum_at_the_largest_horizon_costs_exactly_zero(self):
        # The README's regret instance at the CLI's largest horizon: no
        # segment is charged a negative regret, and the ~9.2e18 steps of S*
        # that end the run add exactly nothing.
        inst = generate_instance("uniform", 10, 4, seed=14618)
        horizon = 2**63 - 1
        env = Environment(inst, fork_stream(99, 0), horizon=horizon)
        res = regret_min(env, DESK_TUNING)
        assert res.assortment == env.oracle_solution().s_star
        assert all(regret >= 0.0 for regret, _ in env.ledger._segments)
        assert env.ledger._segments[-1][0] == 0.0

    def test_horizon_hit_mid_estimation(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(86, 0), horizon=10)
        res = regret_min(env, DESK_TUNING)
        assert res.status == "horizon"
        assert env.ledger.steps == 10
        assert res.phases == ()
        assert res.assortment == ()
        assert env.ledger.cum_regret > 0.0

    def test_presetting_the_same_horizon_is_allowed(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        env = Environment(inst, fork_stream(85, 0), horizon=20_000)
        regret_min(env, DESK_TUNING)
        assert env.ledger.steps == 20_000

    def test_deterministic(self):
        inst = generate_instance("uniform", 4, 2, seed=5)
        runs = [
            regret_min(Environment(inst, fork_stream(87, 0), horizon=5000), DESK_TUNING)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def _wide_phase(env, a, b, delta_k, eps, *args, **kwargs):
    """`wide_estimator` taking the adaptive or regret estimator's arguments."""
    return wide_estimator(env, a, b, delta_k, eps)


class TestScheduleLimits:
    """A `Tuning` whose schedule cannot be simulated is refused by the layer
    that meets it: an epoch count past the largest float by the estimator that
    computes it, and a batch past the sampler's limit by the driver, which
    names the pass that asked for it."""

    MODES = ("pac", "pac-eps", "regret")
    LIMIT = re.compile(r"a batch of \d+ epochs exceeds the sampler's limit of "
                       r"9007199254740992 in (phase \d+|the rough pass)")

    @staticmethod
    def run(mode, tuning):
        """One run of `mode` on uniform n = 8, k = 3 (generator seed 5)."""
        inst = generate_instance("uniform", 8, 3, seed=5)
        env = Environment(inst, fork_stream(1, 0), horizon=20_000 if mode == "regret" else None)
        if mode == "pac":
            return pac_exact(env, 0.1, tuning)
        if mode == "pac-eps":
            return pac_eps(env, 0.1, 0.1, tuning)
        return regret_min(env, tuning)

    def test_batch_past_the_limit_in_the_rough_pass_names_it(self):
        with pytest.raises(SamplerLimitError) as info:
            self.run("pac", Tuning(tau_scale=2, rough_tau_scale=1e290))
        message = str(info.value)
        assert message.startswith("a batch of ")
        assert message.endswith(" epochs exceeds the sampler's limit of 9007199254740992 "
                                "in the rough pass")

    @pytest.mark.parametrize(
        "name, mode",
        [("tau_scale", "pac"), ("tau_scale", "pac-eps"), ("tau_scale", "regret"),
         ("rough_tau_scale", "pac"), ("rough_tau_scale", "pac-eps")],
        ids=["pac-tau", "pac-eps-tau", "regret-tau", "pac-rough-tau", "pac-eps-rough-tau"],
    )
    def test_overflowing_epoch_count_names_the_multiplier(self, name, mode):
        with pytest.raises(OverflowError) as info:
            self.run(mode, Tuning(**{name: 1e305}))
        assert type(info.value) is OverflowError
        assert str(info.value) == f"{name} 1e+305 overflows the epoch count"

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value", [1e-300, 1e305])
    @pytest.mark.parametrize("name", ["tau_scale", "rough_tau_scale", "ci_scale"])
    def test_extreme_multiplier_ends_in_a_result_or_a_named_refusal(self, name, value, mode):
        # Each multiplier at both ends of the floats, on the desk profile: the
        # run returns the same result twice, or refuses with one line naming
        # the multiplier or the sampler's limit.
        tuning = dataclasses.replace(DESK_TUNING, **{name: value})
        try:
            result = self.run(mode, tuning)
        except OverflowError as exc:
            message = str(exc)
            assert (message == f"{name} {value!r} overflows the epoch count"
                    or self.LIMIT.fullmatch(message)), message
            return
        assert isinstance(result, RunResult)
        assert result == self.run(mode, tuning)


class TestSharedExits:
    """Every driver leaves `sar_mnl` by the same exits."""

    def test_pac_exact_aborts_at_the_phase_cap(self, monkeypatch):
        monkeypatch.setattr("mnlbandit.driver.est_adaptive", _wide_phase)
        env = Environment(generate_instance("uniform", 5, 2, seed=3), fork_stream(1, 0))
        res = pac_exact(env, 0.1, DESK_TUNING)
        assert res.status == "phase-cap"
        assert len(res.phases) == PHASE_CAP == 60
        assert res.assortment == ()
        assert env.ledger.steps > 0  # the rough pass

    def test_pac_eps_aborts_at_the_phase_cap(self, monkeypatch):
        monkeypatch.setattr("mnlbandit.driver.est_adaptive", _wide_phase)
        env = Environment(generate_instance("uniform", 5, 2, seed=3), fork_stream(1, 0))
        # 2^-(k-1) <= eps/3 first at k = 66: no completion within the cap.
        res = pac_eps(env, 0.1, 1e-19, DESK_TUNING)
        assert res.status == "phase-cap"
        assert len(res.phases) == PHASE_CAP
        assert all(p.alpha is not None for p in res.phases)  # no completion
        assert res.assortment == ()
        assert env.ledger.steps > 0

    def test_regret_aborts_then_exploits_the_pinned_set(self, monkeypatch):
        def pin_item_one(env, a, b, delta_k, eps, tuning):
            return phase_est(env, a, b, {i: (0.5, 1.0) if i == 1 else (-1.0, 0.4) for i in b})

        monkeypatch.setattr("mnlbandit.driver.est_reg", pin_item_one)
        inst = generate_instance("uniform", 5, 2, seed=3)
        horizon = 1000
        env = Environment(inst, fork_stream(1, 0), horizon=horizon)
        res = regret_min(env, DESK_TUNING)
        assert res.status == "phase-cap"
        assert len(res.phases) == PHASE_CAP
        assert res.phases[0].b_acc == (1,) and res.assortment == (1,)
        assert env.ledger.steps == horizon
        per_step = env.oracle_solution().theta_star - revenue(inst, (1,))
        assert env.ledger._segments == [[per_step, horizon]]
        assert env.ledger.cum_regret == per_step * horizon

    def test_sar_mnl_returns_the_pinned_set_when_the_budget_ends(self):
        inst = generate_instance("uniform", 6, 3, seed=8)
        estimator = partial(est_reg, tuning=DESK_TUNING)
        free = sar_mnl(Environment(inst, fork_stream(91, 0)), 0.01, estimator)
        first = free.phases[0]
        assert first.b_acc and len(free.phases) > 1
        # A budget that ends one step into the second phase's estimate.
        env = Environment(inst, fork_stream(91, 0), horizon=first.steps + 1)
        res = sar_mnl(env, 0.01, estimator)
        assert res.status == "horizon"
        assert res.phases == (first,)
        assert res.assortment == first.b_acc
        assert env.ledger.steps == first.steps + 1


class TestNoScaffolding:
    """The drivers decide from samples alone: grading against the optimum is
    the caller's job, so the evaluation accessors are never consulted."""

    @pytest.fixture(autouse=True)
    def _forbid_scaffolding(self, monkeypatch):
        def forbidden(self, *args):
            raise AssertionError("a driver consulted evaluation scaffolding")

        monkeypatch.setattr(Environment, "oracle_solution", forbidden)
        monkeypatch.setattr(Environment, "true_revenue", forbidden)

    INST = generate_instance("uniform", 6, 3, seed=8)

    @pytest.mark.parametrize("name", ["naive", "reduced", "reg", "adaptive"])
    def test_sar_mnl(self, name):
        env = Environment(self.INST, fork_stream(92, 0))
        if name == "adaptive":
            rough = est_rough(env, 0.05, DESK_TUNING)
            estimator = partial(est_adaptive, rough=rough, tuning=DESK_TUNING)
        else:
            fn = {"naive": est_naive, "reduced": est_reduced, "reg": est_reg}[name]
            estimator = partial(fn, tuning=DESK_TUNING)
        assert sar_mnl(env, 0.1, estimator).phases

    def test_wrappers(self):
        assert pac_exact(Environment(self.INST, fork_stream(92, 1)), 0.1, DESK_TUNING).phases
        env = Environment(self.INST, fork_stream(92, 2))
        assert pac_eps(env, 0.1, 0.1, DESK_TUNING).phases
        env = Environment(self.INST, fork_stream(92, 3), horizon=20_000)
        assert regret_min(env, DESK_TUNING).phases


class TestUpperSolveSet:
    """Each phase's ``est.s_hi`` against an independent solve: the reference
    optimum at the phase's upper ends, kept to the scored items.  A reduced
    estimate solves over the pending items at the residual capacity, a raw
    one (naive, reg) over pinned and pending items at ``min(k, |a| + |b|)``."""

    EPS = 0.5  # the ε stop at phase 4

    RUNS = {
        **{name: partial(pac_exact, delta=0.1, tuning=DESK_TUNING, estimator=name)
           for name in ("naive", "reduced", "adaptive", "reg")},
        "pac-eps": partial(pac_eps, delta=0.1, eps=EPS, tuning=DESK_TUNING),
        # the ε stop of a raw estimator takes the pending part of its raw set
        "naive-eps": partial(sar_mnl, delta=0.05, estimator=partial(est_naive, tuning=DESK_TUNING),
                             eps=EPS),
        "reg-eps": partial(sar_mnl, delta=0.05, estimator=partial(est_reg, tuning=DESK_TUNING),
                           eps=EPS),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_every_phase_keeps_its_upper_solves_set(self, name):
        raw = name.startswith(("naive", "reg"))
        chosen = pinned_dropped = completed = 0
        for inst in _reference_instances():
            rewards = {i: float(inst.r[i - 1]) for i in range(1, inst.n + 1)}
            for rep in range(3):
                res = self.RUNS[name](Environment(inst, fork_stream(93, rep)))
                for p in res.phases:
                    est = p.est
                    capacity = min(inst.k, len(est.nu_hi)) if raw else est.m
                    want = fractional_optimum(
                        rewards, ReducedParams(est.zeta_hi, est.nu_hi), capacity
                    ).s_star
                    assert est.s_hi == tuple(i for i in want if i in p.b_set)
                    chosen += bool(est.s_hi)
                    pinned_dropped += len(want) > len(est.s_hi)
                last = res.phases[-1]
                if name.endswith("eps") and 2.0 ** (1 - last.k) <= self.EPS / 3.0:  # the ε stop
                    assert last.b_acc == last.est.s_hi and last.b_rej == ()
                    assert res.assortment == tuple(sorted(last.a_set + last.b_acc))
                    completed += 1
        assert chosen > 0
        assert (pinned_dropped > 0) == raw
        assert (completed > 0) == name.endswith("eps")


def _reference_instances():
    return (
        generate_instance("uniform", 6, 3, seed=8),
        generate_instance("uniform", 8, 3, seed=7),
        generate_instance("uniform", 10, 4, seed=14618),
        lower_bound_instance(4, 2, [0.01, 0.01]),
    )


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
        res = RunResult(assortment=(1,), phases=())
        assert res.status == "ok"

    def test_holds_only_decisions(self):
        # steps and regret are the ledger's, success the caller's to grade
        assert RunResult._fields == ("assortment", "phases", "status")
