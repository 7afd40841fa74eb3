"""Acceptance suite: one check per contract, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete (plain ``pytest`` captures them unless a check fails).
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy import stats

from mnlbandit import cli
from mnlbandit.cli import main as cli_main
from mnlbandit.driver import pac_eps, pac_exact, regret_min
from mnlbandit.env import Environment, fork_stream
from mnlbandit.estimators import (
    DESK_TUNING,
    PAPER_TUNING,
    ExploreState,
    ci_nu,
    ci_zeta,
    est_adaptive,
    est_naive,
    est_reduced,
    est_rough,
)
from mnlbandit.instances import generate_instance, lower_bound_instance
from mnlbandit.model import Instance, revenue
from mnlbandit.oracle import (
    brute_force_optimum,
    exact_optimum,
    fractional_optimum,
    suboptimality_gaps,
)
from baselines import uniform_random_regret
from epoch_detail import epoch_detail
from model_reference import advantage_scores, reduce_params


def _report(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _random_instance(rng, n_max=8, k_max=4):
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, min(n, k_max) + 1))
    return Instance(n=n, k=k, r=rng.uniform(0, 1, n), v=rng.uniform(0, 1, n))


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    bad = 0
    for _ in range(1000):
        inst = _random_instance(rng)
        brute = brute_force_optimum(inst)
        s, theta = fractional_optimum(inst.v.tolist(), inst.r.tolist(), 0.0, inst.k)
        scores = advantage_scores(inst, brute.theta_star)
        score_sum = sum(scores[i] for i in brute.s_star)
        if (
            tuple(j + 1 for j in s) != brute.s_star
            or abs(theta - brute.theta_star) > 1e-9
            or abs(score_sum - brute.theta_star) > 1e-9
        ):
            bad += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        "oracle-equivalence",
        bad == 0 and elapsed < 10.0,
        f"{bad} mismatches over 1000 instances, {elapsed:.1f}s",
    )


def test_criterion_02_revenue_comparison_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(10_000):
        inst = _random_instance(rng)
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
        worst = max(worst, abs(lhs - rhs))
    _report(
        2,
        "revenue-comparison-identity",
        worst <= 1e-9,
        f"worst deviation {worst:.2e} over 10000 pairs",
    )


def test_criterion_03_prescribed_gap_family():
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    worst_gap = 0.0
    worst_half = 0.0
    for trial in range(100):
        k = int(rng.choice([1, 2, 4, 8]))
        n = 2 * k
        gaps = rng.uniform(0.0, 1.0 / (16.0 * k), size=n - k)
        gaps = np.maximum(gaps, 1e-6)  # keep them strictly positive
        inst = lower_bound_instance(n, k, gaps)
        _, realized = suboptimality_gaps(inst)
        for j, want in enumerate(gaps, start=k + 1):
            worst_gap = max(worst_gap, abs(realized[j] - want))
        half = revenue(inst, tuple(range(1, k + 1)))
        worst_half = max(worst_half, abs(half - 0.5))
    elapsed = time.monotonic() - t0
    _report(
        3,
        "prescribed-gap-family",
        worst_gap <= 1e-9 and worst_half <= 1e-12 and elapsed < 30.0,
        f"gap dev {worst_gap:.2e}, R([K]) dev {worst_half:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_epoch_moments():
    inst = Instance(
        n=6,
        k=6,
        r=[0.9, 0.7, 0.5, 0.8, 0.3, 0.6],
        v=[0.5, 0.8, 0.3, 0.9, 0.2, 0.7],
    )
    configs = [
        ((), (1,)),
        ((), (1, 2, 3)),
        ((1,), (2, 3)),
        ((1, 2), (4,)),
        ((1, 2, 3), (4, 5, 6)),
    ]
    epochs = 100_000
    bad = []
    for idx, (z_set, tracked) in enumerate(configs):
        env = Environment(inst, fork_stream(1004, idx))
        batch = env.sample_epochs(z_set, tracked, epochs)
        _, lengths = epoch_detail(env, batch)
        params = reduce_params(inst, z_set)

        # stop-reward mean: exact variance of the categorical stop outcome
        vz = sum(float(inst.v[c - 1]) for c in z_set)
        second = sum(
            float(inst.v[c - 1]) * float(inst.r[c - 1]) ** 2 for c in z_set
        ) / (1.0 + vz)
        se_z = math.sqrt(max(second - params.zeta**2, 0.0) / epochs)
        if abs(batch.z_sum / epochs - params.zeta) > 3 * se_z:
            bad.append(f"config {idx}: stop-reward mean")

        # per-item counts: exact geometric variance nu (1 + nu)
        for i, count in zip(batch.tracked, batch.x_sums.tolist()):
            nu = params.nu[i]
            se = math.sqrt(nu * (1.0 + nu) / epochs)
            if abs(count / epochs - nu) > 3 * se:
                bad.append(f"config {idx}: weight of item {i}")

        # epoch length minus one: the total purchase count, geometric with
        # mean sum(nu) (the item counts are jointly negative-multinomial)
        nus = [params.nu[i] for i in tracked]
        se_len = math.sqrt(sum(nus) * (1.0 + sum(nus)) / epochs)
        mean_len = float(np.mean(lengths))
        if abs((mean_len - 1.0) - sum(nus)) > 3 * se_len:
            bad.append(f"config {idx}: epoch length")
    _report(
        4,
        "epoch-moments",
        not bad,
        "; ".join(bad) if bad else "20 moment checks within 3 exact SEs",
    )


def test_criterion_05_interval_coverage():
    delta = 0.01
    trials = 10_000
    rng = np.random.default_rng(1005)

    nu, t_epochs = 0.3, 2000
    sums = rng.negative_binomial(t_epochs, 1.0 / (1.0 + nu), size=trials)
    big_l = PAPER_TUNING.ci_scale * math.log(2 / delta)
    covered_nu = 0
    for s in sums:
        lo, hi = ci_nu(int(s), t_epochs, big_l)
        covered_nu += lo <= nu <= hi

    v1, r1, t_z = 0.5, 0.8, 200
    q = v1 / (1.0 + v1)
    zeta = q * r1
    hits = rng.binomial(t_z, q, size=trials)
    covered_z = 0
    for h in hits:
        state = ExploreState(z_stop=(1,))
        state.n_z, state.t_z = r1 * float(h), t_z
        lo, hi = ci_zeta(state, big_l)
        covered_z += lo <= zeta <= hi

    ok = covered_nu >= (1 - 13 * delta) * trials and covered_z >= (1 - delta) * trials
    _report(
        5,
        "interval-coverage",
        ok,
        f"weight {covered_nu}/{trials} (need {int((1 - 13 * delta) * trials)}), "
        f"stop-reward {covered_z}/{trials} (need {int((1 - delta) * trials)})",
    )


def test_criterion_06_exact_pac_success():
    t0 = time.monotonic()
    seeds = [8, 13, 15, 43, 75, 101, 109, 112, 116, 162]
    reps = 200
    rates = []
    invariant_violations = 0
    for seed in seeds:
        inst = generate_instance("uniform", 6, 3, seed=seed)
        _, gaps = suboptimality_gaps(inst)
        assert min(g for g in gaps.values() if g > 0) >= 0.05
        s_star = set(brute_force_optimum(inst).s_star)
        wins = 0
        for rep in range(reps):
            env = Environment(inst, fork_stream(900 + seed, rep))
            res = pac_exact(env, 0.1, DESK_TUNING)
            if set(res.assortment) != s_star:
                continue
            wins += 1
            for p in res.phases:
                pinned_after = set(p.a_set) | set(p.b_acc)
                pending_after = set(p.b_set) - set(p.b_acc) - set(p.b_rej)
                if not (pinned_after <= s_star <= (pinned_after | pending_after)):
                    invariant_violations += 1
                if any(gaps[i] > p.eps_k for i in pending_after):
                    invariant_violations += 1
        rates.append(wins / reps)
    elapsed = time.monotonic() - t0
    ok = min(rates) >= 0.9 and invariant_violations == 0 and elapsed < 600.0
    _report(
        6,
        "exact-pac-success",
        ok,
        f"success rates {min(rates):.3f}..{max(rates):.3f}, "
        f"{invariant_violations} invariant violations, {elapsed:.0f}s",
    )


def test_criterion_07_estimator_ordering():
    inst = generate_instance("dense", 12, 8, seed=3)
    opt = brute_force_optimum(inst)
    a = opt.s_star[:4]
    b = tuple(i for i in range(1, inst.n + 1) if i not in a)
    delta0, eps = 0.1, 0.05
    naive, reduced, adaptive = [], [], []
    for rep in range(50):
        env = Environment(inst, fork_stream(7100, rep))
        est_naive(env, a, b, delta0, eps, DESK_TUNING)
        naive.append(env.ledger.steps)
        env = Environment(inst, fork_stream(7200, rep))
        est_reduced(env, a, b, delta0, eps, DESK_TUNING)
        reduced.append(env.ledger.steps)
        env = Environment(inst, fork_stream(7300, rep))
        rough = est_rough(env, 0.05, DESK_TUNING)
        rough_steps = env.ledger.steps
        est_adaptive(env, a, b, delta0, eps, rough, DESK_TUNING)
        adaptive.append(env.ledger.steps - rough_steps)
    m_naive = float(np.median(naive))
    m_reduced = float(np.median(reduced))
    m_adaptive = float(np.median(adaptive))
    ok = m_naive > m_reduced > m_adaptive and m_naive >= 4 * m_adaptive
    _report(
        7,
        "estimator-ordering",
        ok,
        f"medians naive {m_naive:.0f} > reduced {m_reduced:.0f} > "
        f"adaptive {m_adaptive:.0f}, ratio {m_naive / m_adaptive:.1f}",
    )


def test_criterion_08_gap_scaling():
    medians = {}
    for base_seed, gap in ((8100, 1 / 40), (8200, 1 / 80)):
        inst = lower_bound_instance(4, 2, [gap, gap])
        steps = []
        for rep in range(25):
            env = Environment(inst, fork_stream(base_seed, rep))
            pac_exact(env, 0.1, DESK_TUNING)
            steps.append(env.ledger.steps)
        medians[gap] = float(np.median(steps))
    ratio = medians[1 / 80] / medians[1 / 40]
    _report(
        8,
        "gap-scaling",
        2.5 <= ratio <= 6.0,
        f"halving the gap multiplied median steps by {ratio:.2f}",
    )


def test_criterion_09_regret_behavior():
    inst = generate_instance("uniform", 10, 4, seed=14618)
    _, gaps = suboptimality_gaps(inst)
    assert min(g for g in gaps.values() if g > 0) >= 0.05
    horizon = 100_000
    reps = 50

    regrets = []
    for rep in range(reps):
        env = Environment(inst, fork_stream(9100, rep), horizon=horizon)
        regret_min(env, DESK_TUNING)
        regrets.append(env.ledger.cum_regret)
    baseline = [
        uniform_random_regret(inst, horizon, fork_stream(9200, rep))
        for rep in range(reps)
    ]
    advantage = float(np.median(baseline)) / float(np.median(regrets))

    small, large = [], []
    for rep in range(reps):
        env = Environment(inst, fork_stream(9300, rep), horizon=20_000)
        regret_min(env, DESK_TUNING)
        small.append(env.ledger.cum_regret)
        env = Environment(inst, fork_stream(9400, rep), horizon=80_000)
        regret_min(env, DESK_TUNING)
        large.append(env.ledger.cum_regret)
    growth = float(np.median(large)) / float(np.median(small))

    ok = advantage >= 5.0 and growth <= 1.6
    _report(
        9,
        "regret-behavior",
        ok,
        f"{advantage:.1f}x below uniform-random, "
        f"quadrupling the horizon grew regret {growth:.2f}x",
    )


def test_criterion_10_approx_pac():
    inst = lower_bound_instance(4, 2, [0.002, 0.002])
    theta_star = brute_force_optimum(inst).theta_star
    eps_steps, wins = [], 0
    for rep in range(200):
        env = Environment(inst, fork_stream(10100, rep))
        res = pac_eps(env, 0.1, 0.1, DESK_TUNING)
        eps_steps.append(env.ledger.steps)
        wins += theta_star - revenue(inst, res.assortment) <= 0.1
    exact_steps = []
    for rep in range(50):
        env = Environment(inst, fork_stream(10200, rep))
        pac_exact(env, 0.1, DESK_TUNING)
        exact_steps.append(env.ledger.steps)
    ratio = float(np.median(eps_steps)) / float(np.median(exact_steps))
    ok = wins >= 180 and ratio < 0.5
    _report(
        10,
        "approx-pac",
        ok,
        f"success {wins}/200, median steps ratio {ratio:.2f}",
    )


def test_criterion_11_reproducibility(tmp_path, monkeypatch, instance_file):
    inst = instance_file("--family", "uniform", "--n", "4", "--k", "2", "--seed", "5")

    def run_pac(out, threads):
        monkeypatch.setenv("MNL_THREADS", str(threads))
        code = cli_main([
            "run", "--instance", inst, "--mode", "pac", "--seed", "424242",
            "--reps", "4", "--tuning", "desk", "--out", str(out),
        ])
        assert code == 0
        return out.read_bytes()

    def run_regret(out, curve, threads=1, *more):
        monkeypatch.setenv("MNL_THREADS", str(threads))
        code = cli_main([
            "run", "--instance", inst, "--mode", "regret", "--horizon", "20000",
            "--seed", "424242", "--reps", "2", "--tuning", "desk",
            "--out", str(out), "--curve-out", str(curve), *more,
        ])
        assert code == 0
        return out.read_bytes() + curve.read_bytes()

    def pool_size(out):
        return json.loads(Path(str(out) + ".meta.json").read_text())["workers"]

    pac_a = run_pac(tmp_path / "a.csv", 1)
    pac_b = run_pac(tmp_path / "b.csv", 1)
    pac_c = run_pac(tmp_path / "c.csv", 2)
    reg_a = run_regret(tmp_path / "ra.csv", tmp_path / "ca.csv")
    reg_b = run_regret(tmp_path / "rb.csv", tmp_path / "cb.csv")
    pooled = ("--reps", "4", "--curve-rep", "3")
    reg_s = run_regret(tmp_path / "rs.csv", tmp_path / "cs.csv", 1, *pooled)
    # a pool that costs nothing to start runs replications 1 to 3 in 2
    # workers, the kept curve's replication among them
    monkeypatch.setattr(cli, "POOL_STARTUP_S", 0.0)
    pac_p = run_pac(tmp_path / "p.csv", 2)
    reg_p = run_regret(tmp_path / "rp.csv", tmp_path / "cp.csv", 2, *pooled)
    ok = pac_a == pac_b == pac_c and reg_a == reg_b
    ok = ok and pac_p == pac_a and reg_p == reg_s
    ok = ok and pool_size(tmp_path / "p.csv") == pool_size(tmp_path / "rp.csv") == 2
    with open(tmp_path / "a.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = ok and len(rows) == 4
    _report(
        11,
        "reproducibility",
        ok,
        "byte-identical CSVs across reruns and worker counts",
    )


def test_criterion_12_adaptive_beats_naive_end_to_end():
    # Both estimators run the same PAC body at the paper's constants: the
    # accept-reject loop at delta / 2, adaptive's rough pass counted in its steps.
    ratios, misses = [], 0
    for n, k in ((16, 4), (32, 8), (64, 8)):
        inst = generate_instance("uniform", n, k, seed=3)
        s_star = exact_optimum(inst).s_star
        medians = {}
        for estimator in ("adaptive", "naive"):
            steps = []
            for rep in range(20):
                env = Environment(inst, fork_stream(1, rep))
                res = pac_exact(env, 0.1, PAPER_TUNING, estimator=estimator)
                misses += res.assortment != s_star
                steps.append(env.ledger.steps)
            medians[estimator] = float(np.median(steps))
        ratios.append(medians["naive"] / medians["adaptive"])
    ok = misses == 0 and min(ratios) >= 2.0
    _report(
        12,
        "adaptive-beats-naive",
        ok,
        f"{misses} runs missed S*, median naive/adaptive steps "
        + " / ".join(f"{r:.2f}" for r in ratios) + " at n = 16 / 32 / 64",
    )


def _step_residuals(inst, master_seed, reps, monkeypatch):
    """Standardized step residuals of paper-constant `pac_exact` runs.

    Every `(Z, S, T)` batch is recorded: its steps are ``T + M`` with ``M``
    negative binomial, so they have mean ``T (1 + m)`` and variance
    ``T m (1 + m)``, ``m = sum_{i in S} v_i / (1 + sum_{j in Z} v_j)``.  A
    run's residual is its steps minus the sum of its batch means, over the
    root of the sum of its batch variances.  Also returns the runs whose
    ledger is not the sum of their batches' steps.
    """
    batches = []
    sample = Environment.sample_epochs

    def recording(self, z, s, epochs):
        batch = sample(self, z, s, epochs)
        assert not batch.truncated  # the runs have no step budget
        batches.append((z, s, epochs, batch.steps))
        return batch

    monkeypatch.setattr(Environment, "sample_epochs", recording)
    v = inst.v.tolist()
    residuals, unbalanced = [], 0
    for rep in range(reps):
        batches.clear()
        env = Environment(inst, fork_stream(master_seed, rep))
        pac_exact(env, 0.1, PAPER_TUNING)
        mean = var = 0.0
        for z, s, epochs, _ in batches:
            m = sum(v[i - 1] for i in s) / (1.0 + sum(v[j - 1] for j in z))
            mean += epochs * (1.0 + m)
            var += epochs * m * (1.0 + m)
        steps = sum(batch_steps for *_, batch_steps in batches)
        unbalanced += env.ledger.steps != steps
        residuals.append((steps - mean) / math.sqrt(var))
    return residuals, unbalanced


def test_criterion_13_steps_follow_the_batch_plan(monkeypatch):
    # At fixed tuning and delta the schedule fixes every batch's epoch count,
    # so a run's steps follow from its batches; this checks the sampler and
    # the ledger end to end, at 2e13 steps a run on the lower-bound instance.
    # Each case fails with probability 1e-3 when the law holds.
    cases = {
        "lower-bound n6 k2 gaps 1e-5": lower_bound_instance(6, 2, [1e-5] * 4),
        "uniform n64 k8 seed 3": generate_instance("uniform", 64, 8, seed=3),
    }
    details, ok = [], True
    for label, inst in cases.items():
        residuals, unbalanced = _step_residuals(inst, 1013, 200, monkeypatch)
        p = stats.kstest(residuals, "norm").pvalue
        ok = ok and unbalanced == 0 and p >= 1e-3
        details.append(f"{label}: KS p = {p:.3g}, {unbalanced} unbalanced ledgers")
    _report(13, "steps-follow-the-batch-plan", ok, "; ".join(details))


def _phases_with_a_miss(inst, estimator, master_seed, reps):
    """Phases of paper-constant `pac_exact` runs with the named estimator in
    which any interval misses the truth, and the phases' summed confidence
    budgets ``delta_k``.  A reduced estimate's truth is the reduced weights and
    stop reward relative to the pinned set, θ solved at the residual capacity;
    a raw one's (naive, reg) is the raw weights over ``a ∪ b``, θ solved at
    ``min(k, |a| + |b|)`` with the stop reward pinned to 0, which is not checked."""
    r = inst.r.tolist()
    raw = estimator in ("naive", "reg")
    missed = phases = 0
    budget = 0.0
    for rep in range(reps):
        env = Environment(inst, fork_stream(master_seed, rep))
        res = pac_exact(env, 0.1, PAPER_TUNING, estimator=estimator)
        for p in res.phases:
            est = p.est
            if raw:
                items = tuple(sorted(p.a_set + p.b_set))
                zeta, capacity = 0.0, min(inst.k, len(items))
                nu = {i: float(inst.v[i - 1]) for i in items}
            else:
                truth = reduce_params(inst, p.a_set)
                items, zeta, nu, capacity = p.b_set, truth.zeta, truth.nu, est.m
            _, theta = fractional_optimum([nu[i] for i in items], [r[i - 1] for i in items],
                                          zeta, capacity)
            miss = not raw and not (est.zeta_lo <= zeta <= est.zeta_hi)
            miss |= not (est.theta_lo <= theta <= est.theta_hi)
            miss |= any(not (est.nu_lo[i] <= nu[i] <= est.nu_hi[i]) for i in items)
            miss |= any(not (est.xi_lo[i] <= nu[i] * (r[i - 1] - theta) <= est.xi_hi[i])
                        for i in est.items)
            missed += miss
            phases += 1
            budget += p.delta_k
    return missed, phases, budget


def test_criterion_14_intervals_hold_end_to_end():
    # Phase k's intervals all hold with probability at least 1 - delta_k, so
    # the phases with a miss stay within the 1 - 1e-3 Poisson quantile of
    # their summed budgets, for each of the four phase estimators.  Gaps of
    # 1e-4 and 1e-5 take 5 and 8-9 phases and pin items, so every interval
    # kind is exercised, raw weights of pinned items included.
    details, ok = [], True
    for estimator in ("adaptive", "reduced", "naive", "reg"):
        for gap in (1e-4, 1e-5):
            inst = lower_bound_instance(6, 2, [gap] * 4)
            missed, phases, budget = _phases_with_a_miss(inst, estimator, 1014, 200)
            bound = stats.poisson.ppf(1.0 - 1e-3, budget)
            ok = ok and missed <= bound
            details.append(f"{estimator} gap {gap:g}: {missed} of {phases} phases missed, "
                           f"budget {budget:.2f}, bound {bound:.0f}")
    _report(14, "intervals-hold-end-to-end", ok, "; ".join(details))
