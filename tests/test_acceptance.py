"""Package acceptance gate: one test per numbered criterion.

Every test prints a single pass/fail line with the measured numbers before it
asserts, so a red run still reports what it saw, and asserts its stated
runtime budget. The Monte Carlo criteria (5 through 11) run at frozen seeds
and configurations; those must not be retuned to turn a red criterion green.

Run order follows the criterion numbers. The whole file takes roughly
a quarter hour; criteria 6 and 11 dominate.
"""
import math
import time

import numpy as np
import pytest

from tripletlab.cli import (
    EXIT_OK,
    _suite_expansiveness,
    _suite_gradient,
    _suite_regularity,
    main,
)
from tripletlab.core import Pool, SlotRef, replace_samples
from tripletlab.lab import (
    SweepConfig,
    _exact_budget,
    fit_loglog_slope,
    run_optimistic_experiment,
    run_rate_sweep,
)
from tripletlab.loss import LossConfig, MetricParams, phi
from tripletlab.optim import RrmConfig, SgdConfig, rrm_train, sgd_train
from tripletlab.risk import bernstein_ustat_bound, empirical_risk
from tripletlab.stability import (
    RrmTrainer,
    SgdTrainer,
    chernoff_hit_bound,
    estimate_uniform_stability,
    high_probability_gap_bound,
    loss_expectation_bound,
    optimistic_gap_bound,
    probe_max_loss_diff,
    rrm_stability_bound,
)
from tripletlab.synth import TaskConfig, gen_task


def report_line(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def elapsed_ok(started, budget_s):
    return time.time() - started, (time.time() - started) < budget_s


# --- 1: analytic gradient against central finite differences ---


def test_criterion_01_gradient_exactness():
    started = time.time()
    rng = np.random.default_rng(np.random.SeedSequence(101))
    violations, worst = _suite_gradient(rng, 1000)
    took, in_time = elapsed_ok(started, 10.0)
    ok = violations == 0 and in_time
    report_line(1, "gradient exactness", ok,
                f"{violations}/1000 probes off, worst rel {worst:.3e}, {took:.1f}s")
    assert violations == 0, f"{violations} probes exceeded 1e-6 relative error"
    assert in_time, f"took {took:.1f}s, budget 10s"


# --- 2: Lipschitz / smoothness / convexity at B = 1 ---


def test_criterion_02_regularity_constants():
    started = time.time()
    rng = np.random.default_rng(np.random.SeedSequence(202))
    lip, smooth, convex = _suite_regularity(rng, 10_000)
    took, in_time = elapsed_ok(started, 30.0)
    ok = lip == 0 and smooth == 0 and convex == 0 and in_time
    report_line(2, "regularity constants", ok,
                f"lipschitz {lip}, smoothness {smooth}, convexity {convex} "
                f"violations in 10000 probes, {took:.1f}s")
    assert (lip, smooth, convex) == (0, 0, 0)
    assert in_time, f"took {took:.1f}s, budget 30s"


# --- 3: exact risk against a nested-loop oracle ---


def brute_force_risk(w, dataset, zeta):
    X = dataset.positive_features
    Y = dataset.negative_features
    total = []
    for i in range(dataset.n_plus):
        for j in range(dataset.n_plus):
            if i == j:
                continue
            for k in range(dataset.n_minus):
                dp = X[i] - X[j]
                dn = X[i] - Y[k]
                margin = float(dp @ w.w @ dp) - float(dn @ w.w @ dn) + zeta
                total.append(float(phi(-margin)))
    return math.fsum(total) / len(total)


def test_criterion_03_risk_oracle():
    started = time.time()
    _, sampler = gen_task(TaskConfig(d=3, n_plus=6, n_minus=4, seed=303))
    rng = sampler.spawn_generator()
    worst = 0.0
    draws = 0
    for repeat in range(5):
        for n_plus in range(2, 7):
            for n_minus in range(1, 5):
                dataset = sampler.draw_dataset(n_plus, n_minus)
                raw = rng.standard_normal((3, 3))
                w = MetricParams((raw + raw.T) / 2.0)
                zeta = float(rng.uniform(0, 1))
                oracle = brute_force_risk(w, dataset, zeta)
                est = empirical_risk(w, dataset, LossConfig(zeta))
                rel = abs(est.value - oracle) / max(1.0, abs(oracle))
                worst = max(worst, rel)
                draws += 1
    took, in_time = elapsed_ok(started, 10.0)
    ok = worst < 1e-12 and in_time
    report_line(3, "risk oracle", ok,
                f"worst rel {worst:.3e} over {draws} draws, {took:.1f}s")
    assert draws == 100
    assert worst < 1e-12
    assert in_time, f"took {took:.1f}s, budget 10s"


# --- 4: gradient step is 1-expansive at eta = 1/(32 B^4) ---


def test_criterion_04_one_expansive():
    started = time.time()
    rng = np.random.default_rng(np.random.SeedSequence(404))
    violations = _suite_expansiveness(rng, 10_000)
    took, in_time = elapsed_ok(started, 30.0)
    ok = violations == 0 and in_time
    report_line(4, "1-expansiveness", ok,
                f"{violations}/10000 violations, {took:.1f}s")
    assert violations == 0
    assert in_time, f"took {took:.1f}s, budget 30s"


# --- 5: paired shared-seed SGD runs against the step-hit bound ---


def test_criterion_05_sgd_stability_domination():
    started = time.time()
    _, sampler = gen_task(TaskConfig(d=3, n_plus=50, n_minus=50, seed=0))
    trainer = SgdTrainer(SgdConfig(T=500, c=1.0 / 32.0, seed=0))
    report = estimate_uniform_stability(
        trainer, sampler, 50, 50, trials=50, probe_size=1000, cfg=LossConfig(0.0),
        seed=505,
    )
    took, in_time = elapsed_ok(started, 300.0)
    dominated = report.dominated() is True
    ok = dominated and in_time
    margin = max(
        g / b for g, b in zip(report.per_trial_gamma, report.per_trial_bound)
    )
    report_line(5, "sgd stability domination", ok,
                f"50 paired runs, worst gamma/bound {margin:.3e}, {took:.1f}s")
    assert dominated, "a paired run exceeded its step-hit bound"
    assert in_time, f"took {took:.1f}s, budget 300s"


# --- 6: single-replacement RRM runs against min(8/n+, 4/n-) L^2 / (2 lam) ---


def test_criterion_06_rrm_stability_domination():
    started = time.time()
    results = []
    for n in (32, 64, 128):
        for lam in (0.05, 0.5):
            _, sampler = gen_task(TaskConfig(d=3, n_plus=n, n_minus=n, seed=0))
            budget = _exact_budget(n)
            trainer = RrmTrainer(RrmConfig(lam=lam, budget=budget))
            report = estimate_uniform_stability(
                trainer, sampler, n, n, trials=50, probe_size=500,
                cfg=LossConfig(0.0), seed=606,
            )
            margin = max(
                g / b for g, b in zip(report.per_trial_gamma, report.per_trial_bound)
            )
            results.append((n, lam, report.dominated() is True, margin))
    took, in_time = elapsed_ok(started, 600.0)
    all_dominated = all(flag for _, _, flag, _ in results)
    worst = max(margin for _, _, _, margin in results)
    ok = all_dominated and in_time
    report_line(6, "rrm stability domination", ok,
                f"{sum(f for _, _, f, _ in results)}/6 cells dominated over 50 "
                f"trials each, worst gamma/bound {worst:.3e}, {took:.1f}s")
    assert all_dominated, f"violating cells: {[(n, l) for n, l, f, _ in results if not f]}"
    assert in_time, f"took {took:.1f}s, budget 600s"


# --- 7: triple replacement stays inside three single-replacement bounds ---


def test_criterion_07_triple_replacement_envelope():
    started = time.time()
    n, lam, trials = 64, 0.1, 30
    _, sampler = gen_task(TaskConfig(d=3, n_plus=n, n_minus=n, seed=0))
    rng = sampler.spawn_generator()
    cfg = RrmConfig(lam=lam, budget=_exact_budget(n))
    loss_cfg = LossConfig(0.0)
    envelope = 3.0 * rrm_stability_bound(n, n, 8.0, 2.0 * lam)
    worst = 0.0
    violations = 0
    for _ in range(trials):
        child = sampler.fork()
        dataset = child.draw_dataset(n, n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        k = int(rng.integers(n))
        swapped = replace_samples(dataset, [
            (SlotRef(Pool.POSITIVE, i), child.positive_sample()),
            (SlotRef(Pool.POSITIVE, j), child.positive_sample()),
            (SlotRef(Pool.NEGATIVE, k), child.negative_sample()),
        ])
        w_a, _ = rrm_train(dataset, cfg)
        w_b, _ = rrm_train(swapped, cfg, w0=w_a)
        diff, _ = probe_max_loss_diff(w_a, w_b, dataset, child.draw(500), loss_cfg)
        worst = max(worst, diff)
        violations += diff > envelope
    took, in_time = elapsed_ok(started, 300.0)
    ok = violations == 0 and in_time
    report_line(7, "triple replacement envelope", ok,
                f"{violations}/{trials} over 3x bound, worst diff {worst:.3e} "
                f"vs {envelope:.3e}, {took:.1f}s")
    assert violations == 0
    assert in_time, f"took {took:.1f}s, budget 300s"


# --- 8: slot hit counts against the multiplicative Chernoff bound ---


def test_criterion_08_chernoff_hit_count():
    started = time.time()
    _, sampler = gen_task(TaskConfig(d=3, n_plus=100, n_minus=50, seed=0))
    bound = chernoff_hit_bound(1000, 100, 50, 0.05)
    runs = 200
    over_pos = over_neg = 0
    for seq in np.random.SeedSequence(808).spawn(runs):
        dataset = sampler.fork().draw_dataset(100, 50)
        seed = int(seq.generate_state(1, np.uint64)[0])
        _, trace = sgd_train(dataset, SgdConfig(T=1000, c=1.0 / 32.0, seed=seed))
        over_pos += trace.indicator_hits(SlotRef(Pool.POSITIVE, 0)) > bound
        over_neg += trace.indicator_hits(SlotRef(Pool.NEGATIVE, 0)) > bound
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / runs)
    frac = max(over_pos, over_neg) / runs
    took, in_time = elapsed_ok(started, 120.0)
    ok = frac <= limit and in_time
    report_line(8, "chernoff hit count", ok,
                f"worst violation fraction {frac:.4f} vs {limit:.4f} "
                f"(bound {bound:.2f} hits), {took:.1f}s")
    assert frac <= limit
    assert in_time, f"took {took:.1f}s, budget 120s"


# --- 9: empirical risk deviations against the Bernstein bound ---


def test_criterion_09_bernstein_deviation():
    started = time.time()
    from tripletlab.loss import triplet_losses_rowwise

    _, sampler = gen_task(TaskConfig(d=3, n_plus=100, n_minus=50, seed=0))
    w = MetricParams(0.5 * np.eye(3))
    loss_cfg = LossConfig(0.0)
    Xa, Xp, Xn = sampler.draw(200_000)
    vals = triplet_losses_rowwise(w.w, Xa, Xp, Xn, 0.0)
    b_hat = float(vals.max())
    tau_hat = float(vals.var(ddof=1))
    population = float(vals.mean())
    bound = bernstein_ustat_bound(b_hat, tau_hat, 0.1, 100, 50)
    draws = 200
    violations = 0
    for _ in range(draws):
        dataset = sampler.draw_dataset(100, 50)
        deviation = abs(empirical_risk(w, dataset, loss_cfg).value - population)
        violations += deviation > bound
    limit = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / draws)
    frac = violations / draws
    took, in_time = elapsed_ok(started, 300.0)
    ok = frac <= limit and in_time
    report_line(9, "bernstein deviation", ok,
                f"violation fraction {frac:.4f} vs {limit:.4f} "
                f"(bound {bound:.4f}), {took:.1f}s")
    assert frac <= limit
    assert in_time, f"took {took:.1f}s, budget 300s"


# --- 10: SGD learning-curve exponent ---

SGD_SWEEP = SweepConfig(
    algorithm="sgd",
    n_grid=(32, 64, 128, 256, 512),
    trials_per_n=20,
    c=1.0 / 32.0,
    task=TaskConfig(d=3, n_plus=4, n_minus=4, separation=0.0, noise_scale=0.25, seed=0),
    population_m=100_000,
    seed=20260816,
)


def test_criterion_10_sgd_rate_exponent():
    started = time.time()
    report = run_rate_sweep(SGD_SWEEP)
    took, in_time = elapsed_ok(started, 1200.0)
    fit = report.fit
    in_band = -0.9 <= fit.slope <= -0.25
    ok = in_band and in_time
    report_line(10, "sgd rate exponent", ok,
                f"slope {fit.slope:.4f} (stderr {fit.slope_stderr:.4f}, "
                f"r^2 {fit.r_squared:.3f}), band [-0.9, -0.25], {took:.1f}s")
    assert in_band, f"slope {fit.slope:.4f} outside [-0.9, -0.25]"
    assert in_time, f"took {took:.1f}s, budget 1200s"


# --- 11: low-noise RRM runs, bound domination and the fast-rate exponent ---

OPTIMISTIC_SWEEP = SweepConfig(
    algorithm="rrm",
    sigma_rule="optimistic",
    n_grid=(8, 16, 32, 64, 128),
    trials_per_n=150,
    task=TaskConfig(d=3, n_plus=4, n_minus=4, B=0.5, separation=0.8,
                    noise_scale=0.15, seed=0),
    population_m=1_000_000,
    seed=20260816,
)


def test_criterion_11_optimistic_regime():
    # The theorem is a bound on the expected gap that decays as fast as
    # O(1/n) in the low-noise case; the fast rate is checked on that bound.
    # The measured gap is only required to stay under it: at this grid the
    # validity floor sigma >= 8 alpha / n binds in every cell, which holds
    # sigma * n and with it the measured gap roughly constant.
    started = time.time()
    report = run_optimistic_experiment(OPTIMISTIC_SWEEP)
    took, in_time = elapsed_ok(started, 1200.0)
    dominated = report.all_dominated
    n_dom = sum(c.dominated for c in report.cells)
    bound_slope, _, bound_stderr, _ = fit_loglog_slope(
        (c.n, c.bound) for c in report.cells
    )
    slope_ok = bound_slope <= -0.7
    ok = dominated and slope_ok and in_time
    gaps = ", ".join(f"n={c.n}:{c.mean_gap:.2e}" for c in report.cells)
    bounds = ", ".join(f"n={c.n}:{c.bound:.3g}" for c in report.cells)
    report_line(11, "optimistic regime", ok,
                f"dominated {n_dom}/{len(report.cells)} cells, bound slope "
                f"{bound_slope:.4f} (stderr {bound_stderr:.4f}) vs -0.7, "
                f"bounds [{bounds}], gap slope {report.fit.slope:.4f} "
                f"(stderr {report.fit.slope_stderr:.4f}), gaps [{gaps}], {took:.1f}s")
    assert dominated, "a cell's mean gap exceeded its bound"
    assert in_time, f"took {took:.1f}s, budget 1200s"
    assert slope_ok, (
        f"fitted slope of the optimistic gap bound {bound_slope:.4f} "
        f"(stderr {bound_stderr:.4f}) does not reach -0.7: the bound's "
        f"coefficient times the mean empirical risk no longer decays at the "
        f"fast rate over this grid; see the sweep cells printed above"
    )


# --- 12: closed-form bound evaluators against frozen worked examples ---


def test_criterion_12_bound_evaluators():
    started = time.time()
    checks = [
        ("high-prob gap",
         high_probability_gap_bound(101, 100, 0.0, 1.0, math.exp(-2.0)),
         11.299685366837506),
        ("rrm stability", rrm_stability_bound(100, 50, 8.0, 0.1), 51.2),
        ("loss expectation", loss_expectation_bound(96, 48, 1.0, 1.0), 1.0),
        ("chernoff hits", chernoff_hit_bound(1000, 100, 50, 0.05),
         38.96016542191758),
        ("bernstein", bernstein_ustat_bound(1.0, 0.25, 0.05, 100, 50),
         0.4260498704818968),
        ("optimistic gap",
         optimistic_gap_bound(10.0, 1.0, 1.0, 100, 100, 1.0),
         0.11801481481481482),
    ]
    worst = max(abs(got - want) / abs(want) for _, got, want in checks)
    took, in_time = elapsed_ok(started, 1.0)
    ok = worst < 1e-6 and in_time
    report_line(12, "bound evaluators", ok,
                f"worst rel {worst:.3e} over {len(checks)} evaluators, {took:.2f}s")
    for name, got, want in checks:
        assert got == pytest.approx(want, rel=1e-6), name
    assert in_time, f"took {took:.2f}s, budget 1s"


# --- 13: byte-identical CSVs when an experiment command repeats a seed ---


def test_criterion_13_determinism(tmp_path):
    started = time.time()
    tiny = ["--d", "2", "--n-plus", "4", "--n-minus", "3"]
    grid = ["--n-grid", "4 6 8", "--trials-per-n", "2", "--population-m", "2000",
            "--d", "2"]
    commands = [
        ("gen", ["gen", "--seed", "5"] + tiny),
        ("sgd", ["sgd", "--seed", "7", "--T", "10"] + tiny),
        ("rrm", ["rrm", "--seed", "3", "--lam", "0.5"] + tiny),
        ("stability", ["stability", "--seed", "4", "--trainer", "rrm",
                       "--lam", "0.5", "--trials", "2", "--probe-size", "50"] + tiny),
        ("sweep", ["sweep", "--seed", "11", "--algorithm", "sgd"] + grid),
        ("excess", ["excess", "--seed", "2", "--algorithm", "rrm"] + grid),
        ("optimistic", ["optimistic", "--seed", "2"] + grid),
    ]
    mismatches = []
    for name, argv in commands:
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            assert main(argv + ["--outdir", str(out)]) == EXIT_OK, name
            dirs.append(out)
        csvs = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert csvs, f"{name} wrote no CSVs"
        for fname in csvs:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    took, in_time = elapsed_ok(started, 300.0)
    ok = not mismatches and in_time
    report_line(13, "determinism", ok,
                f"{len(commands)} commands run twice, mismatches: "
                f"{mismatches or 'none'}, {took:.1f}s")
    assert not mismatches, mismatches
    assert in_time, f"took {took:.1f}s, budget 300s"
