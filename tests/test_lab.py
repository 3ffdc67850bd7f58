import csv
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import linregress

from tripletlab import cli, lab, parallel, risk, stability
from tripletlab.core import ValidationError, write_records
from tripletlab.lab import (
    ExcessCell,
    ExcessReport,
    NonpositiveValue,
    OptimisticCell,
    OptimisticReport,
    SweepCell,
    SweepConfig,
    SweepReport,
    SweepRow,
    TooFewPoints,
    fit_loglog_slope,
    package_version,
    run_excess_risk_experiment,
    run_optimistic_experiment,
    run_rate_sweep,
    write_manifest,
)
from tripletlab.loss import LossConfig, regularity_constants
from tripletlab.optim import SolverFailure
from tripletlab.risk import (
    chunk_moments,
    draw_evaluation_sample,
    empirical_risk,
    sample_risk,
    sample_risks,
)
from tripletlab.synth import TaskConfig, gen_task, low_noise_task, task_sampler

TASK = TaskConfig(d=2, n_plus=4, n_minus=4, seed=0)
LOW_NOISE_TASK = TaskConfig(
    d=2, n_plus=4, n_minus=4, B=0.5, separation=0.8, noise_scale=0.15, seed=0
)


# --- slope fit ---


def test_fit_loglog_exact_power_law():
    pts = [(n, 3.0 * n**-0.75) for n in (8, 16, 32, 64, 128)]
    slope, intercept, stderr, r2 = fit_loglog_slope(pts)
    assert slope == pytest.approx(-0.75, rel=1e-12)
    assert intercept == pytest.approx(math.log(3.0), rel=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, rel=1e-12)


def test_fit_loglog_validation():
    with pytest.raises(TooFewPoints):
        fit_loglog_slope([(8, 1.0), (16, 0.5)])
    with pytest.raises(NonpositiveValue):
        fit_loglog_slope([(8, 1.0), (16, 0.5), (32, 0.0)])
    with pytest.raises(NonpositiveValue):
        fit_loglog_slope([(8, 1.0), (-16, 0.5), (32, 0.25)])
    # three points at one n fit no line
    with pytest.raises(TooFewPoints, match=r"2 distinct n .*\[8\.0, 8\.0, 8\.0\]"):
        fit_loglog_slope([(8, 1.0), (8, 0.5), (8, 0.25)])
    assert issubclass(TooFewPoints, ValidationError)


def linregress_fields(points):
    """(slope, intercept, stderr, rvalue^2) of scipy.stats.linregress on the
    logs, the fit fit_loglog_slope reproduces."""
    res = linregress(np.log([p[0] for p in points]), np.log([p[1] for p in points]))
    return float(res.slope), float(res.intercept), float(res.stderr), float(res.rvalue**2)


def test_fit_loglog_equals_scipy_linregress_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        size = int(rng.integers(3, 13))
        ns = np.sort(rng.choice(np.arange(4, 4096), size=size, replace=False))
        vals = np.exp(rng.normal(size=size) * rng.uniform(0.01, 3.0))
        pts = list(zip(ns.tolist(), vals.tolist()))
        got = fit_loglog_slope(pts)
        assert [v.hex() for v in got] == [v.hex() for v in linregress_fields(pts)], pts
    # exact power laws whose r rounds past -1 and past 1 before the clip
    for c, exponent in ((3.0, -0.75), (2.0, 0.5)):
        pts = [(n, c * n**exponent) for n in (8, 16, 32, 64, 128)]
        ssxm, ssxym, _, ssym = np.cov(*np.log(pts).T, bias=1).flat
        assert abs(ssxym / np.sqrt(ssxm * ssym)) > 1.0
        got = fit_loglog_slope(pts)
        assert [v.hex() for v in got] == [v.hex() for v in linregress_fields(pts)]
        assert got[2:] == (0.0, 1.0)
    # a constant series: slope 0, r undefined
    pts = [(8, 1.0), (16, 1.0), (32, 1.0)]
    slope, intercept, stderr, r2 = fit_loglog_slope(pts)
    assert (slope, intercept) == (0.0, 0.0) and math.isnan(stderr) and math.isnan(r2)
    assert [v.hex() for v in linregress_fields(pts)] == ["0x0.0p+0", "0x0.0p+0", "nan", "nan"]


# --- sweep config ---


def test_sweep_config_validation():
    good = dict(algorithm="sgd", n_grid=(4, 8, 16))
    SweepConfig(**good)
    with pytest.raises(ValidationError):
        SweepConfig(algorithm="adam", n_grid=(4, 8, 16))
    with pytest.raises(ValidationError):
        SweepConfig(algorithm="sgd", n_grid=(4, 8))
    with pytest.raises(ValidationError):
        SweepConfig(algorithm="sgd", n_grid=(2, 8, 16))
    with pytest.raises(ValidationError):
        SweepConfig(algorithm="sgd", n_grid=(4, 8, 8))
    with pytest.raises(ValidationError):
        SweepConfig(**good, trials_per_n=0)
    with pytest.raises(ValidationError):
        SweepConfig(**good, sigma_rule="fixed")
    with pytest.raises(ValidationError):
        SweepConfig(**good, sigma0=0.0)
    with pytest.raises(ValidationError):
        SweepConfig(**good, c=-1.0)
    with pytest.raises(ValidationError):
        SweepConfig(**good, zeta=-0.1)
    with pytest.raises(ValidationError):
        SweepConfig(**good, population_m=1)


def test_sweep_config_coerces_grid_to_ints():
    cfg = SweepConfig(algorithm="sgd", n_grid=[4.0, 8.0, 16.0])
    assert cfg.n_grid == (4, 8, 16)


# --- rate sweeps ---


def test_constant_sweep_has_zero_gaps():
    cfg = SweepConfig(
        algorithm="constant", n_grid=(4, 6, 8), trials_per_n=2, task=TASK,
        population_m=100, seed=1,
    )
    rep = run_rate_sweep(cfg)
    assert rep.algorithm == "constant"
    assert len(rep.rows) == 6
    # w = 0 scores every triplet at log 2 on both sides of the gap
    for row in rep.rows:
        assert row.emp.value == pytest.approx(math.log(2.0), rel=1e-15)
        assert row.pop.value == pytest.approx(math.log(2.0), rel=1e-15)
    assert max(rep.mean_abs_gap) <= 1e-14
    if all(g == 0.0 for g in rep.mean_abs_gap):
        assert math.isnan(rep.fit.slope)


def test_sgd_sweep_smoke():
    cfg = SweepConfig(
        algorithm="sgd", n_grid=(4, 6, 8), trials_per_n=2, task=TASK,
        population_m=300, seed=3,
    )
    rep = run_rate_sweep(cfg)
    assert isinstance(rep, SweepReport)
    assert rep.n_grid == (4, 6, 8)
    assert len(rep.rows) == 6
    for row in rep.rows:
        assert row.gap == row.pop.value - row.emp.value
        assert row.emp.n_terms == row.n * (row.n - 1) * row.n
    assert all(g >= 0.0 for g in rep.mean_abs_gap)


def test_rrm_sweep_deterministic():
    cfg = SweepConfig(
        algorithm="rrm", n_grid=(4, 6, 8), trials_per_n=2, task=TASK,
        population_m=200, sigma0=2.0, seed=5,
    )
    rep1 = run_rate_sweep(cfg)
    rep2 = run_rate_sweep(cfg)
    assert [r.emp.value for r in rep1.rows] == [r.emp.value for r in rep2.rows]
    assert [r.pop.value for r in rep1.rows] == [r.pop.value for r in rep2.rows]
    assert rep1.mean_abs_gap == rep2.mean_abs_gap


def test_rate_sweep_rejects_optimistic_rule(monkeypatch):
    cfg = SweepConfig(
        algorithm="rrm", n_grid=(4, 6, 8), sigma_rule="optimistic", task=LOW_NOISE_TASK,
        population_m=100,
    )
    calls = []
    for name in ("draw_evaluation_sample", "gen_task"):
        original = getattr(lab, name)
        monkeypatch.setattr(
            lab, name, lambda *args, name=name, f=original: calls.append(name) or f(*args)
        )
    # the excess split trains its cells under the same rule
    for run in (run_rate_sweep, run_excess_risk_experiment):
        with pytest.raises(ValidationError, match="inv_sqrt_n"):
            run(cfg)
    # refused before any population sample or training set is drawn
    assert calls == []


# --- excess risk over the reference minimizer ---


def excess_cfg(**overrides):
    base = dict(
        algorithm="rrm", n_grid=(4, 5, 6), trials_per_n=2, task=TASK, population_m=500, seed=11
    )
    return SweepConfig(**{**base, **overrides})


@pytest.mark.parametrize("algorithm", ["rrm", "sgd"])
def test_excess_rows_are_the_rate_sweeps(algorithm):
    cfg = excess_cfg(algorithm=algorithm)
    rep = run_excess_risk_experiment(cfg)
    assert isinstance(rep, ExcessReport)
    assert rep.rows == run_rate_sweep(cfg).rows


def test_excess_rows_telescope():
    # excess = estimation (the sweep's gap) + the rest, R_S(w_S) - R^(w*)
    rep = run_excess_risk_experiment(excess_cfg())
    assert len(rep.excess) == len(rep.rows) == 6
    for row, excess in zip(rep.rows, rep.excess):
        assert excess == row.pop.value - rep.reference.value
        assert excess == pytest.approx(
            row.gap + (row.emp.value - rep.reference.value), rel=1e-12, abs=1e-15
        )
    for cell in rep.cells:
        cell_excess = [e for row, e in zip(rep.rows, rep.excess) if row.n == cell.n]
        assert cell.mean_excess == float(np.mean(cell_excess))


def test_every_excess_is_nonnegative_and_the_reference_scored_as_the_trials():
    # w* minimizes the mean loss over the very sample every trial is scored on
    for algorithm in ("rrm", "sgd", "constant"):
        rep = run_excess_risk_experiment(excess_cfg(algorithm=algorithm, population_m=2000))
        assert min(rep.excess) >= -1e-12
        assert rep.reference.mode is risk.RiskMode.MONTE_CARLO_POPULATION
        assert rep.reference.n_terms == 2000
        assert 0.0 < rep.reference.value < min(row.pop.value for row in rep.rows)


def test_excess_reference_fits_the_runs_one_population_sample(monkeypatch):
    fitted = []
    original = lab.sample_minimizer
    monkeypatch.setattr(
        lab, "sample_minimizer", lambda *args: fitted.append(args) or original(*args)
    )
    cfg = excess_cfg(zeta=0.3)
    rep = run_excess_risk_experiment(cfg)
    ((sample, zeta),) = fitted
    assert zeta == 0.3 and not sample.flags.writeable
    sampler = task_sampler(replace(cfg.task, seed=rep.population_sample["seed"]))
    fresh = draw_evaluation_sample(sampler, cfg.population_m)
    assert np.array_equal(sample, fresh)
    assert rep.reference == sample_risk(rep.w_star, sample, LossConfig(0.3))
    assert rep.phase_seconds["reference_fit"] >= 0.0
    assert rep.population_sample["held"] is True


def test_excess_empirical_risks_are_exact_past_the_default_budget(monkeypatch):
    # with the default budget below n(n-1)n, an unraised budget would subsample
    monkeypatch.setattr(risk, "DEFAULT_TRIPLET_BUDGET", 10)
    modes = []

    def recording(*args, **kwargs):
        estimate = risk.empirical_risk(*args, **kwargs)
        modes.append(estimate.mode)
        return estimate

    monkeypatch.setattr(lab, "empirical_risk", recording)
    run_excess_risk_experiment(excess_cfg(trials_per_n=1))
    assert modes == [risk.RiskMode.EXACT_U_STATISTIC] * 3


def test_excess_without_a_reference_minimizer_raises_solver_failure():
    # 2 triplets cannot pin down p = 3 coordinates at d = 2
    with pytest.raises(SolverFailure, match="lam = 0"):
        run_excess_risk_experiment(excess_cfg(population_m=2))


def test_excess_fits_its_reference_before_any_trial(monkeypatch):
    fitted = []
    sweep_fit = lab._sweep_fit
    monkeypatch.setattr(lab, "_sweep_fit", lambda *args: fitted.append(args) or sweep_fit(*args))
    # m = 2 < p = 3 at d = 2: the reference fit fails, and no trial was fitted
    with pytest.raises(SolverFailure, match="lam = 0"):
        run_excess_risk_experiment(excess_cfg(population_m=2))
    assert fitted == []
    run_excess_risk_experiment(excess_cfg())
    assert len(fitted) == 3 * 2


# --- optimistic regime ---


def optimistic_cfg(**overrides):
    base = dict(
        algorithm="rrm",
        sigma_rule="optimistic",
        n_grid=(4, 6, 8),
        trials_per_n=2,
        task=LOW_NOISE_TASK,
        population_m=2000,
        seed=17,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_optimistic_experiment_structure():
    cfg = optimistic_cfg()
    rep = run_optimistic_experiment(cfg)
    assert isinstance(rep, OptimisticReport)
    alpha = regularity_constants(cfg.task.B).alpha
    assert rep.alpha == alpha
    assert tuple(c.n for c in rep.cells) == cfg.n_grid
    for c in rep.cells:
        # sigma is the regime floor, with its headroom, in every cell
        assert c.sigma == (8.0 * alpha / c.n) * (1.0 + 1e-9)
        assert c.sigma * c.n >= 8.0 * alpha
        assert c.lam == c.sigma / 2.0
        assert c.epsilon > 0.0
        assert c.bound > 0.0
        assert c.trials == 2
        assert c.dominated == (c.mean_gap <= c.bound)
    assert rep.all_dominated == all(c.dominated for c in rep.cells)
    assert len(rep.rows) == 6


def test_optimistic_experiment_deterministic():
    rep1 = run_optimistic_experiment(optimistic_cfg())
    rep2 = run_optimistic_experiment(optimistic_cfg())
    assert [c.mean_gap for c in rep1.cells] == [c.mean_gap for c in rep2.cells]
    assert rep1.rows == rep2.rows


def test_optimistic_slope_is_nan_when_fewer_than_3_cells_have_a_positive_gap(
    monkeypatch, tmp_path, capsys
):
    # a population risk of 0 scores below every empirical risk: every gap is negative
    monkeypatch.setattr(lab, "chunk_moments", _zero_sums)
    rep = run_optimistic_experiment(optimistic_cfg())
    assert all(c.mean_gap < 0.0 for c in rep.cells)
    fit = rep.fit
    assert all(math.isnan(v) for v in (fit.slope, fit.intercept, fit.slope_stderr, fit.r_squared))
    # a negative mean gap still counts for domination
    assert rep.all_dominated
    write_records(tmp_path / "cells.csv", OptimisticCell, rep.cells, trail=asdict(fit))
    with open(tmp_path / "cells.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert [row["dominated"] for row in cells] == ["1"] * len(rep.cells)
    assert [float(row["mean_gap"]) for row in cells] == [c.mean_gap for c in rep.cells]
    assert [row["slope"] for row in cells] == ["nan"] * len(rep.cells)
    # the command prints the NaN slope
    argv = ["optimistic", "--seed", "17", "--outdir", str(tmp_path / "cli"), "--d", "2",
            "--n-grid", "4 6 8", "--trials-per-n", "2", "--population-m", "2000"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "slope=nan, dominated in 3/3 cells" in capsys.readouterr().out


def test_optimistic_experiment_requires_rrm_and_rule():
    with pytest.raises(ValidationError):
        run_optimistic_experiment(optimistic_cfg(algorithm="sgd", sigma_rule="optimistic"))
    with pytest.raises(ValidationError):
        run_optimistic_experiment(optimistic_cfg(sigma_rule="inv_sqrt_n"))


def _zero_sums(w_arr, chunk, zeta):
    """chunk_moments with a loss sum of 0: a population risk of 0."""
    return (0.0, *chunk_moments(w_arr, chunk, zeta)[1:])


# --- one population sample per run ---


def _chunk_sizes(m):
    """Rows of each chunk of an m-triplet sample: SAMPLE_CHUNK each, the last
    one taking the rest, and a lone remaining row joining the last full one."""
    size = risk.SAMPLE_CHUNK
    full, rest = divmod(m, size)
    if rest == 1 and full:
        return [size] * (full - 1) + [size + 1]
    return [size] * full + ([rest] if rest else [])


def _shared_sample(cfg):
    """(seed, sample) of a sweep run's population sample, rebuilt here apart
    from the runner: task_sampler seeded by the first 64-bit word of
    SeedSequence(seed)'s own state draws chunk 0 (draw_evaluation_sample),
    and its c-th fork() draws chunk c."""
    seed = int(np.random.SeedSequence(cfg.seed).generate_state(1, np.uint64)[0])
    sampler = task_sampler(replace(cfg.task, seed=seed))
    chunks = [
        draw_evaluation_sample(sampler if c == 0 else sampler.fork(), rows)
        for c, rows in enumerate(_chunk_sizes(cfg.population_m))
    ]
    return seed, np.concatenate(chunks, axis=1)


def _trial_seeds(cfg):
    """(n, trial, task_seed, algo_seed) of every trial: the cells' spawned
    children of SeedSequence(seed), one per trial, in trial order."""
    root = np.random.SeedSequence(cfg.seed)
    out = []
    for n in cfg.n_grid:
        for trial in range(cfg.trials_per_n):
            seqs = root.spawn(1)[0].spawn(2)
            out.append((n, trial, *(int(s.generate_state(1, np.uint64)[0]) for s in seqs)))
    return out


def _check_sample_record(report, cfg, seed):
    assert report.population_sample["m"] == cfg.population_m
    assert report.population_sample["seed"] == seed
    assert report.population_sample["chunk_rows"] == risk.SAMPLE_CHUNK
    assert report.population_sample["chunks"] == len(_chunk_sizes(cfg.population_m))
    assert report.population_sample["shared_by_all_trials"] is True
    assert report.population_sample["trials"] == len(cfg.n_grid) * cfg.trials_per_n
    assert report.population_sample["held"] is False


def _scored_sample(monkeypatch, run, cfg):
    """(sample, chunks): the sample the fits of run(cfg) were scored on,
    checked to be one, and the chunks the chunk scorer saw, each scored by
    every fit. The sample is the chunks' copies, made as they were scored (a
    streamed chunk's buffer is reused), joined. On one CPU each chunk is
    scored by one job, and the chunk jobs run in chunk order."""
    chunks = []  # (chunk, copy, metrics scored on it)

    def record(w_arr, chunk, zeta):
        if not chunks or chunks[-1][0] is not chunk:
            chunks.append([chunk, chunk.copy(), 0])
        chunks[-1][2] += 1
        return chunk_moments(w_arr, chunk, zeta)

    monkeypatch.setattr(lab, "chunk_moments", record)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    run(cfg)
    assert [scored for _, _, scored in chunks] == [len(cfg.n_grid) * cfg.trials_per_n] * len(
        _chunk_sizes(cfg.population_m)
    )
    return np.concatenate([copy for _, copy, _ in chunks], axis=1), [c for c, _, _ in chunks]


@pytest.mark.parametrize(
    "m", [2, 3000, risk.SAMPLE_CHUNK, risk.SAMPLE_CHUNK + 1, 2 * risk.SAMPLE_CHUNK + 2]
)
def test_the_shared_sample_is_drawn_in_chunks_and_one_chunk_is_a_plain_draw(monkeypatch, m):
    cfg = SweepConfig(algorithm="constant", n_grid=(4, 5, 6), trials_per_n=1, task=TASK,
                      population_m=m, seed=33)
    sample, chunks = _scored_sample(monkeypatch, run_rate_sweep, cfg)
    assert not any(chunk.flags.writeable for chunk in chunks)
    seed, rebuilt = _shared_sample(cfg)
    assert np.array_equal(sample, rebuilt)
    if m <= risk.SAMPLE_CHUNK + 1:  # one chunk: draw_evaluation_sample's own sample
        plain = draw_evaluation_sample(task_sampler(replace(TASK, seed=seed)), m)
        assert np.array_equal(sample, plain)
    else:  # every chunk from a stream of its own
        first, second = sample[:, : risk.SAMPLE_CHUNK], sample[:, risk.SAMPLE_CHUNK :]
        assert not np.array_equal(first[:, :100], second[:, :100])


@pytest.mark.parametrize("algorithm", ["sgd", "rrm"])
def test_rate_sweep_rows_score_each_fit_on_the_one_shared_sample(monkeypatch, algorithm):
    fits = {}
    sweep_fit = lab._sweep_fit

    def record(cfg, n, task_seed, algo_seed):
        w, emp = sweep_fit(cfg, n, task_seed, algo_seed)
        fits[(n, task_seed, algo_seed)] = w
        return w, emp

    monkeypatch.setattr(lab, "_sweep_fit", record)
    for m in (3000, 70_000):  # one chunk, two chunks
        cfg = SweepConfig(
            algorithm=algorithm, n_grid=(4, 6, 8), trials_per_n=2, task=TASK,
            population_m=m, sigma0=2.0, seed=31,
        )
        report = run_rate_sweep(cfg)
        seed, sample = _shared_sample(cfg)
        _check_sample_record(report, cfg, seed)
        seeds = [(r.n, r.trial, r.task_seed, r.algo_seed) for r in report.rows]
        assert seeds == _trial_seeds(cfg)
        for row in report.rows:
            w = fits[(row.n, row.task_seed, row.algo_seed)]
            train, _ = gen_task(replace(TASK, n_plus=row.n, n_minus=row.n, seed=row.task_seed))
            assert row.emp == empirical_risk(w, train, LossConfig(0.0))
            assert row.pop == sample_risk(w, sample, LossConfig(0.0))
        # every trial's population risk differs: one sample, but a different w each
        assert len({row.pop.value for row in report.rows}) == len(report.rows)


def test_optimistic_rows_score_each_fit_on_the_one_shared_sample(monkeypatch):
    fits = {}
    rrm_train = lab.rrm_train

    def record(train, rrm_cfg):
        w, stats = rrm_train(train, rrm_cfg)
        fits[train.positive_features.tobytes()] = (w, rrm_cfg)
        return w, stats

    monkeypatch.setattr(lab, "rrm_train", record)
    for m in (3000, 70_000):  # one chunk, two chunks
        cfg = optimistic_cfg(trials_per_n=2, population_m=m)
        report = run_optimistic_experiment(cfg)
        seed, sample = _shared_sample(cfg)
        _check_sample_record(report, cfg, seed)
        seeds = _trial_seeds(cfg)
        assert [row[:3] for row in report.rows] == [(n, trial, a) for n, trial, a, _ in seeds]
        for n, _, task_seed, emp, pop, gap in report.rows:
            task = replace(cfg.task, n_plus=n, n_minus=n, seed=task_seed)
            train, _, _ = low_noise_task(task)
            w, rrm_cfg = fits[train.positive_features.tobytes()]
            assert emp == empirical_risk(w, train, LossConfig(0.0), budget=rrm_cfg.budget).value
            assert pop == sample_risk(w, sample, LossConfig(0.0)).value
            assert gap == pop - emp


# --- trials on a thread pool ---


def _runner_case(name):
    if name == "optimistic":
        return run_optimistic_experiment, optimistic_cfg(trials_per_n=3, population_m=70_000)
    cfg = SweepConfig(
        algorithm=name, n_grid=(4, 6, 8), trials_per_n=3, task=TASK,
        population_m=70_000, sigma0=2.0, seed=9,
    )
    return run_rate_sweep, cfg


@pytest.mark.parametrize("name", ["sgd", "rrm", "optimistic"])
def test_runners_give_the_same_report_on_any_worker_count(monkeypatch, name):
    run, cfg = _runner_case(name)
    reports = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out shared state
    try:
        for cpus in (1, 2, 8):  # 8: more threads than cores
            monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
            report = run(cfg)
            assert report.workers == min(cpus, 9 + 2)  # 9 fits, then 2 chunks' jobs
            reports[cpus] = repr(report)
    finally:
        sys.setswitchinterval(interval)
    assert reports[2] == reports[1]
    assert reports[8] == reports[1]


def _watch_draws_and_fits(monkeypatch, name, on_draw, on_fit):
    """Call on_draw(c, rows) before the c-th chunk draw of a run's population
    sample to start, and on_fit(i, n) before the i-th fit to start, counted
    from 0, n its training set's pool size. The sweep's SgdTrainer reaches
    sgd_train through the stability module."""
    draw = lab.draw_evaluation_sample
    owner, attr = (lab, "rrm_train") if name == "optimistic" else (stability, "sgd_train")
    fit = getattr(owner, attr)
    draws, fits = itertools.count(), itertools.count()

    def drawing(sampler, rows, out):
        on_draw(next(draws), rows)
        return draw(sampler, rows, out)

    def fitting(train, fit_cfg):
        on_fit(next(fits), train.n_plus)
        return fit(train, fit_cfg)

    monkeypatch.setattr(lab, "draw_evaluation_sample", drawing)
    monkeypatch.setattr(owner, attr, fitting)


@pytest.mark.parametrize("name", ["sgd", "optimistic"])
def test_the_population_draw_runs_beside_the_first_fit(monkeypatch, name):
    run, cfg = _runner_case(name)
    want = repr(run(cfg))
    # the first chunk draw and the first fit, which is a largest one, each
    # wait for the other, so chunk draws made only after that fit break the
    # barrier at its timeout
    meet = threading.Barrier(2, timeout=30)
    _watch_draws_and_fits(
        monkeypatch, name, lambda c, rows: c == 0 and meet.wait(),
        lambda i, n: i == 0 and meet.wait(),
    )
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    assert repr(run(cfg)) == want


@pytest.mark.parametrize("name", ["sgd", "optimistic"])
def test_on_one_cpu_the_fits_run_largest_first_and_then_the_chunk_draws(monkeypatch, name):
    run, cfg = _runner_case(name)
    events = []
    _watch_draws_and_fits(
        monkeypatch, name, lambda c, rows: events.append(("draw", rows)),
        lambda i, n: events.append(("fit", n)),
    )
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    run(cfg)
    fits = [("fit", n) for n in sorted(cfg.n_grid, reverse=True) for _ in range(3)]
    assert events == fits + [("draw", risk.SAMPLE_CHUNK), ("draw", 70_000 - risk.SAMPLE_CHUNK)]


@pytest.mark.parametrize("name", ["sgd", "optimistic"])
def test_runners_time_their_phases_outside_the_report_repr(monkeypatch, name):
    run, cfg = _runner_case(name)
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        began = time.perf_counter()
        report = run(cfg)
        elapsed = time.perf_counter() - began
        times = report.phase_seconds
        busy = {"population_draw_busy_sum", "fit_wait_sum", "scoring_busy_sum"}
        assert set(times) == {"fits"} | busy
        assert all(t >= 0.0 for t in times.values())
        assert times["fits"] <= elapsed
        # the chunk jobs run inside the run, on at most cpus threads at once
        assert sum(times[key] for key in busy) <= cpus * elapsed
        if cpus == 1:  # the chunk jobs run after the last fit: none waits
            assert times["fit_wait_sum"] < 0.1
        assert "phase_seconds" not in repr(report)


FAILING_SWEEP = SweepConfig(
    algorithm="sgd", n_grid=(4, 6, 8), trials_per_n=4, task=TASK, population_m=200, seed=21
)


def _failing_fits(monkeypatch, failing, pause):
    """Make the SGD fits whose seed is in `failing` raise after failing[seed]
    seconds, and the others take `pause` seconds; returns the list of seeds
    fitted so far. The sweep's SgdTrainer reaches sgd_train through the
    stability module."""
    fitted = []
    sgd_train = stability.sgd_train

    def fit(train, sgd_cfg):
        fitted.append(sgd_cfg.seed)
        time.sleep(failing.get(sgd_cfg.seed, pause))
        if sgd_cfg.seed in failing:
            raise FloatingPointError(f"fit {sgd_cfg.seed} diverged")
        return sgd_train(train, sgd_cfg)

    monkeypatch.setattr(stability, "sgd_train", fit)
    return fitted


def test_the_first_failing_trial_in_job_order_raises(monkeypatch):
    seeds = [row.algo_seed for row in run_rate_sweep(FAILING_SWEEP).rows]
    # the fits are jobs largest n first, so trial 5 (n = 6) comes before
    # trial 1 (n = 4); trial 5 fails late and trial 1 at once: on two workers
    # trial 1 fails first
    _failing_fits(monkeypatch, {seeds[5]: 0.2, seeds[1]: 0.0}, pause=0.0)
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        with pytest.raises(FloatingPointError, match=f"^fit {seeds[5]} diverged$"):
            run_rate_sweep(FAILING_SWEEP)


def test_a_failing_trial_cancels_the_trials_not_yet_started(monkeypatch):
    seeds = [row.algo_seed for row in run_rate_sweep(FAILING_SWEEP).rows]
    fitted = _failing_fits(monkeypatch, {seeds[0]: 0.0}, pause=0.05)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(FloatingPointError, match=f"^fit {seeds[0]} diverged$"):
        run_rate_sweep(FAILING_SWEEP)
    assert seeds[0] in fitted
    assert len(fitted) < len(seeds)


# --- the streamed population sample ---


@pytest.mark.parametrize("name", ["sgd", "optimistic"])
def test_streamed_rows_equal_the_held_sample_scored_by_sample_risks(monkeypatch, name):
    run, cfg = _runner_case(name)
    cfg = replace(cfg, population_m=3 * risk.SAMPLE_CHUNK + 5)  # four chunks
    fits = {}
    owner = "_optimistic_fit" if name == "optimistic" else "_sweep_fit"
    fit = getattr(lab, owner)

    def record(cfg, n, task_seed, algo_seed):
        fits[(n, task_seed, algo_seed)] = fit(cfg, n, task_seed, algo_seed)
        return fits[(n, task_seed, algo_seed)]

    def scoring(w_arr, chunk, zeta):
        assert not chunk.flags.writeable
        return chunk_moments(w_arr, chunk, zeta)

    monkeypatch.setattr(lab, owner, record)
    monkeypatch.setattr(lab, "chunk_moments", scoring)
    _, sample = _shared_sample(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out a reused buffer
    try:
        for cpus in (1, 2, 3, 8):  # 2 and 3: later chunks are drawn into freed buffers
            monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
            report = run(cfg)
            rows = report.trial_rows if name == "optimistic" else report.rows
            ws = [fits[(row.n, row.task_seed, row.algo_seed)][0] for row in rows]
            pops, _ = sample_risks(ws, sample, LossConfig(cfg.zeta))
            assert [row.pop for row in rows] == pops
    finally:
        sys.setswitchinterval(interval)


def test_a_one_chunk_sample_is_scored_on_every_cpu(monkeypatch):
    run, cfg = _runner_case("sgd")
    cfg = replace(cfg, population_m=3000)  # one chunk
    want = repr(run(cfg))
    # on two CPUs the chunk's metrics are split over two jobs, which score
    # at once: each thread's first score waits for the other's, so a chunk
    # scored by one job breaks the barrier at its timeout
    meet = threading.Barrier(2, timeout=30)
    met = set()

    def scoring(w_arr, chunk, zeta):
        assert not chunk.flags.writeable
        if threading.get_ident() not in met:
            met.add(threading.get_ident())
            meet.wait()
        return chunk_moments(w_arr, chunk, zeta)

    monkeypatch.setattr(lab, "chunk_moments", scoring)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    assert repr(run(cfg)) == want
    assert len(met) == 2


def test_a_fit_failing_while_a_chunk_job_waits_raises_its_own_error(monkeypatch):
    seeds = [row.algo_seed for row in run_rate_sweep(FAILING_SWEEP).rows]
    last = seeds[3]  # trial 3 (n = 4) is the last fit in job order
    waiting = threading.Event()

    class WatchedEvent(threading.Event):
        """An event that tells when a thread starts to wait on it unset."""

        def wait(self, timeout=None):
            if not self.is_set():
                waiting.set()
            return super().wait(timeout)

    sgd_train = stability.sgd_train

    def fit(train, sgd_cfg):
        if sgd_cfg.seed == last:  # fail once the other thread waits in a chunk job
            assert waiting.wait(timeout=30)
            raise FloatingPointError(f"fit {last} diverged")
        return sgd_train(train, sgd_cfg)

    monkeypatch.setattr(lab, "threading", SimpleNamespace(Lock=threading.Lock, Event=WatchedEvent))
    monkeypatch.setattr(stability, "sgd_train", fit)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    raised = []

    def sweep():
        try:
            run_rate_sweep(FAILING_SWEEP)
        except Exception as exc:
            raised.append(exc)

    runner = threading.Thread(target=sweep, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "a chunk job still waits for the failed fit"
    assert waiting.is_set()
    assert [type(exc) for exc in raised] == [FloatingPointError]
    assert str(raised[0]) == f"fit {last} diverged"


def test_a_streamed_run_holds_no_population_sample(monkeypatch):
    m = 4 * risk.SAMPLE_CHUNK
    cfg = SweepConfig(algorithm="constant", n_grid=(4, 5, 6), trials_per_n=1, task=TASK,
                      population_m=m, seed=5)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    tracemalloc.start()
    try:
        run_rate_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = 2 * m * TASK.d * 8
    assert peak < held / 2


# --- persistence ---


def test_write_sweep_csvs(tmp_path):
    cfg = SweepConfig(
        algorithm="sgd", n_grid=(4, 6, 8), trials_per_n=2, task=TASK,
        population_m=200, seed=7,
    )
    rep = run_rate_sweep(cfg)
    rows_path = tmp_path / "rows.csv"
    summary_path = tmp_path / "summary.csv"
    write_records(rows_path, SweepRow, rep.rows, lead={"algorithm": rep.algorithm})
    write_records(summary_path, SweepCell, rep.cells, trail=asdict(rep.fit))
    with open(rows_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:6] == ["algorithm", "n", "trial", "task_seed", "algo_seed", "emp_mode"]
    assert len(rows) == 1 + len(rep.rows)
    assert float(rows[1][rows[0].index("gap")]) == rep.rows[0].gap
    with open(summary_path, newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["n", "mean_abs_gap", "slope", "slope_stderr", "intercept", "r_squared"]
    assert len(srows) == 1 + len(rep.n_grid)
    assert float(srows[1][1]) == rep.mean_abs_gap[0]


def test_write_excess_csv(tmp_path):
    cfg = SweepConfig(
        algorithm="constant", n_grid=(4, 5, 6), trials_per_n=1, task=TASK,
        population_m=300, seed=13,
    )
    rep = run_excess_risk_experiment(cfg)
    path = tmp_path / "excess_cells.csv"
    write_records(path, ExcessCell, rep.cells, trail={"reference_risk": rep.reference.value})
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "mean_excess", "reference_risk"]
    assert len(rows) == 1 + len(rep.n_grid)
    assert float(rows[1][1]) == rep.mean_excess[0] == rep.excess[0]
    assert float(rows[1][2]) == rep.reference.value


def test_write_optimistic_csvs(tmp_path):
    rep = run_optimistic_experiment(optimistic_cfg())
    cells_path = tmp_path / "cells.csv"
    rows_path = tmp_path / "rows.csv"
    write_records(cells_path, OptimisticCell, rep.cells, trail=asdict(rep.fit))
    write_records(rows_path, SweepRow, rep.trial_rows, lead={"algorithm": "rrm"})
    with open(cells_path, newline="") as fh:
        cells = list(csv.reader(fh))
    assert cells[0] == [
        "n", "sigma", "lam", "epsilon", "alpha",
        "mean_gap", "mean_emp", "bound", "dominated", "trials",
        "slope", "slope_stderr", "intercept", "r_squared",
    ]
    assert len(cells) == 1 + len(rep.cells)
    assert float(cells[1][5]) == rep.cells[0].mean_gap
    assert cells[1][8] in ("0", "1")
    with open(rows_path, newline="") as fh:
        rrows = list(csv.DictReader(fh))
    assert list(rrows[0])[:6] == ["algorithm", "n", "trial", "task_seed", "algo_seed", "emp_mode"]
    assert len(rrows) == len(rep.rows)
    assert float(rrows[0]["pop_std_error"]) == rep.trial_rows[0].pop.std_error > 0.0
    assert [float(row["gap"]) for row in rrows] == [row[5] for row in rep.rows]


def test_write_manifest(tmp_path):
    cfg = SweepConfig(algorithm="sgd", n_grid=(4, 6, 8), task=TASK)
    path = tmp_path / "manifest.json"
    write_manifest(path, "sweep", cfg, started=0.0)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["command"] == "sweep"
    assert payload["config"]["algorithm"] == "sgd"
    assert payload["config"]["task"]["d"] == 2
    assert payload["version"] == package_version()
    assert payload["elapsed_seconds"] > 0.0


def test_package_version_is_string():
    v = package_version()
    assert isinstance(v, str) and len(v) > 0
