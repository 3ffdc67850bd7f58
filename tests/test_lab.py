import csv
import json
import math

import numpy as np
import pytest

from tripletlab import lab, risk
from tripletlab.core import ValidationError
from tripletlab.lab import (
    ExcessReport,
    NonpositiveValue,
    OptimisticReport,
    SweepConfig,
    SweepReport,
    TooFewPoints,
    fit_loglog_slope,
    package_version,
    run_excess_risk_experiment,
    run_optimistic_experiment,
    run_rate_sweep,
    write_excess_csv,
    write_manifest,
    write_optimistic_cells_csv,
    write_optimistic_rows_csv,
    write_sweep_rows_csv,
    write_sweep_summary_csv,
)
from tripletlab.loss import regularity_constants
from tripletlab.synth import TaskConfig

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
        assert math.isnan(rep.slope)


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


def test_rate_sweep_rejects_optimistic_rule():
    cfg = SweepConfig(
        algorithm="rrm", n_grid=(4, 6, 8), sigma_rule="optimistic", task=LOW_NOISE_TASK,
        population_m=100,
    )
    with pytest.raises(ValidationError):
        run_rate_sweep(cfg)


# --- excess-risk decomposition ---


def test_excess_rows_telescope():
    cfg = SweepConfig(
        algorithm="rrm", n_grid=(4, 5, 6), trials_per_n=1, task=TASK,
        population_m=500, seed=11,
    )
    rep = run_excess_risk_experiment(cfg)
    assert isinstance(rep, ExcessReport)
    assert len(rep.rows) == 3
    for r in rep.rows:
        assert r.estimation + r.optimization + r.deviation == pytest.approx(
            r.total, rel=1e-12, abs=1e-12
        )
        assert r.total == r.pop_model - r.pop_proxy
        assert r.estimation == r.pop_model - r.emp_model
        assert r.bernstein_bound > 0.0
        for v in (r.emp_model, r.pop_model, r.emp_proxy, r.pop_proxy):
            assert math.isfinite(v)


def test_excess_empirical_risks_are_exact_past_the_default_budget(monkeypatch):
    # with the default budget below n(n-1)n, an unraised budget would subsample
    monkeypatch.setattr(risk, "DEFAULT_TRIPLET_BUDGET", 10)
    modes = []

    def recording(*args, **kwargs):
        estimate = risk.empirical_risk(*args, **kwargs)
        modes.append(estimate.mode)
        return estimate

    monkeypatch.setattr(lab, "empirical_risk", recording)
    cfg = SweepConfig(
        algorithm="rrm", n_grid=(4, 5, 6), trials_per_n=1, task=TASK,
        population_m=500, seed=11,
    )
    run_excess_risk_experiment(cfg)
    assert modes == [risk.RiskMode.EXACT_U_STATISTIC] * 6


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
        assert c.sigma * c.n >= 8.0 * alpha * (1.0 - 1e-12)
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


def test_optimistic_experiment_requires_rrm_and_rule():
    with pytest.raises(ValidationError):
        run_optimistic_experiment(optimistic_cfg(algorithm="sgd", sigma_rule="optimistic"))
    with pytest.raises(ValidationError):
        run_optimistic_experiment(optimistic_cfg(sigma_rule="inv_sqrt_n"))


# --- persistence ---


def test_write_sweep_csvs(tmp_path):
    cfg = SweepConfig(
        algorithm="sgd", n_grid=(4, 6, 8), trials_per_n=2, task=TASK,
        population_m=200, seed=7,
    )
    rep = run_rate_sweep(cfg)
    rows_path = tmp_path / "rows.csv"
    summary_path = tmp_path / "summary.csv"
    write_sweep_rows_csv(rep, rows_path)
    write_sweep_summary_csv(rep, summary_path)
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
    path = tmp_path / "excess.csv"
    write_excess_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "algorithm"
    assert "bernstein_bound" in rows[0]
    assert len(rows) == 1 + len(rep.rows)
    got = float(rows[1][rows[0].index("deviation")])
    assert got == rep.rows[0].deviation


def test_write_optimistic_csvs(tmp_path):
    rep = run_optimistic_experiment(optimistic_cfg())
    cells_path = tmp_path / "cells.csv"
    rows_path = tmp_path / "rows.csv"
    write_optimistic_cells_csv(rep, cells_path)
    write_optimistic_rows_csv(rep, rows_path)
    with open(cells_path, newline="") as fh:
        cells = list(csv.reader(fh))
    assert cells[0] == [
        "n", "sigma", "lam", "epsilon", "alpha",
        "mean_gap", "mean_emp", "bound", "dominated", "trials",
    ]
    assert len(cells) == 1 + len(rep.cells)
    assert float(cells[1][5]) == rep.cells[0].mean_gap
    assert cells[1][8] in ("0", "1")
    with open(rows_path, newline="") as fh:
        rrows = list(csv.reader(fh))
    assert rrows[0] == ["n", "trial", "task_seed", "emp_value", "pop_value", "gap"]
    assert len(rrows) == 1 + len(rep.rows)


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
