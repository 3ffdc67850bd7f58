"""Experiment runners: learning-curve sweeps, the excess-risk decomposition,
and the optimistic (low-noise) regime, with CSV/JSON persistence.

Every runner derives all cell-level seeds from one root seed through numpy
SeedSequence spawning, in a fixed loop order, so a rerun with the same config
reproduces every CSV byte for byte. Summary JSON manifests carry wall time
and are the one intentionally non-reproducible output.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.stats import linregress

from .core import ValidationError
from .loss import LossConfig, MetricParams, regularity_constants, triplet_losses_rowwise
from .optim import RrmConfig, SgdConfig, rrm_train, sgd_train
from .risk import (
    DEFAULT_TRIPLET_BUDGET,
    RiskEstimate,
    bernstein_ustat_bound,
    empirical_risk,
    population_risk,
)
from .stability import RegimeViolation, optimistic_epsilon, optimistic_gap_bound
from .synth import TaskConfig, gen_task, low_noise_task


class NonpositiveValue(ValidationError):
    pass


class TooFewPoints(ValidationError):
    pass


def fit_loglog_slope(points):
    """OLS fit of log(value) on log(n); returns (slope, intercept, stderr, r_squared).

    Exact power laws come back with their exponent (up to float rounding) and
    r_squared = 1.
    """
    pts = list(points)
    if len(pts) < 3:
        raise TooFewPoints(f"need at least 3 points for a slope fit, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=np.float64)
    vals = np.array([p[1] for p in pts], dtype=np.float64)
    if np.any(ns <= 0) or np.any(vals <= 0):
        raise NonpositiveValue("log-log fit needs strictly positive n and values")
    res = linregress(np.log(ns), np.log(vals))
    return float(res.slope), float(res.intercept), float(res.stderr), float(res.rvalue**2)


@dataclass(frozen=True)
class SweepConfig:
    """One learning-curve experiment over n_plus = n_minus = n.

    algorithm: "sgd" (T = n steps, eta = c/sqrt(T)), "rrm" (lam = sigma/2 with
    sigma from sigma_rule), or "constant" (w = 0 null model, for tests).
    task is a shape template; its pool sizes and seed are overridden per cell.
    c = None picks the largest safe SGD step factor 2/alpha for task.B.
    """

    algorithm: str
    n_grid: tuple
    trials_per_n: int = 20
    sigma_rule: str = "inv_sqrt_n"
    sigma0: float = 1.0
    c: float | None = None
    task: TaskConfig = TaskConfig(d=3, n_plus=4, n_minus=4)
    zeta: float = 0.0
    population_m: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("sgd", "rrm", "constant"):
            raise ValidationError(f"algorithm must be sgd, rrm or constant, got {self.algorithm!r}")
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if len(grid) < 3:
            raise ValidationError(f"n_grid needs at least 3 sizes, got {len(grid)}")
        if any(n < 4 for n in grid):
            raise ValidationError(f"every n must be >= 4, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError(f"n_grid must be strictly increasing, got {grid}")
        if self.trials_per_n < 1:
            raise ValidationError(f"trials_per_n must be >= 1, got {self.trials_per_n}")
        if self.sigma_rule not in ("inv_sqrt_n", "optimistic"):
            raise ValidationError(
                f"sigma_rule must be inv_sqrt_n or optimistic, got {self.sigma_rule!r}"
            )
        if not (self.sigma0 > 0):
            raise ValidationError(f"sigma0 must be positive, got {self.sigma0}")
        if self.c is not None and not (self.c > 0):
            raise ValidationError(f"c must be positive when given, got {self.c}")
        if self.zeta < 0:
            raise ValidationError(f"zeta must be >= 0, got {self.zeta}")
        if self.population_m < 2:
            raise ValidationError(f"population_m must be >= 2, got {self.population_m}")


@dataclass(frozen=True)
class SweepRow:
    n: int
    trial: int
    task_seed: int
    algo_seed: int
    emp: RiskEstimate
    pop: RiskEstimate

    @property
    def gap(self) -> float:
        return self.pop.value - self.emp.value


@dataclass(frozen=True)
class SweepReport:
    algorithm: str
    rows: tuple
    n_grid: tuple
    mean_abs_gap: tuple
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float


def _cell_seeds(root: np.random.SeedSequence):
    cell_a, cell_b = root.spawn(1)[0].spawn(2)
    return (
        int(cell_a.generate_state(1, np.uint64)[0]),
        int(cell_b.generate_state(1, np.uint64)[0]),
    )


def _sgd_c(cfg: SweepConfig) -> float:
    if cfg.c is not None:
        return cfg.c
    return regularity_constants(cfg.task.B).eta_max


def _train_cell(cfg: SweepConfig, n: int, task_seed: int, algo_seed: int):
    task = replace(cfg.task, n_plus=n, n_minus=n, seed=task_seed)
    train, sampler = gen_task(task)
    if cfg.algorithm == "sgd":
        w, _ = sgd_train(train, SgdConfig(T=n, c=_sgd_c(cfg), seed=algo_seed, zeta=cfg.zeta))
    elif cfg.algorithm == "rrm":
        if cfg.sigma_rule != "inv_sqrt_n":
            raise ValidationError(
                "rate sweeps support sigma_rule='inv_sqrt_n' only; "
                "use run_optimistic_experiment for the optimistic schedule"
            )
        sigma = cfg.sigma0 / np.sqrt(n)
        budget = max(DEFAULT_TRIPLET_BUDGET, n * (n - 1) * n)
        w, _ = rrm_train(
            train, RrmConfig(lam=sigma / 2.0, zeta=cfg.zeta, budget=budget)
        )
    else:
        w = MetricParams.zeros(task.d)
    return w, train, sampler


def run_rate_sweep(cfg: SweepConfig) -> SweepReport:
    """Generalization gap vs n, with a log-log slope fit on the mean |gap|."""
    loss_cfg = LossConfig(cfg.zeta)
    root = np.random.SeedSequence(int(cfg.seed))
    rows = []
    mean_abs = []
    for n in cfg.n_grid:
        gaps = []
        for trial in range(cfg.trials_per_n):
            task_seed, algo_seed = _cell_seeds(root)
            w, train, sampler = _train_cell(cfg, n, task_seed, algo_seed)
            pop = population_risk(w, sampler, cfg.population_m, loss_cfg)
            emp = empirical_risk(
                w, train, loss_cfg, budget=max(DEFAULT_TRIPLET_BUDGET, n * (n - 1) * n)
            )
            rows.append(SweepRow(n, trial, task_seed, algo_seed, emp, pop))
            gaps.append(pop.value - emp.value)
        mean_abs.append(float(np.mean(np.abs(gaps))))
    # The zero trainer produces exactly zero gaps; those cells cannot enter a
    # log-log fit.
    fit_points = [(n, v) for n, v in zip(cfg.n_grid, mean_abs) if v > 0]
    if len(fit_points) >= 3:
        slope, intercept, stderr, r2 = fit_loglog_slope(fit_points)
    else:
        slope = intercept = stderr = r2 = float("nan")
    return SweepReport(
        algorithm=cfg.algorithm,
        rows=tuple(rows),
        n_grid=cfg.n_grid,
        mean_abs_gap=tuple(mean_abs),
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
        r_squared=r2,
    )


def write_sweep_rows_csv(report: SweepReport, path) -> None:
    header = [
        "algorithm",
        "n",
        "trial",
        "task_seed",
        "algo_seed",
        "emp_mode",
        "emp_value",
        "emp_std_error",
        "emp_n_terms",
        "pop_mode",
        "pop_value",
        "pop_std_error",
        "pop_n_terms",
        "gap",
        "abs_gap",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in report.rows:
            writer.writerow(
                [
                    report.algorithm,
                    row.n,
                    row.trial,
                    row.task_seed,
                    row.algo_seed,
                    row.emp.mode.value,
                    repr(float(row.emp.value)),
                    repr(float(row.emp.std_error)),
                    row.emp.n_terms,
                    row.pop.mode.value,
                    repr(float(row.pop.value)),
                    repr(float(row.pop.std_error)),
                    row.pop.n_terms,
                    repr(float(row.gap)),
                    repr(abs(float(row.gap))),
                ]
            )


def write_sweep_summary_csv(report: SweepReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_abs_gap", "slope", "slope_stderr", "intercept", "r_squared"])
        for n, g in zip(report.n_grid, report.mean_abs_gap):
            writer.writerow(
                [
                    n,
                    repr(float(g)),
                    repr(float(report.slope)),
                    repr(float(report.slope_stderr)),
                    repr(float(report.intercept)),
                    repr(float(report.r_squared)),
                ]
            )


@dataclass(frozen=True)
class ExcessRow:
    """Three-way split of R(w_model) - R(w_proxy) for one cell.

    estimation = R(w_model) - R_S(w_model); optimization = R_S(w_model) -
    R_S(w_proxy); deviation = R_S(w_proxy) - R(w_proxy); the three telescope
    to the total by construction. w_proxy stands in for the population-risk
    minimizer: the ridge solution on a fresh dataset 10x the size (a labeled
    proxy, not the unobservable true minimizer). bernstein_bound is the
    deviation-term concentration bound at delta = 0.1 with b and tau
    estimated from the population sample.
    """

    n: int
    trial: int
    task_seed: int
    algo_seed: int
    estimation: float
    optimization: float
    deviation: float
    total: float
    bernstein_bound: float
    emp_model: float
    pop_model: float
    emp_proxy: float
    pop_proxy: float


@dataclass(frozen=True)
class ExcessReport:
    algorithm: str
    rows: tuple


def run_excess_risk_experiment(cfg: SweepConfig) -> ExcessReport:
    """Estimation / optimization / deviation split against a 10x-data proxy.

    The proxy solve is a ridge minimizer at the sigma rule evaluated at 10 n,
    so its exact-risk budget grows with n: keep the grid modest (the proxy
    training set has 10 n samples per pool).
    """
    loss_cfg = LossConfig(cfg.zeta)
    root = np.random.SeedSequence(int(cfg.seed))
    rows = []
    for n in cfg.n_grid:
        for trial in range(cfg.trials_per_n):
            task_seed, algo_seed = _cell_seeds(root)
            w_model, train, sampler = _train_cell(cfg, n, task_seed, algo_seed)
            big = 10 * n
            proxy_set = sampler.fork().draw_dataset(big, big)
            sigma_big = cfg.sigma0 / np.sqrt(big)
            proxy_budget = max(DEFAULT_TRIPLET_BUDGET, big * (big - 1) * big)
            w_proxy, _ = rrm_train(
                proxy_set,
                RrmConfig(lam=sigma_big / 2.0, zeta=cfg.zeta, budget=proxy_budget),
            )
            pop_model = population_risk(w_model, sampler, cfg.population_m, loss_cfg)
            pop_proxy = population_risk(w_proxy, sampler, cfg.population_m, loss_cfg)
            budget = max(DEFAULT_TRIPLET_BUDGET, n * (n - 1) * n)
            emp_model = empirical_risk(w_model, train, loss_cfg, budget=budget)
            emp_proxy = empirical_risk(w_proxy, train, loss_cfg, budget=budget)
            estimation = pop_model.value - emp_model.value
            optimization = emp_model.value - emp_proxy.value
            deviation = emp_proxy.value - pop_proxy.value
            xa, xp, xn = sampler.draw(cfg.population_m)
            probe_losses = triplet_losses_rowwise(w_proxy.w, xa, xp, xn, cfg.zeta)
            b_hat = float(probe_losses.max())
            tau_hat = float(probe_losses.var(ddof=1))
            bound = bernstein_ustat_bound(b_hat, tau_hat, 0.1, n, n)
            rows.append(
                ExcessRow(
                    n=n,
                    trial=trial,
                    task_seed=task_seed,
                    algo_seed=algo_seed,
                    estimation=estimation,
                    optimization=optimization,
                    deviation=deviation,
                    total=pop_model.value - pop_proxy.value,
                    bernstein_bound=bound,
                    emp_model=emp_model.value,
                    pop_model=pop_model.value,
                    emp_proxy=emp_proxy.value,
                    pop_proxy=pop_proxy.value,
                )
            )
    return ExcessReport(algorithm=cfg.algorithm, rows=tuple(rows))


def write_excess_csv(report: ExcessReport, path) -> None:
    header = [
        "algorithm",
        "n",
        "trial",
        "task_seed",
        "algo_seed",
        "estimation",
        "optimization",
        "deviation",
        "total",
        "bernstein_bound",
        "emp_model",
        "pop_model",
        "emp_proxy",
        "pop_proxy",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in report.rows:
            writer.writerow(
                [report.algorithm, r.n, r.trial, r.task_seed, r.algo_seed]
                + [
                    repr(float(v))
                    for v in (
                        r.estimation,
                        r.optimization,
                        r.deviation,
                        r.total,
                        r.bernstein_bound,
                        r.emp_model,
                        r.pop_model,
                        r.emp_proxy,
                        r.pop_proxy,
                    )
                ]
            )


@dataclass(frozen=True)
class OptimisticCell:
    n: int
    sigma: float
    lam: float
    epsilon: float
    mean_gap: float
    mean_emp: float
    bound: float
    dominated: bool
    trials: int


@dataclass(frozen=True)
class OptimisticReport:
    cells: tuple
    rows: tuple  # (n, trial, task_seed, emp, pop, gap)
    alpha: float
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float

    @property
    def all_dominated(self) -> bool:
        return all(c.dominated for c in self.cells)


def _optimistic_sigmas(cfg: SweepConfig, alpha: float):
    """Per-n sigma: the low-noise schedule n^(-3/4) sqrt(R(w_ref)) / ||w_ref||,
    floored at the regime boundary 8 alpha / n (with a hair of headroom so the
    product sigma * n clears 8 alpha after rounding)."""
    probe_task = replace(cfg.task, n_plus=4, n_minus=4, seed=int(cfg.seed))
    _, sampler, w_ref = low_noise_task(probe_task)
    ref_risk = population_risk(w_ref, sampler, cfg.population_m, LossConfig(cfg.zeta))
    w_ref_norm = w_ref.norm()
    sigmas = []
    for n in cfg.n_grid:
        schedule = float(n) ** (-0.75) * np.sqrt(max(ref_risk.value, 0.0)) / w_ref_norm
        floor = (8.0 * alpha / n) * (1.0 + 1e-9)
        sigmas.append(max(schedule, floor))
    return sigmas


def run_optimistic_experiment(cfg: SweepConfig) -> OptimisticReport:
    """Low-noise RRM runs with the balanced epsilon; checks that the measured
    mean gap is dominated by the multiplicative bound in every cell and fits
    the decay exponent of the mean gap."""
    if cfg.algorithm != "rrm" or cfg.sigma_rule != "optimistic":
        raise ValidationError(
            "the optimistic experiment requires algorithm='rrm' and sigma_rule='optimistic'"
        )
    alpha = regularity_constants(cfg.task.B).alpha
    sigmas = _optimistic_sigmas(cfg, alpha)
    for n, sigma in zip(cfg.n_grid, sigmas):
        if sigma * n < 8.0 * alpha:
            raise RegimeViolation(
                f"sigma = {sigma:g} at n = {n} violates sigma * n >= 8 alpha = {8 * alpha:g}"
            )
    loss_cfg = LossConfig(cfg.zeta)
    root = np.random.SeedSequence(int(cfg.seed))
    rows = []
    cells = []
    for n, sigma in zip(cfg.n_grid, sigmas):
        lam = sigma / 2.0
        budget = max(DEFAULT_TRIPLET_BUDGET, n * (n - 1) * n)
        gaps = []
        emps = []
        epsilon = optimistic_epsilon(n, n, sigma)
        # The stopping certificate places the iterate within tol / (2 lam) of
        # the argmin, which can move the probe losses by L tol / (2 lam). The
        # gaps in this regime can be far smaller than the default tol would
        # then allow, so scale tol with lam to pin that slack near 1e-7.
        L = 8.0 * cfg.task.B**2
        tol = min(1e-8, max(1e-14, 2.0 * lam * 1e-7 / L))
        for trial in range(cfg.trials_per_n):
            task_seed, _ = _cell_seeds(root)
            task = replace(cfg.task, n_plus=n, n_minus=n, seed=task_seed)
            train, sampler, _ = low_noise_task(task)
            w, _ = rrm_train(train, RrmConfig(lam=lam, tol=tol, zeta=cfg.zeta, budget=budget))
            emp = empirical_risk(w, train, loss_cfg, budget=budget)
            pop = population_risk(w, sampler, cfg.population_m, loss_cfg)
            gap = pop.value - emp.value
            gaps.append(gap)
            emps.append(emp.value)
            rows.append((n, trial, task_seed, emp.value, pop.value, gap))
        mean_gap = float(np.mean(gaps))
        mean_emp = float(np.mean(emps))
        bound = optimistic_gap_bound(epsilon, alpha, sigma, n, n, mean_emp)
        cells.append(
            OptimisticCell(
                n=n,
                sigma=float(sigma),
                lam=float(lam),
                epsilon=float(epsilon),
                mean_gap=mean_gap,
                mean_emp=mean_emp,
                bound=float(bound),
                dominated=bool(mean_gap <= bound),
                trials=cfg.trials_per_n,
            )
        )
    # Monte Carlo noise can push a near-zero mean gap negative; those cells
    # still count for domination but cannot enter a log-log fit.
    fit_points = [(c.n, c.mean_gap) for c in cells if c.mean_gap > 0]
    if len(fit_points) >= 3:
        slope, intercept, stderr, r2 = fit_loglog_slope(fit_points)
    else:
        slope = intercept = stderr = r2 = float("nan")
    return OptimisticReport(
        cells=tuple(cells),
        rows=tuple(rows),
        alpha=alpha,
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
        r_squared=r2,
    )


def write_optimistic_cells_csv(report: OptimisticReport, path) -> None:
    header = [
        "n",
        "sigma",
        "lam",
        "epsilon",
        "alpha",
        "mean_gap",
        "mean_emp",
        "bound",
        "dominated",
        "trials",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for c in report.cells:
            writer.writerow(
                [
                    c.n,
                    repr(float(c.sigma)),
                    repr(float(c.lam)),
                    repr(float(c.epsilon)),
                    repr(float(report.alpha)),
                    repr(float(c.mean_gap)),
                    repr(float(c.mean_emp)),
                    repr(float(c.bound)),
                    int(c.dominated),
                    c.trials,
                ]
            )


def write_optimistic_rows_csv(report: OptimisticReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "trial", "task_seed", "emp_value", "pop_value", "gap"])
        for n, trial, task_seed, emp, pop, gap in report.rows:
            writer.writerow(
                [n, trial, task_seed, repr(float(emp)), repr(float(pop)), repr(float(gap))]
            )


def package_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("tripletlab")
    except PackageNotFoundError:
        return "0.0.0+local"


def write_manifest(path, command: str, config, started: float) -> None:
    """JSON run record: the echoed config, library version, and wall time."""
    if hasattr(config, "__dataclass_fields__"):
        config = asdict(config)
    payload = {
        "command": command,
        "config": config,
        "version": package_version(),
        "elapsed_seconds": time.time() - started,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
