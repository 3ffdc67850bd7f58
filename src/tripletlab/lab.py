"""Experiment runners: learning-curve sweeps, the excess risk over a
reference minimizer, and the optimistic (low-noise) regime, whose reports
hold their tables as dataclass records (core.write_records writes them),
and JSON run manifests.

Every runner derives all cell-level seeds from one root seed through numpy
SeedSequence spawning, in a fixed loop order, so a rerun with the same config
reproduces every CSV byte for byte. The runners then run their trials
through parallel.run_jobs, on the calling thread and the process's shared
thread pool, and collect them in trial order; the exact sweeps inside a
trial run on that trial's thread. So the bytes do not depend on the thread
count either. Summary JSON manifests carry wall time and are the one
intentionally non-reproducible output.

The runners (run_rate_sweep, run_excess_risk_experiment,
run_optimistic_experiment) share one trial pipeline, _run_trials, and
differ only in their fit(cfg, n, task_seed, algo_seed) -> (w, empirical
risk) and in what they keep per cell of the rows it returns; the excess
experiment also fits one reference minimizer on the population sample. The
pipeline scores every fitted w on one population sample per run from the
task law, at a seed of its own derived from the root seed, in chunks of
risk.SAMPLE_CHUNK rows, each from a stream of its own. The sweeps stream
it: each chunk is drawn beside the fits into a reused buffer and, once
the fits are done, scored by every fit while it is in cache, so no m-row
sample is held. The excess experiment holds the whole sample, for
its reference minimizer, and scores views of it. The trials' population
risks share common random numbers, so the sample's own error is common to
a cell's trials and does not average out over them.
"""
from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import parallel
from .core import ValidationError, read_only_view
from .loss import LossConfig, MetricParams, regularity_constants
from .optim import RrmConfig, SgdConfig, rrm_train, sample_minimizer
from .risk import (
    SAMPLE_CHUNK,
    RiskEstimate,
    check_sample_size,
    chunk_moments,
    combined_estimate,
    draw_evaluation_sample,
    empirical_risk,
    exact_budget,
    sample_chunks,
)
from .stability import (
    ConstantTrainer,
    RrmTrainer,
    SgdTrainer,
    optimistic_epsilon,
    optimistic_gap_bound,
)
from .synth import TaskConfig, gen_task, low_noise_task, task_sampler


class NonpositiveValue(ValidationError):
    pass


class TooFewPoints(ValidationError):
    pass


def fit_loglog_slope(points):
    """OLS fit of log(value) on log(n); returns (slope, intercept, stderr, r_squared).

    Exact power laws come back with their exponent (up to float rounding) and
    r_squared = 1. The fit runs the numpy operations of scipy.stats.linregress
    in its order, so every field equals linregress's bit for bit; a constant
    series, whose r is undefined, gives slope 0 and NaN stderr and r_squared,
    as there.
    """
    pts = list(points)
    if len(pts) < 3:
        raise TooFewPoints(f"need at least 3 points for a slope fit, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=np.float64)
    vals = np.array([p[1] for p in pts], dtype=np.float64)
    if np.any(ns <= 0) or np.any(vals <= 0):
        raise NonpositiveValue("log-log fit needs strictly positive n and values")
    x, y = np.log(ns), np.log(vals)
    if np.amax(x) == np.amin(x):
        raise TooFewPoints(f"need at least 2 distinct n for a slope fit, got n = {ns.tolist()}")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return float(slope), float(intercept), float(stderr), float(r**2)


@dataclass(frozen=True)
class SlopeFit:
    """The log-log fit of a sweep's per-cell means against n; NaN throughout
    where there is none."""

    slope: float
    slope_stderr: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class SweepConfig:
    """One learning-curve experiment over n_plus = n_minus = n.

    algorithm: "sgd" (T = n steps, eta = c/sqrt(T)), "rrm" (lam = sigma/2 with
    sigma from sigma_rule), or "constant" (w = 0 null model, for tests).
    sigma_rule: "inv_sqrt_n" (sigma = sigma0 / sqrt(n)), which the rate sweep
    and the excess experiment require of rrm, or "optimistic", which
    run_optimistic_experiment requires: sigma at the regime floor
    (8 alpha / n)(1 + 1e-9), whatever sigma0 is.
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
    """One trial of a sweep run."""

    n: int
    trial: int
    task_seed: int
    algo_seed: int
    emp: RiskEstimate
    pop: RiskEstimate
    derived_columns = ("gap", "abs_gap")

    @property
    def gap(self) -> float:
        return self.pop.value - self.emp.value

    @property
    def abs_gap(self) -> float:
        return abs(self.gap)


@dataclass(frozen=True)
class SweepCell:
    """One n of the rate sweep: the mean |gap| over its trials."""

    n: int
    mean_abs_gap: float


@dataclass(frozen=True)
class SweepReport:
    algorithm: str
    rows: tuple
    n_grid: tuple
    mean_abs_gap: tuple
    fit: SlopeFit
    workers: int = field(default=1, repr=False, compare=False)
    population_sample: dict | None = field(default=None, compare=False)
    phase_seconds: dict | None = field(default=None, repr=False, compare=False)

    @property
    def cells(self) -> tuple:
        return tuple(map(SweepCell, self.n_grid, self.mean_abs_gap))


def _cell_seeds(root: np.random.SeedSequence):
    cell_a, cell_b = root.spawn(1)[0].spawn(2)
    return (
        int(cell_a.generate_state(1, np.uint64)[0]),
        int(cell_b.generate_state(1, np.uint64)[0]),
    )


def _exact_budget(n: int) -> int:
    """The exact_budget of an n-by-n task."""
    return exact_budget(n, n)


def _positive_slope(ns, values) -> SlopeFit:
    """fit_loglog_slope over the cells whose value is positive, or NaNs when
    fewer than 3 are: a zero mean (the zero trainer's) or a negative one
    (Monte Carlo noise on a near-zero gap) cannot enter a log-log fit."""
    points = [(n, v) for n, v in zip(ns, values) if v > 0]
    if len(points) < 3:
        return SlopeFit(*(float("nan"),) * 4)
    slope, intercept, stderr, r_squared = fit_loglog_slope(points)
    return SlopeFit(slope, stderr, intercept, r_squared)


def _population_sample(cfg: SweepConfig):
    """(samplers, record) of a sweep run's one population sample:
    population_m triplets of cfg.task's law, chunk c of sample_chunks(m)
    drawn by samplers[c] with draw_evaluation_sample; and its manifest
    record. A sample larger than physical memory is refused
    (check_sample_size) before anything is drawn or fitted, whether the run
    holds it (_held_sample) or streams it (_run_trials).

    Chunk 0 is drawn by task_sampler at a seed s of the sample's own, and
    chunk c >= 1 by that sampler's c-th fork(), so the sample does not depend
    on which thread draws which chunk, and one of at most SAMPLE_CHUNK rows
    is draw_evaluation_sample(sampler, m) itself. s is the first 64-bit word
    of SeedSequence(cfg.seed)'s own state. The trial seeds come from that
    SeedSequence's spawned children, so none of them changes, and the
    sample's streams are apart from theirs.
    """
    check_sample_size(cfg.population_m, cfg.task.d)
    seed = int(np.random.SeedSequence(int(cfg.seed)).generate_state(1, np.uint64)[0])
    sampler = task_sampler(replace(cfg.task, seed=seed))
    chunks = sample_chunks(cfg.population_m)
    samplers = [sampler] + [sampler.fork() for _ in chunks[1:]]
    record = {
        "m": cfg.population_m,
        "seed": seed,
        "seed_derivation": "SeedSequence(config.seed).generate_state(1, uint64)[0]; "
        "chunk 0 drawn by task_sampler(config.task with that seed), "
        "chunk c >= 1 by its c-th fork()",
        "chunk_rows": SAMPLE_CHUNK,
        "chunks": len(chunks),
        "shared_by_all_trials": True,
        "trials": len(cfg.n_grid) * cfg.trials_per_n,
    }
    return samplers, record


def _held_sample(cfg: SweepConfig):
    """(sample, busy seconds): the run's population sample
    (_population_sample) drawn whole into one read-only (2, m, d) array, a
    parallel.run_jobs job per chunk, and the chunk draws' busy seconds,
    summed over the chunks."""
    samplers, _ = _population_sample(cfg)
    sample = np.empty((2, cfg.population_m, cfg.task.d))

    def draw(sampler, rows):
        began = time.perf_counter()
        draw_evaluation_sample(sampler, rows.stop - rows.start, out=sample[:, rows])
        return time.perf_counter() - began

    busy, _ = parallel.run_jobs(draw, zip(samplers, sample_chunks(cfg.population_m)))
    return read_only_view(sample), sum(busy)


def _run_trials(cfg: SweepConfig, fit, sample=None, extra=()):
    """The trial pipeline of a sweep run: every trial as a SweepRow, in trial
    order; the run's record, keyed by the report fields it fills (workers,
    population_sample, phase_seconds); and the population risk estimates of
    the metrics in extra, scored with the trials.

    The run's population sample is _population_sample's. A held sample is
    passed as sample, drawn whole (_held_sample), and its chunks are views
    of it; without one the sample is streamed, chunk c drawn by the c-th
    sampler. The record's held says which.

    The seeds of every (n, trial) are derived first, in trial order. Then one
    parallel.run_jobs call runs fit(cfg, n, task_seed, algo_seed) -> (w,
    empirical risk) for each trial, the largest n first (in trial order
    within an n), and after them the chunk jobs of sample_chunks(m). A draw
    job draws its chunk (draw_evaluation_sample) into a free buffer, or takes
    its view of a held sample. Each chunk is then scored by one job a CPU
    (at most one per metric), each taking a contiguous range of the
    metrics, the fitted ws in trial order and then extra; a scoring job
    waits for its chunk's draw and for every fit to finish, and scores its
    metrics on the read-only chunk (risk.chunk_moments) while it is in
    cache. The last one to finish frees the chunk's buffer for a later
    draw. The draws of the first cpus chunks come first, and the draw of
    chunk c + cpus comes after chunk c's scoring jobs, so the draws fill
    the CPUs beside the fits (on one CPU they run after them), every CPU
    scores every chunk, and a streamed run holds at most two chunks a CPU,
    those being scored and those drawn ahead, never the m-row sample.
    run_jobs hands the jobs out in order, so a thread takes a scoring job
    only once every fit and its chunk's draw have been taken by a thread
    that runs them, and the waits end. A fit counts as finished when it
    raises too, and a draw as done; the scoring jobs then score nothing, and
    the first failing job in job order raises. Each metric's chunks are
    combined in chunk order (risk.combined_estimate), so every estimate is
    risk.sample_risks's on the whole sample, bit for bit, on any thread
    count.

    workers is the run's worker count (one per CPU, at most one per job);
    phase_seconds holds the wall time until the last fit finished (fits)
    and the busy seconds of the draw jobs (population_draw_busy_sum) and of
    the scoring jobs (scoring_busy_sum) and the scoring jobs' wait for the
    fits and their chunk's draw (fit_wait_sum), each summed over the jobs.
    """
    samplers, record = _population_sample(cfg)
    record["held"] = sample is not None
    root = np.random.SeedSequence(int(cfg.seed))
    seeds = [
        (n, trial, *_cell_seeds(root)) for n in cfg.n_grid for trial in range(cfg.trials_per_n)
    ]
    order = sorted(range(len(seeds)), key=lambda trial: -seeds[trial][0])
    chunks = sample_chunks(cfg.population_m)
    largest = max(rows.stop - rows.start for rows in chunks)
    metrics = len(seeds) + len(extra)
    cpus = parallel.available_cpus()
    parts = min(cpus, metrics)
    ranges = [(metrics * part // parts, metrics * (part + 1) // parts) for part in range(parts)]
    fits = [None] * len(seeds)  # a trial's (w, empirical risk) once its fit returns
    unfinished = len(seeds)
    lock = threading.Lock()
    fitted = threading.Event()
    drawn = [threading.Event() for _ in chunks]
    views = [None] * len(chunks)  # chunk c, read-only, from its draw until it is scored
    buffers = [None] * len(chunks)  # the buffer streamed chunk c is drawn into
    free = []  # buffers of scored chunks, for the next draws
    unscored = [parts] * len(chunks)  # chunk c's scoring jobs not yet done
    started = time.perf_counter()
    fits_ended = started

    def fit_job(trial):
        nonlocal unfinished, fits_ended
        n, _, task_seed, algo_seed = seeds[trial]
        try:
            fits[trial] = fit(cfg, n, task_seed, algo_seed)
        finally:
            with lock:
                unfinished -= 1
                if not unfinished:
                    fits_ended = time.perf_counter()
                    fitted.set()

    def draw_job(c):
        began = time.perf_counter()
        rows = chunks[c]
        try:
            if sample is not None:
                views[c] = sample[:, rows]
                return 0.0
            with lock:
                buffers[c] = free.pop() if free else None
            if buffers[c] is None:
                buffers[c] = np.empty((2, largest, cfg.task.d))
            count = rows.stop - rows.start
            chunk = draw_evaluation_sample(samplers[c], count, out=buffers[c][:, :count])
            chunk.flags.writeable = False  # a view: the buffer stays writeable for a later draw
            views[c] = chunk
            return time.perf_counter() - began
        finally:
            drawn[c].set()

    def score_job(c, first, last):
        began = time.perf_counter()
        try:
            drawn[c].wait()
            fitted.wait()
            waited = time.perf_counter()
            chunk = views[c]
            if chunk is None or None in fits:  # a draw or a fit raised, and run_jobs raises it
                return None
            ws = ([w for w, _ in fits] + list(extra))[first:last]
            moments = [chunk_moments(w.w, chunk, cfg.zeta) for w in ws]
            return moments, waited - began, time.perf_counter() - waited
        finally:
            with lock:
                unscored[c] -= 1
                if not unscored[c]:
                    views[c] = None
                    if buffers[c] is not None:
                        free.append(buffers[c])

    draws = [(draw_job, c) for c in range(len(chunks))]
    scoring = []
    for c in range(len(chunks)):
        scoring += [(score_job, c, *metric_range) for metric_range in ranges]
        scoring += draws[c + cpus : c + cpus + 1]
    jobs = [(fit_job, trial) for trial in order] + draws[:cpus] + scoring
    results, workers = parallel.run_jobs(lambda job, *args: job(*args), jobs)
    moments = [[] for _ in chunks]  # each metric's chunk_moments on chunk c, in metric order
    drawing, scored = 0.0, []
    for (job, c, *_), result in zip(jobs[len(seeds):], results[len(seeds):]):
        if job is draw_job:
            drawing += result
        else:
            moments[c] += result[0]
            scored.append(result)
    estimates = [
        combined_estimate([chunk[i] for chunk in moments], cfg.population_m)
        for i in range(metrics)
    ]
    phase_seconds = {
        "fits": fits_ended - started,
        "population_draw_busy_sum": drawing,
        "fit_wait_sum": sum(result[1] for result in scored),
        "scoring_busy_sum": sum(result[2] for result in scored),
    }
    rows = tuple(SweepRow(*seed, emp, pop) for seed, (_, emp), pop in zip(seeds, fits, estimates))
    run = {"workers": workers, "population_sample": record, "phase_seconds": phase_seconds}
    return rows, run, estimates[len(seeds):]


def _cell_means(cfg: SweepConfig, rows, value) -> tuple:
    """The mean of value(row) over the rows of each n of cfg.n_grid."""
    return tuple(float(np.mean([value(row) for row in rows if row.n == n])) for n in cfg.n_grid)


def _check_rate_rule(cfg: SweepConfig) -> None:
    """Refuse RRM under any sigma rule but inv_sqrt_n, before anything is
    drawn or fitted: run_optimistic_experiment owns the optimistic rule."""
    if cfg.algorithm == "rrm" and cfg.sigma_rule != "inv_sqrt_n":
        raise ValidationError(
            "rate sweeps support sigma_rule='inv_sqrt_n' only; "
            "use run_optimistic_experiment for the optimistic rule"
        )


def _sweep_fit(cfg: SweepConfig, n: int, task_seed: int, algo_seed: int):
    """(w, empirical risk) of one rate-sweep trial, by the trainer of an
    n-by-n cell."""
    if cfg.algorithm == "sgd":
        c = regularity_constants(cfg.task.B).eta_max if cfg.c is None else cfg.c
        trainer = SgdTrainer(SgdConfig(T=n, c=c, seed=algo_seed, zeta=cfg.zeta))
    elif cfg.algorithm == "rrm":
        sigma = cfg.sigma0 / np.sqrt(n)
        trainer = RrmTrainer(RrmConfig(lam=sigma / 2.0, zeta=cfg.zeta, budget=_exact_budget(n)))
    else:
        trainer = ConstantTrainer(MetricParams.zeros(cfg.task.d))
    train, _ = gen_task(replace(cfg.task, n_plus=n, n_minus=n, seed=task_seed))
    w, _ = trainer.fit(train)
    return w, empirical_risk(w, train, LossConfig(cfg.zeta), budget=_exact_budget(n))


def run_rate_sweep(cfg: SweepConfig) -> SweepReport:
    """Generalization gap vs n, with a log-log slope fit on the mean |gap|.

    The trials run through the one trial pipeline (_run_trials), fitted by
    _sweep_fit.
    """
    _check_rate_rule(cfg)
    rows, run, _ = _run_trials(cfg, _sweep_fit)
    mean_abs = _cell_means(cfg, rows, lambda row: abs(row.gap))
    return SweepReport(
        algorithm=cfg.algorithm,
        rows=rows,
        n_grid=cfg.n_grid,
        mean_abs_gap=mean_abs,
        fit=_positive_slope(cfg.n_grid, mean_abs),
        **run,
    )


@dataclass(frozen=True)
class ExcessCell:
    """One n of the excess experiment: the mean excess risk of its trials."""

    n: int
    mean_excess: float


@dataclass(frozen=True)
class ExcessReport:
    """The rate sweep's trials (rows, a SweepRow each) and w_star, the
    minimizer of the mean loss R^ over their shared population sample:
    reference is R^(w*), scored on the sample as the trials are, and
    iterations the Newton iterations of its fit."""

    algorithm: str
    rows: tuple
    reference: RiskEstimate
    w_star: MetricParams = field(compare=False)
    iterations: int
    n_grid: tuple
    mean_excess: tuple
    fit: SlopeFit
    workers: int = field(default=1, repr=False, compare=False)
    population_sample: dict | None = field(default=None, compare=False)
    phase_seconds: dict | None = field(default=None, repr=False, compare=False)

    @property
    def excess(self) -> tuple:
        """R^(w_S) - R^(w*) of each trial, in row order."""
        return tuple(row.pop.value - self.reference.value for row in self.rows)

    @property
    def cells(self) -> tuple:
        return tuple(map(ExcessCell, self.n_grid, self.mean_excess))


def run_excess_risk_experiment(cfg: SweepConfig) -> ExcessReport:
    """Excess risk vs n, with a log-log slope fit on the mean excess.

    The trials are the rate sweep's (_run_trials fitted by _sweep_fit, so the
    rows equal run_rate_sweep's). Their one shared population sample is held
    whole (_held_sample): before any trial is fitted, the reference w* is
    fitted on it, the minimizer of R^, the sample's mean loss
    (optim.sample_minimizer, RRM's Newton loop at lam = 0), so a sample
    without one wastes no fit. R^(w*) is scored in the trials' own chunk
    pass, as one more metric; a trial's excess is its population risk minus
    R^(w*).
    Fitting and scoring w* on one sample biases R^(w*) low by about p/(2m)
    (p = d(d+1)/2; at d = 3, 3e-5 at m = 10^5 and 1.5e-3 at m = 2000). The
    estimation term R(w_S) - R_S(w_S) is the sweep's gap, which the rows
    carry. A sample without a minimizer raises optim.SolverFailure.
    """
    _check_rate_rule(cfg)
    sample, draw_seconds = _held_sample(cfg)
    started = time.perf_counter()
    w_star, iterations = sample_minimizer(sample, cfg.zeta)
    reference_fit = time.perf_counter() - started
    rows, run, (reference,) = _run_trials(cfg, _sweep_fit, sample, extra=(w_star,))
    run["phase_seconds"].update(
        population_draw_busy_sum=draw_seconds, reference_fit=reference_fit
    )
    mean_excess = _cell_means(cfg, rows, lambda row: row.pop.value - reference.value)
    return ExcessReport(
        algorithm=cfg.algorithm,
        rows=rows,
        reference=reference,
        w_star=w_star,
        iterations=iterations,
        n_grid=cfg.n_grid,
        mean_excess=mean_excess,
        fit=_positive_slope(cfg.n_grid, mean_excess),
        **run,
    )


@dataclass(frozen=True)
class OptimisticCell:
    n: int
    sigma: float
    lam: float
    epsilon: float
    alpha: float
    mean_gap: float
    mean_emp: float
    bound: float
    dominated: bool
    trials: int


@dataclass(frozen=True)
class OptimisticReport:
    cells: tuple
    trial_rows: tuple  # a SweepRow per trial
    alpha: float
    fit: SlopeFit
    workers: int = field(default=1, repr=False, compare=False)
    population_sample: dict | None = field(default=None, compare=False)
    phase_seconds: dict | None = field(default=None, repr=False, compare=False)

    @property
    def rows(self) -> tuple:
        """(n, trial, task_seed, emp value, pop value, gap) of each trial."""
        return tuple(
            (r.n, r.trial, r.task_seed, r.emp.value, r.pop.value, r.gap) for r in self.trial_rows
        )

    @property
    def all_dominated(self) -> bool:
        return all(c.dominated for c in self.cells)


def _optimistic_sigma(cfg: SweepConfig, n: int) -> float:
    """sigma at the regime floor, the smallest with sigma * n >= 8 alpha (the
    regime of optimistic_gap_bound), with a hair of headroom so the product
    clears 8 alpha after rounding."""
    return (8.0 * regularity_constants(cfg.task.B).alpha / n) * (1.0 + 1e-9)


def _optimistic_fit(cfg: SweepConfig, n: int, task_seed: int, algo_seed: int):
    """(w, empirical risk) of one low-noise RRM trial at lam = sigma / 2. The
    solve is deterministic, so algo_seed is not read."""
    lam = _optimistic_sigma(cfg, n) / 2.0
    # The stopping certificate places the iterate within tol / (2 lam) of
    # the argmin, which can move the probe losses by L tol / (2 lam). The
    # gaps in this regime can be far smaller than the default tol would
    # then allow, so scale tol with lam to pin that slack near 1e-7.
    L = 8.0 * cfg.task.B**2
    tol = min(1e-8, max(1e-14, 2.0 * lam * 1e-7 / L))
    budget = _exact_budget(n)
    train, _, _ = low_noise_task(replace(cfg.task, n_plus=n, n_minus=n, seed=task_seed))
    w, _ = rrm_train(train, RrmConfig(lam=lam, tol=tol, zeta=cfg.zeta, budget=budget))
    return w, empirical_risk(w, train, LossConfig(cfg.zeta), budget=budget)


def run_optimistic_experiment(cfg: SweepConfig) -> OptimisticReport:
    """Low-noise RRM runs with the balanced epsilon, at sigma on the regime
    floor 8 alpha / n; checks that the measured mean gap is dominated by the
    multiplicative bound in every cell and fits the decay exponent of the
    mean gap.

    The trials run through the one trial pipeline (_run_trials), fitted by
    _optimistic_fit.
    """
    if cfg.algorithm != "rrm" or cfg.sigma_rule != "optimistic":
        raise ValidationError(
            "the optimistic experiment requires algorithm='rrm' and sigma_rule='optimistic'"
        )
    alpha = regularity_constants(cfg.task.B).alpha
    trials, run, _ = _run_trials(cfg, _optimistic_fit)
    mean_gaps = _cell_means(cfg, trials, lambda row: row.gap)
    mean_emps = _cell_means(cfg, trials, lambda row: row.emp.value)
    cells = []
    for n, mean_gap, mean_emp in zip(cfg.n_grid, mean_gaps, mean_emps):
        sigma = _optimistic_sigma(cfg, n)
        epsilon = optimistic_epsilon(n, n, sigma)
        bound = optimistic_gap_bound(epsilon, alpha, sigma, n, n, mean_emp)
        cells.append(
            OptimisticCell(
                n=n,
                sigma=float(sigma),
                lam=float(sigma / 2.0),
                epsilon=float(epsilon),
                alpha=alpha,
                mean_gap=mean_gap,
                mean_emp=mean_emp,
                bound=float(bound),
                dominated=bool(mean_gap <= bound),
                trials=cfg.trials_per_n,
            )
        )
    return OptimisticReport(
        cells=tuple(cells),
        trial_rows=trials,
        alpha=alpha,
        fit=_positive_slope(cfg.n_grid, mean_gaps),
        **run,
    )


def package_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("tripletlab")
    except PackageNotFoundError:
        return "0.0.0+local"


def write_manifest(path, command: str, config, started: float, **record) -> None:
    """JSON run record: the echoed config, library version, wall time, and any
    further `record` entries (such as the worker count of a sweep)."""
    if hasattr(config, "__dataclass_fields__"):
        config = asdict(config)
    payload = {
        "command": command,
        "config": config,
        "version": package_version(),
        "elapsed_seconds": time.time() - started,
        **record,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
