"""tripletlab command-line interface.

Subcommands: gen, sgd, rrm, stability, sweep, excess, optimistic, check,
bounds. Experiment commands require --seed and write fixed-name CSVs plus a
manifest.json into --outdir; values come from an optional INI config file
(sections [task], [loss], [sgd], [rrm], [sweep], [stability]) with every flag
overriding the file. A file key the subcommand does not read is a config
error, not a silent no-op.

Exit codes: 0 success, 2 config or validation error (or an RRM solve that
did not converge), 3 a measured quantity exceeded its closed-form bound (or
a property suite found a violation), 4 regime violation.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    Pool,
    SlotRef,
    ValidationError,
    feature_bound,
    parse_int,
    read_dataset_csv,
    write_csv,
    write_dataset_csv,
)
from .lab import (
    SweepConfig,
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
from .loss import (
    LossConfig,
    MetricParams,
    logistic_triplet_grad,
    logistic_triplet_loss,
    phi,
    regularity_constants,
    write_metric_csv,
)
from .optim import (
    RrmConfig,
    SgdConfig,
    SolverFailure,
    expansiveness_check,
    read_trace_csv,
    rrm_train,
    sgd_train,
    write_trace_csv,
)
from .risk import DEFAULT_TRIPLET_BUDGET, bernstein_ustat_bound, empirical_risk
from .stability import (
    ConstantTrainer,
    RegimeViolation,
    RrmTrainer,
    SgdTrainer,
    chernoff_hit_bound,
    estimate_on_average_stability,
    estimate_uniform_stability,
    high_probability_gap_bound,
    loss_expectation_bound,
    optimistic_epsilon,
    optimistic_gap_bound,
    rrm_stability_bound,
    sgd_stability_bound,
    write_stability_csv,
)
from .synth import TaskConfig, gen_task

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMINATION = 3
EXIT_REGIME = 4


class _FileConfig:
    """INI file access with typed lookups; flags always win over the file.

    Every (section, key) looked up is recorded, so that reject_unread can
    refuse a file key that no lookup of the subcommand read (a misspelt key,
    or one the subcommand has no use for). [DEFAULT] is an ordinary section.
    """

    def __init__(self, path: str | None):
        self.parser = configparser.ConfigParser(default_section="")
        self.read = set()
        if path is not None:
            found = self.parser.read(path)
            if not found:
                raise ValidationError(f"config file not found: {path}")

    def get(self, section, key, cast=str, default=None, override=None):
        self.read.add((section, key))
        if override is not None:
            return override
        if self.parser.has_option(section, key):
            raw = self.parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        return default

    def reject_unread(self, command: str) -> None:
        """Raise ValidationError naming every file key no lookup has read;
        called once the subcommand has built its config."""
        unread = [
            f"[{section}] {key}"
            for section in self.parser.sections()
            for key in self.parser.options(section)
            if (section, key) not in self.read
        ]
        if unread:
            raise ValidationError(
                f"config file keys that `{command}` does not read: " + ", ".join(unread)
            )


def _parse_grid(raw) -> tuple:
    """The integers of a grid given as a list or as a string of entries
    separated by commas and/or whitespace. A string entry is [+-]?[0-9]+
    (fullmatch): "1_0", "1.0" or "1e3" is not a grid entry."""
    if isinstance(raw, (tuple, list)):
        return tuple(int(v) for v in raw)
    parts = str(raw).replace(",", " ").split()
    if not parts:
        raise ValidationError("empty n_grid")
    try:
        return tuple(parse_int(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"n_grid {raw!r} is not a list of integers") from exc


def _task_config(cfg: _FileConfig, args, seed: int) -> TaskConfig:
    return TaskConfig(
        d=cfg.get("task", "d", parse_int, 3, getattr(args, "d", None)),
        n_plus=cfg.get("task", "n_plus", parse_int, 32, getattr(args, "n_plus", None)),
        n_minus=cfg.get("task", "n_minus", parse_int, 32, getattr(args, "n_minus", None)),
        B=cfg.get("task", "b", float, 1.0, getattr(args, "B", None)),
        separation=cfg.get("task", "separation", float, 1.0, getattr(args, "separation", None)),
        noise_scale=cfg.get(
            "task", "noise_scale", float, 0.25, getattr(args, "noise_scale", None)
        ),
        seed=seed,
    )


def _loss_config(cfg: _FileConfig, args) -> LossConfig:
    return LossConfig(zeta=cfg.get("loss", "zeta", float, 0.0, getattr(args, "zeta", None)))


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split_seed(seed: int, count: int):
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _load_or_generate_dataset(cfg, args, seed):
    if getattr(args, "data", None):
        dataset = read_dataset_csv(args.data)
        return dataset, None
    task_seed, algo_seed = _split_seed(seed, 2)
    task = _task_config(cfg, args, task_seed)
    train, _ = gen_task(task)
    return train, algo_seed


def _cmd_gen(cfg, args) -> int:
    started = time.time()
    out = _outdir(args)
    task = _task_config(cfg, args, args.seed)
    cfg.reject_unread("gen")
    train, _ = gen_task(task)
    write_dataset_csv(train, out / "dataset.csv")
    write_manifest(out / "manifest.json", "gen", task, started)
    print(f"wrote {out / 'dataset.csv'} ({train.n_plus} positives, {train.n_minus} negatives)")
    return EXIT_OK


def _write_metrics_csv(path, estimate, extra=()):
    write_csv(
        path,
        ["mode", "value", "std_error", "n_terms"],
        [[estimate.mode.value, estimate.value, estimate.std_error, estimate.n_terms]]
        + [[key, value, "", ""] for key, value in extra],
    )


def _cmd_sgd(cfg, args) -> int:
    started = time.time()
    out = _outdir(args)
    dataset, algo_seed = _load_or_generate_dataset(cfg, args, args.seed)
    if algo_seed is None:
        algo_seed = _split_seed(args.seed, 2)[1]
    loss_cfg = _loss_config(cfg, args)
    T = cfg.get("sgd", "t", parse_int, None, args.T)
    if T is None:
        raise ValidationError("sgd needs T (flag --T or [sgd] t in the config file)")
    c = cfg.get("sgd", "c", float, None, args.c)
    if c is None:
        c = regularity_constants(feature_bound(dataset)).eta_max
    sgd_cfg = SgdConfig(T=T, c=c, seed=algo_seed, zeta=loss_cfg.zeta)
    cfg.reject_unread("sgd")
    w, trace = sgd_train(dataset, sgd_cfg)
    write_metric_csv(w, out / "model.csv")
    write_trace_csv(trace, out / "trace.csv")
    est = empirical_risk(w, dataset, loss_cfg)
    _write_metrics_csv(out / "metrics.csv", est)
    write_manifest(out / "manifest.json", "sgd", sgd_cfg, started)
    print(f"wrote {out / 'model.csv'}; train risk {est.value:.6f} ({est.mode.value})")
    return EXIT_OK


def _cmd_rrm(cfg, args) -> int:
    started = time.time()
    out = _outdir(args)
    dataset, _ = _load_or_generate_dataset(cfg, args, args.seed)
    loss_cfg = _loss_config(cfg, args)
    lam = cfg.get("rrm", "lam", float, None, args.lam)
    if lam is None:
        raise ValidationError("rrm needs lam (flag --lam or [rrm] lam in the config file)")
    rrm_cfg = RrmConfig(
        lam=lam,
        tol=cfg.get("rrm", "tol", float, 1e-8, args.tol),
        max_iters=cfg.get("rrm", "max_iters", parse_int, 10_000, args.max_iters),
        zeta=loss_cfg.zeta,
        budget=cfg.get(
            "rrm", "budget", parse_int, max(DEFAULT_TRIPLET_BUDGET, dataset.n_triplets), args.budget
        ),
    )
    cfg.reject_unread("rrm")
    w, iterations = rrm_train(dataset, rrm_cfg)
    write_metric_csv(w, out / "model.csv")
    est = empirical_risk(w, dataset, loss_cfg, budget=rrm_cfg.budget)
    _write_metrics_csv(out / "metrics.csv", est, extra=[("iterations", iterations)])
    write_manifest(out / "manifest.json", "rrm", rrm_cfg, started)
    print(
        f"wrote {out / 'model.csv'}; {iterations} iterations, "
        f"train risk {est.value:.6f}, objective certificate tol={rrm_cfg.tol:g}"
    )
    return EXIT_OK


def _cmd_stability(cfg, args) -> int:
    started = time.time()
    out = _outdir(args)
    task_seed, algo_seed = _split_seed(args.seed, 2)
    task = _task_config(cfg, args, task_seed)
    loss_cfg = _loss_config(cfg, args)
    _, sampler = gen_task(task)
    trainer_name = cfg.get("stability", "trainer", str, "rrm", args.trainer)
    if trainer_name == "rrm":
        lam = cfg.get("rrm", "lam", float, None, args.lam)
        if lam is None:
            raise ValidationError("stability with the rrm trainer needs --lam")
        budget = max(DEFAULT_TRIPLET_BUDGET, task.n_plus * (task.n_plus - 1) * task.n_minus)
        trainer = RrmTrainer(RrmConfig(lam=lam, zeta=loss_cfg.zeta, budget=budget))
    elif trainer_name == "sgd":
        T = cfg.get("sgd", "t", parse_int, None, args.T)
        if T is None:
            raise ValidationError("stability with the sgd trainer needs --T")
        c = cfg.get("sgd", "c", float, None, args.c)
        if c is None:
            c = regularity_constants(task.B).eta_max
        trainer = SgdTrainer(SgdConfig(T=T, c=c, seed=algo_seed, zeta=loss_cfg.zeta))
    elif trainer_name == "constant":
        trainer = ConstantTrainer(MetricParams.zeros(task.d))
    else:
        raise ValidationError(f"unknown trainer {trainer_name!r}")
    protocol = cfg.get("stability", "protocol", str, "uniform", args.protocol)
    trials = cfg.get("stability", "trials", parse_int, 20, args.trials)
    if protocol == "uniform":
        estimate = estimate_uniform_stability
        size = cfg.get("stability", "probe_size", parse_int, 2000, args.probe_size)
    elif protocol == "on-average":
        estimate = estimate_on_average_stability
        size = cfg.get("stability", "triplet_subsample", parse_int, 20, args.triplet_subsample)
    else:
        raise ValidationError(f"unknown protocol {protocol!r} (uniform or on-average)")
    cfg.reject_unread("stability")
    report = estimate(
        trainer, sampler, task.n_plus, task.n_minus, trials, size, loss_cfg, seed=args.seed
    )
    write_stability_csv([report], out / "stability.csv")
    write_manifest(out / "manifest.json", "stability", task, started)
    bound_txt = "n/a" if report.gamma_bound is None else f"{report.gamma_bound:.6g}"
    print(
        f"wrote {out / 'stability.csv'}; gamma_hat={report.gamma_hat:.6g} "
        f"bound={bound_txt} M_hat={report.M_hat:.6g}"
    )
    if report.dominated() is False:
        print("bound domination violated", file=sys.stderr)
        return EXIT_DOMINATION
    return EXIT_OK


def _sweep_config(cfg, args, command: str) -> SweepConfig:
    """The SweepConfig of sweep, excess or optimistic. sigma0 and c are read
    only by sweep and excess: optimistic puts sigma on the regime floor and
    trains no SGD."""
    if command == "optimistic":
        algorithm, rule = "rrm", {"sigma_rule": "optimistic"}
    else:
        algorithm, rule = "sgd", {
            "sigma0": cfg.get("sweep", "sigma0", float, 1.0, args.sigma0),
            "c": cfg.get("sweep", "c", float, None, args.c),
        }
    sweep_cfg = SweepConfig(
        algorithm=cfg.get("sweep", "algorithm", str, algorithm, args.algorithm),
        n_grid=_parse_grid(cfg.get("sweep", "n_grid", str, "32 64 128", args.n_grid)),
        trials_per_n=cfg.get("sweep", "trials_per_n", parse_int, 20, args.trials_per_n),
        task=_task_config(cfg, args, 0),
        zeta=_loss_config(cfg, args).zeta,
        population_m=cfg.get("sweep", "population_m", parse_int, 100_000, args.population_m),
        seed=args.seed,
        **rule,
    )
    cfg.reject_unread(command)
    return sweep_cfg


def _cmd_sweep(cfg, args) -> int:
    started = time.time()
    out = _outdir(args)
    sweep_cfg = _sweep_config(cfg, args, "sweep")
    report = run_rate_sweep(sweep_cfg)
    write_sweep_rows_csv(report, out / "sweep_rows.csv")
    write_sweep_summary_csv(report, out / "sweep_summary.csv")
    write_manifest(
        out / "manifest.json", "sweep", sweep_cfg, started,
        workers=report.workers, population_sample=report.population_sample,
        phase_seconds=report.phase_seconds,
    )
    print(
        f"wrote {out / 'sweep_rows.csv'}; slope={report.slope:.4f} "
        f"(stderr {report.slope_stderr:.4f}, r^2 {report.r_squared:.4f})"
    )
    return EXIT_OK


def _cmd_excess(cfg, args) -> int:
    started = time.time()
    out = _outdir(args)
    sweep_cfg = _sweep_config(cfg, args, "excess")
    report = run_excess_risk_experiment(sweep_cfg)
    write_excess_csv(report, out / "excess.csv")
    write_manifest(out / "manifest.json", "excess", sweep_cfg, started)
    print(f"wrote {out / 'excess.csv'} ({len(report.rows)} rows)")
    return EXIT_OK


def _cmd_optimistic(cfg, args) -> int:
    started = time.time()
    out = _outdir(args)
    sweep_cfg = _sweep_config(cfg, args, "optimistic")
    report = run_optimistic_experiment(sweep_cfg)
    write_optimistic_cells_csv(report, out / "optimistic_cells.csv")
    write_optimistic_rows_csv(report, out / "optimistic_rows.csv")
    # the log-log fit of the cells' mean gaps; null where there is none (NaN)
    fit = {
        name: getattr(report, name)
        for name in ("slope", "slope_stderr", "intercept", "r_squared")
    }
    write_manifest(
        out / "manifest.json", "optimistic", sweep_cfg, started,
        workers=report.workers, population_sample=report.population_sample,
        phase_seconds=report.phase_seconds,
        slope_fit={name: v if np.isfinite(v) else None for name, v in fit.items()},
    )
    print(
        f"wrote {out / 'optimistic_cells.csv'}; slope={report.slope:.4f}, "
        f"dominated in {sum(c.dominated for c in report.cells)}/{len(report.cells)} cells"
    )
    if not report.all_dominated:
        print("bound domination violated", file=sys.stderr)
        return EXIT_DOMINATION
    return EXIT_OK


# --- property suites for `check` ---


def _random_ball(rng, d, radius=1.0):
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return radius * v * rng.uniform() ** (1.0 / d)


def _random_metric(rng, d, scale=1.0):
    raw = scale * rng.standard_normal((d, d))
    return MetricParams((raw + raw.T) / 2.0)


def _suite_gradient(rng, probes):
    """Analytic gradient vs central finite differences, relative Frobenius error.

    Probes with a nearly degenerate direction matrix (||D+ - D-|| < 0.1) are
    redrawn: the loss is flat there and a relative comparison is meaningless.
    """
    h = 1e-6
    worst = 0.0
    violations = 0
    for _ in range(probes):
        while True:
            d = int(rng.integers(2, 6))
            w = _random_metric(rng, d)
            xa, xp, xn = (_random_ball(rng, d) for _ in range(3))
            dp = xa - xp
            dn = xa - xn
            direction = np.outer(dp, dp) - np.outer(dn, dn)
            if np.linalg.norm(direction) >= 0.1:
                break
        zeta = float(rng.uniform(0, 2))
        cfg = LossConfig(zeta)
        analytic = logistic_triplet_grad(w, xa, xp, xn, cfg)

        def f(arr):
            m = float(dp @ arr @ dp) - float(dn @ arr @ dn) + zeta
            return float(phi(-m))

        numeric = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                e = np.zeros((d, d))
                e[a, b] = h
                numeric[a, b] = (f(w.w + e) - f(w.w - e)) / (2 * h)
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        worst = max(worst, rel)
        if rel >= 1e-6:
            violations += 1
    return violations, worst


def _suite_regularity(rng, probes):
    """Lipschitz ratio <= 8 B^2, smoothness ratio <= 64 B^4, and midpoint
    convexity, on random metric pairs at B = 1."""
    lipschitz_violations = 0
    smoothness_violations = 0
    convexity_violations = 0
    for _ in range(probes):
        d = int(rng.integers(2, 6))
        w1 = _random_metric(rng, d, scale=2.0)
        w2 = _random_metric(rng, d, scale=2.0)
        xa, xp, xn = (_random_ball(rng, d) for _ in range(3))
        cfg = LossConfig(float(rng.uniform(0, 1)))
        dist = float(np.linalg.norm(w1.w - w2.w))
        if dist < 1e-9:
            continue
        l1 = logistic_triplet_loss(w1, xa, xp, xn, cfg)
        l2 = logistic_triplet_loss(w2, xa, xp, xn, cfg)
        if abs(l1 - l2) > 8.0 * dist * (1 + 1e-9):
            lipschitz_violations += 1
        g1 = logistic_triplet_grad(w1, xa, xp, xn, cfg)
        g2 = logistic_triplet_grad(w2, xa, xp, xn, cfg)
        if float(np.linalg.norm(g1 - g2)) > 64.0 * dist * (1 + 1e-9):
            smoothness_violations += 1
        mid = MetricParams((w1.w + w2.w) / 2.0)
        lm = logistic_triplet_loss(mid, xa, xp, xn, cfg)
        if lm > (l1 + l2) / 2.0 + 1e-12:
            convexity_violations += 1
    return lipschitz_violations, smoothness_violations, convexity_violations


def _suite_expansiveness(rng, probes):
    violations = 0
    eta = 1.0 / 32.0  # = 2/alpha at B = 1
    for _ in range(probes):
        d = int(rng.integers(2, 6))
        w1 = _random_metric(rng, d, scale=2.0)
        w2 = _random_metric(rng, d, scale=2.0)
        triplet = tuple(_random_ball(rng, d) for _ in range(3))
        cfg = LossConfig(float(rng.uniform(0, 1)))
        _, _, holds = expansiveness_check(w1, w2, triplet, eta, cfg)
        if not holds:
            violations += 1
    return violations


def _cmd_check(cfg, args) -> int:
    cfg.reject_unread("check")
    started = time.time()
    out = _outdir(args)
    rng = np.random.default_rng(np.random.SeedSequence(int(args.seed)))
    grad_probes = args.grad_probes
    probes = args.probes
    grad_viol, grad_worst = _suite_gradient(rng, grad_probes)
    lip_viol, smooth_viol, convex_viol = _suite_regularity(rng, probes)
    expan_viol = _suite_expansiveness(rng, probes)
    results = [
        (name, count, viol, "pass" if viol == 0 else "FAIL")
        for name, count, viol in (
            ("gradient_vs_finite_difference", grad_probes, grad_viol),
            ("lipschitz_ratio", probes, lip_viol),
            ("smoothness_ratio", probes, smooth_viol),
            ("midpoint_convexity", probes, convex_viol),
            ("expansiveness", probes, expan_viol),
        )
    ]
    write_csv(out / "check.csv", ["suite", "probes", "violations", "status"], results)
    write_manifest(
        out / "manifest.json",
        "check",
        {"seed": args.seed, "probes": probes, "grad_probes": grad_probes},
        started,
    )
    for name, count, viol, status in results:
        print(f"{name}: {status} ({viol}/{count} violations)")
    print(f"worst gradient relative error: {grad_worst:.3e}")
    return EXIT_DOMINATION if any(viol for _, _, viol, _ in results) else EXIT_OK


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValidationError(
            f"bound '{args.which}' needs flags: " + ", ".join("--" + n for n in missing)
        )


def _cmd_bounds(cfg, args) -> int:
    which = args.which
    if which == "bernstein":
        _require(args, ["b", "tau", "delta", "n-plus", "n-minus"])
        value = bernstein_ustat_bound(args.b, args.tau, args.delta, args.n_plus, args.n_minus)
    elif which == "rrm-stability":
        _require(args, ["n-plus", "n-minus", "L", "sigma"])
        value = rrm_stability_bound(args.n_plus, args.n_minus, args.L, args.sigma)
    elif which == "loss-expectation":
        _require(args, ["n-plus", "n-minus", "L", "sigma"])
        value = loss_expectation_bound(args.n_plus, args.n_minus, args.L, args.sigma)
    elif which == "high-prob-gap":
        _require(args, ["n-plus", "n-minus", "gamma", "M", "delta"])
        value = high_probability_gap_bound(
            args.n_plus, args.n_minus, args.gamma, args.M, args.delta
        )
    elif which == "chernoff-hits":
        _require(args, ["T", "n-plus", "n-minus", "delta"])
        value = chernoff_hit_bound(args.T, args.n_plus, args.n_minus, args.delta)
    elif which == "optimistic-epsilon":
        _require(args, ["n-plus", "n-minus", "sigma"])
        value = optimistic_epsilon(args.n_plus, args.n_minus, args.sigma)
    elif which == "optimistic-gap":
        _require(args, ["alpha", "sigma", "n-plus", "n-minus", "emp-risk"])
        eps = args.epsilon
        if eps is None:
            eps = optimistic_epsilon(args.n_plus, args.n_minus, args.sigma)
        value = optimistic_gap_bound(
            eps, args.alpha, args.sigma, args.n_plus, args.n_minus, args.emp_risk
        )
    elif which == "sgd-stability":
        _require(args, ["trace", "n-plus", "n-minus", "slot", "L"])
        trace = read_trace_csv(args.trace, args.n_plus, args.n_minus)
        pool, index = _parse_slot(args.slot)
        value = sgd_stability_bound(trace, SlotRef(pool, index), args.L)
    else:
        raise ValidationError(f"unknown bound {which!r}")
    print(repr(float(value)))
    return EXIT_OK


def _parse_slot(raw: str):
    try:
        kind, index = raw.split(":")
        pool = {"pos": Pool.POSITIVE, "neg": Pool.NEGATIVE}[kind]
        return pool, parse_int(index)
    except (ValueError, KeyError) as exc:
        raise ValidationError(f"slot must look like pos:3 or neg:0, got {raw!r}") from exc


def _add_task_flags(p):
    p.add_argument("--d", type=parse_int, help="feature dimension")
    p.add_argument("--n-plus", dest="n_plus", type=parse_int, help="positive pool size")
    p.add_argument("--n-minus", dest="n_minus", type=parse_int, help="negative pool size")
    p.add_argument("--B", type=float, help="feature norm cap")
    p.add_argument("--separation", type=float, help="distance between pool means")
    p.add_argument("--noise-scale", dest="noise_scale", type=float)
    p.add_argument("--zeta", type=float, help="triplet margin")


def _add_common(p, seed_required=True):
    p.add_argument("--config", help="INI config file")
    p.add_argument("--outdir", default=".", help="output directory")
    p.add_argument("--seed", type=parse_int, required=seed_required, help="root seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripletlab",
        description="Triplet metric learning trainers and a stability/generalization lab.",
    )
    # no abbreviated flags: a flag a subcommand lacks must not pass as the
    # prefix of another (--c of optimistic as --config)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    _add_common(p)
    _add_task_flags(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sgd", help="train with single-triplet SGD")
    _add_common(p)
    _add_task_flags(p)
    p.add_argument("--data", help="dataset CSV (generated when omitted)")
    p.add_argument("--T", type=parse_int, help="step count")
    p.add_argument("--c", type=float, help="step factor (eta = c/sqrt(T))")
    p.set_defaults(func=_cmd_sgd)

    p = sub.add_parser("rrm", help="solve the ridge-regularized risk minimization")
    _add_common(p)
    _add_task_flags(p)
    p.add_argument("--data", help="dataset CSV (generated when omitted)")
    p.add_argument("--lam", type=float, help="ridge weight")
    p.add_argument("--tol", type=float, help="gradient-norm stopping tolerance")
    p.add_argument("--max-iters", dest="max_iters", type=parse_int)
    p.add_argument("--budget", type=parse_int, help="exact-risk triplet cap")
    p.set_defaults(func=_cmd_rrm)

    p = sub.add_parser("stability", help="run a stability estimation protocol")
    _add_common(p)
    _add_task_flags(p)
    p.add_argument("--trainer", choices=["sgd", "rrm", "constant"])
    p.add_argument("--protocol", choices=["uniform", "on-average"])
    p.add_argument("--trials", type=parse_int)
    p.add_argument("--probe-size", dest="probe_size", type=parse_int)
    p.add_argument("--triplet-subsample", dest="triplet_subsample", type=parse_int)
    p.add_argument("--lam", type=float, help="ridge weight for the rrm trainer")
    p.add_argument("--T", type=parse_int, help="steps for the sgd trainer")
    p.add_argument("--c", type=float, help="step factor for the sgd trainer")
    p.set_defaults(func=_cmd_stability)

    for name, fn, help_txt in (
        ("sweep", _cmd_sweep, "generalization-gap learning curve with slope fit"),
        ("excess", _cmd_excess, "excess-risk decomposition against a 10x-data proxy"),
        ("optimistic", _cmd_optimistic, "low-noise regime runs with bound domination"),
    ):
        p = sub.add_parser(name, help=help_txt)
        _add_common(p)
        _add_task_flags(p)
        p.add_argument("--algorithm", choices=["sgd", "rrm", "constant"])
        p.add_argument("--n-grid", dest="n_grid", help="e.g. '32 64 128'")
        p.add_argument("--trials-per-n", dest="trials_per_n", type=parse_int)
        p.add_argument("--population-m", dest="population_m", type=parse_int)
        if name != "optimistic":  # sigma sits on the regime floor there
            p.add_argument("--sigma0", type=float, help="sigma = sigma0 / sqrt(n) for rrm")
            p.add_argument("--c", type=float, help="SGD step factor (eta = c/sqrt(n))")
        p.set_defaults(func=fn)

    p = sub.add_parser("check", help="gradient / regularity / expansiveness property suites")
    _add_common(p)
    p.add_argument("--probes", type=parse_int, default=10_000)
    p.add_argument("--grad-probes", dest="grad_probes", type=parse_int, default=1000)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument(
        "which",
        choices=[
            "bernstein",
            "rrm-stability",
            "loss-expectation",
            "high-prob-gap",
            "chernoff-hits",
            "optimistic-epsilon",
            "optimistic-gap",
            "sgd-stability",
        ],
    )
    p.add_argument("--b", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n-plus", dest="n_plus", type=parse_int)
    p.add_argument("--n-minus", dest="n_minus", type=parse_int)
    p.add_argument("--L", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--M", type=float)
    p.add_argument("--T", type=parse_int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--emp-risk", dest="emp_risk", type=float)
    p.add_argument("--trace", help="trace CSV for the sgd stability bound")
    p.add_argument("--slot", help="differing slot, e.g. pos:3")
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _FileConfig(getattr(args, "config", None))
        return args.func(cfg, args)
    except RegimeViolation as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except SolverFailure as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
