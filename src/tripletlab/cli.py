"""tripletlab command-line interface.

Subcommands: gen, sgd, rrm, stability, sweep, excess, optimistic, check,
bounds. Experiment commands require --seed and write fixed-name CSVs plus a
manifest.json into --outdir; values come from an optional INI config file
(sections [task], [loss], [sgd], [rrm], [sweep], [stability]) with every flag
overriding the file. A file key or a flag the subcommand does not read is a
config error (exit 2), not a silent no-op.

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
from dataclasses import asdict
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
    write_records,
)
from .lab import (
    ExcessCell,
    OptimisticCell,
    SweepCell,
    SweepConfig,
    SweepRow,
    run_excess_risk_experiment,
    run_optimistic_experiment,
    run_rate_sweep,
    write_manifest,
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
from .risk import RiskEstimate, bernstein_ustat_bound, empirical_risk, exact_budget
from .stability import (
    ConstantTrainer,
    RegimeViolation,
    RrmTrainer,
    SgdTrainer,
    StabilityReport,
    chernoff_hit_bound,
    estimate_on_average_stability,
    estimate_uniform_stability,
    high_probability_gap_bound,
    loss_expectation_bound,
    optimistic_epsilon,
    optimistic_gap_bound,
    rrm_stability_bound,
    sgd_stability_bound,
)
from .synth import TaskConfig, gen_task

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMINATION = 3
EXIT_REGIME = 4


# args that no config lookup reads: the common flags and check's probe counts
_UNCHECKED_ARGS = {"command", "func", "config", "outdir", "seed", "data", "probes", "grad_probes"}


class _FileConfig:
    """Typed lookups of a subcommand's settings: a given flag, else the INI
    file's value, else the default.

    The flag of [section] key is the one whose dest equals key up to case
    ([sgd] t is --T, [task] b is --B, [task] n_plus is --n-plus). Every key
    looked up is recorded, so that reject_unread can refuse a file key or a
    given flag that no lookup of the subcommand read (a misspelt key, or a
    setting the subcommand has no use for). [DEFAULT] is an ordinary section.
    """

    def __init__(self, args):
        self.parser = configparser.ConfigParser(default_section="")
        self.read = set()
        self.args = args
        self.flags = {
            dest.lower(): dest
            for dest, value in vars(args).items()
            if value is not None and dest not in _UNCHECKED_ARGS
        }
        path = getattr(args, "config", None)
        if path is not None and not self.parser.read(path):
            raise ValidationError(f"config file not found: {path}")

    def get(self, section, key, cast=str, default=None):
        self.read.add((section, key))
        if key in self.flags:
            return getattr(self.args, self.flags[key])
        if self.parser.has_option(section, key):
            raw = self.parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        return default

    def reject_unread(self, command: str) -> None:
        """Raise ValidationError naming every file key, else every given
        flag, that no lookup has read; called once the subcommand has built
        its config, before it writes anything."""
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
        read_keys = {key for _, key in self.read}
        ignored = ["--" + dest.replace("_", "-") for key, dest in self.flags.items()
                   if key not in read_keys]
        if ignored:
            raise ValidationError(f"flags that `{command}` does not read: " + ", ".join(ignored))


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


def _task_config(cfg: _FileConfig, seed: int, pools=True) -> TaskConfig:
    """The [task] of a subcommand. A sweep's task is a shape template whose
    pool sizes every cell overrides (pools=False): it reads none and keeps 4."""
    return TaskConfig(
        d=cfg.get("task", "d", parse_int, 3),
        n_plus=cfg.get("task", "n_plus", parse_int, 32) if pools else 4,
        n_minus=cfg.get("task", "n_minus", parse_int, 32) if pools else 4,
        B=cfg.get("task", "b", float, 1.0),
        separation=cfg.get("task", "separation", float, 1.0),
        noise_scale=cfg.get("task", "noise_scale", float, 0.25),
        seed=seed,
    )


def _loss_config(cfg: _FileConfig) -> LossConfig:
    return LossConfig(zeta=cfg.get("loss", "zeta", float, 0.0))


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split_seed(seed: int, count: int):
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _load_or_generate_dataset(cfg, args):
    """(training set, algorithm seed): the --data CSV, or a fresh task drawn
    from the first of --seed's two children; the second seeds the algorithm."""
    task_seed, algo_seed = _split_seed(args.seed, 2)
    if args.data:
        return read_dataset_csv(args.data), algo_seed
    return gen_task(_task_config(cfg, task_seed))[0], algo_seed


def _cmd_gen(cfg, args) -> int:
    started = time.time()
    task = _task_config(cfg, args.seed)
    cfg.reject_unread("gen")
    out = _outdir(args)
    train, _ = gen_task(task)
    write_dataset_csv(train, out / "dataset.csv")
    write_manifest(out / "manifest.json", "gen", task, started)
    print(f"wrote {out / 'dataset.csv'} ({train.n_plus} positives, {train.n_minus} negatives)")
    return EXIT_OK


def _cmd_sgd(cfg, args) -> int:
    started = time.time()
    dataset, algo_seed = _load_or_generate_dataset(cfg, args)
    loss_cfg = _loss_config(cfg)
    T = cfg.get("sgd", "t", parse_int)
    if T is None:
        raise ValidationError("sgd needs T (flag --T or [sgd] t in the config file)")
    c = cfg.get("sgd", "c", float)
    if c is None:
        c = regularity_constants(feature_bound(dataset)).eta_max
    sgd_cfg = SgdConfig(T=T, c=c, seed=algo_seed, zeta=loss_cfg.zeta)
    cfg.reject_unread("sgd")
    w, trace = sgd_train(dataset, sgd_cfg)
    out = _outdir(args)
    write_metric_csv(w, out / "model.csv")
    write_trace_csv(trace, out / "trace.csv")
    est = empirical_risk(w, dataset, loss_cfg)
    write_records(out / "metrics.csv", RiskEstimate, [est])
    write_manifest(out / "manifest.json", "sgd", sgd_cfg, started)
    print(f"wrote {out / 'model.csv'}; train risk {est.value:.6f} ({est.mode.value})")
    return EXIT_OK


def _cmd_rrm(cfg, args) -> int:
    started = time.time()
    dataset, _ = _load_or_generate_dataset(cfg, args)
    loss_cfg = _loss_config(cfg)
    lam = cfg.get("rrm", "lam", float)
    if lam is None:
        raise ValidationError("rrm needs lam (flag --lam or [rrm] lam in the config file)")
    rrm_cfg = RrmConfig(
        lam=lam,
        tol=cfg.get("rrm", "tol", float, 1e-8),
        max_iters=cfg.get("rrm", "max_iters", parse_int, 10_000),
        zeta=loss_cfg.zeta,
        budget=cfg.get("rrm", "budget", parse_int, exact_budget(dataset.n_plus, dataset.n_minus)),
    )
    cfg.reject_unread("rrm")
    w, iterations = rrm_train(dataset, rrm_cfg)
    out = _outdir(args)
    write_metric_csv(w, out / "model.csv")
    est = empirical_risk(w, dataset, loss_cfg, budget=rrm_cfg.budget)
    write_records(out / "metrics.csv", RiskEstimate, [est], trail={"iterations": iterations})
    write_manifest(out / "manifest.json", "rrm", rrm_cfg, started)
    print(
        f"wrote {out / 'model.csv'}; {iterations} iterations, "
        f"train risk {est.value:.6f}, objective certificate tol={rrm_cfg.tol:g}"
    )
    return EXIT_OK


def _cmd_stability(cfg, args) -> int:
    started = time.time()
    task_seed, algo_seed = _split_seed(args.seed, 2)
    task = _task_config(cfg, task_seed)
    loss_cfg = _loss_config(cfg)
    trainer_name = cfg.get("stability", "trainer", str, "rrm")
    if trainer_name == "rrm":
        lam = cfg.get("rrm", "lam", float)
        if lam is None:
            raise ValidationError("stability with the rrm trainer needs --lam")
        budget = exact_budget(task.n_plus, task.n_minus)
        trainer = RrmTrainer(RrmConfig(lam=lam, zeta=loss_cfg.zeta, budget=budget))
    elif trainer_name == "sgd":
        T = cfg.get("sgd", "t", parse_int)
        if T is None:
            raise ValidationError("stability with the sgd trainer needs --T")
        c = cfg.get("sgd", "c", float)
        if c is None:
            c = regularity_constants(task.B).eta_max
        trainer = SgdTrainer(SgdConfig(T=T, c=c, seed=algo_seed, zeta=loss_cfg.zeta))
    elif trainer_name == "constant":
        trainer = ConstantTrainer(MetricParams.zeros(task.d))
    else:
        raise ValidationError(f"unknown trainer {trainer_name!r}")
    protocol = cfg.get("stability", "protocol", str, "uniform")
    trials = cfg.get("stability", "trials", parse_int, 20)
    if protocol == "uniform":
        estimate = estimate_uniform_stability
        size = cfg.get("stability", "probe_size", parse_int, 2000)
    elif protocol == "on-average":
        estimate = estimate_on_average_stability
        size = cfg.get("stability", "triplet_subsample", parse_int, 20)
    else:
        raise ValidationError(f"unknown protocol {protocol!r} (uniform or on-average)")
    cfg.reject_unread("stability")
    _, sampler = gen_task(task)
    report = estimate(
        trainer, sampler, task.n_plus, task.n_minus, trials, size, loss_cfg, seed=args.seed
    )
    out = _outdir(args)
    write_records(out / "stability.csv", StabilityReport, [report])
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
    """The SweepConfig of sweep, excess or optimistic, reading only what the
    run uses: c is SGD's step factor, sigma0 sets the sigma of RRM, and
    optimistic trains RRM with sigma on the regime floor."""
    if command == "optimistic":
        algorithm, rule = "rrm", {"sigma_rule": "optimistic"}
    else:
        algorithm, rule = cfg.get("sweep", "algorithm", str, "sgd"), {}
        if algorithm == "sgd":
            rule["c"] = cfg.get("sweep", "c", float)
        if algorithm == "rrm":
            rule["sigma0"] = cfg.get("sweep", "sigma0", float, 1.0)
    sweep_cfg = SweepConfig(
        algorithm=algorithm,
        n_grid=_parse_grid(cfg.get("sweep", "n_grid", str, "32 64 128")),
        trials_per_n=cfg.get("sweep", "trials_per_n", parse_int, 20),
        task=_task_config(cfg, 0, pools=False),
        zeta=_loss_config(cfg).zeta,
        population_m=cfg.get("sweep", "population_m", parse_int, 100_000),
        seed=args.seed,
        **rule,
    )
    cfg.reject_unread(command)
    return sweep_cfg


def _write_sweep_manifest(out, command, sweep_cfg, started, report, **record) -> None:
    """The manifest of sweep, excess or optimistic: the run's record, the
    slope fit of its cells, each value null where there is none (NaN), and
    any further record entries."""
    write_manifest(
        out / "manifest.json", command, sweep_cfg, started,
        workers=report.workers, population_sample=report.population_sample,
        phase_seconds=report.phase_seconds,
        slope_fit={k: v if np.isfinite(v) else None for k, v in asdict(report.fit).items()},
        **record,
    )


def _cmd_sweep(cfg, args) -> int:
    started = time.time()
    sweep_cfg = _sweep_config(cfg, args, "sweep")
    report = run_rate_sweep(sweep_cfg)
    out = _outdir(args)
    algorithm = {"algorithm": report.algorithm}
    write_records(out / "sweep_rows.csv", SweepRow, report.rows, lead=algorithm)
    write_records(out / "sweep_summary.csv", SweepCell, report.cells, trail=asdict(report.fit))
    _write_sweep_manifest(out, "sweep", sweep_cfg, started, report)
    print(
        f"wrote {out / 'sweep_rows.csv'}; slope={report.fit.slope:.4f} "
        f"(stderr {report.fit.slope_stderr:.4f}, r^2 {report.fit.r_squared:.4f})"
    )
    return EXIT_OK


def _cmd_excess(cfg, args) -> int:
    started = time.time()
    sweep_cfg = _sweep_config(cfg, args, "excess")
    report = run_excess_risk_experiment(sweep_cfg)
    out = _outdir(args)
    reference = {"reference_risk": report.reference.value}
    write_records(out / "excess_rows.csv", SweepRow, report.rows,
                  lead={"algorithm": report.algorithm}, trail=reference)
    write_records(out / "excess_cells.csv", ExcessCell, report.cells,
                  trail={**reference, **asdict(report.fit)})
    _write_sweep_manifest(
        out, "excess", sweep_cfg, started, report,
        reference_minimizer={
            "risk": report.reference.value, "risk_std_error": report.reference.std_error,
            "iterations": report.iterations, "w": report.w_star.w.tolist(),
        },
    )
    print(
        f"wrote {out / 'excess_cells.csv'}; reference risk {report.reference.value:.6f}, "
        f"slope={report.fit.slope:.4f} (stderr {report.fit.slope_stderr:.4f})"
    )
    return EXIT_OK


def _cmd_optimistic(cfg, args) -> int:
    started = time.time()
    sweep_cfg = _sweep_config(cfg, args, "optimistic")
    report = run_optimistic_experiment(sweep_cfg)
    out = _outdir(args)
    write_records(
        out / "optimistic_cells.csv", OptimisticCell, report.cells, trail=asdict(report.fit)
    )
    algorithm = {"algorithm": sweep_cfg.algorithm}
    write_records(out / "optimistic_rows.csv", SweepRow, report.trial_rows, lead=algorithm)
    _write_sweep_manifest(out, "optimistic", sweep_cfg, started, report)
    print(
        f"wrote {out / 'optimistic_cells.csv'}; slope={report.fit.slope:.4f}, "
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
    grad_probes = args.grad_probes
    probes = args.probes
    for flag, count in (("--probes", probes), ("--grad-probes", grad_probes)):
        if count < 0:
            raise ValidationError(f"{flag} must be >= 0, got {count}")
    out = _outdir(args)
    rng = np.random.default_rng(np.random.SeedSequence(int(args.seed)))
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


def _optimistic_gap(alpha, sigma, n_plus, n_minus, emp_risk, epsilon):
    if epsilon is None:
        epsilon = optimistic_epsilon(n_plus, n_minus, sigma)
    return optimistic_gap_bound(epsilon, alpha, sigma, n_plus, n_minus, emp_risk)


def _sgd_stability(trace_csv, n_plus, n_minus, slot, L):
    trace = read_trace_csv(trace_csv, n_plus, n_minus)
    try:
        kind, index = slot.split(":")
        pool = {"pos": Pool.POSITIVE, "neg": Pool.NEGATIVE}[kind]
        index = parse_int(index)
    except (ValueError, KeyError) as exc:
        raise ValidationError(f"slot must look like pos:3 or neg:0, got {slot!r}") from exc
    return sgd_stability_bound(trace, SlotRef(pool, index), L)


# each bound of `bounds`: its function and the flags it takes, in argument
# order; every flag is required but --epsilon
_BOUNDS = {
    "bernstein": (bernstein_ustat_bound, "b tau delta n-plus n-minus"),
    "rrm-stability": (rrm_stability_bound, "n-plus n-minus L sigma"),
    "loss-expectation": (loss_expectation_bound, "n-plus n-minus L sigma"),
    "high-prob-gap": (high_probability_gap_bound, "n-plus n-minus gamma M delta"),
    "chernoff-hits": (chernoff_hit_bound, "T n-plus n-minus delta"),
    "optimistic-epsilon": (optimistic_epsilon, "n-plus n-minus sigma"),
    "optimistic-gap": (_optimistic_gap, "alpha sigma n-plus n-minus emp-risk epsilon"),
    "sgd-stability": (_sgd_stability, "trace n-plus n-minus slot L"),
}


def _cmd_bounds(cfg, args) -> int:
    which = cfg.get("bounds", "which")  # a lookup, like the flags, so reject_unread passes it
    bound, flags = _BOUNDS[which]
    values = {flag: cfg.get("bounds", flag.replace("-", "_").lower()) for flag in flags.split()}
    missing = ["--" + f for f, v in values.items() if v is None and f != "epsilon"]
    if missing:
        raise ValidationError(f"bound '{which}' needs flags: " + ", ".join(missing))
    cfg.reject_unread(f"bounds {which}")
    print(repr(float(bound(*values.values()))))
    return EXIT_OK


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
        ("excess", _cmd_excess, "excess risk over the population sample's minimizer"),
        ("optimistic", _cmd_optimistic, "low-noise regime runs with bound domination"),
    ):
        p = sub.add_parser(name, help=help_txt)
        _add_common(p)
        _add_task_flags(p)
        p.add_argument("--n-grid", dest="n_grid", help="e.g. '32 64 128'")
        p.add_argument("--trials-per-n", dest="trials_per_n", type=parse_int)
        p.add_argument("--population-m", dest="population_m", type=parse_int)
        if name != "optimistic":  # RRM, with sigma on the regime floor there
            p.add_argument("--algorithm", choices=["sgd", "rrm", "constant"])
            p.add_argument("--sigma0", type=float, help="sigma = sigma0 / sqrt(n) for rrm")
            p.add_argument("--c", type=float, help="SGD step factor (eta = c/sqrt(n))")
        p.set_defaults(func=fn)

    p = sub.add_parser("check", help="gradient / regularity / expansiveness property suites")
    _add_common(p)
    p.add_argument("--probes", type=parse_int, default=10_000)
    p.add_argument("--grad-probes", dest="grad_probes", type=parse_int, default=1000)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("which", choices=_BOUNDS)
    # --trace names a trace CSV and --slot a differing slot, such as pos:3
    kinds = {"n-plus": parse_int, "n-minus": parse_int, "T": parse_int, "trace": str, "slot": str}
    for flag in dict.fromkeys(" ".join(flags for _, flags in _BOUNDS.values()).split()):
        p.add_argument("--" + flag, type=kinds.get(flag, float))
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _FileConfig(args)
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
