"""The four benchmark workloads: shortened forms of frozen acceptance configs.

Each workload turns a seed into the inputs of one round, runs the round
through the library's public runners (the calls the `tripletlab optimistic`,
`sweep` and `stability` subcommands make), and checks the round's outputs
with `checks`. A round is deterministic, so every round of a run repeats the
same operations on the same inputs; `recorded` names the library functions
whose calls the first round keeps for the checks.
"""
from __future__ import annotations

import math

import numpy as np

from tripletlab import (
    LossConfig,
    RrmConfig,
    RrmTrainer,
    SgdConfig,
    SgdTrainer,
    SweepConfig,
    TaskConfig,
)
# Rounds call the runners through their modules, so that the tracer's
# wrappers (installed on the modules) see these calls too.
from tripletlab import lab, optim, stability, synth

import checks


def split_seed(seed: int):
    """(task seed, algorithm seed), split the way the CLI splits --seed."""
    children = np.random.SeedSequence(int(seed)).spawn(2)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _features(dataset):
    return dataset.positive_features, dataset.negative_features


class OptimisticMC:
    """Criterion 11's low-noise RRM sweep with one trial per n."""

    name = "optimistic-mc"
    trials_per_round = 5
    recorded = ((optim, "rrm_train"),)

    def inputs(self, seed: int):
        return SweepConfig(
            algorithm="rrm",
            sigma_rule="optimistic",
            n_grid=(8, 16, 32, 64, 128),
            trials_per_n=1,
            task=TaskConfig(d=3, n_plus=4, n_minus=4, B=0.5, separation=0.8,
                            noise_scale=0.15, seed=0),
            population_m=1_000_000,
            seed=seed,
        )

    def run(self, cfg):
        return lab.run_optimistic_experiment(cfg)

    def check(self, cfg, report, calls):
        fits = [
            (*_features(args[0]), args[1].lam, result[0].w) for args, _, result in calls
        ]
        if len(fits) != self.trials_per_round:
            return [f"expected {self.trials_per_round} RRM fits, saw {len(fits)}"]
        return checks.check_optimistic(
            [(c.n, c.sigma) for c in report.cells],
            [(n, emp, pop) for n, _, _, emp, pop, _ in report.rows],
            fits,
            cfg.task.B,
        )


class RrmStability:
    """Criterion 6's n = 128 cells: one uniform-replacement trial per lam."""

    name = "rrm-stability"
    trials_per_round = 2
    recorded = ((optim, "rrm_train"),)
    n = 128
    lams = (0.05, 0.5)

    def inputs(self, seed: int):
        task_seed, _ = split_seed(seed)
        task = TaskConfig(d=3, n_plus=self.n, n_minus=self.n, seed=task_seed)
        budget = max(2_000_000, self.n * (self.n - 1) * self.n)
        return task, [RrmTrainer(RrmConfig(lam=lam, budget=budget)) for lam in self.lams]

    def run(self, inputs):
        task, trainers = inputs
        reports = []
        for trainer in trainers:
            _, sampler = synth.gen_task(task)
            reports.append(
                stability.estimate_uniform_stability(
                    trainer, sampler, self.n, self.n, trials=1, probe_size=500,
                    cfg=LossConfig(0.0),
                )
            )
        return reports

    def check(self, inputs, reports, calls):
        task, trainers = inputs
        failures = []
        for trainer, report in zip(trainers, reports):
            failures += checks.check_rrm_stability(
                report.per_trial_gamma, self.n, self.n, task.B, trainer.cfg.lam
            )
        if len(calls) != 2 * len(trainers):
            failures.append(f"expected {2 * len(trainers)} RRM fits, saw {len(calls)}")
        for args, _, result in calls:
            cfg = args[1]
            failures += checks.check_rrm_fit(*_features(args[0]), cfg.lam, result[0].w, cfg.tol)
        return failures


class SgdSweep:
    """Criterion 10's SGD rate sweep with one trial per n."""

    name = "sgd-sweep"
    trials_per_round = 5
    recorded = ((optim, "sgd_train"),)
    # n = 256 is the smallest grid size whose exact sweep spans several anchor
    # blocks, and its triplet sum stays cheap to recompute here.
    checked_n = 256

    def inputs(self, seed: int):
        return SweepConfig(
            algorithm="sgd",
            n_grid=(32, 64, 128, 256, 512),
            trials_per_n=1,
            c=1.0 / 32.0,
            task=TaskConfig(d=3, n_plus=4, n_minus=4, separation=0.0, noise_scale=0.25,
                            seed=0),
            population_m=100_000,
            seed=seed,
        )

    def run(self, cfg):
        return lab.run_rate_sweep(cfg)

    def check(self, cfg, report, calls):
        (row,) = [r for r in report.rows if r.n == self.checked_n]
        (call,) = [c for c in calls if c[0][0].n_plus == self.checked_n]
        (dataset, sgd_cfg), _, (w, trace) = call
        if sgd_cfg.seed != row.algo_seed:
            return [f"n={row.n}: recorded SGD run does not belong to the checked trial"]
        law = (cfg.task.separation, cfg.task.noise_scale, cfg.task.B)
        rng = np.random.default_rng([cfg.seed, row.n])
        return checks.check_sgd_trial(
            *_features(dataset),
            (trace.i, trace.j, trace.k, trace.eta),
            w.w,
            row.emp.value,
            row.pop.value,
            row.pop.std_error,
            law,
            cfg.population_m,
            rng,
        )


class SgdStability:
    """Criterion 5's SGD uniform-stability protocol with T raised to 20000."""

    name = "sgd-stability"
    trials_per_round = 2
    recorded = ()
    n = 50
    T = 20_000
    c = 1.0 / 32.0

    def inputs(self, seed: int):
        task_seed, algo_seed = split_seed(seed)
        task = TaskConfig(d=3, n_plus=self.n, n_minus=self.n, seed=task_seed)
        return task, SgdTrainer(SgdConfig(T=self.T, c=self.c, seed=algo_seed))

    def run(self, inputs):
        task, trainer = inputs
        _, sampler = synth.gen_task(task)
        return stability.estimate_uniform_stability(
            trainer, sampler, self.n, self.n, trials=self.trials_per_round,
            probe_size=1000, cfg=LossConfig(0.0),
        )

    def check(self, inputs, report, calls):
        task, _ = inputs
        return checks.check_sgd_stability(
            report.per_trial_gamma, report.per_trial_bound, task.B,
            self.c / math.sqrt(self.T), self.T,
        )


WORKLOADS = {w.name: w for w in (OptimisticMC(), RrmStability(), SgdSweep(), SgdStability())}
