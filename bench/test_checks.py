"""Each output check of the benchmark passes on the program's real outputs and
rejects a deliberately wrong one.

    python3 -m pytest bench/test_checks.py -q
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from tripletlab import (  # noqa: E402
    LossConfig,
    RrmConfig,
    SgdConfig,
    SgdTrainer,
    TaskConfig,
    empirical_risk,
    estimate_uniform_stability,
    gen_task,
    low_noise_task,
    population_risk,
    rrm_train,
    sgd_train,
)


def _features(dataset):
    return dataset.positive_features, dataset.negative_features


@pytest.fixture(scope="module")
def small_fit():
    train, _, _ = low_noise_task(TaskConfig(d=3, n_plus=10, n_minus=9, B=0.5,
                                            separation=0.8, noise_scale=0.15, seed=3))
    lam = 0.2
    w, _ = rrm_train(train, RrmConfig(lam=lam))
    return (*_features(train), lam, w.w)


def test_reference_risk_and_gradient_agree_with_finite_differences():
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(6, 3)), rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 3))
    w = (w + w.T) / 2.0
    grad = checks.risk_gradient(w, X, Y)
    h = 1e-6
    for a, b in ((0, 0), (0, 2), (1, 1)):
        e = np.zeros((3, 3))
        e[a, b] = e[b, a] = h
        fd = (checks.exact_risk(w + e, X, Y) - checks.exact_risk(w - e, X, Y)) / (2 * h)
        expected = grad[a, b] * (1 if a == b else 2)
        assert fd == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_optimistic_check_rejects_a_gap_above_the_bound(small_fit):
    n, sigma, B = 8, 4.0 * (1 + 1e-9), 0.5
    bound = checks.optimistic_bound(n, sigma, B, 0.5)
    assert checks.check_optimistic([(n, sigma)], [(n, 0.5, 0.5 + 0.9 * bound)], [small_fit], B) == []
    failures = checks.check_optimistic([(n, sigma)], [(n, 0.5, 0.5 + 1.1 * bound)], [], B)
    assert len(failures) == 1 and "exceeds the bound" in failures[0]
    below_regime = checks.check_optimistic([(n, 3.9)], [(n, 0.5, 0.5)], [], B)
    assert len(below_regime) == 1 and "below 8 alpha" in below_regime[0]


def test_optimistic_check_rejects_a_fit_worse_than_zero(small_fit):
    X, Y, lam, w = small_fit
    # the pre-fix sign learns the mirrored metric, which scores far above log 2
    failures = checks.check_optimistic([], [], [(X, Y, lam, -w)], 0.5)
    assert len(failures) == 1 and "log 2" in failures[0]


def test_rrm_checks_reject_a_gamma_above_its_bound_and_an_unconverged_fit(small_fit):
    X, Y, lam, w = small_fit
    bound = min(8 / 128, 4 / 128) * 64.0 / (2 * 0.05)
    assert checks.check_rrm_stability([0.0, bound], 128, 128, 1.0, 0.05) == []
    assert len(checks.check_rrm_stability([bound * 1.001], 128, 128, 1.0, 0.05)) == 1
    assert checks.check_rrm_fit(X, Y, lam, w, 1e-8) == []
    assert len(checks.check_rrm_fit(X, Y, lam, w * (1 + 1e-6), 1e-8)) == 1


@pytest.fixture(scope="module")
def sgd_trial():
    cfg = TaskConfig(d=3, n_plus=16, n_minus=16, separation=0.0, noise_scale=0.25, seed=7)
    train, sampler = gen_task(cfg)
    w, trace = sgd_train(train, SgdConfig(T=16, c=1.0 / 32.0, seed=9))
    emp = empirical_risk(w, train, LossConfig(0.0))
    pop = population_risk(w, sampler, 20_000, LossConfig(0.0))
    X, Y = _features(train)
    return dict(X=X, Y=Y, trace=(trace.i, trace.j, trace.k, trace.eta), w=w.w,
                emp=emp.value, pop=pop.value, pop_se=pop.std_error,
                law=(cfg.separation, cfg.noise_scale, cfg.B), m=20_000)


def _sgd_failures(trial, **wrong):
    args = {**trial, **wrong}
    return checks.check_sgd_trial(
        args["X"], args["Y"], args["trace"], args["w"], args["emp"], args["pop"],
        args["pop_se"], args["law"], args["m"], np.random.default_rng(1),
    )


def test_sgd_trial_check_passes_on_the_program_outputs(sgd_trial):
    assert _sgd_failures(sgd_trial) == []


def test_sgd_trial_check_rejects_a_risk_scored_with_the_pre_fix_sign(sgd_trial):
    w_replay = checks.sgd_replay(sgd_trial["X"], sgd_trial["Y"], *sgd_trial["trace"])
    pre_fix = checks.exact_risk(w_replay, sgd_trial["X"], sgd_trial["Y"],
                                loss=lambda m: np.logaddexp(0.0, -m))
    failures = _sgd_failures(sgd_trial, emp=pre_fix)
    assert len(failures) == 1 and "empirical risk" in failures[0]


def test_sgd_trial_check_rejects_a_wrong_w_and_a_wrong_population_risk(sgd_trial):
    wrong_w = _sgd_failures(sgd_trial, w=sgd_trial["w"] * 1.001)
    assert len(wrong_w) == 1 and "replaying" in wrong_w[0]
    shifted = sgd_trial["pop"] + 10 * sgd_trial["pop_se"]
    wrong_pop = _sgd_failures(sgd_trial, pop=shifted)
    assert len(wrong_pop) == 1 and "population risk" in wrong_pop[0]


def test_sgd_stability_check_rejects_a_gamma_above_and_a_bound_off_the_hit_grid():
    T, c = 400, 1.0 / 32.0
    _, sampler = gen_task(TaskConfig(d=3, n_plus=10, n_minus=10, seed=2))
    report = estimate_uniform_stability(
        SgdTrainer(SgdConfig(T=T, c=c, seed=4)), sampler, 10, 10, trials=3,
        probe_size=50, cfg=LossConfig(0.0),
    )
    eta = c / math.sqrt(T)
    gammas, bounds = report.per_trial_gamma, report.per_trial_bound
    assert checks.check_sgd_stability(gammas, bounds, 1.0, eta, T) == []
    above = [b * 1.01 + 1e-12 for b in bounds]
    assert len(checks.check_sgd_stability(above, bounds, 1.0, eta, T)) == 3
    per_hit = 2.0 * 64.0 * eta
    off_grid = checks.check_sgd_stability([0.0], [2.5 * per_hit], 1.0, eta, T)
    too_many = checks.check_sgd_stability([0.0], [(T + 1) * per_hit], 1.0, eta, T)
    assert len(off_grid) == 1 and len(too_many) == 1
