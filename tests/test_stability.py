import csv
import math

import numpy as np
import pytest

from tripletlab import risk
from tripletlab.core import Pool, SlotRef, ValidationError, write_records
from tripletlab.loss import LossConfig, MetricParams, logistic_triplet_loss
from tripletlab.optim import RrmConfig, SgdConfig, TrainTrace
from tripletlab.risk import InvalidCounts, InvalidDelta, SampleTooLarge
from tripletlab.stability import (
    ConstantTrainer,
    InvalidInputs,
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
    probe_max_loss_diff,
    rrm_stability_bound,
    sgd_stability_bound,
)
from tripletlab.synth import TaskConfig, gen_task

CFG = LossConfig()


def small_task(n_plus=5, n_minus=4, seed=7):
    return gen_task(TaskConfig(d=3, n_plus=n_plus, n_minus=n_minus, seed=seed))


# --- probe max ---


def brute_probe_max(w_a, w_b, dataset, fresh, cfg):
    diffs = [0.0]
    absmax = [0.0]
    Xa, Xp, Xn = fresh
    for a, p, n in zip(Xa, Xp, Xn):
        la = logistic_triplet_loss(w_a, a, p, n, cfg)
        lb = logistic_triplet_loss(w_b, a, p, n, cfg)
        diffs.append(abs(la - lb))
        absmax.extend([abs(la), abs(lb)])
    for i, zi in enumerate(dataset.positives):
        for j, zj in enumerate(dataset.positives):
            if i == j:
                continue
            for zk in dataset.negatives:
                la = logistic_triplet_loss(w_a, zi, zj, zk, cfg)
                lb = logistic_triplet_loss(w_b, zi, zj, zk, cfg)
                diffs.append(abs(la - lb))
                absmax.extend([abs(la), abs(lb)])
    return max(diffs), max(absmax)


def test_probe_max_matches_brute_force():
    train, sampler = small_task()
    fresh = sampler.draw(17)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    w_a = MetricParams((a + a.T) / 2.0)
    w_b = MetricParams((b + b.T) / 2.0)
    got_diff, got_abs = probe_max_loss_diff(w_a, w_b, train, fresh, CFG)
    want_diff, want_abs = brute_probe_max(w_a, w_b, train, fresh, CFG)
    assert got_diff == pytest.approx(want_diff, rel=1e-12)
    assert got_abs == pytest.approx(want_abs, rel=1e-12)


def test_probe_max_identical_metrics_is_zero():
    train, sampler = small_task()
    w = MetricParams.identity(3)
    diff, absmax = probe_max_loss_diff(w, w, train, sampler.draw(5), CFG)
    assert diff == 0.0
    assert absmax > 0.0


def test_probe_max_empty_fresh_uses_training_triplets():
    train, _ = small_task()
    empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    w_a = MetricParams.identity(3)
    w_b = MetricParams.zeros(3)
    diff, absmax = probe_max_loss_diff(w_a, w_b, train, empty, CFG)
    want_diff, want_abs = brute_probe_max(w_a, w_b, train, empty, CFG)
    assert diff == pytest.approx(want_diff, rel=1e-12)
    assert absmax == pytest.approx(want_abs, rel=1e-12)


# --- the trainer protocol ---


def test_sgd_fit_ignores_warm():
    # paired SGD runs must both start at 0 on one seed, warm or not
    train, _ = small_task(n_plus=6, n_minus=5, seed=3)
    trainer = SgdTrainer(SgdConfig(T=300, c=1.0 / 32.0, seed=4))
    w_cold, trace_cold = trainer.fit(train)
    w_warm, trace_warm = trainer.fit(train, warm=MetricParams.identity(3, 5.0))
    assert w_warm.w.tobytes() == w_cold.w.tobytes()
    for name in ("i", "j", "k", "eta"):
        assert getattr(trace_warm, name).tobytes() == getattr(trace_cold, name).tobytes()


def test_rrm_fit_warm_and_cold_agree_within_the_certificate():
    train, _ = small_task(n_plus=8, n_minus=6, seed=12)
    trainer = RrmTrainer(RrmConfig(lam=0.05))
    w_cold, iters_cold = trainer.fit(train)
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((3, 3))
    w_warm, iters_warm = trainer.fit(train, warm=MetricParams(raw + raw.T))
    assert iters_cold >= 1 and iters_warm >= 1
    assert np.linalg.norm(w_warm.w - w_cold.w) <= trainer.cfg.tol / (2.0 * trainer.cfg.lam)


def test_trainers_report_their_bound_and_parameter():
    train, _ = small_task()
    slot, L = SlotRef(Pool.NEGATIVE, 2), 8.0
    constant = ConstantTrainer(MetricParams.identity(3))
    w, record = constant.fit(train)
    assert (w, record) == (constant.w, None)
    assert constant.stability_bound(record, slot, 5, 4, L) is None
    assert constant.sigma_or_T == 0.0
    sgd = SgdTrainer(SgdConfig(T=50, c=1.0 / 32.0, seed=2))
    _, trace = sgd.fit(train)
    assert sgd.stability_bound(trace, slot, 5, 4, L) == sgd_stability_bound(trace, slot, L)
    assert sgd.sigma_or_T == 50.0
    rrm = RrmTrainer(RrmConfig(lam=0.25))
    _, iterations = rrm.fit(train)
    assert rrm.stability_bound(iterations, slot, 5, 4, L) == rrm_stability_bound(5, 4, L, 0.5)
    assert rrm.sigma_or_T == 0.5


# --- uniform protocol ---


def test_uniform_constant_trainer_has_zero_gamma():
    _, sampler = small_task()
    trainer = ConstantTrainer(MetricParams.identity(3))
    rep = estimate_uniform_stability(trainer, sampler, 5, 4, trials=3, probe_size=20, cfg=CFG)
    assert rep.protocol == "uniform_sup"
    assert rep.trainer_kind == "constant"
    assert rep.gamma_hat == 0.0
    assert rep.gamma_bound is None
    assert rep.dominated() is None
    assert rep.per_trial_gamma == (0.0, 0.0, 0.0)
    assert rep.M_hat > 0.0


def test_uniform_rrm_records_closed_form_bound():
    _, sampler = small_task()
    trainer = RrmTrainer(RrmConfig(lam=0.5))
    rep = estimate_uniform_stability(trainer, sampler, 6, 5, trials=4, probe_size=30, cfg=CFG)
    L = 8.0 * sampler.B**2
    want = rrm_stability_bound(6, 5, L, trainer.cfg.sigma)
    assert rep.per_trial_bound == (want,) * 4
    assert rep.gamma_bound == pytest.approx(want)
    assert rep.sigma_or_T == trainer.cfg.sigma
    assert rep.dominated() is True
    assert len(rep.per_trial_gamma) == 4
    assert rep.gamma_hat == max(rep.per_trial_gamma)


def test_uniform_sgd_bound_varies_with_hits():
    _, sampler = small_task()
    trainer = SgdTrainer(SgdConfig(T=40, c=1.0 / 32.0, seed=11))
    rep = estimate_uniform_stability(trainer, sampler, 5, 4, trials=5, probe_size=20, cfg=CFG)
    assert rep.trainer_kind == "sgd"
    assert rep.sigma_or_T == 40.0
    assert rep.dominated() is True
    assert len(set(rep.per_trial_bound)) > 1  # hit counts differ between trials


def test_uniform_validation():
    _, sampler = small_task()
    trainer = ConstantTrainer(MetricParams.zeros(3))
    with pytest.raises(ValidationError):
        estimate_uniform_stability(trainer, sampler, 5, 4, trials=0, probe_size=5, cfg=CFG)
    with pytest.raises(ValidationError):
        estimate_uniform_stability(trainer, sampler, 5, 4, trials=2, probe_size=0, cfg=CFG)


def test_a_probe_set_larger_than_physical_memory_is_refused_before_any_fit(monkeypatch):
    _, sampler = small_task()
    need = 3 * 20 * 3 * 8  # three probe_size-by-d arrays of doubles at d = 3
    fits = []

    class Recording(ConstantTrainer):
        def fit(self, dataset, warm=None):
            fits.append(dataset)
            return super().fit(dataset, warm)

    trainer = Recording(MetricParams.zeros(3))
    monkeypatch.setattr(risk, "physical_memory", lambda: need - 1)
    with pytest.raises(SampleTooLarge, match=(
        f"a probe set of m = 20 triplets at d = 3 needs {need} bytes "
        f"\\(3\\*m\\*d\\*8\\), more than the {need - 1} bytes"
    )):
        estimate_uniform_stability(trainer, sampler, 5, 4, trials=2, probe_size=20, cfg=CFG)
    assert fits == []
    monkeypatch.setattr(risk, "physical_memory", lambda: need)  # exactly at the limit
    estimate_uniform_stability(trainer, sampler, 5, 4, trials=2, probe_size=20, cfg=CFG)
    assert len(fits) == 4


def test_uniform_deterministic_given_sampler_seed():
    trainer = RrmTrainer(RrmConfig(lam=1.0))
    reps = []
    for _ in range(2):
        _, sampler = small_task(seed=21)
        reps.append(
            estimate_uniform_stability(trainer, sampler, 5, 4, trials=3, probe_size=10, cfg=CFG)
        )
    assert reps[0].per_trial_gamma == reps[1].per_trial_gamma
    assert reps[0].M_hat == reps[1].M_hat


# --- on-average protocol ---


def test_on_average_reports_the_signed_mean_of_its_subsample():
    _, sampler = small_task(n_plus=3, n_minus=2, seed=5)
    trainer = RrmTrainer(RrmConfig(lam=1.0))
    rep = estimate_on_average_stability(
        trainer, sampler, 3, 2, trials=2, triplet_subsample=12, cfg=CFG
    )
    assert rep.protocol == "on_average"
    assert rep.probe_size == 12  # the subsample, drawn anew in every trial
    assert rep.gamma_hat == abs(rep.signed_mean)
    assert rep.gamma_bound is None
    assert rep.std_error >= 0.0
    assert math.isfinite(rep.signed_mean)


def test_on_average_sampled_mode():
    _, sampler = small_task(n_plus=6, n_minus=4, seed=6)
    trainer = ConstantTrainer(MetricParams.identity(3))
    rep = estimate_on_average_stability(trainer, sampler, 6, 4, trials=2, triplet_subsample=7, cfg=CFG)
    # constant trainer: retraining changes nothing, every signed diff is zero
    assert rep.gamma_hat == 0.0
    assert rep.signed_mean == 0.0
    assert rep.probe_size == 7


def test_on_average_validation():
    _, sampler = small_task()
    trainer = ConstantTrainer(MetricParams.zeros(3))
    with pytest.raises(ValidationError):
        estimate_on_average_stability(trainer, sampler, 5, 4, trials=0, triplet_subsample=3, cfg=CFG)
    with pytest.raises(ValidationError):
        estimate_on_average_stability(trainer, sampler, 5, 4, trials=1, triplet_subsample=0, cfg=CFG)


def test_an_on_average_subsample_larger_than_memory_is_refused_before_any_fit(monkeypatch):
    _, sampler = small_task()
    need = 3 * 20 * 8  # three int64 index arrays of triplet_subsample entries
    fits = []

    class Recording(ConstantTrainer):
        def fit(self, dataset, warm=None):
            fits.append(dataset)
            return super().fit(dataset, warm)

    trainer = Recording(MetricParams.zeros(3))
    monkeypatch.setattr(risk, "physical_memory", lambda: need - 1)
    with pytest.raises(SampleTooLarge, match=(
        f"a triplet subsample of m = 20 triplets needs {need} bytes "
        f"\\(3 int64 index arrays, 3\\*m\\*8\\), more than the {need - 1} bytes"
    )):
        estimate_on_average_stability(trainer, sampler, 5, 4, trials=2, triplet_subsample=20,
                                      cfg=CFG)
    assert fits == []
    monkeypatch.setattr(risk, "physical_memory", lambda: need)  # exactly at the limit
    estimate_on_average_stability(trainer, sampler, 5, 4, trials=2, triplet_subsample=20, cfg=CFG)
    assert len(fits) == 2 * 21


def test_on_average_within_uniform_envelope():
    # the signed on-average change can never exceed the sup-protocol bound scale
    _, sampler = small_task(n_plus=4, n_minus=3, seed=13)
    trainer = RrmTrainer(RrmConfig(lam=0.2))
    rep = estimate_on_average_stability(
        trainer, sampler, 4, 3, trials=3, triplet_subsample=36, cfg=CFG
    )
    L = 8.0 * sampler.B**2
    assert abs(rep.signed_mean) <= 3.0 * rrm_stability_bound(4, 3, L, trainer.cfg.sigma)


# --- report and CSV ---


def test_report_rejects_negative_gamma():
    with pytest.raises(ValidationError):
        StabilityReport(
            protocol="uniform_sup",
            trainer_kind="constant",
            n_plus=4,
            n_minus=3,
            sigma_or_T=0.0,
            gamma_hat=-1.0,
            gamma_bound=None,
            M_hat=0.0,
            trials=1,
            probe_size=1,
        )


def test_write_stability_csv(tmp_path):
    _, sampler = small_task()
    trainer = RrmTrainer(RrmConfig(lam=0.5))
    rep = estimate_uniform_stability(
        trainer, sampler, 5, 4, trials=2, probe_size=10, cfg=CFG, seed=99
    )
    const = ConstantTrainer(MetricParams.zeros(3))
    rep2 = estimate_uniform_stability(const, sampler, 5, 4, trials=1, probe_size=5, cfg=CFG)
    path = tmp_path / "stab.csv"
    write_records(path, StabilityReport, [rep, rep2])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "protocol",
        "trainer_kind",
        "n_plus",
        "n_minus",
        "sigma_or_T",
        "gamma_hat",
        "gamma_bound",
        "M_hat",
        "trials",
        "probe_size",
        "seed",
        "signed_mean",
        "std_error",
    ]
    assert rows[1][0] == "uniform_sup"
    assert float(rows[1][5]) == rep.gamma_hat
    assert float(rows[1][6]) == rep.gamma_bound
    assert rows[1][10] == "99"
    assert rows[2][6] == ""  # no closed-form bound for the constant trainer
    assert rows[2][10] == ""
    assert rows[1][11:] == ["", ""]  # the uniform protocol takes no signed estimate


def test_write_stability_csv_keeps_the_signed_estimate(tmp_path):
    _, sampler = small_task(n_plus=3, n_minus=2, seed=5)
    rep = estimate_on_average_stability(
        RrmTrainer(RrmConfig(lam=1.0)), sampler, 3, 2, trials=2, triplet_subsample=12, cfg=CFG
    )
    assert rep.signed_mean != 0.0 and rep.std_error > 0.0
    path = tmp_path / "stab.csv"
    write_records(path, StabilityReport, [rep])
    with open(path, newline="") as fh:
        record = dict(zip(*list(csv.reader(fh))))
    assert float(record["signed_mean"]) == rep.signed_mean
    assert float(record["std_error"]) == rep.std_error
    assert float(record["gamma_hat"]) == abs(rep.signed_mean)


# --- closed-form bound evaluators ---


def test_rrm_stability_bound_hand_value():
    # min(8/100, 4/50) = 0.08; 0.08 * 64 / 0.1 = 51.2
    assert rrm_stability_bound(100, 50, 8.0, 0.1) == pytest.approx(51.2, rel=1e-12)
    want = min(8.0 / 100, 4.0 / 50) * 8.0**2 / 0.1
    assert rrm_stability_bound(100, 50, 8.0, 0.1) == pytest.approx(want, rel=1e-15)


def test_rrm_stability_bound_validation():
    with pytest.raises(InvalidInputs):
        rrm_stability_bound(0, 50, 8.0, 0.1)
    with pytest.raises(InvalidInputs):
        rrm_stability_bound(100, 0, 8.0, 0.1)
    with pytest.raises(InvalidInputs):
        rrm_stability_bound(100, 50, 0.0, 0.1)
    with pytest.raises(InvalidInputs):
        rrm_stability_bound(100, 50, 8.0, 0.0)


def test_sgd_stability_bound_counts_hits():
    trace = TrainTrace(
        i=[0, 2, 1, 3],
        j=[1, 0, 2, 2],
        k=[0, 1, 0, 1],
        eta=[0.5, 0.25, 0.125, 0.0625],
        n_plus=4,
        n_minus=2,
    )
    L = 2.0
    # slot pos:0 is touched at steps 1 (i) and 2 (j)
    assert sgd_stability_bound(trace, SlotRef(Pool.POSITIVE, 0), L) == pytest.approx(
        2.0 * L * L * (0.5 + 0.25)
    )
    # slot neg:1 is touched at steps 2 and 4
    assert sgd_stability_bound(trace, SlotRef(Pool.NEGATIVE, 1), L) == pytest.approx(
        2.0 * L * L * (0.25 + 0.0625)
    )
    # a slot never drawn gives a zero bound
    assert sgd_stability_bound(trace, SlotRef(Pool.POSITIVE, 3), L) == pytest.approx(
        2.0 * L * L * 0.0625
    )
    with pytest.raises(InvalidInputs):
        sgd_stability_bound(trace, SlotRef(Pool.POSITIVE, 0), 0.0)


def test_loss_expectation_bound_hand_value():
    # 4 sqrt(6/96) = 4 sqrt(3/48) = 1, so the min is 1 and L^2/sigma = 1
    assert loss_expectation_bound(96, 48, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    want = min(4.0 * math.sqrt(6.0 / 10), 4.0 * math.sqrt(3.0 / 7)) * 4.0 / 0.3
    assert loss_expectation_bound(10, 7, 2.0, 0.3) == pytest.approx(want, rel=1e-15)
    with pytest.raises(InvalidInputs):
        loss_expectation_bound(96, 48, 1.0, 0.0)


def test_high_probability_gap_bound_hand_value():
    # gamma = 0 kills every stability term; log(e/delta) = 3 at delta = e^-2;
    # 1/sqrt(100) + 2/sqrt(100) = 0.3, so the value is e * 8 * 0.3 * sqrt(3)
    got = high_probability_gap_bound(101, 100, 0.0, 1.0, math.exp(-2))
    assert got == pytest.approx(math.e * 8.0 * 0.3 * math.sqrt(3.0), rel=1e-12)
    assert got == pytest.approx(11.299685366837506, rel=1e-12)


def test_high_probability_gap_bound_gamma_term():
    delta = math.exp(-2)
    base = high_probability_gap_bound(101, 100, 0.0, 1.0, delta)
    got = high_probability_gap_bound(101, 100, 0.5, 1.0, delta)
    ceil_log2 = math.ceil(math.log2(100 * 100**2))
    want = base + 6.0 * 0.5 + math.e * 24.0 * math.sqrt(2.0) * 0.5 * (ceil_log2 + 2) * 3.0
    assert got == pytest.approx(want, rel=1e-12)


def test_high_probability_gap_bound_validation():
    with pytest.raises(InvalidDelta):
        high_probability_gap_bound(101, 100, 0.0, 1.0, 0.5)  # 0.5 > 1/e
    with pytest.raises(InvalidDelta):
        high_probability_gap_bound(101, 100, 0.0, 1.0, 0.0)
    with pytest.raises(InvalidCounts):
        high_probability_gap_bound(1, 100, 0.0, 1.0, 0.1)
    with pytest.raises(InvalidInputs):
        high_probability_gap_bound(101, 100, -0.1, 1.0, 0.1)


def test_chernoff_hit_bound_hand_value():
    # T/n+ = 10, T/(2 n-) = 10: mean 20, scale 10
    got = chernoff_hit_bound(1000, 100, 50, 0.05)
    want = (1.0 + math.sqrt(3.0 * math.log(20.0) / 10.0)) * 20.0
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(38.96016542191758, rel=1e-12)


def test_chernoff_hit_bound_validation():
    with pytest.raises(InvalidInputs):
        chernoff_hit_bound(0, 100, 50, 0.05)
    with pytest.raises(InvalidDelta):
        chernoff_hit_bound(1000, 100, 50, 1.0)
    with pytest.raises(InvalidDelta):
        chernoff_hit_bound(1000, 100, 50, 0.0)


def test_optimistic_epsilon_matches_formula():
    n_plus, n_minus, sigma = 100, 100, 0.25
    got = optimistic_epsilon(n_plus, n_minus, sigma)
    want = math.sqrt(
        3.0
        * n_plus**2
        * (n_plus - 1)
        * n_minus**2
        * sigma**2
        / (4608.0 * n_minus**2 + 256.0 * n_plus**2)
    )
    assert got == pytest.approx(want, rel=1e-15)
    with pytest.raises(InvalidCounts):
        optimistic_epsilon(1, 100, 0.25)
    with pytest.raises(InvalidInputs):
        optimistic_epsilon(100, 100, 0.0)


def test_optimistic_gap_bound_hand_value():
    # eps = 10, alpha = 1, sigma = 1, n+ = n- = 100, mean emp risk = 1:
    # 1/10 + 1536*11/(10^4 * 99) + 256*11/(3 * 99 * 10^4)
    got = optimistic_gap_bound(10.0, 1.0, 1.0, 100, 100, 1.0)
    want = 0.1 + 1536.0 * 11.0 / (100**2 * 99) + 256.0 * 11.0 / (3.0 * 99 * 100**2)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(0.11801481481481482, rel=1e-12)
    # the bound is multiplicative in the empirical risk
    assert optimistic_gap_bound(10.0, 1.0, 1.0, 100, 100, 0.5) == pytest.approx(got * 0.5)


def test_optimistic_gap_bound_regime_guard():
    with pytest.raises(RegimeViolation):
        optimistic_gap_bound(10.0, 1.0, 0.05, 100, 100, 1.0)  # 0.05 * 100 < 8
    # RegimeViolation is a ValidationError so callers can catch either
    assert issubclass(RegimeViolation, ValidationError)


def test_optimistic_gap_bound_validation():
    with pytest.raises(InvalidInputs):
        optimistic_gap_bound(0.0, 1.0, 1.0, 100, 100, 1.0)
    with pytest.raises(InvalidCounts):
        optimistic_gap_bound(10.0, 1.0, 1.0, 1, 100, 1.0)
    with pytest.raises(InvalidInputs):
        optimistic_gap_bound(10.0, 1.0, 1.0, 100, 100, -0.5)
