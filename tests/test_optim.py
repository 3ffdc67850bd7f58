import math

import numpy as np
import pytest

from scipy.linalg import cho_factor, cho_solve

from tripletlab import optim
from tripletlab.core import Pool, SlotRef, make_dataset, Sample
from tripletlab.loss import (
    LossConfig,
    MetricParams,
    regularity_constants,
    triplet_losses_rowwise,
    triplet_margins_rowwise,
)
from tripletlab.optim import (
    BudgetExceeded,
    MaxItersExceeded,
    RrmConfig,
    SgdConfig,
    StepSizeTooLarge,
    TrainTrace,
    expansiveness_check,
    regularized_objective,
    rrm_train,
    sampling_uniformity_check,
    sgd_train,
    write_trace_csv,
)
from tripletlab.risk import empirical_risk, exact_mean_loss
from tripletlab.synth import TaskConfig, gen_task, low_noise_task


def two_point_dataset():
    # only i=0,j=1 / i=1,j=0 pairs exist; anchor differences are degenerate on
    # purpose so single SGD steps are hand-checkable
    return make_dataset(
        [Sample([1.0, 0.0], 1, Pool.POSITIVE), Sample([1.0, 0.0], 1, Pool.POSITIVE)],
        [Sample([0.0, 0.0], 0, Pool.NEGATIVE)],
    )


# --- SGD ---


def test_single_step_update_hand_value():
    # x+ = x~+ = (1,0), x- = (0,0), w1 = 0, eta = 0.1, loss phi(-m):
    # grad = -phi'(0) * (0 - dn dn^T) = [[-0.5,0],[0,0]], w2 = -0.1 * grad.
    # eta = 0.1 exceeds the 2/alpha step guard at B = 1, so the arithmetic is
    # checked through the update formula itself.
    from tripletlab.loss import logistic_triplet_grad

    a = p = np.array([1.0, 0.0])
    n = np.array([0.0, 0.0])
    g = logistic_triplet_grad(MetricParams.zeros(2), a, p, n, LossConfig(0.0))
    w2 = MetricParams.zeros(2).w - 0.1 * g
    assert np.allclose(w2, [[0.05, 0.0], [0.0, 0.0]], atol=1e-15)


def test_sgd_single_step_in_guard():
    # same dataset through the trainer at the largest admissible step: the one
    # drawn triplet is forced, so w2 = -(1/32) * [[-0.5,0],[0,0]]
    ds = two_point_dataset()
    w, trace = sgd_train(ds, SgdConfig(T=1, c=1 / 32, seed=0))
    assert trace.T == 1
    assert trace.eta[0] == pytest.approx(1 / 32)  # c / sqrt(T) with T = 1
    assert np.allclose(w.w, [[1 / 64, 0.0], [0.0, 0.0]], atol=1e-15)


def test_sgd_zero_steps_returns_zero_metric():
    ds = two_point_dataset()
    w, trace = sgd_train(ds, SgdConfig(T=0, c=0.01, seed=0))
    assert np.array_equal(w.w, np.zeros((2, 2)))
    assert trace.T == 0


def test_sgd_step_size_guard():
    ds = two_point_dataset()  # B = 1 -> eta_max = 1/32
    with pytest.raises(StepSizeTooLarge):
        sgd_train(ds, SgdConfig(T=1, c=0.5, seed=0))
    # at the boundary the guard must not fire
    sgd_train(ds, SgdConfig(T=1, c=1 / 32, seed=0))


def test_sgd_deterministic_in_seed():
    cfg = TaskConfig(d=3, n_plus=10, n_minus=10, seed=4)
    train, _ = gen_task(cfg)
    w1, t1 = sgd_train(train, SgdConfig(T=100, c=1 / 32, seed=5))
    w2, t2 = sgd_train(train, SgdConfig(T=100, c=1 / 32, seed=5))
    assert np.array_equal(w1.w, w2.w)
    assert np.array_equal(t1.i, t2.i) and np.array_equal(t1.k, t2.k)
    w3, _ = sgd_train(train, SgdConfig(T=100, c=1 / 32, seed=6))
    assert not np.array_equal(w1.w, w3.w)


def test_sgd_iterate_stays_symmetric():
    cfg = TaskConfig(d=4, n_plus=8, n_minus=8, seed=7)
    train, _ = gen_task(cfg)
    w, _ = sgd_train(train, SgdConfig(T=50, c=1 / 32, seed=1))
    assert np.array_equal(w.w, w.w.T)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(T=-1, c=0.1, seed=0)
    with pytest.raises(ValueError):
        SgdConfig(T=10, c=0.0, seed=0)
    with pytest.raises(ValueError):
        SgdConfig(T=10, c=0.1, seed=0, zeta=-1.0)


# --- trace ---


def test_trace_validates_bounds_and_pairs():
    ok = dict(
        i=np.array([0, 1]),
        j=np.array([1, 0]),
        k=np.array([0, 0]),
        eta=np.array([0.1, 0.1]),
        n_plus=2,
        n_minus=1,
    )
    TrainTrace(**ok)
    with pytest.raises(ValueError):
        TrainTrace(**{**ok, "j": np.array([0, 0])})  # i == j
    with pytest.raises(ValueError):
        TrainTrace(**{**ok, "k": np.array([0, 1])})  # k out of range


def test_trace_hit_masks_and_counts():
    trace = TrainTrace(
        i=np.array([0, 1, 2]),
        j=np.array([1, 0, 1]),
        k=np.array([0, 1, 0]),
        eta=np.array([0.1, 0.2, 0.3]),
        n_plus=3,
        n_minus=2,
    )
    pos1 = trace.hit_mask(SlotRef(Pool.POSITIVE, 1))
    assert pos1.tolist() == [True, True, True]
    pos2 = trace.hit_mask(SlotRef(Pool.POSITIVE, 2))
    assert pos2.tolist() == [False, False, True]
    neg1 = trace.hit_mask(SlotRef(Pool.NEGATIVE, 1))
    assert neg1.tolist() == [False, True, False]
    assert trace.indicator_hits(SlotRef(Pool.NEGATIVE, 0)) == 2
    with pytest.raises(ValueError):
        trace.hit_mask(SlotRef(Pool.POSITIVE, 3))


def test_trace_csv_columns(tmp_path):
    cfg = TaskConfig(d=2, n_plus=4, n_minus=3, seed=1)
    train, _ = gen_task(cfg)
    _, trace = sgd_train(train, SgdConfig(T=5, c=0.01, seed=2))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, slot=SlotRef(Pool.POSITIVE, 0))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,i,j,k,eta,hit_slot_flag"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"  # steps are 1-based
    assert first[5] in ("0", "1")


def test_sampling_uniformity_joint_cells():
    cfg = TaskConfig(d=2, n_plus=4, n_minus=3, seed=3)
    train, _ = gen_task(cfg)
    _, trace = sgd_train(train, SgdConfig(T=100_000, c=0.01, seed=11))
    stat, p = sampling_uniformity_check(trace, train)
    assert p > 0.001


def test_sampling_uniformity_detects_bias():
    # a trace that always reuses triplet (0, 1, 0) is wildly non-uniform
    T = 5000
    trace = TrainTrace(
        i=np.zeros(T, dtype=np.int64),
        j=np.ones(T, dtype=np.int64),
        k=np.zeros(T, dtype=np.int64),
        eta=np.full(T, 0.01),
        n_plus=4,
        n_minus=3,
    )
    cfg = TaskConfig(d=2, n_plus=4, n_minus=3, seed=3)
    train, _ = gen_task(cfg)
    stat, p = sampling_uniformity_check(trace, train)
    assert p < 1e-10


# --- RRM ---


def test_rrm_config_validation():
    with pytest.raises(ValueError):
        RrmConfig(lam=0.0)
    with pytest.raises(ValueError):
        RrmConfig(lam=0.1, tol=0.0)
    with pytest.raises(ValueError):
        RrmConfig(lam=0.1, method="cg")
    assert RrmConfig(lam=0.25).sigma == 0.5


def test_rrm_stationarity_certificate():
    cfg = TaskConfig(d=3, n_plus=10, n_minus=8, seed=9)
    train, _ = gen_task(cfg)
    rrm = RrmConfig(lam=0.1, tol=1e-10)
    w, iters = rrm_train(train, rrm)
    # finite-difference directional derivatives of the objective vanish
    rng = np.random.default_rng(0)
    base = regularized_objective(w, train, rrm)
    for _ in range(5):
        raw = rng.standard_normal((3, 3))
        direction = (raw + raw.T) / 2
        direction /= np.linalg.norm(direction)
        h = 1e-6
        bumped = MetricParams(w.w + h * direction)
        slope = (regularized_objective(bumped, train, rrm) - base) / h
        assert abs(slope) < 1e-5


def test_rrm_newton_and_gd_agree():
    cfg = TaskConfig(d=2, n_plus=8, n_minus=8, seed=10)
    train, _ = gen_task(cfg)
    w_n, _ = rrm_train(train, RrmConfig(lam=0.2, tol=1e-10))
    w_g, _ = rrm_train(train, RrmConfig(lam=0.2, tol=1e-8, method="gd", max_iters=200_000))
    assert np.linalg.norm(w_n.w - w_g.w) < 1e-6


def test_rrm_learns_well_ordered_metric_on_low_noise_task():
    # The surrogate must agree with the 0-1 loss it stands in for: minimizing
    # it on a nearly separable task has to order fresh triplets correctly.
    # Scoring phi(+margin) instead made RRM learn the mirror image -w, with a
    # violation rate of 0.991.
    cfg = TaskConfig(d=3, n_plus=32, n_minus=32, B=0.5, separation=0.8,
                     noise_scale=0.15, seed=1)
    train, sampler, _ = low_noise_task(cfg)
    w, _ = rrm_train(train, RrmConfig(lam=0.01))
    Xa, Xp, Xn = sampler.draw(200_000)
    margins = triplet_margins_rowwise(w.w, Xa, Xp, Xn, 0.0)
    assert float((margins >= 0.0).mean()) <= 0.05
    # a well-ordered triplet (margin < 0) scores below phi(0) = log 2, a
    # violated one (margin >= 0) at or above it
    losses = triplet_losses_rowwise(w.w, Xa, Xp, Xn, 0.0)
    assert np.all(losses[margins < 0.0] < math.log(2.0))
    assert np.all(losses[margins >= 0.0] >= math.log(2.0))


def newton_rescoring_every_point(train, cfg, w0):
    """The damped Newton solve with each iterate swept afresh and every line
    search point, the full step included, scored loss-only."""
    X, Y, d = train.positive_features, train.negative_features, train.d
    w = w0.w.copy()
    for it in range(cfg.max_iters + 1):
        risk_val, grad_r, hess_r = optim._risk_parts(w, X, Y, cfg.zeta, hessian=True)
        f_val = risk_val + cfg.lam * float(np.sum(w * w))
        grad = grad_r + 2.0 * cfg.lam * w
        if float(np.linalg.norm(grad)) <= cfg.tol:
            return w, it
        hess = hess_r + 2.0 * cfg.lam * np.eye(d * d)
        s = cho_solve(cho_factor(hess), -grad.reshape(-1)).reshape(d, d)
        s = (s + s.T) / 2.0
        slope = float(np.vdot(grad, s))
        t, w_try = 1.0, w + s
        for _ in range(60):
            f_try = exact_mean_loss(w_try, X, Y, cfg.zeta) + cfg.lam * float(np.sum(w_try**2))
            if f_try <= f_val + 0.25 * t * slope:
                break
            t *= 0.5
            w_try = w + t * s
        w = w_try
    raise AssertionError("reference solve did not converge")


@pytest.mark.parametrize("w0_scale, rejected", [(0.0, 0), (-20.0, 1)])
def test_rrm_newton_scores_each_candidate_once(monkeypatch, w0_scale, rejected):
    train, _ = gen_task(TaskConfig(d=2, n_plus=8, n_minus=8, seed=3))
    cfg = RrmConfig(lam=0.01)
    w0 = MetricParams.identity(2, w0_scale)
    w_ref, it_ref = newton_rescoring_every_point(train, cfg, w0)
    calls = {"_risk_parts": 0, "exact_mean_loss": 0}
    for name in calls:
        def counted(*args, _fn=getattr(optim, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(optim, name, counted)
    w, it = rrm_train(train, cfg, w0=w0)
    assert it == it_ref
    assert np.array_equal(w.w, w_ref)
    # one sweep per iterate plus one per rejected full step; each rejected
    # step here is accepted after one halving, scored loss-only
    assert calls == {"_risk_parts": it + 1 + rejected, "exact_mean_loss": rejected}


def test_rrm_huge_lambda_pins_solution_near_zero():
    cfg = TaskConfig(d=3, n_plus=6, n_minus=6, seed=11)
    train, _ = gen_task(cfg)
    lam = 1e6
    w, _ = rrm_train(train, RrmConfig(lam=lam))
    # strong convexity displacement: ||w*|| <= L/(2 lam) with L = 8 B^2 <= 8
    assert w.norm() <= 8.0 / (2 * lam) + 1e-12


def test_rrm_warm_start_matches_cold_start():
    cfg = TaskConfig(d=2, n_plus=8, n_minus=6, seed=12)
    train, _ = gen_task(cfg)
    rrm = RrmConfig(lam=0.05, tol=1e-10)
    w_cold, _ = rrm_train(train, rrm)
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((2, 2))
    w0 = MetricParams((raw + raw.T) / 2)
    w_warm, _ = rrm_train(train, rrm, w0=w0)
    assert np.linalg.norm(w_cold.w - w_warm.w) < 1e-7


def test_rrm_max_iters_carries_best_iterate():
    cfg = TaskConfig(d=2, n_plus=8, n_minus=6, seed=13)
    train, _ = gen_task(cfg)
    with pytest.raises(MaxItersExceeded) as err:
        rrm_train(train, RrmConfig(lam=0.05, tol=1e-14, method="gd", max_iters=3))
    assert err.value.iterations == 3
    assert isinstance(err.value.w, MetricParams)
    assert err.value.grad_norm > 0


def test_rrm_budget_guard():
    cfg = TaskConfig(d=2, n_plus=20, n_minus=20, seed=14)
    train, _ = gen_task(cfg)  # 20*19*20 = 7600 triplets
    with pytest.raises(BudgetExceeded):
        rrm_train(train, RrmConfig(lam=0.1, budget=1000))


def test_regularized_objective_decomposition():
    cfg = TaskConfig(d=2, n_plus=6, n_minus=5, seed=15)
    train, _ = gen_task(cfg)
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((2, 2))
    w = MetricParams((raw + raw.T) / 2)
    rrm = RrmConfig(lam=0.3)
    risk = empirical_risk(w, train, LossConfig(rrm.zeta)).value
    assert regularized_objective(w, train, rrm) == pytest.approx(
        risk + 0.3 * w.norm() ** 2, rel=1e-12
    )


def test_rrm_objective_beats_random_points():
    cfg = TaskConfig(d=2, n_plus=8, n_minus=8, seed=16)
    train, _ = gen_task(cfg)
    rrm = RrmConfig(lam=0.1)
    w_star, _ = rrm_train(train, rrm)
    best = regularized_objective(w_star, train, rrm)
    rng = np.random.default_rng(3)
    for _ in range(10):
        raw = 0.5 * rng.standard_normal((2, 2))
        w = MetricParams((raw + raw.T) / 2)
        assert regularized_objective(w, train, rrm) >= best - 1e-10


# --- expansiveness ---


def test_expansiveness_contracts_at_safe_step():
    rng = np.random.default_rng(4)
    eta = 1.0 / 32.0  # 2/alpha at B = 1
    cfg = LossConfig(0.0)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        raw1, raw2 = rng.standard_normal((2, d, d))
        w1 = MetricParams((raw1 + raw1.T) / 2)
        w2 = MetricParams((raw2 + raw2.T) / 2)
        triplet = tuple(v / max(1.0, np.linalg.norm(v)) for v in rng.standard_normal((3, d)))
        lhs, rhs, holds = expansiveness_check(w1, w2, triplet, eta, cfg)
        assert holds
        assert lhs <= rhs + 1e-12


def test_expansiveness_rejects_reckless_step():
    rng = np.random.default_rng(5)
    cfg = LossConfig(0.0)
    raw1, raw2 = rng.standard_normal((2, 2, 2))
    w1 = MetricParams((raw1 + raw1.T) / 2)
    w2 = MetricParams((raw2 + raw2.T) / 2)
    triplet = tuple(v / np.linalg.norm(v) for v in rng.standard_normal((3, 2)))
    with pytest.raises(StepSizeTooLarge):
        expansiveness_check(w1, w2, triplet, 10.0 / 64.0 * 5, cfg)


def test_expansiveness_identical_iterates():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((2, 2))
    w = MetricParams((raw + raw.T) / 2)
    triplet = tuple(rng.standard_normal((3, 2)))
    lhs, rhs, holds = expansiveness_check(w, w, triplet, 1e-3, LossConfig(0.0))
    assert lhs == 0.0 and rhs == 0.0 and holds
