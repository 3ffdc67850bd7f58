import warnings

import numpy as np
import pytest

from tripletlab import loss as loss_module
from tripletlab.core import feature_bound
from tripletlab.loss import LossConfig, zero_one_triplet_loss
from tripletlab.synth import (
    InvalidConfig,
    TaskConfig,
    _draw_pool,
    gen_task,
    low_noise_task,
)


def test_task_config_validation():
    with pytest.raises(InvalidConfig):
        TaskConfig(d=0, n_plus=4, n_minus=4)
    with pytest.raises(InvalidConfig):
        TaskConfig(d=2, n_plus=1, n_minus=4)
    with pytest.raises(InvalidConfig):
        TaskConfig(d=2, n_plus=4, n_minus=0)
    with pytest.raises(InvalidConfig):
        TaskConfig(d=2, n_plus=4, n_minus=4, B=0.0)
    with pytest.raises(InvalidConfig):
        TaskConfig(d=2, n_plus=4, n_minus=4, noise_scale=-1.0)


def test_gen_task_shapes_and_pools():
    cfg = TaskConfig(d=3, n_plus=10, n_minus=7, seed=1)
    train, sampler = gen_task(cfg)
    assert train.n_plus == 10 and train.n_minus == 7 and train.d == 3
    assert train.positives.shape == (10, 3) and train.negatives.shape == (7, 3)
    assert train.positive_labels == (1,) * 10 and train.negative_labels == (0,) * 7
    assert sampler.d == 3


def test_gen_task_respects_feature_bound():
    cfg = TaskConfig(d=4, n_plus=50, n_minus=50, B=0.8, noise_scale=2.0, seed=2)
    train, sampler = gen_task(cfg)
    assert feature_bound(train) <= 0.8 + 1e-12
    a, p, n = sampler.draw(1000)
    for block in (a, p, n):
        assert np.all(np.linalg.norm(block, axis=1) <= 0.8 + 1e-12)


def test_gen_task_deterministic_in_seed():
    cfg = TaskConfig(d=2, n_plus=5, n_minus=5, seed=9)
    train1, _ = gen_task(cfg)
    train2, _ = gen_task(cfg)
    assert train1 == train2
    train3, _ = gen_task(TaskConfig(d=2, n_plus=5, n_minus=5, seed=10))
    assert train1 != train3


def test_train_and_sampler_streams_are_independent():
    cfg = TaskConfig(d=2, n_plus=5, n_minus=5, seed=9)
    _, sampler1 = gen_task(cfg)
    train2, sampler2 = gen_task(cfg)
    # drawing from one sampler must not perturb the other stream
    sampler1.draw(100)
    a1, _, _ = sampler1.draw(3)
    a2, _, _ = sampler2.draw(3)
    assert not np.array_equal(a1, a2)
    # and the training set never depends on sampler usage
    train1_again, _ = gen_task(cfg)
    assert train1_again == train2


def test_sampler_fork_gives_distinct_reproducible_streams():
    cfg = TaskConfig(d=2, n_plus=4, n_minus=4, seed=3)
    _, sampler = gen_task(cfg)
    f1 = sampler.fork()
    f2 = sampler.fork()
    a1, _, _ = f1.draw(4)
    a2, _, _ = f2.draw(4)
    assert not np.array_equal(a1, a2)
    # forking is itself deterministic: rebuild and replay
    _, sampler_b = gen_task(cfg)
    b1 = sampler_b.fork().draw(4)[0]
    assert np.array_equal(a1, b1)


def test_sampler_pool_means_differ_by_separation():
    cfg = TaskConfig(d=3, n_plus=4, n_minus=4, separation=1.0, noise_scale=0.01, seed=4)
    _, sampler = gen_task(cfg)
    a, _, n = sampler.draw(4000)
    gap = np.abs(a.mean(axis=0) - n.mean(axis=0))
    assert gap[0] == pytest.approx(1.0, abs=0.02)
    assert np.all(gap[1:] < 0.02)


def test_sampler_draw_dataset_matches_draws():
    cfg = TaskConfig(d=2, n_plus=6, n_minus=5, seed=8)
    _, sampler = gen_task(cfg)
    ds = sampler.fork().draw_dataset(6, 5)
    assert ds.n_plus == 6 and ds.n_minus == 5 and ds.d == 2


def test_low_noise_task_reference_metric_orders_triplets():
    cfg = TaskConfig(d=3, n_plus=8, n_minus=8, B=0.5, separation=0.8, noise_scale=0.008, seed=5)
    train, sampler, w_ref = low_noise_task(cfg)
    loss_cfg = LossConfig(0.0)
    a, p, n = sampler.draw(2000)
    violations = sum(
        zero_one_triplet_loss(w_ref, a[t], p[t], n[t], loss_cfg) for t in range(2000)
    )
    assert violations / 2000 < 0.01


def test_separation_zero_pools_indistinguishable():
    cfg = TaskConfig(d=2, n_plus=4, n_minus=4, separation=0.0, noise_scale=0.25, seed=6)
    _, sampler = gen_task(cfg)
    from tripletlab.loss import MetricParams

    w = MetricParams.identity(2)
    loss_cfg = LossConfig(0.0)
    a, p, n = sampler.draw(20000)
    rate = (
        sum(zero_one_triplet_loss(w, a[t], p[t], n[t], loss_cfg) for t in range(20000))
        / 20000
    )
    assert rate == pytest.approx(0.5, abs=0.02)


def test_low_noise_task_rejects_zero_separation():
    cfg = TaskConfig(d=2, n_plus=4, n_minus=4, separation=0.0, seed=7)
    with pytest.raises(InvalidConfig):
        low_noise_task(cfg)


def _draw_pool_oracle(rng, mu, noise_scale, B, m, d):
    """The unblocked draw: one (m, d) normal draw, rows over B rescaled onto the sphere."""
    arr = mu + noise_scale * rng.standard_normal((m, d))
    norms = np.linalg.norm(arr, axis=1)
    over = norms > B
    if np.any(over):
        arr[over] *= (B / norms[over])[:, None]
    return arr


@pytest.mark.parametrize("d", range(1, 11))
def test_draw_pool_is_bit_identical_to_the_unblocked_draw(d):
    mu = np.zeros(d)
    mu[0] = 0.4
    B = float(np.sqrt(0.16 + d * 0.3**2))  # near the typical norm: some rows are clipped
    full = loss_module.BLOCK // d
    for m in (1, full, 3 * full + 5):  # one row, one full block, blocks and a remainder
        rng_got, rng_want = np.random.default_rng(100 * d + m), np.random.default_rng(100 * d + m)
        got = _draw_pool(rng_got, mu, 0.3, B, m, d)
        want = _draw_pool_oracle(rng_want, mu, 0.3, B, m, d)
        assert np.array_equal(got, want), (d, m)
        assert rng_got.random() == rng_want.random()  # the generator sits at the same place
        if m > 1:
            clipped = np.mean(np.linalg.norm(want, axis=1) > (1 - 1e-12) * B)
            assert 0.1 < clipped < 0.9


def test_draw_pool_zero_rows_and_exact_cap():
    # noise 0 and mu 0 give zero rows (B / 0 = inf, kept as 0); noise 0 and a
    # mean outside the ball give rows clipped exactly as the oracle does
    for mu0 in (0.0, 3.0):
        mu = np.array([mu0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning escapes
            got = _draw_pool(np.random.default_rng(1), mu, 0.0, 1.0, 9, 2)
        want = _draw_pool_oracle(np.random.default_rng(1), mu, 0.0, 1.0, 9, 2)
        assert np.array_equal(got, want)


def test_draws_do_not_depend_on_the_block_size(monkeypatch):
    cfg = TaskConfig(d=3, n_plus=20, n_minus=9, B=0.5, separation=0.8, noise_scale=0.3, seed=4)

    def outputs():
        train, sampler = gen_task(cfg)
        return train.positive_features, train.negative_features, *sampler.draw(101)

    whole = outputs()
    for block in (70, 1):  # blocks of 23 rows, then of one row
        monkeypatch.setattr(loss_module, "BLOCK", block)
        for got, want in zip(outputs(), whole):
            assert np.array_equal(got, want)
