import csv
import math
import time
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import chi2, chisquare

from tripletlab import loss as loss_module
from tripletlab import optim
from tripletlab import risk as risk_module
from tripletlab.core import Pool, SlotRef, TripletDataset
from tripletlab.loss import (
    LossConfig,
    MetricParams,
    logistic_triplet_grad,
    row_scores,
    triplet_losses_rowwise,
)
from tripletlab.optim import (
    BudgetExceeded,
    LineSearchExhausted,
    MaxItersExceeded,
    RrmConfig,
    SgdConfig,
    SolverFailure,
    SolveTooLarge,
    StepSizeTooLarge,
    TraceTooLarge,
    TrainTrace,
    expansiveness_check,
    read_trace_csv,
    regularized_objective,
    rrm_train,
    sgd_train,
    write_trace_csv,
)
from tripletlab.risk import empirical_risk, exact_mean_loss, swept_mean_loss
from tripletlab.synth import TaskConfig, gen_task, low_noise_task, task_sampler


def two_point_dataset():
    # only i=0,j=1 / i=1,j=0 pairs exist; anchor differences are degenerate on
    # purpose so single SGD steps are hand-checkable
    return TripletDataset([[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])


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


def test_sgd_iterate_stays_symmetric(monkeypatch):
    # the matrix rebuilt from the svec coordinates, before MetricParams
    # averages it with its transpose
    monkeypatch.setattr(optim, "MetricParams", lambda w: w)
    for d in (1, 3, 4, 10):
        train, _ = gen_task(TaskConfig(d=d, n_plus=8, n_minus=8, seed=7))
        w, _ = sgd_train(train, SgdConfig(T=50, c=1 / 32, seed=1, zeta=0.5))
        assert w.shape == (d, d)
        assert np.all(w != 0.0)
        assert np.array_equal(w, w.T)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(T=-1, c=0.1, seed=0)
    with pytest.raises(ValueError):
        SgdConfig(T=10, c=0.0, seed=0)
    with pytest.raises(ValueError):
        SgdConfig(T=10, c=0.1, seed=0, zeta=-1.0)


# --- SGD against the per-step loops ---


def per_step_sgd(dataset, cfg):
    """The SGD loop before its steps were blocked, kept verbatim as the oracle:
    one rng.integers call per draw, np.outer and @ per update. Returns
    (w, i, j, k, eta). These comparisons also fail, instead of drifting, if a
    numpy release changes how Generator.integers maps words to values."""
    X = dataset.positive_features
    Y = dataset.negative_features
    n_plus, n_minus = dataset.n_plus, dataset.n_minus
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    w = np.zeros((dataset.d, dataset.d))
    if cfg.T == 0:
        empty = np.empty(0, np.int64)
        return w, empty, empty, empty, np.empty(0, np.float64)
    eta = cfg.c / math.sqrt(cfg.T)
    ii = np.empty(cfg.T, np.int64)
    jj = np.empty(cfg.T, np.int64)
    kk = np.empty(cfg.T, np.int64)
    for t in range(cfg.T):
        i, j = rng.integers(0, n_plus, size=2)
        while i == j:
            i, j = rng.integers(0, n_plus, size=2)
        k = rng.integers(0, n_minus)
        ii[t], jj[t], kk[t] = i, j, k
        dp = X[i] - X[j]
        dn = X[i] - Y[k]
        m = float(dp @ w @ dp) - float(dn @ w @ dn) + cfg.zeta
        factor = float(expit(m))  # d/dm phi(-m)
        w -= (eta * factor) * (np.outer(dp, dp) - np.outer(dn, dn))
    return w, ii, jj, kk, np.full(cfg.T, eta)


def per_step_svec_sgd(dataset, cfg):
    """The svec step loop without blocks: one rng.integers call per draw, each
    step's features formed from its own rows in Python floats, the margin
    summed left to right from zeta, scipy's expit. Returns (w, i, j, k, eta)."""
    X = dataset.positive_features.tolist()
    Y = dataset.negative_features.tolist()
    n_plus, n_minus, d = dataset.n_plus, dataset.n_minus, dataset.d
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    eta = cfg.c / math.sqrt(cfg.T) if cfg.T else 0.0
    theta = [0.0] * len(pairs)
    ii, jj, kk = [], [], []
    for _ in range(cfg.T):
        i, j = rng.integers(0, n_plus, size=2)
        while i == j:
            i, j = rng.integers(0, n_plus, size=2)
        k = rng.integers(0, n_minus)
        ii.append(i)
        jj.append(j)
        kk.append(k)
        dp = [a - b for a, b in zip(X[i], X[j])]
        dn = [a - b for a, b in zip(X[i], Y[k])]
        f = [dp[a] * dp[b] - dn[a] * dn[b] for a, b in pairs]
        m = cfg.zeta
        for (a, b), t, x in zip(pairs, theta, f):
            m += t * (x if a == b else 2.0 * x)
        s = eta * float(expit(m))
        theta = [t - s * x for t, x in zip(theta, f)]
    w = np.zeros((d, d))
    for (a, b), t in zip(pairs, theta):
        w[a, b] = w[b, a] = t
    return (w, *(np.array(v, np.int64) for v in (ii, jj, kk)), np.full(cfg.T, eta))


def parent_lemire(words, n):
    """optim._lemire before the index decoder ran in numpy: the same values,
    as a list."""
    m = words.astype(np.uint64) * np.uint64(n)
    values = (m >> np.uint64(32)).astype(np.int64)
    values[(m & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n] = -1
    return values.tolist()


def parent_draw_indices(rng, n_plus, n_minus, T, block):
    """optim._draw_indices before it decoded in numpy, kept verbatim as the
    oracle: every step parsed in Python from lists of decoded words, the
    same bulk draws, index lists (i, j, k) per block."""
    pos, neg, p = [], [], 0  # decoded words not yet used start at p
    for start in range(0, T, block):
        count = min(block, T - start)
        ii, jj, kk = [], [], []
        while len(kk) < count:
            try:  # one step, read from word q on and committed at its end
                q = p
                while True:
                    i = pos[q]
                    q += 1
                    while i < 0:
                        i = pos[q]
                        q += 1
                    j = pos[q]
                    q += 1
                    while j < 0:
                        j = pos[q]
                        q += 1
                    if i != j:
                        break
                k = 0
                if n_minus > 1:
                    k = neg[q]
                    q += 1
                    while k < 0:
                        k = neg[q]
                        q += 1
                ii.append(i)
                jj.append(j)
                kk.append(k)
                p = q
            except IndexError:  # out of words mid-step: draw more, redo the step
                size = min(optim.WORDS, 3 * (T - start - len(kk)))
                words = rng.integers(0, 2**32, size=size, dtype=np.uint32)
                pos = pos[p:] + parent_lemire(words, n_plus)
                neg = neg[p:] + parent_lemire(words, n_minus)
                p = 0
        yield ii, jj, kk


def parent_sgd_train(dataset, cfg):
    """sgd_train before its step kernel, kept as the oracle: the same bulk
    index draws (parent_draw_indices, whose lists `ii += i` extends) and
    block features, then per step the weighted features g
    (off-diagonal entries doubled), the margin zeta + theta[0] g[0] + ...,
    the expit with its overflow branch and a list-comprehension axpy.
    Returns (w, i, j, k, eta). The margin was sum(map(mul, theta, g), zeta),
    which adds left to right on Python 3.10 and 3.11 only; reduce adds so on
    every version."""
    X = dataset.positive_features
    Y = dataset.negative_features
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    rows, cols = np.triu_indices(dataset.d)
    weights = np.where(rows == cols, 1.0, 2.0)
    theta = [0.0] * len(rows)
    eta = cfg.c / math.sqrt(cfg.T) if cfg.T else 0.0
    ii, jj, kk = [], [], []
    block = max(1, loss_module.BLOCK // dataset.d**2)
    for i, j, k in parent_draw_indices(rng, dataset.n_plus, dataset.n_minus, cfg.T, block):
        ii += i
        jj += j
        kk += k
        anchors = X[i]
        dps = anchors - X[j]
        dns = anchors - Y[k]
        feats = dps[:, rows] * dps[:, cols]
        feats -= dns[:, rows] * dns[:, cols]
        weighted = feats * weights
        for f, g in zip(feats.tolist(), weighted.tolist()):
            m = reduce(add, map(mul, theta, g), cfg.zeta)
            try:
                factor = 1.0 / (1.0 + math.exp(-m))
            except OverflowError:
                factor = 0.0
            s = eta * factor
            theta = [t - s * x for t, x in zip(theta, f)]
    w = np.empty((dataset.d, dataset.d))
    w[rows, cols] = theta
    w[cols, rows] = theta
    return (w, *(np.array(v, np.int64) for v in (ii, jj, kk)), np.full(cfg.T, eta))


def assert_same_run(got, expected):
    """w and trace arrays equal bit for bit, dtypes included."""
    w, trace = got
    for a, b in zip((w.w, trace.i, trace.j, trace.k, trace.eta), expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("n_plus, n_minus", [(50, 50), (2, 1), (3, 200), (128, 128)])
def test_sgd_matches_the_per_step_loop_bit_for_bit(d, n_plus, n_minus):
    # the trace bit for bit; w within 1e-13 of the oracle's largest entry,
    # since the svec margin sums its terms in another order than dp.w.dp
    train, _ = gen_task(TaskConfig(d=d, n_plus=n_plus, n_minus=n_minus, seed=d + n_plus))
    for T in (0, 1, 7, 5000):
        for zeta in (0.0, 1.0):
            cfg = SgdConfig(T=T, c=1 / 32, seed=T + n_minus, zeta=zeta)
            w, trace = sgd_train(train, cfg)
            w_ref, *expected = per_step_sgd(train, cfg)
            for a, b in zip((trace.i, trace.j, trace.k, trace.eta), expected):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert w.w.dtype == w_ref.dtype and w.w.shape == w_ref.shape
            assert np.abs(w.w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()


@pytest.mark.parametrize("d", [1, 2, 3, 10])
@pytest.mark.parametrize("n_plus, n_minus", [(50, 50), (2, 1), (3, 200)])
def test_sgd_matches_the_unblocked_svec_loop_bit_for_bit(d, n_plus, n_minus):
    train, _ = gen_task(TaskConfig(d=d, n_plus=n_plus, n_minus=n_minus, seed=d + n_plus))
    for T in (0, 1, 7, 3000):
        for zeta in (0.0, 1.0):
            cfg = SgdConfig(T=T, c=1 / 32, seed=T + n_minus, zeta=zeta)
            assert_same_run(sgd_train(train, cfg), per_step_svec_sgd(train, cfg))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("n_plus, n_minus", [(50, 40), (7, 1), (2, 3)])
@pytest.mark.parametrize("zeta", [0.0, 0.3])
def test_sgd_matches_the_parent_step_loop_bit_for_bit(d, n_plus, n_minus, zeta):
    # 3000 steps span at least three bulk index draws, and at d = 10 five blocks of
    # loss.BLOCK // d^2 = 655 steps
    train, _ = gen_task(TaskConfig(d=d, n_plus=n_plus, n_minus=n_minus, seed=d + n_plus))
    cfg = SgdConfig(T=3000, c=1 / 32, seed=d + n_minus, zeta=zeta)
    assert_same_run(sgd_train(train, cfg), parent_sgd_train(train, cfg))


def test_the_step_kernel_compiles_and_matches_the_parent_at_d_64():
    # p = 2080 coordinates, whose margin takes 65 statements of MARGIN_TERMS terms
    train, _ = gen_task(TaskConfig(d=64, n_plus=6, n_minus=5, seed=64))
    cfg = SgdConfig(T=20, c=1 / 32, seed=3, zeta=0.5)
    got = sgd_train(train, cfg)
    assert np.count_nonzero(got[0].w) > 2000
    assert_same_run(got, parent_sgd_train(train, cfg))


def test_the_margin_is_summed_left_to_right_without_compensation():
    # sum() compensates from Python 3.12 on: sum([1e16, 1.0, -1e16], 0.0) is
    # 1.0 there and 0.0 left to right. At d = 2 the margin's terms are
    # zeta = 1e16, t0 f0 = 1.0 and (t1 + t1) f1 = -1e16, then t2 f2 = -0.0,
    # and the last coordinate (t = 0, f = -1, eta = 1) ends at s = expit(m)
    kernel = optim._step_kernel(2)
    assert kernel([1.0, -5e15, 0.0], [1.0, 1.0, -1.0], 1.0, 1e16)[2] == expit(0.0)


def test_expit_matches_scipy_bit_for_bit():
    # math.exp raises OverflowError below m = -709.78, where expit gives 0.0.
    # One step at d = 1 from t = 0 with f = -1, eta = 1 and zeta = m has the
    # margin m + 0 * (-1) = m and ends at s = expit(m)
    kernel = optim._step_kernel(1)
    ms = [-1e308, -745.0, -709.8, -709.7, -36.0, 0.0, 36.0, 710.0]
    rng = np.random.default_rng(3)
    for scale in (1.0, 30.0, 300.0):
        ms += (scale * rng.standard_normal(2000)).tolist()
    steps = [kernel([0.0], [-1.0], 1.0, m)[0] for m in ms]
    for m, s in zip(ms, steps):
        assert s.hex() == float(expit(m)).hex(), m
    assert steps[2] == 0.0 and steps[3] > 0.0  # m = -709.8 and -709.7


@pytest.mark.parametrize(
    "n_plus, n_minus", [(2**31 + 1, 3), (3, 2**31 + 1), (2**31 + 1, 1), (2, 2**31 + 1)]
)
def test_index_decoder_matches_per_call_draws(n_plus, n_minus):
    # at bound 2**31 + 1 numpy rejects about half of the 32-bit words, and
    # n_plus = 2 redraws half of the pairs; 3000 steps span several bulk draws
    words = np.random.default_rng(0).integers(0, 2**32, size=4000, dtype=np.uint32)
    assert 0.45 < np.mean(np.array(optim._lemire(words, 2**31 + 1)) < 0) < 0.55
    T = 3000
    rng = np.random.default_rng(12)
    expected = []
    for _ in range(T):
        i, j = rng.integers(0, n_plus, size=2)
        while i == j:
            i, j = rng.integers(0, n_plus, size=2)
        expected.append((int(i), int(j), int(rng.integers(0, n_minus))))
    blocks = optim._draw_indices(np.random.default_rng(12), n_plus, n_minus, T, 700)
    assert [step for i, j, k in blocks for step in zip(i, j, k)] == expected


def per_call_indices(rng, n_plus, n_minus, T):
    """The (i, j, k) arrays of T steps drawn one rng.integers call at a time."""
    ii, jj, kk = [], [], []
    for _ in range(T):
        i, j = rng.integers(0, n_plus, size=2)
        while i == j:
            i, j = rng.integers(0, n_plus, size=2)
        ii.append(i)
        jj.append(j)
        kk.append(rng.integers(0, n_minus))
    return tuple(np.array(v, np.int64) for v in (ii, jj, kk))


REJECTING = 2**31 + 1  # numpy rejects about half of the 32-bit words at this bound


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    n_plus=st.integers(2, 64) | st.just(REJECTING),
    n_minus=st.integers(1, 64) | st.just(REJECTING),
    T=st.integers(0, 3 * optim.WORDS + 5),
    block=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_plus=2, n_minus=1, T=3 * optim.WORDS + 5, block=1, seed=0)
@example(n_plus=2, n_minus=REJECTING, T=optim.WORDS + 1, block=700, seed=1)
@example(n_plus=REJECTING, n_minus=REJECTING, T=2 * optim.WORDS, block=333, seed=2)
def test_the_numpy_decoder_matches_per_call_draws_and_the_parent_decoder(
    n_plus, n_minus, T, block, seed
):
    # steps that straddle bulk draws, blocks that end mid-draw, bounds that
    # reject half of the words and n_plus = 2, which redraws half of the pairs
    blocks = list(optim._draw_indices(np.random.default_rng(seed), n_plus, n_minus, T, block))
    assert [len(k) for _, _, k in blocks] == [min(block, T - s) for s in range(0, T, block)]
    for arrays in blocks:
        assert all(isinstance(a, np.ndarray) and a.dtype == np.int64 for a in arrays)
    got = [np.concatenate(v) for v in zip(*blocks)] if blocks else [np.empty(0, np.int64)] * 3
    expected = per_call_indices(np.random.default_rng(seed), n_plus, n_minus, T)
    parent = parent_draw_indices(np.random.default_rng(seed), n_plus, n_minus, T, block)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    assert [tuple(map(list, arrays)) for arrays in blocks] == list(parent)


class CountingRng:
    """A generator that records the size of each bulk draw it serves."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size, dtype=dtype)


@pytest.mark.parametrize("n_plus, n_minus", [(2, 1), (2, 5), (3, 200), (50, 50)])
def test_bulk_draws_are_sized_by_the_steps_still_to_come(n_plus, n_minus):
    # three words a step (i, j, k) at most WORDS: a short run draws a few
    # words, not WORDS; a redrawn pair (half of them at n_plus = 2) runs a
    # draw out mid-step, and the next draw continues the same stream
    train, _ = gen_task(TaskConfig(d=2, n_plus=n_plus, n_minus=n_minus, seed=n_plus))
    for T in (1, 10, 1000):
        cfg = SgdConfig(T=T, c=1 / 32, seed=T + n_minus)
        _, trace = sgd_train(train, cfg)
        _, *expected = per_step_sgd(train, cfg)
        for a, b in zip((trace.i, trace.j, trace.k, trace.eta), expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        rng = CountingRng(np.random.SeedSequence(cfg.seed))
        list(optim._draw_indices(rng, n_plus, n_minus, T, 7))
        assert rng.sizes[0] == min(optim.WORDS, 3 * T)
        assert sum(rng.sizes) < 6 * T + 10


@pytest.mark.parametrize("d", [3, 10])
@pytest.mark.parametrize("block", [1, 70])
def test_sgd_does_not_depend_on_the_block_size(monkeypatch, d, block):
    # BLOCK = 70 gives blocks of 7 steps at d = 3 and of one step at d = 10;
    # the default BLOCK gives one block of 300 steps at d = 3 and blocks of
    # 655 at d = 10, cut into sub-blocks of 1, 7 and SUB_BLOCK steps
    train, _ = gen_task(TaskConfig(d=d, n_plus=6, n_minus=5, seed=8))
    cfg = SgdConfig(T=300, c=1 / 32, seed=9, zeta=0.5)
    w, trace = sgd_train(train, cfg)
    expected = (w.w, trace.i, trace.j, trace.k, trace.eta)
    sub_blocks = (1, 7, optim.SUB_BLOCK)
    for loss_block in (loss_module.BLOCK, block):
        monkeypatch.setattr(loss_module, "BLOCK", loss_block)
        for sub_block in sub_blocks:
            monkeypatch.setattr(optim, "SUB_BLOCK", sub_block)
            assert_same_run(sgd_train(train, cfg), expected)


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


def test_trace_arrays_stay_read_only_copies():
    given = dict(i=np.array([0, 1]), j=np.array([1, 0]), k=np.array([0, 0]),
                 eta=np.array([0.1, 0.1]))
    trace = TrainTrace(**given, n_plus=2, n_minus=1)
    for name, arr in given.items():
        stored = getattr(trace, name)
        assert not stored.flags.writeable and not np.shares_memory(stored, arr)
        with pytest.raises(ValueError):
            stored.setflags(write=True)
    given["i"][0] = 1  # the caller's arrays stay the caller's
    assert trace.i.tolist() == [0, 1]


def test_sgd_train_hands_its_index_arrays_to_the_trace_without_a_copy(monkeypatch):
    train, _ = gen_task(TaskConfig(d=2, n_plus=5, n_minus=4, seed=6))
    made = []
    empty = np.empty

    def recording(*args, **kwargs):
        made.append(empty(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np, "empty", recording)
    _, trace = sgd_train(train, SgdConfig(T=1000, c=1 / 32, seed=2))
    monkeypatch.undo()
    for stored in (trace.i, trace.j, trace.k):
        assert any(np.shares_memory(stored, own) for own in made if own.shape == (1000,))
        assert not stored.flags.writeable


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


def test_trace_csv_round_trip_keeps_the_row_format(tmp_path):
    train, _ = gen_task(TaskConfig(d=2, n_plus=4, n_minus=3, seed=1))
    _, trace = sgd_train(train, SgdConfig(T=50, c=0.01, seed=2))
    slot = SlotRef(Pool.NEGATIVE, 1)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, slot=slot)
    back = read_trace_csv(path, 4, 3)
    for name in ("i", "j", "k", "eta"):
        a, b = getattr(back, name), getattr(trace, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the row-by-row format of earlier releases, byte for byte
    old = tmp_path / "old.csv"
    with open(old, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "j", "k", "eta", "hit_slot_flag"])
        for t, flag in enumerate(trace.hit_mask(slot).astype(int)):
            i, j, k, eta = trace.i[t], trace.j[t], trace.k[t], trace.eta[t]
            writer.writerow([t + 1, int(i), int(j), int(k), repr(float(eta)), int(flag)])
    assert path.read_bytes() == old.read_bytes()


def sampling_uniformity_check(trace: TrainTrace, dataset: TripletDataset):
    """Chi-square goodness of fit of the trace draws against the uniform law.

    Tests the joint (i, j, k) cell counts when the cell count is at most 10 T;
    beyond that it falls back to slot-hit marginals (positive-slot hits expect
    2T/n+ each, negative-slot hits T/n-, statistics summed; the two hits a
    step deals to distinct positive slots are weakly dependent, so the
    marginal p-value is approximate, which is fine for a sanity screen).
    Returns (statistic, p_value).
    """
    assert trace.T > 0
    n_plus, n_minus = dataset.n_plus, dataset.n_minus
    cells = n_plus * (n_plus - 1) * n_minus
    if cells <= 10 * trace.T:
        pair = trace.i * (n_plus - 1) + trace.j - (trace.j > trace.i)
        cell = pair * n_minus + trace.k
        counts = np.bincount(cell, minlength=cells)
        stat, p = chisquare(counts)
        return float(stat), float(p)
    pos_counts = np.bincount(trace.i, minlength=n_plus) + np.bincount(
        trace.j, minlength=n_plus
    )
    neg_counts = np.bincount(trace.k, minlength=n_minus)
    exp_pos = 2.0 * trace.T / n_plus
    exp_neg = trace.T / n_minus
    stat = float(((pos_counts - exp_pos) ** 2 / exp_pos).sum()) + float(
        ((neg_counts - exp_neg) ** 2 / exp_neg).sum()
    )
    dof = (n_plus - 1) + (n_minus - 1)
    return stat, float(chi2.sf(stat, dof))


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


def svec(w):
    """The svec coordinates rrm_train solves in: w's upper triangle row by
    row, off-diagonal entries times sqrt(2)."""
    rows, cols, scale = optim._svec_basis(len(w))
    return w[rows, cols] * scale


def summed_triplet_grad(w, train, zeta):
    """The d x d gradient of R_S at w, summed triplet by triplet from
    logistic_triplet_grad."""
    X, Y = train.positives, train.negatives
    grads = [
        logistic_triplet_grad(w, X[i], X[j], Y[k], LossConfig(zeta))
        for i in range(len(X)) for j in range(len(X)) if j != i for k in range(len(Y))
    ]
    return np.sum(grads, axis=0) / len(grads)


def test_rrm_newton_agrees_with_lbfgs_on_the_objective():
    # an independent minimizer: scipy's L-BFGS on regularized_objective over
    # all d^2 entries of w, with the gradient summed triplet by triplet from
    # logistic_triplet_grad
    for d, lam, seed in ((2, 0.2, 10), (5, 0.05, 18)):
        train, _ = gen_task(TaskConfig(d=d, n_plus=8, n_minus=8, seed=seed))
        rrm = RrmConfig(lam=lam, tol=1e-10)
        w_n, _ = rrm_train(train, rrm)

        def objective(flat):
            w = MetricParams(flat.reshape(d, d))
            grad = summed_triplet_grad(w, train, rrm.zeta) + 2.0 * rrm.lam * w.w
            return regularized_objective(w, train, rrm), grad.reshape(-1)

        res = minimize(objective, np.zeros(d * d), jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 1000})
        assert res.success
        assert np.linalg.norm(w_n.w - res.x.reshape(d, d)) < 1e-8
        assert regularized_objective(w_n, train, rrm) <= res.fun + 1e-15


@pytest.mark.parametrize("d", [3, 5])
def test_risk_parts_match_the_triplet_by_triplet_sums_in_svec_coordinates(d):
    train, _ = gen_task(TaskConfig(d=d, n_plus=6, n_minus=5, seed=20 + d))
    X, Y, zeta = train.positives, train.negatives, 0.3
    rng = np.random.default_rng(d)
    raw = rng.standard_normal((d, d))
    w = (raw + raw.T) / 2
    risk, grad, hess = optim._risk_parts(w, X, Y, zeta)
    p = d * (d + 1) // 2
    assert grad.shape == (p,) and hess.shape == (p, p)
    assert risk == pytest.approx(exact_mean_loss(w, X, Y, zeta), rel=1e-12)
    want = svec(summed_triplet_grad(MetricParams(w), train, zeta))
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-15)
    # central differences along each svec coordinate e_q, that is along the
    # symmetric matrix whose svec is e_q: of the loss for the gradient, of
    # the summed gradient for the Hessian
    rows, cols, scale = optim._svec_basis(d)
    h = 1e-5
    for q in range(p):
        step = np.zeros((d, d))
        step[rows[q], cols[q]] = step[cols[q], rows[q]] = h / scale[q]
        ahead, behind = MetricParams(w + step), MetricParams(w - step)
        rise = exact_mean_loss(ahead.w, X, Y, zeta) - exact_mean_loss(behind.w, X, Y, zeta)
        assert rise / (2 * h) == pytest.approx(grad[q], rel=1e-6, abs=1e-9)
        column = svec(
            summed_triplet_grad(ahead, train, zeta) - summed_triplet_grad(behind, train, zeta)
        ) / (2 * h)
        np.testing.assert_allclose(hess[:, q], column, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("zeta", [0.0, 0.3])
@pytest.mark.parametrize("n_minus", [1, 5])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_risk_parts_at_zero_take_the_closed_form_of_the_margin_form_sweep(
    monkeypatch, d, n_minus, zeta
):
    train, _ = gen_task(TaskConfig(d=d, n_plus=6, n_minus=n_minus, seed=30 + d))
    X, Y = train.positives, train.negatives
    sweeps = []
    monkeypatch.setattr(optim, "triplet_sweep", lambda *args, **kw: sweeps.append(args))
    cold = optim._risk_parts(np.zeros((d, d)), X, Y, zeta)
    assert sweeps == []
    monkeypatch.undo()
    # the sweep in margin form at a metric so small that every margin rounds
    # to zeta (or, at zeta = 0, gives exactly the terms of margin 0)
    monkeypatch.setattr(loss_module, "MAX_FACTORED_MARGIN", -math.inf)
    swept = optim._risk_parts(1e-300 * np.eye(d), X, Y, zeta)
    # per entry, relative to the same sum over |p_ij| + |q_ik| entrywise: the
    # gradient and Hessian entries cancel, and every summation order rounds
    # at the scale of their terms (the moments and the sweep are both within
    # 4e-16 of the exact sums on that scale)
    P, Q1 = optim._pair_features(X, Y)
    p = P.shape[1]
    P3, Q3 = np.abs(P).reshape(6, 6, p), np.abs(Q1[:, :p]).reshape(6, n_minus, p)
    A = np.array([P3[i, j] + Q3[i, k] for i in range(6) for j in range(6) if j != i
                  for k in range(n_minus)])
    _, sig, curv = (float(t[0]) for t in loss_module.margin_terms(np.array([zeta]), True))
    assert abs(cold[0] - swept[0]) <= 1e-15 * swept[0]
    assert np.all(np.abs(cold[1] - swept[1]) <= 1e-15 * sig * A.mean(axis=0))
    assert np.all(np.abs(cold[2] - swept[2]) <= 1e-15 * curv * (A.T @ A) / len(A))


def test_a_cold_solve_builds_its_features_once_and_sweeps_once_per_iteration(monkeypatch):
    train, _ = gen_task(TaskConfig(d=3, n_plus=10, n_minus=9, seed=4))
    calls = {"_pair_features": 0, "triplet_sweep": 0}
    for name in calls:
        def counted(*args, _fn=getattr(optim, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(optim, name, counted)
    _, iterations = rrm_train(train, RrmConfig(lam=0.05))
    # w = 0 takes the closed form; every later iterate is one sweep
    assert calls == {"_pair_features": 1, "triplet_sweep": iterations}


def test_a_trace_larger_than_physical_memory_is_refused_before_the_first_draw(monkeypatch):
    train, _ = gen_task(TaskConfig(d=2, n_plus=5, n_minus=4, seed=6))
    cfg = SgdConfig(T=1000, c=1 / 32, seed=2)
    need = 4 * 1000 * 8  # i, j, k and eta, which the trace holds without a copy
    drawn = []
    monkeypatch.setattr(optim, "_draw_indices", lambda *args: drawn.append(args))
    monkeypatch.setattr(risk_module, "physical_memory", lambda: need - 1)
    with pytest.raises(TraceTooLarge, match=(
        f"an SGD trace of T = 1000 steps needs {need} bytes .* more than the {need - 1} bytes"
    )):
        sgd_train(train, cfg)
    assert drawn == []
    monkeypatch.undo()
    monkeypatch.setattr(risk_module, "physical_memory", lambda: need)
    _, trace = sgd_train(train, cfg)  # exactly at the limit: allowed
    assert trace.T == 1000


def test_a_solve_whose_features_exceed_physical_memory_is_refused(monkeypatch):
    train, _ = gen_task(TaskConfig(d=3, n_plus=10, n_minus=9, seed=4))
    need = (10 * 10 + 10 * 9) * 7 * 8  # (n+^2 + n+ n-)(p + 1) doubles, p = 6 at d = 3
    built = []
    monkeypatch.setattr(optim, "_pair_features", lambda *args: built.append(args))
    monkeypatch.setattr(risk_module, "physical_memory", lambda: need - 1)
    with pytest.raises(SolveTooLarge, match=(
        f"n\\+ = 10, n- = 9, d = 3 needs {need} bytes .* more than the {need - 1} bytes"
    )):
        rrm_train(train, RrmConfig(lam=0.05))
    assert built == []
    monkeypatch.undo()
    monkeypatch.setattr(risk_module, "physical_memory", lambda: need)
    rrm_train(train, RrmConfig(lam=0.05))  # exactly at the limit: allowed


def test_rrm_newton_solves_a_p_by_p_system(monkeypatch):
    # at d = 10 the Newton system has p = 10 * 11 / 2 = 55 unknowns, not 100
    train, _ = gen_task(TaskConfig(d=10, n_plus=6, n_minus=5, seed=19))
    shapes = []

    def spy(hess):
        shapes.append(hess.shape)
        return cho_factor(hess)

    monkeypatch.setattr(optim, "cho_factor", spy)
    _, iterations = rrm_train(train, RrmConfig(lam=0.1))
    assert iterations >= 1
    assert shapes == [(55, 55)] * iterations


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
    margins = row_scores(w.w, Xa, Xp) - row_scores(w.w, Xa, Xn)
    assert float((margins >= 0.0).mean()) <= 0.05
    # a well-ordered triplet (margin < 0) scores below phi(0) = log 2, a
    # violated one (margin >= 0) at or above it
    losses = triplet_losses_rowwise(w.w, Xa, Xp, Xn, 0.0)
    assert np.all(losses[margins < 0.0] < math.log(2.0))
    assert np.all(losses[margins >= 0.0] >= math.log(2.0))


def newton_rescoring_every_point(train, cfg, w0):
    """The damped Newton solve in svec coordinates with each iterate swept
    afresh and every line search point, the full step included, scored
    loss-only."""
    X, Y, d = train.positive_features, train.negative_features, train.d
    rows, cols, scale = optim._svec_basis(d)

    def metric(u):
        w = np.empty((d, d))
        w[rows, cols] = w[cols, rows] = u / scale
        return w

    u = svec(w0.w)
    for it in range(cfg.max_iters + 1):
        risk_val, grad_r, hess_r = optim._risk_parts(metric(u), X, Y, cfg.zeta)
        f_val = risk_val + cfg.lam * float(u @ u)
        grad = grad_r + 2.0 * cfg.lam * u
        if float(np.linalg.norm(grad)) <= cfg.tol:
            return metric(u), it
        hess = hess_r + 2.0 * cfg.lam * np.eye(len(u))
        s = cho_solve(cho_factor(hess), -grad)
        slope = float(grad @ s)
        t, u_try = 1.0, u + s
        if -slope <= optim.ROUNDING_ULPS * math.ulp(f_val):
            grad_try = optim._risk_parts(metric(u_try), X, Y, cfg.zeta)[1] + 2.0 * cfg.lam * u_try
            if float(np.linalg.norm(grad_try)) < float(np.linalg.norm(grad)):
                u = u_try
                continue
        for _ in range(60):
            f_try = swept_mean_loss(metric(u_try), X, Y, cfg.zeta) + cfg.lam * float(u_try @ u_try)
            if f_try <= f_val + 0.25 * t * slope:
                break
            t *= 0.5
            u_try = u + t * s
        u = u_try
    raise AssertionError("reference solve did not converge")


@pytest.mark.parametrize("w0_scale, rejected", [(0.0, 0), (-20.0, 1)])
def test_rrm_newton_scores_each_candidate_once(monkeypatch, w0_scale, rejected):
    train, _ = gen_task(TaskConfig(d=2, n_plus=8, n_minus=8, seed=3))
    cfg = RrmConfig(lam=0.01)
    w0 = MetricParams.identity(2, w0_scale)
    w_ref, it_ref = newton_rescoring_every_point(train, cfg, w0)
    calls = {"_risk_parts": 0, "swept_mean_loss": 0}
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
    assert calls == {"_risk_parts": it + 1 + rejected, "swept_mean_loss": rejected}


# The n = 12, trial 1 solve of `tripletlab optimistic --seed 23 --d 2 --n-grid
# "8 12 16" --trials-per-n 2` (the default task, so alpha = 64 and the
# optimistic sigma = 8 alpha / n, lam = sigma / 2 = 21.3): one Newton step
# takes ||grad F_S|| from 0.34 to 3.6e-8, and the next full step, which would
# bring it to about 1e-16, predicts a decrease of F_S below one ulp of F_S.
STALLED_TASK = TaskConfig(d=2, n_plus=12, n_minus=12, seed=17786411414766091916)
STALLED_LAM = (8.0 * 64.0 / 12) * (1.0 + 1e-9) / 2.0


def test_rrm_certifies_tol_when_the_newton_decrease_is_below_rounding():
    train, _, _ = low_noise_task(STALLED_TASK)
    cfg = RrmConfig(lam=STALLED_LAM)
    started = time.perf_counter()
    w, iterations = rrm_train(train, cfg)
    took = time.perf_counter() - started
    _, grad_r, _ = optim._risk_parts(w.w, train.positives, train.negatives, 0.0)
    assert float(np.linalg.norm(grad_r + 2.0 * cfg.lam * svec(w.w))) <= cfg.tol
    assert iterations == 2
    assert took < 0.5


def test_rrm_stalls_there_without_the_rounding_rule(monkeypatch):
    # the Armijo test alone rejects the full step, and its halvings pass by
    # rounding without lowering ||grad F_S||
    train, _, _ = low_noise_task(STALLED_TASK)
    monkeypatch.setattr(optim, "ROUNDING_ULPS", 0)
    with pytest.raises(MaxItersExceeded) as err:
        rrm_train(train, RrmConfig(lam=STALLED_LAM, max_iters=20))
    assert 1e-8 < err.value.grad_norm < 1e-7


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
        rrm_train(train, RrmConfig(lam=0.05, tol=1e-14, max_iters=1))
    assert err.value.iterations == 1
    assert isinstance(err.value.w, MetricParams)
    _, grad_r, _ = optim._risk_parts(err.value.w.w, train.positives, train.negatives, 0.0)
    assert err.value.grad_norm == float(np.linalg.norm(grad_r + 2.0 * 0.05 * svec(err.value.w.w)))
    assert err.value.grad_norm > 1e-14


def test_rrm_exhausted_line_search_raises_with_the_best_iterate(monkeypatch):
    # an objective that rejects every trial point: the start scores as usual,
    # every step along the Newton direction as +inf
    train, _ = gen_task(TaskConfig(d=2, n_plus=8, n_minus=8, seed=3))
    real_parts, trials = optim._risk_parts, []

    def rejecting_parts(w, *args, **kwargs):
        value, grad, hess = real_parts(w, *args, **kwargs)
        trials.append("full" if trials else "start")
        return (math.inf if trials[-1] == "full" else value), grad, hess

    def rejecting_loss(*args):
        trials.append("halving")
        return math.inf

    monkeypatch.setattr(optim, "_risk_parts", rejecting_parts)
    monkeypatch.setattr(optim, "swept_mean_loss", rejecting_loss)
    with pytest.raises(LineSearchExhausted) as err:
        rrm_train(train, RrmConfig(lam=0.01))
    assert err.value.iterations == 0
    assert np.array_equal(err.value.w.w, np.zeros((2, 2)))
    assert err.value.grad_norm > 0.01
    # steps 1, 1/2, ..., 2**-59 are each scored once, and none is taken
    assert trials == ["start", "full"] + ["halving"] * 59


def test_rrm_non_descent_newton_direction_raises_with_the_best_iterate(monkeypatch):
    # a Newton solve that points uphill: the direction is +grad
    train, _ = gen_task(TaskConfig(d=2, n_plus=8, n_minus=8, seed=3))
    monkeypatch.setattr(optim, "cho_solve", lambda factor, rhs: -rhs)
    with pytest.raises(SolverFailure) as err:
        rrm_train(train, RrmConfig(lam=0.01))
    assert type(err.value) is SolverFailure
    assert err.value.iterations == 0
    assert np.array_equal(err.value.w.w, np.zeros((2, 2)))
    message = str(err.value)
    assert "lam = 0.01" in message and "iteration 0" in message
    assert f"||grad|| = {err.value.grad_norm:g}" in message


# `tripletlab rrm --seed 3 --lam 1e-18 --n-plus 12 --n-minus 10 --d 3`: the
# task seed the CLI derives from --seed 3. In svec coordinates the Newton
# system has no antisymmetric directions for the ridge term alone to hold, so
# even at lam = 1e-18 its Cholesky factorization holds and the solve converges
TINY_LAM_TASK = TaskConfig(d=3, n_plus=12, n_minus=10, seed=14449357594836781232)


def test_rrm_meets_tol_at_a_tiny_lambda():
    train, _ = gen_task(TINY_LAM_TASK)
    cfg = RrmConfig(lam=1e-18)
    w, iterations = rrm_train(train, cfg)
    _, grad_r, _ = optim._risk_parts(w.w, train.positives, train.negatives, 0.0)
    assert float(np.linalg.norm(grad_r + 2.0 * cfg.lam * svec(w.w))) <= cfg.tol
    assert iterations == 7


def test_rrm_failed_newton_factorization_raises_with_the_best_iterate(monkeypatch):
    train, _ = gen_task(TINY_LAM_TASK)
    failed = []

    def failing(hess):
        failed.append(True)
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(optim, "cho_factor", failing)
    with pytest.raises(SolverFailure) as err:
        rrm_train(train, RrmConfig(lam=1e-18))
    assert type(err.value) is SolverFailure
    assert failed == [True]
    assert err.value.iterations == 0 and err.value.grad_norm > 0.1
    assert np.array_equal(err.value.w.w, np.zeros((3, 3)))
    assert "lam = 1e-18" in str(err.value) and "iteration 0" in str(err.value)


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


# --- the minimizer of an evaluation sample's mean loss ---


def _sample(task, m):
    return risk_module.draw_evaluation_sample(task_sampler(task), m)


def _sample_gradient(w, sample, zeta):
    """The gradient in w of the sample's mean loss, mean sigmoid(m) D over
    its triplets, D = dp dp^T - dn dn^T, straight from the definition."""
    dp, dn = sample
    margins = np.einsum("ia,ab,ib->i", dp, w, dp) - np.einsum("ia,ab,ib->i", dn, w, dn) + zeta
    D = np.einsum("ia,ib->iab", dp, dp) - np.einsum("ia,ib->iab", dn, dn)
    return np.einsum("i,iab->ab", expit(margins), D) / len(margins)


@pytest.mark.parametrize("zeta", [0.0, 0.3])
def test_sample_minimizer_meets_tol_on_the_gradient_of_the_mean_loss(zeta):
    sample = _sample(TaskConfig(d=3, n_plus=4, n_minus=4, seed=5), 20_000)
    w, iterations = optim.sample_minimizer(sample, zeta)
    assert 1 <= iterations < 20
    assert float(np.linalg.norm(_sample_gradient(w.w, sample, zeta))) <= RrmConfig.tol + 1e-12
    # and it minimizes: nearby metrics score no lower on the same sample
    best = risk_module.sample_risk(w, sample, LossConfig(zeta)).value
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = 1e-3 * rng.standard_normal((3, 3))
        nearby = MetricParams(w.w + (raw + raw.T) / 2)
        assert risk_module.sample_risk(nearby, sample, LossConfig(zeta)).value >= best - 1e-15


def test_rrm_and_the_sample_minimizer_run_one_newton_loop(monkeypatch):
    loops = []
    newton = optim._newton
    monkeypatch.setattr(
        optim, "_newton", lambda *args: loops.append(args[3]) or newton(*args)
    )
    train, sampler = gen_task(TaskConfig(d=2, n_plus=6, n_minus=5, seed=3))
    rrm_train(train, RrmConfig(lam=0.25))
    optim.sample_minimizer(risk_module.draw_evaluation_sample(sampler, 500), 0.0)
    assert loops == [0.25, 0.0]


def test_a_sample_without_a_minimizer_raises_with_the_best_iterate():
    # 2 triplets at d = 3: a singular Hessian over p = 6 coordinates
    sample = _sample(TaskConfig(d=3, n_plus=4, n_minus=4, seed=5), 2)
    with pytest.raises(SolverFailure) as err:
        optim.sample_minimizer(sample, 0.0)
    assert type(err.value) is SolverFailure
    assert err.value.iterations == 0
    assert np.array_equal(err.value.w.w, np.zeros((3, 3)))
    assert "lam = 0" in str(err.value)


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
