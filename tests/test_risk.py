import math
import time

import mpmath
import numpy as np
import pytest

from tripletlab import loss as loss_module
from tripletlab import optim, parallel, risk
from tripletlab.core import DimensionMismatch, TripletDataset
from tripletlab.loss import (
    LossConfig,
    MetricParams,
    difference_losses,
    logistic_triplet_loss,
    margin_terms,
    pair_scores,
    phi,
    row_scores,
    triplet_sweep,
)
from tripletlab.optim import RrmConfig, rrm_train
from tripletlab.risk import (
    DEFAULT_TRIPLET_BUDGET,
    InvalidCounts,
    InvalidDelta,
    RiskEstimate,
    RiskMode,
    SampleTooLarge,
    bernstein_ustat_bound,
    check_sample_size,
    draw_evaluation_sample,
    empirical_risk,
    generalization_gap,
    population_risk,
    sample_risk,
    sample_risks,
    sample_triplet_indices,
)
from tripletlab.synth import TaskConfig, gen_task


def random_dataset(rng, n_plus, n_minus, d):
    P = rng.standard_normal((n_plus, d))
    N = rng.standard_normal((n_minus, d))
    return TripletDataset(P, N)


def random_metric(rng, d, scale=1.0):
    raw = scale * rng.standard_normal((d, d))
    return MetricParams((raw + raw.T) / 2)


def loop_risk(w, ds, cfg):
    X, Y = ds.positive_features, ds.negative_features
    total, count = 0.0, 0
    for i in range(ds.n_plus):
        for j in range(ds.n_plus):
            if i == j:
                continue
            for k in range(ds.n_minus):
                total += logistic_triplet_loss(w, X[i], X[j], Y[k], cfg)
                count += 1
    return total / count


def test_exact_risk_matches_loop_oracle_three_by_two():
    rng = np.random.default_rng(0)
    cfg = LossConfig(0.5)
    for _ in range(10):
        ds = random_dataset(rng, 3, 2, 2)
        w = random_metric(rng, 2)
        est = empirical_risk(w, ds, cfg)
        assert est.mode is RiskMode.EXACT_U_STATISTIC
        assert est.n_terms == 12
        assert est.std_error == 0.0
        assert est.value == pytest.approx(loop_risk(w, ds, cfg), abs=1e-12)


def test_exact_risk_matches_loop_oracle_various_sizes():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n_p = int(rng.integers(2, 7))
        n_m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        ds = random_dataset(rng, n_p, n_m, d)
        w = random_metric(rng, d)
        cfg = LossConfig(float(rng.uniform(0, 2)))
        est = empirical_risk(w, ds, cfg)
        assert est.value == pytest.approx(loop_risk(w, ds, cfg), abs=1e-12)


def test_exact_risk_zero_metric_is_exactly_log_two():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 20, 15, 3)
    est = empirical_risk(MetricParams.zeros(3), ds, LossConfig(0.0))
    # constant integrand: no summation rounding allowed
    assert est.value == math.log(2)


def test_sampled_mode_kicks_in_over_budget():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 12, 10, 2)  # 12*11*10 = 1320 triplets
    w = random_metric(rng, 2)
    cfg = LossConfig(0.0)
    est = empirical_risk(w, ds, cfg, budget=500)
    assert est.mode is RiskMode.SAMPLED_TRIPLETS
    assert est.n_terms == 500
    assert est.std_error > 0
    exact = empirical_risk(w, ds, cfg)
    assert abs(est.value - exact.value) < 6 * est.std_error


def test_sampled_mode_is_deterministic_by_default():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 12, 10, 2)
    w = random_metric(rng, 2)
    a = empirical_risk(w, ds, LossConfig(0.0), budget=200)
    b = empirical_risk(w, ds, LossConfig(0.0), budget=200)
    assert a.value == b.value
    c = empirical_risk(
        w, ds, LossConfig(0.0), budget=200, rng=np.random.default_rng(99)
    )
    assert c.value != a.value


def test_sample_triplet_indices_never_collides():
    rng = np.random.default_rng(5)
    i, j, k = sample_triplet_indices(rng, 3, 2, 10000)
    assert np.all(i != j)
    assert i.min() >= 0 and i.max() < 3
    assert k.min() >= 0 and k.max() < 2


def test_risk_estimate_invariants():
    with pytest.raises(ValueError):
        RiskEstimate(RiskMode.SAMPLED_TRIPLETS, 0.5, -1.0, 10)
    with pytest.raises(ValueError):
        RiskEstimate(RiskMode.EXACT_U_STATISTIC, 0.5, 0.1, 10)
    with pytest.raises(ValueError):
        RiskEstimate(RiskMode.EXACT_U_STATISTIC, 0.5, 0.0, 0)


def test_a_risk_estimate_refuses_a_nan_std_error():
    with pytest.raises(ValueError, match="std_error must be >= 0, got nan"):
        RiskEstimate(RiskMode.SAMPLED_TRIPLETS, 0.5, float("nan"), 10)


def test_a_sampled_empirical_risk_refuses_a_budget_below_2():
    train, _ = gen_task(TaskConfig(d=2, n_plus=4, n_minus=3, seed=1))
    w = MetricParams(np.eye(2))
    with pytest.raises(ValueError, match="needs budget >= 2 triplets .*, got 1$"):
        empirical_risk(w, train, LossConfig(0.0), budget=1)
    est = empirical_risk(w, train, LossConfig(0.0), budget=2)
    assert est.mode is RiskMode.SAMPLED_TRIPLETS and est.std_error >= 0.0


def test_empirical_risk_dimension_mismatch():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 3, 2, 2)
    with pytest.raises(ValueError):
        empirical_risk(MetricParams.zeros(3), ds, LossConfig(0.0))


def test_population_risk_two_seeds_agree():
    cfg = TaskConfig(d=3, n_plus=4, n_minus=4, seed=11)
    _, sampler = gen_task(cfg)
    rng = np.random.default_rng(7)
    w = random_metric(rng, 3, scale=0.5)
    loss_cfg = LossConfig(0.0)
    est1 = population_risk(w, sampler.fork(), 100_000, loss_cfg)
    est2 = population_risk(w, sampler.fork(), 100_000, loss_cfg)
    assert est1.mode is RiskMode.MONTE_CARLO_POPULATION
    combined = math.hypot(est1.std_error, est2.std_error)
    assert abs(est1.value - est2.value) <= 6 * combined


def test_population_risk_zero_metric_exact():
    cfg = TaskConfig(d=2, n_plus=4, n_minus=4, seed=12)
    _, sampler = gen_task(cfg)
    est = population_risk(MetricParams.zeros(2), sampler, 1000, LossConfig(0.0))
    assert est.value == math.log(2)
    assert est.std_error == 0.0


def test_population_risk_needs_two_draws():
    cfg = TaskConfig(d=2, n_plus=4, n_minus=4, seed=13)
    _, sampler = gen_task(cfg)
    with pytest.raises(ValueError):
        population_risk(MetricParams.zeros(2), sampler, 1, LossConfig(0.0))


def _population_risk_oracle(w, sampler, m, cfg):
    """population_risk before streaming: draw every triplet whole, then score
    them in row blocks of loss.BLOCK doubles. On one chunk of the sample
    (m <= SAMPLE_CHUNK + 1) the estimate is numpy's one-pass mean and
    std(ddof=1) / sqrt(m); on more, the chunks' sums and squared deviations
    about their own means (numpy's operations on each chunk's losses) are
    combined about the mean, each summed exactly rounded."""
    Xa, Xp, Xn = sampler.draw(m)
    vals = np.empty(m)
    step = max(1, loss_module.BLOCK // Xa.shape[1])
    for start in range(0, m, step):
        rows = slice(start, start + step)
        margins = row_scores(w.w, Xa[rows], Xp[rows])
        margins -= row_scores(w.w, Xa[rows], Xn[rows])
        margins += cfg.zeta
        vals[rows] = margin_terms(margins)[0]
    if np.ptp(vals) == 0.0:
        return RiskEstimate(RiskMode.MONTE_CARLO_POPULATION, float(vals[0]), 0.0, m)
    if m <= risk.SAMPLE_CHUNK + 1:
        std_error = float(vals.std(ddof=1)) / math.sqrt(m)
        return RiskEstimate(RiskMode.MONTE_CARLO_POPULATION, float(vals.mean()), std_error, m)
    cuts = list(range(risk.SAMPLE_CHUNK, m, risk.SAMPLE_CHUNK))
    if m - cuts[-1] == 1:
        cuts.pop()
    chunks = np.split(vals, cuts)
    mean = math.fsum(float(chunk.sum()) for chunk in chunks) / m
    squares = math.fsum(
        float(np.square(chunk - chunk.mean()).sum()) + len(chunk) * (chunk.mean() - mean) ** 2
        for chunk in chunks
    )
    std_error = math.sqrt(squares / (m - 1)) / math.sqrt(m)
    return RiskEstimate(RiskMode.MONTE_CARLO_POPULATION, mean, std_error, m)


@pytest.mark.parametrize("block", [None, 70])  # the default block, then blocks of 70 // d rows
@pytest.mark.parametrize("d", [1, 3, 4, 10])
def test_streamed_population_risk_matches_draw_then_score_bit_for_bit(monkeypatch, d, block):
    if block is not None:
        monkeypatch.setattr(loss_module, "BLOCK", block)
    rows = max(1, loss_module.BLOCK // d)
    task = TaskConfig(d=d, n_plus=4, n_minus=4, B=0.6, separation=0.8, noise_scale=0.3, seed=d)
    w = random_metric(np.random.default_rng(d), d, scale=2.0)
    # two triplets, one block, one block and a row, three blocks and a remainder
    for m in (2, rows, rows + 1, 3 * rows + 5):
        for zeta in (0.0, 0.3):
            _, got_sampler = gen_task(task)
            _, want_sampler = gen_task(task)
            got = population_risk(w, got_sampler, m, LossConfig(zeta))
            want = _population_risk_oracle(w, want_sampler, m, LossConfig(zeta))
            case = (d, block, m, zeta)
            assert got.value.hex() == want.value.hex(), case
            assert got.std_error.hex() == want.std_error.hex(), case
            assert (got.n_terms, got.mode) == (want.n_terms, want.mode), case
            # the sampler sits where drawing every triplet whole leaves it
            assert got_sampler._rng.random() == want_sampler._rng.random(), case


@pytest.mark.parametrize("block", [None, 70])  # the default block, then blocks of 70 // d rows
@pytest.mark.parametrize("d", [1, 3, 4, 10])
def test_scoring_a_drawn_sample_is_population_risk_bit_for_bit(monkeypatch, d, block):
    if block is not None:
        monkeypatch.setattr(loss_module, "BLOCK", block)
    rows = max(1, loss_module.BLOCK // d)
    task = TaskConfig(d=d, n_plus=4, n_minus=4, B=0.6, separation=0.8, noise_scale=0.3, seed=d)
    w = random_metric(np.random.default_rng(d), d, scale=2.0)
    for m in (2, rows - 1, rows, rows + 1, 3 * rows + 5):
        if m < 2:
            continue
        _, sampler = gen_task(task)
        _, reference = gen_task(task)
        sample = draw_evaluation_sample(sampler, m)
        xa, xp, xn = reference.draw(m)
        case = (d, block, m)
        assert sample.shape == (2, m, d), case
        assert np.array_equal(sample[0], xa - xp) and np.array_equal(sample[1], xa - xn), case
        # the sampler sits where drawing every triplet whole leaves it
        assert sampler._rng.random() == reference._rng.random(), case
        for zeta in (0.0, 0.3):
            _, population_sampler = gen_task(task)
            got = sample_risk(w, sample, LossConfig(zeta))
            want = population_risk(w, population_sampler, m, LossConfig(zeta))
            assert got.value.hex() == want.value.hex(), case
            assert got.std_error.hex() == want.std_error.hex(), case
            assert (got.n_terms, got.mode) == (want.n_terms, want.mode), case


@pytest.mark.parametrize("zeta", [0.0, 0.3])
def test_chunked_scoring_agrees_with_numpy_one_pass(monkeypatch, zeta):
    m = 3 * risk.SAMPLE_CHUNK + 5  # four chunks, the last of 5 rows
    task = TaskConfig(d=3, n_plus=4, n_minus=4, B=0.6, noise_scale=0.3, seed=9)
    sample = draw_evaluation_sample(gen_task(task)[1], m)
    w = random_metric(np.random.default_rng(9), 3, scale=2.0)
    # the chunks are combined in chunk order, whichever threads scored them
    scored = []
    for cpus in (1, 2, 8):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        scored.append(sample_risk(w, sample, LossConfig(zeta)))
    assert scored[1] == scored[0] and scored[2] == scored[0]
    for rows in (m, risk.SAMPLE_CHUNK):  # four chunks, then the first alone
        part = sample[:, :rows]
        vals = difference_losses(w.w, (rows, 3), lambda block: part[:, block], zeta)
        mean, std_error = float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(rows)
        got = sample_risk(w, part, LossConfig(zeta))
        if rows == m:
            assert got.value == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert got.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)
        else:
            assert (got.value.hex(), got.std_error.hex()) == (mean.hex(), std_error.hex())
    # a constant integrand over several chunks keeps no sampling error
    got = sample_risk(MetricParams.zeros(3), sample, LossConfig(zeta))
    assert (got.value, got.std_error) == (float(phi(-zeta)), 0.0)


@pytest.mark.parametrize("m", [3000, 2 * risk.SAMPLE_CHUNK + 5], ids=["one_chunk", "three_chunks"])
def test_scoring_k_metrics_in_one_call_is_k_sample_risk_calls_bit_for_bit(monkeypatch, m):
    task = TaskConfig(d=3, n_plus=4, n_minus=4, B=0.6, noise_scale=0.3, seed=12)
    sample = draw_evaluation_sample(gen_task(task)[1], m)
    rng = np.random.default_rng(12)
    ws = [random_metric(rng, 3, scale=s) for s in (0.5, 1.0, 2.0)] + [MetricParams.zeros(3)]
    cfg = LossConfig(0.3)
    for cpus in (1, 2, 8):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        pops, workers = sample_risks(ws, sample, cfg)
        jobs = len(ws) * (1 if m == 3000 else 3)
        assert workers == min(cpus, jobs)
        for pop, w in zip(pops, ws, strict=True):
            want = sample_risk(w, sample, cfg)
            assert pop.value.hex() == want.value.hex()
            assert pop.std_error.hex() == want.std_error.hex()
            assert pop == want


def test_an_evaluation_sample_is_read_only_and_scores_without_changing():
    _, sampler = gen_task(TaskConfig(d=3, n_plus=4, n_minus=4, seed=4))
    sample = draw_evaluation_sample(sampler, 500)
    before = sample.copy()
    for arr in (sample, sample[0], sample[1]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    w = random_metric(np.random.default_rng(4), 3)
    first = sample_risk(w, sample, LossConfig(0.2))
    assert sample_risk(w, sample, LossConfig(0.2)) == first
    assert np.array_equal(sample, before)


def test_evaluation_sample_validation():
    _, sampler = gen_task(TaskConfig(d=2, n_plus=4, n_minus=4, seed=5))
    with pytest.raises(ValueError):
        draw_evaluation_sample(sampler, 1)
    sample = draw_evaluation_sample(sampler, 10)
    with pytest.raises(DimensionMismatch):
        sample_risk(MetricParams.zeros(3), sample, LossConfig(0.0))
    with pytest.raises(DimensionMismatch):
        population_risk(MetricParams.zeros(3), sampler, 10, LossConfig(0.0))


def test_a_sample_larger_than_physical_memory_is_refused_before_any_draw(monkeypatch):
    d, m = 3, 1000
    need = 2 * m * d * 8
    monkeypatch.setattr(risk, "physical_memory", lambda: need)
    check_sample_size(m, d)  # exactly at the limit: allowed
    with pytest.raises(SampleTooLarge, match=f"m = {m + 1} .* d = {d} needs {need + 48} bytes"):
        check_sample_size(m + 1, d)
    monkeypatch.setattr(risk, "physical_memory", lambda: need - 1)
    task = TaskConfig(d=d, n_plus=4, n_minus=4, seed=6)
    (_, sampler), (_, twin) = gen_task(task), gen_task(task)
    with pytest.raises(SampleTooLarge, match=f"more than the {need - 1} bytes"):
        draw_evaluation_sample(sampler, m)
    # nothing was drawn: the sampler goes on as its untouched twin does
    assert np.array_equal(sampler.draw(5)[0], twin.draw(5)[0])


def test_generalization_gap_zero_metric_is_exactly_zero():
    cfg = TaskConfig(d=3, n_plus=10, n_minus=10, seed=14)
    train, sampler = gen_task(cfg)
    gap, err = generalization_gap(
        MetricParams.zeros(3), train, sampler, 5000, LossConfig(0.0)
    )
    assert gap == 0.0
    assert err == 0.0


def test_generalization_gap_trained_metric_is_plausible():
    # gap of a trained model on its own training set: recorded magnitudes only
    from tripletlab.optim import SgdConfig, sgd_train

    cfg = TaskConfig(d=3, n_plus=30, n_minus=30, seed=15)
    train, sampler = gen_task(cfg)
    w, _ = sgd_train(train, SgdConfig(T=300, c=1 / 32, seed=1))
    gap, err = generalization_gap(w, train, sampler, 200_000, LossConfig(0.0))
    assert math.isfinite(gap)
    assert abs(gap) < 0.1


# --- Bernstein bound ---


def test_bernstein_hand_value():
    got = bernstein_ustat_bound(1.0, 0.25, 0.05, 100, 50)
    # two block terms with floor(n+/2) = n- = 50
    expected = 2 * (2 * math.log(20) / (3 * 50)) + 2 * math.sqrt(
        2 * 0.25 * math.log(20) / 50
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.42605, abs=5e-6)


def test_bernstein_monotone_in_delta():
    lo = bernstein_ustat_bound(1.0, 0.25, 0.01, 100, 50)
    hi = bernstein_ustat_bound(1.0, 0.25, 0.2, 100, 50)
    assert lo > hi


def test_bernstein_rejects_bad_delta():
    with pytest.raises(InvalidDelta):
        bernstein_ustat_bound(1.0, 0.25, 0.0, 100, 50)
    with pytest.raises(InvalidDelta):
        bernstein_ustat_bound(1.0, 0.25, 1.0, 100, 50)


def test_bernstein_rejects_bad_counts():
    with pytest.raises(InvalidCounts):
        bernstein_ustat_bound(1.0, 0.25, 0.05, 1, 50)
    with pytest.raises(InvalidCounts):
        bernstein_ustat_bound(1.0, 0.25, 0.05, 100, 0)


def test_default_budget_value():
    assert DEFAULT_TRIPLET_BUDGET == 2_000_000


# --- the series form of the exact risk ---


def _margin_range(S_pp, S_pn, zeta):
    margins = S_pp[:, :, None] - S_pn[:, None, :] + zeta
    valid = ~np.eye(S_pp.shape[0], dtype=bool)[:, :, None].repeat(S_pn.shape[1], axis=2)
    return float(margins[valid].min()), float(margins[valid].max())


def _scaled_problem(seed, d, n_plus, n_minus, zeta, h):
    """Features, a metric and its pair scores, with the metric scaled so the
    largest |margin| over the valid triplets is h (to rounding)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_plus, d)) / math.sqrt(d)
    Y = rng.standard_normal((n_minus, d)) / math.sqrt(d)
    w = random_metric(rng, d).w
    lo, hi = _margin_range(pair_scores(w, X, X), pair_scores(w, X, Y), 0.0)
    # zeta + t hi = h or zeta + t lo = -h, whichever t comes first
    t = min((h - zeta) / hi if hi > 0 else math.inf, (h + zeta) / -lo if lo < 0 else math.inf)
    w = t * w
    return w, X, Y, pair_scores(w, X, X), pair_scores(w, X, Y)


def _mpmath_mean_loss(S_pp, S_pn, zeta):
    """The mean of log(1 + e^m) over the valid triplets' margins, in 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        n_plus, n_minus = S_pn.shape
        for i in range(n_plus):
            for j in range(n_plus):
                if j != i:
                    a = mpmath.mpf(S_pp[i, j]) + mpmath.mpf(zeta)
                    for k in range(n_minus):
                        total += mpmath.log1p(mpmath.exp(a - mpmath.mpf(S_pn[i, k])))
        return float(total / (n_plus * (n_plus - 1) * n_minus))


def _parent_exact_mean_loss(w_arr, X, Y, zeta):
    """exact_mean_loss before the series form: the sweep alone, with the
    constant-integrand shortcut."""
    n_plus, n_minus = X.shape[0], Y.shape[0]
    S_pp = pair_scores(w_arr, X, X)
    S_pn = pair_scores(w_arr, X, Y)
    off = ~np.eye(n_plus, dtype=bool)
    lo = float((S_pp.min(axis=1, initial=np.inf, where=off) - S_pn.max(axis=1)).min()) + zeta
    hi = float((S_pp.max(axis=1, initial=-np.inf, where=off) - S_pn.min(axis=1)).max()) + zeta
    if lo == hi:
        return float(phi(-hi))
    partials = triplet_sweep([(S_pp, S_pn)], zeta, lambda start, terms: float(terms[0].sum()))
    return math.fsum(partials) / (n_plus * (n_plus - 1) * n_minus)


def test_series_coefficients_and_order():
    assert risk.SERIES_COEFFS[:3] == [1 / 8, -1 / 192, 1 / 2880]
    # log cosh(m / 2) = log(1 + e^m) - log 2 - m / 2 at a small m
    m = 0.3
    series = sum(c * m ** (2 * k) for k, c in enumerate(risk.SERIES_COEFFS, 1))
    assert series == pytest.approx(math.log1p(math.exp(m)) - math.log(2) - m / 2, rel=1e-15)
    assert risk.series_order(risk.MAX_SERIES_MARGIN) == len(risk.SERIES_COEFFS) == 16
    assert risk.series_order(0.0) == 0
    # K is the least order whose tail bound is at most SERIES_TAIL
    for h in (1e-9, 0.03, 0.5, 1.0):
        r = (h / math.pi) ** 2
        tail = [math.pi**2 / 6 / (K + 1) * r ** (K + 1) / (1 - r) for K in range(17)]
        K = risk.series_order(h)
        assert tail[K] <= risk.SERIES_TAIL and (K == 0 or tail[K - 1] > risk.SERIES_TAIL)


ALMOST_ONE = risk.MAX_SERIES_MARGIN * (1 - 1e-9)


@pytest.mark.parametrize(
    "d, n_plus, n_minus, zeta, h",
    [
        (1, 9, 7, 0.0, 0.5),
        (1, 6, 1, 0.2, 0.9),
        (3, 12, 5, 0.2, ALMOST_ONE),
        (3, 10, 13, 0.02, 0.03),
        (5, 8, 1, 0.0, 0.3),
        (5, 7, 11, 0.0, ALMOST_ONE),
    ],
)
def test_series_matches_mpmath_and_the_sweep(d, n_plus, n_minus, zeta, h):
    w, X, Y, S_pp, S_pn = _scaled_problem(d + n_plus, d, n_plus, n_minus, zeta, h)
    lo, hi = _margin_range(S_pp, S_pn, zeta)
    assert max(-lo, hi) == pytest.approx(h, rel=1e-12)
    got = risk.series_mean_loss(S_pp, S_pn, zeta, risk.series_order(max(-lo, hi)))
    want = _mpmath_mean_loss(S_pp, S_pn, zeta)
    assert abs(got - want) <= 1e-15 * want
    swept = risk.swept_mean_loss(w, X, Y, zeta)
    assert abs(got - swept) <= 1e-15 * swept


def test_series_keeps_its_accuracy_when_the_scores_dwarf_the_margins():
    # the vertices of a regular simplex at squared distance 30, jittered: every
    # pair score is about 30 while every margin is below 1, so the power sums
    # are only accurate about each anchor's midpoint score
    d, n_plus, n_minus, zeta = 5, 4, 2, 0.2
    rng = np.random.default_rng(8)
    vertices = np.sqrt(15.0) * np.eye(d + 1)[:, :d]
    vertices[d] = np.sqrt(15.0) * (1 - np.sqrt(d + 1)) / d
    vertices += 0.02 * rng.standard_normal(vertices.shape)
    X, Y, w = vertices[:n_plus], vertices[n_plus:], np.eye(d)
    S_pp, S_pn = pair_scores(w, X, X), pair_scores(w, X, Y)
    lo, hi = _margin_range(S_pp, S_pn, zeta)
    assert max(-lo, hi) < 1.0 and S_pn.min() > 25.0
    got = risk.series_mean_loss(S_pp, S_pn, zeta, risk.series_order(max(-lo, hi)))
    want = _mpmath_mean_loss(S_pp, S_pn, zeta)
    assert abs(got - want) <= 1e-15 * want


def _series_spy(monkeypatch):
    calls = []
    real = risk.series_mean_loss

    def spy(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(risk, "series_mean_loss", spy)
    return calls


@pytest.mark.parametrize("zeta", [0.0, 0.2])
def test_exact_risk_takes_the_series_only_below_the_threshold(monkeypatch, zeta):
    calls = _series_spy(monkeypatch)
    # just under the threshold, with enough triplets per pair score for the
    # series' products and per-order cost to undercut the sweep
    w, X, Y, _, _ = _scaled_problem(1, 3, 100, 90, zeta, ALMOST_ONE)
    got = risk.exact_mean_loss(w, X, Y, zeta)
    assert calls == [16]
    swept = risk.swept_mean_loss(w, X, Y, zeta)
    assert abs(got - swept) <= 1e-15 * swept
    # just over it: the sweep, bit for bit the parent's
    w, X, Y, _, _ = _scaled_problem(1, 3, 100, 90, zeta, risk.MAX_SERIES_MARGIN * (1 + 1e-9))
    assert risk.exact_mean_loss(w, X, Y, zeta).hex() == _parent_exact_mean_loss(w, X, Y, zeta).hex()
    # small margins but too few triplets per pair score: the sweep
    w, X, Y, _, _ = _scaled_problem(2, 3, 8, 3, zeta, 0.1)
    assert risk.exact_mean_loss(w, X, Y, zeta).hex() == _parent_exact_mean_loss(w, X, Y, zeta).hex()
    # a constant integrand: its one loss
    X, Y = np.ones((80, 3)), np.zeros((70, 3))
    assert risk.exact_mean_loss(np.eye(3), X, Y, zeta) == float(phi(3.0 - zeta))
    assert risk.exact_mean_loss(np.zeros((3, 3)), X, Y, zeta) == float(phi(-zeta))
    assert calls == [16]


def _best_seconds(f, repeats=7):
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        f()
        times.append(time.perf_counter() - began)
    return min(times)


@pytest.mark.parametrize("K", [2, 4])
def test_the_series_rule_crosses_over_within_a_factor_1_5_of_the_measured_crossover(K):
    # n = n+ = n-: the first n at which series_is_cheaper holds, against the
    # first n from which series_mean_loss to order K (best of 7) beats the
    # sweep at two grid sizes running; both forms take one thread here
    grid = range(8, 129, 4)
    rule = next(n for n in grid if risk.series_is_cheaper(n, n, K))
    rng = np.random.default_rng(K)
    w = 0.1 * np.eye(3)
    faster = []
    for n in grid:
        X, Y = 0.1 * rng.standard_normal((n, 3)), 0.1 * rng.standard_normal((n, 3))
        S_pp, S_pn = pair_scores(w, X, X), pair_scores(w, X, Y)
        series = _best_seconds(lambda: risk.series_mean_loss(S_pp, S_pn, 0.0, K))
        sweep = _best_seconds(
            lambda: triplet_sweep([(S_pp, S_pn)], 0.0, lambda start, terms: float(terms[0].sum()))
        )
        faster.append(series < sweep)
        if faster[-2:] == [True, True]:
            break
    measured = grid[len(faster) - 2]
    assert rule / 1.5 <= measured <= rule * 1.5, (rule, measured)


def test_rrm_halvings_never_take_the_series(monkeypatch):
    # a task whose margins stay small, large enough for exact_mean_loss to
    # take the series there; the first full Newton step is scored +inf, so
    # the line search halves it
    rng = np.random.default_rng(5)
    train = TripletDataset(0.05 * rng.standard_normal((40, 3)), 0.05 * rng.standard_normal((40, 3)))
    real_parts, parts_calls, halvings = optim._risk_parts, [], []

    def rejecting_first_step(w, *args, **kwargs):
        parts_calls.append(w)
        value, grad, hess = real_parts(w, *args, **kwargs)
        return (math.inf if len(parts_calls) == 2 else value), grad, hess

    def recording_sweep(w, *args):
        halvings.append(w)
        return risk.swept_mean_loss(w, *args)

    calls = _series_spy(monkeypatch)
    monkeypatch.setattr(optim, "_risk_parts", rejecting_first_step)
    monkeypatch.setattr(optim, "swept_mean_loss", recording_sweep)
    rrm_train(train, RrmConfig(lam=0.01))
    assert halvings and calls == []
    # at the same points exact_mean_loss takes the series, within 1e-15
    X, Y = train.positives, train.negatives
    for w in halvings:
        got = risk.exact_mean_loss(w, X, Y, 0.0)
        assert abs(got - risk.swept_mean_loss(w, X, Y, 0.0)) <= 1e-15 * got
    assert len(calls) == len(halvings)
