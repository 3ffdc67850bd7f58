"""Empirical and population risk estimates plus the Bernstein deviation bound.

The empirical risk is the mean triplet loss over all n+ (n+ - 1) n- ordered
triplets (a U-statistic). Up to a triplet budget (default 2e6) it is computed
exactly (exact_mean_loss), in one of two forms: a sweep that sums every
triplet's loss in a fixed deterministic order, or, when every |margin| is at
most MAX_SERIES_MARGIN = 1 and the sweep would cost more, a series in the
margin whose moments come from per-anchor power sums of the n+ (n+ + n-)
pair scores (series_mean_loss); the two agree to 1e-15 relative. Above the
budget it falls back to a uniform i.i.d. subsample, which is unbiased for
the exact value. Population risk is plain Monte Carlo over fresh triplets
from a sampler, in two halves: draw_evaluation_sample draws the triplets
once, as read-only differences, and sample_risks scores a list of metrics
on them, so one sample can score every metric of a run (sample_risk scores
one; population_risk draws and scores in turn). A sample is scored in
chunks of SAMPLE_CHUNK rows, one job per (metric, chunk) pair on every CPU
(sample_chunks): chunk_moments scores one metric on one chunk, and
combined_estimate combines a metric's chunks in chunk order. The sweep
runners stream their shared sample in the same chunks, each drawn and then
scored by every metric of the run with these two functions, so no m-row
sample is held (lab._run_trials).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import parallel
from .core import DimensionMismatch, TripletDataset, ValidationError, read_only_view
from .loss import (
    BLOCK,
    LossConfig,
    MetricParams,
    difference_losses,
    pair_scores,
    phi,
    row_blocks,
    triplet_sweep,
    triplet_losses_rowwise,
)
from .synth import TripletSampler

DEFAULT_TRIPLET_BUDGET = 2_000_000
# rows per chunk of an evaluation sample (sample_chunks): the unit of a
# parallel draw and of scoring, whose loss array is then one BLOCK of doubles
SAMPLE_CHUNK = 1 << 16


class InvalidDelta(ValidationError):
    pass


class InvalidCounts(ValidationError):
    pass


class SampleTooLarge(ValidationError):
    pass


class RiskMode(Enum):
    EXACT_U_STATISTIC = "exact_u_statistic"
    SAMPLED_TRIPLETS = "sampled_triplets"
    MONTE_CARLO_POPULATION = "monte_carlo_population"


@dataclass(frozen=True)
class RiskEstimate:
    mode: RiskMode
    value: float
    std_error: float
    n_terms: int

    def __post_init__(self):
        if not self.std_error >= 0:  # NaN too
            raise ValidationError(f"std_error must be >= 0, got {self.std_error}")
        if self.mode is RiskMode.EXACT_U_STATISTIC and self.std_error != 0.0:
            raise ValidationError("exact mode carries no sampling error")
        if self.n_terms < 1:
            raise ValidationError(f"n_terms must be >= 1, got {self.n_terms}")


def _bernoulli_even(count: int) -> list:
    """[B_0, B_2, ..., B_{2 count - 2}], the even Bernoulli numbers, exactly."""
    B = [Fraction(1)]
    for m in range(1, 2 * count - 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B[::2]


# margins of at most this size (in absolute value) take the series form of
# exact_mean_loss; log cosh(m / 2) is analytic for |m| < pi
MAX_SERIES_MARGIN = 1.0
# the series is cut where its tail bound falls to this, far below an ulp of
# the mean loss (at least log(1 + e^-1) = 0.31 in the series' range)
SERIES_TAIL = 1e-17
# the series form's cost per order beyond its products, in triplets of the
# sweep: a power-sum column and a moment per order cost about 11 us of numpy
# calls, what the sweep spends on about 8,000 triplets where the two forms
# cross (n = 24 to 70); the forms' other fixed costs per call are about equal
SERIES_ORDER_COST = 8_000
# the cost of one product of the series form's power sums, in triplets of the
# sweep: timed at 0.55-0.8 of a triplet at n = 80 to 128 (2 cores)
SERIES_PRODUCT_COST = 0.7


def series_order(h: float) -> int:
    """The least K for which the tail of the series past c_K m^2K is at most
    SERIES_TAIL at every |m| <= h < pi: |c_k| <= zeta(2k) / (k pi^2k) <=
    (pi^2 / 6) / (k pi^2k), so the tail is at most
    (pi^2 / 6) / (K + 1) (h / pi)^(2K + 2) / (1 - (h / pi)^2)."""
    r = (h / math.pi) ** 2
    K = 0
    while math.pi**2 / 6 / (K + 1) * r ** (K + 1) / (1.0 - r) > SERIES_TAIL:
        K += 1
    return K


# SERIES_COEFFS[k - 1] = c_k = (2^2k - 1) B_2k / (2k (2k)!), the coefficient
# of m^2k in log cosh(m / 2): 1/8, -1/192, 1/2880, ..., as far as any margin
# up to MAX_SERIES_MARGIN needs (16 terms at 1)
SERIES_COEFFS = [
    float((4**k - 1) * b / (2 * k * math.factorial(2 * k)))
    for k, b in enumerate(_bernoulli_even(series_order(MAX_SERIES_MARGIN) + 1)) if k
]


def _power_sums(base: np.ndarray, count: int, top: int) -> np.ndarray:
    """(rows, top + 1) array of each row's power sums of base, sum_j base_ij^s
    in column s >= 1 and count in column 0, computed in row blocks of BLOCK
    doubles so a block and its running power stay in cache."""
    sums = np.empty((base.shape[0], top + 1))
    sums[:, 0] = count
    step = max(1, BLOCK // base.shape[1])
    for start in range(0, base.shape[0], step):
        rows = slice(start, start + step)
        power = base[rows].copy()
        for s in range(1, top + 1):
            if s > 1:
                power *= base[rows]
            sums[rows, s] = power.sum(axis=1)
    return sums


def series_mean_loss(S_pp: np.ndarray, S_pn: np.ndarray, zeta: float, K: int) -> float:
    """exact_mean_loss's series form, from the pair scores S_pp (n+, n+) and
    S_pn (n+, n-), to the order K of series_order(h), h the largest |margin|.

    phi(-m) = log(1 + e^m) = log 2 + m / 2 + log cosh(m / 2), so the mean over
    the N triplets is log 2 + M_1 / (2N) + sum_{k <= K} c_k M_2k / N, with
    M_r the sum of m^r. For anchor i the margins are m_ijk = alpha_ij - beta_ik,
    with alpha_ij = S_pp[i, j] + zeta - c_i (j != i), beta_ik = S_pn[i, k] - c_i
    and c_i the midpoint of the anchor's scores, so |alpha|, |beta| <= h; then
    M_r = sum_i sum_s C(r, s) A_is (-1)^(r - s) B_i,r-s over the per-anchor
    power sums A_is of alpha and B_it of beta. That is O(n+ (n+ + n-) K) work.
    """
    n_plus, n_minus = S_pn.shape
    off = ~np.eye(n_plus, dtype=bool)
    a = S_pp + zeta
    top = np.maximum(a.max(axis=1, initial=-np.inf, where=off), S_pn.max(axis=1))
    bottom = np.minimum(a.min(axis=1, initial=np.inf, where=off), S_pn.min(axis=1))
    centre = ((top + bottom) / 2.0)[:, None]
    alpha = np.subtract(a, centre, out=a)
    np.fill_diagonal(alpha, 0.0)  # so j = i adds nothing to any power sum
    beta = S_pn - centre
    A = _power_sums(alpha, n_plus - 1, 2 * K)
    B = _power_sums(beta, n_minus, 2 * K)

    def moment(r):
        weights = [math.comb(r, s) * (-1) ** (r - s) for s in range(r + 1)]
        return float((A[:, : r + 1] * B[:, r::-1]).sum(axis=0) @ weights)

    terms = [moment(1) / 2.0] + [c * moment(2 * k) for k, c in enumerate(SERIES_COEFFS[:K], 1)]
    return math.log(2.0) + math.fsum(terms) / (n_plus * (n_plus - 1) * n_minus)


def series_is_cheaper(n_plus: int, n_minus: int, K: int) -> bool:
    """Whether series_mean_loss to order K costs less than the sweep: its
    2K products per pair score, SERIES_PRODUCT_COST each, and K
    SERIES_ORDER_COST, against one log1p per triplet."""
    products = 2 * K * n_plus * (n_plus + n_minus) * SERIES_PRODUCT_COST
    return products + K * SERIES_ORDER_COST < n_plus * (n_plus - 1) * n_minus


def _mean_loss(w_arr, X, Y, zeta, series: bool) -> float:
    n_plus, n_minus = X.shape[0], Y.shape[0]
    S_pp = pair_scores(w_arr, X, X)
    S_pn = pair_scores(w_arr, X, Y)
    # extreme margins over valid triplets (j != i); rounding is monotone, so exact
    off = ~np.eye(n_plus, dtype=bool)
    lo = float((S_pp.min(axis=1, initial=np.inf, where=off) - S_pn.max(axis=1)).min()) + zeta
    hi = float((S_pp.max(axis=1, initial=-np.inf, where=off) - S_pn.min(axis=1)).max()) + zeta
    if lo == hi:  # constant integrand: the mean is that one loss, with no rounding
        return float(phi(-hi))
    h = max(-lo, hi)
    if series and h <= MAX_SERIES_MARGIN:
        K = series_order(h)
        if series_is_cheaper(n_plus, n_minus, K):
            return series_mean_loss(S_pp, S_pn, zeta, K)
    partials = triplet_sweep([(S_pp, S_pn)], zeta, lambda start, terms: float(terms[0].sum()))
    return math.fsum(partials) / (n_plus * (n_plus - 1) * n_minus)


def exact_mean_loss(w_arr: np.ndarray, X: np.ndarray, Y: np.ndarray, zeta: float) -> float:
    """Mean logistic loss phi(-margin) over all ordered triplets, in one of two
    exact forms, chosen by the margin range [lo, hi] and the work of each.

    The sweep (swept_mean_loss) sums every triplet's loss: anchor blocks
    (triplet_sweep) summed with numpy's pairwise summation, combined with
    math.fsum, so the result is reproducible and permutation-stable to well
    below 1e-12 relative. When every |margin| is at most MAX_SERIES_MARGIN
    and the series costs less (series_is_cheaper: its 2K n+ (n+ + n-)
    products at SERIES_PRODUCT_COST and K SERIES_ORDER_COST against the
    sweep's n+ (n+ - 1) n- terms), the mean comes from series_mean_loss
    instead, in O(n^2) work; both forms agree to 1e-15 relative. A constant
    integrand (lo == hi) gives that one loss, phi(-hi), in either form.
    """
    return _mean_loss(w_arr, X, Y, zeta, series=True)


def swept_mean_loss(w_arr: np.ndarray, X: np.ndarray, Y: np.ndarray, zeta: float) -> float:
    """exact_mean_loss in its sweep form at any margin: the sum over every
    triplet that the Newton solve's own sweeps (optim._risk_parts) make."""
    return _mean_loss(w_arr, X, Y, zeta, series=False)


def exact_budget(n_plus: int, n_minus: int) -> int:
    """The triplet budget that keeps the risks and solves of a training set
    with these pool sizes exact: all n+ (n+ - 1) n- triplets, and never less
    than the default."""
    return max(DEFAULT_TRIPLET_BUDGET, n_plus * (n_plus - 1) * n_minus)


def sample_triplet_indices(rng: np.random.Generator, n_plus: int, n_minus: int, m: int):
    """m i.i.d. uniform draws from {(i, j, k): i != j}; j is redrawn on collision."""
    i = rng.integers(0, n_plus, size=m)
    j = rng.integers(0, n_plus, size=m)
    bad = i == j
    while np.any(bad):
        j[bad] = rng.integers(0, n_plus, size=int(bad.sum()))
        bad = i == j
    k = rng.integers(0, n_minus, size=m)
    return i, j, k


def empirical_risk(
    w: MetricParams,
    dataset: TripletDataset,
    cfg: LossConfig,
    budget: int | None = None,
    rng=None,
) -> RiskEstimate:
    """Mean triplet loss over the training set.

    Exact (std_error 0) when the triplet count fits the budget, otherwise the
    mean over `budget` uniform i.i.d. triplets, at least 2 for a standard
    error. The subsample stream defaults to a fixed seed so repeated calls
    with the same inputs agree; pass `rng` for independent redraws.
    """
    if w.d != dataset.d:
        raise DimensionMismatch(f"metric is {w.d}-dimensional, dataset is {dataset.d}")
    if budget is None:
        budget = DEFAULT_TRIPLET_BUDGET
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    X = dataset.positive_features
    Y = dataset.negative_features
    n_total = dataset.n_triplets
    if n_total <= budget:
        value = exact_mean_loss(w.w, X, Y, cfg.zeta)
        return RiskEstimate(RiskMode.EXACT_U_STATISTIC, value, 0.0, n_total)
    if budget < 2:
        raise ValidationError(
            f"a sampled empirical risk needs budget >= 2 triplets for its std_error, got {budget}"
        )
    gen = np.random.default_rng(0 if rng is None else rng)
    i, j, k = sample_triplet_indices(gen, dataset.n_plus, dataset.n_minus, budget)
    vals = triplet_losses_rowwise(w.w, X[i], X[j], Y[k], cfg.zeta)
    std_error = float(vals.std(ddof=1)) / math.sqrt(budget)
    return RiskEstimate(RiskMode.SAMPLED_TRIPLETS, float(vals.mean()), std_error, budget)


def physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: int, what: str, count: str, error=SampleTooLarge) -> None:
    """Raise error if need bytes, those of what as count reckons them, are
    more than physical memory."""
    have = physical_memory()
    if need > have:
        raise error(
            f"{what} needs {need} bytes ({count}), more than the {have} bytes of physical memory"
        )


def check_sample_size(m: int, d: int, arrays: int = 2, kind: str = "population sample") -> None:
    """Raise SampleTooLarge if a sample of m triplets at dimension d held in
    `arrays` m-by-d arrays of doubles is larger than physical memory: 2 for
    an evaluation sample (draw_evaluation_sample), 3 for a probe set."""
    need = arrays * m * d * 8
    check_memory(need, f"a {kind} of m = {m} triplets at d = {d}", f"{arrays}*m*d*8")


def sample_chunks(m: int) -> list:
    """Row slices of an m-triplet sample's chunks: SAMPLE_CHUNK rows each, the
    last one taking the rest, and a lone remaining row joining the chunk
    before it (loss.row_blocks), so every chunk of a sample has at least 2
    rows and a sample of at most SAMPLE_CHUNK + 1 rows is one chunk."""
    return row_blocks(m, SAMPLE_CHUNK)


def draw_evaluation_sample(sampler: TripletSampler, m: int, out=None) -> np.ndarray:
    """sampler.draw(m)'s triplets as differences: a read-only (2, m, d) array
    of anchor - positive, then anchor - negative, or the writable (2, m, d)
    array out filled with them (a chunk's rows of a larger sample). Advances
    the sampler as sampler.draw(m) does.

    The anchors are drawn straight into the second half; the positives and
    then the negatives arrive in the sampler's row blocks and are subtracted
    from them as they land, so no other m x d array is ever held. Each
    difference is the subtraction triplet_losses_rowwise makes, bit for bit.
    A sample larger than physical memory is refused (check_sample_size)
    before anything is allocated.
    """
    if m < 2:
        raise ValidationError(f"population risk needs m >= 2 triplets, got {m}")
    if out is None:
        check_sample_size(m, sampler.d)
        return read_only_view(draw_evaluation_sample(sampler, m, np.empty((2, m, sampler.d))))
    positive, negative = out
    sampler.draw_positive(m, out=negative)
    halves = (sampler.positive_blocks(m), positive), (sampler.negative_blocks(m), negative)
    for blocks, half in halves:
        start = 0
        for block in blocks:
            rows = slice(start, start + block.shape[0])
            np.subtract(negative[rows], block, out=half[rows])
            start = rows.stop
    return out


def chunk_moments(w_arr: np.ndarray, chunk: np.ndarray, zeta: float):
    """(sum, sum of squared deviations about the chunk's mean, count, min,
    max) of the losses of w_arr on chunk, a (2, rows, d) part of an
    evaluation sample, scored by loss.difference_losses. The deviations are
    vals.std(ddof=1)'s own operations, done in place on the chunk's losses."""
    _, rows, d = chunk.shape
    vals = difference_losses(w_arr, (rows, d), lambda block: chunk[:, block], zeta)
    total = float(vals.sum())
    low, high = float(vals.min()), float(vals.max())
    np.subtract(vals, total / rows, out=vals)
    np.square(vals, out=vals)
    return total, float(vals.sum()), rows, low, high


def sample_risks(ws, sample: np.ndarray, cfg: LossConfig):
    """([sample_risk(w, sample, cfg) for w in ws], worker count), from one
    parallel.run_jobs call with a job per (metric, chunk) pair.

    Each job scores one chunk of the sample (sample_chunks) under one metric
    (chunk_moments), and each metric's chunk moments are combined in chunk
    order: the mean is the exactly rounded sum of the chunk sums over m, and
    the sum of squared deviations about it is that of each chunk plus count
    (chunk mean - mean)^2, summed exactly rounded. So an estimate depends
    neither on the thread count nor on the other metrics; on one chunk it is
    numpy's one-pass mean and std(ddof=1) / sqrt(m) bit for bit, and on more
    within 1e-12 relative of them. A constant integrand (min == max) gives
    that one loss with std_error 0. The sample is only read, so one sample
    can score any number of metrics, from any number of threads at once.
    """
    _, m, d = sample.shape
    for w in ws:
        if w.d != d:
            raise DimensionMismatch(f"metric is {w.d}-dimensional, sample is {d}")
    chunks = [sample[:, rows] for rows in sample_chunks(m)]
    parts, workers = parallel.run_jobs(
        chunk_moments, [(w.w, chunk, cfg.zeta) for w in ws for chunk in chunks]
    )
    count = len(chunks)
    estimates = [combined_estimate(parts[i : i + count], m) for i in range(0, len(parts), count)]
    return estimates, workers


def combined_estimate(parts: list, m: int) -> RiskEstimate:
    """The RiskEstimate of one metric on an m-row sample from its chunks'
    chunk_moments, in chunk order (see sample_risks)."""
    low = min(part[3] for part in parts)
    if low == max(part[4] for part in parts):
        # constant integrand: the mean is the common value, with no noise
        return RiskEstimate(RiskMode.MONTE_CARLO_POPULATION, low, 0.0, m)
    mean = math.fsum(part[0] for part in parts) / m
    squares = math.fsum(ssd + n * (total / n - mean) ** 2 for total, ssd, n, _, _ in parts)
    std_error = math.sqrt(squares / (m - 1)) / math.sqrt(m)
    return RiskEstimate(RiskMode.MONTE_CARLO_POPULATION, mean, std_error, m)


def sample_risk(w: MetricParams, sample: np.ndarray, cfg: LossConfig) -> RiskEstimate:
    """Monte Carlo mean loss of w over an evaluation sample
    (draw_evaluation_sample), with its standard error: sample_risks on the
    one metric w."""
    return sample_risks([w], sample, cfg)[0][0]


def population_risk(
    w: MetricParams, sampler: TripletSampler, m: int, cfg: LossConfig
) -> RiskEstimate:
    """Monte Carlo mean loss over m fresh triplets; advances the sampler.

    sample_risk on draw_evaluation_sample(sampler, m): the estimate and the
    sampler's state afterwards are those of scoring sampler.draw(m), bit for
    bit.
    """
    if w.d != sampler.d:
        raise DimensionMismatch(f"metric is {w.d}-dimensional, sampler is {sampler.d}")
    return sample_risk(w, draw_evaluation_sample(sampler, m), cfg)


def generalization_gap(
    w: MetricParams,
    dataset: TripletDataset,
    sampler: TripletSampler,
    m: int,
    cfg: LossConfig,
    budget: int | None = None,
):
    """(population risk - empirical risk, combined standard error)."""
    pop = population_risk(w, sampler, m, cfg)
    emp = empirical_risk(w, dataset, cfg, budget=budget)
    gap = pop.value - emp.value
    combined = math.hypot(pop.std_error, emp.std_error)
    return gap, combined


def bernstein_ustat_bound(
    b: float, tau: float, delta: float, n_plus: int, n_minus: int
) -> float:
    """Two-sided deviation bound for the U-statistic risk at confidence 1 - delta.

        2 b ln(1/d) / (3 floor(n+/2)) + sqrt(2 tau ln(1/d) / floor(n+/2))
      + 2 b ln(1/d) / (3 n-)          + sqrt(2 tau ln(1/d) / n-)

    b bounds |loss - mean| (any almost-sure range bound works), tau bounds the
    per-triplet variance.
    """
    if not (0 < delta < 1):
        raise InvalidDelta(f"delta must be in (0, 1), got {delta}")
    if n_plus < 2 or n_minus < 1:
        raise InvalidCounts(f"need n_plus >= 2 and n_minus >= 1, got {n_plus}, {n_minus}")
    if not (b > 0) or tau < 0:
        raise ValidationError(f"need b > 0 and tau >= 0, got b={b}, tau={tau}")
    log_term = math.log(1.0 / delta)
    half = n_plus // 2
    return (
        2.0 * b * log_term / (3.0 * half)
        + math.sqrt(2.0 * tau * log_term / half)
        + 2.0 * b * log_term / (3.0 * n_minus)
        + math.sqrt(2.0 * tau * log_term / n_minus)
    )
