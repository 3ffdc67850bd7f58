"""Empirical and population risk estimates plus the Bernstein deviation bound.

The empirical risk is the mean triplet loss over all n+ (n+ - 1) n- ordered
triplets (a U-statistic). Up to a triplet budget (default 2e6) it is computed
exactly in a fixed deterministic order; above the budget it falls back to a
uniform i.i.d. subsample, which is unbiased for the exact value. Population
risk is plain Monte Carlo over fresh triplets from a sampler.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DimensionMismatch, TripletDataset, ValidationError
from .loss import (
    LossConfig,
    MetricParams,
    margin_blocks,
    margin_terms,
    pair_scores,
    phi,
    triplet_losses_rowwise,
)
from .synth import TripletSampler

DEFAULT_TRIPLET_BUDGET = 2_000_000


class InvalidDelta(ValidationError):
    pass


class InvalidCounts(ValidationError):
    pass


class RiskMode(Enum):
    EXACT_U_STATISTIC = "exact_u_statistic"
    SAMPLED_TRIPLETS = "sampled_triplets"
    MONTE_CARLO_POPULATION = "monte_carlo_population"


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    std_error: float
    n_terms: int
    mode: RiskMode

    def __post_init__(self):
        if self.std_error < 0:
            raise ValidationError(f"std_error must be >= 0, got {self.std_error}")
        if self.mode is RiskMode.EXACT_U_STATISTIC and self.std_error != 0.0:
            raise ValidationError("exact mode carries no sampling error")
        if self.n_terms < 1:
            raise ValidationError(f"n_terms must be >= 1, got {self.n_terms}")


def exact_mean_loss(w_arr: np.ndarray, X: np.ndarray, Y: np.ndarray, zeta: float) -> float:
    """Mean logistic loss phi(-margin) over all ordered triplets, summed in a fixed order.

    Sweeps anchor blocks (margin_blocks); per-block sums use numpy's pairwise
    summation and blocks are combined with math.fsum, so the result is
    reproducible and permutation-stable to well below 1e-12 relative.
    """
    n_plus, n_minus = X.shape[0], Y.shape[0]
    S_pp = pair_scores(w_arr, X, X)
    S_pn = pair_scores(w_arr, X, Y)
    # extreme margins over valid triplets (j != i); rounding is monotone, so exact
    off = ~np.eye(n_plus, dtype=bool)
    lo = float((S_pp.min(axis=1, initial=np.inf, where=off) - S_pn.max(axis=1)).min()) + zeta
    hi = float((S_pp.max(axis=1, initial=-np.inf, where=off) - S_pn.min(axis=1)).max()) + zeta
    if lo == hi:  # constant integrand: the mean is that one loss, with no rounding
        return float(phi(-hi))
    partials = [float(margin_terms(m)[0].sum()) for _, m in margin_blocks(S_pp, S_pn, zeta)]
    return math.fsum(partials) / (n_plus * (n_plus - 1) * n_minus)


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
    mean over `budget` uniform i.i.d. triplets. The subsample stream defaults
    to a fixed seed so repeated calls with the same inputs agree; pass `rng`
    for independent redraws.
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
        return RiskEstimate(value, 0.0, n_total, RiskMode.EXACT_U_STATISTIC)
    gen = np.random.default_rng(0 if rng is None else rng)
    i, j, k = sample_triplet_indices(gen, dataset.n_plus, dataset.n_minus, budget)
    vals = triplet_losses_rowwise(w.w, X[i], X[j], Y[k], cfg.zeta)
    std_error = float(vals.std(ddof=1)) / math.sqrt(budget)
    return RiskEstimate(float(vals.mean()), std_error, budget, RiskMode.SAMPLED_TRIPLETS)


def population_risk(
    w: MetricParams, sampler: TripletSampler, m: int, cfg: LossConfig
) -> RiskEstimate:
    """Monte Carlo mean loss over m fresh triplets; advances the sampler."""
    if m < 2:
        raise ValidationError(f"population risk needs m >= 2 triplets, got {m}")
    if w.d != sampler.d:
        raise DimensionMismatch(f"metric is {w.d}-dimensional, sampler is {sampler.d}")
    Xa, Xp, Xn = sampler.draw(m)
    vals = triplet_losses_rowwise(w.w, Xa, Xp, Xn, cfg.zeta)
    if np.ptp(vals) == 0.0:
        # constant integrand: the mean is the common value, with no noise
        return RiskEstimate(float(vals[0]), 0.0, m, RiskMode.MONTE_CARLO_POPULATION)
    std_error = float(vals.std(ddof=1)) / math.sqrt(m)
    return RiskEstimate(float(vals.mean()), std_error, m, RiskMode.MONTE_CARLO_POPULATION)


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
