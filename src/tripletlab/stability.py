"""Empirical stability estimates and the closed-form stability/gap bounds.

Two protocols probe how much a trained metric can change when the training
set changes in a few slots:

* uniform_sup: replace one uniformly chosen slot with a fresh sample, retrain,
  and take the max loss difference over a probe set (fresh i.i.d. triplets
  plus every training triplet). The probe max is a lower estimate of the true
  sup over all triplets, so it can legitimately be compared against the
  closed-form upper bounds (any violation disproves the bound).
* on_average: replace two positive slots and one negative slot at once,
  retrain, and average the signed loss change evaluated at the replaced
  indices' original samples.

SGD runs on the original and perturbed sets share the seed, hence draw the
same triplet index sequence; the per-run bound 2 L^2 sum eta_t 1[hit] refers
to exactly this coupling. RRM retraining may warm-start from the unperturbed
solution: the stopping certificate bounds the distance to the argmin
regardless of the start, so the probe is unaffected beyond tol/(2 lam).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Pool, SlotRef, TripletDataset, ValidationError, replace_samples
from .loss import (
    LossConfig,
    MetricParams,
    logistic_triplet_loss,
    pair_scores,
    triplet_sweep,
    triplet_losses_rowwise,
)
from .optim import RrmConfig, SgdConfig, TrainTrace, rrm_train, sgd_train
from .risk import (
    InvalidCounts, InvalidDelta, check_memory, check_sample_size, sample_triplet_indices
)
from .synth import TripletSampler


class InvalidInputs(ValidationError):
    pass


class RegimeViolation(ValidationError):
    pass


# --- trainers: deterministic maps dataset -> parameters ---
#
# Every trainer has fit(dataset, warm=None) -> (w, record), the bound
# stability_bound(record, slot, n_plus, n_minus, L) its record certifies (None
# when it has none), and sigma_or_T, the parameter a report carries. kind
# names the trainer in reports only.


@dataclass(frozen=True)
class ConstantTrainer:
    """Ignores the data; the reference point for every stability estimator."""

    w: MetricParams
    kind = "constant"
    sigma_or_T = 0.0

    def fit(self, dataset: TripletDataset, warm: MetricParams | None = None):
        """(w, None): the fixed metric, whatever the data."""
        return self.w, None

    def stability_bound(self, record, slot: SlotRef, n_plus: int, n_minus: int, L: float):
        return None


@dataclass(frozen=True)
class SgdTrainer:
    cfg: SgdConfig
    kind = "sgd"

    @property
    def sigma_or_T(self) -> float:
        return float(self.cfg.T)

    def fit(self, dataset: TripletDataset, warm: MetricParams | None = None):
        """sgd_train's (w, trace). warm is ignored: paired runs both start at
        w = 0 on one seed, which is the coupling the stability bound needs."""
        return sgd_train(dataset, self.cfg)

    def stability_bound(
        self, trace: TrainTrace, slot: SlotRef, n_plus: int, n_minus: int, L: float
    ):
        return sgd_stability_bound(trace, slot, L)


@dataclass(frozen=True)
class RrmTrainer:
    cfg: RrmConfig
    kind = "rrm"

    @property
    def sigma_or_T(self) -> float:
        return self.cfg.sigma

    def fit(self, dataset: TripletDataset, warm: MetricParams | None = None):
        """rrm_train's (w, iterations), started from warm (default zero); the
        certificate places w within tol/(2 lam) of the minimizer either way."""
        return rrm_train(dataset, self.cfg, w0=warm)

    def stability_bound(self, iterations, slot: SlotRef, n_plus: int, n_minus: int, L: float):
        return rrm_stability_bound(n_plus, n_minus, L, self.cfg.sigma)


@dataclass(frozen=True)
class StabilityReport:
    """One run of a stability protocol. As a CSV record (core.write_records)
    it leaves out the per-trial tuples; signed_mean and std_error are empty
    for the uniform protocol, which takes no signed estimate."""

    protocol: str
    trainer_kind: str
    n_plus: int
    n_minus: int
    sigma_or_T: float
    gamma_hat: float
    gamma_bound: float | None
    M_hat: float
    trials: int
    probe_size: int
    seed: int | None = None
    signed_mean: float | None = None
    std_error: float | None = None
    per_trial_gamma: tuple = field(default=(), metadata={"column": False})
    per_trial_bound: tuple | None = field(default=None, metadata={"column": False})

    def __post_init__(self):
        if self.gamma_hat < 0:
            raise ValidationError(f"gamma_hat must be >= 0, got {self.gamma_hat}")

    def dominated(self) -> bool | None:
        """Per-trial estimate <= bound everywhere; None when no bound applies."""
        if self.per_trial_bound is None:
            return None
        return all(g <= b for g, b in zip(self.per_trial_gamma, self.per_trial_bound))


def probe_max_loss_diff(
    w_a: MetricParams, w_b: MetricParams, dataset: TripletDataset, fresh, cfg: LossConfig
):
    """(max |loss(w_a) - loss(w_b)|, max |loss|) over the probe set.

    The probe set is the given fresh triplets (three aligned arrays) plus all
    training triplets of the dataset, whose losses under both metrics come
    from one split sweep (triplet_sweep); maxima do not depend on the order
    the blocks are taken in.
    """
    X = dataset.positive_features
    Y = dataset.negative_features

    # losses are >= 0, so maxima with initial 0 also cover an empty fresh set
    def block(start, terms_a, terms_b):
        loss_a, loss_b = terms_a[0], terms_b[0]
        max_abs = max(float(loss_a.max(initial=0.0)), float(loss_b.max(initial=0.0)))
        loss_a -= loss_b
        return float(np.abs(loss_a, out=loss_a).max(initial=0.0)), max_abs

    fresh_losses = [(triplet_losses_rowwise(w.w, *fresh, cfg.zeta),) for w in (w_a, w_b)]
    scores = [(pair_scores(w.w, X, X), pair_scores(w.w, X, Y)) for w in (w_a, w_b)]
    parts = [block(0, *fresh_losses)] + triplet_sweep(scores, cfg.zeta, block)
    return max(part[0] for part in parts), max(part[1] for part in parts)


def _pick_slot(rng: np.random.Generator, n_plus: int, n_minus: int) -> SlotRef:
    u = int(rng.integers(0, n_plus + n_minus))
    if u < n_plus:
        return SlotRef(Pool.POSITIVE, u)
    return SlotRef(Pool.NEGATIVE, u - n_plus)


def _fresh_for(sampler: TripletSampler, slot: SlotRef):
    if slot.pool is Pool.POSITIVE:
        return sampler.positive_sample()
    return sampler.negative_sample()


def estimate_uniform_stability(
    trainer,
    sampler: TripletSampler,
    n_plus: int,
    n_minus: int,
    trials: int,
    probe_size: int,
    cfg: LossConfig,
    seed: int | None = None,
) -> StabilityReport:
    """Single-slot replacement protocol; gamma_hat = max probe difference.

    Each trial forks an independent sub-stream, draws a training set, replaces
    one uniformly chosen slot with a fresh sample, trains on both sets, and
    takes the probe max. The per-trial closed-form bound (when the trainer has
    one) is recorded alongside, so domination can be checked trial by trial.
    A probe set larger than physical memory, three probe_size-by-d arrays of
    doubles, is refused before the first fit (risk.check_sample_size).
    """
    if trials < 1 or probe_size < 1:
        raise ValidationError("trials and probe_size must both be >= 1")
    check_sample_size(probe_size, sampler.d, arrays=3, kind="probe set")
    L = 8.0 * sampler.B**2
    per_gamma = []
    per_bound = []
    m_hat = 0.0
    for _ in range(trials):
        trial = sampler.fork()
        aux = trial.spawn_generator()
        train_set = trial.draw_dataset(n_plus, n_minus)
        slot = _pick_slot(aux, n_plus, n_minus)
        perturbed = replace_samples(train_set, [(slot, _fresh_for(trial, slot))])
        w_a, record = trainer.fit(train_set)
        w_b, _ = trainer.fit(perturbed, warm=w_a)
        gamma_t, m_t = probe_max_loss_diff(w_a, w_b, train_set, trial.draw(probe_size), cfg)
        per_gamma.append(gamma_t)
        m_hat = max(m_hat, m_t)
        per_bound.append(trainer.stability_bound(record, slot, n_plus, n_minus, L))
    bounds = None if None in per_bound else tuple(per_bound)
    return StabilityReport(
        protocol="uniform_sup",
        trainer_kind=trainer.kind,
        n_plus=n_plus,
        n_minus=n_minus,
        sigma_or_T=trainer.sigma_or_T,
        gamma_hat=max(per_gamma),
        gamma_bound=max(bounds) if bounds else None,
        M_hat=m_hat,
        trials=trials,
        probe_size=probe_size,
        seed=seed,
        per_trial_gamma=tuple(per_gamma),
        per_trial_bound=bounds,
    )


def estimate_on_average_stability(
    trainer,
    sampler: TripletSampler,
    n_plus: int,
    n_minus: int,
    trials: int,
    triplet_subsample: int,
    cfg: LossConfig,
    seed: int | None = None,
) -> StabilityReport:
    """Triple-replacement protocol; gamma_hat = |grand signed mean|.

    For each sampled (i, j, k), slots i and j (positives) and k (negative) are
    replaced by fresh draws; the loss change of the retrained model is
    evaluated at the original samples z_i+, z_j+, z_k-. The underlying
    definition is signed, so the signed mean and its pooled standard error are
    reported too (within-trial draws share a training set, so the pooled
    stderr slightly understates trial-to-trial correlation). A subsample
    whose three index arrays (int64) exceed physical memory is refused
    before the first fit (risk.check_memory).
    """
    if trials < 1 or triplet_subsample < 1:
        raise ValidationError("trials and triplet_subsample must both be >= 1")
    what = f"a triplet subsample of m = {triplet_subsample} triplets"
    check_memory(3 * triplet_subsample * 8, what, "3 int64 index arrays, 3*m*8")
    diffs = []
    m_hat = 0.0
    for _ in range(trials):
        trial = sampler.fork()
        aux = trial.spawn_generator()
        train_set = trial.draw_dataset(n_plus, n_minus)
        w_base, _ = trainer.fit(train_set)
        X, Y = train_set.positives, train_set.negatives
        ii, jj, kk = sample_triplet_indices(aux, n_plus, n_minus, triplet_subsample)
        for i, j, k in zip(ii.tolist(), jj.tolist(), kk.tolist()):
            replaced = replace_samples(
                train_set,
                [
                    (SlotRef(Pool.POSITIVE, i), trial.positive_sample()),
                    (SlotRef(Pool.POSITIVE, j), trial.positive_sample()),
                    (SlotRef(Pool.NEGATIVE, k), trial.negative_sample()),
                ],
            )
            w_new, _ = trainer.fit(replaced, warm=w_base)
            l_new = logistic_triplet_loss(w_new, X[i], X[j], Y[k], cfg)
            l_base = logistic_triplet_loss(w_base, X[i], X[j], Y[k], cfg)
            diffs.append(l_new - l_base)
            m_hat = max(m_hat, abs(l_new), abs(l_base))
    diffs = np.array(diffs)
    signed_mean = float(diffs.mean())
    std_error = float(diffs.std(ddof=1)) / math.sqrt(len(diffs)) if len(diffs) > 1 else 0.0
    return StabilityReport(
        protocol="on_average",
        trainer_kind=trainer.kind,
        n_plus=n_plus,
        n_minus=n_minus,
        sigma_or_T=trainer.sigma_or_T,
        gamma_hat=abs(signed_mean),
        gamma_bound=None,
        M_hat=m_hat,
        trials=trials,
        probe_size=triplet_subsample,
        seed=seed,
        signed_mean=signed_mean,
        std_error=std_error,
    )


# --- closed-form bound evaluators ---


def rrm_stability_bound(n_plus: int, n_minus: int, L: float, sigma: float) -> float:
    """min{8/n+, 4/n-} L^2 / sigma: uniform stability of the ridge minimizer."""
    if n_plus < 1 or n_minus < 1 or not (L > 0) or not (sigma > 0):
        raise InvalidInputs(
            f"need n_plus, n_minus >= 1 and L, sigma > 0, "
            f"got {n_plus}, {n_minus}, {L}, {sigma}"
        )
    return min(8.0 / n_plus, 4.0 / n_minus) * L * L / sigma


def sgd_stability_bound(trace: TrainTrace, differing_slot: SlotRef, L: float) -> float:
    """2 L^2 sum_t eta_t 1[step t's triplet touches the differing slot].

    Valid for shared-seed paired runs (identical index draws on both sets).
    """
    if not (L > 0):
        raise InvalidInputs(f"need L > 0, got {L}")
    mask = trace.hit_mask(differing_slot)
    return 2.0 * L * L * float(np.asarray(trace.eta)[mask].sum())


def loss_expectation_bound(n_plus: int, n_minus: int, L: float, sigma: float) -> float:
    """min{4 sqrt(6)/sqrt(n+), 4 sqrt(3)/sqrt(n-)} L^2 / sigma: cap on the
    magnitude of the expected centered loss of the ridge minimizer."""
    if n_plus < 1 or n_minus < 1 or not (L > 0) or not (sigma > 0):
        raise InvalidInputs(
            f"need n_plus, n_minus >= 1 and L, sigma > 0, "
            f"got {n_plus}, {n_minus}, {L}, {sigma}"
        )
    return (
        min(4.0 * math.sqrt(6.0 / n_plus), 4.0 * math.sqrt(3.0 / n_minus)) * L * L / sigma
    )


def high_probability_gap_bound(
    n_plus: int, n_minus: int, gamma: float, M: float, delta: float
) -> float:
    """Generalization-gap bound at confidence 1 - delta for a gamma-uniformly
    stable algorithm with |expected loss| <= M:

        6 gamma + e (8 M (1/sqrt(n-) + 2/sqrt(n+ - 1)) sqrt(log(e/delta))
                     + 24 sqrt(2) gamma (ceil(log2(n- (n+ - 1)^2)) + 2) log(e/delta))

    Requires delta in (0, 1/e).
    """
    if not (0 < delta < 1.0 / math.e):
        raise InvalidDelta(f"delta must be in (0, 1/e), got {delta}")
    if n_plus < 2 or n_minus < 1:
        raise InvalidCounts(f"need n_plus >= 2 and n_minus >= 1, got {n_plus}, {n_minus}")
    if gamma < 0 or M < 0:
        raise InvalidInputs(f"gamma and M must be >= 0, got {gamma}, {M}")
    log_term = math.log(math.e / delta)
    ceil_log2 = math.ceil(math.log2(n_minus * (n_plus - 1) ** 2))
    return 6.0 * gamma + math.e * (
        8.0 * M * (1.0 / math.sqrt(n_minus) + 2.0 / math.sqrt(n_plus - 1))
        * math.sqrt(log_term)
        + 24.0 * math.sqrt(2.0) * gamma * (ceil_log2 + 2) * log_term
    )


def chernoff_hit_bound(T: int, n_plus: int, n_minus: int, delta: float) -> float:
    """High-probability cap on how many of T uniform triplet draws touch one
    fixed slot: (1 + sqrt(3 log(1/delta) / max{T/n+, T/(2 n-)})) (T/n+ + T/(2 n-)).

    The positive-slot hit rate per step is 2/n+ and the negative rate 1/n-;
    the cap covers whichever slot kind is queried.
    """
    if T < 1 or n_plus < 1 or n_minus < 1:
        raise InvalidInputs(f"need T, n_plus, n_minus >= 1, got {T}, {n_plus}, {n_minus}")
    if not (0 < delta < 1):
        raise InvalidDelta(f"delta must be in (0, 1), got {delta}")
    mean = T / n_plus + T / (2.0 * n_minus)
    scale = max(T / n_plus, T / (2.0 * n_minus))
    return (1.0 + math.sqrt(3.0 * math.log(1.0 / delta) / scale)) * mean


def optimistic_epsilon(n_plus: int, n_minus: int, sigma: float) -> float:
    """The epsilon that balances the optimistic gap bound's terms:
    sqrt(3 n+^2 (n+ - 1) n-^2 sigma^2 / (4608 n-^2 + 256 n+^2))."""
    if n_plus < 2 or n_minus < 1:
        raise InvalidCounts(f"need n_plus >= 2 and n_minus >= 1, got {n_plus}, {n_minus}")
    if not (sigma > 0):
        raise InvalidInputs(f"need sigma > 0, got {sigma}")
    num = 3.0 * n_plus**2 * (n_plus - 1) * n_minus**2 * sigma**2
    den = 4608.0 * n_minus**2 + 256.0 * n_plus**2
    return math.sqrt(num / den)


def optimistic_gap_bound(
    epsilon: float,
    alpha: float,
    sigma: float,
    n_plus: int,
    n_minus: int,
    empirical_risk_mean: float,
) -> float:
    """Multiplicative (optimistic) bound on the expected generalization gap of
    the ridge minimizer with an alpha-smooth loss:

        (alpha/eps + 1536 alpha (eps + alpha) / (n+^2 (n+ - 1) sigma^2)
                   + 256 alpha (eps + alpha) / (3 (n+ - 1) n-^2 sigma^2))
        * E[R_S(A(S))]

    Only valid in the regime sigma * min{n+, n-} >= 8 alpha.
    """
    if not (epsilon > 0) or not (alpha > 0) or not (sigma > 0):
        raise InvalidInputs(
            f"epsilon, alpha, sigma must be positive, got {epsilon}, {alpha}, {sigma}"
        )
    if n_plus < 2 or n_minus < 1:
        raise InvalidCounts(f"need n_plus >= 2 and n_minus >= 1, got {n_plus}, {n_minus}")
    if empirical_risk_mean < 0:
        raise InvalidInputs(f"mean empirical risk must be >= 0, got {empirical_risk_mean}")
    if sigma * min(n_plus, n_minus) < 8.0 * alpha:
        raise RegimeViolation(
            f"sigma * min(n_plus, n_minus) = {sigma * min(n_plus, n_minus):g} "
            f"is below 8 alpha = {8.0 * alpha:g}"
        )
    coefficient = (
        alpha / epsilon
        + 1536.0 * alpha * (epsilon + alpha) / (n_plus**2 * (n_plus - 1) * sigma**2)
        + 256.0 * alpha * (epsilon + alpha) / (3.0 * (n_plus - 1) * n_minus**2 * sigma**2)
    )
    return coefficient * empirical_risk_mean

