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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Pool, SlotRef, TripletDataset, ValidationError, replace_samples
from .loss import (
    LossConfig,
    MetricParams,
    logistic_triplet_loss,
    margin_blocks,
    margin_terms,
    pair_scores,
    triplet_losses_rowwise,
)
from .optim import RrmConfig, SgdConfig, TrainTrace, rrm_train, sgd_train
from .risk import InvalidCounts, InvalidDelta
from .synth import TripletSampler


class InvalidInputs(ValidationError):
    pass


class RegimeViolation(ValidationError):
    pass


# --- trainers: deterministic maps dataset -> parameters ---


@dataclass(frozen=True)
class ConstantTrainer:
    """Ignores the data; the reference point for every stability estimator."""

    w: MetricParams
    kind = "constant"

    def train(self, dataset: TripletDataset) -> MetricParams:
        return self.w


@dataclass(frozen=True)
class SgdTrainer:
    cfg: SgdConfig
    kind = "sgd"

    def train(self, dataset: TripletDataset) -> MetricParams:
        return sgd_train(dataset, self.cfg)[0]

    def train_with_trace(self, dataset: TripletDataset):
        return sgd_train(dataset, self.cfg)


@dataclass(frozen=True)
class RrmTrainer:
    cfg: RrmConfig
    kind = "rrm"

    def train(self, dataset: TripletDataset, w0: MetricParams | None = None) -> MetricParams:
        return rrm_train(dataset, self.cfg, w0=w0)[0]


@dataclass(frozen=True)
class StabilityReport:
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
    per_trial_gamma: tuple = ()
    per_trial_bound: tuple | None = None

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
    training triplets of the dataset.
    """
    X = dataset.positive_features
    Y = dataset.negative_features

    def losses(w: MetricParams):
        yield triplet_losses_rowwise(w.w, *fresh, cfg.zeta)
        for _, m in margin_blocks(pair_scores(w.w, X, X), pair_scores(w.w, X, Y), cfg.zeta):
            yield margin_terms(m)[0]

    # losses are >= 0, so a maximum with initial 0 also covers an empty fresh set
    max_diff = max_abs = 0.0
    for loss_a, loss_b in zip(losses(w_a), losses(w_b)):
        max_abs = max(max_abs, float(loss_a.max(initial=0.0)), float(loss_b.max(initial=0.0)))
        loss_a -= loss_b
        max_diff = max(max_diff, float(np.abs(loss_a, out=loss_a).max(initial=0.0)))
    return max_diff, max_abs


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
    """
    if trials < 1 or probe_size < 1:
        raise ValidationError("trials and probe_size must both be >= 1")
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
        trace = None
        if trainer.kind == "sgd":
            w_a, trace = trainer.train_with_trace(train_set)
            w_b = trainer.train(perturbed)
        elif trainer.kind == "rrm":
            w_a = trainer.train(train_set)
            w_b = trainer.train(perturbed, w0=w_a)
        else:
            w_a = trainer.train(train_set)
            w_b = trainer.train(perturbed)
        gamma_t, m_t = probe_max_loss_diff(w_a, w_b, train_set, trial.draw(probe_size), cfg)
        per_gamma.append(gamma_t)
        m_hat = max(m_hat, m_t)
        if trainer.kind == "rrm":
            per_bound.append(rrm_stability_bound(n_plus, n_minus, L, trainer.cfg.sigma))
        elif trainer.kind == "sgd":
            per_bound.append(sgd_stability_bound(trace, slot, L))
    bounds = tuple(per_bound) if per_bound else None
    if trainer.kind == "rrm":
        sigma_or_t = trainer.cfg.sigma
    elif trainer.kind == "sgd":
        sigma_or_t = float(trainer.cfg.T)
    else:
        sigma_or_t = 0.0
    return StabilityReport(
        protocol="uniform_sup",
        trainer_kind=trainer.kind,
        n_plus=n_plus,
        n_minus=n_minus,
        sigma_or_T=sigma_or_t,
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
    exhaustive: bool = False,
) -> StabilityReport:
    """Triple-replacement protocol; gamma_hat = |grand signed mean|.

    For each sampled (i, j, k), slots i and j (positives) and k (negative) are
    replaced by fresh draws; the loss change of the retrained model is
    evaluated at the original samples z_i+, z_j+, z_k-. The underlying
    definition is signed, so the signed mean and its pooled standard error are
    reported too (within-trial draws share a training set, so the pooled
    stderr slightly understates trial-to-trial correlation).
    exhaustive=True averages over every valid (i, j, k) instead of sampling;
    only sensible at toy sizes.
    """
    if trials < 1 or (not exhaustive and triplet_subsample < 1):
        raise ValidationError("trials and triplet_subsample must both be >= 1")
    diffs = []
    m_hat = 0.0
    count_per_trial = None
    for _ in range(trials):
        trial = sampler.fork()
        aux = trial.spawn_generator()
        train_set = trial.draw_dataset(n_plus, n_minus)
        w_base = trainer.train(train_set)
        if exhaustive:
            triples = [
                (i, j, k)
                for i in range(n_plus)
                for j in range(n_plus)
                if j != i
                for k in range(n_minus)
            ]
        else:
            ii = aux.integers(0, n_plus, size=triplet_subsample)
            jj = aux.integers(0, n_plus, size=triplet_subsample)
            bad = ii == jj
            while np.any(bad):
                jj[bad] = aux.integers(0, n_plus, size=int(bad.sum()))
                bad = ii == jj
            kk = aux.integers(0, n_minus, size=triplet_subsample)
            triples = list(zip(ii.tolist(), jj.tolist(), kk.tolist()))
        count_per_trial = len(triples)
        for i, j, k in triples:
            replaced = replace_samples(
                train_set,
                [
                    (SlotRef(Pool.POSITIVE, i), trial.positive_sample()),
                    (SlotRef(Pool.POSITIVE, j), trial.positive_sample()),
                    (SlotRef(Pool.NEGATIVE, k), trial.negative_sample()),
                ],
            )
            if trainer.kind == "rrm":
                w_new = trainer.train(replaced, w0=w_base)
            else:
                w_new = trainer.train(replaced)
            zi = train_set.positives[i].features
            zj = train_set.positives[j].features
            zk = train_set.negatives[k].features
            l_new = logistic_triplet_loss(w_new, zi, zj, zk, cfg)
            l_base = logistic_triplet_loss(w_base, zi, zj, zk, cfg)
            diffs.append(l_new - l_base)
            m_hat = max(m_hat, abs(l_new), abs(l_base))
    diffs = np.array(diffs)
    signed_mean = float(diffs.mean())
    std_error = float(diffs.std(ddof=1)) / math.sqrt(len(diffs)) if len(diffs) > 1 else 0.0
    if trainer.kind == "rrm":
        sigma_or_t = trainer.cfg.sigma
    elif trainer.kind == "sgd":
        sigma_or_t = float(trainer.cfg.T)
    else:
        sigma_or_t = 0.0
    return StabilityReport(
        protocol="on_average",
        trainer_kind=trainer.kind,
        n_plus=n_plus,
        n_minus=n_minus,
        sigma_or_T=sigma_or_t,
        gamma_hat=abs(signed_mean),
        gamma_bound=None,
        M_hat=m_hat,
        trials=trials,
        probe_size=count_per_trial,
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


def write_stability_csv(reports, path) -> None:
    header = [
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
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rep in reports:
            writer.writerow(
                [
                    rep.protocol,
                    rep.trainer_kind,
                    rep.n_plus,
                    rep.n_minus,
                    repr(float(rep.sigma_or_T)),
                    repr(float(rep.gamma_hat)),
                    "" if rep.gamma_bound is None else repr(float(rep.gamma_bound)),
                    repr(float(rep.M_hat)),
                    rep.trials,
                    rep.probe_size,
                    "" if rep.seed is None else int(rep.seed),
                ]
            )
