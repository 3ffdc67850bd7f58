"""Training: single-triplet SGD and the ridge-regularized full-batch minimizer.

SGD starts at w = 0, draws one uniform triplet per step, and applies
w <- w - eta_t * grad with eta_t fixed to c / sqrt(T). The step factor must
satisfy c <= 2/alpha (alpha = 64 B^4 for the dataset's feature bound), which
also makes every update map 1-expansive.

The regularized objective F_S(w) = R_S(w) + lam ||w||_F^2 is 2*lam-strongly
convex, so the gradient-norm stopping rule certifies
||w - argmin F_S|| <= tol / (2 lam). The default solver is a damped Newton
method on the d^2-dimensional flattened parameter (the Hessian solve is tiny;
the cost per iteration is one sweep over the triplet tensor, same as a
gradient). method="gd" selects plain gradient descent with the safe step
1/(alpha + 2 lam) instead; it needs O(kappa) iterations and is kept for
cross-checking the Newton path.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit
from scipy.stats import chi2, chisquare

from .core import (
    Pool,
    SlotOutOfBounds,
    SlotRef,
    TripletDataset,
    ValidationError,
    feature_bound,
)
from .loss import (
    MetricParams,
    logistic_triplet_grad,
    LossConfig,
    margin_blocks,
    margin_terms,
    pair_scores,
    regularity_constants,
)
from .risk import DEFAULT_TRIPLET_BUDGET, exact_mean_loss


class StepSizeTooLarge(ValidationError):
    pass


class BudgetExceeded(ValidationError):
    pass


class MaxItersExceeded(RuntimeError):
    """Raised when the RRM solver hits its iteration cap before reaching tol.

    Carries the best iterate seen (w, iterations, grad_norm) so callers can
    inspect or keep it.
    """

    def __init__(self, message, w: MetricParams, iterations: int, grad_norm: float):
        super().__init__(message)
        self.w = w
        self.iterations = iterations
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class SgdConfig:
    """T steps of SGD with eta_t = c / sqrt(T); T = 0 returns the zero init."""

    T: int
    c: float
    seed: int = 0
    zeta: float = 0.0

    def __post_init__(self):
        if self.T < 0:
            raise ValidationError(f"T must be >= 0, got {self.T}")
        if not (self.c > 0) or not np.isfinite(self.c):
            raise ValidationError(f"step factor c must be positive, got {self.c}")
        if self.zeta < 0:
            raise ValidationError(f"zeta must be >= 0, got {self.zeta}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError(f"seed must be a nonnegative 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class RrmConfig:
    """Ridge weight lam (penalty lam ||w||_F^2), stopping tol on ||grad F_S||_F."""

    lam: float
    tol: float = 1e-8
    max_iters: int = 10_000
    zeta: float = 0.0
    method: str = "newton"
    budget: int = DEFAULT_TRIPLET_BUDGET

    def __post_init__(self):
        if not (self.lam > 0) or not np.isfinite(self.lam):
            raise ValidationError(f"lam must be positive, got {self.lam}")
        if not (self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.zeta < 0:
            raise ValidationError(f"zeta must be >= 0, got {self.zeta}")
        if self.method not in ("newton", "gd"):
            raise ValidationError(f"method must be 'newton' or 'gd', got {self.method!r}")
        if self.budget < 1:
            raise ValidationError(f"budget must be >= 1, got {self.budget}")

    @property
    def sigma(self) -> float:
        """Strong-convexity modulus of the regularized objective (= 2 lam)."""
        return 2.0 * self.lam


@dataclass(frozen=True, eq=False)
class TrainTrace:
    """Record of every SGD draw: arrays i, j, k (triplet indices) and eta per step."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    eta: np.ndarray
    n_plus: int
    n_minus: int

    def __post_init__(self):
        i = np.asarray(self.i, dtype=np.int64)
        j = np.asarray(self.j, dtype=np.int64)
        k = np.asarray(self.k, dtype=np.int64)
        eta = np.asarray(self.eta, dtype=np.float64)
        if not (len(i) == len(j) == len(k) == len(eta)):
            raise ValidationError("trace arrays must have equal length")
        if np.any(i == j):
            raise ValidationError("trace contains a step with i == j")
        if len(i) and (
            i.min() < 0
            or i.max() >= self.n_plus
            or j.min() < 0
            or j.max() >= self.n_plus
            or k.min() < 0
            or k.max() >= self.n_minus
        ):
            raise ValidationError("trace contains out-of-range triplet indices")
        for name, arr in (("i", i), ("j", j), ("k", k), ("eta", eta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return len(self.i)

    @property
    def steps(self):
        """List of (t, i_t, j_t, k_t, eta_t) with t starting at 1."""
        return [
            (t + 1, int(self.i[t]), int(self.j[t]), int(self.k[t]), float(self.eta[t]))
            for t in range(self.T)
        ]

    def hit_mask(self, slot: SlotRef) -> np.ndarray:
        """Boolean per step: does the drawn triplet touch this slot?"""
        if slot.pool is Pool.POSITIVE:
            if not (0 <= slot.index < self.n_plus):
                raise SlotOutOfBounds(f"positive slot {slot.index} not in [0, {self.n_plus})")
            return (self.i == slot.index) | (self.j == slot.index)
        if not (0 <= slot.index < self.n_minus):
            raise SlotOutOfBounds(f"negative slot {slot.index} not in [0, {self.n_minus})")
        return self.k == slot.index

    def indicator_hits(self, slot: SlotRef) -> int:
        return int(self.hit_mask(slot).sum())


def sgd_train(dataset: TripletDataset, cfg: SgdConfig):
    """Run single-triplet SGD from w = 0; returns (w_T, trace).

    Each step draws (i, j) uniformly over positive slots (redrawing the pair
    until i != j) and k uniformly over negative slots, then applies one
    gradient step at the current iterate. Deterministic given cfg.seed.
    """
    B = feature_bound(dataset)
    eta_max = regularity_constants(B).eta_max
    if cfg.c > eta_max * (1.0 + 1e-12):
        raise StepSizeTooLarge(
            f"c = {cfg.c:g} exceeds 2/alpha = {eta_max:g} for this dataset (B = {B:g})"
        )
    X = dataset.positive_features
    Y = dataset.negative_features
    n_plus, n_minus = dataset.n_plus, dataset.n_minus
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    w = np.zeros((dataset.d, dataset.d))
    if cfg.T == 0:
        trace = TrainTrace(
            i=np.empty(0, np.int64),
            j=np.empty(0, np.int64),
            k=np.empty(0, np.int64),
            eta=np.empty(0, np.float64),
            n_plus=n_plus,
            n_minus=n_minus,
        )
        return MetricParams(w), trace
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
    trace = TrainTrace(
        i=ii, j=jj, k=kk, eta=np.full(cfg.T, eta), n_plus=n_plus, n_minus=n_minus
    )
    return MetricParams(w), trace


def sampling_uniformity_check(trace: TrainTrace, dataset: TripletDataset):
    """Chi-square goodness of fit of the trace draws against the uniform law.

    Tests the joint (i, j, k) cell counts when the cell count is at most 10 T;
    beyond that it falls back to slot-hit marginals (positive-slot hits expect
    2T/n+ each, negative-slot hits T/n-, statistics summed; the two hits a
    step deals to distinct positive slots are weakly dependent, so the
    marginal p-value is approximate, which is fine for a sanity screen).
    Returns (statistic, p_value).
    """
    if trace.T == 0:
        raise ValidationError("cannot test an empty trace")
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


def write_trace_csv(trace: TrainTrace, path, slot: SlotRef | None = None) -> None:
    """CSV columns t,i,j,k,eta,hit_slot_flag (flag is 0 when no slot is given)."""
    flags = trace.hit_mask(slot).astype(int) if slot is not None else np.zeros(trace.T, int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "j", "k", "eta", "hit_slot_flag"])
        for (t, i, j, k, eta), flag in zip(trace.steps, flags):
            writer.writerow([t, i, j, k, repr(float(eta)), int(flag)])


# --- full-batch objective machinery ---


def _pair_outer_vecs(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rows vec((X[a] - Y[b])(X[a] - Y[b])^T) for all (a, b), row index a*len(Y)+b."""
    diff = X[:, None, :] - Y[None, :, :]
    outer = diff[:, :, :, None] * diff[:, :, None, :]
    return outer.reshape(X.shape[0] * Y.shape[0], -1)


def _risk_parts(w_arr, X, Y, zeta, hessian=False):
    """One sweep over the triplet tensor: mean loss, exact gradient of R_S,
    and (when hessian is set) the d^2 x d^2 Hessian of R_S.

    The loss of triplet (i, j, k) is phi(-m_ijk), with m-derivatives
    sigmoid(m_ijk) and phi''(m_ijk) (margin_terms). The gradient uses the
    aggregated pair weights A[i,j] = sum_k sigmoid(m_ijk) and
    Bw[i,k] = sum_j sigmoid(m_ijk); the weighted sums of difference outer
    products collapse to a handful of d x d matrix products (graph-Laplacian
    identity), so no per-triplet outer product is ever formed. The Hessian
    sums phi''(m_ijk) (p_ij - q_ik)(p_ij - q_ik)^T block by block, with p, q
    the vectorized outer products of the block's pair differences; its cross
    term sum_ijk phi''(m_ijk) p_ij q_ik^T is one batched product per block.
    """
    n_plus, n_minus = X.shape[0], Y.shape[0]
    N = n_plus * (n_plus - 1) * n_minus
    A = np.empty((n_plus, n_plus))
    Bw = np.empty((n_plus, n_minus))
    loss_parts = []
    hess = np.zeros((X.shape[1] ** 2,) * 2) if hessian else None
    for start, m in margin_blocks(pair_scores(w_arr, X, X), pair_scores(w_arr, X, Y), zeta):
        stop = start + m.shape[0]
        losses, g1, g2 = margin_terms(m, slope=True, curvature=hessian)
        loss_parts.append(float(losses.sum()))
        A[start:stop] = g1.sum(axis=2)
        Bw[start:stop] = g1.sum(axis=1)
        if hessian:
            P = _pair_outer_vecs(X[start:stop], X)
            Q = _pair_outer_vecs(X[start:stop], Y)
            cross = P.T @ np.matmul(g2, Q.reshape(len(g2), n_minus, -1)).reshape(P.shape)
            hess += (P.T * g2.sum(axis=2).reshape(-1)) @ P
            hess += (Q.T * g2.sum(axis=1).reshape(-1)) @ Q
            hess -= cross + cross.T
    mean_loss = math.fsum(loss_parts) / N

    r, c = A.sum(axis=1), A.sum(axis=0)
    M = -(A + A.T)
    M[np.diag_indices(n_plus)] += r + c
    k_plus = X.T @ M @ X
    rb, cb = Bw.sum(axis=1), Bw.sum(axis=0)
    xby = X.T @ Bw @ Y
    k_minus = (X * rb[:, None]).T @ X - xby - xby.T + (Y * cb[:, None]).T @ Y
    grad = (k_plus - k_minus) / N
    grad = (grad + grad.T) / 2.0  # kill last-ulp BLAS asymmetry

    if hessian:
        hess /= N
        hess = (hess + hess.T) / 2.0
    return mean_loss, grad, hess


def regularized_objective(w: MetricParams, dataset: TripletDataset, cfg: RrmConfig) -> float:
    """Exact F_S(w) = R_S(w) + lam ||w||_F^2 (requires the exact-risk budget)."""
    if dataset.n_triplets > cfg.budget:
        raise BudgetExceeded(
            f"{dataset.n_triplets} triplets exceed the exact-risk budget {cfg.budget}"
        )
    risk = exact_mean_loss(w.w, dataset.positive_features, dataset.negative_features, cfg.zeta)
    return risk + cfg.lam * float(np.sum(w.w * w.w))


def rrm_train(dataset: TripletDataset, cfg: RrmConfig, w0: MetricParams | None = None):
    """Minimize F_S to ||grad F_S||_F <= tol; returns (w, iterations).

    By 2*lam-strong convexity the result is within tol/(2 lam) of the unique
    minimizer in Frobenius norm. w0 is an optional warm start (default zero);
    it changes the path, not the certificate. Raises MaxItersExceeded with
    the best iterate attached if the cap is hit first.
    """
    if dataset.n_triplets > cfg.budget:
        raise BudgetExceeded(
            f"{dataset.n_triplets} triplets exceed the exact-risk budget {cfg.budget}"
        )
    X = dataset.positive_features
    Y = dataset.negative_features
    d = dataset.d
    w = np.zeros((d, d)) if w0 is None else w0.w.copy()
    newton = cfg.method == "newton"
    if not newton:
        gd_step = 1.0 / (regularity_constants(feature_bound(dataset)).alpha + 2.0 * cfg.lam)
    best = None
    risk_val, grad_r, hess_r = _risk_parts(w, X, Y, cfg.zeta, hessian=newton)
    for it in range(cfg.max_iters + 1):
        grad = grad_r + 2.0 * cfg.lam * w
        gnorm = float(np.linalg.norm(grad))
        if best is None or gnorm < best[0]:
            best = (gnorm, w.copy(), it)
        if gnorm <= cfg.tol:
            return MetricParams(w), it
        if it == cfg.max_iters:
            break
        if not newton:
            w = w - gd_step * grad
            risk_val, grad_r, hess_r = _risk_parts(w, X, Y, cfg.zeta)
            continue
        f_val = risk_val + cfg.lam * float(np.sum(w * w))
        hess = hess_r + 2.0 * cfg.lam * np.eye(d * d)
        s = cho_solve(cho_factor(hess), -grad.reshape(-1)).reshape(d, d)
        s = (s + s.T) / 2.0
        slope = float(np.vdot(grad, s))
        if slope >= 0.0:  # numerically degenerate direction: fall back to steepest descent
            s = -grad
            slope = -gnorm**2
        # Armijo backtracking: the full step is scored with the Hessian sweep,
        # reused as the next iteration's, halvings loss-only (the 60th unscored)
        t = 1.0
        w_try = w + s
        parts = _risk_parts(w_try, X, Y, cfg.zeta, hessian=True)
        f_try = parts[0] + cfg.lam * float(np.sum(w_try * w_try))
        for halving in range(60):
            if f_try <= f_val + 0.25 * t * slope:
                break
            t *= 0.5
            w_try, parts = w + t * s, None
            if halving < 59:
                risk_try = exact_mean_loss(w_try, X, Y, cfg.zeta)
                f_try = risk_try + cfg.lam * float(np.sum(w_try * w_try))
        w = w_try
        risk_val, grad_r, hess_r = parts or _risk_parts(w, X, Y, cfg.zeta, hessian=True)
    gnorm, w_best, it_best = best
    raise MaxItersExceeded(
        f"{cfg.method} stopped at ||grad|| = {gnorm:g} > tol = {cfg.tol:g} "
        f"after {cfg.max_iters} iterations",
        MetricParams(w_best),
        it_best,
        gnorm,
    )


def expansiveness_check(
    w: MetricParams, w_prime: MetricParams, triplet, eta: float, cfg: LossConfig
):
    """Compare ||G(w) - G(w')||_F against ||w - w'||_F for one gradient update
    G(v) = v - eta * grad_loss(v) on the given (anchor, positive, negative).

    For eta <= 2/alpha (alpha from the triplet's own feature norms) the update
    map never increases the distance; returns (lhs, rhs, holds) with holds
    allowing 1e-12 of slack.
    """
    x_anchor, x_positive, x_negative = triplet
    b_eff = max(
        float(np.linalg.norm(x_anchor)),
        float(np.linalg.norm(x_positive)),
        float(np.linalg.norm(x_negative)),
    )
    if b_eff > 0:
        limit = regularity_constants(b_eff).eta_max
        if eta > limit * (1.0 + 1e-12):
            raise StepSizeTooLarge(
                f"eta = {eta:g} exceeds 2/alpha = {limit:g} for feature norm {b_eff:g}"
            )
    ga = logistic_triplet_grad(w, x_anchor, x_positive, x_negative, cfg)
    gb = logistic_triplet_grad(w_prime, x_anchor, x_positive, x_negative, cfg)
    lhs = float(np.linalg.norm((w.w - eta * ga) - (w_prime.w - eta * gb)))
    rhs = float(np.linalg.norm(w.w - w_prime.w))
    return lhs, rhs, bool(lhs <= rhs + 1e-12)
