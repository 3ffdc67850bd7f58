"""Bilinear metric model and the logistic / 0-1 triplet losses.

The model scores a pair through a symmetric matrix w:

    h_w(x, x') = <w, (x - x')(x - x')^T> = (x - x')^T w (x - x')

A triplet (x+, x~+, x-) is scored by the margin

    margin = h_w(x+, x~+) - h_w(x+, x-) + zeta

The 0-1 loss flags margin >= 0 as a violation (intra-class score plus the
margin zeta not below the inter-class score). The logistic triplet loss is its
convex surrogate phi(-margin) with phi(u) = log(1 + exp(-u)), so a violation
costs at least log 2 and a well-ordered triplet (margin < 0) less than log 2.

With B = max feature norm, the logistic loss is 8B^2-Lipschitz and
64B^4-smooth in w under the Frobenius norm, which caps safe gradient steps at
eta <= 2/(64B^4) = 1/(32B^4).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import DimensionMismatch, ValidationError

SYMMETRY_TOL = 1e-12


class AsymmetricMatrix(ValidationError):
    pass


class NonpositiveBound(ValidationError):
    pass


@dataclass(frozen=True, eq=False)
class MetricParams:
    """Model parameter: a symmetric d x d real matrix (stored exactly symmetric)."""

    w: np.ndarray

    def __post_init__(self):
        arr = np.array(self.w, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"metric matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("metric matrix must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        asym = float(np.abs(arr - arr.T).max())
        if asym > SYMMETRY_TOL * scale:
            raise AsymmetricMatrix(
                f"matrix is asymmetric: max |w - w^T| = {asym:g} exceeds tolerance"
            )
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def d(self) -> int:
        return self.w.shape[0]

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.w))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricParams):
            return NotImplemented
        return np.array_equal(self.w, other.w)

    @classmethod
    def zeros(cls, d: int) -> "MetricParams":
        return cls(np.zeros((d, d)))

    @classmethod
    def identity(cls, d: int, scale: float = 1.0) -> "MetricParams":
        return cls(np.eye(d) * scale)


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters: the margin zeta >= 0."""

    zeta: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.zeta) or self.zeta < 0:
            raise ValidationError(f"zeta must be finite and >= 0, got {self.zeta}")


@dataclass(frozen=True)
class RegularityConstants:
    """Closed-form regularity constants of the logistic triplet loss on a B-ball."""

    B: float
    L: float
    alpha: float
    eta_max: float


def regularity_constants(B: float) -> RegularityConstants:
    """L = 8B^2 (Lipschitz), alpha = 64B^4 (smoothness), eta_max = 2/alpha = 1/(32B^4)."""
    if not (B > 0) or not np.isfinite(B):
        raise NonpositiveBound(f"feature bound B must be positive and finite, got {B}")
    return RegularityConstants(
        B=float(B), L=8.0 * B**2, alpha=64.0 * B**4, eta_max=1.0 / (32.0 * B**4)
    )


# --- scalar phi and its derivatives (stable for |u| up to ~1e3 and beyond) ---


def phi(u):
    """log(1 + exp(-u)), computed as log1p(exp(-|u|)) + max(-u, 0)."""
    u = np.asarray(u, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(u))) + np.maximum(-u, 0.0)


def phi_prime(u):
    """d/du log(1 + exp(-u)) = -1/(1 + exp(u))."""
    u = np.asarray(u, dtype=np.float64)
    return -expit(-u)


def phi_double_prime(u):
    """Second derivative: sigmoid(u) * sigmoid(-u), always in (0, 1/4]."""
    u = np.asarray(u, dtype=np.float64)
    return expit(u) * expit(-u)


# --- single-triplet operations (public API) ---


def _check_vectors(w: MetricParams, *vectors) -> None:
    for x in vectors:
        if np.ndim(x) != 1 or len(x) != w.d:
            raise DimensionMismatch(
                f"feature vector of length {np.size(x)} does not match metric dimension {w.d}"
            )


def metric_score(w: MetricParams, x, x_other) -> float:
    """h_w(x, x') = (x - x')^T w (x - x'); symmetric in its two arguments."""
    _check_vectors(w, x, x_other)
    delta = np.asarray(x, dtype=np.float64) - np.asarray(x_other, dtype=np.float64)
    return float(delta @ w.w @ delta)


def triplet_margin(w: MetricParams, x_anchor, x_positive, x_negative, cfg: LossConfig) -> float:
    """h_w(x+, x~+) - h_w(x+, x-) + zeta."""
    return (
        metric_score(w, x_anchor, x_positive)
        - metric_score(w, x_anchor, x_negative)
        + cfg.zeta
    )


def logistic_triplet_loss(
    w: MetricParams, x_anchor, x_positive, x_negative, cfg: LossConfig
) -> float:
    """phi(-margin) with phi(u) = log(1 + exp(-u)); strictly positive."""
    return float(phi(-triplet_margin(w, x_anchor, x_positive, x_negative, cfg)))


def logistic_triplet_grad(
    w: MetricParams, x_anchor, x_positive, x_negative, cfg: LossConfig
) -> np.ndarray:
    """Exact gradient of the logistic triplet loss in w.

    grad = -phi'(-margin) * (D+ - D-) with D+ = (x+ - x~+)(x+ - x~+)^T and
    D- = (x+ - x-)(x+ - x-)^T; symmetric by construction with Frobenius norm
    at most 8B^2 for features in a B-ball.
    """
    _check_vectors(w, x_anchor, x_positive, x_negative)
    xa = np.asarray(x_anchor, dtype=np.float64)
    dp = xa - np.asarray(x_positive, dtype=np.float64)
    dn = xa - np.asarray(x_negative, dtype=np.float64)
    m = float(dp @ w.w @ dp) - float(dn @ w.w @ dn) + cfg.zeta
    factor = -float(phi_prime(-m))
    return factor * (np.outer(dp, dp) - np.outer(dn, dn))


def zero_one_triplet_loss(
    w: MetricParams, x_anchor, x_positive, x_negative, cfg: LossConfig
) -> int:
    """1 iff margin >= 0 (the boundary counts as a violation), else 0."""
    return int(triplet_margin(w, x_anchor, x_positive, x_negative, cfg) >= 0.0)


# --- vectorized helpers shared by the risk, optimizer and stability code ---


def pair_scores(w_arr: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix S with S[i, j] = h_w(X[i], Y[j]) for row sets X (n, d), Y (m, d).

    Uses h_w(x, y) = x^T w x + y^T w y - 2 x^T w y, costing O(nd^2 + md^2 + nmd)
    instead of materializing n*m difference outer products.
    """
    Xw = X @ w_arr
    Yw = Y @ w_arr
    qx = np.einsum("id,id->i", Xw, X)
    qy = np.einsum("id,id->i", Yw, Y)
    return qx[:, None] + qy[None, :] - 2.0 * (Xw @ Y.T)


def row_scores(w_arr: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vector of h_w(X[i], Y[i]) for aligned row sets."""
    delta = X - Y
    return np.einsum("id,de,ie->i", delta, w_arr, delta)


def triplet_margins_rowwise(
    w_arr: np.ndarray, Xa: np.ndarray, Xp: np.ndarray, Xn: np.ndarray, zeta: float
) -> np.ndarray:
    return row_scores(w_arr, Xa, Xp) - row_scores(w_arr, Xa, Xn) + zeta


def triplet_losses_rowwise(
    w_arr: np.ndarray, Xa: np.ndarray, Xp: np.ndarray, Xn: np.ndarray, zeta: float
) -> np.ndarray:
    """Logistic triplet losses phi(-margin) for m aligned triplets, one per row."""
    return margin_terms(triplet_margins_rowwise(w_arr, Xa, Xp, Xn, zeta))[0]


# doubles per anchor block (512 KB): a block and the kernel's temporaries stay in cache
BLOCK = 1 << 16


def margin_blocks(S_pp: np.ndarray, S_pn: np.ndarray, zeta: float):
    """Yield (start, m) over anchor blocks of the margin tensor, in anchor order.

    m[a, j, k] = S_pp[i, j] - S_pn[i, k] + zeta for anchor i = start + a, with
    S_pp, S_pn the pair scores of the positives with positives and negatives.
    A block holds at most BLOCK margins (at least one anchor) and is a fresh
    array. The excluded triplets j = i carry m = -inf, where every term of
    margin_terms is exactly 0, so sums and maxima cover valid triplets only.
    """
    step = max(1, BLOCK // S_pn.size)
    for start in range(0, S_pn.shape[0], step):
        m = np.subtract(S_pp[start : start + step, :, None], S_pn[start : start + step, None, :])
        m += zeta
        anchors = np.arange(m.shape[0])
        m[anchors, start + anchors] = -np.inf
        yield start, m


def margin_terms(m: np.ndarray, slope: bool = False, curvature: bool = False):
    """(phi(-m), sigmoid(m) = -phi'(-m), phi''(m)) of a float64 array m from one exp.

    The two derivatives in m are None unless asked for; m is overwritten. With
    e = exp(-|m|): phi(-m) = log1p(e) + max(m, 0), phi's own operations, so it
    is bit-identical to phi(-m); sigmoid(m) is 1/(1+e) for m >= 0 and e/(1+e)
    below; phi''(m) = e/(1+e)^2.
    """
    e = np.abs(m)
    np.negative(e, out=e)
    np.exp(e, out=e)
    nonneg = m >= 0.0 if slope else None
    loss = np.log1p(e)
    loss += np.maximum(m, 0.0, out=m)
    if not (slope or curvature):
        return loss, None, None
    inv = np.add(e, 1.0, out=m)
    np.reciprocal(inv, out=inv)
    curv = None
    if curvature:
        curv = np.multiply(e, inv)
        curv *= inv
    if slope:
        np.maximum(e, nonneg, out=e)  # 1 for m >= 0, e below
        e *= inv
    return loss, (e if slope else None), curv


# --- serialization ---


def write_metric_csv(w: MetricParams, path) -> None:
    """Row-major CSV of the d x d matrix, no header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in w.w:
            writer.writerow([repr(float(v)) for v in row])


def read_metric_csv(path) -> MetricParams:
    """Load a matrix CSV; symmetry re-validated at tolerance 1e-12, then exactly symmetrized."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append([float(v) for v in row])
    if not rows:
        raise ValidationError(f"{path}: empty matrix file")
    arr = np.array(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{path}: matrix file has shape {arr.shape}, expected square")
    return MetricParams(arr)
