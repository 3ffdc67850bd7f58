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

Exact risks and their derivatives sweep every training triplet through one
engine, triplet_blocks. It needs one exp per pair, not per triplet: for
anchor i, exp(m_ijk) = U[i, j] * V[i, k], with U and V the exps of the pair
scores shifted by the anchor's largest positive-pair score. Sweeps with a
margin above MAX_FACTORED_MARGIN = 700, where V would overflow, run on the
margin tensor instead (margin_blocks, margin_terms).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import DimensionMismatch, ValidationError, open_input_csv, read_only_view, write_csv

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
        object.__setattr__(self, "w", read_only_view((arr + arr.T) / 2.0))

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


# doubles per block of the blocked kernels (512 KB): a block and its
# temporaries stay in cache
BLOCK = 1 << 16


def row_scores(w_arr: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vector of h_w(X[i], Y[i]) for aligned row sets: the rows of (X - Y) @ w
    times X - Y, summed column by column (left to right)."""
    delta = X - Y
    terms = delta @ w_arr
    terms *= delta
    scores = terms[:, 0].copy()
    for col in range(1, terms.shape[1]):
        scores += terms[:, col]
    return scores


def _margins(positive_scores: np.ndarray, negative_scores: np.ndarray, zeta: float) -> np.ndarray:
    """The triplet margin h_w(a, p) - h_w(a, n) + zeta from the two score
    vectors, in place in positive_scores."""
    positive_scores -= negative_scores
    positive_scores += zeta
    return positive_scores


def streamed_triplet_losses(
    w_arr: np.ndarray, Xa: np.ndarray, positive_blocks, negative_blocks, zeta: float
) -> np.ndarray:
    """Logistic triplet losses phi(-margin) of m aligned triplets, one per row
    of the anchors Xa, with the positives and the negatives handed in as
    consecutive row blocks that together cover the m rows.

    Every positive block is read before the first negative block, and each
    block is used up before the next is taken, so both may be drawn lazily,
    one stream after the other, into one reused buffer. A positive block's
    scores are kept in the output; each negative block turns its rows into
    margins and then losses, so no block of triplets is ever held whole.
    A row's loss does not depend on the other rows, and a fixed blocking
    gives the same losses on every run; but numpy computes a one-row block's
    (X - Y) @ w as a matrix-vector product, which at d >= 4 can round
    differently in the last bits than the same row in a larger block.
    """
    losses = np.empty(Xa.shape[0])
    start = 0
    for block in positive_blocks:
        stop = start + block.shape[0]
        losses[start:stop] = row_scores(w_arr, Xa[start:stop], block)
        start = stop
    start = 0
    for block in negative_blocks:
        stop = start + block.shape[0]
        rows = losses[start:stop]
        _margins(rows, row_scores(w_arr, Xa[start:stop], block), zeta)
        rows[:] = margin_terms(rows)[0]
        start = stop
    return losses


def triplet_losses_rowwise(
    w_arr: np.ndarray, Xa: np.ndarray, Xp: np.ndarray, Xn: np.ndarray, zeta: float
) -> np.ndarray:
    """Logistic triplet losses phi(-margin) for m aligned triplets, one per row.

    Scored in row blocks of BLOCK doubles (streamed_triplet_losses), so a
    block's differences and scores stay in cache.
    """
    step = max(1, BLOCK // Xa.shape[1])
    rows = range(0, Xa.shape[0], step)
    return streamed_triplet_losses(
        w_arr,
        Xa,
        (Xp[start : start + step] for start in rows),
        (Xn[start : start + step] for start in rows),
        zeta,
    )


# largest margin for which the factored sweep's V = exp(max_j m_ijk) stays
# finite (exp overflows past ~709.78); above it the sweep takes the margin form
MAX_FACTORED_MARGIN = 700.0


def triplet_blocks(S_pp: np.ndarray, S_pn: np.ndarray, zeta: float, derivatives: bool = False):
    """Yield (start, phi(-m), sigmoid(m), phi''(m)) over anchor blocks of the
    triplet tensor, for the margins
    m[a, j, k] = S_pp[i, j] - S_pn[i, k] + zeta, anchor i = start + a, in the
    blocks of margin_blocks. The derivatives are None unless asked for, and
    every yielded array is overwritten by the next block. The excluded
    triplets j = i contribute exactly 0 to all three terms.

    For anchor i the margins factor as m_ijk = a_ij - b_ik with a = S_pp + zeta
    and b = S_pn, so exp(m_ijk) = U[i, j] * V[i, k] with the per-anchor shift
    c_i = max_{j != i} a_ij:

        U[i, j] = exp(a_ij - c_i) <= 1 (U[i, i] = 0),  V[i, k] = exp(c_i - b_ik).

    U and V cost O(n+^2 + n+ n-) exps per sweep; a block is then p = U V, with
    phi(-m) = log1p(p) and, with r = 1/(1 + p), sigmoid(m) = p r and
    phi''(m) = sigmoid(m) r. V[i, k] = exp(max_j m_ijk) overflows only for a
    margin above ~709.8, so when the largest margin of the sweep exceeds
    MAX_FACTORED_MARGIN the blocks come from margin_blocks and margin_terms,
    which stay finite at any margin.
    """
    a = S_pp + zeta
    np.fill_diagonal(a, -np.inf)
    c = a.max(axis=1, keepdims=True)
    if float((c[:, 0] - S_pn.min(axis=1)).max()) > MAX_FACTORED_MARGIN:
        for start, m in margin_blocks(S_pp, S_pn, zeta):
            yield (start, *margin_terms(m, derivatives))
        return
    U = np.exp(np.subtract(a, c, out=a), out=a)
    V = np.exp(np.subtract(c, S_pn))
    n_plus, n_minus = S_pn.shape
    step = max(1, BLOCK // S_pn.size)
    size = min(step, n_plus) * S_pn.size
    # the block arrays are reused from block to block: fresh ones of this
    # size would page-fault on every block
    bufs = [np.empty(size) for _ in range(3 if derivatives else 1)]
    for start in range(0, n_plus, step):
        stop = min(start + step, n_plus)
        shape = (stop - start, n_plus, n_minus)
        p, *rest = (buf[: shape[0] * S_pn.size].reshape(shape) for buf in bufs)
        np.multiply(U[start:stop, :, None], V[start:stop, None, :], out=p)
        if not derivatives:
            yield start, np.log1p(p, out=p), None, None
            continue
        loss, r = rest
        np.log1p(p, out=loss)
        np.add(p, 1.0, out=r)
        np.reciprocal(r, out=r)
        sig = np.multiply(p, r, out=p)
        yield start, loss, sig, np.multiply(sig, r, out=r)


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


def margin_terms(m: np.ndarray, derivatives: bool = False):
    """(phi(-m), sigmoid(m) = -phi'(-m), phi''(m)) of a float64 array m from one exp.

    The two derivatives in m are None unless asked for; m is overwritten. With
    e = exp(-|m|): phi(-m) = log1p(e) + max(m, 0), phi's own operations, so it
    is bit-identical to phi(-m); sigmoid(m) is 1/(1+e) for m >= 0 and e/(1+e)
    below; phi''(m) = e/(1+e)^2.
    """
    e = np.abs(m)
    np.negative(e, out=e)
    np.exp(e, out=e)
    nonneg = m >= 0.0 if derivatives else None
    loss = np.log1p(e)
    loss += np.maximum(m, 0.0, out=m)
    if not derivatives:
        return loss, None, None
    inv = np.add(e, 1.0, out=m)
    np.reciprocal(inv, out=inv)
    curv = np.multiply(e, inv)
    curv *= inv
    np.maximum(e, nonneg, out=e)  # 1 for m >= 0, e below
    e *= inv
    return loss, e, curv


# --- serialization ---


def write_metric_csv(w: MetricParams, path) -> None:
    """Row-major CSV of the d x d matrix, no header."""
    write_csv(path, None, w.w.tolist())


def read_metric_csv(path) -> MetricParams:
    """Load a matrix CSV; symmetry re-validated at tolerance 1e-12, then exactly
    symmetrized. A file that cannot be opened, a non-numeric cell or a row
    whose length is not the row count raises ValidationError naming the file."""
    with open_input_csv(path) as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValidationError(f"{path}: empty matrix file")
    for row in rows:
        if len(row) != len(rows):
            raise DimensionMismatch(
                f"{path}: matrix file has {len(rows)} rows and a row of {len(row)} "
                "fields, expected square"
            )
    try:
        values = [[float(v) for v in row] for row in rows]
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed matrix file: {exc}") from exc
    return MetricParams(values)
