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
engine, triplet_sweep. It needs one exp per pair, not per triplet: for
anchor i, exp(m_ijk) = U[i, j] * V[i, k], with U and V the exps of the pair
scores shifted by the anchor's largest positive-pair score. Sweeps with a
margin above MAX_FACTORED_MARGIN = 700, where V would overflow, run on the
margin tensor instead (margin_block, margin_terms). The anchor blocks are cut
into one contiguous run per CPU and the runs computed on the shared thread
pool (parallel.run_jobs); each block's result comes back to the caller in
block order, so every sum over blocks is folded in the serial order and the
results are bit-identical for any thread count.
"""
from __future__ import annotations

import csv
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import parallel
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
# fewest anchor blocks a thread takes at once in a split sweep (triplet_sweep):
# handing a single block to another thread costs about what it saves
MIN_RUN = 2


def difference_scores(w_arr: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Vector of delta[i]^T w delta[i]: the rows of delta @ w times delta,
    summed column by column (left to right)."""
    terms = delta @ w_arr
    terms *= delta
    scores = terms[:, 0].copy()
    for col in range(1, terms.shape[1]):
        scores += terms[:, col]
    return scores


def row_scores(w_arr: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Vector of h_w(X[i], Y[i]) for aligned row sets: difference_scores of X - Y."""
    return difference_scores(w_arr, X - Y)


def row_blocks(m: int, step: int) -> list:
    """Slices of m rows in consecutive blocks of step rows, a lone last row
    joining the block before it. numpy computes a one-row delta @ w as a
    matrix-vector product, which at d >= 4 can round differently in the last
    bits than the same row in a larger block, so with step >= 2 no block has
    one row (only m = 1 gives one)."""
    starts = list(range(0, m, step))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [m])]


def difference_losses(w_arr: np.ndarray, shape, differences, zeta: float) -> np.ndarray:
    """Logistic triplet losses phi(-margin) of m aligned triplets with d
    features, shape = (m, d), scored in consecutive row blocks of BLOCK
    doubles (row_blocks, at least 2 rows each) so a block's differences and
    scores stay in cache.

    differences(rows) gives a block's rows of anchor - positive and of
    anchor - negative, and the margin of a row is their difference_scores'
    difference plus zeta. A row's loss does not depend on the other rows, and
    the fixed blocking gives the same losses on every run.
    """
    m, d = shape
    losses = np.empty(m)
    for rows in row_blocks(m, max(2, BLOCK // d)):
        dp, dn = differences(rows)
        margins = losses[rows]
        np.subtract(difference_scores(w_arr, dp), difference_scores(w_arr, dn), out=margins)
        margins += zeta
        margins[:] = margin_terms(margins)[0]
    return losses


def triplet_losses_rowwise(
    w_arr: np.ndarray, Xa: np.ndarray, Xp: np.ndarray, Xn: np.ndarray, zeta: float
) -> np.ndarray:
    """Logistic triplet losses phi(-margin) for m aligned triplets, one per
    row, their differences formed block by block (difference_losses)."""
    return difference_losses(
        w_arr, Xa.shape, lambda rows: (Xa[rows] - Xp[rows], Xa[rows] - Xn[rows]), zeta
    )


# largest margin for which the factored sweep's V = exp(max_j m_ijk) stays
# finite (exp overflows past ~709.78); above it the sweep takes the margin form
MAX_FACTORED_MARGIN = 700.0


def anchor_blocks(n_plus: int, n_minus: int) -> list:
    """(start, stop) of the anchor blocks of a sweep over n_plus anchors with
    n_plus * n_minus terms each: max(1, BLOCK // (n_plus * n_minus)) anchors
    a block, so a block holds at most BLOCK terms (at least one anchor)."""
    step = max(1, BLOCK // (n_plus * n_minus))
    return [(start, min(start + step, n_plus)) for start in range(0, n_plus, step)]


def margin_block(S_pp: np.ndarray, S_pn: np.ndarray, zeta: float, start: int, stop: int):
    """The margins m[a, j, k] = S_pp[i, j] - S_pn[i, k] + zeta of anchors
    i = start + a in [start, stop), as a fresh array, with S_pp, S_pn the pair
    scores of the positives with positives and negatives. The excluded
    triplets j = i carry m = -inf, where every term of margin_terms is exactly
    0, so sums and maxima cover valid triplets only."""
    m = np.subtract(S_pp[start:stop, :, None], S_pn[start:stop, None, :])
    m += zeta
    anchors = np.arange(m.shape[0])
    m[anchors, start + anchors] = -np.inf
    return m


def _block_terms(S_pp: np.ndarray, S_pn: np.ndarray, zeta: float, derivatives: bool):
    """The function terms(start, stop, bufs) -> (phi(-m), sigmoid(m),
    phi''(m)) of the anchors in [start, stop) of one triplet tensor (see
    triplet_sweep), written into the caller's reused arrays bufs. U, V and
    the choice between the factored and the margin form are made here, once
    per sweep, and only read by the blocks."""
    a = S_pp + zeta
    np.fill_diagonal(a, -np.inf)
    c = a.max(axis=1, keepdims=True)
    if float((c[:, 0] - S_pn.min(axis=1)).max()) > MAX_FACTORED_MARGIN:
        return lambda start, stop, bufs: margin_terms(
            margin_block(S_pp, S_pn, zeta, start, stop), derivatives
        )
    U = np.exp(np.subtract(a, c, out=a), out=a)
    V = np.exp(np.subtract(c, S_pn))
    n_plus, n_minus = S_pn.shape

    def terms(start, stop, bufs):
        shape = (stop - start, n_plus, n_minus)
        p, *rest = (buf[: shape[0] * S_pn.size].reshape(shape) for buf in bufs)
        np.multiply(U[start:stop, :, None], V[start:stop, None, :], out=p)
        if not derivatives:
            return np.log1p(p, out=p), None, None
        loss, r = rest
        np.log1p(p, out=loss)
        np.add(p, 1.0, out=r)
        np.reciprocal(r, out=r)
        sig = np.multiply(p, r, out=p)
        return loss, sig, np.multiply(sig, r, out=r)

    return terms


def triplet_sweep(scores, zeta: float, reduce, derivatives: bool = False) -> list:
    """[reduce(start, *terms) for every anchor block], in block order.

    scores is a list of pair-score pairs (S_pp, S_pn) of one shape, each the
    scores of the positives with the positives and with the negatives under
    one metric. For a block of anchors i = start + a, terms holds one triple
    (phi(-m), sigmoid(m), phi''(m)) per pair, over its margins
    m[a, j, k] = S_pp[i, j] - S_pn[i, k] + zeta; the derivatives are None
    unless asked for, every array is overwritten by the next block, and the
    excluded triplets j = i contribute exactly 0 to all three terms.

    The blocks are those of anchor_blocks, cut into one contiguous run per
    available CPU, of at least MIN_RUN blocks each (a sweep of fewer than
    2 MIN_RUN blocks runs on the calling thread alone); the runs go through
    parallel.run_jobs, each thread that takes runs reusing its own block
    arrays, and reduce runs on the thread that computed its block. The
    per-block results come back in block order, so a caller that folds them
    in that order gets the same bits for any thread count.

    For anchor i the margins factor as m_ijk = a_ij - b_ik with a = S_pp + zeta
    and b = S_pn, so exp(m_ijk) = U[i, j] * V[i, k] with the per-anchor shift
    c_i = max_{j != i} a_ij:

        U[i, j] = exp(a_ij - c_i) <= 1 (U[i, i] = 0),  V[i, k] = exp(c_i - b_ik).

    U and V cost O(n+^2 + n+ n-) exps per sweep; a block is then p = U V, with
    phi(-m) = log1p(p) and, with r = 1/(1 + p), sigmoid(m) = p r and
    phi''(m) = sigmoid(m) r. V[i, k] = exp(max_j m_ijk) overflows only for a
    margin above ~709.8, so when the largest margin of a pair's tensor
    exceeds MAX_FACTORED_MARGIN its blocks come from margin_block and
    margin_terms, which stay finite at any margin.
    """
    n_plus, n_minus = scores[0][1].shape
    blocks = anchor_blocks(n_plus, n_minus)
    tensors = [_block_terms(S_pp, S_pn, zeta, derivatives) for S_pp, S_pn in scores]
    size = (blocks[0][1] - blocks[0][0]) * n_plus * n_minus

    scratch = {}  # thread id -> the block arrays that thread reuses in this sweep

    def run(first, last):
        # fresh block arrays would page-fault on every block, and fresh ones
        # per run on every run a thread takes
        bufs = scratch.get(threading.get_ident())
        if bufs is None:
            bufs = [[np.empty(size) for _ in range(3 if derivatives else 1)] for _ in tensors]
            scratch[threading.get_ident()] = bufs
        return [
            reduce(start, *(terms(start, stop, b) for terms, b in zip(tensors, bufs)))
            for start, stop in blocks[first:last]
        ]

    count = max(1, min(parallel.available_cpus(), len(blocks) // MIN_RUN))
    cuts = [len(blocks) * r // count for r in range(count + 1)]
    runs, _ = parallel.run_jobs(run, zip(cuts, cuts[1:]))
    return [result for results in runs for result in results]


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
