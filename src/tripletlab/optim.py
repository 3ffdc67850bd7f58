"""Training: single-triplet SGD and the ridge-regularized full-batch minimizer.

SGD starts at w = 0, draws one uniform triplet per step, and applies
w <- w - eta_t * grad with eta_t fixed to c / sqrt(T). The step factor must
satisfy c <= 2/alpha (alpha = 64 B^4 for the dataset's feature bound), which
also makes every update map 1-expansive. A margin is <w, D_t> + zeta with
the symmetric D_t = dp dp^T - dn dn^T, so the steps run in Python floats on
the p = d(d+1)/2 svec coordinates of w: a length-p dot product with the
features svec(D_t) (off-diagonal entries weighted 2) and an axpy, in a step
kernel compiled once per d that holds the coordinates in local variables
(_step_kernel). The steps' triplets, uniform over {(i, j, k): i != j}, are
all drawn before the first step by risk.sample_triplet_indices, so paired
runs on S and S' at one seed share every index.

The regularized objective F_S(w) = R_S(w) + lam ||w||_F^2 is 2*lam-strongly
convex, so the gradient-norm stopping rule certifies
||w - argmin F_S|| <= tol / (2 lam). rrm_train minimizes it by damped Newton
on u, the same p coordinates of w scaled to be isometric (off-diagonal
entries times sqrt(2), so ||u|| = ||w||_F). The p x p solve is tiny; the cost
per iteration is one sweep over the triplet tensor, which yields the loss,
gradient and Hessian at once from the svec pair features that the solve
builds once, (n+^2 + n+ n-)(p + 1) doubles at most (a solve whose features
would not fit in physical memory is refused before they are built). At
w = 0, where a cold solve starts, every margin is zeta and the three come in
closed form from moments of the features, with no sweep (_risk_parts). The
sweep's anchor blocks run on all CPUs (loss.triplet_sweep), and their
gradients and Hessian terms are added in block order, so every iterate is
bit-identical for any thread count, of the pool and of BLAS. A solve that
cannot reach tol raises a SolverFailure that carries its best iterate.
sample_minimizer runs the same Newton loop (_newton) at lam = 0 on the mean
loss over an evaluation sample, a reference minimizer for the excess risk.
The Newton system is solved by scipy.linalg's cho_factor and cho_solve,
imported when _newton is called, so that a process that never runs a
Newton solve (SGD, the stability probes of a constant or SGD trainer)
never loads scipy, which costs more to import than all of tripletlab.
numpy's Cholesky and triangular solves would not do instead: they round
differently from scipy's LAPACK calls, and every RRM iterate would move.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import loss, parallel, risk
from .core import (
    Pool,
    SlotOutOfBounds,
    SlotRef,
    TripletDataset,
    ValidationError,
    feature_bound,
    open_input_csv,
    parse_int,
    read_only_view,
    write_csv,
)
from .loss import (
    MetricParams,
    logistic_triplet_grad,
    LossConfig,
    margin_terms,
    pair_scores,
    regularity_constants,
    triplet_sweep,
)
from .risk import DEFAULT_TRIPLET_BUDGET, exact_mean_loss, swept_mean_loss

SUB_BLOCK = 256  # SGD steps whose features are converted to Python floats at once
# pair features built at once (_pair_features, 64 KB): the build's temporaries
# stay small beside the features, which peak memory would otherwise see
FEATURE_CHUNK = 1 << 13
# predicted decreases of F_S up to this many ulps of F_S are too small for the
# Armijo test to resolve (rrm_train)
ROUNDING_ULPS = 4


class StepSizeTooLarge(ValidationError):
    pass


class BudgetExceeded(ValidationError):
    pass


class SolveTooLarge(ValidationError):
    pass


class TraceTooLarge(ValidationError):
    pass


class SolverFailure(RuntimeError):
    """Raised when the RRM solver stops before reaching tol.

    Carries the best iterate seen (w, iterations, grad_norm) so callers can
    inspect or keep it.
    """

    def __init__(self, message, w: MetricParams, iterations: int, grad_norm: float):
        super().__init__(message)
        self.w = w
        self.iterations = iterations
        self.grad_norm = grad_norm


class MaxItersExceeded(SolverFailure):
    """The iteration cap was hit first."""


class LineSearchExhausted(SolverFailure):
    """No step of a Newton line search, from the full step down to 2**-59 of
    it, met the Armijo condition, and the full step was not taken by the
    rounding rule of rrm_train either."""


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
        self._hold(
            np.array(self.i, dtype=np.int64),
            np.array(self.j, dtype=np.int64),
            np.array(self.k, dtype=np.int64),
            np.array(self.eta, dtype=np.float64),
        )

    @classmethod
    def _of_own_arrays(cls, i, j, k, eta, n_plus: int, n_minus: int) -> "TrainTrace":
        """The trace of int64 arrays i, j, k and float64 eta that nothing
        else references, held as they are: sgd_train's own, which the
        constructor would copy."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "n_plus", n_plus)
        object.__setattr__(trace, "n_minus", n_minus)
        trace._hold(i, j, k, eta)
        return trace

    def _hold(self, i, j, k, eta) -> None:
        """Check the trace arrays and keep read-only views of them."""
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
            object.__setattr__(self, name, read_only_view(arr))

    @property
    def T(self) -> int:
        return len(self.i)

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


# margin terms per statement of a step kernel: CPython compiles a chain of
# additions by recursion, so one chain of p = d(d+1)/2 terms fails at large d
MARGIN_TERMS = 32


@functools.lru_cache(maxsize=8)  # a process trains at a few d
def _step_kernel(d: int):
    """The SGD steps at dimension d as one Python function,
    kernel(theta, flat, eta, zeta) -> theta, compiled from source (as
    dataclasses builds its methods).

    theta is the list of the p = d(d+1)/2 svec coordinates, the upper
    triangle of w row by row, and flat the features of consecutive steps, p
    floats a step. The kernel holds theta in p local floats t0 ... t{p-1}
    and, for each step's f0 ... f{p-1}, sums the margin left to right as one
    explicit chain, zeta + t0*f0 + (t1 + t1)*f1 + ..., in statements of at
    most MARGIN_TERMS terms. An off-diagonal coordinate enters as (t + t)*f:
    the doubling is exact, so this rounds the same real product as t*(2f).
    Then s = eta * expit(m), expit(m) = 1 / (1 + exp(-m)) as scipy's expit
    gives it bit for bit (0.0 where exp(-m) overflows, which math.exp
    raises), and every tq -= s*fq. Returns the new coordinates as a list.
    """
    diagonal = [a == b for a in range(d) for b in range(a, d)]
    t = [f"t{q}" for q in range(len(diagonal))]
    f = [f"f{q}" for q in range(len(diagonal))]
    terms = [
        f"{tq} * {fq}" if diag else f"({tq} + {tq}) * {fq}"
        for tq, fq, diag in zip(t, f, diagonal)
    ]
    chain = [
        "m = " + " + ".join(["m" if start else "zeta"] + terms[start : start + MARGIN_TERMS])
        for start in range(0, len(terms), MARGIN_TERMS)
    ]
    lines = [
        "def kernel(theta, flat, eta, zeta):",
        f"    {', '.join(t)}, = theta",
        f"    for {', '.join(f)}, in zip(*[iter(flat)] * {len(t)}):",
        *(f"        {line}" for line in chain),
        "        try:",
        "            s = eta * (1.0 / (1.0 + exp(-m)))",
        "        except OverflowError:",
        "            s = 0.0",
        *(f"        {tq} -= s * {fq}" for tq, fq in zip(t, f)),
        f"    return [{', '.join(t)}]",
    ]
    namespace = {"exp": math.exp}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def check_trace_size(T: int) -> None:
    """Raise TraceTooLarge if an SGD trace of T steps is larger than physical
    memory at its peak: sgd_train's four T-length arrays (i, j, k and eta),
    which the trace holds without a copy, 4 T doubles or int64s."""
    what = f"an SGD trace of T = {T} steps"
    risk.check_memory(4 * T * 8, what, "i, j, k and eta, 4*T*8", TraceTooLarge)


def sgd_train(dataset: TripletDataset, cfg: SgdConfig):
    """Run single-triplet SGD from w = 0; returns (w_T, trace).

    Step t applies one gradient step at the current iterate on the triplet
    (i[t], j[t], k[t]). All T triplets are drawn before the first step by
    risk.sample_triplet_indices from default_rng(SeedSequence(cfg.seed)):
    uniform over {(i, j, k): i != j}, independent across steps, and a
    function of the seed and the pool sizes only. The trace holds the index
    arrays as they are.

    The iterate is theta, the upper triangle of w row by row, in Python
    floats. A step with features f = svec(dp dp^T - dn dn^T) sums the margin
    m = zeta + theta[0] g[0] + theta[1] g[1] + ... left to right, where g is
    f with its off-diagonal entries doubled, and sets
    theta[q] -= eta * expit(m) * f[q] (expit(m) = d/dm phi(-m)); the sum is
    an explicit chain of additions, never sum(), which sums floats with
    compensation from Python 3.12 on. The steps run in blocks of
    loss.BLOCK // d^2: a block's features are formed at once from its slices
    of the index arrays, then handed to the step kernel of this d
    (_step_kernel) as one flat list of Python floats per SUB_BLOCK steps. A
    trace that would not fit in physical memory is refused (TraceTooLarge,
    check_trace_size) before the first draw.
    """
    check_trace_size(cfg.T)
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
    ii, jj, kk = risk.sample_triplet_indices(rng, n_plus, n_minus, cfg.T)
    rows, cols = np.triu_indices(dataset.d)
    kernel = _step_kernel(dataset.d)
    theta = [0.0] * len(rows)
    eta = cfg.c / math.sqrt(cfg.T) if cfg.T else 0.0
    block = max(1, loss.BLOCK // dataset.d**2)
    for start in range(0, cfg.T, block):
        anchors = X[ii[start : start + block]]
        dps = anchors - X[jj[start : start + block]]
        dns = anchors - Y[kk[start : start + block]]
        feats = dps[:, rows] * dps[:, cols]
        feats -= dns[:, rows] * dns[:, cols]
        for lo in range(0, len(feats), SUB_BLOCK):
            theta = kernel(theta, feats[lo : lo + SUB_BLOCK].ravel().tolist(), eta, cfg.zeta)
    w = np.empty((dataset.d, dataset.d))
    w[rows, cols] = theta
    w[cols, rows] = theta
    trace = TrainTrace._of_own_arrays(ii, jj, kk, np.full(cfg.T, eta), n_plus, n_minus)
    return MetricParams(w), trace


def write_trace_csv(trace: TrainTrace, path, slot: SlotRef | None = None) -> None:
    """CSV columns t,i,j,k,eta,hit_slot_flag (flag is 0 when no slot is given)."""
    flags = trace.hit_mask(slot).tolist() if slot is not None else [0] * trace.T
    write_csv(
        path,
        ["t", "i", "j", "k", "eta", "hit_slot_flag"],
        zip(
            range(1, trace.T + 1),
            trace.i.tolist(),
            trace.j.tolist(),
            trace.k.tolist(),
            trace.eta.tolist(),
            flags,
        ),
    )


def read_trace_csv(path, n_plus: int, n_minus: int) -> TrainTrace:
    """Rebuild a TrainTrace from a trace.csv (pool sizes are not stored there)."""
    i, j, k, eta = [], [], [], []
    with open_input_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:5] != ["t", "i", "j", "k", "eta"]:
            raise ValidationError(f"{path}: not a trace CSV")
        for row in reader:
            if not row:
                continue
            try:
                i.append(parse_int(row[1]))
                j.append(parse_int(row[2]))
                k.append(parse_int(row[3]))
                eta.append(float(row[4]))
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"{path}: malformed trace row {row!r}: {exc}") from exc
    return TrainTrace(
        i=np.array(i, np.int64),
        j=np.array(j, np.int64),
        k=np.array(k, np.int64),
        eta=np.array(eta, np.float64),
        n_plus=n_plus,
        n_minus=n_minus,
    )


# --- full-batch objective machinery ---


def _svec_basis(d: int):
    """(rows, cols, scale) of the svec coordinates of a symmetric d x d matrix:
    its upper triangle row by row, with the off-diagonal entries times sqrt(2),
    so that <svec(a), svec(b)> = <a, b>_F and ||svec(w)|| = ||w||_F."""
    rows, cols = np.triu_indices(d)
    return rows, cols, np.where(rows == cols, 1.0, math.sqrt(2.0))


def _pair_features(X, Y):
    """(P, Q1), the svec pair features of a solve's dataset: P has the
    n+ n+ rows p_ij, the svec of dd^T for d = X[i] - X[j] (row i n+ + j;
    p_ii = 0), and Q1 the n+ n- rows [q_ik | 1], q_ik that for d = X[i] - Y[k]
    (row i n- + k). They depend on the dataset only, so a solve builds them
    once (rrm_train) and every sweep reads them (_risk_parts). They are
    built a few anchors at a time, about FEATURE_CHUNK features at once (at
    least one anchor's)."""
    rows, cols, scale = _svec_basis(X.shape[1])
    p = len(scale)
    # column-major, the layout numpy gives diff[..., rows]: BLAS can round a
    # product differently when its operands are laid out otherwise
    P = np.empty((p, len(X), len(X)))
    Q1 = np.ones((p + 1, len(X), len(Y)))
    step = max(1, FEATURE_CHUNK // ((len(X) + len(Y)) * p))
    for start in range(0, len(X), step):
        anchors = X[start : start + step, None, :]
        for out, others in ((P, X), (Q1, Y)):
            diff = anchors - others
            f = diff[..., rows]
            f *= diff[..., cols]
            f *= scale
            out[:p, start : start + step] = np.moveaxis(f, 2, 0)
    return P.reshape(p, -1).T, Q1.reshape(p + 1, -1).T


def check_solve_size(n_plus: int, n_minus: int, d: int) -> None:
    """Raise SolveTooLarge if a solve's pair features (_pair_features), at
    most (n+^2 + n+ n-)(p + 1) doubles with p = d(d+1)/2, are larger than
    physical memory."""
    need = (n_plus * n_plus + n_plus * n_minus) * (d * (d + 1) // 2 + 1) * 8
    what = f"an RRM solve at n+ = {n_plus}, n- = {n_minus}, d = {d}"
    risk.check_memory(need, what, "pair features, (n+^2 + n+ n-)(p + 1)*8", SolveTooLarge)


def _risk_parts(w_arr, X, Y, zeta, features=None):
    """The mean loss R_S(w), and its gradient and Hessian in the
    p = d(d+1)/2 svec coordinates u of w, from one sweep over the triplet
    tensor, or at w = 0 in closed form.

    The loss of triplet (i, j, k) is phi(-m_ijk), with m-derivatives
    sigmoid(m_ijk) and phi''(m_ijk) (triplet_sweep), and the margin is linear
    in u: m_ijk = <u, p_ij - q_ik> + zeta, with p_ij and q_ik the rows of the
    pair features (P, Q1) = features (_pair_features, built here if not
    given). Each anchor block slices its rows of P and of Q = Q1[:, :p]. Its
    gradient is P^T (sum_k sigmoid) - Q^T (sum_j sigmoid), and its Hessian
    sum phi''(m_ijk) (p_ij - q_ik)(p_ij - q_ik)^T comes as three p x p terms.
    The block's sums over k and j are matrix products: of the sigmoids with a
    ones vector, of the phi'' with ones on the left and with [Q | 1] on the
    right, which gives sum_k phi''(m_ijk) [q_ik | 1], the cross term's rows
    beside sum_k phi''. The blocks' loss sums, gradients and Hessian terms
    are added in block order, so the result does not depend on how many
    threads ran the blocks.

    At w = 0 every margin is zeta, so the sums need no sweep: the loss is
    phi(-zeta), the gradient sigmoid(zeta) times the mean of p_ij - q_ik, and
    the Hessian phi''(zeta) times the mean of (p_ij - q_ik)(p_ij - q_ik)^T,
    which is n- P^T P + (n+ - 1) Q^T Q - C - C^T over the N triplets with
    C = sum_i (sum_j p_ij)(sum_k q_ik)^T: O(n^2 p^2) work in all.
    """
    n_plus, n_minus = X.shape[0], Y.shape[0]
    N = n_plus * (n_plus - 1) * n_minus
    P, Q1 = features or _pair_features(X, Y)
    p = P.shape[1]
    Q = Q1[:, :p]
    if not w_arr.any():
        value, sig, curv = (float(t[0]) for t in margin_terms(np.array([zeta]), True))
        sum_p = P.reshape(n_plus, n_plus, p).sum(axis=1)
        sum_q = Q.reshape(n_plus, n_minus, p).sum(axis=1)
        C = sum_p.T @ sum_q
        grad = sig * (n_minus * sum_p.sum(axis=0) - (n_plus - 1) * sum_q.sum(axis=0))
        hess = n_minus * (P.T @ P) + (n_plus - 1) * (Q.T @ Q) - (C + C.T)
        return value, grad / N, curv * hess / N
    ones_plus, ones_minus = np.ones(n_plus), np.ones(n_minus)

    def block(start, terms):
        losses, g1, g2 = terms
        plus = slice(start * n_plus, (start + len(losses)) * n_plus)
        minus = slice(start * n_minus, (start + len(losses)) * n_minus)
        P_b, Q_b = P[plus], Q[minus]
        by_k = np.matmul(g2, Q1[minus].reshape(len(losses), n_minus, p + 1))
        cross = P_b.T @ by_k[..., :p].reshape(-1, p)
        return (
            float(losses.sum()),
            P_b.T @ (g1 @ ones_minus).reshape(-1) - Q_b.T @ (ones_plus @ g1).reshape(-1),
            (P_b.T * by_k[..., p].reshape(-1)) @ P_b,
            (Q_b.T * (ones_plus @ g2).reshape(-1)) @ Q_b,
            cross + cross.T,
        )

    scores = [(pair_scores(w_arr, X, X), pair_scores(w_arr, X, Y))]
    parts = triplet_sweep(scores, zeta, block, derivatives=True)
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    for _, g, pp, qq, cross in parts:  # in block order, as a serial sweep adds them
        grad += g
        hess += pp
        hess += qq
        hess -= cross
    mean_loss = math.fsum(part[0] for part in parts) / N
    return mean_loss, grad / N, hess / N


def regularized_objective(w: MetricParams, dataset: TripletDataset, cfg: RrmConfig) -> float:
    """Exact F_S(w) = R_S(w) + lam ||w||_F^2 (requires the exact-risk budget)."""
    if dataset.n_triplets > cfg.budget:
        raise BudgetExceeded(
            f"{dataset.n_triplets} triplets exceed the exact-risk budget {cfg.budget}"
        )
    risk = exact_mean_loss(w.w, dataset.positive_features, dataset.negative_features, cfg.zeta)
    return risk + cfg.lam * float(np.sum(w.w * w.w))


def _svec_metric(u, basis):
    """The symmetric matrix whose svec coordinates (basis = _svec_basis(d))
    are u."""
    rows, cols, scale = basis
    w = np.empty((rows[-1] + 1,) * 2)
    w[rows, cols] = w[cols, rows] = u / scale
    return w


def _newton(parts, mean_loss, u, lam, tol, max_iters, basis):
    """Minimize F(u) = R(u) + lam ||u||^2 over svec coordinates u
    (basis = _svec_basis(d)) by damped Newton from u, to ||grad F|| <= tol;
    returns (the metric of u, iterations). parts(u) gives R(u), its gradient
    and its Hessian from one sweep, and mean_loss(u) R(u) alone, summed as
    parts sums it.

    Each iteration solves the Newton system by Cholesky and takes the first
    step t = 1, 1/2, ..., 2**-59 of it that meets the Armijo condition,
    F(u + t s) <= F(u) + t slope / 4. Near the optimum a step can lower F by
    less than F's rounding, which the Armijo test cannot see: a full step
    whose predicted decrease is at most ROUNDING_ULPS ulps of F is taken when
    it lowers ||grad F||. Raises MaxItersExceeded if the cap is hit first,
    LineSearchExhausted if no step meets the test, and SolverFailure if the
    Newton system yields no descent direction; all three carry the best
    iterate.
    """
    from scipy.linalg import cho_factor, cho_solve

    ridge = 2.0 * lam * np.eye(len(u))
    best = None

    def failure(cls, message):
        gnorm, u_best, it_best = best
        return cls(message, MetricParams(_svec_metric(u_best, basis)), it_best, gnorm)

    risk_val, grad_r, hess_r = parts(u)
    for it in range(max_iters + 1):
        grad = grad_r + 2.0 * lam * u
        gnorm = float(np.linalg.norm(grad))
        if best is None or gnorm < best[0]:
            best = (gnorm, u, it)
        if gnorm <= tol:
            return MetricParams(_svec_metric(u, basis)), it
        if it == max_iters:
            break
        f_val = risk_val + lam * float(u @ u)
        try:
            s = cho_solve(cho_factor(hess_r + ridge), -grad)
        except np.linalg.LinAlgError:  # no factorization, no direction: the check below raises
            s = np.zeros_like(u)
        slope = float(grad @ s)
        if not slope < 0.0:
            raise failure(
                SolverFailure,
                f"the Newton system gives no descent direction at lam = {lam:g}, "
                f"iteration {it} (||grad|| = {gnorm:g})",
            )
        # the full step is scored with a sweep of parts, reused as the next
        # iteration's, the halvings by mean_loss; the rounding rule reads the
        # full step's gradient from the same sweep
        t = 1.0
        u_try = u + s
        step = parts(u_try)
        f_try = step[0] + lam * float(u_try @ u_try)
        accepted = f_try <= f_val + 0.25 * slope or (
            -slope <= ROUNDING_ULPS * math.ulp(f_val)
            and float(np.linalg.norm(step[1] + 2.0 * lam * u_try)) < gnorm
        )
        while not accepted and t > 2.0**-59:
            t *= 0.5
            u_try, step = u + t * s, None
            f_try = mean_loss(u_try) + lam * float(u_try @ u_try)
            accepted = f_try <= f_val + 0.25 * t * slope
        if not accepted:
            raise failure(
                LineSearchExhausted,
                f"no step down to 2**-59 of the Newton step decreases F_S enough "
                f"at iteration {it} (||grad|| = {gnorm:g})",
            )
        u = u_try
        risk_val, grad_r, hess_r = step or parts(u)
    raise failure(
        MaxItersExceeded,
        f"newton stopped at ||grad|| = {gnorm:g} > tol = {tol:g} after {max_iters} iterations",
    )


def rrm_train(dataset: TripletDataset, cfg: RrmConfig, w0: MetricParams | None = None):
    """Minimize F_S to ||grad F_S||_F <= tol; returns (w, iterations).

    By 2*lam-strong convexity the result is within tol/(2 lam) of the unique
    minimizer in Frobenius norm. w0 is an optional warm start (default zero);
    it changes the path, not the certificate. The Newton loop (_newton) runs
    on u = svec(w), where ||u|| = ||w||_F, so its stopping rule and the
    certificate read as in w; its sweeps are _risk_parts, and its halvings
    are scored by swept_mean_loss, which sums every triplet as they do (never
    the series form). Raises BudgetExceeded above the exact-risk budget and
    SolveTooLarge when the pair features would not fit in physical memory
    (check_solve_size), before any sweep; then _newton's SolverFailure family.
    """
    if dataset.n_triplets > cfg.budget:
        raise BudgetExceeded(
            f"{dataset.n_triplets} triplets exceed the exact-risk budget {cfg.budget}"
        )
    X = dataset.positive_features
    Y = dataset.negative_features
    basis = rows, cols, scale = _svec_basis(dataset.d)
    check_solve_size(dataset.n_plus, dataset.n_minus, dataset.d)
    features = _pair_features(X, Y)
    u = np.zeros(len(scale)) if w0 is None else w0.w[rows, cols] * scale
    return _newton(
        lambda u: _risk_parts(_svec_metric(u, basis), X, Y, cfg.zeta, features),
        lambda u: swept_mean_loss(_svec_metric(u, basis), X, Y, cfg.zeta),
        u, cfg.lam, cfg.tol, cfg.max_iters, basis,
    )


def _sample_terms(u, chunk, zeta):
    """(loss sum, F^T sigmoid(m), F^T diag(phi''(m)) F) of one chunk of an
    evaluation sample, a (2, rows, d) array of anchor - positive dp and
    anchor - negative dn (risk.draw_evaluation_sample), at svec coordinates
    u: F holds the features svec(dp dp^T - dn dn^T) (_svec_basis) and
    m = F u + zeta the margins (margin_terms), built in row blocks of about
    loss.BLOCK doubles (loss.row_blocks) whose terms are added in order."""
    rows, cols, scale = _svec_basis(chunk.shape[2])
    total, grad, hess = 0.0, 0.0, 0.0
    for block in loss.row_blocks(chunk.shape[1], max(2, loss.BLOCK // len(scale))):
        dp, dn = chunk[:, block]
        F = dp[:, rows] * dp[:, cols]
        F -= dn[:, rows] * dn[:, cols]
        F *= scale
        losses, sig, curv = margin_terms(F @ u + zeta, True)
        total += float(losses.sum())
        grad = grad + F.T @ sig
        hess = hess + (F.T * curv) @ F
    return total, grad, hess


def sample_minimizer(sample: np.ndarray, zeta: float):
    """(w*, iterations): the minimizer of the mean loss over an evaluation
    sample (risk.draw_evaluation_sample), a logistic regression on the
    p = d(d+1)/2 svec features of its triplets, fitted from w = 0 by
    rrm_train's Newton loop (_newton) at lam = 0, with RrmConfig's default
    tol and iteration cap.

    Each sweep is one parallel.run_jobs call with a job per chunk of the
    sample (risk.sample_chunks, _sample_terms), so no m x p array is held,
    and the chunks' terms are added in chunk order (the loss sums exactly
    rounded): w* is bit-identical for any thread count. Features that do
    not span the p coordinates (fewer than p triplets, say) leave no unique
    minimizer and a singular Hessian, hence no Newton direction, and raise
    the SolverFailure family as rrm_train does. A separable sample, whose
    infimum 0 is not attained, stops once ||grad|| falls below tol, at a
    large ||w*|| and a mean loss near 0.
    """
    _, m, d = sample.shape
    chunks = [sample[:, rows] for rows in risk.sample_chunks(m)]

    def parts(u):
        terms, _ = parallel.run_jobs(_sample_terms, [(u, chunk, zeta) for chunk in chunks])
        totals, grads, hessians = zip(*terms)
        return math.fsum(totals) / m, sum(grads) / m, sum(hessians) / m

    basis = _svec_basis(d)
    u = np.zeros(len(basis[2]))
    return _newton(
        parts, lambda u: parts(u)[0], u, 0.0, RrmConfig.tol, RrmConfig.max_iters, basis
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
