"""Output checks for the benchmark workloads, written apart from tripletlab.

Everything here uses numpy alone, in forms that differ from the library's:
the loss is `logaddexp(0, m)` (the library computes log1p(exp(-|u|)) + max),
the risk is summed anchor by anchor (the library sweeps blocks of anchors),
the gradient forms each anchor's difference outer products directly (the
library uses a graph-Laplacian identity), and the sigmoid is written with
tanh (the library calls scipy's expit). Each `check_*` function returns a
list of failure messages; an empty list means the outputs passed.
"""
from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)


def triplet_loss(margin):
    """phi(-margin) = log(1 + e^margin): the logistic triplet loss."""
    return np.logaddexp(0.0, margin)


def sigmoid(margin):
    """d/dm log(1 + e^m)."""
    return 0.5 * (1.0 + np.tanh(0.5 * margin))


def _anchor_terms(w, X, Y, i, zeta):
    """Margins m[j, k] of every triplet (i, j != i, k), with the differences."""
    dp = np.delete(X[i] - X, i, axis=0)
    dn = X[i] - Y
    sp = np.einsum("jd,de,je->j", dp, w, dp)
    sn = np.einsum("kd,de,ke->k", dn, w, dn)
    return sp[:, None] - sn[None, :] + zeta, dp, dn


def exact_risk(w, X, Y, zeta=0.0, loss=triplet_loss) -> float:
    """Mean loss over all n+ (n+ - 1) n- ordered triplets, anchor by anchor."""
    n_plus, n_minus = len(X), len(Y)
    parts = [float(loss(_anchor_terms(w, X, Y, i, zeta)[0]).sum()) for i in range(n_plus)]
    return math.fsum(parts) / (n_plus * (n_plus - 1) * n_minus)


def risk_gradient(w, X, Y, zeta=0.0) -> np.ndarray:
    """Gradient of the exact risk: mean of sigmoid(m) (dp dp^T - dn dn^T)."""
    n_plus, n_minus = len(X), len(Y)
    grad = np.zeros_like(w, dtype=np.float64)
    for i in range(n_plus):
        m, dp, dn = _anchor_terms(w, X, Y, i, zeta)
        s = sigmoid(m)
        grad += np.einsum("j,ja,jb->ab", s.sum(axis=1), dp, dp)
        grad -= np.einsum("k,ka,kb->ab", s.sum(axis=0), dn, dn)
    return grad / (n_plus * (n_plus - 1) * n_minus)


def sgd_replay(X, Y, i, j, k, eta, zeta=0.0) -> np.ndarray:
    """Re-run the SGD updates w <- w - eta_t grad_t of a recorded trace from w = 0."""
    d = X.shape[1]
    w = np.zeros((d, d))
    for t in range(len(i)):
        dp = X[i[t]] - X[j[t]]
        dn = X[i[t]] - Y[k[t]]
        m = dp @ w @ dp - dn @ w @ dn + zeta
        w = w - (eta[t] * sigmoid(m)) * (np.outer(dp, dp) - np.outer(dn, dn))
    return w


def draw_pool(rng, mean, noise_scale, B, m):
    """m draws of N(mean, noise_scale^2 I), each pulled radially onto the B-ball."""
    x = rng.normal(loc=mean, scale=noise_scale, size=(m, len(mean)))
    norms = np.sqrt((x * x).sum(axis=1))
    return x * np.minimum(1.0, B / np.maximum(norms, 1e-300))[:, None]


def population_mc(w, d, separation, noise_scale, B, m, rng, zeta=0.0):
    """(mean, standard error) of the loss over m fresh triplets of the task law:
    positives around +separation/2 e1, negatives around -separation/2 e1."""
    mu = np.zeros(d)
    mu[0] = separation / 2.0
    xa = draw_pool(rng, mu, noise_scale, B, m)
    xp = draw_pool(rng, mu, noise_scale, B, m)
    xn = draw_pool(rng, -mu, noise_scale, B, m)
    dp, dn = xa - xp, xa - xn
    margins = (dp @ w * dp).sum(axis=1) - (dn @ w * dn).sum(axis=1) + zeta
    losses = triplet_loss(margins)
    return float(losses.mean()), float(losses.std(ddof=1)) / math.sqrt(m)


def optimistic_bound(n, sigma, B, mean_emp) -> float:
    """The multiplicative gap bound at n+ = n- = n with its balancing epsilon."""
    alpha = 64.0 * B**4
    eps = math.sqrt(3.0 * n**2 * (n - 1) * n**2 * sigma**2 / (4608.0 * n**2 + 256.0 * n**2))
    coefficient = (
        alpha / eps
        + 1536.0 * alpha * (eps + alpha) / (n**2 * (n - 1) * sigma**2)
        + 256.0 * alpha * (eps + alpha) / (3.0 * (n - 1) * n**2 * sigma**2)
    )
    return coefficient * mean_emp


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --- one check per workload ---


def check_optimistic(cells, rows, fits, B) -> list:
    """cells: (n, sigma) per grid size; rows: (n, emp, pop) per trial;
    fits: (X, Y, lam, w) per RRM solve."""
    failures = []
    alpha = 64.0 * B**4
    for n, sigma in cells:
        cell_rows = [(emp, pop) for rn, emp, pop in rows if rn == n]
        if not cell_rows:
            failures.append(f"n={n}: no trial rows")
            continue
        if sigma * n < 8.0 * alpha:
            failures.append(f"n={n}: sigma*n = {sigma * n:g} is below 8 alpha = {8 * alpha:g}")
            continue
        mean_emp = math.fsum(e for e, _ in cell_rows) / len(cell_rows)
        mean_gap = math.fsum(p - e for e, p in cell_rows) / len(cell_rows)
        bound = optimistic_bound(n, sigma, B, mean_emp)
        if not mean_gap <= bound:
            failures.append(f"n={n}: mean gap {mean_gap:.6g} exceeds the bound {bound:.6g}")
    for X, Y, lam, w in fits:
        objective = exact_risk(w, X, Y) + lam * float((w * w).sum())
        if not objective <= LOG2 * (1.0 + 1e-12):
            failures.append(
                f"n={len(X)} lam={lam:g}: R_S(w) + lam |w|^2 = {objective:.15g} exceeds "
                f"its value at w = 0, log 2"
            )
    return failures


def check_rrm_stability(gammas, n_plus, n_minus, B, lam) -> list:
    L = 8.0 * B**2
    bound = min(8.0 / n_plus, 4.0 / n_minus) * L * L / (2.0 * lam)
    return [
        f"lam={lam:g} trial {t}: gamma_hat {g:.6g} exceeds min(8/n+, 4/n-) L^2/sigma = {bound:.6g}"
        for t, g in enumerate(gammas)
        if not 0.0 <= g <= bound
    ]


def check_rrm_fit(X, Y, lam, w, tol) -> list:
    grad = risk_gradient(w, X, Y) + 2.0 * lam * w
    norm = float(np.linalg.norm(grad))
    if norm <= tol:
        return []
    return [f"n={len(X)} lam={lam:g}: |grad R_S + 2 lam w| = {norm:.3g} exceeds tol {tol:g}"]


def check_sgd_trial(X, Y, trace, w, emp, pop, pop_se, law, m, rng) -> list:
    """trace: (i, j, k, eta) arrays; law: (separation, noise_scale, B)."""
    failures = []
    w_replay = sgd_replay(X, Y, *trace)
    scale = max(1.0, float(np.abs(w_replay).max()))
    if float(np.abs(w_replay - w).max()) > 1e-10 * scale:
        failures.append(
            f"n={len(X)}: replaying the SGD trace gives a w that differs by "
            f"{float(np.abs(w_replay - w).max()):.3g}"
        )
    risk = exact_risk(w_replay, X, Y)
    if _rel(risk, emp) > 1e-12:
        failures.append(
            f"n={len(X)}: empirical risk {emp!r} differs from the triplet sum {risk!r} "
            f"by {_rel(risk, emp):.3g} relative"
        )
    separation, noise_scale, B = law
    mc, mc_se = population_mc(w_replay, X.shape[1], separation, noise_scale, B, m, rng)
    if abs(pop - mc) > 5.0 * math.hypot(pop_se, mc_se):
        failures.append(
            f"n={len(X)}: population risk {pop:.6g} +- {pop_se:.2g} disagrees with the "
            f"task-law estimate {mc:.6g} +- {mc_se:.2g} by more than 5 standard errors"
        )
    return failures


def check_sgd_stability(gammas, bounds, B, eta, T) -> list:
    failures = []
    L = 8.0 * B**2
    for t, (g, b) in enumerate(zip(gammas, bounds)):
        if not 0.0 <= g <= b:
            failures.append(f"trial {t}: gamma_hat {g:.6g} exceeds its step-hit bound {b:.6g}")
        hits = b / (2.0 * L * L * eta)
        if abs(hits - round(hits)) > 1e-6 * max(1.0, hits) or not 0 <= round(hits) <= T:
            failures.append(
                f"trial {t}: bound / (2 L^2 eta) = {hits:.9g} is not a whole number of "
                f"hits in [0, T = {T}]"
            )
    return failures
