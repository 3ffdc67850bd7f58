import math

import numpy as np
import pytest

from tripletlab import loss as loss_module
from tripletlab.core import TripletDataset, ValidationError
from tripletlab.loss import (
    AsymmetricMatrix,
    LossConfig,
    MetricParams,
    NonpositiveBound,
    anchor_blocks,
    logistic_triplet_grad,
    logistic_triplet_loss,
    margin_block,
    margin_terms,
    metric_score,
    pair_scores,
    phi,
    phi_double_prime,
    phi_prime,
    read_metric_csv,
    regularity_constants,
    row_scores,
    triplet_losses_rowwise,
    triplet_margin,
    triplet_sweep,
    write_metric_csv,
    zero_one_triplet_loss,
)
from tripletlab.optim import _risk_parts
from tripletlab.risk import exact_mean_loss
from tripletlab.stability import probe_max_loss_diff
from tripletlab.synth import TaskConfig, low_noise_task


def sym(rng, d, scale=1.0):
    raw = scale * rng.standard_normal((d, d))
    return MetricParams((raw + raw.T) / 2)


# --- MetricParams ---


def test_metric_params_rejects_asymmetry():
    with pytest.raises(AsymmetricMatrix):
        MetricParams(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_metric_params_exactly_symmetrizes_roundoff():
    w = np.array([[1.0, 0.3 + 1e-14], [0.3, 2.0]])
    m = MetricParams(w)
    assert np.array_equal(m.w, m.w.T)


def test_metric_params_norm_is_frobenius():
    m = MetricParams(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert m.norm() == pytest.approx(5.0)


def test_metric_params_zeros_identity():
    assert np.array_equal(MetricParams.zeros(3).w, np.zeros((3, 3)))
    assert np.array_equal(MetricParams.identity(2, scale=2.5).w, 2.5 * np.eye(2))


def test_metric_params_rejects_nonsquare():
    with pytest.raises(ValueError):
        MetricParams(np.ones((2, 3)))


def test_metric_params_matrix_stays_read_only():
    given = np.array([[1.0, 0.5], [0.5, 2.0]])
    m = MetricParams(given)
    assert not m.w.flags.writeable and not np.shares_memory(m.w, given)
    with pytest.raises(ValueError):
        m.w.setflags(write=True)
    with pytest.raises(ValueError):
        np.copyto(m.w, 0.0)


# --- phi and derivatives ---


def test_phi_at_zero():
    assert phi(0.0) == pytest.approx(math.log(2), rel=1e-15)


def test_phi_large_negative_is_linear():
    # phi(u) ~ -u for u << 0; must not overflow
    assert phi(-100.0) == pytest.approx(100.0, abs=1e-6)
    assert phi(-1000.0) == pytest.approx(1000.0, abs=1e-6)
    assert math.isfinite(phi(-1e3))


def test_phi_large_positive_underflows_gracefully():
    assert phi(1000.0) >= 0.0
    assert phi(700.0) == pytest.approx(math.exp(-700.0), rel=1e-12)


def test_phi_prime_matches_finite_difference():
    h = 1e-6
    for u in (-5.0, -0.7, 0.0, 0.3, 4.0):
        fd = (phi(u + h) - phi(u - h)) / (2 * h)
        assert phi_prime(u) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_phi_double_prime_matches_finite_difference():
    h = 1e-5
    for u in (-4.0, -1.0, 0.0, 2.0):
        fd = (phi_prime(u + h) - phi_prime(u - h)) / (2 * h)
        assert phi_double_prime(u) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_phi_prime_range():
    us = np.linspace(-30, 30, 201)
    vals = phi_prime(us)
    assert np.all(vals < 0)
    assert np.all(vals > -1)


# --- scores, margin, loss ---


def test_metric_score_hand_value():
    # diag(2,3) on difference (1,1): 2 + 3
    w = MetricParams(np.diag([2.0, 3.0]))
    assert metric_score(w, np.array([1.0, 1.0]), np.zeros(2)) == pytest.approx(5.0)


def test_metric_score_zero_on_equal_inputs():
    rng = np.random.default_rng(0)
    w = sym(rng, 3)
    x = rng.standard_normal(3)
    assert metric_score(w, x, x) == 0.0


def test_loss_zero_metric_gives_log_two():
    w = MetricParams.zeros(2)
    a, p, n = np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert logistic_triplet_loss(w, a, p, n, LossConfig(0.0)) == pytest.approx(
        math.log(2), rel=1e-15
    )


def test_loss_zero_metric_unit_margin():
    # w = 0 leaves only zeta: margin 1 >= 0 is a violation, so the loss is
    # phi(-1) = log(1 + e) = 1 + log1p(e^-1) = 1.3132616875182228
    w = MetricParams.zeros(2)
    a, p, n = np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 0.0])
    expected = 1.0 + math.log1p(math.exp(-1.0))
    assert logistic_triplet_loss(w, a, p, n, LossConfig(1.0)) == pytest.approx(
        expected, rel=1e-12
    )
    assert expected == pytest.approx(1.3132617, abs=5e-8)


def test_loss_far_negative_asymptote():
    # margin = h(0, 0) - h(0, (10, 0)) = -100 is well ordered, so the loss is
    # phi(100) = log1p(e^-100), positive but vanishing
    w = MetricParams.identity(2)
    z = np.zeros(2)
    n = np.array([10.0, 0.0])
    got = logistic_triplet_loss(w, z, z, n, LossConfig(0.0))
    assert got == pytest.approx(math.log1p(math.exp(-100.0)), rel=1e-12)
    assert got > 0.0


def test_margin_composition():
    rng = np.random.default_rng(1)
    w = sym(rng, 4)
    a, p, n = rng.standard_normal((3, 4))
    zeta = 0.7
    m = triplet_margin(w, a, p, n, LossConfig(zeta))
    assert m == pytest.approx(
        metric_score(w, a, p) - metric_score(w, a, n) + zeta, rel=1e-12
    )
    # the surrogate penalizes the 0-1 violation margin >= 0, so it is phi(-m)
    assert logistic_triplet_loss(w, a, p, n, LossConfig(zeta)) == pytest.approx(
        phi(-m), rel=1e-12
    )


def test_loss_config_rejects_negative_margin():
    with pytest.raises(ValueError):
        LossConfig(-0.1)


def test_zero_one_loss_hand_values():
    w = MetricParams.identity(2)
    a = np.zeros(2)
    p = np.array([1.0, 0.0])
    cfg = LossConfig(1.0)
    # margin 1 - 9 + 1 = -7 -> correct ordering
    assert zero_one_triplet_loss(w, a, p, np.array([3.0, 0.0]), cfg) == 0
    # margin 1 - 1 + 1 = 1 >= 0 -> violation
    assert zero_one_triplet_loss(w, a, p, np.array([1.0, 0.0]), cfg) == 1


def test_zero_one_loss_boundary_counts_as_violation():
    w = MetricParams.zeros(2)
    a = p = n = np.zeros(2)
    assert zero_one_triplet_loss(w, a, p, n, LossConfig(0.0)) == 1


# --- gradient ---


def test_gradient_hand_value():
    # w = 0: margin 0, loss phi(-m), so grad = -phi'(0) * (D+ - D-)
    # = 0.5 * (0 - dn dn^T) with dn = (1, 0), i.e. [[-0.5, 0], [0, 0]]
    w = MetricParams.zeros(2)
    a = p = np.array([1.0, 0.0])
    n = np.array([0.0, 0.0])
    g = logistic_triplet_grad(w, a, p, n, LossConfig(0.0))
    assert np.allclose(g, [[-0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(50):
        d = int(rng.integers(2, 5))
        w = sym(rng, d)
        a, p, n = rng.standard_normal((3, d)) * 0.6
        zeta = float(rng.uniform(0, 1.5))
        cfg = LossConfig(zeta)
        g = logistic_triplet_grad(w, a, p, n, cfg)

        dp, dn = a - p, a - n

        def f(arr):
            u = float(dp @ arr @ dp - dn @ arr @ dn) + zeta
            return float(phi(-u))

        num = np.zeros((d, d))
        for r in range(d):
            for c in range(d):
                e = np.zeros((d, d))
                e[r, c] = h
                num[r, c] = (f(w.w + e) - f(w.w - e)) / (2 * h)
        assert np.linalg.norm(num - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_gradient_is_symmetric():
    rng = np.random.default_rng(3)
    w = sym(rng, 3)
    a, p, n = rng.standard_normal((3, 3))
    g = logistic_triplet_grad(w, a, p, n, LossConfig(0.3))
    assert np.array_equal(g, g.T)


# --- regularity constants ---


def test_regularity_constants_at_two():
    rc = regularity_constants(2.0)
    assert rc.L == 32.0
    assert rc.alpha == 1024.0
    assert rc.eta_max == pytest.approx(1.0 / 512.0, rel=1e-15)


def test_regularity_constants_formulas():
    for B in (0.25, 0.5, 1.0, 3.0):
        rc = regularity_constants(B)
        assert rc.L == pytest.approx(8 * B**2, rel=1e-15)
        assert rc.alpha == pytest.approx(64 * B**4, rel=1e-15)
        assert rc.eta_max == pytest.approx(2 / rc.alpha, rel=1e-15)


def test_regularity_constants_rejects_nonpositive():
    with pytest.raises(NonpositiveBound):
        regularity_constants(0.0)


# --- vectorized paths ---


def test_pair_scores_matches_scalar():
    rng = np.random.default_rng(4)
    w = sym(rng, 3)
    X = rng.standard_normal((4, 3))
    Y = rng.standard_normal((5, 3))
    S = pair_scores(w.w, X, Y)
    assert S.shape == (4, 5)
    for i in range(4):
        for k in range(5):
            assert S[i, k] == pytest.approx(metric_score(w, X[i], Y[k]), rel=1e-12)


def triplet_margins_rowwise(w_arr, Xa, Xp, Xn, zeta):
    """Margins h_w(a, p) - h_w(a, n) + zeta of aligned triplets, from the row
    scores the loss kernels take them from."""
    return row_scores(w_arr, Xa, Xp) - row_scores(w_arr, Xa, Xn) + zeta


def test_rowwise_margins_match_scalar():
    rng = np.random.default_rng(5)
    w = sym(rng, 2)
    A = rng.standard_normal((6, 2))
    P = rng.standard_normal((6, 2))
    N = rng.standard_normal((6, 2))
    cfg = LossConfig(0.4)
    ms = triplet_margins_rowwise(w.w, A, P, N, cfg.zeta)
    for t in range(6):
        assert ms[t] == pytest.approx(triplet_margin(w, A[t], P[t], N[t], cfg), rel=1e-12)


def _einsum_margins(w_arr, A, P, N, zeta):
    """Row margins from the 3-operand einsum, and the magnitude of their terms."""
    def h(delta, m):
        return np.einsum("id,de,ie->i", delta, m, delta)

    dp, dn = A - P, A - N
    magnitude = h(np.abs(dp), np.abs(w_arr)) + h(np.abs(dn), np.abs(w_arr))
    return h(dp, w_arr) - h(dn, w_arr) + zeta, magnitude


def _fresh_triplets(d, m, seed):
    task = TaskConfig(d=d, n_plus=4, n_minus=4, B=0.5, separation=0.8, noise_scale=0.15, seed=seed)
    _, sampler, w_ref = low_noise_task(task)
    return sampler.draw(m), w_ref


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_rowwise_losses_match_phi_of_einsum_margins(d):
    (A, P, N), w_ref = _fresh_triplets(d, 20_000, seed=d)
    rng = np.random.default_rng(d)
    for w_arr in (w_ref.w, sym(rng, d, scale=3.0).w):
        for zeta in (0.0, 0.7):
            want, magnitude = _einsum_margins(w_arr, A, P, N, zeta)
            got = triplet_margins_rowwise(w_arr, A, P, N, zeta)
            assert np.all(np.abs(got - want) <= 1e-14 * (magnitude + zeta))
            losses = triplet_losses_rowwise(w_arr, A, P, N, zeta)
            np.testing.assert_allclose(losses, phi(-want), rtol=1e-14, atol=0.0)


def test_rowwise_losses_do_not_depend_on_the_block_size(monkeypatch):
    (A, P, N), _ = _fresh_triplets(3, 101, seed=3)
    w_arr = sym(np.random.default_rng(3), 3).w
    whole = triplet_losses_rowwise(w_arr, A, P, N, 0.2)
    for block in (70, 1):  # blocks of 23 rows, then of two (the fewest a block has)
        monkeypatch.setattr(loss_module, "BLOCK", block)
        assert np.array_equal(triplet_losses_rowwise(w_arr, A, P, N, 0.2), whole)


def test_a_lone_last_row_is_scored_as_in_a_block(monkeypatch):
    # numpy scores a one-row block's delta @ w by a matrix-vector product,
    # which at d = 8 rounds about half of these rows differently from the
    # same row inside a block; a lone last row joins the block before it
    d = 8
    monkeypatch.setattr(loss_module, "BLOCK", 4 * d)  # blocks of 4 rows
    rng = np.random.default_rng(0)
    for _ in range(40):
        A, P, N = (rng.standard_normal((9, d)) * 0.4 for _ in range(3))
        w_arr = sym(rng, d).w
        # rows 4..8 are one block of the 9-row call; row 4 would be alone in
        # the 5-row call
        whole = triplet_losses_rowwise(w_arr, A, P, N, 0.0)
        head = triplet_losses_rowwise(w_arr, A[:5], P[:5], N[:5], 0.0)
        assert np.array_equal(head, whole[:5])


# --- the triplet-tensor sweep: fused kernel and anchor blocks ---


def margin_blocks(S_pp, S_pn, zeta):
    """(start, margin tensor) of every anchor block of the sweep, in order."""
    return [
        (start, margin_block(S_pp, S_pn, zeta, start, stop))
        for start, stop in anchor_blocks(*S_pn.shape)
    ]


KERNEL_MARGINS = [0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 700.0, -700.0, 800.0, -800.0]


def test_margin_terms_match_scalar_reference():
    m = np.array(KERNEL_MARGINS)
    loss, slope, curvature = margin_terms(m.copy(), derivatives=True)
    # float64 rounding of a few operations, with an absolute floor for underflow
    tol = dict(rel=1e-14, abs=1e-300)
    for t, u in enumerate(KERNEL_MARGINS):
        assert loss[t] == pytest.approx(float(phi(-u)), **tol)
        assert slope[t] == pytest.approx(-float(phi_prime(-u)), **tol)
        assert curvature[t] == pytest.approx(float(phi_double_prime(u)), **tol)
    # the loss is phi's own sequence of operations
    assert np.array_equal(margin_terms(m.copy())[0], phi(-m))


def test_margin_terms_computes_only_what_is_asked():
    m = np.array(KERNEL_MARGINS)
    loss, slope, curvature = margin_terms(m.copy())
    assert slope is None and curvature is None
    assert np.array_equal(loss, margin_terms(m.copy(), derivatives=True)[0])


def test_excluded_triplets_contribute_nothing():
    # j = i carries margin -inf, where every term is exactly zero
    terms = margin_terms(np.array([-np.inf]), derivatives=True)
    assert [float(t[0]) for t in terms] == [0.0, 0.0, 0.0]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3, 2))
    Y = rng.standard_normal((2, 2))
    w = sym(rng, 2)
    ((start, m),) = margin_blocks(pair_scores(w.w, X, X), pair_scores(w.w, X, Y), 0.3)
    assert start == 0
    for i in range(3):
        for j in range(3):
            for k in range(2):
                if i == j:
                    assert m[i, j, k] == -np.inf
                else:
                    assert m[i, j, k] == pytest.approx(
                        triplet_margin(w, X[i], X[j], Y[k], LossConfig(0.3)), rel=1e-12
                    )


def _sweep_outputs():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, (7, 3))
    Y = rng.uniform(-1, 1, (5, 3))
    w_a, w_b = sym(rng, 3), sym(rng, 3)
    ds = TripletDataset(X, Y)
    fresh = tuple(rng.uniform(-1, 1, (4, 3)) for _ in range(3))
    blocks = margin_blocks(pair_scores(w_a.w, X, X), pair_scores(w_a.w, X, Y), 0.2)
    starts = [start for start, _ in blocks]
    return starts, {
        "exact": exact_mean_loss(w_a.w, X, Y, 0.2),
        "parts": _risk_parts(w_a.w, X, Y, 0.2),
        "probe": probe_max_loss_diff(w_a, w_b, ds, fresh, LossConfig(0.2)),
    }


def test_sweeps_do_not_depend_on_the_block_size(monkeypatch):
    starts, whole = _sweep_outputs()
    assert starts == [0]
    # 7 anchors x 5 negatives: blocks of 2, 2, 2 and 1 anchors, then of one anchor
    for block, expected in ((70, [0, 2, 4, 6]), (1, list(range(7)))):
        monkeypatch.setattr(loss_module, "BLOCK", block)
        starts, split = _sweep_outputs()
        assert starts == expected
        assert split["exact"] == pytest.approx(whole["exact"], rel=1e-12)
        for got, want in zip(split["parts"], whole["parts"]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert split["probe"] == pytest.approx(whole["probe"], rel=1e-12)


# --- the factored sweep, against the margin form as its oracle ---


def _all_sweeps(X, Y, w_a, w_b, zeta, fresh):
    ds = TripletDataset(X, Y)
    return (
        exact_mean_loss(w_a.w, X, Y, zeta),
        _risk_parts(w_a.w, X, Y, zeta),
        probe_max_loss_diff(w_a, w_b, ds, fresh, LossConfig(zeta)),
    )


def _assert_close_to_oracle(got, want, risk_rel, entry_rel):
    (risk, parts, probe), (risk_o, parts_o, probe_o) = got, want
    assert risk == pytest.approx(risk_o, rel=risk_rel, abs=0.0)
    assert parts[0] == pytest.approx(parts_o[0], rel=risk_rel, abs=0.0)
    for g, g_o in zip(parts[1:], parts_o[1:]):  # gradient, Hessian
        assert np.abs(g - g_o).max() <= entry_rel * np.abs(g_o).max()
    assert probe == pytest.approx(probe_o, rel=risk_rel, abs=0.0)


@pytest.mark.parametrize("block", [1, 70, loss_module.BLOCK])
@pytest.mark.parametrize("zeta", [0.0, 0.3])
@pytest.mark.parametrize(
    "n_plus, n_minus, d", [(2, 1, 3), (7, 5, 3), (128, 128, 3), (64, 64, 10), (300, 40, 2)]
)
def test_factored_sweeps_match_the_margin_form(monkeypatch, n_plus, n_minus, d, zeta, block):
    rng = np.random.default_rng(n_plus + 1000 * d)
    X = rng.uniform(-1, 1, (n_plus, d))
    Y = rng.uniform(-1, 1, (n_minus, d))
    w_a, w_b = sym(rng, d), sym(rng, d)
    fresh = tuple(rng.uniform(-1, 1, (50, d)) for _ in range(3))
    monkeypatch.setattr(loss_module, "BLOCK", block)
    factored = _all_sweeps(X, Y, w_a, w_b, zeta, fresh)
    monkeypatch.setattr(loss_module, "MAX_FACTORED_MARGIN", -np.inf)
    oracle = _all_sweeps(X, Y, w_a, w_b, zeta, fresh)
    _assert_close_to_oracle(factored, oracle, risk_rel=1e-14, entry_rel=1e-13)


def _blocks(S_pp, S_pn, zeta):
    return triplet_sweep(
        [(S_pp, S_pn)],
        zeta,
        lambda start, terms: (start, *(t.copy() for t in terms)),
        derivatives=True,
    )


def test_factored_sweep_gives_exact_zeros_on_excluded_triplets():
    rng = np.random.default_rng(9)
    X, Y, w = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (4, 3)), sym(rng, 3)
    S_pp, S_pn = pair_scores(w.w, X, X), pair_scores(w.w, X, Y)
    for start, *terms in _blocks(S_pp, S_pn, 0.3):
        anchors = np.arange(terms[0].shape[0])
        for t in terms:
            assert np.all(t[anchors, start + anchors] == 0.0)
            t[anchors, start + anchors] = 1.0
            assert np.all(t > 0.0)


def test_factored_sweep_shifts_each_anchor(monkeypatch):
    # points at near-equal mutual distances under a large metric: every pair
    # score is about 800 (exp of it overflows) while the margins stay within a few units
    rng = np.random.default_rng(10)
    points = np.sqrt(0.5) * np.eye(10) + 1e-3 * rng.standard_normal((10, 10))
    X, Y = points[:6], points[6:]
    w = MetricParams.identity(10, 800.0)
    S_pp, S_pn = pair_scores(w.w, X, X), pair_scores(w.w, X, Y)
    assert S_pn.min() > 709.0 and np.abs(S_pp - np.diag(np.diag(S_pp))).max() > 709.0
    fresh = tuple(points[[0, 1, 2]] for _ in range(3))
    w_b = MetricParams.identity(10, 790.0)
    factored = _all_sweeps(X, Y, w, w_b, 0.3, fresh)
    for part in (factored[0], *factored[1], *factored[2]):
        assert np.all(np.isfinite(part))
    monkeypatch.setattr(loss_module, "MAX_FACTORED_MARGIN", -np.inf)
    oracle = _all_sweeps(X, Y, w, w_b, 0.3, fresh)
    _assert_close_to_oracle(factored, oracle, risk_rel=1e-13, entry_rel=1e-12)


def _scores_with_largest_margin(target):
    rng = np.random.default_rng(11)
    X, Y, w = rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (3, 2)), MetricParams.identity(2)
    S_pp, S_pn = pair_scores(w.w, X, X), pair_scores(w.w, X, Y)
    off = ~np.eye(4, dtype=bool)
    hi = float((S_pp.max(axis=1, initial=-np.inf, where=off) - S_pn.min(axis=1)).max())
    return S_pp * (target / hi), S_pn * (target / hi)


def test_sweep_above_the_switch_is_the_margin_form_bit_for_bit():
    S_pp, S_pn = _scores_with_largest_margin(700.5)
    got = _blocks(S_pp, S_pn, 0.0)
    want = [
        (start, *margin_terms(m, derivatives=True))
        for start, m in margin_blocks(S_pp, S_pn, 0.0)
    ]
    assert len(got) == len(want)
    for (start, *terms), (start_o, *terms_o) in zip(got, want):
        assert start == start_o
        for t, t_o in zip(terms, terms_o):
            assert t.tobytes() == t_o.tobytes()


def test_sweep_just_below_the_switch_stays_finite_and_accurate():
    S_pp, S_pn = _scores_with_largest_margin(699.5)
    got = _blocks(S_pp, S_pn, 0.0)
    want = [
        (start, *margin_terms(m, derivatives=True))
        for start, m in margin_blocks(S_pp, S_pn, 0.0)
    ]
    assert max(float(t[1].max()) for t in got) == pytest.approx(699.5, rel=1e-15)
    for (start, *terms), (_, *terms_o) in zip(got, want):
        for t, t_o in zip(terms, terms_o):
            assert np.all(np.isfinite(t))
            np.testing.assert_allclose(t, t_o, rtol=1e-13, atol=0.0)


# --- CSV round trip ---


def test_metric_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    w = sym(rng, 4)
    path = tmp_path / "w.csv"
    write_metric_csv(w, path)
    back = read_metric_csv(path)
    assert np.array_equal(back.w, w.w)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot open"),
        ("0.1,0.2\n0.2,x\n", "malformed matrix file"),
        ("0.1,0.2\n0.2\n", "expected square"),
    ],
    ids=["missing", "non-numeric", "ragged"],
)
def test_read_metric_csv_names_the_file_in_a_validation_error(tmp_path, text, message):
    path = tmp_path / "w.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValidationError, match=message) as info:
        read_metric_csv(path)
    assert str(path) in str(info.value)
