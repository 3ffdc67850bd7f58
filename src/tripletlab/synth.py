"""Synthetic two-pool Gaussian tasks with a hard feature-norm cap.

Positives are drawn i.i.d. from an isotropic Gaussian at +(separation/2) e1,
negatives at -(separation/2) e1, both with standard deviation noise_scale per
coordinate. Any draw whose Euclidean norm exceeds B is radially rescaled onto
the B-sphere, so feature_bound(dataset) <= B always holds by construction
(rescaling keeps generation O(n) and deterministic; the regularity constants
only need the cap, not exact Gaussianity).

A task is a (train, sampler) pair: a frozen training set plus an unlimited
stream of fresh i.i.d. triplets from the same law, for population-risk
estimates and stability probes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loss
from .core import TripletDataset, ValidationError
from .loss import MetricParams


class InvalidConfig(ValidationError):
    pass


@dataclass(frozen=True)
class TaskConfig:
    """Shape of one synthetic task.

    d: feature dimension; n_plus / n_minus: pool sizes of the training set;
    B: hard cap on every feature norm; separation: distance between the two
    pool means; noise_scale: per-coordinate standard deviation within a pool;
    seed: nonnegative 64-bit integer driving all draws.
    """

    d: int
    n_plus: int
    n_minus: int
    B: float = 1.0
    separation: float = 1.0
    noise_scale: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise InvalidConfig(f"d must be >= 1, got {self.d}")
        if self.n_plus < 2:
            raise InvalidConfig(f"n_plus must be >= 2, got {self.n_plus}")
        if self.n_minus < 1:
            raise InvalidConfig(f"n_minus must be >= 1, got {self.n_minus}")
        if not (self.B > 0) or not np.isfinite(self.B):
            raise InvalidConfig(f"B must be positive and finite, got {self.B}")
        if self.separation < 0 or not np.isfinite(self.separation):
            raise InvalidConfig(f"separation must be >= 0, got {self.separation}")
        if self.noise_scale < 0 or not np.isfinite(self.noise_scale):
            raise InvalidConfig(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidConfig(f"seed must be a nonnegative 64-bit integer, got {self.seed}")


def _pool_means(cfg: TaskConfig):
    mu_plus = np.zeros(cfg.d)
    mu_plus[0] = cfg.separation / 2.0
    return mu_plus, -mu_plus


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Row sums of squares, added in np.linalg.norm's order: below 8 columns
    numpy's row sum runs left to right, as this column loop does without a
    per-row reduction; from 8 columns on its pairwise row sum is used as is."""
    if rows.shape[1] >= 8:
        return np.square(rows).sum(axis=1)
    sq = np.square(rows[:, 0])
    for col in range(1, rows.shape[1]):
        sq += np.square(rows[:, col])
    return sq


def _fill_rows(rng: np.random.Generator, block: np.ndarray, mu, noise_scale, B) -> np.ndarray:
    """Fill the rows of `block` with mu + noise_scale * z (z standard normal),
    each rescaled onto the B-sphere when its norm exceeds B; returns `block`.

    Multiplying every row by min(B / norm, 1) is that rescaling exactly:
    B / norm >= 1 precisely when norm <= B, and x * 1.0 = x.
    """
    rng.standard_normal(out=block)
    block *= noise_scale
    block += mu
    factor = np.sqrt(_squared_norms(block))
    with np.errstate(divide="ignore"):  # a zero row gives B / 0 = inf, so factor 1
        np.divide(B, factor, out=factor)
    block *= np.minimum(factor, 1.0, out=factor)[:, None]
    return block


def _draw_pool(rng: np.random.Generator, mu, noise_scale, B, m, d, out=None) -> np.ndarray:
    """m rows of the pool law (see _fill_rows), filled in blocks of loss.BLOCK
    doubles so each block's temporaries stay in cache, into out (m, d) when
    given.

    The generator yields the same numbers in the same order as one (m, d)
    draw, and every operation is the unblocked one, row by row, so draws and
    generator state are bit-identical for any block size.
    """
    if out is None:
        out = np.empty((m, d))
    step = max(1, loss.BLOCK // d)
    for start in range(0, m, step):
        _fill_rows(rng, out[start : start + step], mu, noise_scale, B)
    return out


def _pool_blocks(rng: np.random.Generator, mu, noise_scale, B, m, d):
    """Yield the m rows of _draw_pool in its own row blocks, each filled into
    one reused buffer: a block is overwritten by the next one.

    Drawn lazily, so the generator has made all of _draw_pool's draws, and
    sits where _draw_pool leaves it, only once every block has been taken.
    """
    step = max(1, loss.BLOCK // d)
    buf = np.empty((min(step, m), d))
    for start in range(0, m, step):
        yield _fill_rows(rng, buf[: min(step, m - start)], mu, noise_scale, B)


class TripletSampler:
    """Deterministic stream of fresh i.i.d. samples and triplets for one task.

    Anchor and second positive are independent draws from the positive law,
    the negative from the negative law. fork() spawns a sampler with an
    independent sub-stream (safe to consume concurrently with the parent);
    spawn_generator() hands out an independent plain Generator for auxiliary
    randomness (slot choices and the like) without touching the draw stream.
    """

    def __init__(self, mu_plus, mu_minus, noise_scale, B, seq: np.random.SeedSequence):
        self.mu_plus = np.array(mu_plus, dtype=np.float64)
        self.mu_minus = np.array(mu_minus, dtype=np.float64)
        self.noise_scale = float(noise_scale)
        self.B = float(B)
        self._seq = seq
        self._rng = np.random.default_rng(seq)

    @property
    def d(self) -> int:
        return self.mu_plus.shape[0]

    def draw_positive(self, m: int, out=None) -> np.ndarray:
        """m fresh positive rows, (m, d), drawn into out when given."""
        return _draw_pool(self._rng, self.mu_plus, self.noise_scale, self.B, m, self.d, out)

    def draw_negative(self, m: int) -> np.ndarray:
        return _draw_pool(self._rng, self.mu_minus, self.noise_scale, self.B, m, self.d)

    def positive_blocks(self, m: int):
        """draw_positive(m) as row blocks in one reused buffer (see _pool_blocks)."""
        return _pool_blocks(self._rng, self.mu_plus, self.noise_scale, self.B, m, self.d)

    def negative_blocks(self, m: int):
        """draw_negative(m) as row blocks in one reused buffer (see _pool_blocks)."""
        return _pool_blocks(self._rng, self.mu_minus, self.noise_scale, self.B, m, self.d)

    def draw(self, m: int):
        """m fresh triplets: (anchors, positives, negatives), each (m, d)."""
        anchors = self.draw_positive(m)
        positives = self.draw_positive(m)
        negatives = self.draw_negative(m)
        return anchors, positives, negatives

    def positive_sample(self) -> np.ndarray:
        """One fresh positive row, (d,)."""
        return self.draw_positive(1)[0]

    def negative_sample(self) -> np.ndarray:
        """One fresh negative row, (d,)."""
        return self.draw_negative(1)[0]

    def draw_dataset(self, n_plus: int, n_minus: int) -> TripletDataset:
        """A fresh training set from this stream (slot order = draw order)."""
        return TripletDataset(self.draw_positive(n_plus), self.draw_negative(n_minus))

    def fork(self) -> "TripletSampler":
        child = self._seq.spawn(1)[0]
        return TripletSampler(self.mu_plus, self.mu_minus, self.noise_scale, self.B, child)

    def spawn_generator(self) -> np.random.Generator:
        return np.random.default_rng(self._seq.spawn(1)[0])


def _task_streams(config: TaskConfig):
    """The seed's two disjoint sub-streams: (training set, sampler)."""
    return np.random.SeedSequence(int(config.seed)).spawn(2)


def task_sampler(config: TaskConfig) -> TripletSampler:
    """The sampler of gen_task(config), without drawing its training set."""
    mu_plus, mu_minus = _pool_means(config)
    stream = _task_streams(config)[1]
    return TripletSampler(mu_plus, mu_minus, config.noise_scale, config.B, stream)


def gen_task(config: TaskConfig):
    """Generate (train, sampler) for a config; bit-identical on repeat calls.

    The training set and the sampler consume disjoint sub-streams of the seed,
    so drawing from the sampler never perturbs the training set.
    """
    mu_plus, mu_minus = _pool_means(config)
    rng = np.random.default_rng(_task_streams(config)[0])
    pos_rows = _draw_pool(rng, mu_plus, config.noise_scale, config.B, config.n_plus, config.d)
    neg_rows = _draw_pool(rng, mu_minus, config.noise_scale, config.B, config.n_minus, config.d)
    return TripletDataset(pos_rows, neg_rows), task_sampler(config)


def low_noise_task(config: TaskConfig):
    """gen_task plus a reference metric w_ref that nearly separates the pools.

    w_ref = (4 / separation^2) I. Between-pool squared distances concentrate
    around separation^2 and within-pool ones around 2 d noise_scale^2, so at
    small noise the triplet margin under w_ref sits near -4 and the violation
    rate (margin >= 0 at zeta = 0) is tiny. A triplet at margin -4 costs
    phi(4) = log(1 + e^-4) ~ 0.018; the margins spread around -4, so the
    measured risk is larger (about 0.09 at d=3, B=0.5, separation=0.8,
    noise_scale=0.15), a stand-in for an attainable-low-risk regime.
    """
    if not (config.separation > 0):
        raise InvalidConfig("low_noise_task needs separation > 0")
    train, sampler = gen_task(config)
    w_ref = MetricParams.identity(config.d, scale=4.0 / config.separation**2)
    return train, sampler, w_ref
