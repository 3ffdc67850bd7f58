"""Data model for triplet training sets.

A training set holds an ordered pool of positive samples and an ordered pool
of negative samples. Slot identity is positional: the stability protocols
replace "the sample at slot m", so list order is semantic and datasets are
immutable once built.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np


class ValidationError(ValueError):
    """Base class for contract violations raised by this package."""


class DimensionMismatch(ValidationError):
    pass


class TooFewPositives(ValidationError):
    pass


class EmptyNegatives(ValidationError):
    pass


class SlotOutOfBounds(ValidationError):
    pass


class DuplicateSlot(ValidationError):
    pass


class PoolMismatch(ValidationError):
    pass


class Pool(Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"


def _frozen_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise DimensionMismatch(f"features must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatch("features must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("features must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Sample:
    """One labeled feature vector, tagged with the pool it belongs to."""

    features: np.ndarray
    label: int
    pool: Pool

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen_vector(self.features))
        object.__setattr__(self, "label", int(self.label))
        if not isinstance(self.pool, Pool):
            raise PoolMismatch(f"pool must be a Pool enum, got {self.pool!r}")

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.pool is other.pool
            and self.label == other.label
            and np.array_equal(self.features, other.features)
        )

    def __repr__(self) -> str:
        return f"Sample({self.features.tolist()}, label={self.label}, pool={self.pool.value})"


@dataclass(frozen=True)
class TripletIndex:
    """One summand (i, j, k) of the U-statistic risk: i, j index positives (i != j), k negatives."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValidationError(f"triplet requires i != j, got i = j = {self.i}")


@dataclass(frozen=True)
class SlotRef:
    """Positional reference to one sample: (pool, index within that pool)."""

    pool: Pool
    index: int


@dataclass(frozen=True, eq=False)
class TripletDataset:
    """Immutable training set of n_plus positives and n_minus negatives in R^d."""

    positives: tuple
    negatives: tuple
    d: int

    @property
    def n_plus(self) -> int:
        return len(self.positives)

    @property
    def n_minus(self) -> int:
        return len(self.negatives)

    @property
    def n_triplets(self) -> int:
        return self.n_plus * (self.n_plus - 1) * self.n_minus

    @property
    def positive_features(self) -> np.ndarray:
        """Stacked (n_plus, d) feature matrix, row order = slot order."""
        return np.stack([s.features for s in self.positives])

    @property
    def negative_features(self) -> np.ndarray:
        return np.stack([s.features for s in self.negatives])

    def slot(self, ref: SlotRef) -> Sample:
        pool = self.positives if ref.pool is Pool.POSITIVE else self.negatives
        if not (0 <= ref.index < len(pool)):
            raise SlotOutOfBounds(
                f"slot {ref.pool.value}:{ref.index} out of bounds "
                f"(n_plus={self.n_plus}, n_minus={self.n_minus})"
            )
        return pool[ref.index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripletDataset):
            return NotImplemented
        return (
            self.d == other.d
            and self.positives == other.positives
            and self.negatives == other.negatives
        )


def make_dataset(positives: Sequence[Sample], negatives: Sequence[Sample]) -> TripletDataset:
    """Validate and freeze a training set. Input order defines slot identity."""
    positives = tuple(positives)
    negatives = tuple(negatives)
    if len(positives) < 2:
        raise TooFewPositives(
            f"need at least 2 positive samples (the risk averages over i != j), got {len(positives)}"
        )
    if len(negatives) < 1:
        raise EmptyNegatives("need at least 1 negative sample")
    d = positives[0].dim
    for s in positives:
        if s.pool is not Pool.POSITIVE:
            raise PoolMismatch("sample in the positive list is not tagged Positive")
        if s.dim != d:
            raise DimensionMismatch(f"positive sample has dimension {s.dim}, expected {d}")
    for s in negatives:
        if s.pool is not Pool.NEGATIVE:
            raise PoolMismatch("sample in the negative list is not tagged Negative")
        if s.dim != d:
            raise DimensionMismatch(f"negative sample has dimension {s.dim}, expected {d}")
    return TripletDataset(positives=positives, negatives=negatives, d=d)


def replace_samples(
    dataset: TripletDataset, replacements: Sequence[tuple]
) -> TripletDataset:
    """Return a new dataset equal to `dataset` except at the listed slots.

    `replacements` is a list of (SlotRef, Sample) pairs; slots must be pairwise
    distinct and each replacement must match the slot's pool and the dataset
    dimension. The input dataset is unchanged.
    """
    pos = list(dataset.positives)
    neg = list(dataset.negatives)
    seen = set()
    for ref, sample in replacements:
        key = (ref.pool, ref.index)
        if key in seen:
            raise DuplicateSlot(f"slot {ref.pool.value}:{ref.index} replaced twice")
        seen.add(key)
        if sample.pool is not ref.pool:
            raise PoolMismatch(
                f"replacement tagged {sample.pool.value} for slot in pool {ref.pool.value}"
            )
        if sample.dim != dataset.d:
            raise DimensionMismatch(
                f"replacement has dimension {sample.dim}, dataset has {dataset.d}"
            )
        target = pos if ref.pool is Pool.POSITIVE else neg
        if not (0 <= ref.index < len(target)):
            raise SlotOutOfBounds(
                f"slot {ref.pool.value}:{ref.index} out of bounds "
                f"(n_plus={dataset.n_plus}, n_minus={dataset.n_minus})"
            )
        target[ref.index] = sample
    return TripletDataset(positives=tuple(pos), negatives=tuple(neg), d=dataset.d)


def enumerate_triplets(dataset: TripletDataset) -> Iterator[TripletIndex]:
    """Yield all n_plus*(n_plus-1)*n_minus valid triplets in lexicographic (i, j, k) order."""
    n_plus, n_minus = dataset.n_plus, dataset.n_minus
    for i in range(n_plus):
        for j in range(n_plus):
            if j == i:
                continue
            for k in range(n_minus):
                yield TripletIndex(i, j, k)


def feature_bound(dataset: TripletDataset) -> float:
    """Max Euclidean norm over every feature vector in both pools."""
    pos_norms = np.linalg.norm(dataset.positive_features, axis=1)
    neg_norms = np.linalg.norm(dataset.negative_features, axis=1)
    return float(max(pos_norms.max(), neg_norms.max()))


def write_dataset_csv(dataset: TripletDataset, path) -> None:
    """Write `pool,label,f0..f{d-1}` rows; positives first, then negatives.

    Row order within each pool is the slot order, so a round trip preserves
    slot identity.
    """
    header = ["pool", "label"] + [f"f{a}" for a in range(dataset.d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for sample in dataset.positives + dataset.negatives:
            writer.writerow(
                [sample.pool.value, sample.label] + [repr(float(v)) for v in sample.features]
            )


def read_dataset_csv(path) -> TripletDataset:
    """Load a dataset written by write_dataset_csv. Rows may interleave pools;
    slot index within each pool follows row order."""
    positives = []
    negatives = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["pool", "label"]:
            raise ValidationError(f"{path}: expected header starting with pool,label")
        d = len(header) - 2
        if d < 1:
            raise ValidationError(f"{path}: no feature columns in header")
        for row in reader:
            if not row:
                continue
            if len(row) != d + 2:
                raise ValidationError(f"{path}: row has {len(row)} fields, expected {d + 2}")
            try:
                tag, label, features = row[0], int(row[1]), [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValidationError(f"{path}: malformed row {row!r}: {exc}") from exc
            if tag == Pool.POSITIVE.value:
                positives.append(Sample(features, label, Pool.POSITIVE))
            elif tag == Pool.NEGATIVE.value:
                negatives.append(Sample(features, label, Pool.NEGATIVE))
            else:
                raise ValidationError(f"{path}: unknown pool tag {tag!r}")
    return make_dataset(positives, negatives)
