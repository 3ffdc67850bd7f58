"""Data model for triplet training sets.

A training set is two read-only float64 arrays, the positive rows (n_plus, d)
and the negative rows (n_minus, d), with an integer label per row. Slot
identity is positional: the stability protocols replace "the sample at slot
m", which is row m of its pool, so row order is semantic. A dataset copies
and validates its rows once, when it is built, and never changes after;
replace_samples builds a new one with some rows swapped.
"""
from __future__ import annotations

import csv
import re
import typing
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from operator import attrgetter
from typing import Sequence

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


class Pool(Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"


POSITIVE_LABEL = 1
NEGATIVE_LABEL = 0


@dataclass(frozen=True)
class SlotRef:
    """Positional reference to one sample: (pool, index within that pool)."""

    pool: Pool
    index: int


def read_only_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr, which owns its data and is held by no one else:
    numpy refuses to make a view writeable when its base is read-only."""
    arr.setflags(write=False)
    return arr.view()


def _pool(rows, labels, pool: Pool, default_label: int):
    """(rows, labels) of one pool: a read-only float64 copy of the rows, which
    must form an (n, d) array unless there are none, and a tuple of n integer
    labels, default_label for each when labels is None."""
    name = pool.name.lower()
    try:
        arr = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name} features are not an (n, d) array: {exc}") from exc
    if arr.ndim != 2 and arr.size:
        raise DimensionMismatch(f"{name} features must be an (n, d) array, got shape {arr.shape}")
    labels = (default_label,) * len(arr) if labels is None else tuple(int(v) for v in labels)
    if len(labels) != len(arr):
        raise DimensionMismatch(f"{len(labels)} {name} labels for {len(arr)} rows")
    return read_only_view(arr), labels


@dataclass(frozen=True, eq=False)
class TripletDataset:
    """Immutable training set: n_plus positive and n_minus negative feature
    rows in R^d, with one integer label per row.

    positives (n_plus, d) and negatives (n_minus, d) are read-only float64
    copies of the rows given, and row m of a pool is its slot m. Validated at
    construction: at least 2 positives (the risk averages over pairs i != j),
    at least 1 negative, d >= 1 in both pools, every feature finite. Labels
    default to POSITIVE_LABEL and NEGATIVE_LABEL.
    """

    positives: np.ndarray
    negatives: np.ndarray
    positive_labels: tuple = None
    negative_labels: tuple = None

    def __post_init__(self):
        pos, pos_labels = _pool(self.positives, self.positive_labels, Pool.POSITIVE, POSITIVE_LABEL)
        neg, neg_labels = _pool(self.negatives, self.negative_labels, Pool.NEGATIVE, NEGATIVE_LABEL)
        if len(pos) < 2:
            raise TooFewPositives(
                "need at least 2 positive samples (the risk averages over i != j), "
                f"got {len(pos)}"
            )
        if len(neg) < 1:
            raise EmptyNegatives("need at least 1 negative sample")
        if pos.shape[1] < 1 or neg.shape[1] != pos.shape[1]:
            raise DimensionMismatch(
                f"positives have dimension {pos.shape[1]} and negatives {neg.shape[1]}; "
                "both must be the same d >= 1"
            )
        if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
            raise ValidationError("features must be finite")
        for name, value in zip(
            ("positives", "negatives", "positive_labels", "negative_labels"),
            (pos, neg, pos_labels, neg_labels),
        ):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.positives.shape[1]

    @property
    def n_plus(self) -> int:
        return self.positives.shape[0]

    @property
    def n_minus(self) -> int:
        return self.negatives.shape[0]

    @property
    def n_triplets(self) -> int:
        return self.n_plus * (self.n_plus - 1) * self.n_minus

    @property
    def positive_features(self) -> np.ndarray:
        """The (n_plus, d) positive rows, row order = slot order."""
        return self.positives

    @property
    def negative_features(self) -> np.ndarray:
        return self.negatives

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripletDataset):
            return NotImplemented
        return (
            np.array_equal(self.positives, other.positives)
            and np.array_equal(self.negatives, other.negatives)
            and self.positive_labels == other.positive_labels
            and self.negative_labels == other.negative_labels
        )


def replace_samples(
    dataset: TripletDataset, replacements: Sequence[tuple]
) -> TripletDataset:
    """Return a new dataset equal to `dataset` except at the listed slots.

    `replacements` is a list of (SlotRef, row) pairs, each row a length-d
    feature vector copied into its slot; slots must be pairwise distinct, and
    a replaced slot keeps its label. The input dataset is unchanged.
    """
    rows = {Pool.POSITIVE: dataset.positives.copy(), Pool.NEGATIVE: dataset.negatives.copy()}
    seen = set()
    for ref, row in replacements:
        key = (ref.pool, ref.index)
        if key in seen:
            raise DuplicateSlot(f"slot {ref.pool.value}:{ref.index} replaced twice")
        seen.add(key)
        target = rows[ref.pool]
        if not (0 <= ref.index < len(target)):
            raise SlotOutOfBounds(
                f"slot {ref.pool.value}:{ref.index} out of bounds "
                f"(n_plus={dataset.n_plus}, n_minus={dataset.n_minus})"
            )
        if np.shape(row) != (dataset.d,):
            raise DimensionMismatch(
                f"replacement row has shape {np.shape(row)}, expected ({dataset.d},)"
            )
        target[ref.index] = row
    return TripletDataset(
        rows[Pool.POSITIVE],
        rows[Pool.NEGATIVE],
        dataset.positive_labels,
        dataset.negative_labels,
    )


def feature_bound(dataset: TripletDataset) -> float:
    """Max Euclidean norm over every feature vector in both pools."""
    pos_norms = np.linalg.norm(dataset.positive_features, axis=1)
    neg_norms = np.linalg.norm(dataset.negative_features, axis=1)
    return float(max(pos_norms.max(), neg_norms.max()))


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, Enum):
        return value.value
    return value


def write_csv(path, header, rows) -> None:
    """Write `rows` under `header` (None writes no header row) in the one cell
    format of every CSV the package writes: a float, numpy's included, as
    repr(float(v)), so it reads back bit for bit; a bool, numpy's included,
    as 0 or 1; an Enum as its value; None as an empty cell; anything else as
    csv writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _columns(record_type) -> list:
    """(name, attribute path) of each column of a dataclass record type: its
    fields in order, but those whose metadata sets column=False, a nested
    dataclass field as its own columns named <field>_<subfield>; then the
    properties the type lists in derived_columns."""
    hints = typing.get_type_hints(record_type)
    columns = []
    for f in fields(record_type):
        hint = hints[f.name]
        if not f.metadata.get("column", True):
            continue
        if is_dataclass(hint):
            columns += [(f"{f.name}_{name}", f"{f.name}.{path}") for name, path in _columns(hint)]
        else:
            columns.append((f.name, f.name))
    return columns + [(name, name) for name in getattr(record_type, "derived_columns", ())]


def write_records(path, record_type, records, lead=None, trail=None) -> None:
    """Write one row per record, each an instance of the dataclass
    record_type, through write_csv: the keys of the mapping `lead`, then the
    columns of record_type (_columns), then the keys of `trail`; lead and
    trail hold values that every row shares, such as a sweep's algorithm."""
    lead, trail = dict(lead or {}), dict(trail or {})
    names, paths = zip(*_columns(record_type))
    getters = [attrgetter(path) for path in paths]
    write_csv(
        path,
        [*lead, *names, *trail],
        ([*lead.values(), *(get(r) for get in getters), *trail.values()] for r in records),
    )


def write_dataset_csv(dataset: TripletDataset, path) -> None:
    """Write `pool,label,f0..f{d-1}` rows; positives first, then negatives.

    Row order within each pool is the slot order, so a round trip preserves
    slot identity.
    """
    write_csv(
        path,
        ["pool", "label"] + [f"f{a}" for a in range(dataset.d)],
        (
            [pool.value, label, *row]
            for pool, labels, rows in (
                (Pool.POSITIVE, dataset.positive_labels, dataset.positives),
                (Pool.NEGATIVE, dataset.negative_labels, dataset.negatives),
            )
            for label, row in zip(labels, rows.tolist())
        ),
    )


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """The integer a token of the form [+-]?[0-9]+ (fullmatch) spells; any
    other token raises ValueError, also those int() accepts, such as "1_0"
    (digit separators), " 1" or non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def open_input_csv(path):
    """Open a CSV input file for reading; one that cannot be opened (missing,
    a directory, unreadable) raises ValidationError naming it."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot open: {exc.strerror}") from exc


def read_dataset_csv(path) -> TripletDataset:
    """Load a dataset written by write_dataset_csv. Rows may interleave pools;
    slot index within each pool follows row order."""
    rows = {Pool.POSITIVE: [], Pool.NEGATIVE: []}
    labels = {Pool.POSITIVE: [], Pool.NEGATIVE: []}
    with open_input_csv(path) as fh:
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
                label, features = parse_int(row[1]), [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValidationError(f"{path}: malformed row {row!r}: {exc}") from exc
            try:
                pool = Pool(row[0])
            except ValueError:
                raise ValidationError(f"{path}: unknown pool tag {row[0]!r}") from None
            rows[pool].append(features)
            labels[pool].append(label)
    return TripletDataset(
        np.reshape(rows[Pool.POSITIVE], (-1, d)),
        np.reshape(rows[Pool.NEGATIVE], (-1, d)),
        labels[Pool.POSITIVE],
        labels[Pool.NEGATIVE],
    )
