import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripletlab.core import (
    DimensionMismatch,
    DuplicateSlot,
    EmptyNegatives,
    Pool,
    PoolMismatch,
    Sample,
    SlotOutOfBounds,
    SlotRef,
    TooFewPositives,
    TripletDataset,
    TripletIndex,
    ValidationError,
    enumerate_triplets,
    feature_bound,
    make_dataset,
    parse_int,
    read_dataset_csv,
    replace_samples,
    write_dataset_csv,
)


def pos(*features):
    return Sample(np.array(features, dtype=float), 1, Pool.POSITIVE)


def neg(*features):
    return Sample(np.array(features, dtype=float), 0, Pool.NEGATIVE)


def small_dataset():
    return make_dataset(
        [pos(1.0, 0.0), pos(0.5, 0.5), pos(0.0, 1.0)],
        [neg(-1.0, 0.0), neg(0.0, -1.0)],
    )


def test_sample_features_frozen():
    s = pos(1.0, 2.0)
    with pytest.raises(ValueError):
        s.features[0] = 99.0


def test_sample_rejects_matrix_features():
    with pytest.raises(DimensionMismatch):
        Sample(np.ones((2, 2)), 1, Pool.POSITIVE)


def test_sample_rejects_nan():
    with pytest.raises(ValidationError):
        Sample(np.array([1.0, np.nan]), 1, Pool.POSITIVE)


def test_sample_equality_is_by_value():
    assert pos(1.0, 2.0) == pos(1.0, 2.0)
    assert pos(1.0, 2.0) != pos(1.0, 2.1)
    assert pos(1.0, 2.0) != neg(1.0, 2.0)


def test_triplet_index_rejects_equal_pair():
    with pytest.raises(ValidationError):
        TripletIndex(2, 2, 0)


def test_make_dataset_counts():
    ds = small_dataset()
    assert ds.n_plus == 3
    assert ds.n_minus == 2
    assert ds.d == 2
    assert ds.n_triplets == 3 * 2 * 2


def test_triplet_count_formula():
    # n+ * (n+ - 1) * n- at the documented sizes
    ds = make_dataset([pos(float(i)) for i in range(100)], [neg(float(k)) for k in range(50)])
    assert ds.n_triplets == 495000


def test_make_dataset_needs_two_positives():
    with pytest.raises(TooFewPositives):
        make_dataset([pos(1.0)], [neg(0.0)])


def test_make_dataset_needs_a_negative():
    with pytest.raises(EmptyNegatives):
        make_dataset([pos(1.0), pos(2.0)], [])


def test_make_dataset_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        make_dataset([pos(1.0), pos(1.0, 2.0)], [neg(0.0)])


def test_make_dataset_rejects_wrong_pool_tag():
    with pytest.raises(PoolMismatch):
        make_dataset([pos(1.0), neg(2.0)], [neg(0.0)])


def test_dataset_built_directly_needs_two_positives():
    # without the check, empirical_risk divided by n+ (n+ - 1) n- = 0
    with pytest.raises(TooFewPositives):
        TripletDataset((pos(0.5, 0.0),), (neg(0.0, 0.0),), 2)


@pytest.mark.parametrize(
    "positives, negatives, d, error",
    [
        ((pos(1.0), pos(2.0)), (), 1, EmptyNegatives),
        ((pos(1.0), pos(2.0)), (neg(0.0),), 2, DimensionMismatch),
        ((pos(1.0), pos(2.0, 0.0)), (neg(0.0),), 1, DimensionMismatch),
        ((pos(1.0), pos(2.0)), (neg(0.0, 1.0),), 1, DimensionMismatch),
        ((pos(1.0), neg(2.0)), (neg(0.0),), 1, PoolMismatch),
        ((pos(1.0), pos(2.0)), (pos(0.0),), 1, PoolMismatch),
    ],
    ids=["no negative", "d", "positive dim", "negative dim", "positive tag", "negative tag"],
)
def test_dataset_built_directly_is_validated(positives, negatives, d, error):
    with pytest.raises(error):
        TripletDataset(positives, negatives, d)


@pytest.mark.parametrize("token", ["0", "7", "-12", "+3", "007"])
def test_parse_int_accepts_decimal_integers(token):
    assert parse_int(token) == int(token)


@pytest.mark.parametrize(
    "token", ["1_0", "0_0", " 1", "1 ", "1.0", "1e3", "", "+", "0x10", "\u0663"]
)
def test_parse_int_rejects_what_int_would_stretch_to(token):
    with pytest.raises(ValueError):
        parse_int(token)


def test_feature_matrices_follow_slot_order():
    ds = small_dataset()
    assert np.array_equal(ds.positive_features[1], [0.5, 0.5])
    assert np.array_equal(ds.negative_features[0], [-1.0, 0.0])


def test_slot_lookup():
    ds = small_dataset()
    assert ds.slot(SlotRef(Pool.NEGATIVE, 1)) == neg(0.0, -1.0)
    with pytest.raises(SlotOutOfBounds):
        ds.slot(SlotRef(Pool.POSITIVE, 3))


def test_enumerate_triplets_matches_count_and_excludes_diagonal():
    ds = small_dataset()
    triplets = list(enumerate_triplets(ds))
    assert len(triplets) == ds.n_triplets
    assert len(set(triplets)) == len(triplets)
    assert all(t.i != t.j for t in triplets)


def test_replace_samples_is_positional_and_pure():
    ds = small_dataset()
    fresh = pos(9.0, 9.0)
    out = replace_samples(ds, [(SlotRef(Pool.POSITIVE, 1), fresh)])
    assert out.slot(SlotRef(Pool.POSITIVE, 1)) == fresh
    # untouched slots are shared, original unchanged
    assert out.slot(SlotRef(Pool.POSITIVE, 0)) is ds.positives[0]
    assert ds.slot(SlotRef(Pool.POSITIVE, 1)) == pos(0.5, 0.5)


def test_replace_samples_multiple_slots():
    ds = small_dataset()
    out = replace_samples(
        ds,
        [
            (SlotRef(Pool.POSITIVE, 0), pos(7.0, 0.0)),
            (SlotRef(Pool.NEGATIVE, 1), neg(0.0, 7.0)),
        ],
    )
    assert out.n_plus == ds.n_plus and out.n_minus == ds.n_minus
    assert out.slot(SlotRef(Pool.POSITIVE, 0)) == pos(7.0, 0.0)
    assert out.slot(SlotRef(Pool.NEGATIVE, 1)) == neg(0.0, 7.0)


def test_replace_samples_rejects_duplicate_slot():
    ds = small_dataset()
    with pytest.raises(DuplicateSlot):
        replace_samples(
            ds,
            [
                (SlotRef(Pool.POSITIVE, 0), pos(1.0, 1.0)),
                (SlotRef(Pool.POSITIVE, 0), pos(2.0, 2.0)),
            ],
        )


def test_replace_samples_rejects_pool_mismatch():
    ds = small_dataset()
    with pytest.raises(PoolMismatch):
        replace_samples(ds, [(SlotRef(Pool.POSITIVE, 0), neg(1.0, 1.0))])


def test_replace_samples_rejects_bad_dim():
    ds = small_dataset()
    with pytest.raises(DimensionMismatch):
        replace_samples(ds, [(SlotRef(Pool.POSITIVE, 0), pos(1.0, 1.0, 1.0))])


def test_feature_bound_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_p = int(rng.integers(2, 8))
        n_m = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        P = rng.normal(size=(n_p, d)) * rng.uniform(0.1, 3.0)
        N = rng.normal(size=(n_m, d)) * rng.uniform(0.1, 3.0)
        ds = make_dataset(
            [Sample(row, 1, Pool.POSITIVE) for row in P],
            [Sample(row, 0, Pool.NEGATIVE) for row in N],
        )
        expected = max(float(np.linalg.norm(r)) for r in np.vstack([P, N]))
        assert feature_bound(ds) == pytest.approx(expected, rel=0, abs=0)


def test_dataset_csv_round_trip(tmp_path):
    ds = small_dataset()
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back == ds
    # exact float rendering: a second write is byte-identical
    path2 = tmp_path / "ds2.csv"
    write_dataset_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_csv_round_trip_awkward_floats(tmp_path):
    vals = [0.1 + 0.2, 1e-17, -3.9999999999999996, 2**-52]
    ds = make_dataset([pos(vals[0], vals[1]), pos(vals[2], vals[3])], [neg(1 / 3, 2 / 3)])
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    assert read_dataset_csv(path) == ds


def test_read_dataset_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError):
        read_dataset_csv(path)


# --- property tests: CSV round trip and slot replacement ---

FEATURES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    d = draw(st.integers(1, 4))
    vectors = st.lists(FEATURES, min_size=d, max_size=d)
    labels = st.integers(-(2**63), 2**63 - 1)
    positives = draw(st.lists(st.tuples(vectors, labels), min_size=2, max_size=6))
    negatives = draw(st.lists(st.tuples(vectors, labels), min_size=1, max_size=6))
    return make_dataset(
        [Sample(f, label, Pool.POSITIVE) for f, label in positives],
        [Sample(f, label, Pool.NEGATIVE) for f, label in negatives],
    )


@given(datasets())
def test_dataset_csv_round_trips_any_dataset(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
    assert back == ds  # features bit for bit, labels, pools and slot order


@given(datasets(), st.data())
def test_replace_samples_leaves_untouched_slots_equal(ds, data):
    slots = [SlotRef(Pool.POSITIVE, i) for i in range(ds.n_plus)] + [
        SlotRef(Pool.NEGATIVE, k) for k in range(ds.n_minus)
    ]
    chosen = data.draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    vector = st.lists(FEATURES, min_size=ds.d, max_size=ds.d)
    replacements = [(ref, Sample(data.draw(vector), 7, ref.pool)) for ref in chosen]
    before = [ds.slot(ref) for ref in slots]
    out = replace_samples(ds, replacements)
    replaced = dict(replacements)
    for ref, old in zip(slots, before):
        assert out.slot(ref) == replaced.get(ref, old)
        assert ds.slot(ref) is old  # the input is unchanged
