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
    SlotOutOfBounds,
    SlotRef,
    TooFewPositives,
    TripletDataset,
    ValidationError,
    feature_bound,
    parse_int,
    read_dataset_csv,
    replace_samples,
    write_dataset_csv,
)

POSITIVES = [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
NEGATIVES = [[-1.0, 0.0], [0.0, -1.0]]


def small_dataset():
    return TripletDataset(POSITIVES, NEGATIVES)


def column(*values):
    """Rows of a 1-dimensional pool."""
    return [[v] for v in values]


def test_sample_features_frozen():
    # a slot's row cannot be written, through the arrays or the properties
    ds = small_dataset()
    for rows in (ds.positives, ds.negatives, ds.positive_features, ds.negative_features):
        with pytest.raises(ValueError):
            rows[0, 0] = 99.0
        with pytest.raises(ValueError):
            rows[1] += 1.0
    assert ds.positive_features is ds.positives  # stored, not restacked
    assert ds.negative_features is ds.negatives


def test_dataset_arrays_are_read_only_copies():
    P, N = np.array(POSITIVES), np.array(NEGATIVES, dtype=np.float32)
    ds = TripletDataset(P, N)
    for rows, given_rows in ((ds.positives, P), (ds.negatives, N)):
        assert rows.dtype == np.float64 and not rows.flags.writeable
        assert not np.shares_memory(rows, given_rows)
        with pytest.raises(ValueError):
            np.copyto(rows, 0.0)
        with pytest.raises(ValueError):  # the flag cannot be set back either
            rows.setflags(write=True)
    P[0, 0] = N[0, 0] = 42.0  # the caller's arrays stay the caller's
    assert ds == small_dataset()


def test_sample_rejects_matrix_features():
    # each pool is one (n, d) array: a vector or a stack of matrices is not
    with pytest.raises(DimensionMismatch):
        TripletDataset(np.ones((2, 2, 2)), [[0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        TripletDataset(POSITIVES, [0.0, 0.0])


def test_sample_rejects_nan():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            TripletDataset([[1.0, bad], [0.0, 0.0]], NEGATIVES)
        with pytest.raises(ValidationError):
            TripletDataset(POSITIVES, [[0.0, 0.0], [-bad, 1.0]])


def test_sample_equality_is_by_value():
    assert small_dataset() == TripletDataset(np.array(POSITIVES), tuple(NEGATIVES))
    moved = [[1.0, 0.0], [0.5, 0.5], [0.0, 1.1]]
    assert small_dataset() != TripletDataset(moved, NEGATIVES)
    assert small_dataset() != TripletDataset(POSITIVES, NEGATIVES, positive_labels=[1, 1, 2])
    assert small_dataset() != TripletDataset(NEGATIVES + [[0.0, 1.0]], POSITIVES[:2])


def test_make_dataset_counts():
    ds = small_dataset()
    assert ds.n_plus == 3
    assert ds.n_minus == 2
    assert ds.d == 2
    assert ds.n_triplets == 3 * 2 * 2
    assert ds.positive_labels == (1, 1, 1) and ds.negative_labels == (0, 0)


def test_triplet_count_formula():
    # n+ * (n+ - 1) * n- at the documented sizes
    ds = TripletDataset(np.zeros((100, 1)), np.zeros((50, 1)))
    assert ds.n_triplets == 495000


def test_make_dataset_needs_two_positives():
    with pytest.raises(TooFewPositives):
        TripletDataset(column(1.0), column(0.0))


def test_make_dataset_needs_a_negative():
    with pytest.raises(EmptyNegatives):
        TripletDataset(column(1.0, 2.0), [])


def test_make_dataset_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        TripletDataset([[1.0], [1.0, 2.0]], column(0.0))


def test_make_dataset_rejects_wrong_pool_tag(tmp_path):
    # a row's pool tag lives in the CSV only: a row tagged with neither pool
    # cannot be read into a dataset
    path = tmp_path / "ds.csv"
    for tag in ("positive", "Pos", "pos ", ""):
        path.write_text(f"pool,label,f0\npos,1,0.5\npos,1,0.1\n{tag},0,0.2\n")
        with pytest.raises(ValidationError, match="unknown pool tag"):
            read_dataset_csv(path)


def test_dataset_built_directly_needs_two_positives():
    # without the check, empirical_risk divided by n+ (n+ - 1) n- = 0
    with pytest.raises(TooFewPositives):
        TripletDataset([[0.5, 0.0]], [[0.0, 0.0]])


@pytest.mark.parametrize(
    "positives, negatives, labels, error",
    [
        (column(1.0, 2.0), np.empty((0, 1)), {}, EmptyNegatives),
        (np.empty((2, 0)), np.empty((1, 0)), {}, DimensionMismatch),
        ([[1.0], [2.0, 0.0]], column(0.0), {}, DimensionMismatch),
        (column(1.0, 2.0), [[0.0, 1.0]], {}, DimensionMismatch),
        (column(1.0, 2.0), column(0.0), {"positive_labels": [1]}, DimensionMismatch),
        (column(1.0, 2.0), column(0.0), {"negative_labels": [0, 0]}, DimensionMismatch),
    ],
    ids=["no negative", "d", "positive dim", "negative dim", "positive labels", "negative labels"],
)
def test_dataset_built_directly_is_validated(positives, negatives, labels, error):
    with pytest.raises(error):
        TripletDataset(positives, negatives, **labels)


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
    # slot m is row m of its pool; a slot past either pool is out of bounds
    ds = small_dataset()
    assert np.array_equal(ds.negatives[1], [0.0, -1.0])
    for ref in (SlotRef(Pool.POSITIVE, 3), SlotRef(Pool.NEGATIVE, 2), SlotRef(Pool.NEGATIVE, -1)):
        with pytest.raises(SlotOutOfBounds):
            replace_samples(ds, [(ref, [0.0, 0.0])])


def test_replace_samples_is_positional_and_pure():
    ds = small_dataset()
    out = replace_samples(ds, [(SlotRef(Pool.POSITIVE, 1), np.array([9.0, 9.0]))])
    assert np.array_equal(out.positives, [[1.0, 0.0], [9.0, 9.0], [0.0, 1.0]])
    assert np.array_equal(out.negatives, ds.negatives)
    assert ds == small_dataset()  # original unchanged


def test_replace_samples_multiple_slots():
    ds = small_dataset()
    out = replace_samples(
        ds,
        [
            (SlotRef(Pool.POSITIVE, 0), [7.0, 0.0]),
            (SlotRef(Pool.NEGATIVE, 1), [0.0, 7.0]),
        ],
    )
    assert out.n_plus == ds.n_plus and out.n_minus == ds.n_minus
    assert np.array_equal(out.positives[0], [7.0, 0.0])
    assert np.array_equal(out.negatives[1], [0.0, 7.0])
    assert np.array_equal(out.positives[1:], ds.positives[1:])
    assert np.array_equal(out.negatives[0], ds.negatives[0])


def test_replace_samples_rejects_duplicate_slot():
    ds = small_dataset()
    with pytest.raises(DuplicateSlot):
        replace_samples(
            ds,
            [
                (SlotRef(Pool.POSITIVE, 0), [1.0, 1.0]),
                (SlotRef(Pool.POSITIVE, 0), [2.0, 2.0]),
            ],
        )


def test_replace_samples_rejects_bad_dim():
    ds = small_dataset()
    # a scalar would broadcast over the whole row
    for row in ([1.0, 1.0, 1.0], [1.0], 1.0, [[1.0, 1.0]]):
        with pytest.raises(DimensionMismatch):
            replace_samples(ds, [(SlotRef(Pool.POSITIVE, 0), row)])


def test_replace_samples_rejects_a_non_finite_row():
    with pytest.raises(ValidationError):
        replace_samples(small_dataset(), [(SlotRef(Pool.NEGATIVE, 0), [np.nan, 0.0])])


def test_replace_samples_leaves_its_input_untouched():
    ds = TripletDataset(POSITIVES, NEGATIVES, [5, -6, 7], [8, 2**70])
    before = ds.positives.tobytes(), ds.negatives.tobytes()
    arrays = ds.positives, ds.negatives
    out = replace_samples(
        ds,
        [(SlotRef(Pool.POSITIVE, 2), [3.0, 3.0]), (SlotRef(Pool.NEGATIVE, 1), [4.0, 4.0])],
    )
    assert (ds.positives, ds.negatives) == arrays  # the same array objects
    assert (ds.positives.tobytes(), ds.negatives.tobytes()) == before
    assert (ds.positive_labels, ds.negative_labels) == ((5, -6, 7), (8, 2**70))
    # a replaced slot keeps its label; the new dataset owns fresh arrays
    assert (out.positive_labels, out.negative_labels) == ((5, -6, 7), (8, 2**70))
    assert not np.shares_memory(out.positives, ds.positives)
    assert not out.positives.flags.writeable and not out.negatives.flags.writeable


def test_feature_bound_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_p = int(rng.integers(2, 8))
        n_m = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        P = rng.normal(size=(n_p, d)) * rng.uniform(0.1, 3.0)
        N = rng.normal(size=(n_m, d)) * rng.uniform(0.1, 3.0)
        ds = TripletDataset(P, N)
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
    ds = TripletDataset([vals[:2], vals[2:]], [[1 / 3, 2 / 3]])
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    assert read_dataset_csv(path) == ds


@pytest.mark.parametrize("label", [2**63, -(2**63) - 1, 10**40, -(10**40)])
def test_dataset_csv_round_trips_a_label_outside_int64(tmp_path, label):
    path = tmp_path / "ds.csv"
    path.write_text(f"pool,label,f0\npos,{label},0.5\nneg,0,0.25\npos,1,-0.5\n")
    ds = read_dataset_csv(path)
    assert ds.positive_labels == (label, 1) and ds.negative_labels == (0,)
    write_dataset_csv(ds, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text().splitlines()[1] == f"pos,{label},0.5"


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
    return TripletDataset(
        [f for f, _ in positives],
        [f for f, _ in negatives],
        [label for _, label in positives],
        [label for _, label in negatives],
    )


@given(datasets())
def test_dataset_csv_round_trips_any_dataset(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
    # features bit for bit (-0.0 included), labels and slot order
    assert back.positives.tobytes() == ds.positives.tobytes()
    assert back.negatives.tobytes() == ds.negatives.tobytes()
    assert back.positive_labels == ds.positive_labels
    assert back.negative_labels == ds.negative_labels


@given(datasets(), st.data())
def test_replace_samples_leaves_untouched_slots_equal(ds, data):
    slots = [SlotRef(Pool.POSITIVE, i) for i in range(ds.n_plus)] + [
        SlotRef(Pool.NEGATIVE, k) for k in range(ds.n_minus)
    ]
    chosen = data.draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    vector = st.lists(FEATURES, min_size=ds.d, max_size=ds.d)
    replacements = [(ref, data.draw(vector)) for ref in chosen]
    before = ds.positives.tobytes(), ds.negatives.tobytes()
    out = replace_samples(ds, replacements)
    replaced = dict(replacements)

    def row(dataset, ref):
        return (dataset.positives if ref.pool is Pool.POSITIVE else dataset.negatives)[ref.index]

    for ref in slots:
        want = np.array(replaced[ref]) if ref in replaced else row(ds, ref)
        assert row(out, ref).tobytes() == want.tobytes()
    assert (out.positive_labels, out.negative_labels) == (ds.positive_labels, ds.negative_labels)
    assert (ds.positives.tobytes(), ds.negatives.tobytes()) == before  # the input is unchanged
