"""Encoding, Lloyd fitting, cluster labeling, and report formats."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import enumeration_min_wcss

import ldscreen.columns as columns_module
from ldscreen.cluster import (
    ClusterModel,
    cluster_model_from_json,
    cluster_model_to_json,
    cluster_profile,
    cluster_profile_csv,
    cluster_report_text,
    clustered_instances_text,
    distinct_rows,
    encode_dataset,
    encode_imputed,
    fit_imputed,
    kmeans_fit,
    map_clusters_to_classes,
    percentage,
    profile_csv,
    profile_report_text,
)
from ldscreen.dataset import (
    AttributeSpec,
    Dataset,
    Instance,
    impute_missing,
    parse_csv,
    stratified_folds,
    synthetic_checklist,
)
from ldscreen.tree import build_tree


def binvec_dataset(vectors, labels=None):
    n = len(vectors[0])
    schema = tuple(
        AttributeSpec.categorical(f"b{i}", ("0", "1")) for i in range(n)
    ) + (AttributeSpec.categorical("cls", ("N", "Y")),)
    labels = labels or ["N"] * len(vectors)
    rows = tuple(
        Instance(tuple(v) + (lbl,)) for v, lbl in zip(vectors, labels)
    )
    return Dataset(schema, n, rows)


# planted two-group fixture: anchors duplicated so every distinct-instance
# initialization falls into the global basin
G0 = ["00000000", "00000000", "10000000"]
G1 = ["11111111", "11111111", "11111110"]
PLANTED = [{0, 1, 2}, {3, 4, 5}]


def partition_of(model):
    groups = {}
    for i, a in enumerate(model.assignments):
        groups.setdefault(a, set()).add(i)
    return sorted(groups.values(), key=min)


# --- encoding ----------------------------------------------------------------


def test_binary_encodes_to_single_indicator():
    d = binvec_dataset(["01", "10"])
    rows, labels = encode_dataset(d)
    assert labels == ("b0", "b1")
    assert rows.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_nominal_one_hot_and_numeric_passthrough():
    schema = (
        AttributeSpec.categorical("color", ("red", "green", "blue")),
        AttributeSpec.numeric("x"),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    d = Dataset(schema, 2, (Instance(("green", 2.5, "N")),))
    rows, labels = encode_dataset(d)
    assert labels == ("color=red", "color=green", "color=blue", "x")
    assert rows.tolist() == [[0.0, 1.0, 0.0, 2.5]]


def test_class_attribute_not_encoded():
    d = synthetic_checklist(10, 5, seed=1)
    rows, labels = encode_dataset(d)
    assert rows.shape == (15, 16)
    assert "LD" not in labels


def test_missing_value_refused():
    d = synthetic_checklist(10, 5, seed=1, missing_rate=0.5)
    with pytest.raises(ValueError, match="impute"):
        encode_dataset(d)


def test_clustering_reads_the_dataset_view_and_a_train_fold_its_parents(monkeypatch):
    # growth and both fits share one encode, and so do the folds dealt from it
    views = []

    def count_view(view, dataset):
        views.append(dataset)
        real_init(view, dataset)

    real_init = columns_module.Columns.__init__
    monkeypatch.setattr(columns_module.Columns, "__init__", count_view)
    gappy = synthetic_checklist(60, 30, seed=2, missing_rate=0.1)
    d = impute_missing(gappy)
    build_tree(d)
    kmeans_fit(d, k=2)
    kmeans_fit(d, k=3)
    assert len(views) == 1 and views[0] is d
    # a fold's matrix is that of a fresh Dataset of its rows, gaps filled from the fold's
    for data, encode in ((d, encode_dataset), (gappy, encode_imputed)):
        train, _ = stratified_folds(data, 3, seed=0)[1]
        before = len(views)
        rows, labels = encode(train)
        encoded = views[before:]  # none for d; the gappy parent, once
        assert len(encoded) == (data is gappy) and all(v is data for v in encoded)
        want, want_labels = encode(Dataset(train.schema, train.class_index, train.instances))
        assert labels == want_labels
        assert (rows.shape, rows.dtype) == (want.shape, want.dtype)
        assert rows.tobytes() == want.tobytes()


# --- the imputed matrix of one encoded view -----------------------------------

#: negative numbers, both zeros and repeats, so that means and modes can tie
NUMBERS = st.sampled_from((-0.0, 0.0, -1.5, 2.0)) | st.floats(-1e6, 1e6)


@st.composite
def gappy_datasets(draw, numbers=NUMBERS):
    """Rows over binary, nominal (3 or 4 values) and numeric columns and a class.

    Each column, the class included, has gaps or none at random.
    """
    kinds = draw(st.lists(st.sampled_from(("binary", "nominal", "numeric")), min_size=1, max_size=4))
    schema = [
        AttributeSpec.numeric(f"x{i}")
        if kind == "numeric"
        else AttributeSpec.categorical(f"s{i}", "ABCD"[: 2 if kind == "binary" else draw(st.integers(3, 4))])
        for i, kind in enumerate(kinds)
    ]
    class_at = draw(st.integers(0, len(schema)))
    schema.insert(class_at, AttributeSpec.categorical("cls", ("P", "Q")))
    cells = []
    for spec in schema:
        value = st.sampled_from(spec.values) if spec.is_categorical else numbers
        cells.append(st.none() | value if draw(st.booleans()) else value)
    rows = draw(st.lists(st.tuples(*cells), max_size=8))
    return Dataset(tuple(schema), class_at, tuple(Instance(r) for r in rows))


#: tied modes (N and Y, B and C), a -0.0 in a mean, a gapless column, a class gap
TIED = Dataset(
    (
        AttributeSpec.categorical("b", ("N", "Y")),
        AttributeSpec.categorical("n", ("A", "B", "C")),
        AttributeSpec.numeric("x"),
        AttributeSpec.numeric("g"),
        AttributeSpec.categorical("cls", ("P", "Q")),
    ),
    4,
    (
        Instance(("Y", "B", -0.0, 1.0, "P")),
        Instance(("N", "C", -2.5, -0.0, None)),
        Instance((None, None, None, 2.0, "Q")),
    ),
)


@settings(max_examples=300, deadline=None)
@example(TIED)
@given(gappy_datasets(NUMBERS | st.floats(allow_nan=False, allow_infinity=False)))  # a mean can overflow
def test_imputed_matrix_is_the_encoded_imputed_dataset(d):
    try:
        imputed = impute_missing(d)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            encode_imputed(d)
        assert str(err.value) == str(exc)
        return
    want, want_labels = encode_dataset(imputed)
    rows, labels = encode_imputed(d)
    assert labels == want_labels
    assert (rows.shape, rows.dtype) == (want.shape, want.dtype)
    assert rows.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@example(TIED, 2, 0)
@given(gappy_datasets(), st.integers(1, 3), st.integers(0, 3))
def test_fit_imputed_is_kmeans_fit_of_the_imputed_dataset(d, k, seed):
    try:
        imputed = impute_missing(d)
        want = kmeans_fit(imputed, k=k, seed=seed)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            fit_imputed(d, k=k, seed=seed)
        assert str(err.value) == str(exc)
        return
    model, profile = fit_imputed(d, k=k, seed=seed)
    assert cluster_model_to_json(model) == cluster_model_to_json(want)
    # the reports read the class of d itself, whose gaps imputation leaves
    assert profile_report_text(model, d, profile) == cluster_report_text(want, imputed)
    assert profile_csv(model, profile) == cluster_profile_csv(want, imputed)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(None, None, "P"), (1.0, None, "Q")], "attribute b is entirely missing"),
        (
            [(1e308, "N", "P"), (1e308, "Y", "Q"), (None, "N", "P")],
            "imputation failed: inf in numeric attribute x is not a finite number",
        ),
        # every attribute's blanks are refused before any fill is checked
        ([(1e308, None, "P"), (1e308, None, "Q"), (None, None, "P")], "attribute b is entirely missing"),
    ],
)
def test_imputed_encoding_raises_what_impute_missing_raises(rows, message):
    schema = (
        AttributeSpec.numeric("x"),
        AttributeSpec.categorical("b", ("N", "Y")),
        AttributeSpec.categorical("cls", ("P", "Q")),
    )
    d = Dataset(schema, 2, tuple(Instance(r) for r in rows))
    for refuses in (impute_missing, encode_imputed, fit_imputed):
        with pytest.raises(ValueError) as err:
            refuses(d)
        assert str(err.value) == message


@st.composite
def matrices_with_repeats(draw):
    """Rows drawn with repeats from a few, over negative numbers and both zeros."""
    width = draw(st.integers(1, 4))
    value = st.sampled_from((-2.0, -1.0, -0.0, 0.0, 0.5)) | st.floats(-1e6, 1e6)
    pool = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=20))
    return np.array([pool[p] for p in picks], float).reshape(len(picks), width)


@settings(max_examples=300, deadline=None)
@given(matrices_with_repeats())
def test_distinct_rows_are_np_uniques(rows):
    want = np.unique(rows, axis=0)
    got = distinct_rows(rows)
    assert got.shape == want.shape
    assert (got == want).all()


@pytest.mark.parametrize("n", [0, 1, 3])
def test_distinct_rows_without_columns(n):
    rows = np.zeros((n, 0))
    assert distinct_rows(rows).shape == np.unique(rows, axis=0).shape


# --- kmeans_fit --------------------------------------------------------------


def test_separated_pair_singletons():
    d = binvec_dataset(["00000000", "11111111"])
    m = kmeans_fit(d, k=2, seed=0)
    assert sorted(m.cluster_sizes()) == [1, 1]
    assert m.wcss == 0.0
    assert m.iterations <= 2


def test_k1_closed_form():
    d = synthetic_checklist(40, 20, seed=4)
    m = kmeans_fit(d, k=1, seed=0)
    rows, _ = encode_dataset(d)
    mean = rows.mean(axis=0)
    assert m.centroids[0] == pytest.approx(tuple(mean), abs=1e-12)
    assert m.wcss == pytest.approx(float(((rows - mean) ** 2).sum()), abs=1e-9)


def test_planted_partition_matches_enumeration_for_every_seed():
    d = binvec_dataset(G0 + G1)
    rows, _ = encode_dataset(d)
    target = enumeration_min_wcss(rows)
    for seed in range(50):
        m = kmeans_fit(d, k=2, seed=seed)
        assert partition_of(m) == PLANTED
        assert m.wcss == pytest.approx(target, abs=1e-9)


def test_wcss_history_non_increasing():
    rng = random.Random(6)
    for seed in range(10):
        d = synthetic_checklist(rng.randint(20, 60), rng.randint(10, 30), seed=seed)
        m = kmeans_fit(d, k=3, seed=seed)
        for a, b in zip(m.wcss_history, m.wcss_history[1:]):
            assert b <= a + 1e-9
        assert m.iterations <= 100


def test_restart_from_own_centroids_is_fixed_point():
    d = synthetic_checklist(60, 30, seed=2)
    m = kmeans_fit(d, k=2, seed=11)
    again = kmeans_fit(d, k=2, seed=11, initial_centroids=m.centroids)
    assert again.iterations == 1
    assert again.assignments == m.assignments
    assert again.wcss == pytest.approx(m.wcss, abs=1e-9)


def test_seed_determinism():
    d = synthetic_checklist(50, 25, seed=8)
    a = kmeans_fit(d, k=4, seed=5)
    b = kmeans_fit(d, k=4, seed=5)
    assert a == b


def test_every_cluster_nonempty():
    rng = random.Random(9)
    for seed in range(10):
        d = synthetic_checklist(rng.randint(15, 40), rng.randint(5, 20), seed=seed)
        for k in (2, 3, 5):
            m = kmeans_fit(d, k=k, seed=seed)
            assert sorted(set(m.assignments)) == list(range(k))


def test_empty_cluster_repair_keeps_centroids_means():
    # no instance is nearest to the third start, so the repair moves one in
    # from another cluster, whose centroid must then follow its members
    d = synthetic_checklist(20, 10, seed=3)
    m = kmeans_fit(d, k=3, initial_centroids=[[0] * 16, [1] * 16, [9] * 16])
    rows, _ = encode_dataset(d)
    assign = np.array(m.assignments)
    assert sorted(set(m.assignments)) == [0, 1, 2]
    for j, centroid in enumerate(m.centroids):
        assert rows[assign == j].mean(axis=0).tolist() == list(centroid)
    for a, b in zip(m.wcss_history, m.wcss_history[1:]):
        assert b <= a


def test_empty_cluster_repair_measures_from_fresh_means():
    # the first assignment is [0, 0, 1]; measured from the fresh means
    # (0.5, 100) the repair takes row 0 and leaves no cluster empty, where
    # the stale centroid 190 would have sent row 100 and emptied cluster 1
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("cls", ("N", "Y")))
    d = Dataset(schema, 1, tuple(Instance((x, "N")) for x in (0, 1, 100)))
    m = kmeans_fit(d, k=3, initial_centroids=[[0.5], [190], [-1000]])
    assert m.cluster_sizes() == [1, 1, 1]
    assert m.assignments == (2, 0, 1)


def test_k_beyond_distinct_instances_rejected():
    d = binvec_dataset(["01", "01", "10"])
    with pytest.raises(ValueError):
        kmeans_fit(d, k=3, seed=0)


@pytest.mark.parametrize("arg, value", [("k", 0), ("k", -1), ("max_iter", 0), ("max_iter", -3)])
def test_counts_below_one_rejected(arg, value):
    d = binvec_dataset(["01", "10", "11"])
    with pytest.raises(ValueError, match=f"{arg} must be at least 1"):
        kmeans_fit(d, **{"k": 2, "seed": 0, arg: value})


def test_empty_dataset_rejected():
    schema = (
        AttributeSpec.categorical("b0", ("0", "1")),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    d = Dataset(schema, 1)
    with pytest.raises(ValueError):
        kmeans_fit(d, k=1, seed=0)


def test_arithmetic_that_overflows_is_refused():
    far = parse_csv("x,c\n1e200,P\n-1e200,Q\n5,P\n")  # squared distances overflow
    wide = parse_csv("x,y,c\n1e308,0,P\n1e308,1,Q\n")  # only the full-data mean overflows
    model = kmeans_fit(wide, k=2, seed=0)
    for call in (
        lambda: kmeans_fit(far, k=2, seed=0),
        lambda: fit_imputed(far, k=2, seed=0),
        lambda: cluster_profile(model, wide),
        lambda: fit_imputed(wide, k=2, seed=0),
    ):
        with pytest.raises(ValueError, match="^values too large to cluster"):
            call()


# --- cluster -> class mapping -------------------------------------------------


def test_pure_cluster_takes_its_class():
    d = binvec_dataset(
        ["00000000", "10000000", "11111111", "11111110"],
        labels=["N", "N", "Y", "Y"],
    )
    m = kmeans_fit(d, k=2, seed=0)
    labels, counts = map_clusters_to_classes(m, d)
    by_first_member = labels[m.assignments[0]], labels[m.assignments[2]]
    assert by_first_member == ("N", "Y")
    assert sum(sum(row) for row in counts) == 4


def test_cluster_without_recorded_class_has_no_label():
    d = Dataset(
        binvec_dataset(["00", "01"]).schema,
        2,
        (Instance(("0", "0", None)), Instance(("1", "1", "Y"))),
    )
    m = kmeans_fit(d, k=2, seed=0)
    labels, counts = map_clusters_to_classes(m, d)
    unlabelled = m.assignments[0]
    assert labels[unlabelled] is None and counts[unlabelled] == [0, 0]
    assert labels[1 - unlabelled] == "Y"
    assert f"{unlabelled}  cls=? - 1 Nos. - 50.00 %" in clustered_instances_text(m, d)


def test_majority_labels_match_brute_force():
    rng = random.Random(12)
    d = synthetic_checklist(40, 30, seed=3)
    m = kmeans_fit(d, k=3, seed=7)
    labels, counts = map_clusters_to_classes(m, d)
    for j in range(3):
        members = [
            inst.values[d.class_index]
            for inst, a in zip(d.instances, m.assignments)
            if a == j
        ]
        n_count = members.count("N")
        y_count = members.count("Y")
        assert counts[j] == [n_count, y_count]
        expect = "N" if n_count >= y_count else "Y"  # ties: declared order
        assert labels[j] == expect


def test_percentage_formatting_94_31():
    assert percentage(94, 125) == "75.20 %"
    assert percentage(31, 125) == "24.80 %"


def test_clustered_instances_lines():
    d = synthetic_checklist(94, 31, seed=3)
    m = kmeans_fit(d, k=2, seed=0)
    fake = ClusterModel(
        k=2,
        column_labels=m.column_labels,
        centroids=m.centroids,
        assignments=tuple([0] * 94 + [1] * 31),
        wcss=m.wcss,
        wcss_history=m.wcss_history,
        iterations=m.iterations,
        seed=m.seed,
    )
    text = clustered_instances_text(fake, d)
    assert text.splitlines()[0] == "Clustered Instances"
    assert "94 Nos. - 75.20 %" in text
    assert "31 Nos. - 24.80 %" in text


# --- profiles and reports -----------------------------------------------------


def test_profile_k1_equals_full_data():
    d = synthetic_checklist(30, 20, seed=5)
    m = kmeans_fit(d, k=1, seed=0)
    for label, full, per in cluster_profile(m, d):
        assert per[0] == pytest.approx(full, abs=1e-12)


def test_profile_constant_attribute():
    d = binvec_dataset(["01", "00", "01", "00"])  # b0 constant 0
    m = kmeans_fit(d, k=2, seed=1)
    profile = {label: (full, per) for label, full, per in cluster_profile(m, d)}
    full, per = profile["b0"]
    assert full == 0.0
    assert all(p == 0.0 for p in per)


def test_profile_matches_column_average_oracle():
    d = synthetic_checklist(50, 25, seed=9)
    m = kmeans_fit(d, k=2, seed=3)
    rows, labels = encode_dataset(d)
    for (label, full, per), c in zip(cluster_profile(m, d), range(len(labels))):
        col = [rows[i][c] for i in range(len(rows))]
        assert full == pytest.approx(sum(col) / len(col), abs=1e-9)
        for j in range(2):
            members = [v for v, a in zip(col, m.assignments) if a == j]
            assert per[j] == pytest.approx(sum(members) / len(members), abs=1e-9)


def test_report_text_shape():
    d = synthetic_checklist(40, 20, seed=1)
    m = kmeans_fit(d, k=2, seed=0)
    text = cluster_report_text(m, d)
    assert text.startswith("Number of iterations: ")
    assert "Within cluster sum of squared errors: " in text
    assert "Full Data (60)" in text
    assert "Clustered Instances" in text
    # one mean column per cluster plus full data on each attribute row
    line = next(l for l in text.splitlines() if l.startswith("DR "))
    assert len(line.split()) == 4


def test_profile_csv_round_numbers():
    d = synthetic_checklist(20, 10, seed=2)
    m = kmeans_fit(d, k=2, seed=4)
    csv_text = cluster_profile_csv(m, d)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "attribute,full_data,cluster_0,cluster_1"
    assert len(lines) == 17  # 16 encoded columns + header


def test_cluster_json_round_trip():
    d = synthetic_checklist(30, 15, seed=6)
    m = kmeans_fit(d, k=2, seed=9)
    back = cluster_model_from_json(cluster_model_to_json(m))
    assert back == m


def test_cluster_json_requires_version():
    import json

    d = binvec_dataset(["01", "10"])
    m = kmeans_fit(d, k=2, seed=0)
    doc = json.loads(cluster_model_to_json(m))
    doc["version"] = 99
    with pytest.raises(ValueError):
        cluster_model_from_json(json.dumps(doc))
