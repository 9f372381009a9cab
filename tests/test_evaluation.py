"""Confusion metrics, ROC, cross-validation, and report formats."""

import errno
import os
import random
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_mixed_dataset, roc_pairwise_oracle

import ldscreen.columns as columns_module
import ldscreen.evaluation as evaluation_module
from ldscreen.cluster import encode_dataset, fit_imputed, kmeans_fit
from ldscreen.columns import Columns, view_of
from ldscreen.dataset import (
    AttributeSpec,
    Dataset,
    Instance,
    impute_missing,
    random_folds,
    stratified_folds,
    synthetic_checklist,
)
from ldscreen.evaluation import (
    ConfusionMatrix,
    _fold_predictions,
    _fork,
    confusion,
    cross_validate,
    majority_learner,
    per_class_metrics,
    report_from_json,
    report_text,
    report_to_json,
    roc_area,
    rules_learner,
    tree_learner,
)
from ldscreen.rules import extract_rules, ruleset_to_json, simplify_rules
from ldscreen.tree import TreeConfig, build_tree, model_to_json

MATRIX_125 = ConfusionMatrix(("N", "Y"), ((79, 15), (13, 18)))


def labels_from_matrix(matrix):
    actual, predicted = [], []
    for i, a in enumerate(matrix.class_values):
        for j, p in enumerate(matrix.class_values):
            n = matrix.counts[i][j]
            actual.extend([a] * n)
            predicted.extend([p] * n)
    return actual, predicted


# --- confusion ----------------------------------------------------------------


def test_all_correct_is_diagonal():
    cm = confusion(["N", "Y", "N"], ["N", "Y", "N"], ("N", "Y"))
    assert cm.counts == ((2, 0), (0, 1))


def test_empty_input_zero_matrix():
    cm = confusion([], [], ("N", "Y"))
    assert cm.counts == ((0, 0), (0, 0))
    with pytest.raises(ValueError):
        per_class_metrics(cm)


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        confusion(["Z"], ["N"], ("N", "Y"))
    with pytest.raises(ValueError):
        confusion(["N"], ["Z"], ("N", "Y"))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        confusion(["N"], ["N", "Y"], ("N", "Y"))


def test_reconstructed_125_matrix():
    actual, predicted = labels_from_matrix(MATRIX_125)
    assert len(actual) == 125
    cm = confusion(actual, predicted, ("N", "Y"))
    assert cm == MATRIX_125


# --- per-class metrics ---------------------------------------------------------


def test_published_table_values():
    report = per_class_metrics(MATRIX_125)
    tol = 0.0005
    assert report.accuracy == pytest.approx(0.776, abs=tol)
    assert report.error_rate == pytest.approx(0.224, abs=tol)
    n = report.metrics_for("N")
    assert n.tp_rate == pytest.approx(0.840, abs=tol)
    assert n.fp_rate == pytest.approx(0.419, abs=tol)
    assert n.precision == pytest.approx(0.859, abs=tol)
    assert n.recall == pytest.approx(0.840, abs=tol)
    assert n.f_measure == pytest.approx(0.849, abs=tol)
    y = report.metrics_for("Y")
    assert y.tp_rate == pytest.approx(0.581, abs=tol)
    assert y.fp_rate == pytest.approx(0.160, abs=tol)
    assert y.precision == pytest.approx(0.545, abs=tol)
    assert y.recall == pytest.approx(0.581, abs=tol)
    assert y.f_measure == pytest.approx(0.563, abs=tol)


def test_perfect_classifier():
    report = per_class_metrics(ConfusionMatrix(("N", "Y"), ((10, 0), (0, 5))))
    assert report.accuracy == 1.0
    for _, m in report.per_class:
        assert (m.tp_rate, m.fp_rate, m.precision, m.recall, m.f_measure) == (
            1.0,
            0.0,
            1.0,
            1.0,
            1.0,
        )


def test_never_predicted_class_conventions():
    report = per_class_metrics(ConfusionMatrix(("N", "Y"), ((8, 0), (4, 0))))
    y = report.metrics_for("Y")
    assert y.precision == 0.0
    assert y.f_measure == 0.0
    assert y.tp_rate == 0.0


def test_f_measure_identity_on_random_matrices():
    rng = random.Random(5)
    for _ in range(50):
        counts = tuple(
            tuple(rng.randint(0, 20) for _ in range(3)) for _ in range(3)
        )
        cm = ConfusionMatrix(("A", "B", "C"), counts)
        if cm.total == 0:
            continue
        report = per_class_metrics(cm)
        for _, m in report.per_class:
            if m.precision + m.recall > 0:
                expect = 2 * m.precision * m.recall / (m.precision + m.recall)
            else:
                expect = 0.0
            assert m.f_measure == pytest.approx(expect, abs=1e-12)
        assert report.accuracy + report.error_rate == pytest.approx(1.0, abs=1e-12)


# --- roc area -------------------------------------------------------------------


def test_roc_perfectly_separated():
    scores = [0.9, 0.8, 0.2, 0.1]
    actual = ["Y", "Y", "N", "N"]
    assert roc_area(scores, actual, "Y") == 1.0


def test_roc_all_ties():
    assert roc_area([0.5] * 6, ["Y", "N"] * 3, "Y") == 0.5


def test_roc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_area([0.1, 0.2], ["Y", "Y"], "Y")


def test_roc_matches_pairwise_oracle():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(4, 30)
        scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        actual = [rng.choice("NY") for _ in range(n)]
        if len(set(actual)) < 2:
            continue
        mine = roc_area(scores, actual, "Y")
        assert mine == pytest.approx(
            roc_pairwise_oracle(scores, actual, "Y"), abs=1e-9
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0]), st.sampled_from("NY")),
        min_size=2,
        max_size=80,
    ).filter(lambda pairs: len({a for _, a in pairs}) == 2)
)
def test_roc_equals_pair_count_exactly_on_ties(pairs):
    scores, actual = [s for s, _ in pairs], [a for _, a in pairs]
    assert roc_area(scores, actual, "Y") == roc_pairwise_oracle(scores, actual, "Y")


def test_roc_binary_duality():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(4, 25)
        scores = [round(rng.random(), 2) for _ in range(n)]
        actual = [rng.choice("NY") for _ in range(n)]
        if len(set(actual)) < 2:
            continue
        a_y = roc_area(scores, actual, "Y")
        a_n = roc_area([1 - s for s in scores], actual, "N")
        assert a_y == pytest.approx(a_n, abs=1e-9)


# --- cross-validation -----------------------------------------------------------


def test_majority_learner_closed_form():
    d = synthetic_checklist(94, 31, seed=3)
    report = cross_validate(d, k=2, seed=0, learner=majority_learner())
    assert report.accuracy == pytest.approx(94 / 125, abs=1e-12)
    assert report.matrix.total == 125


def test_two_fold_on_four_instances():
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    rows = [("0", "N"), ("1", "Y"), ("0", "N"), ("1", "Y")]
    d = Dataset(schema, 1, tuple(Instance(r) for r in rows))
    report = cross_validate(d, k=2, seed=0, learner=tree_learner())
    assert report.matrix.total == 4


def test_tree_learner_on_planted_rule():
    rng = random.Random(2)
    schema = tuple(
        AttributeSpec.categorical(f"a{i}", ("0", "1")) for i in range(4)
    ) + (AttributeSpec.categorical("cls", ("N", "Y")),)
    rows = []
    for _ in range(60):
        bits = [rng.choice("01") for _ in range(4)]
        rows.append(Instance(tuple(bits) + ("Y" if bits[0] == "1" else "N",)))
    d = Dataset(schema, 4, tuple(rows))
    config = TreeConfig(min_leaf_weight=1.0, pruning=False)
    report = cross_validate(d, k=2, seed=0, learner=tree_learner(config))
    assert report.accuracy == 1.0
    for _, m in report.per_class:
        assert m.roc_area == pytest.approx(1.0, abs=1e-12)


def test_pooled_prediction_count_and_roc_filled():
    d = synthetic_checklist(60, 40, seed=7)
    for k in (2, 5):
        report = cross_validate(d, k=k, seed=1, learner=tree_learner())
        assert report.matrix.total == 100
        for _, m in report.per_class:
            assert m.roc_area is not None
            assert 0.0 <= m.roc_area <= 1.0


def test_rules_learner_runs():
    d = synthetic_checklist(50, 30, seed=10)
    report = cross_validate(d, k=2, seed=4, learner=rules_learner())
    assert report.matrix.total == 80
    assert 0.0 <= report.accuracy <= 1.0


def test_unstratified_still_partitions():
    d = synthetic_checklist(40, 20, seed=6)
    report = cross_validate(
        d, k=3, seed=2, learner=majority_learner(), stratify=False
    )
    assert report.matrix.total == 60


def _gappy(seed, n_rows, fractional):
    """A random dataset with 15 % blanks, at unit or fractional weights."""
    rng = random.Random(seed)
    d = random_mixed_dataset(rng, n_rows, 2, 3, missing_rate=0.15)
    if fractional:
        d = Dataset(d.schema, d.class_index, [Instance(i.values, rng.uniform(0.05, 3.0)) for i in d.instances])
    return d


def _fresh(d):
    """A copy of ``d`` that links to no parent and keeps no view."""
    return Dataset(d.schema, d.class_index, d.instances)


def _models(train):
    """The JSON of the tree and of the simplified rules fitted on ``train``."""
    model = build_tree(train)
    return model_to_json(model), ruleset_to_json(simplify_rules(extract_rules(model), train))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans(), st.booleans())
def test_fitting_a_fold_equals_fitting_a_fresh_dataset(seed, k, fractional, stratify):
    # a fold reads its parent's view through a row mask; a fresh copy is encoded alone
    d = _gappy(seed, random.Random(seed).randint(20, 90), fractional)
    folds = (stratified_folds if stratify else random_folds)(d, k, seed)
    for train, _ in folds:
        assert _models(train) == _models(_fresh(train))
    for learner in (tree_learner, rules_learner):
        oracle = learner()

        def fit_fresh(train):
            return oracle(_fresh(train))

        got = cross_validate(d, k, seed, learner(), stratify)
        assert report_to_json(got) == report_to_json(cross_validate(d, k, seed, fit_fresh, stratify))


@pytest.mark.parametrize("k", [2, 5])
def test_cross_validation_encodes_once(monkeypatch, k):
    # encoding each fold again would fail this, with no timing
    seen = {"views": 0}

    def count_view(view, dataset):
        seen["views"] += 1
        real_init(view, dataset)

    real_init = columns_module.Columns.__init__
    monkeypatch.setattr(columns_module.Columns, "__init__", count_view)
    for learner in (tree_learner(), rules_learner()):
        seen["views"] = 0
        cross_validate(_gappy(k, 200, False), k, 0, learner)
        assert seen["views"] == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_cross_validation_leaves_its_dataset_as_it_found_it(workers):
    # the folds' view is kept in the dataset's own _view list, and nothing else changes
    d = _gappy(3, 200, False)
    before = dict(vars(d))
    cross_validate(d, 5, 0, tree_learner(), workers=workers)
    build_tree(stratified_folds(d, 5, 0)[0][0])
    assert vars(d).keys() == before.keys()
    assert all(vars(d)[name] is value for name, value in before.items())
    fresh = _fresh(d)
    assert (d, hash(d), repr(d)) == (fresh, hash(fresh), repr(fresh))
    view = d._view[0]
    assert isinstance(view, Columns) and view_of(d) is view
    assert len(view.weights) == len(d) and view.all_rows.all()


def test_a_dataset_is_encoded_once_for_its_tree_and_every_cross_validation(monkeypatch):
    # growth and the folds of every deal read the one view kept with the dataset
    built = []

    def count_view(view, dataset):
        built.append(dataset)
        real_init(view, dataset)

    real_init = columns_module.Columns.__init__
    monkeypatch.setattr(columns_module.Columns, "__init__", count_view)
    d = _gappy(6, 150, True)
    build_tree(d)
    cross_validate(d, 5, 0, tree_learner())
    cross_validate(d, 3, 1, rules_learner())
    cross_validate(d, 4, 2, rules_learner(), workers=2)
    assert len(built) == 1 and built[0] is d


@pytest.mark.parametrize("value", [2.0, 2.5, True])
def test_counts_that_are_not_ints_are_refused(value):
    d = _gappy(2, 40, False)
    calls = [
        lambda: stratified_folds(d, value),
        lambda: random_folds(d, value),
        lambda: cross_validate(d, value, 0, majority_learner()),
        lambda: cross_validate(d, 2, 0, majority_learner(), workers=value),
        lambda: kmeans_fit(d, k=value),
        lambda: kmeans_fit(d, k=2, max_iter=value),
        lambda: fit_imputed(d, k=value),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"must be an int of at least [12], got {value!r}"):
            call()


def test_copies_of_folds_see_only_their_own_rows(monkeypatch):
    d = _gappy(5, 120, False)
    train, test = stratified_folds(d, 3, 1)[0]
    build_tree(train)  # the parent now keeps its view
    assert view_of(train).root().rows.tolist() != list(range(len(train)))  # rows of the parent
    assert view_of(test).root().rows.tolist() == list(range(len(test)))
    # a nested fold reads the first parent's view through its own rows
    nested_folds = stratified_folds(train, 2, 2)
    encoded = []

    def record_view(view, dataset):
        encoded.append(dataset)
        real_init(view, dataset)

    real_init = columns_module.Columns.__init__
    monkeypatch.setattr(columns_module.Columns, "__init__", record_view)
    for nested, nested_test in nested_folds:
        encoded.clear()
        assert [*map(len, view_of(nested_test).columns)] == [len(nested_test)] * len(d.schema)
        assert len(view_of(nested).root().rows) == len(nested)
        assert encoded == [nested_test]  # and nothing for the nested train fold
        assert _models(nested) == _models(_fresh(nested))
    # imputed copies of a fold and of its parent link to neither view
    imputed = impute_missing(train)
    assert imputed.instances == impute_missing(_fresh(train)).instances
    assert view_of(imputed).root().rows.tolist() == list(range(len(train)))
    assert _models(imputed) == _models(_fresh(imputed))
    whole = impute_missing(d)
    for fold, _ in stratified_folds(whole, 3, 1):
        assert _models(fold) == _models(_fresh(fold))
        got, fresh = encode_dataset(fold), encode_dataset(_fresh(fold))
        assert got[0].tobytes() == fresh[0].tobytes() and got[1] == fresh[1]


def _no_child_left():
    # waitpid reaps a finished child or returns (0, 0) for a running one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 5]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([2, 3, "k + 1"]),
)
def test_forked_folds_give_the_serial_report(seed, k, fractional, stratify, workers):
    d = _gappy(seed, random.Random(seed).randint(20, 90), fractional)
    workers = k + 1 if workers == "k + 1" else workers
    folds = (stratified_folds if stratify else random_folds)(d, k, seed)
    for learner in (tree_learner(), rules_learner()):
        # the pooled lists, exact floats and fold order included, and so the report
        serial = _fold_predictions(folds, learner, d.class_index, 1)
        assert _fold_predictions(folds, learner, d.class_index, workers) == serial
        _no_child_left()
        forked = cross_validate(d, k, seed, learner, stratify, workers=workers)
        assert report_to_json(forked) == report_to_json(cross_validate(d, k, seed, learner, stratify))
        _no_child_left()


def _failing_learner(d, k, failing):
    """``tree_learner()`` that raises ValueError on the stratified folds ``failing``."""
    trains = [train.instances for train, _ in stratified_folds(d, k, 0)]
    fit = tree_learner()

    def learner(train):
        f = trains.index(train.instances)
        if f in failing:
            raise ValueError(f"fold {f} fails")
        return fit(train)

    return learner


@pytest.mark.parametrize(
    "failing",
    [{2}, {3}, {2, 3}, {1, 4}],
    ids=["this_process", "forked", "this_process_first", "forked_first"],
)
def test_a_failing_fold_raises_as_with_one_worker(failing):
    # 5 folds, 2 workers: this process fits folds 0, 2 and 4, the forked one 1 and 3
    d = _gappy(7, 60, False)
    raised = []
    for workers in (1, 2):
        with pytest.raises(ValueError) as caught:
            cross_validate(d, 5, 0, _failing_learner(d, 5, failing), workers=workers)
        raised.append((type(caught.value), str(caught.value)))
        _no_child_left()
    assert raised == [(ValueError, f"fold {min(failing)} fails")] * 2


def test_folds_of_a_worker_that_dies_are_fitted_here():
    d = _gappy(8, 60, False)
    fit, here = tree_learner(), os.getpid()

    def learner(train):
        if os.getpid() != here:
            os._exit(3)  # as if killed: nothing is sent
        return fit(train)

    forked = cross_validate(d, 5, 0, learner, workers=3)
    assert report_to_json(forked) == report_to_json(cross_validate(d, 5, 0, fit))
    _no_child_left()


def test_folds_a_worker_sent_are_not_fitted_here():
    # 5 folds, 2 workers: this process fits folds 0, 2 and 4 and takes 1 and 3 as sent
    d = _gappy(9, 60, False)
    trains = [train.instances for train, _ in stratified_folds(d, 5, 0)]
    fit, here, fitted = tree_learner(), os.getpid(), []

    def learner(train):
        if os.getpid() == here:
            fitted.append(trains.index(train.instances))
        return fit(train)

    forked = cross_validate(d, 5, 0, learner, workers=2)
    assert fitted == [0, 2, 4]
    assert report_to_json(forked) == report_to_json(cross_validate(d, 5, 0, fit))
    _no_child_left()


def test_folds_of_a_worker_that_dies_after_sending_one_are_fitted_here():
    # 5 folds, 2 workers: the forked one sends fold 1, then dies fitting fold 3
    d = _gappy(10, 60, False)
    trains = [train.instances for train, _ in stratified_folds(d, 5, 0)]
    fit, here, fitted = tree_learner(), os.getpid(), []

    def learner(train):
        fitted.append(trains.index(train.instances))  # a worker appends to its own copy
        if os.getpid() != here and len(fitted) == 2:
            os._exit(3)
        return fit(train)

    forked = cross_validate(d, 5, 0, learner, workers=2)
    assert fitted == [0, 2, 3, 4]
    assert report_to_json(forked) == report_to_json(cross_validate(d, 5, 0, fit))
    _no_child_left()


@pytest.mark.parametrize("refused", ["pipe", "fork", "second_fork"])
def test_a_refused_fork_leaves_the_folds_to_this_process(monkeypatch, refused):
    d = _gappy(11, 60, False)
    serial = report_to_json(cross_validate(d, 5, 0, tree_learner()))
    forks = []

    def refuse():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def fork_once():
        forks.append(1)
        return refuse() if len(forks) > 1 else _fork()

    if refused == "pipe":
        monkeypatch.setattr(os, "pipe", refuse)
    else:
        monkeypatch.setattr(evaluation_module, "_fork", fork_once if refused == "second_fork" else refuse)
    assert report_to_json(cross_validate(d, 5, 0, tree_learner(), workers=3)) == serial
    _no_child_left()


@pytest.mark.parametrize("workers", [0, -1, True, 1.5])
def test_workers_must_be_an_int_of_at_least_one(workers):
    with pytest.raises(ValueError, match="workers must be an int of at least 1"):
        cross_validate(_gappy(1, 30, False), 2, 0, majority_learner(), workers=workers)


def _forks_warned(fork):
    """The warnings that ``fork()`` gives while a second thread runs."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pid = fork()
            if pid == 0:
                os._exit(0)
    finally:
        release.set()
        thread.join(timeout=10)
    assert os.waitpid(pid, 0)[1] == 0
    return [str(w.message) for w in caught]


def test_forking_a_worker_gives_no_thread_warning():
    # Python 3.12+ warns on os.fork with threads; an "error" filter would not
    # show it, because CPython clears the error the warning raises
    assert _forks_warned(_fork) == []
    if sys.version_info >= (3, 12):
        assert len(_forks_warned(os.fork)) == 1


def _unlabelled_at(data, index):
    rows = list(data.instances)
    rows[index] = Instance(rows[index].values[:-1] + (None,))
    return Dataset(data.schema, data.class_index, rows, data.name)


_LABELLED = synthetic_checklist(10, 6, seed=4)


@pytest.mark.parametrize(
    "consume",
    [
        build_tree,
        lambda d: simplify_rules(extract_rules(build_tree(_LABELLED)), d),
        majority_learner(),
        lambda d: cross_validate(d, 2, 0, majority_learner(), stratify=False),
    ],
    ids=["build_tree", "simplify_rules", "majority_fit", "unstratified_cv"],
)
def test_missing_label_error_names_the_file_index(consume):
    with pytest.raises(ValueError, match=r"^instance 11 has a missing class value$"):
        consume(_unlabelled_at(_LABELLED, 11))


# --- rendering ------------------------------------------------------------------


def test_report_text_headline_and_table():
    report = per_class_metrics(MATRIX_125)
    text = report_text(report)
    lines = text.splitlines()
    assert lines[0] == "Correctly Classified Instances 97 Nos. 77.6 %"
    assert lines[1] == "Incorrectly Classified Instances 28 Nos. 22.4 %"
    header = next(l for l in lines if "TP Rate" in l)
    assert header.split("  ")[0].strip() == "TP Rate"
    assert "F-Measure" in header and "ROC Area" in header and "Class" in header
    n_row = next(l for l in lines if l.endswith(" N"))
    assert "0.840" in n_row and "0.419" in n_row and "0.849" in n_row
    assert "n/a" in n_row  # matrix alone cannot produce a ROC area
    assert "Confusion Matrix" in text


def test_report_json_round_trip():
    d = synthetic_checklist(60, 30, seed=5)
    report = cross_validate(d, k=2, seed=0, learner=tree_learner())
    back = report_from_json(report_to_json(report))
    assert back == report


def test_report_json_requires_version():
    import json

    report = per_class_metrics(MATRIX_125)
    doc = json.loads(report_to_json(report))
    assert doc["version"] == 1
    doc["version"] = 2
    with pytest.raises(ValueError):
        report_from_json(json.dumps(doc))


def test_report_json_preserves_none_roc():
    report = per_class_metrics(MATRIX_125)
    back = report_from_json(report_to_json(report))
    assert back.metrics_for("N").roc_area is None
