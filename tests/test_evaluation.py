"""Confusion metrics, ROC, cross-validation, and report formats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldscreen.dataset import AttributeSpec, Dataset, Instance, synthetic_checklist
from ldscreen.evaluation import (
    ClassMetrics,
    ConfusionMatrix,
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
from ldscreen.rules import extract_rules, simplify_rules
from ldscreen.tree import TreeConfig, build_tree

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


def roc_pairwise_oracle(scores, actual, positive):
    pos = [s for s, a in zip(scores, actual) if a == positive]
    neg = [s for s, a in zip(scores, actual) if a != positive]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


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
