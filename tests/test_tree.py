"""Split scoring, induction, pruning, classification, persistence."""

import ast
import contextlib
import io
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_digest import digest
from oracles import (
    apply_hidden,
    binary_dataset,
    hidden_tree,
    midpoint,
    partition_node_by_node,
    random_binary_dataset,
    random_mixed_dataset,
    recursive_distribution,
    reference_split_score,
    row_loop_tree,
    weighted_mixed_datasets,
)
from portable_digest import chain

import ldscreen
import ldscreen.tree as tree_module
from ldscreen.cli import main
from ldscreen.cluster import kmeans_fit
from ldscreen.columns import Columns, Level
from ldscreen.dataset import (
    AttributeSpec,
    Dataset,
    Instance,
    ParseError,
    class_tally,
    first_max,
    impute_missing,
    serialize_arff,
    synthetic_checklist,
    total,
)
from ldscreen.rules import extract_rules, simplify_rules
from ldscreen.tree import (
    Condition,
    Decision,
    DecisionTreeModel,
    Leaf,
    SplitCandidate,
    TreeConfig,
    branch_conditions,
    build_tree,
    classify,
    entropy,
    evaluate_split,
    model_from_json,
    model_to_json,
    prune_tree,
    training_accuracy,
    ucb_error_rate,
)
from ldscreen.tree import _UCB_TAU, _score, _screen, _screen_error, _screen_ucb


# --- entropy -----------------------------------------------------------------


def test_entropy_pure():
    assert entropy([5, 0]) == 0.0


def test_entropy_even_split():
    assert entropy([1, 1]) == 1.0


def test_entropy_9_5():
    assert entropy([9, 5]) == pytest.approx(0.940286, abs=1e-6)


def test_entropy_rejects_zero_total():
    with pytest.raises(ValueError):
        entropy([0.0, 0.0])


# --- evaluate_split ----------------------------------------------------------


def test_perfect_binary_split():
    d = binary_dataset(
        [["1", "Y"], ["1", "Y"], ["0", "N"], ["0", "N"]], 1, ("Y", "N")
    )
    cand = evaluate_split(d, 0)
    assert cand.valid
    assert cand.info_gain == pytest.approx(1.0)
    assert cand.intrinsic_value == pytest.approx(1.0)
    assert cand.gain_ratio == pytest.approx(1.0)


def test_constant_attribute_invalid():
    d = binary_dataset([["1", "Y"], ["1", "N"], ["1", "Y"]], 1, ("Y", "N"))
    cand = evaluate_split(d, 0)
    assert not cand.valid
    assert cand.intrinsic_value == 0.0


def test_split_on_class_rejected():
    d = binary_dataset([["1", "Y"], ["0", "N"]], 1, ("Y", "N"))
    with pytest.raises(ValueError):
        evaluate_split(d, 1)


def test_numeric_split_needs_threshold():
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    d = Dataset(schema, 1, (Instance((1.0, "A")), Instance((2.0, "B"))))
    with pytest.raises(ValueError):
        evaluate_split(d, 0)
    cand = evaluate_split(d, 0, threshold=1.5)
    assert cand.gain_ratio == pytest.approx(1.0)


@pytest.mark.parametrize("index", [-1, 2, 99])
def test_split_index_outside_schema_rejected(index):
    # -1 would name the class attribute from the end
    d = binary_dataset([["1", "Y"], ["0", "N"]], 1, ("Y", "N"))
    with pytest.raises(ValueError, match="out of range"):
        evaluate_split(d, index)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, "abc"])
def test_numeric_split_needs_finite_threshold(threshold):
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    d = Dataset(schema, 1, (Instance((1.0, "A")), Instance((2.0, "B"))))
    with pytest.raises(ValueError, match="finite threshold"):
        evaluate_split(d, 0, threshold)


def test_split_matches_reference_on_random_data():
    rng = random.Random(7)
    for _ in range(40):
        d = random_binary_dataset(rng, rng.randint(5, 20), rng.randint(2, 4))
        for i in range(len(d.schema) - 1):
            cand = evaluate_split(d, i)
            ref = reference_split_score(d, i, None)
            if ref is None:
                assert not cand.valid
                continue
            assert cand.info_gain == pytest.approx(ref[0], abs=1e-9)
            assert cand.intrinsic_value == pytest.approx(ref[1], abs=1e-9)
            assert cand.gain_ratio == pytest.approx(ref[2], abs=1e-9)


@pytest.mark.parametrize("threshold", [None, 0.5])
def test_split_on_an_all_missing_attribute_is_invalid(threshold):
    # no known weight: the single-branch test decides before any entropy is taken
    spec = AttributeSpec.categorical("a", ("0", "1")) if threshold is None else AttributeSpec.numeric("a")
    schema = (spec, AttributeSpec.categorical("cls", ("N", "Y")))
    d = Dataset(schema, 1, (Instance((None, "Y")), Instance((None, "N")), Instance((None, "Y"))))
    assert evaluate_split(d, 0, threshold) == SplitCandidate(0, threshold, 0.0, 0.0, 0.0, False)


def test_split_handles_missing_values():
    # missing rows drop out of IG/IV; gain is scaled by the known fraction
    d = Dataset(
        (
            AttributeSpec.categorical("a", ("0", "1")),
            AttributeSpec.categorical("cls", ("N", "Y")),
        ),
        1,
        (
            Instance(("1", "Y")),
            Instance(("1", "Y")),
            Instance(("0", "N")),
            Instance(("0", "N")),
            Instance((None, "Y")),
        ),
    )
    cand = evaluate_split(d, 0)
    assert cand.info_gain == pytest.approx(0.8)  # 4/5 of the 1-bit gain
    assert cand.intrinsic_value == pytest.approx(1.0)


def test_weight_scaling_leaves_scores_unchanged():
    rng = random.Random(3)
    d = random_binary_dataset(rng, 15, 3)
    reweighted = [Instance(i.values, i.weight * 3.7) for i in d.instances]
    scaled = Dataset(d.schema, d.class_index, reweighted, d.name)
    for i in range(3):
        a, b = evaluate_split(d, i), evaluate_split(scaled, i)
        assert a.info_gain == pytest.approx(b.info_gain, abs=1e-9)
        assert a.intrinsic_value == pytest.approx(b.intrinsic_value, abs=1e-9)


# --- build_tree --------------------------------------------------------------


def test_planted_single_attribute_rule():
    rng = random.Random(1)
    rows = []
    for _ in range(60):
        a = rng.choice("01")
        rows.append([a, rng.choice("01"), rng.choice("01"), "Y" if a == "1" else "N"])
    d = binary_dataset(rows, 3)
    m = build_tree(d, TreeConfig(pruning=False))
    assert isinstance(m.root, Decision)
    assert m.root.attribute_index == 0
    assert training_accuracy(m, d) == 1.0


def test_single_class_gives_lone_leaf():
    d = binary_dataset([["0", "Y"], ["1", "Y"], ["0", "Y"]], 1, ("Y", "N"))
    m = build_tree(d)
    assert isinstance(m.root, Leaf)
    assert m.root.predicted_index == 0


def test_min_leaf_weight_bounds_the_node_split_not_the_leaf():
    # the default of 2: a node lighter than 4 stays a leaf, but a node of
    # weight 4 splits 1 + 3, so an unpruned leaf weighs 1
    rows = [["0", "N"], ["1", "Y"], ["1", "Y"]]
    assert isinstance(build_tree(binary_dataset(rows, 1), TreeConfig(pruning=False)).root, Leaf)
    m = build_tree(binary_dataset(rows + [["1", "Y"]], 1), TreeConfig(pruning=False))
    assert isinstance(m.root, Decision)
    assert sorted(child.weight for child in m.root.children) == [1.0, 3.0]


# --- departures from C4.5 and J48 (README "Differences from C4.5 and J48") ------


def test_numeric_threshold_gain_has_no_mdl_penalty():
    # x, with eight distinct values, cuts the rows as the binary b does; C4.5
    # release 8 would take log2(7) / 8 off x's gain, and b would win
    schema = (
        AttributeSpec.numeric("x"),
        AttributeSpec.categorical("b", ("lo", "hi")),
        AttributeSpec.categorical("c", ("A", "B")),
    )
    labels = ["A", "A", "A", "B", "B", "B", "B", "A"]
    rows = [Instance((v, "lo" if v <= 3 else "hi", c)) for v, c in zip(range(1, 9), labels)]
    d = Dataset(schema, 2, rows)
    numeric, nominal = evaluate_split(d, 0, 3.5), evaluate_split(d, 1)
    assert (numeric.info_gain, numeric.gain_ratio) == (nominal.info_gain, nominal.gain_ratio)
    root = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False)).root
    assert (root.attribute_index, root.threshold) == (0, 3.5)


def test_no_average_gain_filter_before_the_gain_ratio():
    # id, one value per row, has gain 1 and ratio 1 / log2(20); b has the
    # higher ratio but a gain below the average of the two, so C4.5 would
    # not consider it
    ids = tuple(f"v{r}" for r in range(20))
    schema = (
        AttributeSpec.categorical("id", ids),
        AttributeSpec.categorical("b", ("u", "v")),
        AttributeSpec.categorical("c", ("A", "B")),
    )
    labels = ["A"] * 10 + ["B"] * 10
    rows = [Instance((ids[r], "u" if r < 3 else "v", labels[r])) for r in range(20)]
    d = Dataset(schema, 2, rows)
    by_id, by_b = evaluate_split(d, 0), evaluate_split(d, 1)
    assert by_b.info_gain < (by_id.info_gain + by_b.info_gain) / 2
    assert by_b.gain_ratio > by_id.gain_ratio
    assert build_tree(d, TreeConfig(pruning=False)).root.attribute_index == 1


def test_unpruned_tree_keeps_a_split_that_leaves_training_errors_unchanged():
    # both branches predict the parent's class A, with 1 + 4 errors against
    # its 5; J48 collapses such a split unless -O is given
    rows = [["p", "A"]] * 9 + [["p", "B"]] + [["q", "A"]] * 6 + [["q", "B"]] * 4
    schema = (AttributeSpec.categorical("x", ("p", "q")), AttributeSpec.categorical("c", ("A", "B")))
    d = Dataset(schema, 1, tuple(Instance(tuple(r)) for r in rows))
    root = build_tree(d, TreeConfig(pruning=False)).root
    assert isinstance(root, Decision)
    assert [child.predicted_index for child in root.children] == [0, 0]


def test_empty_dataset_rejected():
    d = binary_dataset([], 1)
    with pytest.raises(ValueError):
        build_tree(d)


def test_no_feature_attributes_rejected():
    schema = (AttributeSpec.categorical("cls", ("N", "Y")),)
    d = Dataset(schema, 0, (Instance(("N",)),))
    with pytest.raises(ValueError):
        build_tree(d)


def test_missing_class_value_rejected():
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    d = Dataset(schema, 1, (Instance(("0", None)),))
    with pytest.raises(ValueError):
        build_tree(d)


def test_numeric_root_picks_midpoint():
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    rows = [(1.0, "A"), (2.0, "A"), (3.0, "B"), (4.0, "B")]
    d = Dataset(schema, 1, tuple(Instance(r) for r in rows))
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
    assert isinstance(m.root, Decision)
    assert m.root.threshold == pytest.approx(2.5)


def test_split_tie_prefers_lower_attribute_index():
    # the duplicated column ties with itself and beats the weak column
    pair = ["0", "0", "1", "1", "0"]
    weak = ["1", "0", "1", "0", "1"]
    labels = ["N", "N", "Y", "Y", "Y"]
    for columns, expected in (((pair, pair, weak), 0), ((weak, pair, pair), 1)):
        rows = [list(r) for r in zip(*columns, labels)]
        m = build_tree(binary_dataset(rows, 3), TreeConfig(pruning=False))
        assert m.root.attribute_index == expected


def test_numeric_split_tie_prefers_lower_threshold():
    # 1.5 and 3.5 cut off one A each, mirror images with equal gain ratio
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    rows = [(1.0, "A"), (2.0, "B"), (3.0, "B"), (4.0, "A")]
    d = Dataset(schema, 1, tuple(Instance(r) for r in rows))
    assert evaluate_split(d, 0, 1.5).gain_ratio == evaluate_split(d, 0, 3.5).gain_ratio
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
    assert m.root.threshold == 1.5


def test_midpoint_rounding_onto_upper_value_splits_literally():
    # a and b are adjacent floats whose midpoint rounds up to b itself, so
    # the test "x <= midpoint" sends the b rows left with the a rows
    a = math.nextafter(1.0, 2.0)
    b = math.nextafter(a, 2.0)
    mid = (a + b) / 2
    assert mid == b
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    rows = [(a, "A"), (b, "B"), (5.0, "B"), (a, "A"), (b, "B"), (5.0, "B")]
    d = Dataset(schema, 1, tuple(Instance(r) for r in rows))
    cand = evaluate_split(d, 0, mid)
    assert (cand.info_gain, cand.intrinsic_value, cand.gain_ratio) == pytest.approx(
        reference_split_score(d, 0, mid), abs=1e-12
    )
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
    assert m.root.threshold == mid
    assert m.root.branch_weights == (4.0, 2.0)


def test_fractional_branch_tally_never_negative():
    # class A weighs 0.3 + 0.2 + 0.1 = 0.6 in row order but 0.6000000000000001
    # in ascending x order, so "parent - left" would leave A at -1.1e-16 on
    # the right branch
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    rows = [((3.0, "A"), 0.3), ((2.0, "A"), 0.2), ((1.0, "A"), 0.1), ((4.0, "B"), 1.0)]
    d = Dataset(schema, 1, tuple(Instance(v, w) for v, w in rows))
    assert (0.3 + 0.2 + 0.1) - (0.1 + 0.2 + 0.3) < 0
    cand = evaluate_split(d, 0, 3.5)
    assert cand.valid
    assert (cand.info_gain, cand.intrinsic_value, cand.gain_ratio) == pytest.approx(
        reference_split_score(d, 0, 3.5), abs=1e-12
    )
    m = build_tree(d, TreeConfig(min_leaf_weight=0.1, pruning=False))
    assert m.root.threshold == 3.5


def test_depth3_rule_learned_exactly():
    rng = random.Random(0)
    rule = hidden_tree(rng, list(range(8)), 3)
    rows = []
    for _ in range(500):
        v = tuple(rng.choice("01") for _ in range(8))
        rows.append(list(v) + [apply_hidden(rule, v)])
    d = binary_dataset(rows, 8)
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
    for v in itertools.product("01", repeat=8):
        label, _ = classify(m, v + (None,))
        assert label == apply_hidden(rule, v)


def test_nominal_attribute_tested_once_per_path():
    rng = random.Random(5)
    d = random_binary_dataset(rng, 80, 4)
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))

    def walk(node, seen):
        if isinstance(node, Leaf):
            return
        assert node.attribute_index not in seen
        for child in node.children:
            walk(child, seen | {node.attribute_index})

    walk(m.root, frozenset())


def test_branch_conditions_follow_branch_order():
    schema = (
        AttributeSpec.categorical("s", ("c", "a", "b")),
        AttributeSpec.numeric("x"),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    # declared values in declaration order, not sorted
    assert branch_conditions(schema, 0, None) == [
        Condition(0, "=", "c"),
        Condition(0, "=", "a"),
        Condition(0, "=", "b"),
    ]
    assert branch_conditions(schema, 1, 2.5) == [Condition(1, "<=", 2.5), Condition(1, ">", 2.5)]


def test_split_choice_invariant_to_instance_order():
    rng = random.Random(9)
    d = random_binary_dataset(rng, 40, 4)
    m1 = build_tree(d, TreeConfig(pruning=False))
    shuffled = list(d.instances)
    rng.shuffle(shuffled)
    m2 = build_tree(
        Dataset(d.schema, d.class_index, shuffled, d.name), TreeConfig(pruning=False)
    )
    if isinstance(m1.root, Decision):
        assert m1.root.attribute_index == m2.root.attribute_index


@pytest.mark.parametrize("extremes", [False, True])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_root_is_first_max_over_evaluate_split(extremes, data):
    # growth scores candidates as evaluate_split does, bit for bit, in
    # generation order: attribute index, then ascending midpoint
    d = data.draw(weighted_mixed_datasets(extremes))
    config = TreeConfig(pruning=False)
    root = build_tree(d, config).root
    candidates = []
    for i in d.feature_indices:
        if d.schema[i].is_categorical:
            candidates.append(evaluate_split(d, i))
        else:
            known = sorted({v for v in d.column(i) if v is not None})
            midpoints = [midpoint(a, b) for a, b in zip(known, known[1:])]
            candidates += [evaluate_split(d, i, t) for t in midpoints]
    useful = [c for c in candidates if c.valid and c.info_gain > 1e-12]
    counts = class_tally(d.rows, d.schema, d.class_index)
    pure = sum(1 for c in counts if c > 0) <= 1
    if pure or sum(counts) < 2 * config.min_leaf_weight or not useful:
        assert isinstance(root, Leaf)
    else:
        best = useful[first_max([c.gain_ratio for c in useful])]
        assert isinstance(root, Decision)
        assert root.attribute_index == best.attribute_index
        assert root.threshold == best.threshold


def _with_signed_zeros(d):
    """``d`` with every numeric value in (-0.5, 0.5) made -0.0 or 0.0 by row."""
    numeric = [i for i, spec in enumerate(d.schema) if not spec.is_categorical]
    instances = []
    for row, inst in enumerate(d.instances):
        values = list(inst.values)
        for i in numeric:
            if values[i] is not None and abs(values[i]) < 0.5:
                values[i] = -0.0 if row % 2 else 0.0
        instances.append(Instance(tuple(values), inst.weight))
    return Dataset(d.schema, d.class_index, instances, d.name)


@pytest.mark.parametrize("extremes", [False, True])
@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.booleans(),
    st.booleans(),
)
def test_growth_equals_row_loop_oracle(extremes, data, min_leaf_weight, unit_weights, signed_zeros):
    # the whole unpruned tree, every number included, not only the root
    d = data.draw(weighted_mixed_datasets(extremes))
    if unit_weights:
        unit = [Instance(inst.values, 1.0) for inst in d.instances]
        d = Dataset(d.schema, d.class_index, unit, d.name)
    if signed_zeros:
        d = _with_signed_zeros(d)
    config = TreeConfig(min_leaf_weight=min_leaf_weight, pruning=False)
    model = build_tree(d, config)
    oracle = DecisionTreeModel(d.schema, d.class_index, row_loop_tree(d, config), config)
    assert model_to_json(model) == model_to_json(oracle)


@settings(max_examples=100, deadline=None)
@given(weighted_mixed_datasets(extremes=True))
def test_whole_range_values_pass_every_stage(d):
    # numbers from the edges of the float range, with warnings as errors:
    # only imputation and K-means may refuse them, each with one line
    model = prune_tree(build_tree(d, TreeConfig(pruning=False)))
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text
    simplify_rules(extract_rules(model), d)
    try:
        kmeans_fit(impute_missing(d))
    except ValueError as err:
        assert str(err) and "\n" not in str(err)


def test_model_digest_is_the_same_on_every_run():
    # the byte-identity check that a speed-up of learning must pass:
    # the script and the function give one digest for the same datasets
    src = str(Path(ldscreen.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("model_digest.py")), "--datasets", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
    assert done.stdout == digest(3) + "\n"
    assert len(done.stdout) == 65


@st.composite
def screened_midpoints(draw):
    """The midpoint Candidates of one numeric column at a root, with 2-4 classes.

    Weights mix 1, fractional values, large ones and values down to
    1e-12, so that a branch's share falls to about 1e-12 and one side of
    a cut can be nearly empty; some values are missing.
    """
    classes = "PQRS"[: draw(st.integers(2, 4))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = (
        lambda: 1.0,
        lambda: rng.uniform(0.01, 100.0),
        lambda: rng.uniform(1e-12, 1e-6),
        lambda: rng.uniform(1e3, 1e6),
    )
    instances = [
        Instance(
            (None if rng.random() < 0.1 else rng.randint(0, 24) / 4, rng.choice(classes)),
            rng.choice(weights)(),
        )
        for _ in range(rng.randint(2, 60))
    ]
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", classes))
    return Columns(Dataset(schema, 1, instances)).root().midpoints(0, 0)


@settings(max_examples=300, deadline=None)
@given(screened_midpoints())
def test_screen_is_within_its_error_bound(splits):
    error = _screen_error(splits.parent.shape[1])
    gain, iv, valid = _screen(splits)
    exact = [_score(splits, c) for c in range(len(splits.thresholds))]
    assert valid.tolist() == [c.valid for c in exact]
    for j, c in enumerate(exact):
        if c.valid:
            assert abs(gain[j] - c.info_gain) <= error
            assert abs(iv[j] - c.intrinsic_value) <= error


def test_tied_numeric_splits_resolve_to_the_first_max():
    # x1 repeats x0, and x2 mirrors x0 around 4.5; in each column the cuts
    # at 2.5 and 6.5 set two A rows apart, so six candidates tie
    x0 = [1, 2, 3, 4, 5, 6, 7, 8]
    labels = ["A", "A", "B", "B", "B", "B", "A", "A"]
    schema = tuple(AttributeSpec.numeric(f"x{i}") for i in range(3))
    schema += (AttributeSpec.categorical("c", ("A", "B")),)
    rows = [Instance((v, v, 9 - v, c)) for v, c in zip(x0, labels)]
    d = Dataset(schema, 3, rows)
    candidates = [
        evaluate_split(d, i, t) for i in range(3) for t in (1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5)
    ]
    best = first_max([c.gain_ratio for c in candidates])
    assert sum(c.gain_ratio == candidates[best].gain_ratio for c in candidates) == 6
    root = build_tree(d, TreeConfig(pruning=False)).root
    assert (root.attribute_index, root.threshold) == (0, 2.5)
    assert (root.attribute_index, root.threshold) == (
        candidates[best].attribute_index,
        candidates[best].threshold,
    )


def test_screen_scores_few_midpoints_exactly(monkeypatch):
    # scoring every midpoint exactly again would fail this, with no timing
    rng = random.Random(5)
    schema = tuple(AttributeSpec.numeric(f"x{i}") for i in range(5))
    schema += (AttributeSpec.categorical("c", ("neg", "pos")),)
    rows = []
    for _ in range(1000):
        x = [rng.randint(0, 400) / 4 for _ in range(5)]
        label = "pos" if x[0] + x[1] > 100 else "neg"
        if rng.random() < 0.1:
            label = "neg" if label == "pos" else "pos"
        rows.append(Instance(tuple(x) + (label,)))
    seen = {"midpoints": 0, "scored": 0}

    def count_midpoints(level, i, j, thresholds=None):
        splits = real_midpoints(level, i, j, thresholds)
        seen["midpoints"] += len(splits.thresholds)
        return splits

    def count_scored(splits, c):
        seen["scored"] += 1
        return real_score(splits, c)

    real_midpoints, real_score = Level.midpoints, tree_module._score
    monkeypatch.setattr(Level, "midpoints", count_midpoints)
    monkeypatch.setattr(tree_module, "_score", count_scored)
    model = build_tree(Dataset(schema, 5, rows), TreeConfig(pruning=False))
    assert model.node_count() > 20
    assert 0 < seen["scored"] < seen["midpoints"] / 100


def level_of(view, nodes):
    """The Level of ``nodes``, each a node's row positions in ``view`` and their weights."""
    weights = [np.asarray(w, float) for _, w in nodes]
    return Level(
        view,
        np.concatenate([np.asarray(rows, np.intp) for rows, _ in nodes]),
        np.concatenate(weights),
        np.repeat(np.arange(len(nodes)), [len(w) for w in weights]),
        np.array([total(w.tolist()) for w in weights]),
    )


@st.composite
def numeric_levels(draw):
    """A view of two numeric columns and 1-6 nodes of its rows, with 2-4 classes.

    Values are quarter steps, a tenth of them blank.  A node takes some
    rows in any order at weights mixing 1, fractional values, large ones
    and values down to 1e-12, scaled as a fractional branch scales them.
    """
    classes = "PQRS"[: draw(st.integers(2, 4))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = (
        lambda: 1.0,
        lambda: rng.uniform(0.01, 100.0),
        lambda: rng.uniform(1e-12, 1e-6),
        lambda: rng.uniform(1e3, 1e6),
    )
    schema = (AttributeSpec.numeric("x0"), AttributeSpec.numeric("x1"))
    schema += (AttributeSpec.categorical("c", classes),)
    instances = [
        Instance(
            tuple(None if rng.random() < 0.1 else rng.randint(-12, 12) / 4 for _ in range(2))
            + (rng.choice(classes),),
            rng.choice(weights)(),
        )
        for _ in range(rng.randint(1, 60))
    ]
    view = Columns(Dataset(schema, 2, instances))
    nodes = []
    for _ in range(rng.randint(1, 6)):
        rows = rng.sample(range(len(instances)), rng.randint(1, len(instances)))
        scale = rng.choice((1.0, rng.uniform(1e-3, 1.0)))
        nodes.append((rows, view.weights[rows] * scale))
    return view, nodes


@settings(max_examples=300, deadline=None)
@given(numeric_levels())
def test_midpoints_at_a_node_equal_that_node_alone(drawn):
    view, nodes = drawn
    level = level_of(view, nodes)
    fields = ("attributes", "thresholds", "branches", "parent", "known_w", "total_w")
    for j, node in enumerate(nodes):
        alone = level_of(view, [node])
        for i in range(2):
            got, expected = level.midpoints(i, j), alone.midpoints(i, 0)
            assert got.nodes.tolist() == [j] * len(got.thresholds)
            for field in fields:
                a, b = getattr(got, field), getattr(expected, field)
                where = f"node {j}, attribute {i}, {field}"
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where


@st.composite
def screened_level(draw):
    """The schema and a nominal Candidates table of three attributes at 1-6 nodes of one level.

    Each attribute declares 1-5 values, a tenth of its cells are blank,
    and there are 2-4 classes.  Each node takes some rows of one dataset
    at weights mixing 1, fractional values, large ones and values down to
    1e-12, scaled as a fractional branch scales them.
    """
    classes = "PQRS"[: draw(st.integers(2, 4))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = (
        lambda: 1.0,
        lambda: rng.uniform(0.01, 100.0),
        lambda: rng.uniform(1e-12, 1e-6),
        lambda: rng.uniform(1e3, 1e6),
    )
    schema = tuple(
        AttributeSpec.categorical(f"s{i}", "ABCDE"[: rng.randint(1, 5)]) for i in range(3)
    ) + (AttributeSpec.categorical("c", classes),)
    instances = [
        Instance(
            tuple(None if rng.random() < 0.1 else rng.choice(a.values) for a in schema[:3])
            + (rng.choice(classes),),
            rng.choice(weights)(),
        )
        for _ in range(rng.randint(1, 60))
    ]
    root = Columns(Dataset(schema, 3, instances)).root()
    nodes = []
    for _ in range(rng.randint(1, 6)):
        rows = sorted(rng.sample(range(len(instances)), rng.randint(1, len(instances))))
        scale = rng.choice((1.0, rng.uniform(1e-3, 1.0)))
        nodes.append((root.rows[rows], root.weights[rows] * scale))
    return schema, level_of(root.view, nodes).nominal({i: list(range(len(nodes))) for i in range(3)})


@settings(max_examples=300, deadline=None)
@given(screened_level())
def test_nominal_screen_is_within_its_error_bound(drawn):
    schema, nominal = drawn
    gain, iv, valid = _screen(nominal)
    for c, i in enumerate(nominal.attributes.tolist()):
        exact = _score(nominal, c)
        error = _screen_error(nominal.parent.shape[1], len(branch_conditions(schema, i, None)))
        assert valid[c] == exact.valid
        if exact.valid:
            assert abs(gain[c] - exact.info_gain) <= error
            assert abs(iv[c] - exact.intrinsic_value) <= error


@st.composite
def screened_mixed_level(draw):
    """The schema and Candidates table of nominal and numeric attributes at 1-6 nodes of one level.

    One nominal attribute declares 5 values and one 1-5, so every numeric
    candidate's two branches are padded to 5.  Two numeric attributes
    take a quarter-step value or a blank, a tenth of all cells are blank,
    and there are 2-4 classes.  Each node takes some rows of one dataset
    at weights mixing 1, fractional values, large ones and values down to
    1e-12, scaled as a fractional branch scales them, and each attribute
    is a candidate at some of the nodes.
    """
    classes = "PQRS"[: draw(st.integers(2, 4))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = (
        lambda: 1.0,
        lambda: rng.uniform(0.01, 100.0),
        lambda: rng.uniform(1e-12, 1e-6),
        lambda: rng.uniform(1e3, 1e6),
    )
    schema = (
        AttributeSpec.numeric("x0"),
        AttributeSpec.categorical("s1", "ABCDE"),
        AttributeSpec.numeric("x2"),
        AttributeSpec.categorical("s3", "ABCDE"[: rng.randint(1, 5)]),
        AttributeSpec.categorical("c", classes),
    )

    def cell(spec):
        if rng.random() < 0.1:
            return None
        return rng.choice(spec.values) if spec.is_categorical else rng.randint(0, 24) / 4

    instances = [
        Instance(tuple(cell(a) for a in schema[:4]) + (rng.choice(classes),), rng.choice(weights)())
        for _ in range(rng.randint(1, 60))
    ]
    root = Columns(Dataset(schema, 4, instances)).root()
    nodes = []
    for _ in range(rng.randint(1, 6)):
        rows = sorted(rng.sample(range(len(instances)), rng.randint(1, len(instances))))
        scale = rng.choice((1.0, rng.uniform(1e-3, 1.0)))
        nodes.append((root.rows[rows], root.weights[rows] * scale))
    at = {i: sorted(rng.sample(range(len(nodes)), rng.randint(1, len(nodes)))) for i in range(4)}
    return schema, level_of(root.view, nodes).candidates(at)


@settings(max_examples=300, deadline=None)
@given(screened_mixed_level())
def test_mixed_screen_is_within_its_error_bound(drawn):
    # numeric candidates padded next to nominal ones, at every node of a level
    schema, splits = drawn
    assert splits.branches.shape[1:] == (5, splits.parent.shape[1])
    gain, iv, valid = _screen(splits)
    for c, i in enumerate(splits.attributes.tolist()):
        exact = _score(splits, c)
        error = _screen_error(splits.parent.shape[1], len(branch_conditions(schema, i, None)))
        assert valid[c] == exact.valid
        if exact.valid:
            assert abs(gain[c] - exact.info_gain) <= error
            assert abs(iv[c] - exact.intrinsic_value) <= error


def test_growth_screens_nominal_candidates_once_per_level(monkeypatch):
    # tallying node by node, or scoring every nominal candidate exactly,
    # would fail this, with no timing
    d = synthetic_checklist(1500, 500, seed=3, missing_rate=0.1)
    seen = {"passes": 0, "screened": 0, "scored": 0}

    def count_nominal(level, at):
        nominal = real_nominal(level, at)
        seen["passes"] += 1
        seen["screened"] += len(nominal.nodes)
        return nominal

    def count_scored(splits, c):
        seen["scored"] += math.isnan(splits.thresholds[c])
        return real_score(splits, c)

    real_nominal, real_score = Level.nominal, tree_module._score
    monkeypatch.setattr(Level, "nominal", count_nominal)
    monkeypatch.setattr(tree_module, "_score", count_scored)
    model = build_tree(d, TreeConfig(pruning=False))
    depth = max(len(conditions) for conditions, _ in tree_module._paths(model.root, d.schema))
    assert model.node_count() > 100
    assert 0 < seen["passes"] <= depth + 1
    assert 0 < seen["scored"] < seen["screened"] / 4


def test_growth_screens_each_level_once(monkeypatch):
    # screening numeric attributes node by node would fail this, with no timing
    d = random_mixed_dataset(random.Random(3), 1000, 1, 6, missing_rate=0.1)
    seen = {"screens": 0}

    def count_screen(splits):
        seen["screens"] += 1
        return real_screen(splits)

    real_screen = tree_module._screen
    monkeypatch.setattr(tree_module, "_screen", count_screen)
    model = build_tree(d, TreeConfig(pruning=False))
    depth = max(len(conditions) for conditions, _ in tree_module._paths(model.root, d.schema))
    assert model.node_count() > 100
    assert 0 < seen["screens"] <= depth + 1


def test_growth_partitions_each_level_once(monkeypatch):
    # partitioning node by node would fail this, with no timing
    d = synthetic_checklist(1500, 500, seed=3, missing_rate=0.1)
    seen = {"passes": 0, "splits": 0}

    def count_partition(level, tests):
        seen["passes"] += 1
        seen["splits"] += len(tests)
        return real_partition(level, tests)

    real_partition = Level.partition
    monkeypatch.setattr(Level, "partition", count_partition)
    model = build_tree(d, TreeConfig(pruning=False))
    paths = list(tree_module._paths(model.root, d.schema))
    depth = max(len(conditions) for conditions, _ in paths)
    assert model.node_count() > 100
    assert 0 < seen["passes"] <= depth + 1
    assert seen["splits"] == sum(isinstance(node, Decision) for _, node in paths)


def assert_partition_is_node_by_node(d, nodes, tests):
    """``Level.partition`` of ``nodes`` by ``tests`` against ``oracles.partition_node_by_node``.

    ``nodes`` holds each node's rows and weights.  Rows and weights must
    agree bit for bit, and so must each child's weight and class counts.
    """
    view = Columns(d)
    level = level_of(view, nodes)
    below, branch_weights = level.partition(tests)
    counts = below.class_counts()
    k = 0  # the children of positive weight are the nodes of ``below``, in order
    for (j, i, _), branches, weights in zip(tests, partition_node_by_node(d, nodes, tests), branch_weights):
        expected = [total(w for _, w in pairs) for pairs in branches]
        assert list(map(float.hex, weights)) == list(map(float.hex, expected)), f"node {j}"
        for b, pairs in enumerate(branches):
            if expected[b] <= 0:
                continue
            child = below.node == k
            where = f"node {j}, attribute {i}, branch {b}"
            got = list(zip(below.rows[child].tolist(), map(float.hex, below.weights[child].tolist())))
            assert got == [(row, float(w).hex()) for row, w in pairs], where
            assert below.weights[child].tobytes() == np.array([w for _, w in pairs]).tobytes(), where
            assert float(below.total_w[k]).hex() == expected[b].hex(), where
            rows = [(d.instances[row].values, w) for row, w in pairs]
            assert counts[k].tolist() == class_tally(rows, d.schema, d.class_index), where
            k += 1
    assert k == len(below.total_w)


def test_partition_is_node_by_node_at_edge_cases():
    schema = (
        AttributeSpec.categorical("s", "ABC"),
        AttributeSpec.numeric("x"),
        AttributeSpec.categorical("t", "AB"),
        AttributeSpec.categorical("c", "PQ"),
    )
    values = [
        ("A", -0.0, "A", "P"),
        ("B", 0.0, "B", "Q"),
        (None, 0.5, None, "P"),
        ("A", -0.5, "B", "Q"),
        ("B", None, "A", "P"),
        (None, 0.0, "B", "Q"),
        ("B", -0.0, None, "Q"),
        (None, None, "B", "P"),
    ]
    d = Dataset(schema, 3, [Instance(v) for v in values])
    nodes = [
        # s: no known C, so C takes no blank row; weights 1e-12 to 1e6
        ([0, 1, 2, 3, 5, 7], [1e-12, 1e6, 3.0, 0.1, 2.5e-7, 1e6]),
        # s: every known value is B, so B takes every blank row
        ([1, 2, 4, 5, 6], [0.3, 1e-12, 7.0, 1e6, 0.1]),
        # x at 0.0 and at -0.0: a signed zero is <= either
        ([0, 1, 2, 3, 4, 5, 6], [1.0, 0.25, 1e6, 1e-12, 3.5, 0.1, 2.0]),
        ([0, 1], [1.0, 1.0]),  # does not split: none of its rows goes on
        ([7, 0, 6, 1, 5, 3], [0.5, 1e-9, 4.0, 1e5, 0.7, 0.3]),
        # t: branch A holds one row of weight 0.0 alone, so it weighs 0
        ([0, 1, 2, 3], [0.0, 1.5, 5e-324, 2.0]),
    ]
    tests = [(0, 0, None), (1, 0, None), (2, 1, 0.0), (4, 1, -0.0), (5, 2, None)]
    assert_partition_is_node_by_node(d, nodes, tests)


@st.composite
def partitioned_levels(draw):
    """A dataset, 1-6 nodes of its rows and a test at some of them.

    Attributes are nominal of 1-4 values or numeric with signed zeros, a
    fifth of the cells are blank, and weights mix 1, fractional values,
    large ones and values down to 1e-12.  A node takes its rows in any
    order, and a numeric test's threshold is one of the column's values.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    schema = tuple(
        AttributeSpec.numeric(f"x{i}") if rng.random() < 0.5
        else AttributeSpec.categorical(f"s{i}", "ABCD"[: rng.randint(1, 4)])
        for i in range(3)
    ) + (AttributeSpec.categorical("c", "PQR"),)
    cells = lambda spec: spec.values if spec.is_categorical else (-1.0, -0.0, 0.0, 0.5, 2.0)
    instances = [
        Instance(tuple(None if rng.random() < 0.2 else rng.choice(cells(a)) for a in schema[:3])
                 + (rng.choice("PQR"),))
        for _ in range(rng.randint(1, 30))
    ]
    weights = (lambda: 1.0, lambda: rng.uniform(0.01, 100.0),
               lambda: rng.uniform(1e-12, 1e-6), lambda: rng.uniform(1e3, 1e6))
    nodes = []
    for _ in range(rng.randint(1, 6)):
        rows = rng.sample(range(len(instances)), rng.randint(1, len(instances)))
        nodes.append((rows, [rng.choice(weights)() for _ in rows]))
    tests = []
    for j in sorted(rng.sample(range(len(nodes)), rng.randint(1, len(nodes)))):
        i = rng.randrange(3)
        tests.append((j, i, None if schema[i].is_categorical else rng.choice(cells(schema[i]))))
    return Dataset(schema, 3, instances), nodes, tests


@settings(max_examples=300, deadline=None)
@given(partitioned_levels())
def test_partition_is_node_by_node(level):
    assert_partition_is_node_by_node(*level)


@pytest.mark.parametrize("x_index", [0, 1, 2])
def test_tied_nominal_splits_resolve_to_the_first_max(x_index):
    # under the split on r, at both nodes of the level below it, s repeats
    # its twin and x is 1.0 where they are Y, 0.0 where N and blank where
    # they are: the three candidates tie, and weights in quarters keep
    # every tally exact in any order
    names = ["s", "t"]
    names.insert(x_index, "x")
    schema = tuple(
        AttributeSpec.numeric(n) if n == "x" else AttributeSpec.categorical(n, ("N", "Y"))
        for n in names
    ) + (AttributeSpec.categorical("r", "AB"), AttributeSpec.categorical("c", "PQ"))
    design = [
        ("A", "N", "P", 5), ("A", "Y", "Q", 3), ("A", "Y", "P", 1), ("A", None, "P", 2),
        ("B", "N", "Q", 5), ("B", "Y", "P", 3), ("B", "Y", "Q", 1), ("B", None, "Q", 2),
    ]
    weights = itertools.cycle((0.25, 0.5, 0.75, 1.5))
    rows = []
    for r, s, c, count in design:
        x = None if s is None else float(s == "Y")
        values = [x if n == "x" else s for n in names]
        rows += [Instance(tuple(values) + (r, c), next(weights)) for _ in range(count)]
    random.Random(0).shuffle(rows)
    d = Dataset(schema, 4, rows)
    root = build_tree(d, TreeConfig(pruning=False, min_leaf_weight=1.0)).root
    assert root.attribute_index == 3
    for value, child in zip("AB", root.children):
        part = Dataset(schema, 4, [inst for inst in rows if inst.values[3] == value])
        candidates = [evaluate_split(part, i, 0.5 if i == x_index else None) for i in range(4)]
        best = first_max([c.gain_ratio for c in candidates])
        assert sum(c.gain_ratio == candidates[best].gain_ratio for c in candidates) == 3
        assert (child.attribute_index, child.threshold) == (0, 0.5 if x_index == 0 else None)
        assert (child.attribute_index, child.threshold) == (
            candidates[best].attribute_index,
            candidates[best].threshold,
        )


def test_branch_weight_is_left_to_right_sum():
    # ten rows of weight 0.1 reach the first branch; a compensated sum would
    # give 1.0 there, which differs from the left-to-right sum
    schema = (AttributeSpec.categorical("a", "AB"), AttributeSpec.categorical("c", "PQ"))
    rows = [Instance(("A", "P"), 0.1)] * 10 + [Instance(("B", "Q"), 0.1)] * 10
    root = build_tree(Dataset(schema, 1, rows), TreeConfig(min_leaf_weight=0.5)).root
    assert root.branch_weights[0] == total([0.1] * 10) == 0.9999999999999999
    assert root.children[0].weight == total([0.1] * 10)


def test_integer_weights_give_float_branch_weights():
    # as the class counts already were, the branch weights are float sums
    # even when every instance weight is an int: the model file writes 4.0
    schema = (AttributeSpec.categorical("a", "AB"), AttributeSpec.categorical("c", "PQ"))
    rows = [Instance(("A", "P"), 2)] * 2 + [Instance(("B", "Q"), 3)]
    model = build_tree(Dataset(schema, 1, rows), TreeConfig(pruning=False, min_leaf_weight=1))
    root = json.loads(model_to_json(model))["root"]
    assert root["branch_weights"] == root["class_counts"] == [4.0, 3.0]
    assert all(type(w) is float for w in root["branch_weights"])


def test_classify_divides_by_left_to_right_sums():
    schema = (AttributeSpec.categorical("a", "AB"), AttributeSpec.categorical("c", "PQR"))
    counts = (0.1, 0.2, 0.3)
    model = DecisionTreeModel(schema, 1, Leaf(counts, 0.6), TreeConfig())
    merged = [1.0 * c / ((0.1 + 0.2) + 0.3) for c in counts]
    merged_total = (merged[0] + merged[1]) + merged[2]
    _, dist = classify(model, ("A", None))
    assert list(dist.values()) == [m / merged_total for m in merged]


# --- pruning -----------------------------------------------------------------


def binom_ucb_oracle(e, n, cf):
    """Exact binomial upper bound by bisection; integer counts only."""

    def cdf(p):
        return sum(
            math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(e + 1)
        )

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if cdf(mid) > cf:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_ucb_matches_binomial_oracle():
    for e, n in [(0, 1), (0, 6), (1, 3), (2, 9), (3, 10), (5, 40), (2, 5)]:
        assert ucb_error_rate(e, n, 0.25) == pytest.approx(
            binom_ucb_oracle(e, n, 0.25), abs=1e-9
        )
        assert ucb_error_rate(e, n, 0.10) == pytest.approx(
            binom_ucb_oracle(e, n, 0.10), abs=1e-9
        )


def test_screen_matches_binomial_oracle():
    for e, n in [(0, 1), (0, 6), (1, 3), (2, 9), (3, 10), (5, 40), (2, 5)]:
        for cf in (0.25, 0.10):
            assert _screen_ucb(e, n, cf) == pytest.approx(binom_ucb_oracle(e, n, cf), abs=1e-9)


def test_ucb_zero_error_closed_form():
    assert ucb_error_rate(0, 6, 0.25) == pytest.approx(1 - 0.25 ** (1 / 6), abs=1e-12)


def test_ucb_saturates_at_one():
    assert ucb_error_rate(4, 4, 0.25) == 1.0
    assert ucb_error_rate(0, 0, 0.25) == 0.0


def test_ucb_equals_beta_quantile_exactly():
    from scipy.stats import beta

    for total in (0.5, 1.0, 2.75, 6.0, 13.3, 40.0, 250.5):
        for errors in (0.0, 0.25, 1.0, total / 3, total - 0.5):
            if not 0 <= errors < total:
                continue
            for cf in (0.05, 0.1, 0.25, 0.5, 0.9):
                expected = float(beta.ppf(1.0 - cf, errors + 1.0, total - errors))
                assert ucb_error_rate(errors, total, cf) == expected


BOUNDS = (ucb_error_rate, _screen_ucb)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("cf", [0.0, 1.0, 1.5, -0.25, math.nan, True])
def test_ucb_refuses_a_confidence_factor_outside_0_1(bound, cf):
    wording = "confidence_factor must be a number strictly between 0 and 1"  # as TreeConfig
    with pytest.raises(ValueError, match=wording):
        bound(1, 5, cf)


@pytest.mark.parametrize("bound", BOUNDS)
def test_ucb_refuses_negative_errors(bound):
    with pytest.raises(ValueError, match="errors must be >= 0"):
        bound(-1, 5, 0.25)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("errors, n", [(math.nan, 5), (math.inf, 5), (1, math.inf), (1, math.nan)])
def test_ucb_refuses_non_finite_counts(bound, errors, n):
    with pytest.raises(ValueError, match="must be finite numbers"):
        bound(errors, n, 0.25)


@st.composite
def bound_arguments(draw):
    """``(errors, total, CF)``: totals from 1e-3 to 1e5 and fractional errors.

    Half leave total - errors below 0.05, where the quantile is near 1.
    """
    n = 10.0 ** draw(st.floats(-3, 5))
    if draw(st.booleans()):
        errors = n * draw(st.floats(0, 1, exclude_max=True))
    else:
        errors = max(n - draw(st.floats(0, 0.05, exclude_min=True)), 0.0)
    return errors, n, draw(st.floats(0, 1, exclude_min=True, exclude_max=True))


def screen_excess(args):
    """How far the screen is outside its documented error at ``args``; 0 if it declines."""
    exact = ucb_error_rate(*args)
    screened = _screen_ucb(*args)
    if screened is None:
        return 0.0
    return abs(screened - exact) - _UCB_TAU * min(exact, 1 - exact) - 2.0**-52 * exact


@settings(max_examples=200, deadline=None)
@given(st.lists(bound_arguments(), min_size=1, max_size=40))
def test_ucb_screen_is_within_tau_or_declines(arguments):
    worst = max(arguments, key=screen_excess)
    assert screen_excess(worst) <= 0, (
        f"errors, total, CF = {worst}: screen {_screen_ucb(*worst)!r}, "
        f"ucb_error_rate {ucb_error_rate(*worst)!r}"
    )


@st.composite
def extreme_bound_arguments(draw):
    """``(errors, total, CF)`` as ``bound_arguments`` draws them, with CF near 0 or 1.

    CF lies 1e-12 to 1e-3 from 0 or from 1, on a log scale: a uniform CF
    almost never comes within 1e-7 of either end.
    """
    errors, n, _ = draw(bound_arguments())
    gap = 10.0 ** draw(st.floats(-12, -3))
    return errors, n, gap if draw(st.booleans()) else 1.0 - gap


@settings(max_examples=400, deadline=None)
@given(st.lists(extreme_bound_arguments(), min_size=1, max_size=40))
def test_ucb_screen_is_within_tau_or_declines_near_extreme_cf(arguments):
    worst = max(arguments, key=screen_excess)
    assert screen_excess(worst) <= 0, (
        f"errors, total, CF = {worst}: screen {_screen_ucb(*worst)!r}, "
        f"ucb_error_rate {ucb_error_rate(*worst)!r}"
    )


@pytest.mark.parametrize(
    "args",
    [
        (5.1680027745788255, 5.168002774580343, 0.9999999999987638),
        (0.014046610198263094, 0.01404661019938584, 0.9999999999867091),
    ],
)
def test_ucb_screen_declines_where_rounding_could_reach_tau(args):
    # total - errors ~ 1e-12 and 1 - CF ~ 1e-12: the quantile's conditioning
    # would carry rounding to about 1e-2 of 1 - U
    assert screen_excess(args) <= 0


@pytest.mark.parametrize(
    "args",
    [  # of 90 000 random inputs (n 1e-3 to 1e5, a quarter of them with
        # n - e below 0.05, CF across (0, 1)): the three answers nearest tau,
        # at about 1e-2 of it
        (0.25018721570698743, 0.25043234111333745, 0.9988294180355216),
        (0.3350075791529844, 0.33529159427469085, 0.9984494279139617),
        (0.0038811868222401644, 0.004169355096030408, 0.9992693547729619),
        # and the three that Halley stopped once r**3 <= tau / 64, without
        # the (a + b + 2)**2 of its constant, answers 5 to 7 tau off
        (9265.5802398277, 9392.150832591236, 0.9999999563803577),
        (117.69705640467649, 2177.707795451543, 2.035733173916183e-08),
        (113.43740144838132, 181.28868393801403, 0.9999999785229309),
    ],
)
def test_ucb_screen_stops_within_tau(args):
    assert _screen_ucb(*args) is not None
    assert screen_excess(args) <= 0


@pytest.mark.parametrize(
    "args",
    [  # the lightest leaves of a pruned 4000-row gappy checklist tree
        (0.007522480918462828, 0.028811488524950513, 0.25),  # U rounds to 1
        (0.021483435122888583, 0.08552299914175698, 0.25),
        (0.11277782580722165, 0.30834037538936565, 0.25),
    ],
)
def test_ucb_screen_answers_quantiles_near_1(args):
    assert _screen_ucb(*args) is not None
    assert screen_excess(args) <= 0


def test_ucb_screen_declines_large_totals_at_once(monkeypatch):
    # past a + b = _UCB_MAX_SIZE every root is declined: no continued fraction is taken
    def no_fraction(*args):
        raise AssertionError(f"_beta_fraction{args}")

    monkeypatch.setattr(tree_module, "_beta_fraction", no_fraction)
    assert _screen_ucb(3e299, 1e300, 0.25) is None
    assert _screen_ucb(1e12, 1e13, 1e-15) is None
    assert _screen_ucb(0.0, 1e300, 0.25) is not None  # zero errors: the closed form


@contextlib.contextmanager
def exact_decisions():
    """Every comparison of two bounds too close for the screen: all exact."""
    saved = tree_module._UCB_MARGIN
    tree_module._UCB_MARGIN = math.inf
    try:
        yield
    finally:
        tree_module._UCB_MARGIN = saved


@settings(max_examples=150, deadline=None)
@given(
    weighted_mixed_datasets(),
    st.sampled_from([0.0, 0.5, 2.0]),
    st.sampled_from([0.01, 0.25, 0.6, 0.99]),
)
def test_screened_decisions_equal_exact_ones(d, min_leaf_weight, cf):
    grown = build_tree(d, TreeConfig(min_leaf_weight, cf, pruning=False))
    rules = extract_rules(grown)
    screened = prune_tree(grown), simplify_rules(rules, d)
    with exact_decisions():
        assert (prune_tree(grown), simplify_rules(rules, d)) == screened


def test_pessimistic_bounds_take_about_two_continued_fractions(monkeypatch):
    # Halley stopped by its cubic order needs no continued fraction just to
    # confirm a step of about 1e-18; stopped by the step alone, a bound
    # here takes 2.97
    d = synthetic_checklist(1500, 500, seed=3, missing_rate=0.1)
    seen = {"roots": 0, "fractions": 0}

    def count_root(*args):
        seen["roots"] += 1
        return real_root(*args)

    def count_fraction(*args):
        seen["fractions"] += 1
        return real_fraction(*args)

    real_root, real_fraction = tree_module._beta_root, tree_module._beta_fraction
    monkeypatch.setattr(tree_module, "_beta_root", count_root)
    monkeypatch.setattr(tree_module, "_beta_fraction", count_fraction)
    grown = build_tree(d, TreeConfig(pruning=False))
    prune_tree(grown)
    simplify_rules(extract_rules(grown), d)
    assert seen["roots"] > 500
    assert seen["fractions"] <= 2.5 * seen["roots"]


def test_exact_tie_collapses_through_ucb_error_rate(monkeypatch):
    calls = []
    exact = tree_module.ucb_error_rate
    monkeypatch.setattr(tree_module, "ucb_error_rate", lambda *a: calls.append(a) or exact(*a))
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    counts = (7.0, 3.0)
    # the leaf and the subtree have the same estimate, 10 * U(3, 10)
    root = Decision(0, None, (Leaf(counts, 10.0), Leaf(counts, 0.0)), (10.0, 0.0), counts)
    pruned = prune_tree(DecisionTreeModel(schema, 1, root, TreeConfig())).root
    assert pruned == Leaf(counts, 10.0)
    assert (3.0, 10.0, 0.25) in calls


def test_close_call_in_pruning_takes_only_its_own_subtree_again(monkeypatch):
    calls = []
    exact = tree_module.ucb_error_rate
    monkeypatch.setattr(tree_module, "ucb_error_rate", lambda *a: calls.append(a) or exact(*a))
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("b", ("0", "1")),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    counts = (7.0, 3.0)
    tie = Decision(0, None, (Leaf(counts, 10.0), Leaf(counts, 0.0)), (10.0, 0.0), counts)
    pure = Decision(
        1, None, (Leaf((10.0, 0.0), 10.0), Leaf((0.0, 10.0), 10.0)), (10.0, 10.0), (10.0, 10.0)
    )
    # the root's leaf, 30 U(13, 30), is far above 10 U(3, 10) + 20 U(0, 10)
    root = Decision(0, None, (tie, pure), (10.0, 20.0), (17.0, 13.0))
    pruned = prune_tree(DecisionTreeModel(schema, 2, root, TreeConfig())).root
    assert pruned == replace(root, children=(Leaf(counts, 10.0), pure))
    assert set(calls) == {(3.0, 10.0, 0.25)}  # the sibling's counts stay screened


def test_declined_bound_costs_one_exact_bound(monkeypatch):
    calls = []
    exact = tree_module.ucb_error_rate
    monkeypatch.setattr(tree_module, "ucb_error_rate", lambda *a: calls.append(a) or exact(*a))
    schema = (AttributeSpec.categorical("a", ("0", "1")), AttributeSpec.categorical("cls", ("N", "Y")))
    assert _screen_ucb(2e12, 5e12, 0.25) is None
    assert exact(2e12, 5e12, 0.25) == 0.4000001477734132
    heavy, light = Leaf((3e12, 2e12), 5e12), Leaf((1.0, 0.0), 1.0)
    # the root's counts are set apart from its children's, so that its own
    # bound is screened and its comparison apart: the root over the heavy
    # leaf would decline as well, and be close
    root = Decision(0, None, (heavy, light), (5e12, 1.0), (1.0, 0.0))
    prune_tree(DecisionTreeModel(schema, 1, root, TreeConfig()))
    assert calls == [(2e12, 5e12, 0.25)]


def test_training_accuracy_checks_no_row_again(monkeypatch, tmp_path):
    path = tmp_path / "gappy.arff"
    path.write_text(serialize_arff(synthetic_checklist(3000, 1000, seed=1, missing_rate=0.1)))
    checked = []
    dataset_module = sys.modules["ldscreen.dataset"]
    check = dataset_module._check_instance

    def counted(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(dataset_module, "_check_instance", counted)
    monkeypatch.setattr(tree_module, "_check_instance", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["train", "--input", str(path), "--out", str(tmp_path / "m.json")]) == 0
    assert len(checked) == 4000  # once each, when read
    model = model_from_json((tmp_path / "m.json").read_text())
    d = dataset_module.parse_arff(path.read_text())
    expected = sum(classify(model, i)[0] == i.values[-1] for i in d.instances) / len(d)
    assert f"Training accuracy: {100 * expected:.1f} %" in out.getvalue()


def test_training_accuracy_refuses_another_schema():
    d = binary_dataset([["0", "N"], ["1", "Y"]] * 3, 1)
    other = binary_dataset([["0", "N"], ["1", "Y"]] * 3, 1, ("Y", "N"))
    with pytest.raises(ValueError, match="schema or class differs"):
        training_accuracy(build_tree(d), other)


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, ldscreen.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(ldscreen.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
    assert done.stdout.strip() == "False"


def _import_time_imports(node):
    """The modules ``node`` imports when its module is imported: not in functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            dots = "." * child.level
            if child.module:
                yield dots + child.module.split(".")[0]
            else:
                yield from (dots + alias.name for alias in child.names)
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _import_time_imports(child)


def test_only_cluster_and_columns_import_numpy_at_module_level():
    # classify and best_rule must not load numpy: tree.py and rules.py reach
    # the encoded view through imports inside the functions that use it.
    # Nothing loads scipy or the cluster module on import, so `--help` and
    # `checklist` start without either library.
    package = Path(ldscreen.__file__).resolve().parent
    imports = {
        path.name: set(_import_time_imports(ast.parse(path.read_text())))
        for path in package.glob("*.py")
    }
    numpy_importers = {name for name, found in imports.items() if {"numpy", ".columns"} & found}
    assert numpy_importers <= {"cluster.py", "columns.py"}
    assert not {name for name, found in imports.items() if {"scipy", ".cluster"} & found}


def fixture_model(children_counts):
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    children = tuple(Leaf(c, sum(c)) for c in children_counts)
    parent = tuple(sum(col) for col in zip(*children_counts))
    root = Decision(0, None, children, tuple(sum(c) for c in children_counts), parent)
    return DecisionTreeModel(schema, 1, root, TreeConfig())


def test_prune_keeps_informative_split():
    # children UCB errors: 6*U(0,6)=1.237797 + 3*U(1,3)=2.020945, total 3.258741
    # collapsed leaf:      9*U(2,9) = 3.514871 -> keep the split
    m = fixture_model([(6.0, 0.0), (1.0, 2.0)])
    assert isinstance(prune_tree(m).root, Decision)


def test_prune_collapses_weak_split():
    # children UCB errors: 5*U(1,5) + 5*U(2,5) = 5.473722
    # collapsed leaf:      10*U(3,10) = 4.576962 -> collapse
    m = fixture_model([(4.0, 1.0), (3.0, 2.0)])
    pruned = prune_tree(m).root
    assert isinstance(pruned, Leaf)
    assert pruned.class_counts == (7.0, 3.0)


def test_prune_collapsed_grandchild_keeps_grandparent():
    # grandchild a2 over leaves (4,0),(4,0): 2*4*U(0,4) = 2.343146
    #   collapsed leaf 8*U(0,8) = 1.272829 -> collapse
    # child a1 over [that leaf, (0,2)]: 1.272829 + 2*U(0,2)=1.0 = 2.272829
    #   collapsed leaf 10*U(2,10) = 3.554442 -> keep
    # root a0 over [child, (1,0)]: 2.272829 + 1*U(0,1)=0.75 = 3.022829
    #   collapsed leaf 11*U(2,11) = 3.586954 -> keep; against the unpruned
    #   grandchild's 2.343146 + 1.0 + 0.75 = 4.093146 it would collapse
    schema = tuple(
        AttributeSpec.categorical(f"a{i}", ("0", "1")) for i in range(3)
    ) + (AttributeSpec.categorical("cls", ("N", "Y")),)

    def decision(attribute, children):
        counts = tuple(sum(col) for col in zip(*(c.class_counts for c in children)))
        weights = tuple(sum(c.class_counts) for c in children)
        return Decision(attribute, None, tuple(children), weights, counts)

    grandchild = decision(2, [Leaf((4.0, 0.0), 4.0), Leaf((4.0, 0.0), 4.0)])
    child = decision(1, [grandchild, Leaf((0.0, 2.0), 2.0)])
    root = decision(0, [child, Leaf((1.0, 0.0), 1.0)])
    pruned = prune_tree(DecisionTreeModel(schema, 3, root, TreeConfig())).root
    assert isinstance(pruned, Decision) and pruned.attribute_index == 0
    kept_child = pruned.children[0]
    assert isinstance(kept_child, Decision) and kept_child.attribute_index == 1
    assert kept_child.children[0] == Leaf((8.0, 0.0), 8.0)


def test_prune_pure_leaf_unchanged():
    d = binary_dataset([["0", "Y"], ["1", "Y"]], 1, ("Y", "N"))
    m = build_tree(d)
    assert prune_tree(m).root == m.root


def test_prune_never_grows_and_is_idempotent():
    rng = random.Random(21)
    for _ in range(100):
        d = random_binary_dataset(rng, rng.randint(8, 60), rng.randint(2, 5))
        full = build_tree(d, TreeConfig(pruning=False))
        pruned = prune_tree(full)
        assert pruned.node_count() <= full.node_count()
        again = prune_tree(pruned)
        assert again.node_count() == pruned.node_count()


def test_prune_preserves_path_prefixes():
    def paths(node, prefix):
        if isinstance(node, Leaf):
            yield prefix
            return
        for b, child in enumerate(node.children):
            yield from paths(child, prefix + ((node.attribute_index, b),))

    rng = random.Random(13)
    for _ in range(20):
        d = random_binary_dataset(rng, 40, 4)
        full = build_tree(d, TreeConfig(pruning=False))
        pruned = prune_tree(full)
        originals = set(paths(full.root, ()))
        for p in paths(pruned.root, ()):
            assert any(orig[: len(p)] == p for orig in originals)


# --- classify ----------------------------------------------------------------


def test_classify_pure_leaf():
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("cls", ("Y", "N")),
    )
    m = DecisionTreeModel(schema, 1, Leaf((10.0, 0.0), 10.0), TreeConfig())
    label, dist = classify(m, ("0", None))
    assert label == "Y"
    assert dist == {"Y": 1.0, "N": 0.0}


def test_classify_merges_on_missing_root():
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("cls", ("Y", "N")),
    )
    root = Decision(
        0,
        None,
        (Leaf((3.0, 0.0), 3.0), Leaf((0.0, 1.0), 1.0)),
        (3.0, 1.0),
        (3.0, 1.0),
    )
    m = DecisionTreeModel(schema, 1, root, TreeConfig())
    label, dist = classify(m, (None, None))
    assert label == "Y"
    assert dist["Y"] == pytest.approx(0.75)
    assert dist["N"] == pytest.approx(0.25)


def test_classify_rejects_unknown_symbol():
    d = binary_dataset([["0", "Y"], ["1", "N"]], 1, ("Y", "N"))
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
    with pytest.raises(ValueError):
        classify(m, ("2", None))


def test_classify_follows_unique_leaf_path():
    rng = random.Random(17)
    d = random_binary_dataset(rng, 50, 4)
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))

    def leaf_for(node, vals):
        while isinstance(node, Decision):
            spec_vals = ("0", "1")
            node = node.children[spec_vals.index(vals[node.attribute_index])]
        return node

    for inst in d.instances:
        label, dist = classify(m, inst)
        leaf = leaf_for(m.root, inst.values)
        expect = m.class_values[leaf.predicted_index]
        assert label == expect
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_distribution_sums_to_one_with_missing_values():
    d = synthetic_checklist(60, 30, seed=12, missing_rate=0.2)
    from ldscreen.dataset import impute_missing

    m = build_tree(impute_missing(d))
    for inst in d.instances:  # original rows still carry gaps
        _, dist = classify(m, inst)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def edge_rows():
    """``(model, row)`` pairs that grown trees of random data do not give.

    A blank at a node with one branch of positive weight, a row that
    reaches that node's empty branch, a row whose every leaf part
    underflows (the walk's retry) and a row beside it that reaches one leaf.
    """
    nominal = (AttributeSpec.categorical("s", "AB"), AttributeSpec.categorical("c", "PQ"))
    counts = (3.0, 1.0)
    one_branch = Decision(0, None, (Leaf(counts, 4.0), Leaf(counts, 0.0)), (4.0, 0.0), counts)
    one_branch = DecisionTreeModel(nominal, 1, one_branch, TreeConfig())
    tiny = 5e-324
    numeric = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", "PQ"))
    leaves = (Leaf((tiny, 0.0), tiny), Leaf((0.0, tiny), tiny))
    underflow = Decision(0, 0.25, leaves, (tiny, tiny), (tiny, tiny))
    underflow = DecisionTreeModel(numeric, 1, underflow, TreeConfig())
    return [
        (one_branch, (None, None)),
        (one_branch, ("B", "Q")),
        (underflow, (None, None)),
        (underflow, (0.0, None)),
    ]


@pytest.mark.parametrize(
    "pruning, extremes",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-extremes", "True-extremes"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_distribution_equals_recursive_oracle(pruning, extremes, data):
    # the loop adds the same leaves in the same order, and a row with no
    # blank takes its leaf's memo, the same floats: the results are equal
    d = data.draw(weighted_mixed_datasets(extremes=extremes))
    model = build_tree(d, TreeConfig(min_leaf_weight=0.5, pruning=pruning))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    blanked = [tuple(None if rng.random() < 0.3 else v for v in i.values) for i in d.instances]
    for m, values in [(model, values) for values in blanked] + edge_rows():
        o = recursive_distribution(m, values)
        assert tree_module._distribution(m, values) == o
        class_values = m.class_values
        assert classify(m, values) == (class_values[first_max(o)], dict(zip(class_values, o)))
    labels = [model.class_values[first_max(recursive_distribution(model, i.values))] for i in d.instances]
    right = sum(label == i.values[d.class_index] for label, i in zip(labels, d.instances))
    assert training_accuracy(model, d) == right / len(d)


def test_classified_model_is_unchanged_and_a_replaced_leaf_answers_from_its_counts():
    # a leaf's memo is not a field: classifying leaves the model as it was read
    d = synthetic_checklist(3000, 1000, seed=1, missing_rate=0.1)
    text = model_to_json(build_tree(d))
    model = model_from_json(text)
    for inst in d.instances:
        classify(model, inst)
    nodes = [node for _, node in tree_module._paths(model.root, model.schema)]
    assert "_cells" in vars(model)
    assert all(("_routes" if isinstance(n, Decision) else "_total") in vars(n) for n in nodes)
    # nor are the model's cell sets and the nodes' sums: a model without them is equal
    fresh = model_from_json(text)
    vars(fresh).pop("_cells", None)
    for _, node in tree_module._paths(fresh.root, fresh.schema):
        vars(node).pop("_routes" if isinstance(node, Decision) else "_total", None)
    assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
    assert model_to_json(model) == text
    again = pickle.loads(pickle.dumps(model))
    assert again == fresh and model_to_json(again) == text
    # a copy over another schema checks rows against that schema
    spec = model.schema[0]
    renamed = AttributeSpec.categorical(spec.name, ("y",) + spec.values[1:])
    copy = replace(model, schema=(renamed,) + model.schema[1:])
    row = list(d.instances[0].values)
    row[0] = spec.values[0]
    with pytest.raises(ValueError) as refused:
        classify(copy, row)
    assert str(refused.value) == f"{spec.values[0]!r} not declared for attribute {spec.name}"
    assert classify(copy, ["y"] + row[1:]) == classify(model, row)
    leaf = next(
        node
        for _, node in tree_module._paths(model.root, model.schema)
        if isinstance(node, Leaf) and "_memo" in vars(node)
        and node.class_counts != node.class_counts[::-1]
    )
    swapped = replace(leaf, class_counts=leaf.class_counts[::-1])
    row, class_values = (None,) * len(model.schema), model.class_values
    for node in (leaf, swapped):
        one_leaf = replace(model, root=node)
        o = recursive_distribution(one_leaf, row)
        assert classify(one_leaf, row) == (class_values[first_max(o)], dict(zip(class_values, o)))


# --- trees deeper than the recursion limit -----------------------------------


def test_every_walk_runs_on_a_tree_deeper_than_the_recursion_limit():
    deep = chain(2000)
    assert (deep.node_count(), deep.leaf_count()) == (4001, 2001)
    rows = [Instance((float(x), "PQ"[x % 2])) for x in (0, 1, 1999, 2000)]
    assert training_accuracy(deep, Dataset(deep.schema, deep.class_index, rows)) == 1.0
    rules = extract_rules(deep).rules
    assert len(rules) == 2001
    assert len(rules[-1].antecedent) == 2000
    assert classify(deep, (2000.0, None)) == ("P", {"P": 1.0, "Q": 0.0})
    label, dist = classify(deep, (None, None))  # every leaf, each with one row's weight
    assert label == "P" and dist["P"] == pytest.approx(1001 / 2001)
    pruned = prune_tree(deep)
    assert model_to_json(prune_tree(pruned)) == model_to_json(pruned)


def test_model_file_of_a_deep_tree_is_read_back_or_refused():
    # json.dumps gives up at no greater depth than json.loads
    try:
        text = model_to_json(chain(600))
    except ValueError as exc:
        assert str(exc) == "ldscreen-tree document nested too deeply to write"
    else:
        assert model_to_json(model_from_json(text)) == text


@pytest.mark.filterwarnings("error")
def test_deep_trees_compare_hash_and_print_without_recursion():
    deep, again = chain(2000), chain(2000)
    assert deep == again and hash(deep) == hash(again)
    assert deep != chain(1999) and deep.root != again.root.children[1]
    text = repr(deep)
    assert text.count("Decision(") == 2000 and text.count("Leaf(") == 2001


def test_decision_repr_is_the_dataclass_repr():
    one = Decision(1, None, (Leaf((1.0, 0.0), 1.0),), (1.0,), (1.0, 0.0))
    assert repr(one) == (
        "Decision(attribute_index=1, threshold=None, children=(Leaf(class_counts=(1.0, 0.0), "
        "weight=1.0),), branch_weights=(1.0,), class_counts=(1.0, 0.0))"
    )
    model = build_tree(synthetic_checklist(70, 30, seed=6, missing_rate=0.1), TreeConfig(pruning=False))
    assert eval(repr(model.root), {"Decision": Decision, "Leaf": Leaf}) == model.root


# --- weights of any finite ratio ---------------------------------------------

#: Row weights whose ratios reach past the float range.
EXTREME_WEIGHTS = (1e300, 3e299, 1.0, 1e-200, 5e-324)


@pytest.mark.filterwarnings("error")
def test_weights_of_any_finite_ratio_grow_prune_and_classify():
    # shares underflow to 0 and a missing row's scaled weight can overflow:
    # growth must match the oracle and no stage may raise or warn
    for seed in range(100):
        rng = random.Random(seed)
        d = random_mixed_dataset(rng, rng.randint(4, 30), 1, 1, missing_rate=0.3)
        weighted = [Instance(inst.values, rng.choice(EXTREME_WEIGHTS)) for inst in d.instances]
        d = Dataset(d.schema, d.class_index, weighted)
        splits = Columns(d).root().candidates({0: [0], 1: [0]})
        assert _screen(splits)[2].tolist() == [_score(splits, c).valid for c in range(len(splits.nodes))]
        config = TreeConfig(min_leaf_weight=0, pruning=False)
        grown = build_tree(d, config)
        oracle = DecisionTreeModel(d.schema, d.class_index, row_loop_tree(d, config), config)
        assert model_to_json(grown) == model_to_json(oracle)
        for model in (grown, prune_tree(grown)):
            for inst in d.instances:
                assert sum(classify(model, inst)[1].values()) == pytest.approx(1.0)
            assert 0.0 <= training_accuracy(model, d) <= 1.0
            simplify_rules(extract_rules(model), d)
            assert model_from_json(model_to_json(model)) == model


def test_a_row_whose_every_leaf_part_underflows_is_classified():
    # 0.5 * 5e-324 rounds to 0 at both leaves, so each share is divided out first
    tiny = 5e-324
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("P", "Q")))
    leaves = (Leaf((tiny, 0.0), tiny), Leaf((0.0, tiny), tiny))
    model = DecisionTreeModel(schema, 1, Decision(0, 0.25, leaves, (tiny, tiny), (tiny, tiny)), TreeConfig())
    assert classify(model, (None, None)) == ("P", {"P": 0.5, "Q": 0.5})
    assert classify(model, (0.0, None)) == ("P", {"P": 1.0, "Q": 0.0})


# --- persistence -------------------------------------------------------------


def test_model_json_round_trip():
    d = synthetic_checklist(70, 30, seed=6)
    m = build_tree(d)
    back = model_from_json(model_to_json(m))
    assert back.schema == m.schema
    assert back.class_index == m.class_index
    assert back.config == m.config
    assert back.root == m.root
    for inst in d.instances:
        assert classify(back, inst) == classify(m, inst)


def test_model_reader_refuses_a_threshold_on_a_categorical_test():
    d = binary_dataset([["0", "Y"], ["1", "N"]], 1, ("Y", "N"))
    doc = json.loads(model_to_json(build_tree(d, TreeConfig(min_leaf_weight=0.5))))
    assert doc["root"]["type"] == "decision"
    doc["root"]["threshold"] = 0.5
    with pytest.raises(ParseError, match="categorical test on a0 takes no threshold"):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("pruning", ["no", 1, 0, None, 1.0])
def test_tree_config_pruning_must_be_a_bool(pruning):
    with pytest.raises(ValueError, match=f"pruning must be True or False, got {pruning!r}"):
        TreeConfig(pruning=pruning)


def test_model_json_requires_version():
    d = binary_dataset([["0", "Y"], ["1", "N"]], 1, ("Y", "N"))
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
    import json

    doc = json.loads(model_to_json(m))
    assert doc["version"] == 1
    doc["version"] = 99
    with pytest.raises(ValueError):
        model_from_json(json.dumps(doc))
    doc.pop("version")
    with pytest.raises(ValueError):
        model_from_json(json.dumps(doc))
