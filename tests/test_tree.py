"""Split scoring, induction, pruning, classification, persistence."""

import ast
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_split_score, row_loop_tree, weighted_mixed_datasets

import ldscreen
from ldscreen.dataset import (
    AttributeSpec,
    Dataset,
    Instance,
    class_tally,
    first_max,
    synthetic_checklist,
    total,
)
from ldscreen.tree import (
    Condition,
    Decision,
    DecisionTreeModel,
    Leaf,
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


def binary_dataset(rows, n_attrs, class_values=("N", "Y")):
    schema = tuple(
        AttributeSpec.categorical(f"a{i}", ("0", "1")) for i in range(n_attrs)
    ) + (AttributeSpec.categorical("cls", class_values),)
    return Dataset(schema, n_attrs, tuple(Instance(tuple(r)) for r in rows))


def random_binary_dataset(rng, n_rows, n_attrs):
    rows = [
        [rng.choice("01") for _ in range(n_attrs)] + [rng.choice("NY")]
        for _ in range(n_rows)
    ]
    return binary_dataset(rows, n_attrs)


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


def reference_split_score(d, attribute_index, threshold):
    """Direct recomputation of IG/IV from the definitions, written
    independently of the production code (dict tallies, natural log)."""
    spec = d.schema[attribute_index]

    def branch(v):
        if spec.is_categorical:
            return v
        return "le" if v <= threshold else "gt"

    def h(counter):
        tot = sum(counter.values())
        s = 0.0
        for c in counter.values():
            if c > 0:
                p = c / tot
                s -= p * math.log(p) / math.log(2)
        return s

    parent, per_branch = {}, {}
    known = 0.0
    total = 0.0
    for inst in d.instances:
        total += inst.weight
        v = inst.values[attribute_index]
        if v is None:
            continue
        known += inst.weight
        label = inst.values[d.class_index]
        parent[label] = parent.get(label, 0.0) + inst.weight
        grp = per_branch.setdefault(branch(v), {})
        grp[label] = grp.get(label, 0.0) + inst.weight
    nonempty = [g for g in per_branch.values() if sum(g.values()) > 0]
    if known == 0 or len(nonempty) < 2:
        return None  # invalid candidate
    ig = h(parent)
    iv = 0.0
    for grp in nonempty:
        share = sum(grp.values()) / known
        ig -= share * h(grp)
        iv -= share * math.log(share) / math.log(2)
    ig *= known / total
    return ig, iv, ig / iv


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


def hidden_tree(rng, attrs, depth):
    if depth == 0 or (depth < 3 and rng.random() < 0.25) or not attrs:
        return rng.choice("NY")
    a = rng.choice(attrs)
    rest = [x for x in attrs if x != a]
    return (a, hidden_tree(rng, rest, depth - 1), hidden_tree(rng, rest, depth - 1))


def apply_hidden(node, vals):
    while not isinstance(node, str):
        a, lo, hi = node
        node = lo if vals[a] == "0" else hi
    return node


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


@settings(max_examples=200, deadline=None)
@given(weighted_mixed_datasets())
def test_root_is_first_max_over_evaluate_split(d):
    # growth scores candidates as evaluate_split does, bit for bit, in
    # generation order: attribute index, then ascending midpoint
    config = TreeConfig(pruning=False)
    root = build_tree(d, config).root
    candidates = []
    for i in d.feature_indices:
        if d.schema[i].is_categorical:
            candidates.append(evaluate_split(d, i))
        else:
            known = sorted({v for v in d.column(i) if v is not None})
            midpoints = [(a + b) / 2 for a, b in zip(known, known[1:])]
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


@settings(max_examples=200, deadline=None)
@given(
    weighted_mixed_datasets(),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.booleans(),
    st.booleans(),
)
def test_growth_equals_row_loop_oracle(d, min_leaf_weight, unit_weights, signed_zeros):
    # the whole unpruned tree, every number included, not only the root
    if unit_weights:
        unit = [Instance(inst.values, 1.0) for inst in d.instances]
        d = Dataset(d.schema, d.class_index, unit, d.name)
    if signed_zeros:
        d = _with_signed_zeros(d)
    config = TreeConfig(min_leaf_weight=min_leaf_weight, pruning=False)
    model = build_tree(d, config)
    oracle = DecisionTreeModel(d.schema, d.class_index, row_loop_tree(d, config), config)
    assert model_to_json(model) == model_to_json(oracle)


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
