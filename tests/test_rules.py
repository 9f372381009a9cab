"""Rule extraction, simplification, and rule-based classification."""

import dataclasses
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    best_rule_oracle,
    binary_dataset,
    first_rule_oracle,
    random_binary_dataset,
    simplify_rules_oracle,
    weighted_mixed_datasets,
)

from ldscreen.columns import Columns
from ldscreen.dataset import (
    AttributeSpec,
    Dataset,
    Instance,
    first_max,
    stratified_folds,
    synthetic_checklist,
    total,
)
from ldscreen.rules import (
    Condition,
    Rule,
    RuleSet,
    best_rule,
    extract_rules,
    rule_text,
    rules_classify,
    ruleset_text,
    ruleset_to_json,
    simplify_rules,
)
import ldscreen.tree as tree_module
from ldscreen.tree import TreeConfig, build_tree, classify


# --- extraction --------------------------------------------------------------


def test_single_leaf_gives_empty_antecedent():
    d = binary_dataset([["0", "Y"], ["1", "Y"]], 1, class_values=("Y", "N"))
    rs = extract_rules(build_tree(d))
    assert len(rs.rules) == 1
    assert rs.rules[0].antecedent == ()
    assert rs.rules[0].consequent == "Y"


def test_two_leaf_stump_rules():
    rows = [["1", "Y"]] * 5 + [["0", "N"]] * 5
    d = binary_dataset(rows, 1, names=["DR"], class_values=("N", "Y"))
    m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
    rs = extract_rules(m)
    rendered = {rule_text(r, rs.schema, "cls") for r in rs.rules}
    assert "IF DR=1 THEN cls=Y [5, 1.000]" in rendered
    assert "IF DR=0 THEN cls=N [5, 1.000]" in rendered


def test_rule_count_equals_leaf_count():
    rng = random.Random(2)
    for _ in range(10):
        d = random_binary_dataset(rng, rng.randint(10, 60), 4)
        m = build_tree(d, TreeConfig(pruning=False))
        assert len(extract_rules(m).rules) == m.leaf_count()


def test_exactly_one_rule_matches_each_training_instance():
    rng = random.Random(8)
    for _ in range(10):
        d = random_binary_dataset(rng, 40, 4)
        rs = extract_rules(build_tree(d, TreeConfig(pruning=False)))
        for inst in d.instances:
            assert sum(1 for r in rs.rules if r.matches(inst.values)) == 1


def test_numeric_path_conditions():
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    rows = [(1.0, "A"), (2.0, "A"), (3.0, "B"), (4.0, "B")]
    d = Dataset(schema, 1, tuple(Instance(r) for r in rows))
    rs = extract_rules(build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False)))
    texts = sorted(rule_text(r, rs.schema, "c") for r in rs.rules)
    assert texts == [
        "IF x<=2.5 THEN c=A [2, 1.000]",
        "IF x>2.5 THEN c=B [2, 1.000]",
    ]


# --- tree equivalence --------------------------------------------------------


def test_unpruned_rules_equal_tree_on_enumeration():
    rng = random.Random(4)
    for _ in range(5):
        d = random_binary_dataset(rng, 60, 5)
        m = build_tree(d, TreeConfig(pruning=False))
        rs = extract_rules(m)
        for bits in itertools.product("01", repeat=5):
            x = bits + (None,)
            assert rules_classify(rs, x) == classify(m, x)[0]


def _answer(rng, spec):
    # eighths hit the midpoint thresholds of the quarter values datasets draw
    return rng.choice(spec.values) if spec.is_categorical else rng.randint(-24, 24) / 8


@settings(max_examples=150, deadline=None)
@given(weighted_mixed_datasets(), st.booleans(), st.integers(0, 2**32 - 1))
def test_a_row_matches_at_most_the_rule_of_the_leaf_it_reaches(d, pruning, seed):
    # a tree's rules partition the rows they match: a complete row matches the
    # rule of the leaf it reaches, and a row missing a value tested on the way none
    model = build_tree(d, TreeConfig(min_leaf_weight=0.5, pruning=pruning))
    ruleset = extract_rules(model)
    rng = random.Random(seed)
    features = d.feature_indices
    for inst in d.instances:
        complete = [
            _answer(rng, spec) if v is None and i in features else v
            for i, (spec, v) in enumerate(zip(d.schema, inst.values))
        ]
        blanked = list(complete)
        blanked[rng.choice(features)] = None
        for row in (complete, blanked):
            matching = [rule for rule in ruleset.rules if rule.matches(row)]
            assert len(matching) == 1 or (row is blanked and not matching)
            assert best_rule(ruleset, row) == (matching[0] if matching else None)
            if matching:
                assert matching[0].consequent == classify(model, row)[0]


# --- simplification ----------------------------------------------------------


def test_constant_attribute_condition_dropped():
    # attribute a1 constant in the data: its test is vacuous and must go
    rows = [["1", "1", "Y"]] * 6 + [["0", "1", "N"]] * 6
    d = binary_dataset(rows, 2)
    rs = RuleSet(
        d.schema,
        2,
        (Rule((Condition(0, "=", "1"), Condition(1, "=", "1")), "Y", 6.0, 1.0),),
        "N",
    )
    simplified = simplify_rules(rs, d)
    assert len(simplified.rules) == 1
    assert simplified.rules[0].antecedent == (Condition(0, "=", "1"),)


def test_rules_that_hit_nothing_need_no_exact_bound(monkeypatch):
    # dropping either condition leaves a rule that hits no Y row: (2, 0) and
    # (3, 0) differ, but both estimates are 0 whatever the bound
    calls = []
    exact = tree_module.ucb_error_rate
    monkeypatch.setattr(tree_module, "ucb_error_rate", lambda *a: calls.append(a) or exact(*a))
    d = binary_dataset(
        [["0", "0", "N"], ["0", "1", "N"], ["1", "0", "N"], ["0", "1", "N"], ["1", "1", "Y"]], 2
    )
    cond = (Condition(0, "=", "0"), Condition(1, "=", "0"))
    simplified = simplify_rules(RuleSet(d.schema, 2, (Rule(cond, "Y", 1.0, 0.0),), "N"), d)
    assert simplified.rules == ()
    assert calls == []


def test_close_call_in_simplification_takes_exact_bounds_for_its_group_only(monkeypatch):
    calls = []
    exact = tree_module.ucb_error_rate
    monkeypatch.setattr(tree_module, "ucb_error_rate", lambda *a: calls.append(a) or exact(*a))
    d = binary_dataset(
        [["1", "1", "0", "Y"]] * 8
        + [["1", "1", "0", "N"]] * 2  # a0=1 AND a1=1 matches (10, 8)
        + [["1", "0", "0", "N"]] * 6
        + [["0", "0", "1", "N"]] * 9
        + [["0", "0", "1", "Y"]],  # a2=1 => N matches (10, 9)
        3,
    )
    # dropping a0=1 adds one right row of weight 1e-10: the trial's counts
    # differ from the rule's, their screened estimates are within _UCB_MARGIN
    d = Dataset(d.schema, 3, d.instances + (Instance(("0", "1", "0", "Y"), 1e-10),))
    pair = (Condition(0, "=", "1"), Condition(1, "=", "1"))
    rules = (Rule(pair, "Y", 10.0, 0.8), Rule((Condition(2, "=", "1"),), "N", 10.0, 0.9))
    simplified = simplify_rules(RuleSet(d.schema, 3, rules, "N"), d)
    assert [r.antecedent for r in simplified.rules] == [pair[1:], rules[1].antecedent]
    # the first rule's group of three: the rule and its two trials
    assert (2.0, 10.0, 0.25) in calls and len(calls) == 3
    assert (1.0, 10.0, 0.25) not in calls  # the other rule's counts stay screened


def test_simplified_set_preserves_noise_free_predictions():
    rng = random.Random(6)
    for _ in range(5):
        rows = []
        for _ in range(60):
            bits = [rng.choice("01") for _ in range(4)]
            label = "Y" if bits[0] == "1" and bits[1] == "1" else "N"
            rows.append(bits + [label])
        d = binary_dataset(rows, 4)
        m = build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False))
        rs = extract_rules(m)
        simplified = simplify_rules(rs, d)
        before = [rules_classify(rs, i.values) for i in d.instances]
        after = [rules_classify(simplified, i.values) for i in d.instances]
        assert before == after


def test_condition_count_never_increases():
    rng = random.Random(10)
    for _ in range(100):
        d = random_binary_dataset(rng, rng.randint(8, 40), rng.randint(2, 4))
        rs = extract_rules(build_tree(d, TreeConfig(pruning=False)))
        simplified = simplify_rules(rs, d)
        n_before = sum(len(r.antecedent) for r in rs.rules)
        n_after = sum(len(r.antecedent) for r in simplified.rules)
        assert n_after <= n_before


def test_training_accuracy_not_lowered_on_noise_free_data():
    rng = random.Random(14)
    for _ in range(10):
        rows = []
        for _ in range(50):
            bits = [rng.choice("01") for _ in range(4)]
            label = "Y" if bits[2] == "1" else "N"
            rows.append(bits + [label])
        d = binary_dataset(rows, 4)
        rs = extract_rules(build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False)))
        simplified = simplify_rules(rs, d)

        def acc(ruleset):
            hits = sum(
                1
                for i in d.instances
                if rules_classify(ruleset, i.values) == i.values[-1]
            )
            return hits / len(d)

        assert acc(simplified) >= acc(rs)


@settings(max_examples=150, deadline=None)
@given(weighted_mixed_datasets())
def test_simplified_statistics_are_row_order_sums(d):
    rs = extract_rules(build_tree(d, TreeConfig(min_leaf_weight=1.0, pruning=False)))
    simplified = simplify_rules(rs, d)
    labels = [inst.values[d.class_index] for inst in d.instances]
    for rule in simplified.rules:
        matched = hit = 0.0
        for inst, label in zip(d.instances, labels):
            if rule.matches(inst.values):
                matched += inst.weight
                if label == rule.consequent:
                    hit += inst.weight
        assert rule.coverage == matched
        assert rule.accuracy == (hit / matched if matched > 0 else 0.0)

    overall = [0.0] * len(d.class_values)
    uncovered = [0.0] * len(d.class_values)
    for inst, label in zip(d.instances, labels):
        overall[d.class_values.index(label)] += inst.weight
        if not any(r.matches(inst.values) for r in simplified.rules):
            uncovered[d.class_values.index(label)] += inst.weight
    tally = uncovered if sum(uncovered) > 0 else overall
    assert simplified.default_class == d.class_values[first_max(tally)]


@settings(max_examples=150, deadline=None)
@given(weighted_mixed_datasets(), st.sampled_from([0.5, 1.0, 2.0]), st.booleans(), st.integers(0, 99))
def test_simplified_rules_equal_the_oracle(d, min_leaf_weight, pruning, seed):
    # a train fold reads its parent's view, whose rows out of the fold are
    # out of play: they count neither as covered nor as uncovered
    folds = stratified_folds(d, min(3, len(d)), seed)
    for data in [d] + [train for train, _ in folds]:
        rs = extract_rules(build_tree(data, TreeConfig(min_leaf_weight, pruning=pruning)))
        assert ruleset_to_json(simplify_rules(rs, data)) == ruleset_to_json(
            simplify_rules_oracle(rs, data)
        )


@settings(max_examples=150, deadline=None)
@given(weighted_mixed_datasets())
def test_view_mask_equals_condition_holds(d):
    rs = extract_rules(build_tree(d, TreeConfig(min_leaf_weight=0.5, pruning=False)))
    conditions = {c for r in rs.rules for c in r.antecedent}
    # a symbol the attribute does not declare matches no row
    conditions |= {
        Condition(i, "=", "Z") for i, spec in enumerate(d.schema) if spec.is_categorical
    }
    view = Columns(d)
    for c in conditions:
        mask = view.holds(c.attribute_index, c.relation, c.value)
        assert mask.tolist() == [c.holds(inst.values) for inst in d.instances]


@settings(max_examples=150, deadline=None)
@given(weighted_mixed_datasets(), st.booleans(), st.data())
def test_view_weight_is_the_row_order_sum(d, unit, data):
    # with every weight 1.0 the view counts rows; the count must be the sum
    if unit:
        d = Dataset(d.schema, d.class_index, [Instance(inst.values) for inst in d.instances])
    view = Columns(d)
    assert view.unit == all(inst.weight == 1.0 for inst in d.instances)
    for _ in range(3):
        mask = data.draw(st.lists(st.booleans(), min_size=len(d), max_size=len(d)))
        expected = total(inst.weight for inst, m in zip(d.instances, mask) if m)
        assert view.weight(np.array(mask, bool)).hex() == expected.hex()


def test_simplifying_a_tree_s_rules_encodes_the_dataset_once(monkeypatch):
    # growth and simplification read one view of the dataset, kept with it
    built = []

    def count_view(view, dataset):
        built.append(dataset)
        real_init(view, dataset)

    real_init = Columns.__init__
    monkeypatch.setattr(Columns, "__init__", count_view)
    d = synthetic_checklist(60, 30, seed=2, missing_rate=0.1)
    simplify_rules(extract_rules(build_tree(d)), d)
    assert built == [d]
    # the kept view is no field: a dataset never encoded compares, hashes
    # and prints the same
    fresh = Dataset(d.schema, d.class_index, d.instances, d.name)
    assert (d, hash(d), repr(d)) == (fresh, hash(fresh), repr(fresh))


def test_view_weight_with_one_fractional_weight_is_the_ordered_sum():
    d = random_binary_dataset(random.Random(4), 20, 2)
    d = Dataset(d.schema, d.class_index, [Instance(d.instances[0].values, 0.5)] + list(d.instances[1:]))
    view = Columns(d)
    assert not view.unit
    assert view.weight(view.all_rows) == 19.5  # a row count would say 20.0


def _checklist_variant(d, variant):
    """Checklist dataset ``d`` under another schema, its rows to match."""
    schema, rows = d.schema, [inst.values for inst in d.instances]
    if variant == "two_columns":
        schema, rows = (schema[0], schema[-1]), [(v[0], v[-1]) for v in rows]
    elif variant == "extra_class_value":
        schema = schema[:-1] + (AttributeSpec.categorical("LD", ("N", "Y", "M")),)
        rows.append(rows[0][:-1] + ("M",))
    else:  # the first two attributes swapped, columns and all
        schema = (schema[1], schema[0]) + schema[2:]
        rows = [(v[1], v[0]) + v[2:] for v in rows]
    return Dataset(schema, len(schema) - 1, [Instance(v) for v in rows])


@pytest.mark.parametrize("variant", ["two_columns", "extra_class_value", "swapped_attributes"])
def test_simplify_refuses_a_dataset_of_another_schema(variant):
    d = synthetic_checklist(60, 30, seed=2)
    rs = extract_rules(build_tree(d))
    with pytest.raises(ValueError, match="schema"):
        simplify_rules(rs, _checklist_variant(d, variant))


# --- classification ----------------------------------------------------------


def demo_ruleset():
    schema = (
        AttributeSpec.categorical("a", ("0", "1")),
        AttributeSpec.categorical("b", ("0", "1")),
        AttributeSpec.categorical("cls", ("N", "Y")),
    )
    rules = (
        Rule((Condition(0, "=", "1"),), "Y", 10.0, 0.9),
        Rule((Condition(1, "=", "1"),), "N", 20.0, 0.8),
        Rule((Condition(0, "=", "1"), Condition(1, "=", "1")), "N", 5.0, 0.9),
    )
    return RuleSet(schema, 2, rules, "N")


def test_single_match_wins():
    rs = demo_ruleset()
    assert rules_classify(rs, ("1", "0", None)) == "Y"


def test_no_match_falls_to_default():
    rs = demo_ruleset()
    assert rules_classify(rs, ("0", "0", None)) == "N"


def test_tie_breaks_accuracy_then_coverage():
    rs = demo_ruleset()
    # ("1","1"): rules 0 (acc .9, cov 10), 1 (acc .8), 2 (acc .9, cov 5) match;
    # accuracy tie between 0 and 2 resolves on coverage
    assert rules_classify(rs, ("1", "1", None)) == "Y"


def test_best_rule_full_tie_keeps_earlier_position():
    rs = demo_ruleset()
    twin = Rule((Condition(1, "=", "1"),), "N", 10.0, 0.9)  # ties rule 0
    rs = RuleSet(rs.schema, rs.class_index, rs.rules + (twin,), rs.default_class)
    assert best_rule(rs, ("1", "1", None)) is rs.rules[0]
    assert best_rule(rs, ("0", "0", None)) is None


def test_missing_value_fails_condition():
    rs = demo_ruleset()
    assert rules_classify(rs, (None, "0", None)) == "N"  # default


_RANKED_SCHEMA = (
    AttributeSpec.categorical("a", ("x", "y", "z")),
    AttributeSpec.categorical("b", ("x", "y")),
    AttributeSpec.numeric("n"),
    AttributeSpec.categorical("cls", ("N", "Y")),
)


@st.composite
def tied_rule_sets(draw):
    """Rule sets of ``_RANKED_SCHEMA`` with equal copies of some rules appended.

    Accuracies and coverages come from a small pool, so ties are common.
    """
    condition = st.one_of(
        st.builds(Condition, st.just(0), st.just("="), st.sampled_from("xyz")),
        st.builds(Condition, st.just(1), st.just("="), st.sampled_from("xy")),
        st.builds(
            Condition,
            st.just(2),
            st.sampled_from(("<=", ">")),
            st.sampled_from((-1.0, 0.5, 2.0)),
        ),
    )
    rule = st.builds(
        Rule,
        st.lists(condition, max_size=3).map(tuple),
        st.sampled_from("NY"),
        st.sampled_from((0.0, 1.0, 2.5, 4.0)),
        st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    )
    rules = draw(st.lists(rule, max_size=8))
    if rules:
        copies = draw(st.lists(st.sampled_from(rules), max_size=3))
        rules += [dataclasses.replace(r) for r in copies]  # equal, not identical
    return RuleSet(_RANKED_SCHEMA, 3, tuple(rules), "N")


_gappy_rows = st.tuples(
    st.none() | st.sampled_from("xyz"),
    st.none() | st.sampled_from("xy"),
    st.none() | st.sampled_from((-2.0, -1.0, 0.0, 0.25, 0.5, 2.0, 3.0)),
    st.none() | st.sampled_from("NY"),
)


@settings(max_examples=300, deadline=None)
@given(tied_rule_sets(), st.lists(_gappy_rows, min_size=1, max_size=10))
def test_best_rule_is_the_max_over_every_match(ruleset, rows):
    for row in rows:
        assert best_rule(ruleset, row) is best_rule_oracle(ruleset, row)


_CATEGORICAL_SCHEMA = (
    AttributeSpec.categorical("a", ("x", "y", "z")),
    AttributeSpec.categorical("b", ("x", "y")),
    AttributeSpec.categorical("cls", ("N", "Y")),
)


@st.composite
def rule_sets_and_rows(draw):
    """A rule set over a mixed or an all-categorical schema, and gappy rows of it.

    A rule holds 0-3 conditions on any attributes, so two ``=`` tests of
    one attribute are common: ``=`` a declared value, an undeclared one or
    None on a categorical attribute, ``<=`` or ``>`` on the numeric one of
    the mixed schema.  Accuracies and coverages come from a small pool, so
    ties are common, and equal copies of some rules are appended.
    """
    schema = draw(st.sampled_from((_RANKED_SCHEMA, _CATEGORICAL_SCHEMA)))

    def condition():
        i = draw(st.integers(0, len(schema) - 1))
        if schema[i].is_categorical:
            return Condition(i, "=", draw(st.sampled_from(schema[i].values + ("w", None))))
        return Condition(i, draw(st.sampled_from(("<=", ">"))), draw(st.sampled_from((-1.0, 0.5, 2.0))))

    rules = [
        Rule(
            tuple(condition() for _ in range(draw(st.integers(0, 3)))),
            draw(st.sampled_from("NY")),
            draw(st.sampled_from((0.0, 1.0, 2.5, 4.0))),
            draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    if rules:
        copies = draw(st.lists(st.sampled_from(rules), max_size=3))
        rules += [dataclasses.replace(r) for r in copies]  # equal, not identical
    cells = [
        st.none() | st.sampled_from(spec.values if spec.is_categorical else (-2.0, 0, 0.5, 2.0, 3))
        for spec in schema
    ]
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=10))
    return RuleSet(schema, len(schema) - 1, tuple(rules), "N"), rows


@settings(max_examples=300, deadline=None)
@given(rule_sets_and_rows())
def test_best_rule_is_the_first_match_in_ranked_order(case):
    # a rule of = tests is matched by one itemgetter, any other by Rule.matches
    ruleset, rows = case
    for row in rows:
        assert best_rule(ruleset, row) is first_rule_oracle(ruleset, row)


def test_best_rule_tables_are_not_fields():
    d = synthetic_checklist(30, 10, seed=3, missing_rate=0.2)
    rs = simplify_rules(extract_rules(build_tree(d)), d)
    rows = [inst.values for inst in d.instances]
    assert len(rs.rules) >= 2
    assert [f.name for f in dataclasses.fields(rs)] == [
        "schema", "class_index", "rules", "default_class"
    ]
    bare = RuleSet(rs.schema, rs.class_index, rs.rules, rs.default_class)
    object.__setattr__(bare, "_ranked", ())
    object.__setattr__(bare, "_cells", None)
    assert bare == rs and hash(bare) == hash(rs) and repr(bare) == repr(rs)
    assert ruleset_to_json(bare) == ruleset_to_json(rs)
    assert "_ranked" not in repr(rs) and "_cells" not in repr(rs)
    copy = pickle.loads(pickle.dumps(rs))
    assert copy == rs and hash(copy) == hash(rs) and repr(copy) == repr(rs)
    assert all(any(rule is r for r in copy.rules) for _, _, rule in copy._ranked)
    assert [best_rule(copy, row) for row in rows] == [best_rule(rs, row) for row in rows]
    # a copy made with replace ranks its own rules
    fewer = dataclasses.replace(rs, rules=rs.rules[::-2])
    assert sorted(map(id, (rule for _, _, rule in fewer._ranked))) == sorted(map(id, fewer.rules))
    for row in rows:
        assert best_rule(fewer, row) is first_rule_oracle(fewer, row)


@settings(max_examples=100, deadline=None)
@given(weighted_mixed_datasets())
def test_rules_classify_agrees_with_the_oracle_on_simplified_rules(d):
    rs = extract_rules(build_tree(d, TreeConfig(min_leaf_weight=0.5, pruning=False)))
    simplified = simplify_rules(rs, d)
    for inst in d.instances:
        rule = best_rule_oracle(simplified, inst.values)
        expected = simplified.default_class if rule is None else rule.consequent
        assert rules_classify(simplified, inst.values) == expected


# --- rendering ---------------------------------------------------------------


def test_ruleset_text_shape():
    rs = demo_ruleset()
    text = ruleset_text(rs)
    lines = text.splitlines()
    assert lines[0] == "IF a=1 THEN cls=Y [10, 0.900]"
    assert lines[-1] == "DEFAULT: cls=N"
    assert "IF a=1 AND b=1 THEN cls=N [5, 0.900]" in lines


def test_rule_without_conditions_renders_true():
    rule = Rule((), "Y", 4.0, 0.75)
    assert rule_text(rule, demo_ruleset().schema, "cls") == "IF TRUE THEN cls=Y [4, 0.750]"


def test_ruleset_json_fields():
    import json

    doc = json.loads(ruleset_to_json(demo_ruleset()))
    assert doc["version"] == 1
    assert doc["default_class"] == "N"
    assert doc["rules"][0]["conditions"] == [
        {"attribute": "a", "relation": "=", "value": "1"}
    ]
