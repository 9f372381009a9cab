"""IF-THEN rule sets lifted from decision trees.

One rule per leaf: the tests along the root-to-leaf path become the
antecedent conjunction, the leaf's majority class the consequent.  The
unpruned set replicates the tree's predictions on missing-free instances.
Simplification greedily drops antecedent conditions that do not hurt a
pessimistic accuracy estimate, then discards rules that fall below the
default-class baseline; lost coverage is absorbed by the default class.

Rules are independent of each other at classification time: a missing
value simply fails the condition, so no fractional routing happens here
(the documented divergence from the tree on gappy inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import EQ, Dataset, _check_instance, dump_document, first_max, total
from .tree import Condition, DecisionTreeModel, Leaf, branch_conditions, ucb_error_rate

RULES_FORMAT = "ldscreen-rules"
RULES_VERSION = 1


@dataclass(frozen=True)
class Rule:
    antecedent: tuple
    consequent: str
    coverage: float
    accuracy: float

    def matches(self, values):
        return all(c.holds(values) for c in self.antecedent)


@dataclass(frozen=True)
class RuleSet:
    schema: tuple
    class_index: int
    rules: tuple
    default_class: str


def extract_rules(model: DecisionTreeModel) -> RuleSet:
    """One rule per leaf of ``model``; rule count equals leaf count.

    Coverage and accuracy come from the training weights recorded at the
    leaf.  Rule order follows a depth-first walk, but classification does
    not depend on it except as a final tie-break.
    """
    class_values = model.class_values
    rules = []

    def walk(node, conditions):
        if isinstance(node, Leaf):
            consequent = class_values[node.predicted_index]
            acc = node.class_counts[node.predicted_index] / total(node.class_counts)
            rules.append(Rule(tuple(conditions), consequent, node.weight, acc))
            return
        tests = branch_conditions(model.schema, node.attribute_index, node.threshold)
        for cond, child in zip(tests, node.children):
            walk(child, conditions + [cond])

    walk(model.root, [])
    default = class_values[first_max(model.root.class_counts)]
    return RuleSet(model.schema, model.class_index, tuple(rules), default)


#: Confidence factor of the pessimistic accuracy estimate in simplify_rules;
#: fixed, whatever the tree was pruned with.
SIMPLIFY_CONFIDENCE = 0.25


def _pessimistic_accuracy(stats):
    matched, hit = stats
    if matched <= 0:
        return 0.0
    return 1.0 - ucb_error_rate(matched - hit, matched, SIMPLIFY_CONFIDENCE)


def simplify_rules(ruleset: RuleSet, dataset: Dataset) -> RuleSet:
    """Prune redundant antecedent tests and weak rules against ``dataset``.

    Per rule, repeatedly drop the condition whose removal gives the best
    pessimistic accuracy, as long as that is no worse than keeping it.
    Rules whose estimate ends below the match-everything default-class
    baseline are discarded.  The default class becomes the majority among
    instances no surviving rule covers (global majority when none).
    ``dataset`` must have the rule set's own schema and class; else
    ValueError.
    """
    from .columns import Columns

    if (tuple(ruleset.schema), ruleset.class_index) != (dataset.schema, dataset.class_index):
        raise ValueError("the dataset's schema or class differs from the rule set's")
    class_values = ruleset.schema[ruleset.class_index].values
    view = Columns(dataset)
    global_majority = class_values[first_max(view.root().class_counts())]
    masks = {}  # Condition -> mask of the rows where it holds, built at first use

    def matching(conditions):
        """Mask of the rows where every one of ``conditions`` holds."""
        mask = view.all_rows
        for c in conditions:
            if c not in masks:
                masks[c] = view.holds(c.attribute_index, c.relation, c.value)
            mask = mask & masks[c]
        return mask

    def labelled(label):
        return matching([Condition(ruleset.class_index, EQ, label)])

    def rule_stats(antecedent, consequent):
        """``(matched, hit)``: weight of the rows matched, and of those labelled right."""
        matched = matching(antecedent)
        return view.weight(matched), view.weight(matched & labelled(consequent))

    baseline = _pessimistic_accuracy(rule_stats((), global_majority))

    kept = []
    for rule in ruleset.rules:
        conditions = list(rule.antecedent)
        stats = rule_stats(conditions, rule.consequent)
        current = _pessimistic_accuracy(stats)
        while conditions:
            trials = []
            for i in range(len(conditions)):
                without = conditions[:i] + conditions[i + 1 :]
                trials.append(rule_stats(without, rule.consequent))
            estimates = [_pessimistic_accuracy(t) for t in trials]
            best_i = first_max(estimates)
            if estimates[best_i] < current:
                break
            del conditions[best_i]
            stats, current = trials[best_i], estimates[best_i]
        if current < baseline:
            continue
        matched, hit = stats
        acc = hit / matched if matched > 0 else 0.0
        kept.append(Rule(tuple(conditions), rule.consequent, matched, acc))

    # dedupe: simplification can collapse sibling rules into the same form
    forms = {}
    for r in kept:
        forms.setdefault((frozenset(r.antecedent), r.consequent), r)
    unique = list(forms.values())

    uncovered_rows = view.all_rows
    for r in unique:
        uncovered_rows = uncovered_rows & ~matching(r.antecedent)
    uncovered = [view.weight(uncovered_rows & labelled(v)) for v in class_values]
    if sum(uncovered) > 0:
        default = class_values[first_max(uncovered)]
    else:
        default = global_majority
    return RuleSet(ruleset.schema, ruleset.class_index, tuple(unique), default)


def best_rule(ruleset: RuleSet, instance) -> Rule | None:
    """The matching rule of highest accuracy, or None when none matches.

    Ties break by higher coverage, then by earlier position in the set.
    Raises ValueError if the instance does not fit the schema (see Dataset).
    """
    values = _check_instance(ruleset.schema, instance)
    matched = [r for r in ruleset.rules if r.matches(values)]
    return max(matched, key=lambda r: (r.accuracy, r.coverage), default=None)


def rules_classify(ruleset: RuleSet, instance) -> str:
    """Label by the best matching rule (see best_rule), or the default class."""
    rule = best_rule(ruleset, instance)
    return ruleset.default_class if rule is None else rule.consequent


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def condition_text(condition: Condition, schema) -> str:
    name = schema[condition.attribute_index].name
    value = condition.value
    if condition.relation != EQ and isinstance(value, float):
        value = f"{value:g}"
    return f"{name}{condition.relation}{value}"


def rule_text(rule: Rule, schema, class_name: str) -> str:
    if rule.antecedent:
        body = " AND ".join(condition_text(c, schema) for c in rule.antecedent)
    else:
        body = "TRUE"
    return (
        f"IF {body} THEN {class_name}={rule.consequent}"
        f" [{rule.coverage:g}, {rule.accuracy:.3f}]"
    )


def ruleset_text(ruleset: RuleSet) -> str:
    class_name = ruleset.schema[ruleset.class_index].name
    lines = [rule_text(r, ruleset.schema, class_name) for r in ruleset.rules]
    lines.append(f"DEFAULT: {class_name}={ruleset.default_class}")
    return "\n".join(lines)


def ruleset_to_json(ruleset: RuleSet) -> str:
    body = {
        "class": ruleset.schema[ruleset.class_index].name,
        "default_class": ruleset.default_class,
        "rules": [
            {
                "conditions": [
                    {
                        "attribute": ruleset.schema[c.attribute_index].name,
                        "relation": c.relation,
                        "value": c.value,
                    }
                    for c in r.antecedent
                ],
                "class": r.consequent,
                "coverage": r.coverage,
                "accuracy": r.accuracy,
            }
            for r in ruleset.rules
        ],
    }
    return dump_document(RULES_FORMAT, RULES_VERSION, body)
