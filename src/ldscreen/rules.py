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
from functools import cached_property

from .dataset import EQ, Dataset, _check_instance, dump_document, first_max, total
from .tree import Condition, DecisionTreeModel, Leaf, _check_apart, _decide, _paths

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

    @cached_property
    def precedence(self):
        """The rules by accuracy, then coverage, both descending.

        The sort is stable, so a full tie keeps the earlier position.
        Ranked once per rule set; ``rules`` keeps the declared order.
        """
        return tuple(sorted(self.rules, key=lambda r: (-r.accuracy, -r.coverage)))


def extract_rules(model: DecisionTreeModel) -> RuleSet:
    """One rule per leaf of ``model``; rule count equals leaf count.

    Coverage and accuracy come from the training weights recorded at the
    leaf.  Rule order follows a depth-first walk, but classification does
    not depend on it except as a final tie-break.
    """
    default = model.class_values[first_max(model.root.class_counts)]
    rules = []
    for conditions, node in _paths(model.root, model.schema):
        if isinstance(node, Leaf):
            i = node.predicted_index
            accuracy = node.class_counts[i] / total(node.class_counts)
            rules.append(Rule(conditions, model.class_values[i], node.weight, accuracy))
    return RuleSet(model.schema, model.class_index, tuple(rules), default)


#: Confidence factor of the pessimistic accuracy estimate in simplify_rules;
#: fixed, whatever the tree was pruned with.
SIMPLIFY_CONFIDENCE = 0.25


def _pessimistic_accuracy(stats, bound):
    matched, hit = stats
    if matched <= 0:
        return 0.0
    return 1.0 - bound(matched - hit, matched, SIMPLIFY_CONFIDENCE)


def simplify_rules(ruleset: RuleSet, dataset: Dataset) -> RuleSet:
    """Prune redundant antecedent tests and weak rules against ``dataset``.

    Per rule, repeatedly drop the condition whose removal gives the best
    pessimistic accuracy, as long as that is no worse than keeping it.
    Rules whose estimate ends below the match-everything default-class
    baseline are discarded.  The default class becomes the majority among
    instances no surviving rule covers (global majority when none).
    ``dataset`` must have the rule set's own schema and class; else
    ValueError.  Every decision is ucb_error_rate's, most of them taken
    with the screen of ``tree._decide``.
    """
    from .columns import view_of

    if (tuple(ruleset.schema), ruleset.class_index) != (dataset.schema, dataset.class_index):
        raise ValueError("the dataset's schema or class differs from the rule set's")
    class_values = ruleset.schema[ruleset.class_index].values
    view = view_of(dataset)
    global_majority = class_values[first_max(view.root().class_counts()[0])]
    masks = {}  # Condition -> mask of the rows where it holds, built at first use

    def holding(c):
        if c not in masks:
            masks[c] = view.holds(c.attribute_index, c.relation, c.value)
        return masks[c]

    def matching(conditions):
        """Mask of the rows where every one of ``conditions`` holds."""
        mask = view.all_rows
        for c in conditions:
            mask = mask & holding(c)
        return mask

    def labelled(label):
        return holding(Condition(ruleset.class_index, EQ, label))

    def rule_stats(matched, labelled_right):
        """``(matched, hit)``: weight of the rows matched, and of those labelled right."""
        return view.weight(matched), view.weight(matched & labelled_right)

    def simplified(bound):
        """The rules kept, each simplified, deciding with ``bound``."""
        estimates = {}  # (matched, hit) -> pessimistic accuracy

        def estimate(stats):
            if stats not in estimates:
                estimates[stats] = _pessimistic_accuracy(stats, bound)
            return estimates[stats]

        def apart(stats, than):
            # every bound gives the same estimate to the same counts, and 0
            # to a rule that hits nothing
            if stats != than and (stats[1] > 0 or than[1] > 0):
                _check_apart(bound, estimate(stats), estimate(than))

        def below(stats, than):
            """Whether the estimate of ``stats`` is below that of ``than``."""
            apart(stats, than)
            return estimate(stats) < estimate(than)

        baseline = rule_stats(view.all_rows, labelled(global_majority))
        kept = []
        for rule in ruleset.rules:
            conditions = list(rule.antecedent)
            right = labelled(rule.consequent)
            stats = rule_stats(matching(conditions), right)
            while conditions:
                # trial i drops condition i: the AND of the masks before it
                # and of those after it, one AND a trial
                held = [holding(c) for c in conditions]
                before, after = [view.all_rows], [view.all_rows]
                for mask in held[:-1]:
                    before.append(before[-1] & mask)
                for mask in held[:0:-1]:
                    after.append(after[-1] & mask)
                trials = [rule_stats(b & a, right) for b, a in zip(before, reversed(after))]
                best_i = first_max([estimate(t) for t in trials])
                for t in trials:  # no other trial may tie or beat the best exactly
                    apart(t, trials[best_i])
                if below(trials[best_i], stats):
                    break
                del conditions[best_i]
                stats = trials[best_i]
            if below(stats, baseline):
                continue
            matched, hit = stats
            acc = hit / matched if matched > 0 else 0.0
            kept.append(Rule(tuple(conditions), rule.consequent, matched, acc))
        return kept

    kept = _decide(simplified)

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
    """The first matching rule in precedence order, or None when none matches.

    Precedence is higher accuracy, then higher coverage, then earlier
    position in the set (see RuleSet.precedence).  Raises ValueError if
    the instance does not fit the schema (see Dataset).
    """
    values = _check_instance(ruleset.schema, instance)
    return next((r for r in ruleset.precedence if r.matches(values)), None)


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
