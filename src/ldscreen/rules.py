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
from operator import itemgetter

from .dataset import EQ, Dataset, _cell_sets, _check_instance, dump_document, first_max, total
from . import tree
from .tree import Condition, DecisionTreeModel, Leaf, _close, _paths, _screened

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
    """Rules over ``schema`` for the attribute at ``class_index``.

    ``default_class`` labels a row that no rule matches.  ``rules`` keeps
    the declared order.  ``best_rule`` reads two values set when the set
    is built: ``_cells``, the schema's ``_cell_sets`` with which it checks
    a row, and ``_ranked``, one ``_lookup`` per rule in precedence order:
    accuracy, then coverage, both descending, in a stable sort, so a full
    tie keeps the earlier position.  Neither is a field, so ``==``,
    ``hash``, ``repr`` and the rules file never see them, and a copy made
    with ``dataclasses.replace`` sets its own.
    """

    schema: tuple
    class_index: int
    rules: tuple
    default_class: str

    def __post_init__(self):
        ranked = sorted(self.rules, key=lambda r: (-r.accuracy, -r.coverage))
        object.__setattr__(self, "_cells", _cell_sets(self.schema))
        object.__setattr__(self, "_ranked", tuple(map(_lookup, ranked)))


def _lookup(rule):
    """``(key, want, rule)``, where ``key(values) == want`` exactly when ``rule`` matches.

    For a rule of ``=`` tests of values other than None, ``key`` is an
    ``itemgetter`` of the tested attributes and ``want`` the tested values,
    a bare value for one test.  A checked row holds no NaN, so the
    identity shortcut of tuple ``==`` changes no answer.  Any other rule,
    one with no condition included, has ``key`` None and is tested by
    ``Rule.matches``.
    """
    conditions = rule.antecedent
    if not conditions or any(c.relation != EQ or c.value is None for c in conditions):
        return None, None, rule
    key = itemgetter(*(c.attribute_index for c in conditions))
    want = tuple(c.value for c in conditions)
    return key, want[0] if len(want) == 1 else want, rule


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
    with the screen: a group of estimates too close for it to rank is
    ranked again exactly (``best``).
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

    def labelled(label):
        return holding(Condition(ruleset.class_index, EQ, label))

    def rule_stats(matched, labelled_right):
        """``(matched, hit)``: weight of the rows matched, and of those labelled right."""
        return view.weight(matched), view.weight(matched & labelled_right)

    estimates = {}  # (matched, hit) -> screened pessimistic accuracy

    def best(group):
        """``first_max`` of the pessimistic accuracies of the ``(matched, hit)`` in ``group``.

        All are taken again on ucb_error_rate if one is ``_close`` to the top.
        """
        for s in group:
            if s not in estimates:
                estimates[s] = _pessimistic_accuracy(s, _screened)
        i = first_max([estimates[s] for s in group])
        top = group[i]
        at_top = estimates[top]
        # every bound gives the same estimate to the same counts, and 0 to
        # a rule that hits nothing
        if any(s != top and max(s[1], top[1]) > 0 and _close(estimates[s], at_top) for s in group):
            return first_max([_pessimistic_accuracy(s, tree.ucb_error_rate) for s in group])
        return i

    baseline = rule_stats(view.all_rows, labelled(global_majority))
    kept, covered = [], ~view.all_rows  # rows out of play never count as uncovered
    for rule in ruleset.rules:
        conditions = list(rule.antecedent)
        held = [holding(c) for c in conditions]
        rows = view.all_rows
        for mask in held:
            rows = rows & mask
        right = labelled(rule.consequent)
        stats = rule_stats(rows, right)
        while conditions:
            # trial i drops condition i: the AND of the masks before it and
            # of those after it, one AND a trial
            before, after = [view.all_rows], [view.all_rows]
            for mask in held[:-1]:
                before.append(before[-1] & mask)
            for mask in held[:0:-1]:
                after.append(after[-1] & mask)
            trial_rows = [b & a for b, a in zip(before, reversed(after))]
            trials = [rule_stats(m, right) for m in trial_rows]
            # keeping wins only above every trial; a tie drops the earlier trial's condition
            i = best(trials + [stats])
            if i == len(trials):
                break
            del conditions[i], held[i]
            rows, stats = trial_rows[i], trials[i]
        if best([stats, baseline]) == 1:
            continue
        matched, hit = stats
        acc = hit / matched if matched > 0 else 0.0
        kept.append(Rule(tuple(conditions), rule.consequent, matched, acc))
        covered = covered | rows

    # dedupe: simplification can collapse sibling rules into the same form,
    # which match the same rows
    forms = {}
    for r in kept:
        forms.setdefault((frozenset(r.antecedent), r.consequent), r)
    unique = list(forms.values())

    uncovered = [view.weight(~covered & labelled(v)) for v in class_values]
    default = class_values[first_max(uncovered)] if sum(uncovered) > 0 else global_majority
    return RuleSet(ruleset.schema, ruleset.class_index, tuple(unique), default)


def best_rule(ruleset: RuleSet, instance) -> Rule | None:
    """The first matching rule in precedence order, or None when none matches.

    Precedence is higher accuracy, then higher coverage, then earlier
    position in the set (see RuleSet).  Raises ValueError if the instance
    does not fit the schema (see Dataset); a row of an all-categorical
    schema is checked against the set's cell sets first, as ``classify``
    checks it.
    """
    values = _check_instance(ruleset.schema, instance, None, ruleset._cells)
    for key, want, rule in ruleset._ranked:
        if rule.matches(values) if key is None else key(values) == want:
            return rule
    return None


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
