"""Gain-ratio decision-tree induction with pessimistic pruning.

Trees are grown top-down: at every node the split with the highest gain
ratio (information gain over split information) is taken, nominal
attributes branching multi-way and numeric attributes on a binary
threshold.  Instances whose tested value is missing descend every branch
with fractionally scaled weight, both while growing and while classifying.
Pruning replaces subtrees by leaves whenever an upper-confidence-bound
error estimate favors the collapse.

A numeric attribute is sorted once per node and every midpoint threshold
is scored from running class tallies: O(n log n) per attribute per node.
Those tallies are summed in sorted order rather than row order, so with
fractional weights two candidates whose gain ratios tie to within
rounding may resolve differently from a per-row rescan; unit weights sum
exactly.

A built model is immutable; concurrent classification is safe.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from operator import itemgetter

from scipy.special import betaincinv

from .dataset import (
    AttributeSpec,
    Dataset,
    _check_instance,
    class_tally,
    dump_document,
    first_max,
    is_finite_number,
    load_document,
)

MODEL_FORMAT = "ldscreen-tree"
MODEL_VERSION = 1

#: Gains at or below this are treated as zero when picking a split.
_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class TreeConfig:
    """Induction parameters; defaults follow common C4.5 practice."""

    min_leaf_weight: float = 2.0
    confidence_factor: float = 0.25
    pruning: bool = True


@dataclass(frozen=True)
class SplitCandidate:
    """Quality of splitting on one attribute (at one threshold if numeric).

    ``gain_ratio`` is ``info_gain / intrinsic_value``; a candidate with
    zero intrinsic value (all weight on one branch) is flagged invalid
    instead of dividing by zero.
    """

    attribute_index: int
    threshold: float | None
    info_gain: float
    intrinsic_value: float
    gain_ratio: float
    valid: bool


@dataclass(frozen=True)
class Leaf:
    """Terminal node.

    ``class_counts`` holds the (possibly fractional) training weight per
    class, aligned to the class declaration order; it always sums > 0.  A
    branch that received no training weight borrows its parent's counts
    for prediction, with ``weight`` recording the true arriving weight 0.
    """

    class_counts: tuple
    weight: float

    @property
    def predicted_index(self):
        return first_max(self.class_counts)


@dataclass(frozen=True)
class Decision:
    """Internal test node.

    Nominal tests carry one child per declared value (threshold None);
    numeric tests carry two children, <= threshold and > threshold.
    ``branch_weights`` is the training weight that descended each branch
    and drives fractional routing of missing values.  ``class_counts`` is
    retained for pruning and for patching empty branches.
    """

    attribute_index: int
    threshold: float | None
    children: tuple
    branch_weights: tuple
    class_counts: tuple


@dataclass(frozen=True)
class DecisionTreeModel:
    schema: tuple
    class_index: int
    root: object
    config: TreeConfig

    @property
    def class_values(self):
        return self.schema[self.class_index].values

    def node_count(self):
        return _count_nodes(self.root)

    def leaf_count(self):
        return _count_leaves(self.root)


def _count_nodes(node):
    if isinstance(node, Leaf):
        return 1
    return 1 + sum(_count_nodes(c) for c in node.children)


def _count_leaves(node):
    if isinstance(node, Leaf):
        return 1
    return sum(_count_leaves(c) for c in node.children)


# ---------------------------------------------------------------------------
# Split quality
# ---------------------------------------------------------------------------


def entropy(class_weights):
    """Shannon entropy, in bits, of a weight distribution.

    Parameters
    ----------
    class_weights : sequence of float
        Nonnegative weights per class; must not sum to zero.

    Returns
    -------
    float
        -sum(p * log2 p) with the 0*log0 = 0 convention; lies in
        [0, log2(number of classes)].
    """
    total = 0.0
    for w in class_weights:
        if w < 0:
            raise ValueError(f"negative class weight {w}")
        total += w
    if total <= 0:
        raise ValueError("entropy of an all-zero weight vector is undefined")
    h = 0.0
    for w in class_weights:
        if w > 0:
            p = w / total
            h -= p * math.log2(p)
    return h


def evaluate_split(dataset, attribute_index, threshold=None):
    """Score a candidate split of ``dataset`` on one attribute.

    Information gain is the drop in class entropy from the parent to the
    weighted children; intrinsic value is the entropy of the branch weight
    shares themselves; the gain ratio divides the two.  Instances whose
    tested value is missing are excluded from both quantities and the gain
    is discounted by the known-weight fraction, the C4.5 convention.

    A constant attribute yields a single branch, hence intrinsic value 0:
    the candidate comes back flagged invalid rather than raising.
    """
    if attribute_index == dataset.class_index:
        raise ValueError("cannot split on the class attribute")
    spec = dataset.schema[attribute_index]
    args = (dataset.rows, dataset.schema, dataset.class_index, attribute_index)
    if spec.is_categorical:
        if threshold is not None:
            raise ValueError(f"threshold given for categorical attribute {spec.name}")
        return _nominal_split(*args)
    if threshold is None:
        raise ValueError(f"numeric attribute {spec.name} needs a threshold")
    return _numeric_splits(*args, [threshold])[0]


def _branch_of(spec, threshold, value):
    if spec.is_categorical:
        return spec.values.index(value)
    return 0 if value <= threshold else 1


def _known_tally(rows, schema, class_index, attribute_index):
    """Tally the rows once, in row order, for scoring splits on one attribute.

    Returns the class tally of the rows whose tested value is known, their
    ``(value, class position, weight)`` triples, their weight, and the
    weight of all rows.
    """
    class_pos = {v: i for i, v in enumerate(schema[class_index].values)}
    parent = [0.0] * len(class_pos)
    known = []
    known_w = 0.0
    total_w = 0.0
    for values, weight in rows:
        total_w += weight
        v = values[attribute_index]
        if v is None:
            continue
        c = class_pos[values[class_index]]
        known_w += weight
        parent[c] += weight
        known.append((v, c, weight))
    return parent, known, known_w, total_w


def _nominal_split(rows, schema, class_index, attribute_index):
    """The multi-way candidate of a nominal attribute."""
    parent, known, known_w, total_w = _known_tally(
        rows, schema, class_index, attribute_index
    )
    branch_pos = {v: i for i, v in enumerate(schema[attribute_index].values)}
    branch_class = [[0.0] * len(parent) for _ in branch_pos]
    for v, c, weight in known:
        branch_class[branch_pos[v]][c] += weight
    candidates = _score_splits(
        attribute_index, [None], [branch_class], parent, known_w, total_w
    )
    return candidates[0]


def _numeric_splits(rows, schema, class_index, attribute_index, thresholds=None):
    """The binary candidates of a numeric attribute, one per threshold.

    ``thresholds`` must ascend; None means every midpoint between adjacent
    distinct known values.  The known triples are sorted once, and the
    branch tallies of all thresholds come from one ascending pass (values
    ``<= threshold``) and one descending pass (values ``> threshold``).
    """
    parent, known, known_w, total_w = _known_tally(
        rows, schema, class_index, attribute_index
    )
    known.sort(key=itemgetter(0))  # stable: equal values keep row order
    if thresholds is None:
        distinct = [v for v, _ in groupby(v for v, _, _ in known)]
        thresholds = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]

    # the right tally is summed on its own, never taken as parent - left:
    # with fractional weights the difference can round below zero
    left = []
    tally = [0.0] * len(parent)
    i = 0
    for t in thresholds:
        while i < len(known) and known[i][0] <= t:
            tally[known[i][1]] += known[i][2]
            i += 1
        left.append(tally[:])
    right = []
    tally = [0.0] * len(parent)
    i = len(known)
    for t in reversed(thresholds):
        while i > 0 and known[i - 1][0] > t:
            i -= 1
            tally[known[i][1]] += known[i][2]
        right.append(tally[:])
    right.reverse()
    return _score_splits(
        attribute_index, thresholds, zip(left, right), parent, known_w, total_w
    )


def _score_splits(attribute_index, thresholds, branch_tallies, parent, known_w, total_w):
    """One SplitCandidate per threshold from its per-branch class tallies.

    ``parent`` is the class tally of the known-valued weight ``known_w``;
    ``total_w`` also counts the rows whose tested value is missing.
    """
    if known_w <= 0:
        return [
            SplitCandidate(attribute_index, t, 0.0, 0.0, 0.0, False) for t in thresholds
        ]
    h_parent = entropy(parent)
    candidates = []
    for threshold, branch_class in zip(thresholds, branch_tallies):
        branch_w = [sum(bc) for bc in branch_class]
        if sum(1 for w in branch_w if w > 0) < 2:  # single branch: intrinsic value 0
            candidates.append(
                SplitCandidate(attribute_index, threshold, 0.0, 0.0, 0.0, False)
            )
            continue
        h_children = 0.0
        iv = 0.0
        for bc, w in zip(branch_class, branch_w):
            if w <= 0:
                continue
            share = w / known_w
            h_children += share * entropy(bc)
            iv -= share * math.log2(share)
        gain = (known_w / total_w) * (h_parent - h_children)
        candidates.append(
            SplitCandidate(attribute_index, threshold, gain, iv, gain / iv, True)
        )
    return candidates


# ---------------------------------------------------------------------------
# Growing
# ---------------------------------------------------------------------------


def build_tree(dataset, config=None):
    """Induce a decision tree for ``dataset``.

    Growth recurses greedily on the valid candidate with maximum gain
    ratio and stops on pure nodes, on nodes lighter than twice the minimum
    leaf weight, or when no candidate offers positive gain.  Each nominal
    attribute is tested at most once per path; numeric attributes may
    recur with new midpoint thresholds.  With ``config.pruning`` the grown
    tree is pessimistically pruned before being returned.
    """
    config = config or TreeConfig()
    if len(dataset) == 0:
        raise ValueError("cannot build a tree from an empty dataset")
    if not dataset.feature_indices:
        raise ValueError("dataset has no non-class attributes")
    root = _grow(dataset.rows, dataset.schema, dataset.class_index, frozenset(), config)
    model = DecisionTreeModel(dataset.schema, dataset.class_index, root, config)
    if config.pruning:
        model = prune_tree(model)
    return model


def _grow(rows, schema, class_index, used_nominal, config):
    # at the root, rows are the dataset's, so a missing label names its index
    counts = class_tally(rows, schema, class_index)
    weight = sum(counts)
    nonzero = sum(1 for c in counts if c > 0)
    if nonzero <= 1 or weight < 2 * config.min_leaf_weight:
        return Leaf(tuple(counts), weight)

    best = _best_candidate(rows, schema, class_index, used_nominal)
    if best is None:
        return Leaf(tuple(counts), weight)

    spec = schema[best.attribute_index]
    n_branches = len(spec.values) if spec.is_categorical else 2

    known = [[] for _ in range(n_branches)]
    missing = []
    for values, w in rows:
        v = values[best.attribute_index]
        if v is None:
            missing.append((values, w))
        else:
            known[_branch_of(spec, best.threshold, v)].append((values, w))

    known_w = [sum(w for _, w in branch) for branch in known]
    known_total = sum(known_w)
    branch_rows = [list(branch) for branch in known]
    for values, w in missing:
        for b in range(n_branches):
            if known_w[b] > 0:
                branch_rows[b].append((values, w * known_w[b] / known_total))

    child_used = (
        used_nominal | {best.attribute_index} if spec.is_categorical else used_nominal
    )
    children = []
    branch_weights = []
    for b in range(n_branches):
        arriving = sum(w for _, w in branch_rows[b])
        branch_weights.append(arriving)
        if arriving <= 0:
            # empty branch: majority-class leaf borrowing the parent counts
            children.append(Leaf(tuple(counts), 0.0))
        else:
            children.append(
                _grow(branch_rows[b], schema, class_index, child_used, config)
            )
    return Decision(
        best.attribute_index,
        best.threshold,
        tuple(children),
        tuple(branch_weights),
        tuple(counts),
    )


def _best_candidate(rows, schema, class_index, used_nominal):
    # generation order (attribute index, then ascending threshold) is the
    # tie-break, so the first maximum wins
    candidates = []
    for i, spec in enumerate(schema):
        if i == class_index:
            continue
        if spec.is_categorical:
            if i not in used_nominal:
                candidates.append(_nominal_split(rows, schema, class_index, i))
        else:
            candidates.extend(_numeric_splits(rows, schema, class_index, i))
    useful = [c for c in candidates if c.valid and c.info_gain > _GAIN_EPS]
    if not useful:
        return None
    return useful[first_max([c.gain_ratio for c in useful])]


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------


def ucb_error_rate(errors, total, confidence_factor):
    """Upper confidence bound on a binomial error rate.

    The exact bound: the largest rate p with P(X <= errors | total, p)
    >= confidence_factor, i.e. the (1 - CF) quantile of
    Beta(errors + 1, total - errors).  For zero errors this reduces to the
    closed form 1 - CF**(1/total).  Fractional counts from missing-value
    routing interpolate smoothly.
    """
    if total <= 0:
        return 0.0
    if errors >= total:
        return 1.0
    return float(betaincinv(errors + 1.0, total - errors, 1.0 - confidence_factor))


def _leaf_ucb_errors(counts, weight, cf):
    if weight <= 0:
        return 0.0
    errors = weight - max(counts)
    return weight * ucb_error_rate(errors, weight, cf)


def prune_tree(model):
    """Pessimistic subtree replacement.

    Bottom-up, a decision node collapses to a leaf whenever the UCB error
    estimate of that leaf is no worse than the summed estimates of its
    (already pruned) children.  Node sets only shrink: every path of the
    pruned tree is a prefix of an original path.  Idempotent.
    """
    cf = model.config.confidence_factor
    return replace(model, root=_prune(model.root, cf)[0])


def _prune(node, cf):
    """The pruned ``node`` and its summed UCB error estimate."""
    if isinstance(node, Leaf):
        return node, _leaf_ucb_errors(node.class_counts, node.weight, cf)
    pruned = [_prune(c, cf) for c in node.children]
    weight = sum(node.class_counts)
    leaf_est = _leaf_ucb_errors(node.class_counts, weight, cf)
    subtree_est = sum(est for _, est in pruned)
    if leaf_est <= subtree_est:
        return Leaf(node.class_counts, weight), leaf_est
    return replace(node, children=tuple(c for c, _ in pruned)), subtree_est


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(model, instance):
    """Route an instance down the tree; ValueError if it does not fit the schema.

    Returns
    -------
    (str, dict)
        The predicted class label and the full class distribution, which
        sums to 1.  A missing tested value descends every branch, the
        resulting leaf distributions merged in proportion to the training
        branch weights.  Ties in the distribution resolve to the earlier
        declared class.
    """
    values = _check_instance(model.schema, instance)
    class_values = model.class_values
    merged = [0.0] * len(class_values)
    _accumulate(model.root, model.schema, values, 1.0, merged)
    total = sum(merged)
    dist = [c / total for c in merged]
    return class_values[first_max(dist)], dict(zip(class_values, dist))


def _accumulate(node, schema, values, weight, merged):
    if isinstance(node, Leaf):
        total = sum(node.class_counts)
        for i, c in enumerate(node.class_counts):
            merged[i] += weight * c / total
        return
    v = values[node.attribute_index]
    if v is None:
        total_bw = sum(node.branch_weights)
        for child, bw in zip(node.children, node.branch_weights):
            if bw > 0:
                _accumulate(child, schema, values, weight * bw / total_bw, merged)
        return
    spec = schema[node.attribute_index]
    b = _branch_of(spec, node.threshold, v)
    _accumulate(node.children[b], schema, values, weight, merged)


def training_accuracy(model, dataset):
    """Fraction of instances the model labels with their recorded class."""
    correct = 0
    for inst in dataset.instances:
        label, _ = classify(model, inst)
        if label == inst.values[dataset.class_index]:
            correct += 1
    return correct / len(dataset)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def model_to_json(model):
    """Serialize a model to a JSON document (versioned)."""
    body = {
        "schema": _schema_to_json(model.schema),
        "class_index": model.class_index,
        "config": asdict(model.config),
        "root": _node_to_json(model.root, model.schema),
    }
    return dump_document(MODEL_FORMAT, MODEL_VERSION, body)


def _schema_to_json(schema):
    return [
        {"name": a.name, "kind": a.kind, "values": list(a.values)} for a in schema
    ]


def _schema_from_json(items):
    # AttributeSpec refuses repeated values
    schema = tuple(AttributeSpec(a["name"], a["kind"], tuple(a["values"])) for a in items)
    for spec in schema:
        if not all(isinstance(v, str) for v in spec.values):
            raise ValueError(f"values of {spec.name} are not strings")
    return schema


def _node_to_json(node, schema):
    if isinstance(node, Leaf):
        return {
            "type": "leaf",
            "class_counts": list(node.class_counts),
            "weight": node.weight,
        }
    return {
        "type": "decision",
        "attribute": schema[node.attribute_index].name,
        "threshold": node.threshold,
        "branch_weights": list(node.branch_weights),
        "class_counts": list(node.class_counts),
        "children": [_node_to_json(c, schema) for c in node.children],
    }


def _is_weight(value):
    return is_finite_number(value) and value >= 0


def _weights(items, n, what):
    """``items`` as a tuple of ``n`` finite non-negative numbers."""
    weights = tuple(items)
    if len(weights) != n or not all(map(_is_weight, weights)):
        raise ValueError(f"{what} must be {n} non-negative numbers, got {items!r}")
    return weights


def _node_from_json(doc, schema, name_to_index, n_classes):
    # refuses every value that would break classify or extract_rules
    counts = _weights(doc["class_counts"], n_classes, "class_counts")
    if doc["type"] == "leaf":
        if not _is_weight(doc["weight"]) or sum(counts) <= 0:
            raise ValueError("a leaf needs a weight and class_counts summing above 0")
        return Leaf(counts, doc["weight"])
    index = name_to_index[doc["attribute"]]
    spec = schema[index]
    if not spec.is_categorical and not is_finite_number(doc["threshold"]):
        raise ValueError(f"numeric test on {spec.name} needs a numeric threshold")
    n_branches = len(spec.values) if spec.is_categorical else 2
    children = tuple(
        _node_from_json(c, schema, name_to_index, n_classes) for c in doc["children"]
    )
    if len(children) != n_branches:
        raise ValueError(f"test on {spec.name} needs {n_branches} children")
    branch_weights = _weights(doc["branch_weights"], n_branches, "branch_weights")
    if sum(branch_weights) <= 0:
        raise ValueError("branch_weights sum to zero")
    return Decision(index, doc["threshold"], children, branch_weights, counts)


def model_from_json(text):
    """Read a model_to_json document; ParseError when it is malformed."""
    return load_document(text, MODEL_FORMAT, MODEL_VERSION, _model_from_doc)


def _model_from_doc(doc):
    schema = _schema_from_json(doc["schema"])
    class_index = doc["class_index"]
    if type(class_index) is not int:
        raise ValueError(f"class_index {class_index!r} is not an integer")
    Dataset(schema, class_index)  # distinct names and a nominal class of 2+ values
    name_to_index = {a.name: i for i, a in enumerate(schema)}
    n_classes = len(schema[class_index].values)
    root = _node_from_json(doc["root"], schema, name_to_index, n_classes)
    config = TreeConfig(**doc["config"])
    return DecisionTreeModel(schema, class_index, root, config)
