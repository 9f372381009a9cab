"""Gain-ratio decision-tree induction with pessimistic pruning.

Trees are grown top-down: at every node the split with the highest gain
ratio (information gain over split information) is taken, nominal
attributes branching multi-way and numeric attributes on a binary
threshold.  Instances whose tested value is missing descend every branch
with fractionally scaled weight, both while growing and while classifying.
Pruning replaces subtrees by leaves whenever an upper-confidence-bound
error estimate favors the collapse.

Growth reads the encoded view of ``columns``, built once per call: a node
is an array of row positions with their weights.  A nominal attribute's
branch tallies are one ``bincount`` per node; a numeric attribute is
sorted once per node and every midpoint threshold is scored from
cumulative class tallies, O(n log n) per attribute per node.  Those
tallies are summed in sorted order rather than row order, so with
fractional weights two candidates whose gain ratios tie to within
rounding may resolve differently from a per-row rescan; unit weights sum
exactly.  The scores themselves stay in Python (``math.log2``, which
``np.log2`` does not match bit for bit), and every weight written to a
model is a left-to-right sum, so model files are the same on every
supported Python.

A built model is immutable; concurrent classification is safe.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .dataset import (
    EQ,
    GT,
    LE,
    AttributeSpec,
    Dataset,
    _check_instance,
    dump_document,
    first_max,
    is_finite_number,
    load_document,
    total,
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

    def __post_init__(self):
        # NaN or out-of-range values would grow or prune a different tree silently
        if not (is_finite_number(self.min_leaf_weight) and self.min_leaf_weight >= 0):
            raise ValueError(
                f"min_leaf_weight must be a finite number >= 0, got {self.min_leaf_weight!r}"
            )
        if not (is_finite_number(self.confidence_factor) and 0 < self.confidence_factor < 1):
            raise ValueError(
                f"confidence_factor must be a number strictly between 0 and 1, "
                f"got {self.confidence_factor!r}"
            )


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
class Condition:
    """A single attribute test; '=' for categorical, '<='/'>' for numeric."""

    attribute_index: int
    relation: str
    value: object

    def holds(self, values):
        v = values[self.attribute_index]
        if v is None:
            return False
        if self.relation == EQ:
            return v == self.value
        return v <= self.value if self.relation == LE else v > self.value


def branch_conditions(schema, attribute_index, threshold):
    """The Condition each branch of a split tests, in branch order.

    One ``=`` per declared value of a categorical attribute, else ``<=``
    then ``>`` the threshold; growth, rules and the model reader use these.
    """
    spec = schema[attribute_index]
    if spec.is_categorical:
        return [Condition(attribute_index, EQ, v) for v in spec.values]
    return [Condition(attribute_index, relation, threshold) for relation in (LE, GT)]


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

    ``children`` follow ``branch_conditions``: one per declared value of a
    nominal test (threshold None), or <= then > the threshold of a numeric one.
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
        return sum(1 for _ in _walk(self.root))

    def leaf_count(self):
        return sum(isinstance(node, Leaf) for node in _walk(self.root))


def _walk(node):
    """``node`` and every node below it, depth first."""
    yield node
    for child in getattr(node, "children", ()):
        yield from _walk(child)


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
    ValueError on an index outside the schema or of the class, on a
    threshold for a categorical attribute, and on a numeric one without a
    finite threshold.
    """
    from .columns import Columns

    if not 0 <= attribute_index < len(dataset.schema):
        raise ValueError(f"attribute index {attribute_index} out of range")
    if attribute_index == dataset.class_index:
        raise ValueError("cannot split on the class attribute")
    spec = dataset.schema[attribute_index]
    if spec.is_categorical:
        if threshold is not None:
            raise ValueError(f"threshold given for categorical attribute {spec.name}")
    elif not is_finite_number(threshold):
        raise ValueError(f"numeric attribute {spec.name} needs a finite threshold")
    tallies = Columns(dataset).root().split_tallies(attribute_index, [threshold])
    return _score_splits(attribute_index, *tallies)[0]


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
        branch_w = [total(bc) for bc in branch_class]
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
    from .columns import Columns

    config = config or TreeConfig()
    if len(dataset) == 0:
        raise ValueError("cannot build a tree from an empty dataset")
    if not dataset.feature_indices:
        raise ValueError("dataset has no non-class attributes")
    root = Columns(dataset).root()
    root = _grow(root, dataset.schema, dataset.class_index, frozenset(), config)
    model = DecisionTreeModel(dataset.schema, dataset.class_index, root, config)
    if config.pruning:
        model = prune_tree(model)
    return model


def _grow(node, schema, class_index, used_nominal, config):
    counts = node.class_counts()
    weight = total(counts)
    nonzero = sum(1 for c in counts if c > 0)
    if nonzero <= 1 or weight < 2 * config.min_leaf_weight:
        return Leaf(tuple(counts), weight)

    best = _best_candidate(node, schema, class_index, used_nominal)
    if best is None:
        return Leaf(tuple(counts), weight)

    child_used = used_nominal
    if schema[best.attribute_index].is_categorical:
        child_used = used_nominal | {best.attribute_index}
    children = []
    branch_weights = []
    conditions = branch_conditions(schema, best.attribute_index, best.threshold)
    for child in node.children(conditions):
        branch_weights.append(child.weight)
        if child.weight <= 0:
            # empty branch: majority-class leaf borrowing the parent counts
            children.append(Leaf(tuple(counts), 0.0))
        else:
            children.append(_grow(child, schema, class_index, child_used, config))
    return Decision(
        best.attribute_index,
        best.threshold,
        tuple(children),
        tuple(branch_weights),
        tuple(counts),
    )


def _best_candidate(node, schema, class_index, used_nominal):
    # generation order (attribute index, then ascending threshold) is the
    # tie-break, so the first maximum wins
    candidates = []
    for i in range(len(schema)):
        if i != class_index and i not in used_nominal:
            candidates.extend(_score_splits(i, *node.split_tallies(i)))
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
    from scipy.special import betaincinv  # imported here: classify never needs scipy

    return float(betaincinv(errors + 1.0, total - errors, 1.0 - confidence_factor))


def _leaf_ucb_errors(counts, weight, cf):
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
    weight = total(node.class_counts)
    leaf_est = _leaf_ucb_errors(node.class_counts, weight, cf)
    subtree_est = total(est for _, est in pruned)
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
    merged_total = total(merged)
    dist = [c / merged_total for c in merged]
    return class_values[first_max(dist)], dict(zip(class_values, dist))


def _accumulate(node, schema, values, weight, merged):
    if isinstance(node, Leaf):
        leaf_total = total(node.class_counts)
        for i, c in enumerate(node.class_counts):
            merged[i] += weight * c / leaf_total
        return
    v = values[node.attribute_index]
    if v is None:
        total_bw = total(node.branch_weights)
        for child, bw in zip(node.children, node.branch_weights):
            if bw > 0:
                _accumulate(child, schema, values, weight * bw / total_bw, merged)
        return
    spec = schema[node.attribute_index]
    if spec.is_categorical:
        b = spec.values.index(v)
    else:
        b = 0 if v <= node.threshold else 1
    _accumulate(node.children[b], schema, values, weight, merged)


def training_accuracy(model, dataset):
    """Fraction of instances the model labels with their recorded class."""
    class_index = dataset.class_index
    correct = sum(classify(model, i)[0] == i.values[class_index] for i in dataset.instances)
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
    # AttributeSpec refuses values that are not strings, repeated or unreadable
    return tuple(AttributeSpec(a["name"], a["kind"], tuple(a["values"])) for a in items)


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
    n_branches = len(branch_conditions(schema, index, doc["threshold"]))
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
