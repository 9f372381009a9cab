"""Independent reference implementations backing the acceptance tests.

Everything here is written from the plain definitions (dict tallies,
explicit pair counting, exhaustive enumeration) so that agreement with the
library is a real check rather than the same code running twice.
"""

import itertools
import math
import random
import sys
from functools import reduce
from itertools import groupby
from operator import add, itemgetter

import numpy as np
from hypothesis import strategies as st

from ldscreen.dataset import AttributeSpec, Dataset, Instance, class_tally, first_max, total
from ldscreen.rules import SIMPLIFY_CONFIDENCE, Rule, RuleSet
from ldscreen.tree import _GAIN_EPS, Decision, Leaf, SplitCandidate, entropy, ucb_error_rate


def binary_dataset(rows, n_attrs, class_values=("N", "Y"), names=None):
    names = names or [f"a{i}" for i in range(n_attrs)]
    schema = tuple(
        AttributeSpec.categorical(n, ("0", "1")) for n in names
    ) + (AttributeSpec.categorical("cls", class_values),)
    return Dataset(schema, n_attrs, tuple(Instance(tuple(r)) for r in rows))


def random_binary_dataset(rng, n_rows, n_attrs):
    rows = [
        [rng.choice("01") for _ in range(n_attrs)] + [rng.choice("NY")]
        for _ in range(n_rows)
    ]
    return binary_dataset(rows, n_attrs)


def random_mixed_dataset(rng, n_rows, n_numeric, n_nominal, missing_rate=0.0):
    """Random dataset mixing numeric and 3-valued nominal attributes."""
    schema = [AttributeSpec.numeric(f"x{i}") for i in range(n_numeric)]
    schema += [
        AttributeSpec.categorical(f"s{i}", ("A", "B", "C")) for i in range(n_nominal)
    ]
    schema.append(AttributeSpec.categorical("cls", ("P", "Q")))
    schema = tuple(schema)
    rows = []
    for _ in range(n_rows):
        vals = []
        for spec in schema[:-1]:
            if missing_rate and rng.random() < missing_rate:
                vals.append(None)
            elif spec.kind == "numeric":
                vals.append(round(rng.uniform(-4, 4), 2))
            else:
                vals.append(rng.choice(spec.values))
        vals.append(rng.choice(("P", "Q")))
        rows.append(Instance(tuple(vals)))
    return Dataset(schema, len(schema) - 1, tuple(rows))


#: Numbers at the edges of the float range, drawn by ``extremes=True``.
EXTREME_NUMBERS = (
    sys.float_info.max, -sys.float_info.max, 1e308, -1e308, 1e154, -1e154, 1e300,
    5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.0,
)


@st.composite
def weighted_mixed_datasets(draw, extremes=False):
    """Random mixed schemas with blanks, repeated numbers and fractional weights.

    With ``extremes``, a numeric cell is one of EXTREME_NUMBERS 60 % of
    the time and otherwise uniform over (-1e308, 1e308), so that midpoints
    overflow, underflow and meet signed zeros.
    """
    kinds = draw(st.lists(st.sampled_from(["numeric", 1, 2, 3]), min_size=1, max_size=4))
    classes = "PQR"[: draw(st.integers(2, 3))]
    schema = tuple(
        AttributeSpec.numeric(f"x{i}")
        if kind == "numeric"
        else AttributeSpec.categorical(f"s{i}", "ABC"[:kind])
        for i, kind in enumerate(kinds)
    ) + (AttributeSpec.categorical("cls", classes),)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    missing_rate = rng.choice((0.0, 0.1, 0.3))

    def cell(spec):
        if rng.random() < missing_rate:
            return None
        if spec.kind == "numeric" and extremes:
            if rng.random() < 0.6:
                return rng.choice(EXTREME_NUMBERS)
            return rng.uniform(-1, 1) * 1e308
        if spec.kind == "numeric":
            return rng.choice((rng.randint(-6, 6) / 4, round(rng.uniform(-3, 3), 3)))
        return rng.choice(spec.values)

    rows = [
        Instance(
            tuple(cell(s) for s in schema[:-1]) + (rng.choice(classes),),
            rng.uniform(0.05, 3.0),
        )
        for _ in range(rng.randint(2, 40))
    ]
    return Dataset(schema, len(schema) - 1, rows)


def midpoint(a, b):
    """The threshold between ``a`` and ``b`` as ``Level.midpoints`` takes it.

    That is ``(a + b) / 2``, or ``a / 2 + b / 2`` where the sum overflows.
    """
    both = a + b
    return a / 2 + b / 2 if math.isinf(both) else both / 2


def reference_split_score(dataset, attribute_index, threshold=None):
    """Recompute info gain / intrinsic value from first principles.

    Returns (ig, iv, igr), or None for a degenerate candidate (fewer than
    two non-empty branches among the known-valued instances).
    """
    spec = dataset.schema[attribute_index]

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
    for inst in dataset.instances:
        total += inst.weight
        v = inst.values[attribute_index]
        if v is None:
            continue
        known += inst.weight
        label = inst.values[dataset.class_index]
        parent[label] = parent.get(label, 0.0) + inst.weight
        grp = per_branch.setdefault(branch(v), {})
        grp[label] = grp.get(label, 0.0) + inst.weight
    nonempty = [g for g in per_branch.values() if sum(g.values()) > 0]
    if known == 0 or len(nonempty) < 2:
        return None
    ig = h(parent)
    iv = 0.0
    for grp in nonempty:
        share = sum(grp.values()) / known
        ig -= share * h(grp)
        iv -= share * math.log(share) / math.log(2)
    ig *= known / total
    return ig, iv, ig / iv


def hidden_tree(rng, attrs, depth):
    """A random decision tree of depth <= 3; leaves are class labels."""
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


def recursive_distribution(model, values, share_first=False):
    """The class distribution of the checked row ``values``, one call per node reached.

    A missing tested value sends the row down every branch of positive
    training weight, in branch order, its weight scaled by the branch's
    share; each leaf it reaches adds its class shares, depth first.  If
    every part is 0, each share is divided out before it scales, and the
    row is sent down again.
    """
    merged = [0.0] * len(model.class_values)

    def scaled(weight, part, whole):
        return weight * (part / whole) if share_first else weight * part / whole

    def accumulate(node, weight):
        if isinstance(node, Leaf):
            leaf_total = total(node.class_counts)
            for i, c in enumerate(node.class_counts):
                merged[i] += scaled(weight, c, leaf_total)
            return
        v = values[node.attribute_index]
        if v is None:
            total_bw = total(node.branch_weights)
            for child, bw in zip(node.children, node.branch_weights):
                if bw > 0:
                    accumulate(child, scaled(weight, bw, total_bw))
            return
        spec = model.schema[node.attribute_index]
        if spec.is_categorical:
            b = spec.values.index(v)
        else:
            b = 0 if v <= node.threshold else 1
        accumulate(node.children[b], weight)

    accumulate(model.root, 1.0)
    merged_total = total(merged)
    if merged_total == 0 and not share_first:
        return recursive_distribution(model, values, True)
    return [c / merged_total for c in merged]


def roc_pairwise_oracle(scores, actual, positive):
    """O(n^2) pair counting; ties worth one half."""
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


def best_rule_oracle(ruleset, values):
    """Every rule tested: the matching one of highest (accuracy, coverage).

    Only a strictly higher pair replaces the incumbent, so the earliest
    position wins a full tie.  None when no rule matches.
    """
    best = None
    for rule in ruleset.rules:
        if not all(c.holds(values) for c in rule.antecedent):
            continue
        if best is None or (rule.accuracy, rule.coverage) > (best.accuracy, best.coverage):
            best = rule
    return best


def first_rule_oracle(ruleset, values):
    """The first rule of ``ruleset`` that ``Rule.matches`` ``values``, in ranked order.

    The rules are sorted by descending accuracy, then descending coverage;
    the sort is stable.  None when no rule matches.
    """
    ranked = sorted(ruleset.rules, key=lambda r: (-r.accuracy, -r.coverage))
    return next((rule for rule in ranked if rule.matches(values)), None)


def read_rows_oracle(schema, rows):
    """What a reader makes of the token ``rows`` of an all-categorical ``schema``.

    One token at a time: a row must have one token per attribute; each
    token is stripped, ``'?'`` and empty are missing (None), and any other
    token must be a symbol its attribute declares.  Returns ``(values,
    None)``, the values of every row, or ``(None, (i, message))`` for the
    first row ``i`` refused, ``message`` the reader's without its line.
    """
    read = []
    for i, tokens in enumerate(rows):
        if len(tokens) != len(schema):
            return None, (i, f"expected {len(schema)} values, got {len(tokens)}")
        values = []
        for spec, token in zip(schema, tokens):
            token = token.strip()
            if token in ("?", ""):
                values.append(None)
            elif token in spec.values:
                values.append(token)
            else:
                return None, (i, f"{token!r} not declared for attribute {spec.name}")
        read.append(tuple(values))
    return read, None


def simplify_rules_oracle(ruleset, dataset):
    """C4.5rules simplification of ``ruleset`` on ``dataset``, one trial at a time.

    A trial's rows are found from scratch with ``Condition.holds``, and
    its weights added in row order; every estimate is one minus
    ``ucb_error_rate`` at SIMPLIFY_CONFIDENCE (0 for a rule matching no
    weight).  A rule drops the condition of the first best trial unless
    that trial's estimate is below the rule's own, and is kept unless its
    estimate ends below that of the match-everything rule of the majority
    class.  Of rules of one form the first is kept.  The default class is
    the first majority among the rows no kept rule matches, or among all
    rows if those weigh nothing.
    """
    rows = [(inst.values, inst.values[dataset.class_index], inst.weight) for inst in dataset.instances]
    classes = dataset.class_values

    def stats(conditions, consequent):
        matched = hit = 0.0
        for values, label, weight in rows:
            if all(c.holds(values) for c in conditions):
                matched += weight
                if label == consequent:
                    hit += weight
        return matched, hit

    def estimate(matched, hit):
        if matched <= 0:
            return 0.0
        return 1.0 - ucb_error_rate(matched - hit, matched, SIMPLIFY_CONFIDENCE)

    def tally(of_row):
        weights = [0.0] * len(classes)
        for values, label, weight in rows:
            if of_row(values):
                weights[classes.index(label)] += weight
        return weights

    overall = tally(lambda values: True)
    majority = classes[overall.index(max(overall))]
    baseline = estimate(*stats((), majority))
    kept = {}
    for rule in ruleset.rules:
        conditions = list(rule.antecedent)
        current = stats(conditions, rule.consequent)
        while conditions:
            trials = [
                stats(conditions[:i] + conditions[i + 1:], rule.consequent)
                for i in range(len(conditions))
            ]
            best = 0
            for i, trial in enumerate(trials):
                if estimate(*trial) > estimate(*trials[best]):
                    best = i
            if estimate(*trials[best]) < estimate(*current):
                break
            del conditions[best]
            current = trials[best]
        if estimate(*current) < baseline:
            continue
        matched, hit = current
        accuracy = hit / matched if matched > 0 else 0.0
        form = (frozenset(conditions), rule.consequent)
        kept.setdefault(form, Rule(tuple(conditions), rule.consequent, matched, accuracy))
    kept = list(kept.values())
    uncovered = tally(lambda values: not any(r.matches(values) for r in kept))
    default = classes[uncovered.index(max(uncovered))] if max(uncovered) > 0 else majority
    return RuleSet(ruleset.schema, ruleset.class_index, tuple(kept), default)


def enumeration_min_wcss(rows):
    """Exhaustive WCSS minimum over all 2-partitions of the rows."""
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    best = None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([True] + [(bits >> i) & 1 == 0 for i in range(n - 1)])
        if mask.all():
            continue
        w = 0.0
        for grp in (rows[mask], rows[~mask]):
            w += ((grp - grp.mean(axis=0)) ** 2).sum()
        if best is None or w < best:
            best = w
    return best


def column_mean_mode(dataset):
    """Brute-force per-column fill values: mean or first-most-common."""
    fills = {}
    for i, spec in enumerate(dataset.schema):
        known = [v for v in dataset.column(i) if v is not None]
        if not known:
            fills[i] = None
            continue
        if spec.kind == "numeric":
            # added left to right: the builtin sum compensates from Python 3.12
            fills[i] = reduce(add, known, 0.0) / len(known)
        else:
            counts = {v: known.count(v) for v in spec.values}
            top = max(counts.values())
            fills[i] = next(v for v in spec.values if counts[v] == top)
    return fills


def all_binary_inputs(n_attrs):
    return itertools.product("01", repeat=n_attrs)


# ---------------------------------------------------------------------------
# Row-loop tree growth: the grower as it was before the encoded view, kept
# verbatim (its sums go through dataset.total) as the reference that
# build_tree must match node for node.
# ---------------------------------------------------------------------------


def row_loop_tree(dataset, config):
    """The unpruned root that the row-loop grower builds from ``dataset``."""
    return _grow(dataset.rows, dataset.schema, dataset.class_index, frozenset(), config)


def _branch_of(spec, threshold, value):
    if spec.is_categorical:
        return spec.values.index(value)
    return 0 if value <= threshold else 1


def partition_node_by_node(dataset, nodes, tests):
    """Per test, each branch's ``(row, weight)`` pairs, one node at a time.

    ``nodes`` holds each node's rows, positions in ``dataset``, and their
    weights; ``tests`` lists ``(node position, attribute index,
    threshold)``.  A branch takes the node's rows whose value it tests, in
    order, then each missing row at ``w * branch_w / known_total`` if its
    branch_w, summed left to right, is positive.
    """
    branches = []
    for j, i, threshold in tests:
        spec = dataset.schema[i]
        known = [[] for _ in (spec.values if spec.is_categorical else "<>")]
        missing = []
        for row, w in zip(*nodes[j]):
            v = dataset.instances[row].values[i]
            if v is None:
                missing.append((row, w))
            else:
                known[_branch_of(spec, threshold, v)].append((row, w))
        known_w = [total(w for _, w in pairs) for pairs in known]
        known_total = total(known_w)
        branches.append([
            pairs + [(row, w * bw / known_total) for row, w in missing] if bw > 0 else pairs
            for pairs, bw in zip(known, known_w)
        ])
    return branches


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
        thresholds = [midpoint(a, b) for a, b in zip(distinct, distinct[1:])]

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
        shares = [total(bc) / known_w for bc in branch_class]
        if sum(1 for share in shares if share > 0) < 2:  # intrinsic value 0
            candidates.append(
                SplitCandidate(attribute_index, threshold, 0.0, 0.0, 0.0, False)
            )
            continue
        h_children = 0.0
        iv = 0.0
        for bc, share in zip(branch_class, shares):
            if share <= 0:  # empty, or too light beside the others for a float
                continue
            h_children += share * entropy(bc)
            iv -= share * math.log2(share)
        gain = (known_w / total_w) * (h_parent - h_children)
        candidates.append(
            SplitCandidate(attribute_index, threshold, gain, iv, gain / iv, True)
        )
    return candidates


def _grow(rows, schema, class_index, used_nominal, config):
    # at the root, rows are the dataset's, so a missing label names its index
    counts = class_tally(rows, schema, class_index)
    weight = total(counts)
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

    known_w = [total(w for _, w in branch) for branch in known]
    known_total = total(known_w)
    branch_rows = [list(branch) for branch in known]
    for values, w in missing:
        for b in range(n_branches):
            if known_w[b] > 0:
                scaled = w * known_w[b]  # divided first only where it overflows
                scaled = w / known_total * known_w[b] if math.isinf(scaled) else scaled / known_total
                branch_rows[b].append((values, scaled))

    child_used = (
        used_nominal | {best.attribute_index} if spec.is_categorical else used_nominal
    )
    children = []
    branch_weights = []
    for b in range(n_branches):
        arriving = total(w for _, w in branch_rows[b])
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
