"""Gain-ratio decision-tree induction with pessimistic pruning.

Trees are grown top-down: at every node the split with the highest gain
ratio (information gain over split information) is taken, nominal
attributes branching multi-way and numeric attributes on a binary
threshold.  Instances whose tested value is missing descend every branch
with fractionally scaled weight, both while growing and while classifying.
Pruning replaces subtrees by leaves whenever an upper-confidence-bound
error estimate favors the collapse.  Its bounds come from a pure-Python
screen of scipy's exact quantile; scipy is loaded only for a comparison
the screen cannot settle (``_decide``).

Growth reads the encoded view of ``columns`` (``columns.view_of``),
built at most once per call: a cross-validation fold reads its parent's.
The tree grows level by level from the root's (``columns.Columns.root``):
each level is one ``columns.Level``, the row positions and weights of
its nodes in one array, and the nodes of a level that split are
partitioned in one pass (``columns.Level.partition``).  Every candidate
split of a level, nominal or numeric, is one entry of one table
(``columns.Level.candidates``): a nominal attribute's branch tallies
come from one pass over the rows of the level's open nodes, and a
numeric attribute is sorted once per node, the tallies of every
midpoint threshold being cumulative sums, O(n log n) per attribute per
node.  Those tallies are summed in sorted order rather than row order,
so with fractional weights two candidates whose gain ratios tie to
within rounding may resolve differently from a per-row rescan; unit
weights sum exactly.  ``columns`` only tallies; this module makes the
whole split decision.  numpy screens the table once per level
(``_screen``, within ``_screen_error`` of the exact scores), and only the
candidates that can be the best are scored again in Python, one
``_score`` each (``_best_candidates``).  The scores that decide stay in
Python (``math.log2``, which ``np.log2`` does not match bit for bit),
and every weight written to a model is a left-to-right sum, so model
files are the same on every supported Python.

No pass over a tree recurses: growth, pruning and the model file build a
tree from its deepest level up (``_bottom_up``), and the other walks loop.

A built model is immutable; concurrent classification is safe.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial

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
    is_weight,
    load_document,
    total,
)

MODEL_FORMAT = "ldscreen-tree"
MODEL_VERSION = 1

#: Gains at or below this are treated as zero when picking a split.
_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class TreeConfig:
    """Induction parameters.

    A node lighter than twice ``min_leaf_weight`` is not split.  No
    branch's weight is checked, so a leaf can weigh less than it.
    """

    min_leaf_weight: float = 2.0
    confidence_factor: float = 0.25
    pruning: bool = True

    def __post_init__(self):
        # NaN or out-of-range values would grow or prune a different tree silently
        if not is_weight(self.min_leaf_weight):
            raise ValueError(
                f"min_leaf_weight must be a finite number >= 0, got {self.min_leaf_weight!r}"
            )
        _check_confidence(self.confidence_factor)


def _check_confidence(confidence_factor):
    if not (is_finite_number(confidence_factor) and 0 < confidence_factor < 1):
        raise ValueError(
            f"confidence_factor must be a number strictly between 0 and 1, "
            f"got {confidence_factor!r}"
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

    # The dataclass's own ==, hash and repr recurse once per tree level; these loop.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _listing(self) == _listing(other)

    def __hash__(self):
        return hash(_fields(self))

    def __repr__(self):
        return _bottom_up(_levels(self, _children), _repr)


def _fields(node):
    """``node``'s fields other than its children, or the Leaf itself."""
    if not isinstance(node, Decision):
        return node
    return node.attribute_index, node.threshold, node.branch_weights, node.class_counts


def _listing(root):
    """The tree at ``root`` level by level: each node's ``_fields`` and child count."""
    levels = _levels(root, _children)
    return [[(_fields(node), len(_children(node))) for node in level] for level in levels]


def _repr(node, below):
    """The dataclass repr of ``node``, its children's taken from ``below``."""
    if not isinstance(node, Decision):
        return repr(node)
    children = [next(below) for _ in node.children]
    return (
        f"Decision(attribute_index={node.attribute_index!r}, threshold={node.threshold!r}, "
        f"children=({', '.join(children)}{',' * (len(children) == 1)}), "
        f"branch_weights={node.branch_weights!r}, class_counts={node.class_counts!r})"
    )


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
        return sum(1 for _ in _paths(self.root, self.schema))

    def leaf_count(self):
        return sum(isinstance(node, Leaf) for _, node in _paths(self.root, self.schema))


def _paths(root, schema):
    """``(branch_conditions taken to node, node)`` for ``root`` and each node below, depth first."""
    stack = [((), root)]
    while stack:
        conditions, node = stack.pop()
        yield conditions, node
        if isinstance(node, Decision):
            pairs = zip(branch_conditions(schema, node.attribute_index, node.threshold), node.children)
            stack += reversed([(conditions + (cond,), child) for cond, child in pairs])


def _children(node):
    return node.children if isinstance(node, Decision) else ()


def _levels(root, children):
    """The nodes of the tree at ``root``, level by level; ``children(node)`` lists a node's."""
    levels = [[root]]
    while below := [child for node in levels[-1] for child in children(node)]:
        levels.append(below)
    return levels


def _bottom_up(levels, make):
    """``make(node, below)`` of the root, deepest level first: ``below`` yields the next level's."""
    made = []
    for level in reversed(levels):
        below = iter(made)
        made = [make(node, below) for node in level]
    return made[0]


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
        -sum(p * log2 p) with the 0*log0 = 0 convention, which also takes
        a share p too small beside the total for a float to hold; lies in
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
        p = w / total
        if p > 0:
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
    from .columns import view_of

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
    root = view_of(dataset).root()
    if spec.is_categorical:
        splits = root.nominal({attribute_index: [0]})
    else:
        splits = root.midpoints(attribute_index, 0, [threshold])
    return _score(splits, 0)


def _score(splits, c):
    """The SplitCandidate of candidate ``c`` of the ``columns.Candidates`` table ``splits``.

    Its scores come from its row of branch tallies, its parent tally of
    the known-valued weight ``known_w[c]`` and ``total_w[c]``, which also
    counts the rows whose tested value is missing.  A branch counts when
    its share of ``known_w[c]`` is positive: not an empty one, the
    padding past the candidate's last branch included, nor one too light
    beside the others for a float to hold its share.  A candidate with
    fewer than two such branches, or with no known weight, has intrinsic
    value 0 and is invalid before the parent's entropy is taken.
    """
    attribute_index = int(splits.attributes[c])
    threshold = float(splits.thresholds[c])
    threshold = None if math.isnan(threshold) else threshold
    known_w, total_w = float(splits.known_w[c]), float(splits.total_w[c])
    branch_class = splits.branches[c].tolist() if known_w > 0 else []
    shares = [(share, bc) for bc in branch_class if (share := total(bc) / known_w) > 0]
    if len(shares) < 2:  # intrinsic value 0
        return SplitCandidate(attribute_index, threshold, 0.0, 0.0, 0.0, False)
    h_parent = entropy(splits.parent[c].tolist())
    h_children = 0.0
    iv = 0.0
    for share, bc in shares:
        h_children += share * entropy(bc)
        iv -= share * math.log2(share)
    gain = (known_w / total_w) * (h_parent - h_children)
    return SplitCandidate(attribute_index, threshold, gain, iv, gain / iv, True)


def _screen(splits):
    """``(gain, intrinsic value, valid)`` arrays of the Candidates table ``splits``.

    The gain and the intrinsic value follow ``_score``'s formulas in
    numpy, the parent's entropy included, so they can differ from its
    scores by rounding; ``_screen_error`` bounds the difference.  The
    zero tallies past a candidate's last branch add only zeros.
    ``valid`` is exact: each branch weight is added left to right, as
    ``_score`` adds it, so both divide the same floats into the same
    shares and count the same branches of positive share.
    """
    import numpy as np

    def xlog2x(x):  # 0 where x is 0
        return x * np.log2(x, out=np.zeros_like(x), where=x > 0)

    parent_w = splits.parent.sum(axis=1)
    h_parent = -xlog2x(splits.parent / np.where(parent_w > 0, parent_w, 1.0)[:, None]).sum(axis=1)
    weight = np.cumsum(splits.branches, axis=2)[:, :, -1]
    p = splits.branches / np.where(weight > 0, weight, 1.0)[:, :, None]
    h_branch = -xlog2x(p).sum(axis=2)
    share = weight / np.where(splits.known_w > 0, splits.known_w, 1.0)[:, None]
    valid = (share > 0).sum(axis=1) >= 2
    iv = -xlog2x(share).sum(axis=1)
    gain = (splits.known_w / splits.total_w) * (h_parent - (share * h_branch).sum(axis=1))
    return gain, iv, valid


def _screen_error(n_classes, branches=2):
    """E: how far ``_screen``'s gain or intrinsic value may be from ``_score``'s.

    Both sides compute from the same float tallies, so only rounding
    separates them.  With u = 2**-53, k classes, b branches, and every
    log2 within 4 ulps (relative error 8u):

    - a branch weight, summed over k classes in any order, and its class
      shares p = tally / weight carry relative error gamma_k ~ k u;
    - each term p log2 p is then off by |p log2 p| (gamma_k + 9u) plus
      p * 1.5 gamma_k (log2 of p (1 + t) moves by at most 1.5 |t|), and
      adding the k terms costs gamma_{k-1} of their sum; as the entropy
      is at most log2 k and the shares sum to 1, an entropy of k class
      weights is off by at most ((2k + 9) log2 k + 2k) u: so is a branch
      entropy, and so is the parent's, which ``_screen`` computes in numpy;
    - the children's entropy, b shares w / known_w (relative error
      gamma_k) times branch entropies, added in any order (gamma_{b-1}),
      is off by at most ((3k + b + 9) log2 k + 2k) u on each side; the
      gain, whose factor ``known_w / total_w`` both sides round alike,
      adds the parent's entropy and two roundings of at most u log2 k:
      ((5k + b + 20) log2 k + 4k) u on each side, twice that between them;
    - the intrinsic value, b terms s log2 s of shares s, summing to at
      most log2 b in magnitude, is off by at most (1.5k + (k + b + 8)
      log2 b) u on each side, twice that between them.

    E doubles the sum of the two, 2 ((10k + 2b + 40) log2 k + 2 (k + b +
    8) log2 b + 11k) u.  The doubling covers the second-order terms,
    shares that sum to 1 only to within 2 gamma_n for n rows, and the
    rounding of the bounds in ``_best_candidates``: it leaves at least
    20u of relative slack in each ratio bound, where rounding moves them
    by at most 4u.  E grows with b, so the E of a table's width bounds
    every candidate in it, however few of the columns its branches fill.
    """
    k, b = n_classes, branches
    log2k, log2b = math.log2(k), math.log2(b)
    return 2 * ((10 * k + 2 * b + 40) * log2k + 2 * (k + b + 8) * log2b + 11 * k) * 2.0**-53


# ---------------------------------------------------------------------------
# Growing
# ---------------------------------------------------------------------------


def build_tree(dataset, config=None):
    """Induce a decision tree for ``dataset``.

    Growth splits each node greedily on the valid candidate with maximum
    gain ratio and stops on pure nodes, on nodes lighter than twice the
    minimum leaf weight, or when no candidate offers positive gain.  Each
    nominal attribute is tested at most once per path; numeric attributes
    may recur with new midpoint thresholds.  With ``config.pruning`` the
    grown tree is pessimistically pruned before being returned.
    """
    from .columns import view_of

    config = config or TreeConfig()
    if len(dataset) == 0:
        raise ValueError("cannot build a tree from an empty dataset")
    if not dataset.feature_indices:
        raise ValueError("dataset has no non-class attributes")
    root = _grow(view_of(dataset).root(), dataset.schema, dataset.class_index, config)
    model = DecisionTreeModel(dataset.schema, dataset.class_index, root, config)
    if config.pruning:
        model = prune_tree(model)
    return model


def _grow(root, schema, class_index, config):
    """The unpruned tree below the one-node ``columns.Level`` ``root``, grown level by level.

    Each tree level is one ``columns.Level``.  Its nodes are decided
    together (``_best_candidates``), each as it would be decided alone, and
    the nodes that split are partitioned in one pass (``Level.partition``),
    which gives the next Level.  A split waits in ``levels`` as ``(best,
    counts, branch weights)``, and ``_bottom_up`` makes it a Decision once
    the levels below are built.
    """
    levels = []
    level, used = root, [frozenset()]  # used: per node, its tested nominal attributes
    while True:
        splits = []  # per node: a Leaf, or (best, counts, branch weights)
        open_nodes = []  # (position in the level, used)
        for j, counts in enumerate(level.class_counts().tolist()):
            weight = total(counts)
            splits.append(Leaf(tuple(counts), weight))
            if sum(1 for c in counts if c > 0) > 1 and weight >= 2 * config.min_leaf_weight:
                open_nodes.append((j, used[j]))
        bests = _best_candidates(level, open_nodes, schema, class_index)
        tests = [(j, u, best) for (j, u), best in zip(open_nodes, bests) if best is not None]
        levels.append(splits)
        if not tests:
            break
        level, branch_weights = level.partition([(j, b.attribute_index, b.threshold) for j, _, b in tests])
        used = []
        for (j, u, best), weights in zip(tests, branch_weights):
            splits[j] = (best, splits[j].class_counts, weights)
            if schema[best.attribute_index].is_categorical:
                u = u | {best.attribute_index}
            used += [u for w in weights if w > 0]
    return _bottom_up(levels, _decision)


def _decision(split, grown):
    """``split`` if a Leaf, else its Decision, whose non-empty branches are the next of ``grown``."""
    if isinstance(split, Leaf):
        return split
    best, counts, branch_weights = split
    return Decision(
        best.attribute_index,
        best.threshold,
        # an empty branch is a majority-class leaf borrowing the parent counts
        tuple(next(grown) if w > 0 else Leaf(counts, 0.0) for w in branch_weights),
        tuple(branch_weights),
        counts,
    )


def _best_candidates(level, open_nodes, schema, class_index):
    """The best useful candidate of each open node of ``level``, or None.

    ``open_nodes`` lists ``(position in the level, used nominal
    attributes)``.  Every candidate of the level, nominal or numeric, is
    in one table (``Level.candidates``), and one numpy screen
    (``_screen``) gives each an approximate gain g~ and intrinsic value
    iv~, each within E = ``_screen_error(n_classes, b)`` of what
    ``_score`` computes, b being the table's width: E grows with the
    branch count, and no candidate has more branches than the table is
    wide, so one E per level covers them all.  A candidate whose screened
    gain ratio is certainly reached, with g~ - E > ``_GAIN_EPS`` and
    iv~ > E, is useful and scores at least (g~ - E) / (iv~ + E); a node's
    L is the largest of these, or 0.  Only the valid candidates with
    g~ + E > ``_GAIN_EPS`` and an upper bound (g~ + E) / (iv~ - E) of at
    least L (always when iv~ <= E) are scored, one ``_score`` each.  Every
    other candidate is useless or scores below L, itself at most the best
    useful ratio, so the best and every candidate tied with it are scored
    exactly, and ``first_max`` over generation order (attribute index,
    then ascending threshold) picks what scoring every candidate would.
    """
    import numpy as np

    at = {  # numeric attributes are never used
        i: positions
        for i in range(len(schema))
        if i != class_index and (positions := [j for j, used in open_nodes if i not in used])
    }
    if not at:  # no open node, or every attribute tested on each one's path
        return [None] * len(open_nodes)
    splits = level.candidates(at)
    screen = _screen(splits)
    error = _screen_error(level.view.n_classes, splits.branches.shape[1])
    reached = np.zeros(len(level.total_w))  # every useful ratio is positive, so 0 bounds the best
    np.maximum.at(reached, splits.nodes, _reached(*screen, error))
    near = np.flatnonzero(_near(*screen, error, reached[splits.nodes]))
    # generation order: node, then attribute; lexsort is stable, so thresholds still ascend
    near = near[np.lexsort((splits.attributes[near], splits.nodes[near]))]
    scored = {j: [] for j, _ in open_nodes}
    for c, j in zip(near.tolist(), splits.nodes[near].tolist()):
        scored[j].append(_score(splits, c))
    bests = []
    for j, _ in open_nodes:
        useful = [c for c in scored[j] if c.valid and c.info_gain > _GAIN_EPS]
        bests.append(useful[first_max([c.gain_ratio for c in useful])] if useful else None)
    return bests


def _reached(gain, iv, valid, error):
    """(g~ - E) / (iv~ + E) of each screened candidate that is surely useful, else 0."""
    sure = valid & (gain - error > _GAIN_EPS) & (iv > error)
    return ((gain - error) / (iv + error)) * sure  # iv~ >= 0, so every ratio is finite


def _near(gain, iv, valid, error, reached):
    """Mask of the screened candidates that may be useful and reach ``reached``."""
    # (g~ + E) >= L * (iv~ - E) holds when iv~ <= E, as L >= 0 < g~ + E
    return valid & (gain + error > _GAIN_EPS) & (gain + error >= reached * (iv - error))


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------


def ucb_error_rate(errors, total, confidence_factor):
    """Upper confidence bound on a binomial error rate.

    The exact bound: the largest rate p with P(X <= errors | total, p)
    >= confidence_factor, i.e. the (1 - CF) quantile of
    Beta(errors + 1, total - errors).  For zero errors this reduces to the
    closed form 1 - CF**(1/total).  Fractional counts from missing-value
    routing interpolate smoothly.  ValueError for a confidence factor
    outside (0, 1), negative errors, or errors or a total that is not a
    finite number.
    """
    _check_bound_args(errors, total, confidence_factor)
    if total <= 0:
        return 0.0
    if errors >= total:
        return 1.0
    from scipy.special import betaincinv  # imported here: classify never needs scipy

    return float(betaincinv(errors + 1.0, total - errors, 1.0 - confidence_factor))


def _check_bound_args(errors, total, confidence_factor):
    _check_confidence(confidence_factor)
    if not (is_finite_number(errors) and is_finite_number(total)):
        raise ValueError(
            f"errors and total must be finite numbers, got {errors!r} and {total!r}"
        )
    if errors < 0:
        raise ValueError(f"errors must be >= 0, got {errors!r}")


# The screen: ucb_error_rate's quantile from ``math`` alone.  Pruning and
# rule simplification decide with it, and load scipy only to settle a
# comparison it cannot (``_decide``).

#: Where the screen answers, it is within _UCB_TAU * min(U, 1 - U) + 2**-52 U
#: of ucb_error_rate's U.
_UCB_TAU = 1e-9
#: Screened estimates closer than this, relative, are compared exactly.
_UCB_MARGIN = 1e-7

_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_TINY = 1e-300  # Lentz's stand-in for a zero denominator


def _screen_ucb(errors, total, confidence_factor):
    """ucb_error_rate's bound U computed with ``math`` only, or None.

    Where it answers, the answer is within _UCB_TAU * min(U, 1 - U) +
    2**-52 * U of U (see ``_beta_quantile``).  It declines (None) where
    that is not certain, and where a float leaves its range.  Same
    ValueError as ucb_error_rate.
    """
    _check_bound_args(errors, total, confidence_factor)
    if total <= 0:
        return 0.0
    if errors >= total:
        return 1.0
    try:
        return _beta_quantile(errors + 1.0, total - errors, 1.0 - confidence_factor)
    except (ArithmeticError, ValueError):  # overflow, or a log of 0
        return None


def _beta_quantile(a, b, p):
    """The p quantile of Beta(a >= 1, b), as betaincinv(a, b, p) gives it, or None.

    a = 1 takes the closed form.  Otherwise ``_beta_root`` solves
    I_x(a, b) = p for the regularized incomplete beta I, or, for a
    quantile near 1, I_y(b, a) = 1 - p for y = 1 - x, so that y keeps
    its relative precision.
    """
    q = 1.0 - p  # exact: p >= 1/2, or p = 1 - CF exactly
    if a == 1.0:  # I_x(1, b) = 1 - (1 - x)**b
        return -math.expm1(math.log(q) / b)
    x = _beta_guess(a, b, p, q)
    if x <= 0.5:
        return _beta_root(a, b, p, q, x, _log_beta(a, b))
    # I_y(b, a) >= y**b (1 - y)**(a - 1) / (b B(b, a)): past q at y = 2**-60,
    # the root y is smaller still, and 1 - y rounds to 1
    y = 2.0**-60
    log_beta = _log_beta(b, a)
    if b * math.log(y) + (a - 1.0) * math.log1p(-y) - math.log(b) - log_beta > (
        math.log(q) + 1e-6
    ):
        return 1.0
    y = _beta_root(b, a, q, p, _beta_guess(b, a, q, p), log_beta)
    return None if y is None else 1.0 - y


def _stirling_rest(z):
    """lgamma(z) less Stirling's (z - 1/2) log z - z + log(2 pi) / 2."""
    if z < 10:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _log_beta(a, b):
    """log B(a, b) without the cancellation of lgamma(a) + lgamma(b) - lgamma(a + b)."""
    return -(
        a * math.log1p(b / a)
        + b * math.log1p(a / b)
        + 0.5 * math.log(a * b / (a + b))
        - _HALF_LOG_2PI
        + _stirling_rest(a + b)
        - _stirling_rest(a)
        - _stirling_rest(b)
    )


def _beta_fraction(a, b, x):
    """a I_x(a, b) / (x**a (1 - x)**b / B(a, b)) by Lentz's method, or None.

    The continued fraction of Numerical Recipes (3rd ed., 6.4); it
    converges fast for x below (a + 1) / (a + b + 2).
    """
    tiny, a_minus_1, a_plus_1, a_plus_b = _TINY, a - 1.0, a + 1.0, a + b
    c = 1.0
    d = 1.0 - a_plus_b * x / a_plus_1
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 2000):  # the two partial numerators of each m, unrolled
        m2 = 2 * m
        step = m * (b - m) * x / ((a_minus_1 + m2) * (a + m2))
        d = 1.0 + step * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + step / c
        if abs(c) < tiny:
            c = tiny
        h *= d * c
        step = -(a + m) * (a_plus_b + m) * x / ((a + m2) * (a_plus_1 + m2))
        d = 1.0 + step * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + step / c
        if abs(c) < tiny:
            c = tiny
        h *= d * c
        if abs(d * c - 1.0) <= 1e-15:
            return h
    return None


def _beta_guess(a, b, p, q):
    """A first guess at the p quantile of Beta(a, b), q = 1 - p (Numerical Recipes)."""
    if a >= 1 and b >= 1:
        t = math.sqrt(-2.0 * math.log(min(p, q)))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        if p < 0.5:
            z = -z
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            al + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        return a / (a + b * math.exp(2.0 * w))
    t = math.exp(a * math.log(a / (a + b))) / a
    u = math.exp(b * math.log(b / (a + b))) / b
    w = t + u
    if p < t / w:
        return (a * w * p) ** (1.0 / a)
    return 1.0 - (b * w * q) ** (1.0 / b)


def _beta_root(a, b, p, q, x, log_beta):
    """x in (0, 1) with I_x(a, b) = p, q = 1 - p, by Halley's method; or None.

    Halley starts from ``x``; ``log_beta`` is ``_log_beta(a, b)``.  The
    residual is taken from the tail the continued fraction computes, I
    below (a + 1) / (a + b + 2) and 1 - I above, so each keeps its
    relative precision.

    Convergence.  For f = I_x(a, b) - p, a Halley step from an error e
    leaves K e**3 to leading order, with K = g**2 / 12 - g' / 6 and
    g = f'' / f' = (a - 1) / x - (b - 1) / (1 - x).  With m = min(x, 1 - x)
    and s = |a - 1| + |b - 1| <= a + b, |g| m <= s and |g'| m**2 <= s, so
    K m**2 <= (s**2 + 2 s) / 12 < (a + b + 2)**2 / 12.  The step is e to
    first order, so for r = |step| / min(new, 1 - new) the new root is off
    by less than (a + b + 2)**2 r**3 / 12 of m.  Halley stops once
    (a + b + 2)**2 r**3 <= _UCB_TAU / 64, usually one continued fraction
    before the step itself is that small; the factor 12 covers the
    higher-order terms, of relative size s r <= 2.5e-4 (a + b + 2)**(1/3),
    0.25 at a + b = 1e9.  It also stops once r <= _UCB_TAU / 64, the test
    that fires first above a + b = 6.4e10.

    Rounding.  The tail's relative rounding error is at most eps = 2**-52
    (64 + a + b + |a log x| + |b log(1 - x)|), and it moves the root by
    eps * tail / density: above _UCB_TAU / 16 of min(x, 1 - x), the root
    is declined.  So an answer is within _UCB_TAU / 64 + _UCB_TAU / 16 of
    m, less than _UCB_TAU.
    """
    for _ in range(32):
        if not 0.0 < x < 1.0:
            return None
        log_x, log_1mx = math.log(x), math.log1p(-x)
        front = math.exp(a * log_x + b * log_1mx - log_beta)
        if x < (a + 1.0) / (a + b + 2.0):
            fraction = _beta_fraction(a, b, x)
            tail = None if fraction is None else front * fraction / a
            residual = None if tail is None else tail - p
        else:
            fraction = _beta_fraction(b, a, 1.0 - x)
            tail = None if fraction is None else front * fraction / b
            residual = None if tail is None else q - tail
        density = front / (x * (1.0 - x))
        if residual is None or not 0.0 < density < math.inf:
            return None
        u = residual / density
        step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))))
        new = x - step
        if new <= 0.0:
            new = 0.5 * x
        elif new >= 1.0:
            new = 0.5 * (x + 1.0)
        r = abs(step) / min(new, 1.0 - new)
        if min(r, (a + b + 2.0) ** 2 * r**3) <= _UCB_TAU / 64:
            eps = 2.0**-52 * (64 + a + b + abs(a * log_x) + abs(b * log_1mx))
            if eps * tail > _UCB_TAU / 16 * min(x, 1.0 - x) * density:
                return None
            return new
        x = new
    return None


class _CloseCall(Exception):
    """The screen cannot settle a decision; ``_decide`` takes it again exactly."""


def _screened_bound(errors, total, confidence_factor):
    rate = _screen_ucb(errors, total, confidence_factor)
    if rate is None:
        raise _CloseCall
    return rate


def _decide(decision):
    """``decision(bound)`` with the screen as ``bound``, else with ucb_error_rate.

    ``decision`` computes every estimate with ``bound`` and checks each
    comparison of two of them with ``_check_apart`` before making it.  If
    the screen declines or two estimates are too close, the whole
    decision runs again on ucb_error_rate, so the screen decides only
    what ucb_error_rate would decide the same way.
    """
    try:
        return decision(_screened_bound)
    except _CloseCall:
        return decision(ucb_error_rate)


def _check_apart(bound, a, b):
    """Raise _CloseCall if screened estimates ``a`` and ``b`` may order differently exactly.

    Each estimate is a sum of non-negative weights times bounds U
    (pruning) or one minus a bound (simplification), so a screened one
    is within about _UCB_TAU of the exact one, relative, plus 2**-52
    absolute for 1 - U near 0.  Estimates further apart than _UCB_MARGIN,
    relative, plus 2**-50 therefore order as the exact ones do.  An
    estimate compared with another made from the same counts needs no
    check: both bounds give the two the same value.
    """
    apart = abs(a - b) > _UCB_MARGIN * max(abs(a), abs(b)) + 2.0**-50
    if bound is _screened_bound and not apart:  # NaN (margin inf, a = b = 0) is close
        raise _CloseCall


def _leaf_ucb_errors(counts, weight, cf, bound):
    if weight <= 0:  # an empty branch, which borrows its parent's counts
        return 0.0
    errors = weight - max(counts)
    return weight * bound(errors, weight, cf)


def prune_tree(model):
    """Pessimistic subtree replacement.

    Bottom-up, a decision node collapses to a leaf whenever the UCB error
    estimate of that leaf is no worse than the summed estimates of its
    (already pruned) children.  Node sets only shrink: every path of the
    pruned tree is a prefix of an original path.  Idempotent.  Every
    decision is ucb_error_rate's, most of them taken with the screen.
    """
    levels, cf = _levels(model.root, _children), model.config.confidence_factor
    root, _ = _decide(lambda bound: _bottom_up(levels, partial(_prune, cf, bound)))
    return replace(model, root=root)


def _prune(cf, bound, node, below):
    """The pruned ``node`` and its summed UCB error estimate; ``below`` gives its children's."""
    if isinstance(node, Leaf):
        return node, _leaf_ucb_errors(node.class_counts, node.weight, cf, bound)
    pruned = [next(below) for _ in node.children]
    weight = total(node.class_counts)
    leaf_est = _leaf_ucb_errors(node.class_counts, weight, cf, bound)
    subtree_est = total(est for _, est in pruned)
    _check_apart(bound, leaf_est, subtree_est)
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
    dist = _distribution(model, _check_instance(model.schema, instance))
    class_values = model.class_values
    return class_values[first_max(dist)], dict(zip(class_values, dist))


def _distribution(model, values, share_first=False):
    """The class distribution of the checked row ``values``, in declared class order.

    A missing value sends ``weight * bw / total_bw`` down each branch, and
    a leaf adds ``weight * count / leaf_total`` to each class.  If every
    leaf's part underflows to 0, as weights of an extreme ratio can make
    it, the walk is taken again with each share divided out first.
    """
    schema, merged = model.schema, [0.0] * len(model.class_values)
    later = [(model.root, 1.0)]  # a missing value's other branches: leaves add depth first
    while later:
        node, weight = later.pop()
        while isinstance(node, Decision):
            v, spec = values[node.attribute_index], schema[node.attribute_index]
            if v is None:
                total_bw = total(node.branch_weights)
                branches = zip(node.children, node.branch_weights)
                shares = [
                    (child, weight * (bw / total_bw) if share_first else weight * bw / total_bw)
                    for child, bw in branches
                    if bw > 0
                ]
                later += reversed(shares[1:])
                node, weight = shares[0]
            elif spec.is_categorical:
                node = node.children[spec.values.index(v)]
            else:
                node = node.children[0 if v <= node.threshold else 1]
        leaf_total = total(node.class_counts)
        for i, c in enumerate(node.class_counts):
            merged[i] += weight * (c / leaf_total) if share_first else weight * c / leaf_total
    merged_total = total(merged)
    if merged_total == 0 and not share_first:
        return _distribution(model, values, True)
    return [c / merged_total for c in merged]


def training_accuracy(model, dataset):
    """Fraction of instances the model labels with their recorded class.

    ``dataset`` must have the model's schema and class, else ValueError;
    its rows were checked against that schema when it was built, so they
    are classified without checking them again.
    """
    if (tuple(model.schema), model.class_index) != (dataset.schema, dataset.class_index):
        raise ValueError("the dataset's schema or class differs from the model's")
    class_values = model.class_values
    correct = 0
    for inst in dataset.instances:  # classify's label, without its check
        label = class_values[first_max(_distribution(model, inst.values))]
        correct += label == inst.values[model.class_index]
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
        "root": _bottom_up(_levels(model.root, _children), partial(_node_to_json, model.schema)),
    }
    return dump_document(MODEL_FORMAT, MODEL_VERSION, body)


def _schema_to_json(schema):
    return [
        {"name": a.name, "kind": a.kind, "values": list(a.values)} for a in schema
    ]


def _schema_from_json(items):
    # AttributeSpec refuses values that are not strings, repeated or unreadable
    return tuple(AttributeSpec(a["name"], a["kind"], tuple(a["values"])) for a in items)


def _node_to_json(schema, node, below):
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
        "children": [next(below) for _ in node.children],
    }


def _weights(items, n, what):
    """``items`` as a tuple of ``n`` finite non-negative numbers."""
    weights = tuple(items)
    if len(weights) != n or not all(map(is_weight, weights)):
        raise ValueError(f"{what} must be {n} non-negative numbers, got {items!r}")
    return weights


def _node_from_json(schema, name_to_index, class_index, doc, below):
    # refuses every value that would break classify or the rules of the tree
    counts = _weights(doc["class_counts"], len(schema[class_index].values), "class_counts")
    if doc["type"] == "leaf":
        if not is_weight(doc["weight"]) or sum(counts) <= 0:
            raise ValueError("a leaf needs a weight and class_counts summing above 0")
        return Leaf(counts, doc["weight"])
    index = name_to_index[doc["attribute"]]
    spec = schema[index]
    if index == class_index:
        raise ValueError(f"a decision tests the class attribute {spec.name}")
    if not spec.is_categorical and not is_finite_number(doc["threshold"]):
        raise ValueError(f"numeric test on {spec.name} needs a numeric threshold")
    n_branches = len(branch_conditions(schema, index, doc["threshold"]))
    children = tuple(next(below) for _ in doc["children"])
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
    levels = _levels(doc["root"], lambda node: () if node["type"] == "leaf" else node["children"])
    root = _bottom_up(levels, partial(_node_from_json, schema, name_to_index, class_index))
    config = TreeConfig(**doc["config"])
    return DecisionTreeModel(schema, class_index, root, config)
