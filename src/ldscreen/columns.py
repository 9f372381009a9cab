"""The encoded view of a Dataset: one array per column, built once per dataset.

This module is the only place that knows the encoding:

- a categorical column holds each value's declared position, -1 when
  missing;
- a numeric column holds the value as a float, NaN when missing;
- the weights are one float array in row order.

Tree growth, rule simplification and K-means read the view.  Every sum
of weights here is an ``np.cumsum`` or an ``np.bincount``, both of which
add in array order, so each equals ``dataset.total`` over the same rows
in the same order, bit for bit.  ``np.sum`` and dot products add pairwise
and would not.  When every weight is 1.0, a mask's weight is its row
count, which is the same number: a sum of ones below 2**53 is exact.
The view holds floats, which is why ``Dataset`` refuses an int that a
float cannot hold exactly.

A cross-validation train fold reads the view of its parent, the Dataset
its folds were dealt from (``view_of``), with only the fold's rows in
play (``all_rows``).  The parent is encoded once and keeps the view.
The fold's rows keep their order in the parent, so every sum adds the
same weights in the same order as a view of the fold alone would.

Growth holds one ``Level`` per tree level, from the root's
(``Columns.root``) down: the rows of its nodes in one array.  Every
candidate split of a level is one entry of one ``Candidates`` table
(``Level.candidates``).  A numeric attribute is tallied node by node
(``Level.midpoints``) and a nominal one level by level
(``Level.nominal``): one ``bincount`` keyed by node fills each
node's bins as a ``bincount`` over that node alone would.  The nodes
that split are partitioned in one pass (``Level.partition``), which
repeats each missing row once per branch of positive known weight and
gives the next Level.  This module only tallies: ``tree`` screens the
table and scores the candidates that decide.

``classify`` and ``best_rule`` do not import this module, so scoring a
row never loads numpy through it.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

import numpy as np

from .dataset import EQ, LE


def total(weights):
    """Sum of the ``weights`` array added in order (0.0 when empty), as a float."""
    return float(np.cumsum(weights)[-1]) if len(weights) else 0.0


def _encode(spec, cells):
    if spec.is_categorical:
        position = {v: k for k, v in enumerate(spec.values)}
        position[None] = -1
        return np.fromiter(map(position.__getitem__, cells), np.intp, len(cells))
    return np.fromiter((math.nan if v is None else v for v in cells), float, len(cells))


def view_of(dataset):
    """The encoded view that growth and rule statistics read for ``dataset``.

    A dataset is encoded on first use and keeps the view in its ``_view``
    list (see ``Dataset._with_checked``).  A train fold of
    ``dataset.stratified_folds`` or ``random_folds`` reads its parent's
    view with only the fold's rows in play (see ``dataset._deal_folds``).
    No caller writes to a view.
    """
    parent, rows = dataset._fold or (dataset, None)
    if parent._view[0] is None:
        parent._view[0] = Columns(parent)
    if rows is None:
        return parent._view[0]
    view = copy.copy(parent._view[0])
    view.all_rows = np.zeros(len(view.weights), bool)
    view.all_rows[rows] = True
    return view


class Columns:
    """One Dataset encoded column by column; ``rows`` arguments index its rows.

    ``all_rows`` masks the rows in play: every row, unless the view is a
    fold's (``view_of``).
    """

    def __init__(self, dataset):
        self.schema = dataset.schema
        self.columns = [
            _encode(spec, dataset.column(i)) for i, spec in enumerate(dataset.schema)
        ]
        self.weights = np.array([inst.weight for inst in dataset.instances], float)
        self.classes = self.columns[dataset.class_index]
        self.n_classes = len(dataset.class_values)
        self.unit = bool((self.weights == 1.0).all())
        self.all_rows = np.ones(len(dataset), bool)

    def missing(self, i):
        """Mask of the rows whose value of attribute ``i`` is missing."""
        column = self.columns[i]
        return column < 0 if self.schema[i].is_categorical else np.isnan(column)

    def holds(self, i, relation, value):
        """Mask of the rows whose value of attribute ``i`` passes the test.

        ``=`` tests a categorical attribute, ``<=`` and ``>`` a numeric
        one; a missing value fails every test, and so does every row for
        a symbol the attribute does not declare.
        """
        column = self.columns[i]
        if relation == EQ:
            values = self.schema[i].values
            return column == (values.index(value) if value in values else -2)
        return column <= value if relation == LE else column > value

    def weight(self, mask):
        """Summed weight of the rows in ``mask``, added in row order."""
        if self.unit:
            return float(np.count_nonzero(mask))
        return total(self.weights[mask])

    def root(self):
        """The one-node Level of the rows in play at their own weights.

        ValueError on a missing class, naming the row by its place among
        the rows in play.
        """
        rows = np.flatnonzero(self.all_rows)
        unlabelled = np.flatnonzero(self.classes[rows] < 0)
        if len(unlabelled):
            raise ValueError(f"instance {unlabelled[0]} has a missing class value")
        weights = self.weights[rows]
        n = len(rows)
        return Level(self, rows, weights, np.zeros(n, np.intp), np.array([total(weights)]))


class Level:
    """The nodes of one tree level, their rows concatenated in node order.

    ``rows`` holds positions in the view ``view`` and ``weights`` their
    weights, ``node`` each row's node position and ``total_w`` each node's
    weight.  A node's rows keep growth order: each branch takes its known
    rows in the parent's order, then the parent's missing rows at scaled
    weight.  So a ``bincount`` keyed by node adds each node's weights as
    a ``bincount`` over that node alone would.
    """

    def __init__(self, view, rows, weights, node, total_w):
        self.view, self.rows, self.weights = view, rows, weights
        self.node, self.total_w = node, total_w

    def class_counts(self):
        """Weight per node and declared class, a (nodes, classes) array added in row order."""
        n, m = self.view.n_classes, len(self.total_w)
        by_class = self.node * n + self.view.classes[self.rows]
        return np.bincount(by_class, self.weights, m * n).reshape(m, n)

    def partition(self, tests):
        """The Level of the children of the nodes in ``tests``, and each test's branch weights.

        ``tests`` lists ``(node position, attribute index, threshold)`` in
        node order.  A child takes, in the node's order, the rows whose value
        is its branch's (its declared position, or ``value > threshold``),
        then each row missing the value at weight ``w * branch_w /
        known_total`` if its branch_w is positive, divided first only where
        the product would overflow.  Each sum is a ``bincount`` in array
        order, so it equals ``dataset.total``: branch_w over its rows,
        ``known_total`` over the node's branches, a child's weight over its
        rows.  The children of positive weight make the Level, in (node,
        branch) order.
        """
        view, n_tests = self.view, len(tests)
        widths = [len(view.schema[i].values) if view.schema[i].is_categorical else 2 for _, i, _ in tests]
        test_at = np.full(len(self.total_w), n_tests)  # n_tests: the node does not split
        test_at[[j for j, _, _ in tests]] = np.arange(n_tests)
        test = test_at[self.node]
        attribute = np.array([i for _, i, _ in tests] + [-1])[test]
        thresholds = np.array([math.nan if t is None else t for _, _, t in tests])
        branch = np.full(len(self.rows), -1)  # -1: missing, or the node does not split
        for i in dict.fromkeys(i for _, i, _ in tests):  # one gather per attribute
            mine = np.flatnonzero(attribute == i)
            value = view.columns[i][self.rows[mine]]  # -1 or NaN when missing
            if not view.schema[i].is_categorical:
                value = np.where(np.isnan(value), -1, value > thresholds[test[mine]])
            branch[mine] = value
        width = max(widths)  # child b of test t takes slot t * width + b
        known = np.flatnonzero(branch >= 0)
        child = test[known] * width + branch[known]
        branch_w = np.bincount(child, self.weights[known], n_tests * width)
        known_total = np.bincount(np.arange(n_tests * width) // width, branch_w, n_tests)
        # each missing row once per branch of positive weight, in branch order
        missing = np.flatnonzero((branch < 0) & (test < n_tests))
        copies, to = np.nonzero(branch_w.reshape(n_tests, width)[test[missing]] > 0)
        missing = missing[copies]
        to += test[missing] * width
        child = np.concatenate((child, to))
        rows = np.concatenate((self.rows[known], self.rows[missing]))
        w, bw, known_w = self.weights[missing], branch_w[to], known_total[to // width]
        with np.errstate(over="ignore"):  # a product past the float range is divided first
            product = w * bw
        scaled = np.where(np.isinf(product), w / known_w * bw, product / known_w)
        weights = np.concatenate((self.weights[known], scaled))
        child_w = np.bincount(child, weights, n_tests * width).astype(float)  # ints if no row
        kept = child_w > 0
        keep = kept[child]
        if not keep.all():  # a row whose weight underflowed to 0.0 can be a child alone
            rows, weights, child = rows[keep], weights[keep], child[keep]
        order = np.argsort(child, kind="stable")  # keeps each child's rows in order
        node = (np.cumsum(kept) - 1)[child[order]]
        level = Level(view, rows[order], weights[order], node, child_w[kept])
        return level, [w[:n] for w, n in zip(child_w.reshape(n_tests, width).tolist(), widths)]

    def candidates(self, at):
        """One Candidates table of every attribute at nodes of the level.

        ``at`` maps each attribute index to the positions of the nodes
        where it is a candidate.  The nominal attributes take one pass
        (``nominal``), and each numeric one is sorted once at each of its
        nodes (``midpoints``).  The table holds the nominal candidates,
        then the numeric ones attribute by attribute, node by node, each
        in ascending threshold order.  Every candidate's branch tallies
        are zero-padded to the widest candidate's.
        """
        schema = self.view.schema
        nominal = {i: positions for i, positions in at.items() if schema[i].is_categorical}
        tables = [self.nominal(nominal)] if nominal else []
        tables += [
            self.midpoints(i, j)
            for i, positions in at.items()
            if not schema[i].is_categorical
            for j in positions
        ]
        width = max(table.branches.shape[1] for table in tables)
        for k, table in enumerate(tables):
            if pad := width - table.branches.shape[1]:  # np.pad copies even when it adds nothing
                tables[k] = table._replace(branches=np.pad(table.branches, ((0, 0), (0, pad), (0, 0))))
        return Candidates(*map(np.concatenate, zip(*tables)))

    def midpoints(self, i, j, thresholds=None):
        """The Candidates of numeric attribute ``i`` at node ``j``, one per threshold, sorted once.

        ``thresholds`` must ascend; None means every midpoint between
        adjacent distinct known values.
        """
        view, n = self.view, self.view.n_classes
        start, stop = np.searchsorted(self.node, (j, j + 1)).tolist()
        rows, weights = self.rows[start:stop], self.weights[start:stop]
        column = view.columns[i][rows]
        known = ~np.isnan(column)
        column, classes, weights = column[known], view.classes[rows][known], weights[known]
        order = np.argsort(column, kind="stable")  # equal values keep row order
        column = column[order]
        if thresholds is None:
            # the first of each run of equal values, as -0.0 and 0.0 compare equal
            distinct = np.concatenate((column[:1], column[1:][column[1:] != column[:-1]]))
            low, high = distinct[:-1], distinct[1:]
            with np.errstate(over="ignore"):  # a sum past the float range is halved first
                sums = low + high
            thresholds = np.where(np.isinf(sums), low / 2 + high / 2, sums / 2)
        thresholds = np.asarray(thresholds, float)
        by_class = np.zeros((len(column) + 1, n))
        by_class[np.arange(1, len(column) + 1), classes[order]] = weights[order]
        # the right tallies are summed down from the top on their own, never
        # taken as parent - left: with fractional weights that rounds below 0
        left = np.cumsum(by_class, axis=0)
        right = np.cumsum(np.concatenate((by_class[:1], by_class[:0:-1])), axis=0)
        cuts = np.searchsorted(column, thresholds, side="right")  # value <= threshold
        size = len(thresholds)
        return Candidates(
            np.full(size, i),
            np.full(size, j),
            thresholds,
            np.stack((left[cuts], right[len(column) - cuts]), axis=1),
            np.tile(np.bincount(classes, weights, n), (size, 1)),
            np.full(size, total(weights)),
            np.full(size, self.total_w[j]),
        )

    def nominal(self, at):
        """The Candidates of categorical attributes at nodes of the level.

        ``at`` maps each attribute index to the positions of the nodes
        where it is a candidate; the candidates follow ``at``, then node
        order.  Each attribute takes one pass over the rows of those
        nodes: a ``bincount`` keyed by (node, value or missing, class) for
        the branch tallies, one keyed by (node, known, class) for the
        parent tallies and one keyed by (node, known) for the known
        weights.
        """
        view = self.view
        n, m = view.n_classes, len(self.total_w)
        width = max(len(view.schema[i].values) for i in at) + 1  # bin 0: missing values
        node, rows, weights = self.node, self.rows, self.weights
        named = np.zeros(m, bool)
        for positions in at.values():
            named[positions] = True
        if not named.all():  # the other nodes' rows fill bins no candidate reads
            mine = named[node]
            node, rows, weights = node[mine], rows[mine], weights[mine]
        classes = view.classes[rows]
        by_known = node * 2
        by_value = (node * width + 1) * n + classes
        by_known_class = by_known * n + classes
        parts = []
        for i, positions in at.items():
            value = view.columns[i][rows]  # -1 when missing
            known = value >= 0
            branches = np.bincount(by_value + value * n, weights, m * width * n)
            parent = np.bincount(by_known_class + known * n, weights, m * 2 * n)
            known_w = np.bincount(by_known + known, weights, m * 2)
            positions = np.asarray(positions, np.intp)
            parts.append((
                positions,
                branches.reshape(m, width, n)[positions, 1:],
                parent.reshape(m, 2, n)[positions, 1],
                known_w[1::2][positions],
            ))
        nodes, branches, parent, known_w = (np.concatenate(part) for part in zip(*parts))
        sizes = [len(positions) for positions in at.values()]
        return Candidates(
            np.repeat(list(at), sizes),
            nodes,
            np.full(len(nodes), math.nan),
            branches,
            parent,
            known_w,
            self.total_w[nodes],
        )


class Candidates(NamedTuple):
    """Candidate splits at nodes of a Level, one entry per candidate.

    Candidate c splits the ``nodes[c]``-th node on attribute
    ``attributes[c]``: on its declared values when ``thresholds[c]`` is
    NaN, else ``<=`` and ``>`` the threshold (``tree.branch_conditions``).
    ``branches[c, v]`` is the class tally of that node's known rows in
    branch v, zero past the candidate's last branch, so a reader takes the
    whole row and skips its empty branches; ``parent[c]`` is that of all its
    known rows, ``known_w[c]`` their weight and ``total_w[c]`` the weight
    of all its rows, each added in row order; a numeric candidate's two
    branch tallies are summed in sorted order instead, each on its own.
    """

    attributes: np.ndarray
    nodes: np.ndarray
    thresholds: np.ndarray
    branches: np.ndarray
    parent: np.ndarray
    known_w: np.ndarray
    total_w: np.ndarray
