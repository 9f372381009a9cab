"""The encoded view of a Dataset: one array per column, built once per call.

This module is the only place that knows the encoding:

- a categorical column holds each value's declared position, -1 when
  missing;
- a numeric column holds the value as a float, NaN when missing;
- the weights are one float array in row order.

Tree growth, rule simplification and K-means read the view.  Every sum
of weights here is an ``np.cumsum`` or an ``np.bincount``, both of which
add in array order, so each equals ``dataset.total`` over the same rows
in the same order, bit for bit.  ``np.sum`` and dot products add pairwise
and would not.  The view holds floats, which is why ``Dataset`` refuses
an int that a float cannot hold exactly.

Growth holds one ``Level`` per tree level: the rows of its nodes in one
array.  Every candidate split of a level is one entry of one
``Candidates`` table (``Level.candidates``).  A numeric attribute is
tallied node by node (``Node.midpoints``) and a nominal one level by
level (``Level.nominal``): one ``bincount`` keyed by node fills each
node's bins as a ``bincount`` over that node alone would.  The nodes
that split are partitioned in one pass (``Level.partition``), which
repeats each missing row once per branch of positive known weight and
gives the next Level.  The table's screen in numpy
(``Candidates.screen``) only sorts candidates out; the scores that
decide are ``tree._score_splits``'.

``classify`` and ``best_rule`` do not import this module, so scoring a
row never loads numpy through it.
"""

from __future__ import annotations

import math

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


class Columns:
    """One Dataset encoded column by column; ``rows`` arguments index its rows."""

    def __init__(self, dataset):
        self.schema = dataset.schema
        self.columns = [
            _encode(spec, dataset.column(i)) for i, spec in enumerate(dataset.schema)
        ]
        self.weights = np.array([inst.weight for inst in dataset.instances], float)
        self.classes = self.columns[dataset.class_index]
        self.n_classes = len(dataset.class_values)
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
        return total(self.weights[mask])

    def root(self):
        """The Node of every row at its own weight; ValueError on a missing class."""
        unlabelled = np.flatnonzero(self.classes < 0)
        if len(unlabelled):
            raise ValueError(f"instance {unlabelled[0]} has a missing class value")
        return Node(self, np.arange(len(self.weights)), self.weights)


class Node:
    """The rows reaching a tree node: positions in the view and their weights.

    Rows keep growth order: each branch takes its known rows in the
    parent's order, then the parent's missing rows at scaled weight.
    ``weight`` is their summed weight in that order.
    """

    def __init__(self, view, rows, weights):
        self.view = view
        self.rows = rows
        self.weights = weights
        self.weight = total(weights)

    def class_counts(self):
        """Weight per declared class, added in row order."""
        view = self.view
        return np.bincount(view.classes[self.rows], self.weights, view.n_classes).tolist()

    def midpoints(self, i, thresholds=None):
        """The Candidates of numeric attribute ``i`` at this node, one per threshold, sorted once.

        ``thresholds`` must ascend; None means every midpoint between
        adjacent distinct known values.  The table names this node 0.
        """
        view, n = self.view, self.view.n_classes
        column = view.columns[i][self.rows]
        known = ~np.isnan(column)
        column, classes, weights = column[known], view.classes[self.rows][known], self.weights[known]
        order = np.argsort(column, kind="stable")  # equal values keep row order
        column = column[order]
        if thresholds is None:
            # the first of each run of equal values, as -0.0 and 0.0 compare equal
            distinct = np.concatenate((column[:1], column[1:][column[1:] != column[:-1]]))
            thresholds = (distinct[:-1] + distinct[1:]) / 2
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
            np.zeros(size, np.intp),
            thresholds,
            np.full(size, 2),
            np.stack((left[cuts], right[len(column) - cuts]), axis=1),
            np.tile(np.bincount(classes, weights, n), (size, 1)),
            np.full(size, total(weights)),
            np.full(size, self.weight),
        )


class Level:
    """The nodes of one tree level, their rows concatenated in node order.

    ``node`` holds each row's node position and ``total_w`` each node's
    weight.  A node's rows keep their order, so a ``bincount`` keyed by
    node adds each node's weights as a ``bincount`` over that node alone
    would.
    """

    def __init__(self, nodes):
        self._hold(
            nodes[0].view,
            np.concatenate([node.rows for node in nodes]),
            np.concatenate([node.weights for node in nodes]),
            np.repeat(np.arange(len(nodes)), [len(node.rows) for node in nodes]),
            np.array([node.weight for node in nodes]),
        )

    def _hold(self, view, rows, weights, node, total_w):
        self.view, self.rows, self.weights = view, rows, weights
        self.node, self.total_w = node, total_w
        return self

    def node_at(self, j):
        """The Node of the ``j``-th node, its arrays views of the level's."""
        start, stop = np.searchsorted(self.node, (j, j + 1)).tolist()
        return Node(self.view, self.rows[start:stop], self.weights[start:stop])

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
        known_total`` if its branch_w is positive.  Each sum is a
        ``bincount`` in array order, so it equals ``dataset.total``: branch_w
        over its rows, ``known_total`` over the node's branches, a child's
        weight over its rows.  The children of positive weight make the
        Level, in (node, branch) order.
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
        first = np.cumsum(widths) - widths  # each test's first child
        owner = np.repeat(np.arange(n_tests), widths)  # each child's test
        known = np.flatnonzero(branch >= 0)
        child = first[test[known]] + branch[known]
        branch_w = np.bincount(child, self.weights[known], len(owner))
        known_total = np.bincount(owner, branch_w, n_tests)
        # each missing row once per branch of positive weight, in branch order
        missing = np.flatnonzero((branch < 0) & (test < n_tests))
        targets = np.flatnonzero(branch_w > 0)
        per_test = np.bincount(owner[targets], minlength=n_tests)
        copies = per_test[test[missing]]
        shift = (np.cumsum(per_test) - per_test)[test[missing]] - (np.cumsum(copies) - copies)
        to = targets[np.arange(copies.sum()) + np.repeat(shift, copies)]
        missing = np.repeat(missing, copies)
        child = np.concatenate((child, to))
        rows = np.concatenate((self.rows[known], self.rows[missing]))
        scaled = self.weights[missing] * branch_w[to] / known_total[owner[to]]
        weights = np.concatenate((self.weights[known], scaled))
        child_w = np.bincount(child, weights, len(owner)).astype(float)  # ints if no row
        kept = child_w > 0
        keep = kept[child]
        if not keep.all():  # a row whose weight underflowed to 0.0 can be a child alone
            rows, weights, child = rows[keep], weights[keep], child[keep]
        order = np.argsort(child, kind="stable")  # keeps each child's rows in order
        node = (np.cumsum(kept) - 1)[child[order]]
        level = Level.__new__(Level)._hold(view, rows[order], weights[order], node, child_w[kept])
        child_w = child_w.tolist()
        return level, [child_w[f : f + w] for f, w in zip(first.tolist(), widths)]

    def candidates(self, at):
        """One Candidates table of every attribute at nodes of the level.

        ``at`` maps each attribute index to the positions of the nodes
        where it is a candidate.  The nominal attributes take one pass
        (``nominal``), and each numeric one is sorted once at each of its
        nodes (``Node.midpoints``).  The table holds the nominal
        candidates, then the numeric ones node by node, each attribute's
        in ascending threshold order.  Every candidate's branch tallies
        are zero-padded to the widest candidate's.
        """
        schema = self.view.schema
        nominal = {i: positions for i, positions in at.items() if schema[i].is_categorical}
        tables = [(0, self.nominal(nominal))] if nominal else []  # (node offset, table)
        by_node = {}
        for i, positions in at.items():
            if not schema[i].is_categorical:
                for j in positions:
                    by_node.setdefault(j, []).append(i)
        for j, attributes in by_node.items():
            node = self.node_at(j)
            tables += [(j, node.midpoints(i)) for i in attributes]
        width = max(table.branches.shape[1] for _, table in tables)

        def padded(branches):  # np.pad copies even when it adds nothing
            pad = width - branches.shape[1]
            return np.pad(branches, ((0, 0), (0, pad), (0, 0))) if pad else branches

        fields = ("attributes", "thresholds", "values", "parent", "known_w", "total_w")
        stacked = {f: np.concatenate([getattr(table, f) for _, table in tables]) for f in fields}
        stacked["nodes"] = np.concatenate([table.nodes + j for j, table in tables])
        stacked["branches"] = np.concatenate([padded(table.branches) for _, table in tables])
        return Candidates(**stacked)

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
        values = [len(view.schema[i].values) for i in at]
        width = max(values) + 1  # bin 0 of each node takes its missing values
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
            np.repeat(values, sizes),
            branches,
            parent,
            known_w,
            self.total_w[nodes],
        )


class Candidates:
    """Candidate splits at nodes of a Level, one entry per candidate.

    Candidate c splits the ``nodes[c]``-th node on attribute
    ``attributes[c]`` into ``values[c]`` branches: on its declared values
    when ``thresholds[c]`` is NaN, else ``<=`` and ``>`` the threshold.
    ``branches[c, v]`` is the class tally of that node's known rows in
    branch v (zero past ``values[c]``), ``parent[c]`` that of all its
    known rows, ``known_w[c]`` their weight and ``total_w[c]`` the weight
    of all its rows, each added in row order; a numeric candidate's two
    branch tallies are summed in sorted order instead, each on its own.
    """

    def __init__(self, attributes, nodes, thresholds, values, branches, parent, known_w, total_w):
        self.attributes = attributes
        self.nodes = nodes
        self.thresholds = thresholds
        self.values = values
        self.branches = branches
        self.parent = parent
        self.known_w = known_w
        self.total_w = total_w

    def tallies(self, c):
        """``tree._score_splits``'s arguments after the attribute index, for candidate ``c``."""
        threshold = float(self.thresholds[c])
        threshold = None if math.isnan(threshold) else threshold
        branches = self.branches[c, : self.values[c]].tolist()
        known_w, total_w = float(self.known_w[c]), float(self.total_w[c])
        return [threshold], [branches], self.parent[c].tolist(), known_w, total_w

    def screen(self):
        """``(gain, intrinsic value, valid)`` arrays, one entry per candidate.

        The gain and the intrinsic value follow ``tree._score_splits``'s
        formulas in numpy, the parent's entropy included, so they can
        differ from its scores by rounding; ``tree._screen_error`` bounds
        the difference.  The zero tallies past ``values[c]`` add only
        zeros.  ``valid`` is exact: a sum of non-negative weights is
        positive exactly when one of them is, in any order, and a
        candidate with no known weight has no branch of positive weight.
        """
        parent_w = self.parent.sum(axis=1)
        h_parent = -_xlog2x(self.parent / np.where(parent_w > 0, parent_w, 1.0)[:, None]).sum(axis=1)
        weight = self.branches.sum(axis=2)
        valid = (weight > 0).sum(axis=1) >= 2
        p = self.branches / np.where(weight > 0, weight, 1.0)[:, :, None]
        h_branch = -_xlog2x(p).sum(axis=2)
        share = weight / np.where(self.known_w > 0, self.known_w, 1.0)[:, None]
        iv = -_xlog2x(share).sum(axis=1)
        gain = (self.known_w / self.total_w) * (h_parent - (share * h_branch).sum(axis=1))
        return gain, iv, valid


def _xlog2x(x):
    """``x * log2(x)`` elementwise, 0 where ``x`` is 0."""
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0)
