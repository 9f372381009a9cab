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

Growth tallies a numeric attribute node by node (``Node.midpoints``) and
a nominal one level by level (``Level.nominal``): one ``bincount`` over
the rows of every node of a tree level, keyed by node, fills each node's
bins as a ``bincount`` over that node alone would.  The screens in numpy
(``Midpoints.screen``, ``Nominal.screen``) only sort candidates out; the
scores that decide are ``tree._score_splits``'.

``classify`` and ``best_rule`` do not import this module, so scoring a
row never loads numpy through it.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import EQ, LE, total as sequence_total


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

    def missing(self, i, rows=slice(None)):
        """Mask of ``rows`` whose value of attribute ``i`` is missing."""
        column = self.columns[i][rows]
        return column < 0 if self.schema[i].is_categorical else np.isnan(column)

    def holds(self, i, relation, value, rows=slice(None)):
        """Mask of ``rows`` whose value of attribute ``i`` passes the test.

        ``=`` tests a categorical attribute, ``<=`` and ``>`` a numeric
        one; a missing value fails every test, and so does every row for
        a symbol the attribute does not declare.
        """
        column = self.columns[i][rows]
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

    def _known(self, i):
        """Value, class and weight arrays of the rows whose attribute ``i`` is known."""
        view = self.view
        known = ~view.missing(i, self.rows)
        return view.columns[i][self.rows][known], view.classes[self.rows][known], self.weights[known]

    def midpoints(self, i, thresholds=None):
        """The Midpoints of numeric attribute ``i``, sorted once.

        ``thresholds`` must ascend; None means every midpoint between
        adjacent distinct known values.
        """
        column, classes, weights = self._known(i)
        n = self.view.n_classes
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
        parent = np.bincount(classes, weights, n).tolist()
        branches = np.stack((left[cuts], right[len(column) - cuts]), axis=1)
        return Midpoints(thresholds, branches, parent, total(weights), self.weight)

    def children(self, conditions):
        """One Node per branch, given the Condition each branch tests.

        ``conditions`` test one attribute, as ``tree.branch_conditions``
        lists them.  A branch gets the rows that pass its condition, then
        every row missing the tested value at weight ``w * branch_known /
        known_total`` when its known weight is positive.
        """
        view = self.view
        i = conditions[0].attribute_index
        masks = [view.holds(i, c.relation, c.value, self.rows) for c in conditions]
        known_w = [total(self.weights[mask]) for mask in masks]
        known_total = sequence_total(known_w)
        missing = view.missing(i, self.rows)
        children = []
        for mask, branch_w in zip(masks, known_w):
            rows, weights = self.rows[mask], self.weights[mask]
            if branch_w > 0:
                rows = np.concatenate((rows, self.rows[missing]))
                scaled = self.weights[missing] * branch_w / known_total
                weights = np.concatenate((weights, scaled))
            children.append(Node(view, rows, weights))
        return children


class Midpoints:
    """The class tallies of one numeric attribute at a node, per threshold.

    ``branches[j, 0]`` and ``branches[j, 1]`` are the class tallies of the
    known rows ``<=`` and ``>`` ``thresholds[j]``, each summed in sorted
    order on its own.  ``parent`` is the class tally of the known rows,
    ``known_w`` their weight and ``total_w`` the weight of every row.
    """

    def __init__(self, thresholds, branches, parent, known_w, total_w):
        self.thresholds = thresholds
        self.branches = branches
        self.parent = parent
        self.known_w = known_w
        self.total_w = total_w

    def tallies(self, picks):
        """``tree._score_splits``'s arguments after the attribute index, for the thresholds at ``picks``."""
        thresholds = self.thresholds[picks].tolist()
        return thresholds, self.branches[picks].tolist(), self.parent, self.known_w, self.total_w

    def screen(self, h_parent):
        """``(gain, intrinsic value, valid)`` arrays, one entry per threshold.

        ``h_parent`` is the entropy of ``parent``; ``known_w`` must be
        positive.  See ``_screen``.
        """
        return _screen(self.branches, h_parent, self.known_w, self.total_w)


class Level:
    """The nodes of one tree level, their rows concatenated in node order.

    A node's rows keep their order, so a ``bincount`` keyed by node adds
    each node's weights as a ``bincount`` over that node alone would.
    """

    def __init__(self, nodes):
        self.view = nodes[0].view
        self.rows = np.concatenate([node.rows for node in nodes])
        self.weights = np.concatenate([node.weights for node in nodes])
        self.node = np.repeat(np.arange(len(nodes)), [len(node.rows) for node in nodes])
        self.total_w = np.array([node.weight for node in nodes])

    def nominal(self, at):
        """The Nominal candidates of categorical attributes at nodes of the level.

        ``at`` maps each attribute index to the positions of the nodes
        where it is a candidate; the candidates follow ``at``, then node
        order.  Each attribute takes one pass over the level's rows: a
        ``bincount`` keyed by (node, value or missing, class) for the
        branch tallies, one keyed by (node, known, class) for the parent
        tallies and one keyed by (node, known) for the known weights.
        """
        view = self.view
        n, m = view.n_classes, len(self.total_w)
        values = [len(view.schema[i].values) for i in at]
        width = max(values) + 1  # bin 0 of each node takes its missing values
        classes = view.classes[self.rows]
        by_known = self.node * 2
        by_value = (self.node * width + 1) * n + classes
        by_known_class = by_known * n + classes
        parts = []
        for i, positions in at.items():
            value = view.columns[i][self.rows]  # -1 when missing
            known = value >= 0
            branches = np.bincount(by_value + value * n, self.weights, m * width * n)
            parent = np.bincount(by_known_class + known * n, self.weights, m * 2 * n)
            known_w = np.bincount(by_known + known, self.weights, m * 2)
            positions = np.asarray(positions, np.intp)
            parts.append((
                positions,
                branches.reshape(m, width, n)[positions, 1:],
                parent.reshape(m, 2, n)[positions, 1],
                known_w[1::2][positions],
            ))
        nodes, branches, parent, known_w = (np.concatenate(part) for part in zip(*parts))
        sizes = [len(positions) for positions in at.values()]
        return Nominal(
            np.repeat(list(at), sizes),
            nodes,
            np.repeat(values, sizes),
            branches,
            parent,
            known_w,
            self.total_w[nodes],
        )


class Nominal:
    """Candidate splits on categorical attributes at nodes of a Level.

    Candidate c splits the ``nodes[c]``-th node on attribute
    ``attributes[c]``, which declares ``values[c]`` values.
    ``branches[c, v]`` is the class tally of that node's known rows whose
    value is the v-th declared one (zero past ``values[c]``),
    ``parent[c]`` that of all its known rows, ``known_w[c]`` their weight
    and ``total_w[c]`` the weight of all its rows, each added in row order.
    """

    def __init__(self, attributes, nodes, values, branches, parent, known_w, total_w):
        self.attributes = attributes
        self.nodes = nodes
        self.values = values
        self.branches = branches
        self.parent = parent
        self.known_w = known_w
        self.total_w = total_w

    def tallies(self, c):
        """``tree._score_splits``'s arguments after the attribute index, for candidate ``c``."""
        branches = self.branches[c, : self.values[c]].tolist()
        known_w, total_w = float(self.known_w[c]), float(self.total_w[c])
        return [None], [branches], self.parent[c].tolist(), known_w, total_w

    def screen(self):
        """``(gain, intrinsic value, valid)`` arrays, one entry per candidate.

        As ``_screen``, with the entropy of each ``parent`` in numpy too.
        The empty tallies past ``values[c]`` add only zeros.
        """
        parent_w = self.parent.sum(axis=1)
        p = self.parent / np.where(parent_w > 0, parent_w, 1.0)[:, None]
        return _screen(self.branches, -_xlog2x(p).sum(axis=1), self.known_w, self.total_w)


def _screen(branches, h_parent, known_w, total_w):
    """``(gain, intrinsic value, valid)`` arrays of the candidates in ``branches``.

    ``branches[c, v]`` is the class tally of branch v of candidate c;
    ``h_parent``, ``known_w`` and ``total_w`` are numbers or hold one
    entry per candidate.  The gain and the intrinsic value follow
    ``tree._score_splits``'s formulas in numpy, so they can differ from
    its scores by rounding; ``tree._screen_error`` bounds the difference.
    ``valid`` is exact: a sum of non-negative weights is positive exactly
    when one of them is, in any order.
    """
    weight = branches.sum(axis=2)
    valid = (weight > 0).sum(axis=1) >= 2
    p = branches / np.where(weight > 0, weight, 1.0)[:, :, None]
    h_branch = -_xlog2x(p).sum(axis=2)
    share = weight / np.where(known_w > 0, known_w, 1.0)[..., None]
    iv = -_xlog2x(share).sum(axis=1)
    gain = (known_w / total_w) * (h_parent - (share * h_branch).sum(axis=1))
    return gain, iv, valid


def _xlog2x(x):
    """``x * log2(x)`` elementwise, 0 where ``x`` is 0."""
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0)
