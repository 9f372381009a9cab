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

``classify`` and ``best_rule`` do not import this module, so scoring a
row never loads numpy through it.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import EQ, GT, LE, total as sequence_total


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

    def split_tallies(self, i, thresholds=None):
        """``(thresholds, branch tallies, parent, known_w, total_w)`` of attribute ``i``.

        ``parent`` is the class tally of the rows whose value is known,
        ``known_w`` their weight and ``total_w`` the weight of every row.
        A categorical attribute has the one threshold None, whose tallies
        hold one class tally per declared value.  A numeric attribute has
        one ``(left, right)`` pair of class tallies per threshold, for the
        values ``<=`` and ``>`` it; ``thresholds`` must ascend, and None
        means every midpoint between adjacent distinct known values.
        """
        view = self.view
        known = ~view.missing(i, self.rows)
        column = view.columns[i][self.rows][known]
        classes = view.classes[self.rows][known]
        weights = self.weights[known]
        n = view.n_classes
        parent = np.bincount(classes, weights, n).tolist()
        totals = (parent, total(weights), self.weight)
        spec = view.schema[i]
        if spec.is_categorical:
            tally = np.bincount(column * n + classes, weights, len(spec.values) * n)
            tally = tally.reshape(-1, n)
            return ([None], [tally.tolist()]) + totals

        order = np.argsort(column, kind="stable")  # equal values keep row order
        column = column[order]
        if thresholds is None:
            # the first of each run of equal values, as -0.0 and 0.0 compare equal
            distinct = np.concatenate((column[:1], column[1:][column[1:] != column[:-1]]))
            thresholds = ((distinct[:-1] + distinct[1:]) / 2).tolist()
        by_class = np.zeros((len(column) + 1, n))
        by_class[np.arange(1, len(column) + 1), classes[order]] = weights[order]
        # the right tallies are summed down from the top on their own, never
        # taken as parent - left: with fractional weights that rounds below 0
        left = np.cumsum(by_class, axis=0)
        right = np.cumsum(np.concatenate((by_class[:1], by_class[:0:-1])), axis=0)
        cuts = np.searchsorted(column, thresholds, side="right")  # value <= threshold
        pairs = zip(left[cuts].tolist(), right[len(column) - cuts].tolist())
        return (thresholds, list(pairs)) + totals

    def children(self, i, threshold):
        """One Node per branch of the test on attribute ``i``.

        A branch gets its known rows, then every row missing the value at
        weight ``w * branch_known / known_total`` when its known weight is
        positive.
        """
        view = self.view
        spec = view.schema[i]
        if spec.is_categorical:
            tests = [(EQ, v) for v in spec.values]
        else:
            tests = [(LE, threshold), (GT, threshold)]
        masks = [view.holds(i, relation, value, self.rows) for relation, value in tests]
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
