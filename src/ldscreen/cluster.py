"""K-means partitioning of checklist/survey instances.

Instances are encoded into real vectors: numeric attributes pass through,
a binary attribute becomes one 0/1 indicator of its second declared value
(so pure-binary data keeps the plain Hamming geometry), and wider nominal
attributes become one indicator column per value.  The class attribute is
never encoded.  Centroids are therefore always means and the within-
cluster sum of squared errors (WCSS) is well-defined.

Fitting runs Lloyd iterations from k randomly chosen distinct instances
until assignments stop changing.  ``encode_dataset`` refuses missing
values, so callers of ``kmeans_fit`` and ``cluster_profile`` impute gaps
first.  The ``cluster`` command does not: ``fit_imputed`` reads the parsed
dataset, gaps included, into one encoded view and builds the matrix
once, each gap filled in the matrix, not in the view, with the value
``impute_missing`` would fill (``gap_fills``); the fit and the profile
that both reports print read that matrix, and no imputed Dataset is
built.  The public functions wrap the same matrix-level code: one
encoder, one Lloyd loop, one profile, the last two refusing values
whose arithmetic overflows (``_in_range``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import wraps

import numpy as np

from .columns import Columns
from .dataset import BINARY, EQ, NUMERIC, Dataset, align_columns, dump_document
from .dataset import check_count, first_max, gap_fills, load_document

CLUSTER_FORMAT = "ldscreen-cluster"
CLUSTER_VERSION = 1


@dataclass(frozen=True)
class ClusterModel:
    k: int
    column_labels: tuple
    centroids: tuple  # k tuples of floats
    assignments: tuple  # cluster index per instance
    wcss: float
    wcss_history: tuple  # one entry per iteration, non-increasing
    iterations: int
    seed: int

    def cluster_sizes(self):
        sizes = [0] * self.k
        for a in self.assignments:
            sizes[a] += 1
        return sizes


def encode_dataset(dataset: Dataset):
    """Encode non-class attributes into a real matrix.

    Returns
    -------
    (numpy.ndarray, tuple of str)
        An (n_instances, n_columns) float array and one label per column:
        the attribute name for numeric and binary columns, "name=value"
        for one-hot nominal columns.

    A missing value anywhere is an error; run impute_missing first.
    """
    return _encode(dataset, [None] * len(dataset.schema))


def encode_imputed(dataset: Dataset):
    """``encode_dataset(impute_missing(dataset))`` from one encoded view of ``dataset``.

    Each gap is filled in the matrix with ``impute_missing``'s fill, and
    ``impute_missing``'s errors are raised.
    """
    return _encode(dataset, gap_fills(dataset))


def _encode(dataset, fills):
    view = Columns(dataset)
    missing = {i: view.missing(i) for i in dataset.feature_indices}
    gaps = [(int(m.argmax()), i) for i, m in missing.items() if fills[i] is None and m.any()]
    if gaps:
        r, i = min(gaps)  # the first gap in row order
        raise ValueError(
            f"instance {r} has a missing value in attribute "
            f"{dataset.schema[i].name}; impute before clustering"
        )

    def indicator(i, v):  # every test fails at a gap; its fill's indicator is set
        holds = view.holds(i, EQ, v)
        return holds | missing[i] if v == fills[i] else holds

    columns = []
    labels = []
    for i in dataset.feature_indices:
        spec = dataset.schema[i]
        if spec.kind == NUMERIC:
            labels.append(spec.name)
            column = view.columns[i]
            columns.append(column if fills[i] is None else np.where(missing[i], fills[i], column))
        elif spec.kind == BINARY:
            labels.append(spec.name)
            columns.append(indicator(i, spec.values[1]))
        else:
            for v in spec.values:
                labels.append(f"{spec.name}={v}")
                columns.append(indicator(i, v))
    rows = np.empty((len(dataset), len(columns)))
    for c, column in enumerate(columns):
        rows[:, c] = column
    return rows, tuple(labels)


def distinct_rows(rows):
    """The distinct rows of a 2-d array as ``np.unique(rows, axis=0)`` gives them.

    One stable ``np.lexsort`` orders the rows by their first column, then
    their second and so on; the first row of each run of equal rows is kept.
    """
    if not rows.shape[1]:  # np.lexsort needs a key, and rows without columns are equal
        return rows[:1]
    ordered = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(ordered), bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=keep[1:])
    return ordered[keep]


def _assign(rows, centroids):
    # n x k squared distances; argmin takes the lowest index on ties
    d2 = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _update(centroids, rows, assign, k):
    for j in range(k):
        members = rows[assign == j]
        if len(members):
            centroids[j] = members.mean(axis=0)


def _means(rows, assign, k, old_centroids):
    centroids = old_centroids.copy()
    _update(centroids, rows, assign, k)
    empties = [j for j in range(k) if not (assign == j).any()]
    if empties:
        assign = assign.copy()
        for j in empties:
            # repair: reseed with the instance farthest from its fresh mean
            d2 = ((rows - centroids[assign]) ** 2).sum(axis=1)
            far = int(d2.argmax())
            centroids[j] = rows[far]
            assign[far] = j
        # so that a donor's centroid is the mean of what it kept
        _update(centroids, rows, assign, k)
    return centroids, assign


def kmeans_fit(dataset, k=2, seed=0, max_iter=100, initial_centroids=None):
    """Partition ``dataset`` into k clusters by Lloyd's method.

    Parameters
    ----------
    dataset : Dataset
        Fully imputed; the class attribute (if any) is ignored.
    k : int
        Cluster count; at least 1 and at most the number of distinct
        instances.
    seed : int
        Drives the choice of initial centroids among distinct instances.
    max_iter : int
        Hard cap on assignment rounds; at least 1.
    initial_centroids : sequence of vectors, optional
        Bypass random initialization (used for warm restarts; a fit
        restarted from its own centroids converges in one iteration).

    Returns
    -------
    ClusterModel
        Assignments, centroids, final WCSS, and the per-iteration WCSS
        history (non-increasing).  Deterministic for fixed inputs.
    """
    _check_fit(len(dataset), k, max_iter)
    rows, labels = encode_dataset(dataset)
    return _lloyd(rows, labels, k, seed, max_iter, initial_centroids)


def fit_imputed(dataset: Dataset, k=2, seed=0, max_iter=100):
    """``kmeans_fit`` of ``impute_missing(dataset)`` and that fit's ``cluster_profile``.

    Both read one matrix (``encode_imputed``).  The errors are
    ``impute_missing``'s, then ``kmeans_fit``'s, in that order.
    """
    rows, labels = encode_imputed(dataset)
    _check_fit(len(rows), k, max_iter)
    model = _lloyd(rows, labels, k, seed, max_iter)
    return model, _profile(rows, labels, model)


def _check_fit(n, k, max_iter):
    for name, value in (("k", k), ("max_iter", max_iter)):
        check_count(name, value, 1, f"{name} must be at least 1, got {value}")
    if n == 0:
        raise ValueError("cannot cluster an empty dataset")


def _in_range(compute):
    """``compute`` refusing with ValueError where its float arithmetic overflows.

    A squared distance overflows once a difference passes about 1.3e154,
    and a mean's sum near the float maximum: the fit and the profile
    would otherwise go on with infinities.
    """

    @wraps(compute)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return compute(*args, **kwargs)
        except FloatingPointError:
            raise ValueError(
                "values too large to cluster: a squared distance or a sum overflows"
            ) from None

    return checked


@_in_range
def _lloyd(rows, labels, k, seed, max_iter, initial_centroids=None):
    if initial_centroids is None:
        distinct = distinct_rows(rows)
        if k > len(distinct):
            raise ValueError(
                f"k={k} exceeds the {len(distinct)} distinct instances"
            )
        picks = random.Random(seed).sample(range(len(distinct)), k)
        centroids = distinct[picks].astype(float)
    else:
        centroids = np.asarray(initial_centroids, dtype=float).copy()
        if centroids.shape != (k, rows.shape[1]):
            raise ValueError(
                f"initial centroids must have shape {(k, rows.shape[1])}"
            )

    assign, history = None, []
    while len(history) < max_iter:
        new_assign = _assign(rows, centroids)
        # compared with the assignment _means returned, after any repair
        if history and (new_assign == assign).all():
            break
        centroids, assign = _means(rows, new_assign, k, centroids)
        history.append(float(((rows - centroids[assign]) ** 2).sum()))
    return ClusterModel(
        k=k,
        column_labels=labels,
        centroids=tuple(tuple(float(x) for x in c) for c in centroids),
        assignments=tuple(int(a) for a in assign),
        wcss=history[-1],
        wcss_history=tuple(history),
        iterations=len(history),
        seed=seed,
    )


def map_clusters_to_classes(model: ClusterModel, dataset: Dataset):
    """Label each cluster by the majority class of its members.

    Members without a recorded class are not counted.

    Returns
    -------
    (tuple of str or None, list of list of int)
        One class label per cluster (ties resolve to the earlier declared
        class; None for a cluster none of whose members has a recorded
        class) and the contingency counts[cluster][class].
    """
    class_values = dataset.class_values
    counts = [[0] * len(class_values) for _ in range(model.k)]
    for inst, a in zip(dataset.instances, model.assignments):
        label = inst.values[dataset.class_index]
        if label is not None:
            counts[a][class_values.index(label)] += 1
    labels = tuple(class_values[first_max(row)] if any(row) else None for row in counts)
    return labels, counts


def cluster_profile(model: ClusterModel, dataset: Dataset):
    """Mean of every encoded column, over the full data and per cluster.

    Returns
    -------
    list of (label, full_mean, tuple of per-cluster means)
    """
    return _profile(*encode_dataset(dataset), model)


@_in_range
def _profile(rows, labels, model):
    assign = np.asarray(model.assignments)
    members = [assign == j for j in range(model.k)]
    out = []
    for c, label in enumerate(labels):
        col = rows[:, c]
        per = tuple(float(col[m].mean()) if m.any() else float("nan") for m in members)
        out.append((label, float(col.mean()), per))
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def percentage(part, whole):
    """Share of ``whole`` formatted with two decimals, e.g. '75.20 %'."""
    return f"{100.0 * part / whole:.2f} %"


def clustered_instances_text(model: ClusterModel, dataset: Dataset) -> str:
    """The 'Clustered Instances' block: size and share per cluster.

    A cluster with no recorded class among its members is labelled ``?``.
    """
    class_name = dataset.class_attribute.name
    labels, _ = map_clusters_to_classes(model, dataset)
    sizes = model.cluster_sizes()
    total = len(dataset)
    lines = ["Clustered Instances"]
    for j, (size, label) in enumerate(zip(sizes, labels)):
        lines.append(
            f"{j}  {class_name}={label or '?'} - {size} Nos. - {percentage(size, total)}"
        )
    return "\n".join(lines)


def cluster_report_text(model: ClusterModel, dataset: Dataset) -> str:
    """Aligned clustering report: run stats, per-column means, sizes."""
    return profile_report_text(model, dataset, cluster_profile(model, dataset))


def profile_report_text(model: ClusterModel, dataset: Dataset, profile) -> str:
    """``cluster_report_text`` with ``profile`` as the model's ``cluster_profile``."""
    sizes = model.cluster_sizes()
    header = ["Attribute", f"Full Data ({len(dataset)})"]
    header += [f"Cluster {j} ({sizes[j]})" for j in range(model.k)]
    rows = [header]
    for label, full, per in profile:
        rows.append([label, f"{full:.3f}"] + [f"{m:.3f}" for m in per])
    table = "\n".join(line.rstrip() for line in align_columns(rows, str.ljust))
    lines = [
        f"Number of iterations: {model.iterations}",
        f"Within cluster sum of squared errors: {model.wcss:.3f}",
        "",
        table,
        "",
        clustered_instances_text(model, dataset),
    ]
    return "\n".join(lines)


def cluster_profile_csv(model: ClusterModel, dataset: Dataset) -> str:
    """CSV mirror of the profile table (full precision, no alignment)."""
    return profile_csv(model, cluster_profile(model, dataset))


def profile_csv(model: ClusterModel, profile) -> str:
    """``cluster_profile_csv`` with ``profile`` as the model's ``cluster_profile``."""
    out = ["attribute,full_data," + ",".join(f"cluster_{j}" for j in range(model.k))]
    for label, full, per in profile:
        cells = [label, repr(full)] + [repr(m) for m in per]
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def cluster_model_to_json(model: ClusterModel) -> str:
    body = {
        "k": model.k,
        "seed": model.seed,
        "iterations": model.iterations,
        "wcss": model.wcss,
        "wcss_history": list(model.wcss_history),
        "column_labels": list(model.column_labels),
        "centroids": [list(c) for c in model.centroids],
        "assignments": list(model.assignments),
    }
    return dump_document(CLUSTER_FORMAT, CLUSTER_VERSION, body)


def cluster_model_from_json(text: str) -> ClusterModel:
    """Read a cluster_model_to_json document; ParseError when it is malformed."""
    return load_document(text, CLUSTER_FORMAT, CLUSTER_VERSION, _cluster_model_from_doc)


def _cluster_model_from_doc(doc):
    return ClusterModel(
        k=doc["k"],
        column_labels=tuple(doc["column_labels"]),
        centroids=tuple(tuple(c) for c in doc["centroids"]),
        assignments=tuple(doc["assignments"]),
        wcss=doc["wcss"],
        wcss_history=tuple(doc["wcss_history"]),
        iterations=doc["iterations"],
        seed=doc["seed"],
    )
