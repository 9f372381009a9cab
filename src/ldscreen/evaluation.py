"""Cross-validation driver and confusion-matrix metric suite.

Predictions from all test folds are pooled into one confusion matrix and
scored once, the way a single evaluation run reports: correctly and
incorrectly classified counts with percentages, then per-class TP rate,
FP rate, precision, recall, F-measure, and ROC area.

ROC area is the probability that a random instance of the class
outscores a random non-member under the model's score for that class;
ties count one half.  Scores come from the tree's leaf distributions or,
for rule sets, from the matched rule's accuracy.

``cross_validate`` can fit the folds in forked worker processes and fits
here any fold that no worker sent, so the pooled predictions, and so the
report, are the same as in one process.
"""

from __future__ import annotations

import marshal
import os
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace

from .dataset import (
    Dataset,
    align_columns,
    check_count,
    class_tally,
    dump_document,
    first_max,
    load_document,
    random_folds,
    stratified_folds,
    total,
)
from .rules import best_rule, extract_rules, simplify_rules
from .tree import TreeConfig, build_tree, classify

REPORT_FORMAT = "ldscreen-report"
REPORT_VERSION = 1


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[actual][predicted], both axes in ``class_values`` order."""

    class_values: tuple
    counts: tuple  # tuple of tuples, square

    def __post_init__(self):
        n = len(self.class_values)
        if len(self.counts) != n or any(len(r) != n for r in self.counts):
            raise ValueError("confusion matrix must be square over the classes")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("negative count in confusion matrix")

    @property
    def total(self):
        return sum(sum(row) for row in self.counts)

    @property
    def correct(self):
        return sum(self.counts[i][i] for i in range(len(self.class_values)))

    def row_sum(self, i):
        return sum(self.counts[i])

    def column_sum(self, j):
        return sum(row[j] for row in self.counts)


@dataclass(frozen=True)
class ClassMetrics:
    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f_measure: float
    roc_area: float | None = None


@dataclass(frozen=True)
class EvaluationReport:
    matrix: ConfusionMatrix
    per_class: tuple  # (class label, ClassMetrics) pairs in class order
    accuracy: float

    @property
    def error_rate(self):
        return 1.0 - self.accuracy

    def metrics_for(self, label):
        for name, m in self.per_class:
            if name == label:
                return m
        raise KeyError(label)


def confusion(actual, predicted, class_values) -> ConfusionMatrix:
    """Tally (actual, predicted) label pairs into a matrix."""
    if len(actual) != len(predicted):
        raise ValueError(
            f"{len(actual)} actual labels vs {len(predicted)} predictions"
        )
    index = {v: i for i, v in enumerate(class_values)}
    counts = [[0] * len(class_values) for _ in class_values]
    for a, p in zip(actual, predicted):
        if a not in index:
            raise ValueError(f"unknown actual label {a!r}")
        if p not in index:
            raise ValueError(f"unknown predicted label {p!r}")
        counts[index[a]][index[p]] += 1
    return ConfusionMatrix(tuple(class_values), tuple(tuple(r) for r in counts))


def per_class_metrics(matrix: ConfusionMatrix) -> EvaluationReport:
    """Score every class one-vs-rest from a confusion matrix.

    Zero-denominator conventions: precision and F are 0 for a class never
    predicted; fp_rate is 0 when no negatives exist.  ROC areas are not
    derivable from a matrix alone and stay unset here; cross_validate
    fills them from pooled scores.
    """
    total = matrix.total
    if total == 0:
        raise ValueError("empty confusion matrix has no defined metrics")
    per_class = []
    for i, label in enumerate(matrix.class_values):
        tp = matrix.counts[i][i]
        fn = matrix.row_sum(i) - tp
        fp = matrix.column_sum(i) - tp
        tn = total - tp - fn - fp
        tp_rate = tp / (tp + fn) if tp + fn > 0 else 0.0
        fp_rate = fp / (fp + tn) if fp + tn > 0 else 0.0
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        f = (
            2 * precision * tp_rate / (precision + tp_rate)
            if precision + tp_rate > 0
            else 0.0
        )
        per_class.append(
            (label, ClassMetrics(tp_rate, fp_rate, precision, tp_rate, f))
        )
    return EvaluationReport(matrix, tuple(per_class), matrix.correct / total)


def roc_area(scores, actual, positive_class) -> float:
    """Mann-Whitney ROC area: P(random positive outscores random negative).

    Each positive counts the negatives it outscores, plus one half for
    each it ties, which makes this identical to trapezoidal integration
    of the ROC curve.  Every term is a multiple of one half, so the count
    is exact and only the final division rounds.
    """
    if len(scores) != len(actual):
        raise ValueError("scores and labels differ in length")
    positives = [s for s, a in zip(scores, actual) if a == positive_class]
    negatives = sorted(s for s, a in zip(scores, actual) if a != positive_class)
    if not positives or not negatives:
        raise ValueError("ROC area needs both classes present")
    pairs = 0.0
    for s in positives:
        below = bisect_left(negatives, s)
        pairs += below + (bisect_right(negatives, s) - below) / 2
    return pairs / (len(positives) * len(negatives))


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------
# A learner maps a training Dataset to a predict function; predict maps an
# instance to (label, score per class).  Scores feed the ROC columns.


def tree_learner(config: TreeConfig | None = None):
    def fit(train: Dataset):
        model = build_tree(train, config)

        def predict(instance):
            return classify(model, instance)

        return predict

    return fit


def rules_learner(config: TreeConfig | None = None):
    def fit(train: Dataset):
        ruleset = simplify_rules(extract_rules(build_tree(train, config)), train)
        class_values = train.class_values

        def predict(instance):
            rule = best_rule(ruleset, instance)
            if rule is None:
                # default-class fallback carries no evidence
                label, acc = ruleset.default_class, 0.5
            else:
                label, acc = rule.consequent, rule.accuracy
            rest = (1.0 - acc) / (len(class_values) - 1)
            return label, {
                v: (acc if v == label else rest) for v in class_values
            }

        return predict

    return fit


def majority_learner():
    def fit(train: Dataset):
        counts = class_tally(train.rows, train.schema, train.class_index)
        weight = total(counts)
        dist = {v: c / weight for v, c in zip(train.class_values, counts)}
        best = train.class_values[first_max(list(dist.values()))]

        def predict(instance):
            return best, dict(dist)

        return predict

    return fit


def cross_validate(
    dataset, k, seed, learner, stratify=True, workers=1
) -> EvaluationReport:
    """k-fold cross-validation with pooled scoring.

    Each instance is predicted exactly once, by the model trained on the
    folds it does not belong to; the pooled predictions produce a single
    report.  ROC areas use the pooled per-class scores.

    ``workers`` (an int, at least 1) is the number of processes that fit
    and predict the folds: this one and up to ``workers - 1`` forked from
    it, at most one per fold (see ``_fold_predictions``).  The report is
    the same whatever the count.  What ``learner`` or its predict function
    changes in a forked worker, such as a list it appends to, stays in
    that worker, so the default is 1.  Where ``os.fork`` does not exist,
    every fold runs in this process, and where a pipe or a fork is
    refused, the folds of the workers not forked do.
    """
    check_count("workers", workers, 1)
    folds = (
        stratified_folds(dataset, k, seed)
        if stratify
        else random_folds(dataset, k, seed)
    )
    class_values = dataset.class_values
    actual = []
    predicted = []
    scores = []
    for fold in _fold_predictions(folds, learner, dataset.class_index, workers):
        for a, label, dist in fold:
            actual.append(a)
            predicted.append(label)
            scores.append(dist)
    report = per_class_metrics(confusion(actual, predicted, class_values))
    per_class = []
    for label, metrics in report.per_class:
        if 0 < actual.count(label) < len(actual):
            area = roc_area([s[label] for s in scores], actual, label)
            metrics = replace(metrics, roc_area=area)
        per_class.append((label, metrics))
    return replace(report, per_class=tuple(per_class))


def _predict_fold(fold, learner, class_index):
    """``(actual, label, scores)`` of each held-out row of one (train, test) fold."""
    train, test = fold
    predict = learner(train)
    rows = []
    for inst in test.instances:
        label, dist = predict(inst)
        rows.append((inst.values[class_index], label, dist))
    return rows


def _fold_predictions(folds, learner, class_index, workers):
    """The ``_predict_fold`` list of every fold, in fold order.

    With p = min(workers, k) processes, worker w fits folds w, w + p, and
    so on.  This process is worker 0: it encodes the parent's view once,
    then forks the others, which inherit that view and numpy.  One loop
    then takes the folds in order: the next list (``_work``) from the
    fold's worker, or a fit here if the fold is this process's or its
    worker sent no more.  So the exception raised is the lowest failing
    fold's, as with one worker, and the folds of a worker that died, or
    was never forked because a pipe or a fork was refused, are fitted here.
    """

    def run(f):
        return _predict_fold(folds[f], learner, class_index)

    p = min(workers, len(folds)) if hasattr(os, "fork") else 1
    if p > 1:
        import signal  # here, not at module level: most commands never fork

        from .columns import view_of

        view_of(folds[0][0])  # kept on the dataset dealt from, for every worker
    pipes, pids = [], []  # pipes[w - 1] is the read end from worker w
    try:
        for w in range(1, p):
            try:
                read_fd, write_fd = os.pipe()
                pipes.append(open(read_fd, "rb"))
                with open(write_fd, "wb") as out:
                    pid = _fork()
                    if pid == 0:
                        _work(out, run, range(w, len(folds), p))
            except OSError:
                break  # a refused pipe or fork: the rest are fitted here
            pids.append(pid)
        pooled = []
        for f in range(len(folds)):
            sent = _receive(pipes[f % p - 1]) if 0 < f % p <= len(pipes) else None
            pooled.append(run(f) if sent is None else sent)
        return pooled
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(out, run, folds):
    """A forked worker: send the list of each of ``folds`` up to the first that fails.

    Each list goes out as one ``marshal.dump`` of its ``marshal`` bytes:
    marshal keeps every float exact and marks where the bytes end, and
    ``marshal.load`` takes one bytes object from the pipe in one read,
    where it would take a list in one read per item, about five times
    slower.  The worker ends with ``os._exit``, so it never returns into
    the caller nor flushes the output buffers it inherited.
    """
    try:
        for f in folds:
            marshal.dump(marshal.dumps(run(f)), out)
            out.flush()
    finally:
        os._exit(0)


def _receive(pipe):
    """The next list ``_work`` sent on ``pipe``, or None if its worker sent no more."""
    try:
        return marshal.loads(marshal.load(pipe))
    except EOFError:  # the pipe ended before, or within, a list
        return None


def _fork():
    # Python 3.12 and later warn when a process with other threads forks,
    # since a lock one of them held stays locked in the child.  The CLI
    # forks a process of one thread, as cli.main keeps OpenBLAS to one;
    # a library caller's numpy may keep a BLAS pool of threads, and the
    # filter stays for it: a worker calls no BLAS routine, so it takes
    # none of their locks.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
            r"may lead to deadlocks in the child\.",
            DeprecationWarning,
        )
        return os.fork()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_COLUMNS = ("TP Rate", "FP Rate", "Precision", "Recall", "F-Measure", "ROC Area")


def _metric_cells(m: ClassMetrics):
    values = (m.tp_rate, m.fp_rate, m.precision, m.recall, m.f_measure)
    cells = [f"{v:.3f}" for v in values]
    cells.append("n/a" if m.roc_area is None else f"{m.roc_area:.3f}")
    return cells


def report_text(report: EvaluationReport) -> str:
    """Counts/percentage headline plus the aligned per-class table."""
    total = report.matrix.total
    correct = report.matrix.correct
    lines = [
        f"Correctly Classified Instances {correct} Nos. {100 * report.accuracy:.1f} %",
        f"Incorrectly Classified Instances {total - correct} Nos. "
        f"{100 * report.error_rate:.1f} %",
        "",
    ]
    rows = [list(_COLUMNS) + ["Class"]]
    for label, metrics in report.per_class:
        rows.append(_metric_cells(metrics) + [str(label)])
    lines += align_columns(rows, str.rjust)
    lines.append("")
    lines.append("Confusion Matrix (rows actual, columns predicted)")
    header = "  ".join(f"{v:>6}" for v in report.matrix.class_values)
    lines.append(f"{'':>6}  {header}")
    for label, row in zip(report.matrix.class_values, report.matrix.counts):
        cells = "  ".join(f"{c:>6}" for c in row)
        lines.append(f"{label:>6}  {cells}")
    return "\n".join(lines)


def report_to_json(report: EvaluationReport) -> str:
    body = {
        "classes": list(report.matrix.class_values),
        "confusion": [list(row) for row in report.matrix.counts],
        "accuracy": report.accuracy,
        "error_rate": report.error_rate,
        "per_class": {label: asdict(m) for label, m in report.per_class},
    }
    return dump_document(REPORT_FORMAT, REPORT_VERSION, body)


def report_from_json(text: str) -> EvaluationReport:
    """Read a report_to_json document; ParseError when it is malformed."""
    return load_document(text, REPORT_FORMAT, REPORT_VERSION, _report_from_doc)


def _report_from_doc(doc):
    matrix = ConfusionMatrix(
        tuple(doc["classes"]), tuple(tuple(r) for r in doc["confusion"])
    )
    per_class = tuple(
        (label, ClassMetrics(**m)) for label, m in doc["per_class"].items()
    )
    return EvaluationReport(matrix, per_class, doc["accuracy"])
