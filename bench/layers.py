"""Per-layer numbers from a traced in-process pass.

``mirror`` makes, in process, the library calls each CLI command of the
session makes, in the same order and with the same arguments, with one
span per call into a public function and one ``cli.<command>`` span per
command.  Its outputs must equal the files the CLI wrote.  ``probes`` then
times the layer entry points the session reaches only from inside other
functions (unpruned growth, pruning, the root split scan, UCB, batch
classification, encoding, scoring).  ``layer_metrics`` turns the spans
into the per-layer metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from ldscreen import (
    TreeConfig,
    build_tree,
    classify,
    cluster_model_to_json,
    cluster_report_text,
    confusion,
    cross_validate,
    encode_dataset,
    evaluate_split,
    extract_rules,
    impute_missing,
    kmeans_fit,
    model_from_json,
    model_to_json,
    parse_arff,
    per_class_metrics,
    prune_tree,
    report_text,
    report_to_json,
    roc_area,
    rules_classify,
    rules_learner,
    ruleset_text,
    ruleset_to_json,
    simplify_rules,
    stratified_folds,
    training_accuracy,
    tree_learner,
    ucb_error_rate,
)

from ldscreen.cluster import cluster_profile_csv

#: (errors, total) pairs on which one ``ucb_error_rate`` call is timed.
UCB_GRID = tuple(
    (e, n)
    for n in (2.0, 5.0, 10.0, 37.5, 100.0, 1000.0)
    for e in (0.0, 0.5, 1.0, 2.0, 7.25, 20.0)
    if e < n
)
PASSES = 3  # batch probes report the median of this many passes

#: unit of every per-layer metric, in report order
PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "dataset.parse_s": "s",
    "dataset.rows": "count",
    "dataset.cells_missing": "count",
    "dataset.folds_s": "s",
    "dataset.impute_s": "s",
    "tree.root_scan_s": "s",
    "tree.root_candidates": "count",
    "tree.grow_s": "s",
    "tree.prune_s": "s",
    "tree.nodes_grown": "count",
    "tree.nodes_kept": "count",
    "tree.ucb_us": "us",
    "tree.classify_us": "us",
    "tree.classify_missing_us": "us",
    "rules.extract_s": "s",
    "rules.simplify_s": "s",
    "rules.before": "count",
    "rules.after": "count",
    "rules.kept_ratio": "ratio",
    "rules.conditions_before": "count",
    "rules.conditions_after": "count",
    "rules.classify_us": "us",
    "evaluation.cv_tree_s": "s",
    "evaluation.cv_rules_s": "s",
    "evaluation.fit_s": "s",
    "evaluation.predict_s": "s",
    "evaluation.score_s": "s",
    "evaluation.folds": "count",
    "cluster.encode_s": "s",
    "cluster.kmeans_s": "s",
    "cluster.iterations": "count",
    "cluster.report_s": "s",
    "trace.overhead_frac": "ratio",
}

#: CLI defaults of ``train``, ``evaluate`` and ``rules``.
CLI_TREE_CONFIG = TreeConfig(min_leaf_weight=2.0, confidence_factor=0.25, pruning=True)


@dataclass
class Mirror:
    outputs: dict = field(default_factory=dict)  # CLI file name -> text
    dataset: object = None
    imputed: object = None
    extracted: object = None
    simplified: object = None
    clusters: object = None
    pooled: dict = field(default_factory=dict)  # command -> [(instance, (label, dist))]


def mirror(rec, text, inp):
    """The session's library calls; ``rec`` is a Recorder or NullRecorder."""
    m = Mirror()

    def parse():
        return rec.call("dataset.parse_arff", parse_arff, text)

    with rec.span("cli.train"):
        ds = m.dataset = parse()
        model = rec.call("tree.build_tree", build_tree, ds, CLI_TREE_CONFIG)
        rec.call("tree.training_accuracy", training_accuracy, model, ds)
        m.outputs["model.json"] = rec.call("tree.model_to_json", model_to_json, model) + "\n"

    for command, learner, folds, name in (
        ("evaluate_tree", tree_learner, inp.tree_folds, "report_tree.json"),
        ("evaluate_rules", rules_learner, inp.rules_folds, "report_rules.json"),
    ):
        pooled = m.pooled[command] = []
        with rec.span(f"cli.{command}"):
            ds = parse()
            report = rec.call(
                "evaluation.cross_validate",
                cross_validate,
                ds,
                k=folds,
                seed=inp.fold_seed,
                learner=rec.wrap_learner(learner(CLI_TREE_CONFIG), pooled),
                stratify=True,
            )
            rec.call("evaluation.report_text", report_text, report)
            m.outputs[name] = rec.call("evaluation.report_to_json", report_to_json, report) + "\n"

    with rec.span("cli.rules"):
        ds = parse()
        tree = rec.call("tree.build_tree", build_tree, ds, CLI_TREE_CONFIG)
        m.extracted = rec.call("rules.extract_rules", extract_rules, tree)
        m.simplified = rec.call("rules.simplify_rules", simplify_rules, m.extracted, ds)
        rec.call("rules.ruleset_text", ruleset_text, m.simplified)
        m.outputs["rules.json"] = rec.call("rules.ruleset_to_json", ruleset_to_json, m.simplified) + "\n"

    with rec.span("cli.cluster"):
        ds = parse()
        m.imputed = rec.call("dataset.impute_missing", impute_missing, ds)
        m.clusters = rec.call("cluster.kmeans_fit", kmeans_fit, m.imputed, k=2, seed=inp.seed, max_iter=100)
        rec.call("cluster.cluster_report_text", cluster_report_text, m.clusters, m.imputed)
        m.outputs["cluster.json"] = rec.call("cluster.cluster_model_to_json", cluster_model_to_json, m.clusters) + "\n"
        m.outputs["profile.csv"] = rec.call("cluster.cluster_profile_csv", cluster_profile_csv, m.clusters, m.imputed)

    scored = inp.checklist_model.read_text() if inp.checklist_model else m.outputs["model.json"]
    with rec.span("cli.checklist"):  # the session's first call
        model = rec.call("tree.model_from_json", model_from_json, scored)
        values = tuple(inp.answers[0]) + (None,)
        rec.call("tree.classify", classify, model, values)
        ruleset = rec.call("rules.extract_rules", extract_rules, model)
        for rule in ruleset.rules:  # the CLI prints the best matching rule
            rule.matches(values)
    return m


def probes(rec, m, inp):
    """Time the layer entry points the session reaches only indirectly."""
    ds = m.dataset
    rec.call("dataset.stratified_folds", stratified_folds, ds, inp.tree_folds, inp.fold_seed)

    candidates = []
    for i in ds.feature_indices:
        if ds.schema[i].is_categorical:
            candidates.append((i, None))
        else:
            known = sorted({v for v in ds.column(i) if v is not None})
            candidates += [(i, (a + b) / 2) for a, b in zip(known, known[1:])]
    with rec.span("tree.root_scan"):
        for i, t in candidates:
            rec.call("tree.evaluate_split", evaluate_split, ds, i, t)

    grown = rec.call("tree.grow", build_tree, ds, TreeConfig(pruning=False))
    pruned = rec.call("tree.prune_tree", prune_tree, grown)

    for _ in range(PASSES):
        with rec.span("tree.ucb_grid"):
            for e, n in UCB_GRID:
                ucb_error_rate(e, n, 0.25)

    complete = [v for v in inp.batch if None not in v[:-1]]
    gappy = [v for v in inp.batch if None in v[:-1]]
    model = model_from_json(m.outputs["model.json"])
    for name, batch in (("tree.classify_complete", complete), ("tree.classify_missing", gappy)):
        for _ in range(PASSES):
            with rec.span(name):
                for v in batch:
                    classify(model, v)
    for _ in range(PASSES):
        with rec.span("rules.classify_batch"):
            for v in inp.batch:
                rules_classify(m.simplified, v)

    rec.call("cluster.encode_dataset", encode_dataset, m.imputed)

    class_values = ds.class_values
    for pooled in m.pooled.values():
        actual = [inst.values[ds.class_index] for inst, _ in pooled]
        predicted = [label for _, (label, _) in pooled]
        with rec.span("evaluation.score"):
            matrix = rec.call("evaluation.confusion", confusion, actual, predicted, class_values)
            rec.call("evaluation.per_class_metrics", per_class_metrics, matrix)
            for label in class_values:
                if label in actual and any(a != label for a in actual):
                    scores = [dist[label] for _, (_, dist) in pooled]
                    rec.call("evaluation.roc_area", roc_area, scores, actual, label)

    return {
        "candidates": len(candidates),
        "grown": grown,
        "pruned": pruned,
        "complete": len(complete),
        "gappy": len(gappy),
    }


def _under(rec, name, root):
    """Durations of spans called ``name`` whose outermost ancestor is ``root``."""
    out = []
    for n, start, end, parent in rec.spans:
        if n != name:
            continue
        top = parent
        while top is not None and rec.spans[top][3] is not None:
            top = rec.spans[top][3]
        if top is not None and rec.spans[top][0] == root:
            out.append(end - start)
    return out


def layer_metrics(rec, m, p, inp, *, interp_s, import_s, cli_self_s, overhead_frac):
    """Every per-layer metric, by name, from the spans and counts."""
    selfs = rec.self_times()

    def conds(ruleset):
        return sum(len(r.antecedent) for r in ruleset.rules)

    def per_call_us(name, calls):
        return 1e6 * median(rec.durations(name)) / calls if calls else 0.0

    values = {
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.self_s": cli_self_s,
        "dataset.parse_s": median(rec.durations("dataset.parse_arff")),
        "dataset.rows": len(m.dataset),
        "dataset.cells_missing": sum(v is None for inst in m.dataset.instances for v in inst.values),
        "dataset.folds_s": rec.total("dataset.stratified_folds"),
        "dataset.impute_s": rec.total("dataset.impute_missing"),
        "tree.root_scan_s": rec.total("tree.root_scan"),
        "tree.root_candidates": p["candidates"],
        "tree.grow_s": rec.total("tree.grow"),
        "tree.prune_s": rec.total("tree.prune_tree"),
        "tree.nodes_grown": p["grown"].node_count(),
        "tree.nodes_kept": p["pruned"].node_count(),
        "tree.ucb_us": per_call_us("tree.ucb_grid", len(UCB_GRID)),
        "tree.classify_us": per_call_us("tree.classify_complete", p["complete"]),
        "tree.classify_missing_us": per_call_us("tree.classify_missing", p["gappy"]),
        "rules.extract_s": sum(_under(rec, "rules.extract_rules", "cli.rules")),
        "rules.simplify_s": rec.total("rules.simplify_rules"),
        "rules.before": len(m.extracted.rules),
        "rules.after": len(m.simplified.rules),
        "rules.kept_ratio": len(m.simplified.rules) / len(m.extracted.rules),
        "rules.conditions_before": conds(m.extracted),
        "rules.conditions_after": conds(m.simplified),
        "rules.classify_us": per_call_us("rules.classify_batch", len(inp.batch)),
        "evaluation.cv_tree_s": sum(_under(rec, "evaluation.cross_validate", "cli.evaluate_tree")),
        "evaluation.cv_rules_s": sum(_under(rec, "evaluation.cross_validate", "cli.evaluate_rules")),
        "evaluation.fit_s": selfs.get("evaluation.fit", 0.0),
        "evaluation.predict_s": selfs.get("evaluation.predict", 0.0),
        "evaluation.score_s": rec.total("evaluation.score"),
        "evaluation.folds": len(rec.durations("evaluation.fit")),
        "cluster.encode_s": rec.total("cluster.encode_dataset"),
        "cluster.kmeans_s": rec.total("cluster.kmeans_fit"),
        "cluster.iterations": m.clusters.iterations,
        "cluster.report_s": sum(
            rec.total(n)
            for n in (
                "cluster.cluster_report_text",
                "cluster.cluster_model_to_json",
                "cluster.cluster_profile_csv",
            )
        ),
        "trace.overhead_frac": overhead_frac,
    }
    return values


def timed_mirror(rec, text, inp):
    start = perf_counter()
    m = mirror(rec, text, inp)
    return m, perf_counter() - start
