"""Command-line surface: train, evaluate, rules, cluster, checklist.

Exit codes: 0 on success, 1 when a valid request fails at runtime, 2 for
usage errors including unreadable or malformed input.  Diagnostics go to
stderr; stdout carries only the requested output.

``main`` sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is already set,
before any subcommand loads numpy.  ldscreen calls no BLAS routine, yet
OpenBLAS starts a pool of threads when numpy loads: starting it slows
``import numpy``, and its threads contend with the processes that
``evaluate`` runs, one per usable CPU, each pinned to a CPU of its own.
A value the user set wins.  Importing the library sets nothing, as a
library caller's numpy is the caller's.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .dataset import ParseError, finite_float, parse_arff, parse_csv
from .evaluation import (
    cross_validate,
    majority_learner,
    report_text,
    report_to_json,
    rules_learner,
    tree_learner,
)
from .rules import (
    best_rule,
    extract_rules,
    rule_text,
    ruleset_text,
    ruleset_to_json,
    simplify_rules,
)
from .tree import (
    TreeConfig,
    build_tree,
    classify,
    model_from_json,
    model_to_json,
    training_accuracy,
)


class UsageError(ValueError):
    """Bad request shape: wrong flags, counts, or symbols (exit 2)."""


def _add_input_flags(sub):
    sub.add_argument("--input", required=True, help="dataset file (ARFF or CSV)")
    sub.add_argument(
        "--format",
        choices=("arff", "csv"),
        help="input format; default follows the file extension",
    )
    sub.add_argument(
        "--class",
        dest="class_name",
        help="class attribute name; default last categorical attribute",
    )


def _add_tree_flags(sub):
    sub.add_argument("--no-prune", action="store_true", help="skip pruning")
    sub.add_argument(
        "--min-leaf-weight",
        type=float,
        default=TreeConfig.min_leaf_weight,
        help="a node lighter than twice this weight is not split (default %(default)g)",
    )
    sub.add_argument(
        "--confidence",
        type=float,
        default=TreeConfig.confidence_factor,
        help="pruning confidence factor (default %(default)g)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ldscreen",
        description="Decision-tree, rule, and clustering toolkit for "
        "checklist screening data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="induce a decision tree and save it")
    _add_input_flags(p)
    _add_tree_flags(p)
    p.add_argument("--out", help="model JSON path (default: stdout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validate and print the metric table")
    _add_input_flags(p)
    _add_tree_flags(p)
    p.add_argument("--seed", type=int, default=0, help="fold seed (default 0)")
    p.add_argument("--folds", type=int, default=2, help="fold count (default 2)")
    p.add_argument(
        "--no-stratify", action="store_true", help="plain folds instead of stratified"
    )
    p.add_argument(
        "--learner",
        choices=("tree", "rules", "majority"),
        default="tree",
        help="model family to evaluate (default tree)",
    )
    p.add_argument("--out", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rules", help="print the IF-THEN rules of a tree")
    _add_input_flags(p)
    _add_tree_flags(p)
    p.add_argument(
        "--simplify",
        action="store_true",
        help="drop redundant conditions and weak rules",
    )
    p.add_argument("--out", help="also write the rule set as JSON to this path")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("cluster", help="k-means partition with profile report")
    _add_input_flags(p)
    p.add_argument("--seed", type=int, default=0, help="centroid seed (default 0)")
    p.add_argument("--clusters", type=int, default=2, help="cluster count (default 2)")
    p.add_argument("--max-iter", type=int, default=100, help="iteration cap")
    p.add_argument("--out", help="write the cluster model as JSON to this path")
    p.add_argument("--profile-csv", help="write the profile table as CSV to this path")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("checklist", help="score one 16-answer symptom checklist")
    p.add_argument("--model", required=True, help="trained tree model JSON")
    p.add_argument(
        "--answers",
        help="comma-separated answers in schema order, e.g. Y,N,...,N",
    )
    p.add_argument(
        "--answers-file",
        help="file with the answers, comma- or line-separated",
    )
    p.set_defaults(func=cmd_checklist)
    return parser


def _read_text(path):
    """The text at ``path`` less a leading byte-order mark; ParseError if undecodable."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return text.removeprefix("\ufeff")


def _load_dataset(args):
    path = Path(args.input)
    text = _read_text(path)
    fmt = args.format
    if fmt is None:
        fmt = "arff" if path.suffix.lower() == ".arff" else "csv"
    if fmt == "arff":
        return parse_arff(text, class_name=args.class_name)
    return parse_csv(text, class_name=args.class_name)


def _tree_config(args):
    try:
        return TreeConfig(
            min_leaf_weight=args.min_leaf_weight,
            confidence_factor=args.confidence,
            pruning=not args.no_prune,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_at_least(minimum, flag, value):
    if value < minimum:
        raise UsageError(f"{flag} must be at least {minimum}, got {value}")


def cmd_train(args):
    config = _tree_config(args)
    dataset = _load_dataset(args)
    model = build_tree(dataset, config)
    summary = (
        f"Nodes: {model.node_count()}\n"
        f"Leaves: {model.leaf_count()}\n"
        f"Training accuracy: {100 * training_accuracy(model, dataset):.1f} %"
    )
    doc = model_to_json(model)
    if args.out:
        Path(args.out).write_text(doc + "\n")
        print(summary)
        print(f"Model written to {args.out}")
    else:
        print(doc)
        print(summary, file=sys.stderr)
    return 0


def _cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_evaluate(args):
    _require_at_least(2, "--folds", args.folds)
    config = _tree_config(args)
    dataset = _load_dataset(args)
    learners = {
        "tree": tree_learner(config),
        "rules": rules_learner(config),
        "majority": majority_learner(),
    }
    report = cross_validate(
        dataset,
        k=args.folds,
        seed=args.seed,
        learner=learners[args.learner],
        stratify=not args.no_stratify,
        # majority fits in microseconds and loads no numpy: forking is not worth it
        workers=1 if args.learner == "majority" else _cpus(),
    )
    print(report_text(report))
    if args.out:
        Path(args.out).write_text(report_to_json(report) + "\n")
    return 0


def cmd_rules(args):
    config = _tree_config(args)
    dataset = _load_dataset(args)
    ruleset = extract_rules(build_tree(dataset, config))
    if args.simplify:
        ruleset = simplify_rules(ruleset, dataset)
    print(ruleset_text(ruleset))
    if args.out:
        Path(args.out).write_text(ruleset_to_json(ruleset) + "\n")
    return 0


def cmd_cluster(args):
    # imported here, not at module level: cluster loads numpy, which
    # `--help` and `checklist` never need
    from .cluster import cluster_model_to_json, fit_imputed, profile_csv, profile_report_text

    _require_at_least(1, "--clusters", args.clusters)
    _require_at_least(1, "--max-iter", args.max_iter)
    # the gaps are filled in the encoded matrix; the report's class counts
    # read the parsed rows, whose class gaps imputation leaves unfilled
    dataset = _load_dataset(args)
    model, profile = fit_imputed(
        dataset, k=args.clusters, seed=args.seed, max_iter=args.max_iter
    )
    print(profile_report_text(model, dataset, profile))
    if args.out:
        Path(args.out).write_text(cluster_model_to_json(model) + "\n")
    if args.profile_csv:
        Path(args.profile_csv).write_text(profile_csv(model, profile))
    return 0


def _read_answers(args):
    if (args.answers is None) == (args.answers_file is None):
        raise UsageError("provide exactly one of --answers or --answers-file")
    if args.answers is not None:
        raw = args.answers
    else:
        raw = _read_text(args.answers_file)
    tokens = [t.strip() for t in raw.replace("\n", ",").split(",")]
    return [t for t in tokens if t]


def _normalize_answer(token, spec):
    if not spec.is_categorical:
        value = finite_float(token)
        if value is not None:
            return value
        raise UsageError(
            f"invalid answer {token!r} for {spec.name}; expected a finite number"
        )
    exact = [v for v in spec.values if v == token]
    matches = exact or [v for v in spec.values if v.upper() == token.upper()]
    if len(matches) == 1:
        return matches[0]
    raise UsageError(
        f"invalid answer {token!r} for {spec.name}; expected one of {spec.values}"
    )


def cmd_checklist(args):
    model = model_from_json(_read_text(args.model))
    # answers follow the model's own schema: 16 symptoms for the built-in
    # checklist, whatever the model was trained on otherwise
    features = [
        (i, spec)
        for i, spec in enumerate(model.schema)
        if i != model.class_index
    ]
    answers = _read_answers(args)
    if len(answers) != len(features):
        raise UsageError(f"expected {len(features)} answers, got {len(answers)}")
    values = [None] * len(model.schema)
    for (i, spec), token in zip(features, answers):
        values[i] = _normalize_answer(token, spec)
    label, dist = classify(model, tuple(values))
    class_name = model.schema[model.class_index].name
    print(f"Prediction: {class_name}={label}")
    dist_text = ", ".join(f"{v}={dist[v]:.3f}" for v in model.class_values)
    print(f"Distribution: {dist_text}")
    rule = best_rule(extract_rules(model), values)
    print("Matched rule: " + rule_text(rule, model.schema, class_name))
    return 0


def main(argv=None):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at devnull so the flush
        # at exit cannot fail again, and end quietly (see the SIGPIPE note
        # in the documentation of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, FileNotFoundError, IsADirectoryError, UsageError) as e:
        print(f"ldscreen: error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"ldscreen: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
