"""Decision-tree screening toolkit for checklist data.

Induces gain-ratio decision trees with pessimistic pruning, extracts and
simplifies IF-THEN rule sets, clusters instances with K-means, and scores
classifiers with cross-validated confusion-matrix metrics.  Ships the
16-symptom learning-disability checklist schema as a built-in.
"""

import importlib

from .dataset import (
    AttributeSpec,
    Dataset,
    Instance,
    ParseError,
    checklist_dataset,
    checklist_schema,
    impute_missing,
    parse_arff,
    parse_csv,
    random_folds,
    serialize_arff,
    serialize_csv,
    stratified_folds,
    synthetic_checklist,
)
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    EvaluationReport,
    confusion,
    cross_validate,
    majority_learner,
    per_class_metrics,
    report_from_json,
    report_text,
    report_to_json,
    roc_area,
    rules_learner,
    tree_learner,
)
from .rules import (
    Condition,
    Rule,
    RuleSet,
    extract_rules,
    rule_text,
    rules_classify,
    ruleset_text,
    ruleset_to_json,
    simplify_rules,
)
from .tree import (
    DecisionTreeModel,
    TreeConfig,
    build_tree,
    classify,
    entropy,
    evaluate_split,
    model_from_json,
    model_to_json,
    prune_tree,
    training_accuracy,
    ucb_error_rate,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec",
    "ClassMetrics",
    "ClusterModel",
    "Condition",
    "ConfusionMatrix",
    "Dataset",
    "DecisionTreeModel",
    "EvaluationReport",
    "Instance",
    "ParseError",
    "Rule",
    "RuleSet",
    "TreeConfig",
    "build_tree",
    "checklist_dataset",
    "checklist_schema",
    "classify",
    "cluster_model_from_json",
    "cluster_model_to_json",
    "cluster_profile",
    "cluster_report_text",
    "clustered_instances_text",
    "confusion",
    "cross_validate",
    "encode_dataset",
    "entropy",
    "evaluate_split",
    "extract_rules",
    "impute_missing",
    "kmeans_fit",
    "majority_learner",
    "map_clusters_to_classes",
    "model_from_json",
    "model_to_json",
    "parse_arff",
    "parse_csv",
    "percentage",
    "per_class_metrics",
    "prune_tree",
    "random_folds",
    "report_from_json",
    "report_text",
    "report_to_json",
    "roc_area",
    "rule_text",
    "rules_classify",
    "rules_learner",
    "ruleset_text",
    "ruleset_to_json",
    "serialize_arff",
    "serialize_csv",
    "simplify_rules",
    "stratified_folds",
    "synthetic_checklist",
    "training_accuracy",
    "tree_learner",
    "ucb_error_rate",
    "__version__",
]

# The names of __all__ not bound above come from ldscreen.cluster, which
# loads numpy, so they resolve on first use: screening never needs numpy
# (PEP 562; the pattern of Scientific Python SPEC 1).
def __getattr__(name):
    # import_module, not `from . import cluster`: that statement looks the
    # submodule up as an attribute of this package first, calling back here
    if name == "cluster" or name in __all__:
        cluster = importlib.import_module(".cluster", __name__)
        return cluster if name == "cluster" else getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
