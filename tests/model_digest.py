"""One sha256 over the models and rules learned from random weighted datasets.

A change that only makes learning faster must leave every model and rule
file byte-identical.  This script builds random mixed datasets: numeric
attributes and nominal ones of 1-5 values, 0, 10 or 30 % blank cells,
and half of them with fractional weights.  It grows each tree unpruned,
prunes it and simplifies the pruned tree's rules, as ``ldscreen rules
--simplify`` does.  It prints the sha256 of the model and rule files, in
order.  Run it on both sides of a change and compare the two lines:

    PYTHONPATH=src python tests/model_digest.py [--datasets 300] [--seed 0] \
        [--predictions | --rule-predictions | --folds]

A change that only makes classification faster must leave every
prediction the same, to the last bit.  With ``--predictions`` the script
hashes instead what the unpruned and the pruned tree of each dataset
predict: ``repr(classify(model, row))`` for every row of the dataset,
its cells blanked at 30 % by an rng of their own, and each tree's
``training_accuracy`` on the dataset.  With ``--rule-predictions`` it
hashes ``repr(best_rule(rules, row))`` for the same blanked rows, ``rules``
the pruned tree's rules simplified on the dataset.

A train fold is read through its parent's encoded view with only the
fold's rows in play.  With ``--folds`` the script learns the same files
from each train fold of ``stratified_folds(d, min(3, len(d)), seed)``
instead of from each whole dataset.
"""

import argparse
import hashlib
import random

from ldscreen.dataset import AttributeSpec, Dataset, Instance, stratified_folds
from ldscreen.rules import best_rule, extract_rules, ruleset_to_json, simplify_rules
from ldscreen.tree import (
    TreeConfig,
    build_tree,
    classify,
    model_to_json,
    prune_tree,
    training_accuracy,
)


def random_dataset(rng):
    """A dataset of 1-5 attributes, 2-3 classes and 2-150 rows drawn from ``rng``."""
    schema = tuple(
        AttributeSpec.numeric(f"x{i}")
        if rng.random() < 0.4
        else AttributeSpec.categorical(f"s{i}", "ABCDE"[: rng.randint(1, 5)])
        for i in range(rng.randint(1, 5))
    )
    classes = "PQR"[: rng.randint(2, 3)]
    schema += (AttributeSpec.categorical("cls", classes),)
    missing_rate = rng.choice((0.0, 0.1, 0.3))
    fractional = rng.random() < 0.5

    def cell(spec):
        if rng.random() < missing_rate:
            return None
        if spec.is_categorical:
            return rng.choice(spec.values)
        return rng.choice((rng.randint(-8, 8) / 4, round(rng.uniform(-3, 3), 3), -0.0))

    rows = [
        Instance(
            tuple(cell(spec) for spec in schema[:-1]) + (rng.choice(classes),),
            rng.uniform(0.05, 3.0) if fractional else 1.0,
        )
        for _ in range(rng.randint(2, 150))
    ]
    return Dataset(schema, len(schema) - 1, rows)


def digest(datasets=300, seed=0, predictions=False, folds=False, rule_predictions=False):
    """The hex sha256 of every file learned from ``datasets`` random datasets.

    With ``predictions``, of every prediction of the learned trees instead;
    with ``rule_predictions``, of every rule the simplified rules pick; with
    ``folds``, of every file learned from their train folds.
    """
    rng = random.Random(seed)
    blanks = random.Random(f"blank cells {seed}")  # leaves ``rng``'s draws as they are
    sha = hashlib.sha256()
    for _ in range(datasets):
        d = random_dataset(rng)
        config = TreeConfig(
            min_leaf_weight=rng.choice((0.5, 1.0, 2.0)),
            confidence_factor=rng.choice((0.1, 0.25, 0.5)),
            pruning=False,
        )
        if predictions:
            texts = predicted(d, trees(d, config), blanks)
        elif rule_predictions:
            texts = picked(d, simplify_rules(extract_rules(trees(d, config)[1]), d), blanks)
        elif folds:
            texts = [
                text
                for train, _ in stratified_folds(d, min(3, len(d)), seed)
                for text in learned(train, config)
            ]
        else:
            texts = learned(d, config)
        for text in texts:
            sha.update(text.encode() + b"\0")
    return sha.hexdigest()


def trees(d, config):
    """The unpruned tree grown from ``d`` and that tree pruned."""
    grown = build_tree(d, config)
    return grown, prune_tree(grown)


def learned(d, config):
    """The model files of both trees of ``d``, and the pruned tree's rules simplified on ``d``."""
    grown, pruned = trees(d, config)
    simplified = simplify_rules(extract_rules(pruned), d)
    return model_to_json(grown), model_to_json(pruned), ruleset_to_json(simplified)


def predicted(d, models, blanks):
    """The repr of what each model predicts for ``d``'s rows, blanked by ``blanks``, and its accuracy."""
    for model in models:
        for inst in d.instances:
            row = tuple(None if blanks.random() < 0.3 else v for v in inst.values)
            yield repr(classify(model, row))
        yield repr(training_accuracy(model, d))


def picked(d, rules, blanks):
    """The repr of the rule ``rules`` pick for each of ``d``'s rows, blanked by ``blanks``."""
    for inst in d.instances:
        row = tuple(None if blanks.random() < 0.3 else v for v in inst.values)
        yield repr(best_rule(rules, row))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", type=int, default=300, help="datasets to learn from (default 300)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the datasets (default 0)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--predictions", action="store_true", help="hash the trees' predictions, not the files"
    )
    mode.add_argument(
        "--rule-predictions",
        action="store_true",
        help="hash the rules the simplified rules pick, not the files",
    )
    mode.add_argument(
        "--folds", action="store_true", help="hash the files learned from each dataset's train folds"
    )
    args = parser.parse_args()
    print(digest(args.datasets, args.seed, args.predictions, args.folds, args.rule_predictions))


if __name__ == "__main__":
    main()
