"""One sha256 over the models and rules learned from random weighted datasets.

A change that only makes learning faster must leave every model and rule
file byte-identical.  This script builds random mixed datasets: numeric
attributes and nominal ones of 1-5 values, 0, 10 or 30 % blank cells,
and half of them with fractional weights.  It grows each tree unpruned,
prunes it and simplifies the pruned tree's rules, as ``ldscreen rules
--simplify`` does.  It prints the sha256 of the model and rule files, in
order.  Run it on both sides of a change and compare the two lines:

    PYTHONPATH=src python tests/model_digest.py [--datasets 300] [--seed 0] [--predictions]

A change that only makes classification faster must leave every
prediction the same, to the last bit.  With ``--predictions`` the script
hashes instead what the unpruned and the pruned tree of each dataset
predict: ``repr(classify(model, row))`` for every row of the dataset,
its cells blanked at 30 % by an rng of their own, and each tree's
``training_accuracy`` on the dataset.
"""

import argparse
import hashlib
import random

from ldscreen.dataset import AttributeSpec, Dataset, Instance
from ldscreen.rules import extract_rules, ruleset_to_json, simplify_rules
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


def digest(datasets=300, seed=0, predictions=False):
    """The hex sha256 of every file learned from ``datasets`` random datasets.

    With ``predictions``, of every prediction of the learned trees instead.
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
        grown = build_tree(d, config)
        pruned = prune_tree(grown)
        if predictions:
            texts = predicted(d, (grown, pruned), blanks)
        else:
            simplified = simplify_rules(extract_rules(pruned), d)
            texts = (model_to_json(grown), model_to_json(pruned), ruleset_to_json(simplified))
        for text in texts:
            sha.update(text.encode() + b"\0")
    return sha.hexdigest()


def predicted(d, models, blanks):
    """The repr of what each model predicts for ``d``'s rows, blanked by ``blanks``, and its accuracy."""
    for model in models:
        for inst in d.instances:
            row = tuple(None if blanks.random() < 0.3 else v for v in inst.values)
            yield repr(classify(model, row))
        yield repr(training_accuracy(model, d))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", type=int, default=300, help="datasets to learn from (default 300)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the datasets (default 0)")
    parser.add_argument(
        "--predictions", action="store_true", help="hash the trees' predictions, not the files"
    )
    args = parser.parse_args()
    print(digest(args.datasets, args.seed, args.predictions))


if __name__ == "__main__":
    main()
