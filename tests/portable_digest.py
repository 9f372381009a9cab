"""One sha256 over what the numpy-free half of ldscreen writes for ``tests/portable``.

That half (datasets, model files, pruning, rules, ``classify``,
``checklist`` and reports) adds every sum left to right
(``dataset.total``), so its output should be the same on Python 3.10 to
3.13, although the builtin ``sum`` compensates float rounding from 3.12
on.  The fixtures are small:

- ``paper.arff``: the paper's 125-row cohort of ``bench/cohorts.py``
  (seed 1), and ``paper_unpruned.json``, its tree from ``train
  --no-prune`` (15 nodes, 11 once pruned);
- ``paper_report.json``: ``evaluate --folds 5`` of that cohort;
- ``mixed.csv``: 48 rows of two numeric and one nominal attribute, with
  blanks, and ``sums.json``, a hand-made tree over its schema whose
  class counts and branch weights include ``[1.0, 1e-16, 1e-16]``: added
  left to right they make 1.0, compensated 1.0000000000000002, so a
  builtin ``sum`` on this path changes the digest on 3.12 and later;
- ``chain(600)``, a tree 600 levels deep built in code, walked by the
  node and leaf counts, ``classify``, rule extraction and pruning.  The
  interpreters' recursion and JSON limits differ, and no walk may meet
  them.  Its unpruned model file is left out: only 3.13's ``json.dumps``
  writes one that deep (``dump_document``).

The script prints the interpreter's major.minor version, then the digest,
and fails if numpy or scipy was loaded on the way:

    PYTHONPATH=src python tests/portable_digest.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "portable"

#: checklist answers, in schema order, for each model file
ANSWERS = {
    "paper_unpruned.json": ("N," * 15 + "N", "Y," * 15 + "Y", "Y,N," * 7 + "Y,N", "N,Y," * 7 + "N,Y"),
    "sums.json": ("8.5,0.1,mid", "9.5,-1,mid", "12,2.5,low", "9,0,high"),
}


def _blanked(values, i):
    """``values`` with attribute ``i`` missing."""
    return values[:i] + (None,) + values[i + 1 :]


def chain(depth):
    """A model ``depth`` levels deep over one numeric ``x`` and a class P or Q.

    Its rows are x = 0..depth, P where x is even.  Level i tests
    ``x <= i + 0.5``: row i takes a pure leaf and the rows above it go on
    down, so row ``depth`` alone reaches the deepest leaf.
    """
    from ldscreen.dataset import AttributeSpec
    from ldscreen.tree import Decision, DecisionTreeModel, Leaf, TreeConfig

    pure = ((1.0, 0.0), (0.0, 1.0))
    node = Leaf(pure[depth % 2], 1.0)
    for i in reversed(range(depth)):
        leaf = Leaf(pure[i % 2], 1.0)
        counts = tuple(a + b for a, b in zip(leaf.class_counts, node.class_counts))
        node = Decision(0, i + 0.5, (leaf, node), (1.0, float(depth - i)), counts)
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("P", "Q")))
    return DecisionTreeModel(schema, 1, node, TreeConfig())


def outputs():
    """Every text the numpy-free half writes for the fixtures, in order."""
    # imported here, so that the version line comes first even where
    # ldscreen fails to import
    from ldscreen.cli import main
    from ldscreen.dataset import parse_arff, parse_csv, serialize_arff, serialize_csv
    from ldscreen.evaluation import (
        cross_validate,
        majority_learner,
        per_class_metrics,
        report_from_json,
        report_text,
        report_to_json,
        roc_area,
    )
    from ldscreen.rules import extract_rules, ruleset_text
    from ldscreen.tree import classify, model_from_json, model_to_json, prune_tree

    paper = parse_arff((FIXTURES / "paper.arff").read_text())
    mixed = parse_csv((FIXTURES / "mixed.csv").read_text())
    for d in (paper, mixed):
        yield serialize_arff(d)
        yield serialize_csv(d)
        report = cross_validate(d, 3, 0, majority_learner())
        yield report_to_json(report) + report_text(report)

    rows = {
        "paper_unpruned.json": [
            row
            for i, inst in enumerate(paper.instances)
            for row in (inst.values, _blanked(inst.values, i % paper.class_index))
        ],
        "sums.json": [inst.values for inst in mixed.instances],
    }
    for name, answers in ANSWERS.items():
        model = model_from_json((FIXTURES / name).read_text())
        pruned = prune_tree(model)
        for m in (model, pruned):
            yield model_to_json(m)
            yield ruleset_text(extract_rules(m))
            yield "\n".join(repr(classify(m, row)) for row in rows[name])
        for line in answers:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["checklist", "--model", str(FIXTURES / name), "--answers", line])
            yield f"{code}\n{out.getvalue()}"

    pruned = prune_tree(model_from_json((FIXTURES / "paper_unpruned.json").read_text()))
    scores = [classify(pruned, inst.values)[1]["Y"] for inst in paper.instances]
    yield repr(roc_area(scores, paper.column(paper.class_index), "Y"))
    report = report_from_json((FIXTURES / "paper_report.json").read_text())
    yield report_text(report)
    yield report_text(per_class_metrics(report.matrix))

    deep = chain(600)
    yield f"{deep.node_count()} {deep.leaf_count()}"
    yield "\n".join(repr(classify(deep, row)) for row in ((600.0, None), (None, None)))
    yield ruleset_text(extract_rules(deep))
    yield model_to_json(prune_tree(deep))


def digest():
    """The hex sha256 of ``outputs()``, each text followed by a NUL byte."""
    sha = hashlib.sha256()
    for text in outputs():
        sha.update(text.encode() + b"\0")
    return sha.hexdigest()


if __name__ == "__main__":
    print("%d.%d" % sys.version_info[:2], flush=True)
    line = digest()
    loaded = [m for m in ("numpy", "scipy") if m in sys.modules]
    if loaded:
        sys.exit(f"loaded {', '.join(loaded)}")
    print(line)
