"""Seeded cohort and answer generators, one cohort generator per workload.

Each cohort generator returns ARFF text; the program under test only ever
sees the file written from it.  The generators belong to the benchmark,
not to the library, so a change to ``ldscreen.synthetic_checklist`` cannot
change the benchmark's inputs.

Why the compute-heavy cohorts are built the way they are: on a noisy
4000-row checklist cohort the pruned tree has 55 to 80 leaves depending on
the sample, and the cost of ``simplify_rules`` follows it, varying by more
than 20 % between seeds; with a fixed cohort, the fold seed alone moves
two-fold rule CV by more than 10 %.  That would bury real changes in seed
noise.  So ``gappy_cohort`` is one fixed design cohort, evaluated with a
fixed fold seed, and its run seed draws only the checklist answers, the
screening batch and the K-means start; ``numeric_cohort`` draws fresh rows
per seed but labels them by a planted rule without noise, so the tree it
grows has the same shape every time.
"""

from __future__ import annotations

import random

CHECKLIST_ATTRIBUTES = (
    "DR", "DS", "DH", "DWE", "DBA", "DHA", "DA", "ED",
    "DM", "LM", "DSS", "DNS", "DLL", "DLS", "STL", "RG",
)

#: Seed of the design constants below; fixed for the life of the benchmark.
DESIGN_SEED = 7
_design = random.Random(DESIGN_SEED)
#: Probability of each symptom for children labelled Y and N.
P_YES = tuple(round(_design.uniform(0.6, 0.95), 3) for _ in CHECKLIST_ATTRIBUTES)
P_NO = tuple(round(_design.uniform(0.05, 0.4), 3) for _ in CHECKLIST_ATTRIBUTES)

#: Seed of the fixed gappy cohort's rows and of its CV folds.  Its tree has
#: 58 leaves, near the low end of the 55 to 80 the row seeds give, which
#: keeps a session short enough for two or three to fit into one run.
GAPPY_SEED = 1

NUMERIC_COLUMNS = 5
#: Values per numeric column are drawn from this many evenly spaced points.
NUMERIC_GRID = 1000


def _arff(relation, attributes, rows):
    out = [f"@relation {relation}", ""]
    out += [f"@attribute {name} {kind}" for name, kind in attributes]
    out += ["", "@data"]
    out += [",".join("?" if v is None else str(v) for v in row) for row in rows]
    return "\n".join(out) + "\n"


def _checklist_rows(n_no, n_yes, rng, missing_rate):
    rows = []
    for label, probs, count in (("N", P_NO, n_no), ("Y", P_YES, n_yes)):
        for _ in range(count):
            rows.append(["Y" if rng.random() < p else "N" for p in probs] + [label])
    rng.shuffle(rows)
    for row in rows:
        for i in range(len(CHECKLIST_ATTRIBUTES)):
            if rng.random() < missing_rate:
                row[i] = None
    return rows


def _checklist_arff(rows):
    attributes = [(a, "{N,Y}") for a in CHECKLIST_ATTRIBUTES] + [("LD", "{N,Y}")]
    return _arff("ld_checklist", attributes, rows)


def paper_cohort(seed, tiny=False):
    """The paper's 125-row cohort: 94 N and 31 Y children, no blanks."""
    return _checklist_arff(_checklist_rows(94, 31, random.Random(seed), 0.0))


def gappy_cohort(seed, tiny=False):
    """3000 N and 1000 Y children, each answer blank with probability 0.1.

    The same cohort for every ``seed``: rows, blanks and order all come
    from ``GAPPY_SEED``.
    """
    n_no, n_yes = (60, 20) if tiny else (3000, 1000)
    return _checklist_arff(_checklist_rows(n_no, n_yes, random.Random(GAPPY_SEED), 0.1))


def numeric_cohort(seed, tiny=False):
    """1000 rows of 5 numeric attributes and a neg/pos label.

    Each value is one of ``NUMERIC_GRID`` evenly spaced integers, which caps
    the midpoint thresholds a numeric split scans.  The label is the
    planted rule ``(x0 > 0.5 top and x1 <= 0.6 top) or x2 > 0.8 top``.
    """
    n, grid = (120, 20) if tiny else (1000, NUMERIC_GRID)
    rng = random.Random(seed)
    top = 3 * grid
    rows = []
    for _ in range(n):
        xs = [3 * rng.randrange(grid) for _ in range(NUMERIC_COLUMNS)]
        pos = (xs[0] > 0.5 * top and xs[1] <= 0.6 * top) or xs[2] > 0.8 * top
        rows.append(xs + ["pos" if pos else "neg"])
    attributes = [(f"x{i}", "numeric") for i in range(NUMERIC_COLUMNS)]
    return _arff("numeric", attributes + [("y", "{neg,pos}")], rows)


def answer_batch(n, seed, missing_share=0.3, missing_rate=0.25):
    """``n`` 16-answer tuples; about ``missing_share`` of them have blanks.

    Answers come from the same mixed population as the cohorts (about 30 %
    Y children).  A tuple picked to be gappy blanks each answer with
    ``missing_rate``, and at least one.
    """
    rng = random.Random(seed)
    batch = []
    for _ in range(n):
        probs = P_YES if rng.random() < 0.3 else P_NO
        answers = ["Y" if rng.random() < p else "N" for p in probs]
        if rng.random() < missing_share:
            blanks = [i for i in range(len(answers)) if rng.random() < missing_rate]
            for i in blanks or [rng.randrange(len(answers))]:
                answers[i] = None
        batch.append(tuple(answers))
    return batch


def numeric_batch(n, seed, missing_share=0.3):
    """``n`` 5-value tuples on the numeric grid, about ``missing_share`` with a blank."""
    rng = random.Random(seed)
    batch = []
    for _ in range(n):
        xs = [float(3 * rng.randrange(NUMERIC_GRID)) for _ in range(NUMERIC_COLUMNS)]
        if rng.random() < missing_share:
            xs[rng.randrange(NUMERIC_COLUMNS)] = None
        batch.append(tuple(xs))
    return batch
