"""Independent reference implementations backing the acceptance tests.

Everything here is written from the plain definitions (dict tallies,
explicit pair counting, exhaustive enumeration) so that agreement with the
library is a real check rather than the same code running twice.
"""

import itertools
import math
import random

import numpy as np
from hypothesis import strategies as st

from ldscreen.dataset import AttributeSpec, Dataset, Instance


def binary_dataset(rows, n_attrs, class_values=("N", "Y")):
    schema = tuple(
        AttributeSpec.categorical(f"a{i}", ("0", "1")) for i in range(n_attrs)
    ) + (AttributeSpec.categorical("cls", class_values),)
    return Dataset(schema, n_attrs, tuple(Instance(tuple(r)) for r in rows))


def random_binary_dataset(rng, n_rows, n_attrs):
    rows = [
        [rng.choice("01") for _ in range(n_attrs)] + [rng.choice("NY")]
        for _ in range(n_rows)
    ]
    return binary_dataset(rows, n_attrs)


def random_mixed_dataset(rng, n_rows, n_numeric, n_nominal, missing_rate=0.0):
    """Random dataset mixing numeric and 3-valued nominal attributes."""
    schema = [AttributeSpec.numeric(f"x{i}") for i in range(n_numeric)]
    schema += [
        AttributeSpec.categorical(f"s{i}", ("A", "B", "C")) for i in range(n_nominal)
    ]
    schema.append(AttributeSpec.categorical("cls", ("P", "Q")))
    schema = tuple(schema)
    rows = []
    for _ in range(n_rows):
        vals = []
        for spec in schema[:-1]:
            if missing_rate and rng.random() < missing_rate:
                vals.append(None)
            elif spec.kind == "numeric":
                vals.append(round(rng.uniform(-4, 4), 2))
            else:
                vals.append(rng.choice(spec.values))
        vals.append(rng.choice(("P", "Q")))
        rows.append(Instance(tuple(vals)))
    return Dataset(schema, len(schema) - 1, tuple(rows))


@st.composite
def weighted_mixed_datasets(draw):
    """Random mixed schemas with blanks, repeated numbers and fractional weights."""
    kinds = draw(st.lists(st.sampled_from(["numeric", 1, 2, 3]), min_size=1, max_size=4))
    classes = "PQR"[: draw(st.integers(2, 3))]
    schema = tuple(
        AttributeSpec.numeric(f"x{i}")
        if kind == "numeric"
        else AttributeSpec.categorical(f"s{i}", "ABC"[:kind])
        for i, kind in enumerate(kinds)
    ) + (AttributeSpec.categorical("cls", classes),)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    missing_rate = rng.choice((0.0, 0.1, 0.3))

    def cell(spec):
        if rng.random() < missing_rate:
            return None
        if spec.kind == "numeric":
            return rng.choice((rng.randint(-6, 6) / 4, round(rng.uniform(-3, 3), 3)))
        return rng.choice(spec.values)

    rows = [
        Instance(
            tuple(cell(s) for s in schema[:-1]) + (rng.choice(classes),),
            rng.uniform(0.05, 3.0),
        )
        for _ in range(rng.randint(2, 40))
    ]
    return Dataset(schema, len(schema) - 1, rows)


def reference_split_score(dataset, attribute_index, threshold=None):
    """Recompute info gain / intrinsic value from first principles.

    Returns (ig, iv, igr), or None for a degenerate candidate (fewer than
    two non-empty branches among the known-valued instances).
    """
    spec = dataset.schema[attribute_index]

    def branch(v):
        if spec.is_categorical:
            return v
        return "le" if v <= threshold else "gt"

    def h(counter):
        tot = sum(counter.values())
        s = 0.0
        for c in counter.values():
            if c > 0:
                p = c / tot
                s -= p * math.log(p) / math.log(2)
        return s

    parent, per_branch = {}, {}
    known = 0.0
    total = 0.0
    for inst in dataset.instances:
        total += inst.weight
        v = inst.values[attribute_index]
        if v is None:
            continue
        known += inst.weight
        label = inst.values[dataset.class_index]
        parent[label] = parent.get(label, 0.0) + inst.weight
        grp = per_branch.setdefault(branch(v), {})
        grp[label] = grp.get(label, 0.0) + inst.weight
    nonempty = [g for g in per_branch.values() if sum(g.values()) > 0]
    if known == 0 or len(nonempty) < 2:
        return None
    ig = h(parent)
    iv = 0.0
    for grp in nonempty:
        share = sum(grp.values()) / known
        ig -= share * h(grp)
        iv -= share * math.log(share) / math.log(2)
    ig *= known / total
    return ig, iv, ig / iv


def hidden_tree(rng, attrs, depth):
    """A random decision tree of depth <= 3; leaves are class labels."""
    if depth == 0 or (depth < 3 and rng.random() < 0.25) or not attrs:
        return rng.choice("NY")
    a = rng.choice(attrs)
    rest = [x for x in attrs if x != a]
    return (a, hidden_tree(rng, rest, depth - 1), hidden_tree(rng, rest, depth - 1))


def apply_hidden(node, vals):
    while not isinstance(node, str):
        a, lo, hi = node
        node = lo if vals[a] == "0" else hi
    return node


def roc_pairwise_oracle(scores, actual, positive):
    """O(n^2) pair counting; ties worth one half."""
    pos = [s for s, a in zip(scores, actual) if a == positive]
    neg = [s for s, a in zip(scores, actual) if a != positive]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def enumeration_min_wcss(rows):
    """Exhaustive WCSS minimum over all 2-partitions of the rows."""
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    best = None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([True] + [(bits >> i) & 1 == 0 for i in range(n - 1)])
        if mask.all():
            continue
        w = 0.0
        for grp in (rows[mask], rows[~mask]):
            w += ((grp - grp.mean(axis=0)) ** 2).sum()
        if best is None or w < best:
            best = w
    return best


def column_mean_mode(dataset):
    """Brute-force per-column fill values: mean or first-most-common."""
    fills = {}
    for i, spec in enumerate(dataset.schema):
        known = [v for v in dataset.column(i) if v is not None]
        if not known:
            fills[i] = None
            continue
        if spec.kind == "numeric":
            fills[i] = sum(known) / len(known)
        else:
            counts = {v: known.count(v) for v in spec.values}
            top = max(counts.values())
            fills[i] = next(v for v in spec.values if counts[v] == top)
    return fills


def all_binary_inputs(n_attrs):
    return itertools.product("01", repeat=n_attrs)
