"""Versioned JSON documents: damaged input reads back or raises ParseError."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldscreen.cluster import cluster_model_from_json, cluster_model_to_json, kmeans_fit
from ldscreen.dataset import ParseError, impute_missing, synthetic_checklist
from ldscreen.evaluation import (
    cross_validate,
    majority_learner,
    report_from_json,
    report_to_json,
)
from ldscreen.rules import best_rule, extract_rules
from ldscreen.tree import build_tree, classify, model_from_json, model_to_json

_DATA = synthetic_checklist(20, 10, seed=2, missing_rate=0.1)
DOCUMENTS = (
    (model_to_json(build_tree(_DATA)), model_from_json),
    (cluster_model_to_json(kmeans_fit(impute_missing(_DATA), seed=0)), cluster_model_from_json),
    (report_to_json(cross_validate(_DATA, 2, 0, majority_learner())), report_from_json),
)

#: one value of each JSON type; a swap picks one of another type
OTHER_VALUES = (None, True, 0, 2.5, "x", [], [0, 1], {}, {"k": 0})


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def damaged_documents(draw):
    text, read = draw(st.sampled_from(DOCUMENTS))
    action = draw(st.sampled_from(("delete", "swap", "truncate")))
    if action == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))], read
    doc = json.loads(text)
    paths = [p for p in _paths(doc) if p]
    if action == "delete":
        keyed = [p for p in paths if isinstance(_at(doc, p[:-1]), dict)]
        path = draw(st.sampled_from(keyed))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(paths))
        old = type(_at(doc, path))
        new = draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not old]))
        _at(doc, path[:-1])[path[-1]] = new
    return json.dumps(doc), read


def _probes(model):
    """Complete rows of first and of last declared values, and a gappy row."""
    rows = [
        [spec.values[pick] if spec.is_categorical else 0.0 for spec in model.schema]
        for pick in (0, -1)
    ]
    rows.append([None if i % 2 else v for i, v in enumerate(rows[0])])
    for row in rows:
        row[model.class_index] = None
    return [tuple(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(damaged_documents())
def test_damaged_documents_read_or_raise_parse_error(case):
    text, read = case
    try:
        doc = read(text)
    except ParseError:
        return
    if read is model_from_json:
        # a tree that reads is one classify and the rule path can use
        ruleset = extract_rules(doc)
        for probe in _probes(doc):
            _, dist = classify(doc, probe)
            assert sum(dist.values()) == pytest.approx(1.0)
            best_rule(ruleset, probe)
