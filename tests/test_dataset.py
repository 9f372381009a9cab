"""Schema, parsing, imputation, and fold-splitting behavior."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import read_rows_oracle

import ldscreen.dataset as dataset_module
from ldscreen.dataset import (
    AttributeSpec,
    Dataset,
    Instance,
    ParseError,
    checklist_schema,
    first_max,
    impute_missing,
    parse_arff,
    parse_csv,
    random_folds,
    serialize_arff,
    serialize_csv,
    stratified_folds,
    synthetic_checklist,
)
from ldscreen.rules import best_rule, extract_rules, simplify_rules
from ldscreen.tree import TreeConfig, build_tree, classify

ARFF_SMALL = """\
@relation toy
% comment line
@attribute a {Y,N}
@attribute b {Y,N}
@attribute cls {P,Q}
@data
Y,N,P
N,N,Q
Y,Y,P
"""


def tiny_schema():
    return (
        AttributeSpec.categorical("a", ("Y", "N")),
        AttributeSpec.numeric("x"),
        AttributeSpec.categorical("cls", ("P", "Q")),
    )


# --- AttributeSpec / Dataset construction ----------------------------------


def test_binary_spec_needs_two_values():
    with pytest.raises(ValueError):
        AttributeSpec("a", "binary", ("Y",))


def test_numeric_spec_rejects_values():
    with pytest.raises(ValueError):
        AttributeSpec("x", "numeric", ("1",))


@pytest.mark.parametrize("name", ["a\nb", "a\r", "\u2028a", "a\x0cb"])
def test_attribute_name_with_a_line_break_refused(name):
    with pytest.raises(ValueError, match="invalid attribute name"):
        AttributeSpec.categorical(name, ("Y", "N"))


@pytest.mark.parametrize("name", ["r\nx", "r\u2028", "", " r", "r\t"])
def test_serialize_arff_refuses_a_relation_name_it_cannot_read_back(name):
    d = parse_csv("a,c\nx,P\ny,Q\n")
    with pytest.raises(ValueError, match="relation name"):
        serialize_arff(dataclasses.replace(d, name=name))


def test_schema_names_unique():
    spec = AttributeSpec.categorical("a", ("Y", "N"))
    with pytest.raises(ValueError):
        Dataset((spec, spec), class_index=1)


def test_class_must_be_categorical():
    schema = (AttributeSpec.categorical("a", ("Y", "N")), AttributeSpec.numeric("x"))
    with pytest.raises(ValueError):
        Dataset(schema, class_index=1)


def test_instance_weight_positive():
    with pytest.raises(ValueError):
        Instance(("Y",), weight=0.0)


@pytest.mark.parametrize("weight", [float("inf"), True, "a"], ids=["inf", "bool", "text"])
def test_instance_refuses_a_weight_that_is_not_a_finite_number(weight):
    with pytest.raises(ValueError, match="instance weight must be a finite number > 0"):
        Instance(("Y",), weight)


def test_dataset_refuses_weights_whose_sum_overflows():
    # each weight is finite, but growth would sum them to inf
    rows = [Instance((float(i), "PQ"[i % 2]), 1e308) for i in range(4)]
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("P", "Q")))
    with pytest.raises(ValueError, match="instance weights sum to inf"):
        Dataset(schema, 1, rows)


def test_undeclared_symbol_rejected():
    with pytest.raises(ValueError):
        Dataset(tiny_schema(), 2, (Instance(("Z", 1.0, "P")),))


@pytest.mark.parametrize("value", ["?", "", " y", "y "], ids=["query", "empty", "lead", "trail"])
def test_spec_refuses_values_no_reader_reads_back(value):
    with pytest.raises(ValueError, match="no reader reads back"):
        AttributeSpec.categorical("a", ("x", value))


def test_checklist_schema_shape():
    schema = checklist_schema()
    assert len(schema) == 17
    assert [a.name for a in schema[:3]] == ["DR", "DS", "DH"]
    assert schema[-1].name == "LD"
    assert all(a.kind == "binary" for a in schema)


# --- ARFF parsing -----------------------------------------------------------


def test_parse_arff_direct_transcription():
    d = parse_arff(ARFF_SMALL)
    assert d.name == "toy"
    assert [a.name for a in d.schema] == ["a", "b", "cls"]
    assert len(d) == 3
    assert d.instances[1].values == ("N", "N", "Q")
    # last categorical attribute becomes the class by default
    assert d.class_index == 2


def test_parse_arff_missing_token():
    text = ARFF_SMALL.replace("N,N,Q", "Y,?,Q")
    d = parse_arff(text)
    assert d.instances[1].values == ("Y", None, "Q")


def test_parse_arff_reports_line_numbers():
    bad = ARFF_SMALL.replace("N,N,Q", "N,N")  # arity mismatch on line 8
    with pytest.raises(ParseError) as err:
        parse_arff(bad)
    assert err.value.line == 8
    assert "line 8" in str(err.value)


def test_parse_arff_undeclared_symbol():
    bad = ARFF_SMALL.replace("N,N,Q", "N,Z,Q")
    with pytest.raises(ParseError):
        parse_arff(bad)


def test_parse_arff_numeric_attribute():
    text = "@relation r\n@attribute x numeric\n@attribute c {A,B}\n@data\n1.5,A\n?,B\n"
    d = parse_arff(text)
    assert d.instances[0].values == (1.5, "A")
    assert d.instances[1].values == (None, "B")


def test_parse_arff_class_override():
    d = parse_arff(ARFF_SMALL, class_name="a")
    assert d.class_index == 0


def test_arff_round_trip_synthetic_checklist():
    d = synthetic_checklist(94, 31, seed=7, missing_rate=0.1)
    back = parse_arff(serialize_arff(d), class_name="LD")
    assert back.schema == d.schema
    assert back.class_index == d.class_index
    assert len(back) == len(d)
    for a, b in zip(back.instances, d.instances):
        assert a.values == b.values


#: Characters that parse_arff treats as syntax, with plain ones to go round them.
ARFF_HAZARDS = ",}%\n\r\x1c\x85\u2028"
ARFF_SYMBOL = st.text(ARFF_HAZARDS + "ab{?' \t", min_size=1, max_size=3).filter(
    lambda v: v not in ("", "?") and v == v.strip()
)


#: Characters that CSV quoting or the csv module treat specially, and plain ones.
CSV_SYMBOL = st.text(',"\'\n\r\x1c\u2028{}%?=+1 \tx', min_size=1, max_size=3).filter(
    lambda v: v not in ("", "?") and v == v.strip()
)


@st.composite
def arff_datasets(draw, symbol=ARFF_SYMBOL, name="r"):
    """A Dataset of unit-weight rows over symbols that may hold file syntax."""
    n = draw(st.integers(1, 3))
    class_at = draw(st.integers(0, n))
    schema = []
    for i in range(n + 1):
        if i != class_at and draw(st.booleans()):
            schema.append(AttributeSpec.numeric(f"x{i}"))
            continue
        least = 2 if i == class_at else 1
        symbols = draw(st.lists(symbol, min_size=least, max_size=3, unique=True))
        schema.append(AttributeSpec.categorical(f"s{i}", symbols))
    cell = [
        st.sampled_from((None,) + spec.values)
        if spec.is_categorical
        else st.none() | st.floats(allow_nan=False, allow_infinity=False)
        for spec in schema
    ]
    rows = draw(st.lists(st.tuples(*cell), max_size=5))
    return Dataset(tuple(schema), class_at, tuple(Instance(r) for r in rows), name)


@pytest.mark.parametrize(
    "index, bad", [(0, "%x"), (0, "x,y"), (1, "P}"), (1, "Q\u2028R")]
)
def test_serialize_arff_refuses_what_parse_arff_cannot_read(index, bad):
    values = [["x", "y"], ["P", "Q"]]
    values[index][0] = bad
    schema = tuple(AttributeSpec.categorical(n, v) for n, v in zip(("a", "cls"), values))
    d = Dataset(schema, 1, [Instance(r) for r in zip(*values)] * 2, "r")
    with pytest.raises(ValueError) as err:
        serialize_arff(d)
    name = schema[index].name
    assert str(err.value).startswith(f"attribute {name}: ARFF cannot hold value {bad!r}")


@settings(max_examples=300, deadline=None)
@given(arff_datasets())
def test_arff_round_trip_or_refusal(d):
    try:
        text = serialize_arff(d)
    except ValueError as exc:
        named = [
            v
            for spec in d.schema
            for v in spec.values
            if str(exc).startswith(f"attribute {spec.name}: ") and repr(v) in str(exc)
        ]
        assert any(c in v for v in named for c in ARFF_HAZARDS)
        assert len(str(exc).splitlines()) == 1
        return
    assert parse_arff(text, class_name=d.class_attribute.name) == d


@settings(max_examples=300, deadline=None)
@given(arff_datasets(CSV_SYMBOL, "dataset"))
def test_csv_round_trip_with_schema_or_refusal(d):
    # numeric-looking symbols, quotes and line breaks come back as declared,
    # given the schema; a carriage return the writer refuses
    try:
        text = serialize_csv(d)
    except ValueError as exc:
        assert any("\r" in v for spec in d.schema for v in spec.values)
        assert len(str(exc).splitlines()) == 1
        return
    assert parse_csv(text, schema=d.schema, class_name=d.class_attribute.name) == d


def test_parse_csv_wraps_csv_module_errors():
    with pytest.raises(ParseError, match=r"^line 2: field larger than field limit"):
        parse_csv("a,c\n" + "x" * 200_000 + ",P\ny,Q\n")


def test_parse_csv_refuses_an_unclosed_quote_at_the_line_it_opens():
    # the quote would otherwise swallow every row after it into one cell
    with pytest.raises(ParseError, match=r"^line 3: unexpected end of data$"):
        parse_csv('a,c\nx,p\ny,"q\nx,p\ny,q\n')


def test_parse_csv_refuses_text_after_a_closing_quote():
    with pytest.raises(ParseError, match=r"^line 3: "):
        parse_csv('a,c\nx,p\n"x"y,p\n')


# --- CSV parsing ------------------------------------------------------------


def test_parse_csv_with_checklist_schema():
    schema = checklist_schema()
    header = ",".join(a.name for a in schema)
    row = ",".join(["Y"] * 8 + ["N"] * 8 + ["Y"])
    d = parse_csv(header + "\n" + row + "\n", schema=schema)
    assert len(d) == 1
    assert d.instances[0].values[-1] == "Y"


def test_parse_csv_empty_cell_is_missing():
    schema = tiny_schema()
    d = parse_csv("a,x,cls\nY,,P\nN,2.5,?\n", schema=schema)
    assert d.instances[0].values == ("Y", None, "P")
    assert d.instances[1].values == ("N", 2.5, None)


def test_parse_csv_bad_numeric_token():
    with pytest.raises(ParseError):
        parse_csv("a,x,cls\nY,abc,P\n", schema=tiny_schema())


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_readers_refuse_non_finite_numbers(token):
    arff = f"@relation r\n@attribute x numeric\n@attribute c {{A,B}}\n@data\n1,A\n{token},B\n"
    with pytest.raises(ParseError, match="line 6: .*not a finite number"):
        parse_arff(arff)
    with pytest.raises(ParseError, match="line 3: .*not a finite number"):
        parse_csv(f"x,c\n1,A\n{token},B\n")


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), 10**400, 2**53 + 1],
    ids=["nan", "inf", "-inf", "huge_int", "inexact_int"],
)
def test_dataset_refuses_non_finite_numbers(value):
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    with pytest.raises(ValueError, match="not a finite number"):
        Dataset(schema, 1, (Instance((1.0, "A")), Instance((value, "B"))))


#: bad cells for a numeric column (10**400 is beyond float range, no float
#: holds 2**53 + 1, and "A" is a symbol other columns declare) and for a
#: categorical one ("Z" is never declared, and a list cannot be hashed)
BAD_NUMBERS = (
    "abc", "1.5", "A", float("nan"), float("inf"), -float("inf"), 10**400, 2**53 + 1,
    True, False,
)
BAD_SYMBOLS = ("Z", 1.0, True, [], float("nan"))


@st.composite
def schema_model_and_row(draw):
    """A random schema, a tree grown on it, and one row with at most one defect.

    About half the schemas have no numeric attribute: only those check a
    row against cell sets before the per-column loop.
    """
    kinds = ([1, 2, 3], ["numeric", 1, 2, 3])[draw(st.booleans())]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    schema = tuple(
        AttributeSpec.numeric(f"x{i}")
        if kind == "numeric"
        else AttributeSpec.categorical(f"s{i}", "ABC"[:kind])
        for i, kind in enumerate(kinds)
    ) + (AttributeSpec.categorical("cls", ("P", "Q")),)
    rng = random.Random(draw(st.integers(0, 2**16)))

    def cell(spec):
        if spec.kind == "numeric":
            return rng.choice([None, float(rng.randint(-3, 3)), rng.randint(-3, 3)])
        return rng.choice((None,) + spec.values)

    train = [
        Instance(tuple(cell(s) for s in schema[:-1]) + (rng.choice("PQ"),)) for _ in range(12)
    ]
    config = TreeConfig(min_leaf_weight=1.0, pruning=False)
    model = build_tree(Dataset(schema, len(schema) - 1, train), config)
    row = [cell(s) for s in schema]
    numeric = [i for i, s in enumerate(schema) if s.kind == "numeric"]
    defects = ["none", "symbol", "short", "long"] + (["number"] if numeric else [])
    defect = draw(st.sampled_from(defects))
    if defect == "number":
        row[draw(st.sampled_from(numeric))] = draw(st.sampled_from(BAD_NUMBERS))
    elif defect == "symbol":
        categorical = [i for i in range(len(schema)) if i not in numeric]
        row[draw(st.sampled_from(categorical))] = draw(st.sampled_from(BAD_SYMBOLS))
    elif defect == "short":
        row.pop()
    elif defect == "long":
        row.append(None)
    return model, tuple(row), defect == "none", draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(schema_model_and_row())
def test_dataset_classify_and_best_rule_share_one_row_check(case):
    model, row, valid, as_instance = case
    probe = Instance(row) if as_instance else row
    ruleset = extract_rules(model)
    checks = (
        lambda: Dataset(model.schema, model.class_index, (Instance(row),)),
        lambda: classify(model, probe),
        lambda: best_rule(ruleset, probe),
    )
    messages = []
    for check in checks:
        if valid:
            check()
        else:
            with pytest.raises(ValueError) as raised:  # a TypeError fails the test
                check()
            messages.append(str(raised.value))
    if not valid:  # one message for each defect; a Dataset names the row
        assert messages == ["instance 0: " + messages[1]] + [messages[1]] * 2


@pytest.mark.parametrize("bad", BAD_SYMBOLS, ids=repr)
def test_checklist_model_refuses_each_bad_symbol_as_a_dataset_does(bad):
    # every column categorical: classify checks rows against cell sets first
    d = synthetic_checklist(30, 10, seed=3, missing_rate=0.2)
    model = build_tree(d)
    row = list(d.instances[0].values)
    row[model.root.attribute_index] = bad
    with pytest.raises(ValueError) as refused:
        Dataset(d.schema, d.class_index, (Instance(row),))
    for check in (lambda: classify(model, row), lambda: best_rule(extract_rules(model), row)):
        with pytest.raises(ValueError) as raised:
            check()
        assert "instance 0: " + str(raised.value) == str(refused.value)


@pytest.mark.parametrize("bad", BAD_SYMBOLS, ids=repr)
def test_simplified_rules_refuse_each_bad_symbol_as_a_dataset_does(bad):
    # a rule set checks a row of an all-categorical schema against cell sets first
    d = synthetic_checklist(30, 10, seed=3, missing_rate=0.2)
    ruleset = simplify_rules(extract_rules(build_tree(d)), d)
    for column in range(len(d.schema)):
        row = list(d.instances[0].values)
        row[column] = bad
        with pytest.raises(ValueError) as refused:
            Dataset(d.schema, d.class_index, (Instance(row),))
        with pytest.raises(ValueError) as raised:
            best_rule(ruleset, row)
        assert "instance 0: " + str(raised.value) == str(refused.value)


@st.composite
def schema_and_token_rows(draw):
    """A random mixed schema and 1-4 token rows, at most one of them with one defect.

    Each row is given twice: as the values a Dataset receives and as the
    text tokens a reader sees.  A numeric token that is not a finite number
    stays text on the Dataset side too, as the readers keep it.
    """
    kinds = draw(st.lists(st.sampled_from(["numeric", 1, 2, 3]), min_size=1, max_size=4))
    schema = tuple(
        AttributeSpec.numeric(f"x{i}")
        if kind == "numeric"
        else AttributeSpec.categorical(f"s{i}", "ABC"[:kind])
        for i, kind in enumerate(kinds)
    ) + (AttributeSpec.categorical("cls", ("P", "Q")),)
    rng = random.Random(draw(st.integers(0, 2**16)))

    def cell(spec):
        if spec.kind == "numeric":
            return rng.choice([None, float(rng.randint(-3, 3)), rng.uniform(-1e3, 1e3)])
        return rng.choice((None,) + spec.values)

    rows = [[cell(s) for s in schema] for _ in range(draw(st.integers(1, 4)))]
    bad_row = draw(st.integers(0, len(rows) - 1))
    row = rows[bad_row]
    numeric = [i for i, s in enumerate(schema) if s.kind == "numeric"]
    defects = ["none", "symbol", "short", "long"] + (["number"] if numeric else [])
    defect = draw(st.sampled_from(defects))
    if defect == "number":
        row[draw(st.sampled_from(numeric))] = draw(st.sampled_from(["nan", "inf", "abc"]))
    elif defect == "symbol":
        categorical = [i for i in range(len(schema)) if i not in numeric]
        row[draw(st.sampled_from(categorical))] = "Z"
    elif defect == "short":
        row.pop()
    elif defect == "long":
        row.append("P")
    tokens = [["?" if v is None else repr(v) if isinstance(v, float) else v for v in r] for r in rows]
    return schema, rows, tokens, None if defect == "none" else bad_row


@settings(max_examples=150, deadline=None)
@given(schema_and_token_rows())
def test_readers_accept_exactly_what_dataset_accepts(case):
    schema, rows, tokens, bad_row = case
    arff = serialize_arff(Dataset(schema, len(schema) - 1, (), "r")).splitlines()
    arff_text = "\n".join(arff + [",".join(t) for t in tokens]) + "\n"
    csv_text = "\n".join([",".join(a.name for a in schema)] + [",".join(t) for t in tokens]) + "\n"
    readers = (
        (lambda: parse_arff(arff_text, class_name="cls"), len(arff) + 1),
        (lambda: parse_csv(csv_text, schema=schema, class_name="cls"), 2),
    )
    try:
        expected = Dataset(schema, len(schema) - 1, tuple(Instance(r) for r in rows))
    except ValueError as exc:
        assert bad_row is not None
        message = str(exc).split(": ", 1)[1]  # without the "instance i: " prefix
        for read, first_line in readers:
            with pytest.raises(ParseError) as err:
                read()
            assert err.value.line == first_line + bad_row
            assert str(err.value) == f"line {first_line + bad_row}: {message}"
    else:
        assert bad_row is None
        for read, _ in readers:
            assert [i.values for i in read().instances] == [i.values for i in expected.instances]


@st.composite
def categorical_token_rows(draw):
    """An all-categorical schema and 1-5 rows of text tokens.

    A token is a declared symbol, that symbol padded with whitespace,
    ``'?'``, empty, blank, or a symbol its column does not declare
    (another column's, or ``Z``), maybe padded; a row may be short or long.
    Each row holds a token that is not blank, as both readers skip a
    blank line or record.
    """
    pools = (("N", "Y"), ("a", "b", "c"), ("lo", "mid", "hi"), ("A",))
    schema = tuple(
        AttributeSpec.categorical(f"s{i}", draw(st.sampled_from(pools)))
        for i in range(draw(st.integers(1, 3)))
    ) + (AttributeSpec.categorical("cls", ("P", "Q")),)
    symbols = sorted({v for spec in schema for v in spec.values} | {"Z"})

    def token(spec):
        kind = draw(st.sampled_from(("symbol",) * 4 + ("padded", "?", "", "blank", "other")))
        if kind in ("?", ""):
            return kind
        if kind == "blank":
            return draw(st.sampled_from((" ", "\t", "  ")))
        v = draw(st.sampled_from(spec.values))
        if kind == "other":
            v = draw(st.sampled_from([s for s in symbols if s not in spec.values]))
        if kind != "symbol" and draw(st.booleans()):
            v = draw(st.sampled_from((" {}", "{} ", "\t{} "))).format(v)
        return v

    rows = []
    for _ in range(draw(st.integers(1, 5))):
        width = max(1, len(schema) + draw(st.sampled_from((0,) * 6 + (-2, -1, 1, 2))))
        row = [token(schema[min(i, len(schema) - 1)]) for i in range(width)]
        if not any(t.strip() for t in row):
            row[0] = "?"
        rows.append(row)
    return schema, rows


@settings(max_examples=200, deadline=None)
@given(categorical_token_rows())
def test_readers_read_categorical_rows_as_a_token_loop_does(case):
    # the readers map the tokens of an all-categorical row through one
    # table per column, and fall back to the per-token loop on any miss
    schema, rows = case
    head = serialize_arff(Dataset(schema, len(schema) - 1, (), "r")).splitlines()
    lines = [",".join(tokens) for tokens in rows]
    arff_text = "\n".join(head + lines) + "\n"
    csv_text = "\n".join([",".join(a.name for a in schema)] + lines) + "\n"
    readers = (
        (lambda: parse_arff(arff_text, class_name="cls"), len(head) + 1),
        (lambda: parse_csv(csv_text, schema=schema, class_name="cls"), 2),
    )
    values, refusal = read_rows_oracle(schema, rows)
    for read, first_line in readers:
        if refusal is None:
            d = read()
            assert d == Dataset(schema, len(schema) - 1, [Instance(v) for v in values], d.name)
        else:
            row, message = refusal
            with pytest.raises(ParseError) as err:
                read()
            assert err.value.line == first_line + row
            assert str(err.value) == f"line {first_line + row}: {message}"


@pytest.mark.parametrize(
    "text, error",
    [
        ("a,cls\n\nY,P\nZ,Q\n", "line 4: 'Z' not declared for attribute a"),
        ('a,cls\nY,"P"\nN,"two\nlines"\nY,P\nZ,Q\n', "line 6: 'Z' not declared for attribute a"),
        ("\n\nb,cls\nY,P\n", "line 3: CSV header does not match the given schema"),
    ],
    ids=["blank_line", "multi_line_cell", "header_after_blank_lines"],
)
def test_parse_csv_names_the_line_a_record_starts_on(text, error):
    schema = (
        AttributeSpec.categorical("a", ("Y", "N")),
        AttributeSpec.categorical("cls", ("P", "Q", "two\nlines")),
    )
    with pytest.raises(ParseError) as err:
        parse_csv(text, schema=schema)
    assert str(err.value) == error


def test_readers_refuse_unreadable_declared_values():
    with pytest.raises(ParseError, match="^line 2: attribute a declares value '\\?'"):
        parse_arff("@relation r\n@attribute a {?,y}\n@attribute c {p,q}\n@data\n")
    with pytest.raises(ParseError, match="^line 3: attribute a declares value ''"):
        parse_arff("@relation r\n\n@attribute a {x,,y}\n@attribute c {p,q}\n@data\n")
    # the CSV reader takes '?' and empty cells as missing and strips the rest,
    # so it never declares such a value
    d = parse_csv("a,c\n?,p\n,q\n y ,p\n")
    assert d.schema[0].values == ("y",)
    assert [i.values[0] for i in d.instances] == [None, None, "y"]


def test_parse_csv_infers_schema():
    d = parse_csv("s,x,c\nhi,1,A\nlo,2.5,B\nhi,?,A\n", class_name="c")
    kinds = [a.kind for a in d.schema]
    assert kinds == ["binary", "numeric", "binary"]
    assert d.schema[0].values == ("hi", "lo")  # first-appearance order
    assert d.instances[2].values == ("hi", None, "A")


def test_csv_round_trip_synthetic():
    d = synthetic_checklist(60, 20, seed=5, missing_rate=0.05)
    back = parse_csv(serialize_csv(d), schema=d.schema, class_name="LD")
    for a, b in zip(back.instances, d.instances):
        assert a.values == b.values


# --- Imputation -------------------------------------------------------------


def test_impute_numeric_mean():
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    d = Dataset(
        schema,
        1,
        (
            Instance((1.0, "A")),
            Instance((None, "A")),
            Instance((3.0, "B")),
        ),
    )
    filled = impute_missing(d)
    assert [i.values[0] for i in filled.instances] == [1.0, 2.0, 3.0]
    # original untouched
    assert d.instances[1].values[0] is None


def test_impute_categorical_mode():
    schema = (AttributeSpec.categorical("b", ("Y", "N")), AttributeSpec.categorical("c", ("A", "B")))
    d = Dataset(
        schema,
        1,
        tuple(Instance(v) for v in [("Y", "A"), ("Y", "A"), (None, "B"), ("N", "B")]),
    )
    filled = impute_missing(d)
    assert filled.instances[2].values[0] == "Y"


def test_impute_mode_tie_breaks_by_declared_order():
    schema = (AttributeSpec.categorical("b", ("N", "Y")), AttributeSpec.categorical("c", ("A", "B")))
    d = Dataset(
        schema,
        1,
        tuple(Instance(v) for v in [("Y", "A"), ("N", "A"), (None, "B")]),
    )
    assert impute_missing(d).instances[2].values[0] == "N"


def test_impute_entirely_missing_column_names_it():
    schema = (AttributeSpec.numeric("gap"), AttributeSpec.categorical("c", ("A", "B")))
    d = Dataset(schema, 1, (Instance((None, "A")), Instance((None, "B"))))
    with pytest.raises(ValueError, match="gap"):
        impute_missing(d)


def test_impute_leaves_class_gaps_but_refuses_an_empty_class():
    schema = (AttributeSpec.categorical("b", ("Y", "N")), AttributeSpec.categorical("c", ("A", "B")))
    rows = [("Y", "A"), (None, "A"), ("N", None)]
    d = Dataset(schema, 1, tuple(Instance(r) for r in rows))
    assert impute_missing(d).column(1) == ["A", "A", None]
    empty = Dataset(schema, 1, tuple(Instance((b, None)) for b in ("Y", "N")))
    with pytest.raises(ValueError, match="attribute c is entirely missing"):
        impute_missing(empty)


def test_impute_overflowing_mean_names_the_attribute_not_a_row():
    schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("c", ("A", "B")))
    rows = [(1e308, "A"), (1e308, "B"), (None, "A"), (1.0, "B")]
    d = Dataset(schema, 1, tuple(Instance(r) for r in rows))
    with pytest.raises(ValueError) as err:
        impute_missing(d)
    message = str(err.value)
    assert message.startswith("imputation failed: ")
    assert "attribute x" in message
    assert "instance" not in message


def gappy_mixed_dataset(rng, n_rows, n_numeric, n_nominal, missing_rate):
    schema = []
    for i in range(n_numeric):
        schema.append(AttributeSpec.numeric(f"x{i}"))
    for i in range(n_nominal):
        schema.append(AttributeSpec.categorical(f"s{i}", ("A", "B", "C")))
    schema.append(AttributeSpec.categorical("cls", ("P", "Q")))
    schema = tuple(schema)
    rows = []
    for _ in range(n_rows):
        vals = []
        for spec in schema[:-1]:
            if rng.random() < missing_rate:
                vals.append(None)
            elif spec.kind == "numeric":
                vals.append(round(rng.uniform(-5, 5), 3))
            else:
                vals.append(rng.choice(spec.values))
        vals.append(rng.choice(("P", "Q")))
        rows.append(Instance(tuple(vals)))
    return Dataset(schema, len(schema) - 1, tuple(rows))


def test_impute_matches_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(30):
        d = gappy_mixed_dataset(rng, rng.randint(5, 40), 2, 2, 0.1)
        cols = range(len(d.schema))
        known = {i: [v for v in d.column(i) if v is not None] for i in cols}
        if any(not k for k in known.values()):
            continue  # entirely-missing column is a separate error case
        filled = impute_missing(d)
        for i, spec in enumerate(d.schema):
            if spec.kind == "numeric":
                expect = sum(known[i]) / len(known[i])
            else:
                counts = Counter(known[i])
                top = max(counts.values())
                expect = next(v for v in spec.values if counts[v] == top)
            for raw, out in zip(d.column(i), filled.column(i)):
                if raw is None:
                    assert out == pytest.approx(expect) if spec.kind == "numeric" else out == expect
                else:
                    assert out == raw


def test_impute_idempotent():
    d = synthetic_checklist(40, 20, seed=2, missing_rate=0.15)
    once = impute_missing(d)
    twice = impute_missing(once)
    for a, b in zip(once.instances, twice.instances):
        assert a.values == b.values


# --- Folds ------------------------------------------------------------------


def class_counts(d):
    return Counter(i.values[d.class_index] for i in d.instances)


def test_stratified_two_fold_counts_on_94_31():
    d = synthetic_checklist(94, 31, seed=3)
    folds = stratified_folds(d, 2, seed=0)
    test_sizes = sorted(len(te) for _, te in folds)
    assert test_sizes == [62, 63]
    n_counts = sorted(class_counts(te)["N"] for _, te in folds)
    y_counts = sorted(class_counts(te)["Y"] for _, te in folds)
    assert n_counts == [47, 47]
    assert y_counts == [15, 16]
    for tr, te in folds:
        assert len(tr) + len(te) == 125


def test_leave_one_out():
    d = synthetic_checklist(2, 2, seed=1)
    folds = stratified_folds(d, 4, seed=0)
    assert len(folds) == 4
    assert all(len(te) == 1 for _, te in folds)


def test_same_seed_same_folds():
    d = synthetic_checklist(50, 20, seed=9)
    a = stratified_folds(d, 5, seed=42)
    b = stratified_folds(d, 5, seed=42)
    for (_, ta), (_, tb) in zip(a, b):
        assert [i.values for i in ta.instances] == [i.values for i in tb.instances]


def test_each_instance_tested_exactly_once():
    d = synthetic_checklist(30, 15, seed=4)
    for k in (2, 3, 5):
        folds = stratified_folds(d, k, seed=1)
        seen = Counter()
        for _, te in folds:
            for inst in te.instances:
                seen[inst.values] += 1
        # values are unique enough here to key on; total must cover all rows
        assert sum(seen.values()) == len(d)
        all_rows = Counter(i.values for i in d.instances)
        assert seen == all_rows


def test_fold_proportions_within_one():
    d = synthetic_checklist(94, 31, seed=8)
    for k in (2, 5, 10):
        for _, te in stratified_folds(d, k, seed=0):
            cc = class_counts(te)
            for label, global_count in (("N", 94), ("Y", 31)):
                ideal = global_count * len(te) / 125
                assert abs(cc[label] - ideal) <= 1 + 1e-9


def test_k_exceeding_instances_rejected():
    d = synthetic_checklist(3, 2, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(d, 6, seed=0)


def test_random_folds_partition():
    d = synthetic_checklist(20, 10, seed=6)
    folds = random_folds(d, 3, seed=5)
    total = sum(len(te) for _, te in folds)
    assert total == 30


#: test positions of every fold, as dealt before the two fold functions
#: shared one dealing routine
FOLD_PINS = {
    ("checklist", "stratified"): [[0, 3, 12, 16, 18], [2, 4, 5, 11, 15], [1, 8, 9, 14, 17], [6, 7, 10, 13]],
    ("checklist", "random"): [[2, 4, 12, 14, 16], [7, 9, 11, 15, 17], [6, 8, 10, 13, 18], [0, 1, 3, 5]],
    ("gap_class", "stratified"): [[2, 5, 6, 8], [0, 1, 3, 10], [4, 7, 9]],
    ("gap_class", "random"): [[0, 4, 5, 8], [1, 3, 7, 9], [2, 6, 10]],
}


@pytest.mark.parametrize("data, kind", sorted(FOLD_PINS))
def test_fold_positions_are_pinned(data, kind):
    if data == "checklist":
        d, k, seed = synthetic_checklist(13, 6, seed=2), 4, 5
    else:  # a declared class with no rows
        schema = (AttributeSpec.numeric("x"), AttributeSpec.categorical("cls", ("A", "B", "C")))
        rows = tuple(Instance((float(i), "AC"[i % 3 == 0])) for i in range(11))
        d, k, seed = Dataset(schema, 1, rows), 3, 11
    folds = (stratified_folds if kind == "stratified" else random_folds)(d, k, seed)
    where = {id(inst): i for i, inst in enumerate(d.instances)}
    tests = [[where[id(inst)] for inst in te.instances] for _, te in folds]
    assert tests == FOLD_PINS[data, kind]
    for (train, _), test in zip(folds, tests):
        assert [where[id(inst)] for inst in train.instances] == [
            i for i in range(len(d)) if i not in test
        ]


def test_rows_are_checked_once_when_read(monkeypatch):
    text = serialize_arff(synthetic_checklist(20, 10, seed=2, missing_rate=0.2))
    calls = []
    check = dataset_module._check_instance

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(dataset_module, "_check_instance", counted)
    d = parse_arff(text)
    assert len(calls) == 30
    calls.clear()
    parse_csv(serialize_csv(d))
    assert len(calls) == 30
    calls.clear()
    stratified_folds(d, 3, seed=1)
    random_folds(d, 3, seed=1)
    assert calls == []
    impute_missing(d)
    assert len(calls) == 1


# --- first_max -----------------------------------------------------------------


@pytest.mark.parametrize(
    "values, expected",
    [([3], 0), ([1, 3, 3, 2], 1), ([0.5, 0.5], 0), ((0.0, -1.0, 0.0), 0), ([2, 1, 5], 2)],
)
def test_first_max_ties_resolve_to_earliest(values, expected):
    assert first_max(values) == expected
