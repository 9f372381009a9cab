"""Dataset schema, ARFF/CSV parsing and serialization, imputation, fold splitting.

A dataset is a fixed schema (list of attribute specs) plus a list of
instances whose values are aligned to the schema order.  Missing values are
represented in memory by ``None``; the on-disk token is ``'?'`` (ARFF and
CSV) or an empty CSV cell.  Datasets are immutable after construction and
every operation here is a pure function of its inputs (plus a seed), so
they are safe to share across threads.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from operator import add

BINARY = "binary"
NOMINAL = "nominal"
NUMERIC = "numeric"

# the relations of a test on one attribute: categorical =, numeric <= and >
EQ = "="
LE = "<="
GT = ">"


class ParseError(ValueError):
    """Malformed ARFF/CSV input. Carries the 1-based source line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def first_max(values):
    """Index of the largest entry; ties resolve to the earliest."""
    return max(range(len(values)), key=values.__getitem__)


def total(values):
    """Sum of ``values`` added left to right from 0.0.

    The builtin ``sum`` compensates float rounding from Python 3.12 on, so
    it would give other weights, and other model files, on other versions.
    """
    return reduce(add, values, 0.0)


def align_columns(rows, justify):
    """Lines of the text cells of ``rows``, two spaces apart, each cell padded
    by ``justify`` (``str.rjust`` or ``str.ljust``) to its column's widest cell.
    """
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(justify(cell, w) for cell, w in zip(row, widths)) for row in rows]


def is_finite_number(value):
    """True for an int or float (not a bool) that is neither NaN nor infinite.

    An int beyond float range counts as infinite, and an int a float cannot
    hold exactly (such as 2**53 + 1) is refused too: induction computes in
    floats.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and float(value) == value
    except OverflowError:
        return False


def finite_float(token):
    """Text ``token`` as a finite float, or None when it is not one."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    return value if math.isfinite(value) else None


def class_tally(rows, schema, class_index):
    """Weight per declared class of ``(values, weight)`` rows, added in row order."""
    position = {v: i for i, v in enumerate(schema[class_index].values)}
    counts = [0.0] * len(position)
    for row, (values, weight) in enumerate(rows):
        label = values[class_index]
        if label is None:
            raise ValueError(f"instance {row} has a missing class value")
        counts[position[label]] += weight
    return counts


def dump_document(fmt, version, body):
    """JSON text of a versioned document: ``format``, ``version``, then ``body``."""
    return json.dumps({"format": fmt, "version": version, **body}, indent=2)


def load_document(text, fmt, version, build):
    """Read a document written by dump_document and return ``build(doc)``.

    Raises
    ------
    ParseError
        On undecodable JSON (with its line), a document that is not an
        object, a foreign format or version, or a body ``build`` cannot
        read (a missing key or a value of the wrong type or shape).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ParseError(f"not a {fmt} document")
    if doc.get("version") != version:
        raise ParseError(f"unsupported {fmt} version {doc.get('version')!r}")
    try:
        return build(doc)
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise ParseError(f"malformed {fmt} document: {reason}") from None


@dataclass(frozen=True)
class AttributeSpec:
    """One column of a schema.

    Parameters
    ----------
    name : str
        Attribute name, unique within a schema.
    kind : str
        One of ``binary``, ``nominal``, ``numeric``.
    values : tuple of str
        Distinct declared symbols, in declaration order.  Exactly two for
        binary, at least one for nominal (two for a class), empty for
        numeric.  A symbol is a string other than ``'?'`` and ``''``,
        without leading or trailing whitespace: the readers could not
        read any other back.
    """

    name: str
    kind: str
    values: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name or any(c in self.name for c in " \t,{}%'\""):
            raise ValueError(f"invalid attribute name: {self.name!r}")
        if self.kind == NUMERIC:
            if self.values:
                raise ValueError(f"numeric attribute {self.name} must not declare values")
        elif self.kind == BINARY:
            if len(self.values) != 2:
                raise ValueError(f"binary attribute {self.name} needs exactly two values")
        elif self.kind == NOMINAL:
            if not self.values:
                raise ValueError(f"nominal attribute {self.name} declares no values")
        else:
            raise ValueError(f"unknown attribute kind: {self.kind}")
        for v in self.values:
            if not isinstance(v, str):
                raise ValueError(f"values of {self.name} are not strings")
            if v in ("", "?") or v != v.strip():
                raise ValueError(
                    f"attribute {self.name} declares value {v!r}, which no reader "
                    "reads back: '?' and empty cells are missing, spaces are stripped"
                )
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name} declares a value twice")

    @cached_property
    def is_categorical(self):
        return self.kind in (BINARY, NOMINAL)

    @staticmethod
    def categorical(name, values):
        """Nominal spec; two declared values make it binary."""
        values = tuple(values)
        return AttributeSpec(name, BINARY if len(values) == 2 else NOMINAL, values)

    @staticmethod
    def numeric(name):
        return AttributeSpec(name, NUMERIC)


@dataclass(frozen=True)
class Instance:
    """One row; ``values`` aligned to schema order, ``weight`` > 0.

    Fractional weights arise from missing-value routing during tree
    induction; parsed data always starts at weight 1.
    """

    values: tuple
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.weight > 0:
            raise ValueError(f"instance weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class Dataset:
    """Schema + instances with a designated class attribute.

    The class attribute must be categorical with at least two values.
    Construction validates every instance against the schema (see
    _check_instance).  Missing values (``None``) are allowed anywhere;
    training entry points reject datasets whose class column has gaps.
    """

    schema: tuple
    class_index: int
    instances: tuple = ()
    name: str = "dataset"

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "instances", tuple(self.instances))
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        if not 0 <= self.class_index < len(self.schema):
            raise ValueError(f"class index {self.class_index} out of range")
        if len(self.class_values) < 2:  # numeric attributes declare no values
            raise ValueError("class attribute must be nominal with two or more values")
        for row, inst in enumerate(self.instances):
            _check_instance(self.schema, inst.values, row)

    @property
    def class_attribute(self):
        return self.schema[self.class_index]

    @property
    def class_values(self):
        return self.class_attribute.values

    @property
    def feature_indices(self):
        return tuple(i for i in range(len(self.schema)) if i != self.class_index)

    def __len__(self):
        return len(self.instances)

    @property
    def rows(self):
        """``(values, weight)`` of every instance, in order."""
        return [(inst.values, inst.weight) for inst in self.instances]

    def column(self, index):
        return [inst.values[index] for inst in self.instances]

    def _with_checked(self, instances):
        """This dataset over ``instances`` that were checked against its schema."""
        dataset = copy.copy(self)
        object.__setattr__(dataset, "instances", tuple(instances))
        return dataset


def _check_instance(schema, instance, row=None):
    """The values of ``instance`` (an Instance or a plain sequence), checked.

    Each value must be ``None`` (missing), a declared symbol in a categorical
    column, or a finite non-bool number in a numeric one; else ValueError,
    prefixed ``instance <row>:`` when ``row`` is given.
    """
    values = instance.values if isinstance(instance, Instance) else tuple(instance)
    where = "" if row is None else f"instance {row}: "
    if len(values) != len(schema):
        raise ValueError(f"{where}expected {len(schema)} values, got {len(values)}")
    for spec, v in zip(schema, values):
        if v is None:
            continue
        if spec.is_categorical:
            if v not in spec.values:
                raise ValueError(f"{where}{v!r} not declared for attribute {spec.name}")
        # plain floats, the common case, skip the slower general check
        elif not (type(v) is float and math.isfinite(v)) and not is_finite_number(v):
            raise ValueError(
                f"{where}{v!r} in numeric attribute {spec.name} is not a finite number"
            )
    return values


# ---------------------------------------------------------------------------
# Built-in screening checklist schema
# ---------------------------------------------------------------------------

#: The 16 symptom indicators of the screening checklist, in canonical order.
CHECKLIST_ATTRIBUTES = (
    ("DR", "Difficulty with Reading"),
    ("DS", "Difficulty with Spelling"),
    ("DH", "Difficulty with Handwriting"),
    ("DWE", "Difficulty with Written Expression"),
    ("DBA", "Difficulty with Basic Arithmetic skills"),
    ("DHA", "Difficulty with Higher Arithmetic skills"),
    ("DA", "Difficulty with Attention"),
    ("ED", "Easily Distracted"),
    ("DM", "Difficulty with Memory"),
    ("LM", "Lack of Motivation"),
    ("DSS", "Difficulty with Study Skills"),
    ("DNS", "Does Not like School"),
    ("DLL", "Difficulty Learning a Language"),
    ("DLS", "Difficulty Learning a Subject"),
    ("STL", "Slow To Learn"),
    ("RG", "Repeated a Grade"),
)

CHECKLIST_CLASS = "LD"


def checklist_schema():
    """Schema of the 16 binary Y/N symptom attributes plus the LD class.

    Values are declared as (N, Y) so that the positive state encodes to 1.
    """
    specs = [AttributeSpec(abbr, BINARY, ("N", "Y")) for abbr, _ in CHECKLIST_ATTRIBUTES]
    specs.append(AttributeSpec(CHECKLIST_CLASS, BINARY, ("N", "Y")))
    return tuple(specs)


def checklist_dataset(instances=()):
    """Empty (or pre-filled) dataset over the checklist schema."""
    schema = checklist_schema()
    return Dataset(schema, len(schema) - 1, instances, name="ld_checklist")


def synthetic_checklist(n_no=94, n_yes=31, seed=0, missing_rate=0.0):
    """Generate a synthetic screening dataset with the given class split.

    Each symptom is drawn class-conditionally: children labeled Y show each
    symptom with an attribute-specific high probability, children labeled N
    with a low one.  ``missing_rate`` knocks out symptom cells (never the
    class) to exercise imputation and fractional routing.
    """
    rng = random.Random(seed)
    p_yes = [rng.uniform(0.6, 0.95) for _ in CHECKLIST_ATTRIBUTES]
    p_no = [rng.uniform(0.05, 0.4) for _ in CHECKLIST_ATTRIBUTES]
    rows = []
    for label, probs, count in (("N", p_no, n_no), ("Y", p_yes, n_yes)):
        for _ in range(count):
            vals = ["Y" if rng.random() < p else "N" for p in probs]
            vals.append(label)
            rows.append(vals)
    rng.shuffle(rows)
    if missing_rate > 0:
        for vals in rows:
            for i in range(len(CHECKLIST_ATTRIBUTES)):
                if rng.random() < missing_rate:
                    vals[i] = None
    return checklist_dataset([Instance(tuple(v)) for v in rows])


# ---------------------------------------------------------------------------
# ARFF
# ---------------------------------------------------------------------------

_NUMERIC_KEYWORDS = {"numeric", "real", "integer"}


def parse_arff(text, class_name=None):
    """Parse an ARFF document into a Dataset.

    Supported subset: ``@relation``, ``@attribute name {v1,...}`` or
    ``@attribute name numeric|real|integer``, ``@data``, ``%`` comments,
    ``'?'`` missing markers.  The class defaults to the last declared
    categorical attribute.

    Raises
    ------
    ParseError
        On malformed declarations, undeclared symbols, or row arity
        mismatches; the error carries the offending line number.
    """
    relation = "dataset"
    specs = []
    instances = []
    in_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            lowered = line.lower()
            if lowered.startswith("@relation"):
                parts = line.split(None, 1)
                if len(parts) == 2:
                    relation = parts[1].strip()
            elif lowered.startswith("@attribute"):
                try:
                    specs.append(_parse_attribute_line(line))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            elif lowered.startswith("@data"):
                if not specs:
                    raise ParseError("@data before any @attribute", lineno)
                in_data = True
            else:
                raise ParseError(f"unrecognized declaration: {line}", lineno)
        else:
            instances.append(_parse_row(line.split(","), specs, lineno))
    if not in_data:
        raise ParseError("missing @data section", len(text.splitlines()) or 1)
    return _parsed_dataset(specs, class_name, instances, relation)


def _parse_attribute_line(line):
    """The AttributeSpec of one ``@attribute`` line; ValueError when malformed."""
    body = line.split(None, 1)[1].strip() if len(line.split(None, 1)) == 2 else ""
    if not body:
        raise ValueError("@attribute needs a name and a type")
    if "{" in body:
        name, _, rest = body.partition("{")
        name = name.strip()
        values_part, brace, tail = rest.partition("}")
        if not brace or tail.strip():
            raise ValueError(f"malformed value set for attribute {name!r}")
        values = tuple(v.strip() for v in values_part.split(","))
        return AttributeSpec.categorical(name, values)
    parts = body.split()
    if len(parts) != 2 or parts[1].lower() not in _NUMERIC_KEYWORDS:
        raise ValueError(f"unsupported attribute type: {body!r}")
    return AttributeSpec.numeric(parts[0])


def _parse_row(tokens, specs, lineno):
    """The Instance of one data row's ``tokens``, checked by _check_instance.

    A numeric token that is not a finite number stays text, and so does a
    token beyond the schema's width, for the check to refuse.
    """
    values = []
    for spec, token in zip(specs, tokens):
        token = token.strip()
        if token == "?" or token == "":
            values.append(None)
        elif spec.is_categorical:
            values.append(token)
        else:
            value = finite_float(token)
            values.append(token if value is None else value)
    values += tokens[len(specs):]
    try:
        values = _check_instance(specs, values)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return Instance(values)


def _resolve_class(specs, class_name):
    if class_name is not None:
        for i, spec in enumerate(specs):
            if spec.name == class_name:
                return i
        raise ParseError(f"no attribute named {class_name!r}")
    for i in range(len(specs) - 1, -1, -1):
        if specs[i].is_categorical:
            return i
    raise ParseError("no categorical attribute available as class")


def _parsed_dataset(specs, class_name, instances, name="dataset"):
    """The Dataset of parsed rows; a schema it refuses is a ParseError."""
    class_index = _resolve_class(specs, class_name)
    try:
        dataset = Dataset(tuple(specs), class_index, (), name)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return dataset._with_checked(instances)


def serialize_arff(dataset):
    """Render a Dataset in the same ARFF subset parse_arff accepts.

    ValueError for a declared value parse_arff could not read back: one
    with ``,``, ``}`` or a line break (as ``str.splitlines`` splits), or a
    first attribute's value led by ``%``, which makes its rows comments.
    Instance weights are not written; rows read back at weight 1.
    """
    out = [f"@relation {dataset.name}", ""]
    for index, spec in enumerate(dataset.schema):
        for v in spec.values:
            unreadable = any(c in v for c in ",}") or v.splitlines() != [v]
            if unreadable or (index == 0 and v.startswith("%")):
                raise ValueError(f"attribute {spec.name}: ARFF cannot hold value {v!r}")
        if spec.is_categorical:
            out.append(f"@attribute {spec.name} {{{','.join(spec.values)}}}")
        else:
            out.append(f"@attribute {spec.name} numeric")
    out.append("")
    out.append("@data")
    for inst in dataset.instances:
        out.append(",".join(_format_cell(v) for v in inst.values))
    return "\n".join(out) + "\n"


def _format_cell(v):
    if v is None:
        return "?"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def parse_csv(text, schema=None, class_name=None):
    """Parse CSV (RFC-4180 quoting) into a Dataset.

    The first row is the header of attribute names.  With ``schema`` given,
    the header must list its names in order.  Without a schema, column
    kinds are inferred: numeric if every non-missing token parses as a
    number, else categorical with symbols in first-appearance order.
    Empty cells and ``'?'`` are missing.
    """
    reader = csv.reader(io.StringIO(text))
    records, start = [], 1  # (line the record starts on, cells); blank lines dropped
    for cells in reader:
        if any(cell.strip() for cell in cells):
            records.append((start, cells))
        start = reader.line_num + 1
    if not records:
        raise ParseError("empty CSV input")
    (header_line, header), records = records[0], records[1:]
    if schema is not None:
        schema = tuple(schema)
        if [h.strip() for h in header] != [a.name for a in schema]:
            raise ParseError("CSV header does not match the given schema", header_line)
    if schema is None:
        names = [h.strip() for h in header]
        schema = _infer_schema(names, [cells for _, cells in records], header_line)
    instances = [_parse_row(cells, schema, lineno) for lineno, cells in records]
    return _parsed_dataset(schema, class_name, instances)


def _infer_schema(names, rows, header_line):
    specs = []
    for col, name in enumerate(names):
        tokens = [r[col].strip() for r in rows if col < len(r)]  # short rows fail to parse
        symbols = list(dict.fromkeys(t for t in tokens if t not in ("", "?")))
        if not symbols:
            raise ParseError(f"column {name!r} is entirely missing; cannot infer a type")
        try:
            if all(_is_number(t) for t in symbols):
                specs.append(AttributeSpec.numeric(name))
            else:
                specs.append(AttributeSpec.categorical(name, symbols))
        except ValueError as exc:
            raise ParseError(str(exc), header_line) from None
    return tuple(specs)


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def serialize_csv(dataset):
    """Render a Dataset as CSV with a header row; missing values become '?'."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([a.name for a in dataset.schema])
    for inst in dataset.instances:
        writer.writerow([_format_cell(v) for v in inst.values])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Imputation
# ---------------------------------------------------------------------------


def impute_missing(dataset):
    """Replace every gap by the global column mean (numeric) or mode.

    Mode ties break by schema value order.  The input dataset is not
    modified; imputation is idempotent.

    Raises
    ------
    ValueError
        If some column is entirely missing (names the column).
    """
    fills = []
    for i, spec in enumerate(dataset.schema):
        column = dataset.column(i)
        known = [v for v in column if v is not None]
        if len(known) == len(column):
            fills.append(None)  # nothing to fill
            continue
        if not known:
            raise ValueError(f"attribute {spec.name} is entirely missing")
        if spec.is_categorical:
            counts = Counter(known)
            fills.append(spec.values[first_max([counts[v] for v in spec.values])])
        else:
            fills.append(total(known) / len(known))
    if all(f is None for f in fills):
        return dataset
    try:
        _check_instance(dataset.schema, fills)  # a mean can overflow to inf
    except ValueError as exc:
        raise ValueError(f"imputation failed: {exc}") from None
    instances = []
    for inst in dataset.instances:
        values = tuple(
            fills[i] if v is None else v for i, v in enumerate(inst.values)
        )
        instances.append(Instance(values, inst.weight))
    return dataset._with_checked(instances)


# ---------------------------------------------------------------------------
# Cross-validation folds
# ---------------------------------------------------------------------------


def stratified_folds(dataset, k, seed=0):
    """Split into k (train, test) pairs preserving class proportions.

    Test sets partition the instances; per-fold class counts deviate at
    most one instance from the exact proportional share.  Deterministic for
    a fixed seed.
    """
    _check_fold_args(dataset, k)
    by_class = {label: [] for label in dataset.class_values}
    for idx, inst in enumerate(dataset.instances):
        by_class[inst.values[dataset.class_index]].append(idx)
    return _deal_folds(dataset, k, seed, by_class.values())


def random_folds(dataset, k, seed=0):
    """Unstratified variant: plain shuffled round-robin deal."""
    _check_fold_args(dataset, k)
    return _deal_folds(dataset, k, seed, [list(range(len(dataset)))])


def _check_fold_args(dataset, k):
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > len(dataset):
        raise ValueError(f"cannot make {k} folds from {len(dataset)} instances")
    class_tally(dataset.rows, dataset.schema, dataset.class_index)


def _deal_folds(dataset, k, seed, groups):
    """Shuffle each group of row indices in turn, then deal them round-robin.

    The deal runs on across groups, so no fold is starved when k is near n.
    """
    rng = random.Random(seed)
    for indices in groups:
        rng.shuffle(indices)
    fold_of = [0] * len(dataset)
    for cursor, idx in enumerate(chain.from_iterable(groups)):
        fold_of[idx] = cursor % k
    folds = []
    for f in range(k):
        test = [inst for inst, g in zip(dataset.instances, fold_of) if g == f]
        train = [inst for inst, g in zip(dataset.instances, fold_of) if g != f]
        folds.append((dataset._with_checked(train), dataset._with_checked(test)))
    return folds
