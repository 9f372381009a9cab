"""Dataset schema, ARFF/CSV parsing and serialization, imputation, fold splitting.

A dataset is a fixed schema (list of attribute specs) plus a list of
instances whose values are aligned to the schema order.  Missing values are
represented in memory by ``None``; the on-disk token is ``'?'`` (ARFF and
CSV) or an empty CSV cell.  A dataset's fields never change after
construction and every operation here is a pure function of its inputs
(plus a seed), so datasets are safe to share across threads.  Only the
encoded view (``columns.view_of``) is cached on first use, for as long
as the dataset lives: two threads may each build it, but both are equal.
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
from operator import add, contains, getitem

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


def is_weight(value):
    """True for a finite number >= 0, as is_finite_number counts numbers."""
    return is_finite_number(value) and value >= 0


def check_count(name, value, minimum, below=None):
    """ValueError unless ``value`` is an int, not a bool, >= ``minimum``; ``below`` if less."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not (is_int and value >= minimum):
        message = f"{name} must be an int of at least {minimum}, got {value!r}"
        raise ValueError(below if is_int and below else message)


def _breaks_line(text):
    """True when ``text`` holds a character that ``str.splitlines`` splits on."""
    return "".join(text.splitlines()) != text


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
    """JSON text of a versioned document: ``format``, ``version``, then ``body``.

    ValueError where ``json.dumps`` nests too deep, never deeper than load_document reads.
    """
    try:
        return json.dumps({"format": fmt, "version": version, **body}, indent=2)
    except RecursionError:
        raise ValueError(f"{fmt} document nested too deeply to write") from None


def load_document(text, fmt, version, build):
    """Read a document written by dump_document and return ``build(doc)``.

    Raises
    ------
    ParseError
        On undecodable JSON (with its line), JSON nested too deeply for
        ``json.loads``, a document that is not an object, a foreign format
        or version, or a body ``build`` cannot read (a missing key or a
        value of the wrong type or shape).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to read") from None
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
        Attribute name, unique within a schema, without spaces, tabs,
        ``,{}%'"`` or a line break (a character ``str.splitlines``
        splits on).
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
        name = self.name
        if not name or any(c in name for c in " \t,{}%'\"") or _breaks_line(name):
            raise ValueError(f"invalid attribute name: {name!r}")
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
    """One row; ``values`` aligned to schema order.

    ``weight`` must pass ``is_weight`` (a finite number >= 0) and be > 0,
    else ValueError; parsed data always has weight 1.  Tree growth,
    pruning, rule statistics and the majority learner weigh instances.
    Imputation, K-means and its profiles and cluster-to-class map, fold
    stratification, confusion counts, ROC areas and training accuracy
    count them, one per instance whatever its weight.
    """

    values: tuple
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        w = self.weight
        # plain floats, the common case, skip the slower general check
        if not (type(w) is float and 0.0 < w < math.inf) and not (is_weight(w) and w > 0):
            raise ValueError(f"instance weight must be a finite number > 0, got {w!r}")


@dataclass(frozen=True)
class Dataset:
    """Schema + instances with a designated class attribute.

    The class attribute must be categorical with at least two values.
    Construction validates every instance against the schema (see
    _check_instance).  Missing values (``None``) are allowed anywhere;
    training entry points reject datasets whose class column has gaps.
    The instance weights, added left to right (``total``), must have a
    finite sum.  Parsed rows, folds and imputed copies reuse checked rows
    (``_with_checked``) and skip these checks: each holds weight-1 rows,
    or rows of a checked dataset at their weights, so its sum is finite
    too.  A held-out
    row is checked again when ``classify`` or ``best_rule`` predicts it,
    as a learner cannot tell a checked row from another.
    """

    schema: tuple
    class_index: int
    instances: tuple = ()
    name: str = "dataset"
    _fold = None  # (parent, rows) of a train fold, not a field: see _with_checked

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "_view", [None])  # see _with_checked
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        if not 0 <= self.class_index < len(self.schema):
            raise ValueError(f"class index {self.class_index} out of range")
        if len(self.class_values) < 2:  # numeric attributes declare no values
            raise ValueError("class attribute must be nominal with two or more values")
        for row, inst in enumerate(self.instances):
            _check_instance(self.schema, inst.values, row)
        weight = total(inst.weight for inst in self.instances)
        if not math.isfinite(weight):
            raise ValueError(f"instance weights sum to {weight}, beyond the float range")

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

    def _with_checked(self, instances, fold=None):
        """This dataset over ``instances`` that were checked against its schema.

        ``fold`` is ``(parent, rows)`` for a train fold: the Dataset its
        folds were dealt from (see ``_deal_folds``) and the ascending
        positions of ``instances`` there.  The copy does not take this
        dataset's link.  Like every Dataset made, it gets its own ``_view``:
        a one-element list, not a field, where ``columns.view_of`` keeps
        the dataset's encoded view.
        """
        dataset = copy.copy(self)
        object.__setattr__(dataset, "instances", tuple(instances))
        object.__setattr__(dataset, "_fold", fold)
        object.__setattr__(dataset, "_view", [None])
        return dataset


def _cell_sets(schema):
    """One frozenset per column of ``schema``, its declared symbols and ``None``.

    None when an attribute is numeric: its cells are checked by the loop
    of ``_check_instance`` alone.
    """
    if not all(spec.is_categorical for spec in schema):
        return None
    return tuple(frozenset(spec.values + (None,)) for spec in schema)


def _row_tables(schema):
    """``(tables, cells)`` with which ``_parse_row`` reads rows of ``schema``.

    ``tables`` holds one dict per column, mapping each declared symbol to
    itself and ``'?'`` and ``''`` to None, and ``cells`` is the schema's
    ``_cell_sets``.  No two keys of a column clash, as a symbol is never
    ``'?'`` or ``''``.  None when an attribute is numeric: its tokens are
    read by the loop of ``_parse_row`` alone.
    """
    cells = _cell_sets(schema)
    if cells is None:
        return None
    return tuple({"?": None, "": None, **{v: v for v in spec.values}} for spec in schema), cells


def _check_instance(schema, instance, row=None, cells=None):
    """The values of ``instance`` (an Instance or a plain sequence), checked.

    Each value must be ``None`` (missing), a declared symbol in a categorical
    column, or a finite non-bool number in a numeric one; else ValueError,
    prefixed ``instance <row>:`` when ``row`` is given.  ``cells``, the
    schema's ``_cell_sets`` (None for a schema with a numeric attribute),
    lets a row whose every value is in its column's set pass at once.  A
    row that misses a set, or whose cell cannot be hashed, goes on to the
    per-column loop, which alone words a refusal: a row the sets accept
    passes the loop too, so the sets accept only what the loop accepts.
    """
    values = instance.values if isinstance(instance, Instance) else tuple(instance)
    where = "" if row is None else f"instance {row}: "
    if len(values) != len(schema):
        raise ValueError(f"{where}expected {len(schema)} values, got {len(values)}")
    if cells is not None:
        try:
            if all(map(contains, cells, values)):
                return values
        except Exception:  # such as an unhashable cell: the loop decides
            pass
    for spec, v in zip(schema, values):
        if v is None or v in spec.values:  # a numeric spec declares no values
            continue
        if spec.is_categorical:
            raise ValueError(f"{where}{v!r} not declared for attribute {spec.name}")
        # plain floats, the common case, skip the slower general check
        if not (type(v) is float and math.isfinite(v)) and not is_finite_number(v):
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
                tables = _row_tables(specs)
            else:
                raise ParseError(f"unrecognized declaration: {line}", lineno)
        else:
            instances.append(_parse_row(line.split(","), specs, lineno, tables))
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


def _parse_row(tokens, specs, lineno, tables=None):
    """The Instance of one data row's ``tokens``, checked by _check_instance.

    ``tables``, the schema's ``_row_tables`` (None for a schema with a
    numeric attribute), reads a row of the schema's width whose every
    token is a declared symbol, ``'?'`` or empty with one ``map``; each
    key maps to what the loop below makes of it.  Any other row, such as
    one with a padded or undeclared token, goes to that loop: it strips
    each token, and a numeric token that is not a finite number stays
    text, as does a token beyond the schema's width, for the check to
    refuse.  Either way the row is checked once, and only the check words
    a refusal.
    """
    values, cells = None, None
    if tables is not None:
        maps, cells = tables
        if len(tokens) == len(maps):
            try:
                values = tuple(map(getitem, maps, tokens))
            except KeyError:
                pass
    if values is None:
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
        values = _check_instance(specs, values, None, cells)
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

    ValueError for what parse_arff could not read back: a relation name
    that is empty, begins or ends with whitespace or holds a line break,
    a declared value with ``,``, ``}`` or a line break, or a first
    attribute's value led by ``%``, which makes its rows comments.
    Instance weights are not written; rows read back at weight 1.
    """
    name = dataset.name
    if not name or name != name.strip() or _breaks_line(name):
        raise ValueError(f"ARFF cannot hold relation name {name!r}")
    out = [f"@relation {name}", ""]
    for index, spec in enumerate(dataset.schema):
        for v in spec.values:
            unreadable = any(c in v for c in ",}") or _breaks_line(v)
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
    # strict: an unclosed quote is an error, not a cell that runs to the end
    reader = csv.reader(io.StringIO(text), strict=True)
    records, start = [], 1  # (line the record starts on, cells); blank lines dropped
    try:
        for cells in reader:
            if any(cell.strip() for cell in cells):
                records.append((start, cells))
            start = reader.line_num + 1
    except csv.Error as exc:  # such as a cell over the csv module's field size limit
        raise ParseError(str(exc), start) from None
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
    tables = _row_tables(schema)
    instances = [_parse_row(cells, schema, lineno, tables) for lineno, cells in records]
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
    """Render a Dataset as CSV with a header row; missing values become '?'.

    ValueError for a declared value holding a carriage return, which the
    csv module writes unquoted and ``parse_csv`` cannot read back.
    """
    for spec in dataset.schema:
        for v in spec.values:
            if "\r" in v:
                raise ValueError(f"attribute {spec.name}: CSV cannot hold value {v!r}")
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
    """Replace each gap outside the class by its column mean (numeric) or mode.

    Mode ties break by schema value order.  The input dataset is not
    modified; imputation is idempotent.

    Raises
    ------
    ValueError
        If some column is entirely missing (names the column).
    """
    fills = gap_fills(dataset)
    if all(f is None for f in fills):
        return dataset
    instances = []
    for inst in dataset.instances:
        values = tuple(
            fills[i] if v is None else v for i, v in enumerate(inst.values)
        )
        instances.append(Instance(values, inst.weight))
    return dataset._with_checked(instances)


def gap_fills(dataset):
    """``impute_missing``'s fill for each attribute (None where it fills none) or its ValueError."""
    fills = []
    for i, spec in enumerate(dataset.schema):
        column = dataset.column(i)
        known = [v for v in column if v is not None]
        if column and not known:
            raise ValueError(f"attribute {spec.name} is entirely missing")
        if len(known) == len(column) or i == dataset.class_index:
            fills.append(None)  # nothing to fill; a guessed class would pass as recorded
            continue
        if spec.is_categorical:
            counts = Counter(known)
            fills.append(spec.values[first_max([counts[v] for v in spec.values])])
        else:
            fills.append(total(known) / len(known))
    try:
        _check_instance(dataset.schema, fills)  # a mean can overflow to inf
    except ValueError as exc:
        raise ValueError(f"imputation failed: {exc}") from None
    return fills


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
    check_count("k", k, 2, f"need at least 2 folds, got {k}")
    if k > len(dataset):
        raise ValueError(f"cannot make {k} folds from {len(dataset)} instances")
    class_tally(dataset.rows, dataset.schema, dataset.class_index)


def _deal_folds(dataset, k, seed, groups):
    """Shuffle each group of row indices in turn, then deal them round-robin.

    The deal runs on across groups, so no fold is starved when k is near n.
    Each train fold links to its parent with its row positions there: the
    parent is the Dataset dealt from, or that Dataset's own parent if it
    is a train fold itself, so ``columns.view_of`` reads one view for all.
    """
    rng = random.Random(seed)
    for indices in groups:
        rng.shuffle(indices)
    fold_of = [0] * len(dataset)
    for cursor, idx in enumerate(chain.from_iterable(groups)):
        fold_of[idx] = cursor % k
    # one list, so that the folds' row lists share its int objects
    parent, rows = dataset._fold or (dataset, list(range(len(dataset))))
    folds = []
    for f in range(k):
        test = [inst for inst, g in zip(dataset.instances, fold_of) if g == f]
        train = [inst for inst, g in zip(dataset.instances, fold_of) if g != f]
        train_rows = [row for row, g in zip(rows, fold_of) if g != f]
        folds.append((dataset._with_checked(train, (parent, train_rows)), dataset._with_checked(test)))
    return folds
