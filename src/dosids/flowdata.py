"""Flow-record CSV ingestion and preprocessing.

The cleaning order is: load -> drop socket/constant columns -> split ->
fit category lists and min-max ranges on the training split only ->
encode and normalize both splits. Until one-hot encoding runs, each
categorical column occupies one matrix slot holding a float code that
indexes into the schema's category list; numeric columns hold their
values directly.
"""

import csv
import logging
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

log = logging.getLogger(__name__)

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_LABEL = "label"
KIND_SOCKET = "socket"
KIND_CONSTANT = "constant"

RETAINED_KINDS = (KIND_NUMERIC, KIND_CATEGORICAL)

# Rows load_flow_csv parses per step: large enough that the per-column
# numpy calls are cheap per row, small enough that one chunk's strings
# stay a few hundred KB whatever the file size.
CHUNK_ROWS = 1024

# Column names the two benchmark flow layouts (UNSW-NB15, CICFlowMeter)
# use for addresses, ports, flow ids and timestamps; the default list is
# both, always overridable by the caller.
SOCKET_LAYOUTS = (
    ("srcip", "sport", "dstip", "dsport", "stime", "ltime"),
    ("Flow ID", "Source IP", "Source Port", "Destination IP",
     "Destination Port", "Timestamp"),
)
DEFAULT_SOCKET_COLUMNS = [name for layout in SOCKET_LAYOUTS for name in layout]


@dataclass
class ColumnSchema:
    name: str
    kind: str
    categories: list[str] | None = None


@dataclass
class MinMaxParams:
    columns: list[str]
    x_mn: np.ndarray
    x_mx: np.ndarray


@dataclass
class Dataset:
    """Immutable by convention: every transformation returns a new one."""

    features: np.ndarray            # float64 [rows, retained columns]
    labels: np.ndarray              # int64 [rows]
    class_names: list[str]
    schema: list[ColumnSchema]      # all input columns, dropped ones marked

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def retained(self) -> list[ColumnSchema]:
        return [c for c in self.schema if c.kind in RETAINED_KINDS]

    def feature_names(self) -> list[str]:
        return [c.name for c in self.retained()]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(self.class_names))


def _chunks(reader):
    """Raw CSV rows in lists of at most CHUNK_ROWS."""
    while chunk := list(islice(reader, CHUNK_ROWS)):
        yield chunk


def _encode(codes: dict[str, int], values, dtype) -> np.ndarray:
    """Code stripped values by first appearance, extending `codes`."""
    return np.array([codes.setdefault(v.strip(), len(codes)) for v in values], dtype=dtype)


def _parse_finite(values) -> np.ndarray | None:
    """The column as float64, or None if a value is not a finite float."""
    try:
        parsed = np.fromiter(map(float, values), np.float64, len(values))
    except ValueError:
        # float() strips whitespace itself, except \x1c-\x1f, which
        # str.strip() also removes
        try:
            parsed = np.fromiter(map(float, map(str.strip, values)), np.float64,
                                 len(values))
        except ValueError:
            return None
    return parsed if np.isfinite(parsed).all() else None


def load_flow_csv(path, label_column: str) -> Dataset:
    """Read a header-ed CSV into a raw Dataset.

    A column is numeric if every value parses as a finite float,
    categorical otherwise. Rows with the wrong field count are rejected;
    more than 1% rejections fails the load.

    The file is parsed column by column in chunks of CHUNK_ROWS rows, so
    only one chunk's strings are held at a time. A column that stops
    parsing after its first chunk is coded from a second read of the
    file, because the strings of its earlier chunks are gone by then.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
        width = len(header)
        label_idx = header.index(label_column)
        numeric = set(range(width)) - {label_idx}   # every value so far finite
        codes: dict[int, dict[str, int]] = {label_idx: {}}
        reread: list[int] = []
        parts: list[list[np.ndarray]] = [[] for _ in range(width)]
        n_rows = rejected = 0
        for chunk in _chunks(reader):
            rows = [line for line in chunk if len(line) == width]
            rejected += len(chunk) - len(rows)
            if not rows:
                continue
            for c, values in enumerate(zip(*rows)):
                if c in numeric:
                    parsed = _parse_finite(values)
                    if parsed is not None:
                        parts[c].append(parsed)
                        continue
                    numeric.discard(c)
                    if n_rows:      # earlier chunks' strings are gone
                        reread.append(c)
                        parts[c] = []
                        continue
                    codes[c] = {}
                if c in codes:
                    dtype = np.int64 if c == label_idx else np.float64
                    parts[c].append(_encode(codes[c], values, dtype))
            n_rows += len(rows)
    total = n_rows + rejected
    if rejected:
        log.warning("%s: rejected %d/%d malformed rows", path, rejected, total)
    if total == 0:
        raise ValueError(f"{path}: no data rows")
    if rejected / total > 0.01:
        raise ValueError(f"{path}: {rejected}/{total} rows malformed (>1%)")
    if reread:
        _encode_from_file(path, width, reread, codes, parts)

    schema: list[ColumnSchema] = []
    slots: list[int] = []
    for c, name in enumerate(header):
        if c == label_idx:
            schema.append(ColumnSchema(name, KIND_LABEL))
            continue
        schema.append(ColumnSchema(name, KIND_NUMERIC) if c in numeric
                      else ColumnSchema(name, KIND_CATEGORICAL, list(codes[c])))
        slots.append(c)
    features = np.empty((n_rows, len(slots)), dtype=np.float64)
    for j, c in enumerate(slots):
        features[:, j] = np.concatenate(parts[c])
        parts[c] = []
    return Dataset(features=features, labels=np.concatenate(parts[label_idx]),
                   class_names=list(codes[label_idx]), schema=schema)


def _encode_from_file(path, width: int, columns: list[int],
                      codes: dict[int, dict[str, int]], parts: list[list[np.ndarray]]):
    """Code `columns` as categorical from a fresh read of the whole file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for c in columns:
            codes[c] = {}
        for chunk in _chunks(reader):
            rows = [line for line in chunk if len(line) == width]
            for c in columns:
                parts[c].append(_encode(codes[c], (line[c] for line in rows), np.float64))


def drop_socket_and_constant_features(d: Dataset, socket_names: list[str]) -> Dataset:
    """Remove socket-named columns and columns constant across all rows.

    Dropped columns stay in the schema with their kind flipped to
    socket/constant for audit; their category lists, which nothing reads
    once the column is gone, are cleared. Idempotent: a second pass finds
    nothing. A missing name is logged, except that under the default list
    a file is expected to carry one of its layouts, so only names of a
    layout the file partly has are logged.
    """
    known = {c.name for c in d.schema}
    expected = socket_names
    if list(socket_names) == DEFAULT_SOCKET_COLUMNS:
        expected = [name for layout in SOCKET_LAYOUTS if known.intersection(layout)
                    for name in layout]
    for name in expected:
        if name not in known:
            log.warning("socket column %r not present, ignoring", name)
    socket_set = set(socket_names)

    new_schema: list[ColumnSchema] = []
    keep_slots: list[int] = []
    slot = 0
    for col in d.schema:
        if col.kind not in RETAINED_KINDS:
            new_schema.append(col)
            continue
        values = d.features[:, slot]
        if col.name in socket_set:
            new_schema.append(replace(col, kind=KIND_SOCKET, categories=None))
        elif d.n_rows > 0 and np.all(values == values[0]):
            new_schema.append(replace(col, kind=KIND_CONSTANT, categories=None))
        else:
            new_schema.append(col)
            keep_slots.append(slot)
        slot += 1

    features = d.features[:, keep_slots] if keep_slots else np.empty((d.n_rows, 0))
    return replace(d, features=features, schema=new_schema)


def fit_categories(train: Dataset) -> dict[str, list[str]]:
    """Category list per categorical column, ordered by first appearance
    in the training rows (not the full file)."""
    fitted: dict[str, list[str]] = {}
    for slot, col in enumerate(train.retained()):
        if col.kind == KIND_CATEGORICAL:
            # codes and category strings map one to one
            codes, first = np.unique(train.features[:, slot], return_index=True)
            fitted[col.name] = [col.categories[int(codes[i])] for i in np.argsort(first)]
    return fitted


def one_hot_encode(d: Dataset, categories: dict[str, list[str]] | None = None) -> Dataset:
    """Replace each categorical column with one 0/1 column per category.

    `categories` should come from fit_categories on the training split;
    omitted, it is fitted on `d` itself. Values outside the fitted list
    encode as an all-zero block (logged).
    """
    if categories is None:
        categories = fit_categories(d)
    new_schema: list[ColumnSchema] = []
    blocks: list[np.ndarray] = []
    slot = 0
    for col in d.schema:
        if col.kind not in RETAINED_KINDS:
            new_schema.append(col)
            continue
        if col.kind == KIND_NUMERIC:
            new_schema.append(col)
            blocks.append(d.features[:, slot:slot + 1])
        else:
            cats = categories.get(col.name)
            if cats is None:
                raise ValueError(f"no fitted categories for column {col.name!r}")
            # block column of each code; -1 for a value outside the fitted list
            index = {v: j for j, v in enumerate(cats)}
            lookup = np.array([index.get(v, -1) for v in col.categories], dtype=np.intp)
            columns = lookup[d.features[:, slot].astype(np.intp)]
            unseen = int((columns < 0).sum())
            if unseen:
                log.warning("column %r: %d rows with categories unseen at fit "
                            "time encoded as all-zeros", col.name, unseen)
            blocks.append((columns[:, None] == np.arange(len(cats))).astype(np.float64))
            for cat in cats:
                new_schema.append(ColumnSchema(f"{col.name}={cat}", KIND_NUMERIC))
        slot += 1
    features = (np.concatenate(blocks, axis=1) if blocks
                else np.empty((d.n_rows, 0), dtype=np.float64))
    return replace(d, features=features, schema=new_schema)


def min_max_fit(train: Dataset) -> MinMaxParams:
    if train.n_rows == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    return MinMaxParams(columns=train.feature_names(),
                        x_mn=train.features.min(axis=0),
                        x_mx=train.features.max(axis=0))


def min_max_apply(d: Dataset, p: MinMaxParams) -> Dataset:
    """Map every value through (x - min) / (max - min) into [0, 1].

    Zero-range columns map to 0.0; values outside the fitted range (test
    rows) clamp to the interval ends.
    """
    if d.feature_names() != p.columns:
        raise ValueError("normalization params were fitted on a different schema")
    span = p.x_mx - p.x_mn
    safe = np.where(span > 0, span, 1.0)
    scaled = (d.features - p.x_mn) / safe
    scaled[:, span == 0] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return replace(d, features=scaled)


def per_class_draw(labels: np.ndarray, n_classes: int, take, seed: int):
    """Draw `take(n)` rows at random from each class of n rows, with one
    permutation per class in class order. Returns the drawn and the
    remaining row indices, each sorted."""
    rng = np.random.default_rng(seed)
    drawn: list[np.ndarray] = []
    rest: list[np.ndarray] = []
    for c in range(n_classes):
        members = np.flatnonzero(labels == c)
        perm = rng.permutation(len(members))
        n = take(len(members))
        drawn.append(members[perm[:n]])
        rest.append(members[perm[n:]])
    return np.sort(np.concatenate(drawn)), np.sort(np.concatenate(rest))


def stratified_split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Per-class random split; every class lands within rounding distance
    of `train_fraction`. Row order inside each part keeps the input order."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    counts = d.class_counts()
    tiny = [d.class_names[c] for c in range(len(counts)) if counts[c] < 2]
    if tiny:
        raise ValueError(f"classes with fewer than 2 rows cannot be split: {tiny}")
    tr, te = per_class_draw(d.labels, len(d.class_names),
                            lambda n: min(max(round(n * train_fraction), 1), n - 1), seed)
    return (replace(d, features=d.features[tr], labels=d.labels[tr]),
            replace(d, features=d.features[te], labels=d.labels[te]))


def subsample(d: Dataset, max_rows: int, seed: int) -> Dataset:
    """Stratified row-count cap used by the desk preset."""
    if d.n_rows <= max_rows:
        return d
    frac = max_rows / d.n_rows
    idx, _ = per_class_draw(d.labels, len(d.class_names),
                            lambda n: max(2, round(n * frac)) if n >= 2 else n, seed)
    return replace(d, features=d.features[idx], labels=d.labels[idx])


def write_clean_csv(d: Dataset, path):
    """Dump the post-preprocessing matrix plus the label as class names."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(d.feature_names() + ["label"])
        for r in range(d.n_rows):
            writer.writerow([repr(float(v)) for v in d.features[r]]
                            + [d.class_names[d.labels[r]]])
