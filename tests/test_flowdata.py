"""Preprocessing contracts: parsing, column dropping, encoding,
normalization, and the stratified split."""

import csv
import logging
import math

import numpy as np
import pytest

from dosids import flowdata as fd
from conftest import cluster_dataset


def reference_load(path, label_column: str) -> fd.Dataset:
    """The per-cell loader that the chunked one replaced, kept as its
    oracle: the whole file as rows, then each column stripped, parsed
    cell by cell and typed all or nothing."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows, rejected = [], 0
        for line in reader:
            if len(line) == len(header):
                rows.append(line)
            else:
                rejected += 1
    total = len(rows) + rejected
    if total == 0:
        raise ValueError(f"{path}: no data rows")
    if rejected / total > 0.01:
        raise ValueError(f"{path}: {rejected}/{total} rows malformed (>1%)")

    def finite(value):
        try:
            v = float(value)
        except ValueError:
            return None
        return v if math.isfinite(v) else None

    label_idx = header.index(label_column)
    class_codes: dict[str, int] = {}
    labels = np.empty(len(rows), dtype=np.int64)
    for r, row in enumerate(rows):
        labels[r] = class_codes.setdefault(row[label_idx].strip(), len(class_codes))
    schema, columns = [], []
    for c, name in enumerate(header):
        if c == label_idx:
            schema.append(fd.ColumnSchema(name, fd.KIND_LABEL))
            continue
        raw = [row[c].strip() for row in rows]
        parsed = [finite(v) for v in raw]
        if all(p is not None for p in parsed):
            schema.append(fd.ColumnSchema(name, fd.KIND_NUMERIC))
            columns.append(np.array(parsed, dtype=np.float64))
        else:
            codes: dict[str, int] = {}
            col = np.empty(len(raw), dtype=np.float64)
            for r, v in enumerate(raw):
                col[r] = codes.setdefault(v, len(codes))
            schema.append(fd.ColumnSchema(name, fd.KIND_CATEGORICAL, list(codes)))
            columns.append(col)
    features = (np.column_stack(columns) if columns
                else np.empty((len(rows), 0), dtype=np.float64))
    return fd.Dataset(features=features, labels=labels,
                      class_names=list(class_codes), schema=schema)


def assert_same_dataset(got: fd.Dataset, want: fd.Dataset):
    assert got.schema == want.schema
    assert got.class_names == want.class_names
    for a, b in ((got.features, want.features), (got.labels, want.labels)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_same_load(path, label_column="label"):
    """load_flow_csv and the reference give the same Dataset byte for
    byte, or raise the same error."""
    try:
        want = reference_load(path, label_column)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            fd.load_flow_csv(path, label_column)
        assert str(err.value) == str(exc)
        return None
    got = fd.load_flow_csv(path, label_column)
    assert_same_dataset(got, want)
    return got


def reference_fit_categories(train: fd.Dataset) -> dict[str, list[str]]:
    """The string-based fit that the code-based one replaced, kept as its
    oracle: every cell mapped back to its string, row by row."""
    fitted: dict[str, list[str]] = {}
    slot = 0
    for col in train.schema:
        if col.kind not in fd.RETAINED_KINDS:
            continue
        if col.kind == fd.KIND_CATEGORICAL:
            seen: list[str] = []
            for code in train.features[:, slot]:
                value = col.categories[int(code)]
                if value not in seen:
                    seen.append(value)
            fitted[col.name] = seen
        slot += 1
    return fitted


def reference_one_hot_encode(d: fd.Dataset, categories: dict[str, list[str]]):
    """The string-based encoder that the code-based one replaced, kept as
    its oracle. Returns the encoded Dataset and the unseen count per
    categorical column."""
    schema, blocks, unseen = [], [], {}
    slot = 0
    for col in d.schema:
        if col.kind not in fd.RETAINED_KINDS:
            schema.append(col)
            continue
        if col.kind == fd.KIND_NUMERIC:
            schema.append(col)
            blocks.append(d.features[:, slot:slot + 1])
        else:
            cats = categories[col.name]
            index = {v: j for j, v in enumerate(cats)}
            block = np.zeros((d.n_rows, len(cats)), dtype=np.float64)
            unseen[col.name] = 0
            for r, code in enumerate(d.features[:, slot]):
                j = index.get(col.categories[int(code)])
                if j is None:
                    unseen[col.name] += 1
                else:
                    block[r, j] = 1.0
            blocks.append(block)
            schema += [fd.ColumnSchema(f"{col.name}={cat}", fd.KIND_NUMERIC) for cat in cats]
        slot += 1
    features = (np.concatenate(blocks, axis=1) if blocks
                else np.empty((d.n_rows, 0), dtype=np.float64))
    return fd.Dataset(features, d.labels, d.class_names, schema), unseen


def reference_stratified_split(d: fd.Dataset, train_fraction: float, seed: int):
    """The split's own per-class draw before `per_class_draw`, kept as its
    oracle."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(len(d.class_names)):
        members = np.flatnonzero(d.labels == c)
        n_train = int(round(len(members) * train_fraction))
        n_train = min(max(n_train, 1), len(members) - 1)
        perm = rng.permutation(len(members))
        train_idx.append(np.sort(members[perm[:n_train]]))
        test_idx.append(np.sort(members[perm[n_train:]]))
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))
    return (fd.Dataset(d.features[tr], d.labels[tr], d.class_names, d.schema),
            fd.Dataset(d.features[te], d.labels[te], d.class_names, d.schema))


def reference_subsample(d: fd.Dataset, max_rows: int, seed: int) -> fd.Dataset:
    """The row cap's own per-class draw before `per_class_draw`, kept as
    its oracle."""
    rng = np.random.default_rng(seed)
    counts = d.class_counts()
    frac = max_rows / d.n_rows
    keep = []
    for c in range(len(d.class_names)):
        members = np.flatnonzero(d.labels == c)
        n_keep = max(2, int(round(counts[c] * frac))) if counts[c] >= 2 else counts[c]
        perm = rng.permutation(len(members))
        keep.append(members[perm[:n_keep]])
    idx = np.sort(np.concatenate(keep))
    return fd.Dataset(d.features[idx], d.labels[idx], d.class_names, d.schema)


def assert_same_encoding(raw: fd.Dataset, train_fraction: float, seed: int,
                         caplog, categories=None) -> dict:
    """Split, fit and encode both splits as ingest does, and check each
    step against the references byte for byte, the unseen-category log
    lines included. `categories` replaces the fitted lists. Returns the
    unseen counts of the test split."""
    train, test = fd.stratified_split(raw, train_fraction, seed)
    ref_train, ref_test = reference_stratified_split(raw, train_fraction, seed)
    assert_same_dataset(train, ref_train)
    assert_same_dataset(test, ref_test)
    fitted = fd.fit_categories(train)
    assert fitted == reference_fit_categories(train)
    if categories is not None:
        fitted = categories
    for split in (train, test):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dosids.flowdata"):
            got = fd.one_hot_encode(split, fitted)
        want, unseen = reference_one_hot_encode(split, fitted)
        assert_same_dataset(got, want)
        assert [r.getMessage() for r in caplog.records] == [
            f"column {name!r}: {n} rows with categories unseen at fit time "
            f"encoded as all-zeros" for name, n in unseen.items() if n]
    return unseen


def numeric_rows(n, late=None, at=None):
    """n rows of a numeric column `a`, a column `b` that is numeric except
    for the value `late` in row `at`, a categorical `proto` and a label."""
    rows = []
    for r in range(n):
        b = late if r == at else f"{r * 0.25 - 1.0!r}"
        rows.append(f"{r},{b},{('tcp', 'udp', 'icmp')[r % 3]},{'xy'[r % 2]}")
    return "a,b,proto,label\n" + "\n".join(rows) + "\n"


CHUNKED_CASES = {
    "3 rows": numeric_rows(3),
    "4 rows": numeric_rows(4),
    "5 rows": numeric_rows(5),
    "9 rows": numeric_rows(9),
    "word in first chunk": numeric_rows(9, "http", 2),
    "word in second chunk": numeric_rows(9, "http", 4),
    "Infinity in last chunk": numeric_rows(9, "Infinity", 8),
    "nan in later chunk": numeric_rows(9, "nan", 5),
    "empty cell in later chunk": numeric_rows(9, "", 7),
    "-inf in later chunk": numeric_rows(9, " -inf ", 6),
    "padding": ("a,b,label\n 1.5 ,\t2, x\n3 ,4,x \n\x1c5\x1c,6,y\n"
                "7,\x1c8,x\n 9,10 ,\ty\n"),
    "padding turns categorical later": ("a,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n"
                                        " 9 , word ,x\n9,word,y\n"),
    "quoted fields": ('a,proto,label\n1,"tcp,syn",x\n"2",udp,"y,z"\n3,"multi\nline",x\n'
                      '4,"tcp,syn",y\n"5\n",udp,x\n6,"a ""quoted"" one",x\n'),
    "label only": "label\nx\ny\nx\n",
    "header only": "a,b,label\n",
    "malformed over 1%": numeric_rows(9).replace("\n5,", "\n5,0,"),
    "malformed under 1%": "\n".join(
        line + (",extra" if i in (3, 150) else "")
        for i, line in enumerate(numeric_rows(240, "Infinity", 200).split("\n"))),
    "first chunk all malformed": "\n".join(
        line + (",extra" if 1 <= i <= 4 else "")
        for i, line in enumerate(numeric_rows(500, "word", 100).split("\n"))),
    "blank lines": numeric_rows(9).replace("\n3,", "\n\n3,") + "\n" * 2,
}


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_chunked_load_matches_reference(case, tmp_path, monkeypatch):
    monkeypatch.setattr(fd, "CHUNK_ROWS", 4)
    path = tmp_path / "t.csv"
    path.write_text(CHUNKED_CASES[case], encoding="utf-8", newline="")
    assert_same_load(path)


def test_chunked_load_column_kinds(tmp_path, monkeypatch):
    """A value that stops a column parsing in a later chunk types the
    whole column categorical, the earlier numbers included."""
    monkeypatch.setattr(fd, "CHUNK_ROWS", 4)
    path = tmp_path / "t.csv"
    path.write_text(numeric_rows(9, "Infinity", 8), encoding="utf-8")
    ds = assert_same_load(path)
    kinds = {c.name: (c.kind, c.categories) for c in ds.schema}
    assert kinds["a"] == (fd.KIND_NUMERIC, None)
    assert kinds["b"][0] == fd.KIND_CATEGORICAL
    assert kinds["b"][1][:2] == ["-1.0", "-0.75"] and kinds["b"][1][-1] == "Infinity"
    assert np.array_equal(ds.features[:, 1], np.arange(9.0))


def test_load_full_size_chunks_match_reference(tmp_path):
    """More rows than one default chunk, with a word after the first."""
    path = tmp_path / "t.csv"
    path.write_text(numeric_rows(fd.CHUNK_ROWS * 2 + 5, "word", fd.CHUNK_ROWS + 3),
                    encoding="utf-8")
    ds = assert_same_load(path)
    assert ds.n_rows == fd.CHUNK_ROWS * 2 + 5


def test_load_basic_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,label\n1,2,3,x\n4,5,6,y\n7,8,9,x\n1,1,1,y\n")
    ds = fd.load_flow_csv(path, "label")
    assert ds.n_rows == 4 and ds.n_features == 3
    assert ds.class_names == ["x", "y"]
    assert np.array_equal(ds.labels, [0, 1, 0, 1])


def test_load_two_label_values(flow_csv):
    ds = fd.load_flow_csv(flow_csv, "label")
    assert len(ds.class_names) == 2


def test_load_ten_class_labels(tmp_path):
    names = ["Normal", "Exploits", "Reconnaissance", "DoS", "Generic",
             "Shellcode", "Fuzzers", "Backdoors", "Worms", "Analysis"]
    lines = ["f1,attack_cat"] + [f"{i},{names[i % 10]}" for i in range(40)]
    path = tmp_path / "unsw.csv"
    path.write_text("\n".join(lines) + "\n")
    ds = fd.load_flow_csv(path, "attack_cat")
    assert len(ds.class_names) == 10


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        fd.load_flow_csv(tmp_path / "nope.csv", "label")


def test_load_missing_label_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="label"):
        fd.load_flow_csv(path, "label")


def test_load_rejects_malformed_rows_over_threshold(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["a,label"] + ["1,x"] * 50 + ["1,2,3"]  # 1 bad of 51 -> ~2%
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="malformed"):
        fd.load_flow_csv(path, "label")


def test_load_tolerates_malformed_rows_under_threshold(tmp_path):
    path = tmp_path / "ok.csv"
    rows = ["a,label"] + ["1,x"] * 60 + ["2,y"] * 60 + ["1,2,3"]
    path.write_text("\n".join(rows) + "\n")
    ds = fd.load_flow_csv(path, "label")
    assert ds.n_rows == 120


def test_kind_inference_nonfinite_is_categorical(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,label\n1,Infinity,x\n2,3,y\n")
    ds = fd.load_flow_csv(path, "label")
    kinds = {c.name: c.kind for c in ds.schema}
    assert kinds["a"] == fd.KIND_NUMERIC
    assert kinds["b"] == fd.KIND_CATEGORICAL


def test_drop_socket_and_constant(flow_csv):
    ds = fd.load_flow_csv(flow_csv, "label")
    out = fd.drop_socket_and_constant_features(ds, ["src_ip"])
    kinds = {c.name: c.kind for c in out.schema}
    assert kinds["src_ip"] == fd.KIND_SOCKET
    assert kinds["const_col"] == fd.KIND_CONSTANT
    assert "src_ip" not in out.feature_names()
    assert "const_col" not in out.feature_names()
    assert out.n_features == ds.n_features - 2
    categories = {c.name: c.categories for c in out.schema}
    assert categories["src_ip"] is None
    assert categories["proto"] == ["tcp", "udp", "icmp"]


def test_drop_clears_categories_of_dropped_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ip,flag,proto,label\n1.2.3.4,A,tcp,x\n5.6.7.8,A,udp,y\n"
                    "1.2.3.4,A,tcp,y\n")
    out = fd.drop_socket_and_constant_features(fd.load_flow_csv(path, "label"), ["ip"])
    schema = {c.name: (c.kind, c.categories) for c in out.schema}
    assert schema["ip"] == (fd.KIND_SOCKET, None)
    assert schema["flag"] == (fd.KIND_CONSTANT, None)
    assert schema["proto"] == (fd.KIND_CATEGORICAL, ["tcp", "udp"])


def test_drop_unknown_socket_name_warns(flow_csv, caplog):
    ds = fd.load_flow_csv(flow_csv, "label")
    with caplog.at_level(logging.WARNING):
        out = fd.drop_socket_and_constant_features(ds, ["no_such_column"])
    assert "no_such_column" in caplog.text
    assert out.n_features == ds.n_features - 1  # constant column still goes


def _layout_csv(path, socket_names):
    """Six flows with the given socket columns, a numeric and a label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(list(socket_names) + ["dur", "label"]) + "\n")
        for r in range(6):
            fh.write(",".join([f"s{r}"] * len(socket_names) + [str(r), "ab"[r % 2]]) + "\n")
    return path


@pytest.mark.parametrize("layout", [0, 1], ids=["unsw", "cic"])
def test_default_socket_list_is_quiet_on_either_layout(tmp_path, caplog, layout):
    names = fd.SOCKET_LAYOUTS[layout]
    ds = fd.load_flow_csv(_layout_csv(tmp_path / "f.csv", names), "label")
    with caplog.at_level(logging.WARNING, logger="dosids.flowdata"):
        out = fd.drop_socket_and_constant_features(ds, list(fd.DEFAULT_SOCKET_COLUMNS))
    assert caplog.records == []
    assert [c.name for c in out.schema if c.kind == fd.KIND_SOCKET] == list(names)


def test_default_socket_list_warns_about_a_partial_layout(tmp_path, caplog):
    ds = fd.load_flow_csv(_layout_csv(tmp_path / "f.csv", ["srcip", "dstip"]), "label")
    with caplog.at_level(logging.WARNING, logger="dosids.flowdata"):
        fd.drop_socket_and_constant_features(ds, list(fd.DEFAULT_SOCKET_COLUMNS))
    assert [r.getMessage() for r in caplog.records] == [
        f"socket column {name!r} not present, ignoring"
        for name in ("sport", "dsport", "stime", "ltime")]


def test_drop_is_idempotent(flow_csv):
    ds = fd.load_flow_csv(flow_csv, "label")
    once = fd.drop_socket_and_constant_features(ds, ["src_ip"])
    twice = fd.drop_socket_and_constant_features(once, ["src_ip"])
    assert np.array_equal(once.features, twice.features)
    assert [c.kind for c in once.schema] == [c.kind for c in twice.schema]


def test_drop_nothing_is_identity():
    ds = cluster_dataset(0, [10, 10], n_features=4)
    out = fd.drop_socket_and_constant_features(ds, [])
    assert np.array_equal(out.features, ds.features)


def test_one_hot_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("proto,label\ntcp,x\nudp,y\ntcp,x\n")
    ds = fd.load_flow_csv(path, "label")
    out = fd.one_hot_encode(ds)
    assert out.feature_names() == ["proto=tcp", "proto=udp"]
    assert np.array_equal(out.features, [[1, 0], [0, 1], [1, 0]])


def test_one_hot_unseen_category_zeros(tmp_path, caplog):
    path = tmp_path / "t.csv"
    path.write_text("proto,label\ntcp,x\nudp,y\nicmp,x\n")
    ds = fd.load_flow_csv(path, "label")
    fitted = {"proto": ["tcp", "udp"]}  # icmp held out at fit time
    with caplog.at_level(logging.WARNING):
        out = fd.one_hot_encode(ds, fitted)
    assert "unseen" in caplog.text
    assert np.array_equal(out.features, [[1, 0], [0, 1], [0, 0]])


def test_one_hot_no_categoricals_is_identity():
    ds = cluster_dataset(1, [8, 8], n_features=5)
    out = fd.one_hot_encode(ds)
    assert np.array_equal(out.features, ds.features)
    assert out.feature_names() == ds.feature_names()


def test_one_hot_rows_sum_to_categorical_count(flow_csv):
    ds = fd.load_flow_csv(flow_csv, "label")
    ds = fd.drop_socket_and_constant_features(ds, ["src_ip"])
    out = fd.one_hot_encode(ds)
    block = [i for i, name in enumerate(out.feature_names()) if "=" in name]
    assert np.array_equal(out.features[:, block].sum(axis=1),
                          np.full(out.n_rows, 2.0))  # proto and flags blocks


def test_fit_categories_first_seen_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("proto,label\nudp,x\ntcp,y\nudp,x\nicmp,y\n")
    ds = fd.load_flow_csv(path, "label")
    assert fd.fit_categories(ds) == {"proto": ["udp", "tcp", "icmp"]}


def test_encoding_matches_reference_on_flow_csv(flow_csv, caplog):
    raw = fd.drop_socket_and_constant_features(fd.load_flow_csv(flow_csv, "label"),
                                               ["src_ip"])
    for seed in range(4):
        assert_same_encoding(raw, 0.5, seed, caplog)


def test_encoding_matches_reference_when_train_order_differs(tmp_path, caplog):
    """Row 0 (tcp) lands in the test split, so the training rows first
    show udp, then icmp, then tcp: fitted order is not code order."""
    path = tmp_path / "t.csv"
    path.write_text(numeric_rows(12), encoding="utf-8")
    raw = fd.load_flow_csv(path, "label")
    train, test = fd.stratified_split(raw, 0.5, seed=2)
    assert 0.0 in test.features[:, 0] and 0.0 not in train.features[:, 0]
    assert fd.fit_categories(train) == {"proto": ["udp", "icmp", "tcp"]}
    assert_same_encoding(raw, 0.5, 2, caplog)


def test_encoding_matches_reference_on_unseen_values(tmp_path, caplog):
    """Values the fitted list lacks encode as zeros and are counted: tcp
    is in no training row under seed 3, and a given list may lack more."""
    path = tmp_path / "t.csv"
    path.write_text(numeric_rows(12), encoding="utf-8")
    raw = fd.load_flow_csv(path, "label")
    assert assert_same_encoding(raw, 0.5, 3, caplog) == {"proto": 4}
    assert assert_same_encoding(raw, 0.5, 3, caplog, {"proto": ["tcp"]}) == {"proto": 2}
    _, test = fd.stratified_split(raw, 0.5, seed=3)
    out = fd.one_hot_encode(test, {"proto": ["tcp"]})
    assert out.feature_names()[-1] == "proto=tcp"
    assert np.array_equal(out.features[:, -1], [1, 0, 1, 0, 1, 1])


def test_encoding_matches_reference_on_a_reread_column(tmp_path, monkeypatch, caplog):
    """Column b turns categorical in its second chunk, so its codes come
    from the second read of the file."""
    monkeypatch.setattr(fd, "CHUNK_ROWS", 4)
    path = tmp_path / "t.csv"
    path.write_text(numeric_rows(11, "http", 6), encoding="utf-8")
    raw = fd.load_flow_csv(path, "label")
    assert {c.name: c.kind for c in raw.schema}["b"] == fd.KIND_CATEGORICAL
    for seed in range(4):
        unseen = assert_same_encoding(raw, 0.6, seed, caplog)
        assert unseen["b"] > 0      # every b value is distinct


def test_min_max_fit_values():
    ds = cluster_dataset(2, [6, 6], n_features=3)
    ds.features[:, 0] = [0, 5, 10, 2, 7, 1, 3, 9, 4, 6, 8, 2.5]
    params = fd.min_max_fit(ds)
    assert params.x_mn[0] == 0.0 and params.x_mx[0] == 10.0


def test_min_max_fit_empty_rejected():
    ds = cluster_dataset(3, [4], n_features=2)
    empty = fd.Dataset(ds.features[:0], ds.labels[:0], ds.class_names, ds.schema)
    with pytest.raises(ValueError):
        fd.min_max_fit(empty)


def test_min_max_apply_endpoints_and_midpoint():
    ds = cluster_dataset(4, [4], n_features=1)
    ds.features[:, 0] = [0.0, 5.0, 10.0, 10.0]
    out = fd.min_max_apply(ds, fd.min_max_fit(ds))
    assert np.allclose(out.features[:, 0], [0.0, 0.5, 1.0, 1.0])


def test_min_max_apply_clamps_out_of_range():
    train = cluster_dataset(5, [4], n_features=1)
    train.features[:, 0] = [0.0, 4.0, 8.0, 10.0]
    params = fd.min_max_fit(train)
    test = fd.Dataset(np.array([[12.0], [-3.0]]), np.array([0, 0]),
                      train.class_names, train.schema)
    out = fd.min_max_apply(test, params)
    assert np.array_equal(out.features[:, 0], [1.0, 0.0])


def test_min_max_apply_zero_range_maps_to_zero():
    train = cluster_dataset(6, [4], n_features=2)
    train.features[:, 1] = 7.0
    out = fd.min_max_apply(train, fd.min_max_fit(train))
    assert np.all(out.features[:, 1] == 0.0)


def test_min_max_apply_schema_mismatch():
    a = cluster_dataset(7, [4], n_features=3)
    b = cluster_dataset(7, [4], n_features=2)
    with pytest.raises(ValueError):
        fd.min_max_apply(b, fd.min_max_fit(a))


def test_min_max_train_hits_exact_bounds():
    ds = cluster_dataset(9, [30], n_features=5)
    out = fd.min_max_apply(ds, fd.min_max_fit(ds))
    assert np.all(out.features >= 0.0) and np.all(out.features <= 1.0)
    assert np.allclose(out.features.min(axis=0), 0.0)
    assert np.allclose(out.features.max(axis=0), 1.0)


def test_stratified_split_70_30():
    ds = cluster_dataset(10, [50, 50], n_features=4)
    train, test = fd.stratified_split(ds, 0.7, seed=3)
    assert np.array_equal(train.class_counts(), [35, 35])
    assert np.array_equal(test.class_counts(), [15, 15])


def test_stratified_split_half_of_ten():
    ds = cluster_dataset(11, [10], n_features=3)
    train, test = fd.stratified_split(ds, 0.5, seed=1)
    assert train.n_rows == 5 and test.n_rows == 5


def test_stratified_split_deterministic():
    ds = cluster_dataset(12, [30, 20, 10], n_features=4)
    a_train, a_test = fd.stratified_split(ds, 0.7, seed=9)
    b_train, b_test = fd.stratified_split(ds, 0.7, seed=9)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_stratified_split_partition():
    ds = cluster_dataset(13, [17, 23], n_features=3)
    train, test = fd.stratified_split(ds, 0.6, seed=5)
    key = lambda m: sorted(map(tuple, m))
    assert key(np.vstack([train.features, test.features])) == key(ds.features)
    assert train.n_rows + test.n_rows == ds.n_rows


def test_stratified_split_proportions_within_one_row():
    ds = cluster_dataset(14, [13, 37, 111], n_features=3)
    train, _ = fd.stratified_split(ds, 0.7, seed=2)
    for c, n in enumerate([13, 37, 111]):
        assert abs(train.class_counts()[c] - 0.7 * n) <= 1.0


def test_stratified_split_rejects_tiny_class():
    ds = cluster_dataset(15, [10, 1], n_features=3, shuffle=False)
    with pytest.raises(ValueError, match="fewer than 2"):
        fd.stratified_split(ds, 0.7, seed=0)


def test_stratified_split_rejects_bad_fraction():
    ds = cluster_dataset(16, [10, 10], n_features=3)
    with pytest.raises(ValueError):
        fd.stratified_split(ds, 1.0, seed=0)


def test_subsample_caps_rows():
    ds = cluster_dataset(17, [300, 200, 100], n_features=4)
    out = fd.subsample(ds, 60, seed=4)
    assert out.n_rows <= 66  # per-class rounding slack
    counts = out.class_counts()
    assert counts.min() >= 2
    assert fd.subsample(ds, 10_000, seed=4) is ds


def test_subsample_matches_reference_with_a_one_row_class():
    ds = cluster_dataset(19, [40, 25, 1, 3], n_features=3)
    for seed in range(4):
        out = fd.subsample(ds, 20, seed)
        assert_same_dataset(out, reference_subsample(ds, 20, seed))
        assert np.array_equal(out.class_counts(), [12, 7, 1, 2])


def test_per_class_draw_sorted_partition():
    labels = np.array([2, 0, 0, 1, 2, 2, 0, 1, 0, 2])
    drawn, rest = fd.per_class_draw(labels, 4, lambda n: n // 2, seed=5)
    assert np.array_equal(np.sort(np.concatenate([drawn, rest])), np.arange(10))
    assert list(drawn) == sorted(drawn) and list(rest) == sorted(rest)
    assert np.array_equal(np.bincount(labels[drawn], minlength=4), [2, 1, 2, 0])


def test_write_clean_csv_round_trip(tmp_path):
    ds = cluster_dataset(18, [5, 5], n_features=3)
    out = tmp_path / "clean.csv"
    fd.write_clean_csv(ds, out)
    again = fd.load_flow_csv(out, "label")
    assert again.n_rows == ds.n_rows
    assert np.allclose(again.features, ds.features)
    assert [ds.class_names[i] for i in ds.labels] \
        == [again.class_names[i] for i in again.labels]


def test_write_clean_csv_ends_lines_with_newline(tmp_path):
    ds = fd.Dataset(features=np.array([[0.0]]), labels=np.array([0]), class_names=["a"],
                    schema=[fd.ColumnSchema("x", fd.KIND_NUMERIC)])
    out = tmp_path / "clean.csv"
    fd.write_clean_csv(ds, out)
    assert out.read_bytes() == b"x,label\n0.0,a\n"
