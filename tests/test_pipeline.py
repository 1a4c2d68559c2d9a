"""Pipeline contracts: config parsing, the checkpoint container, staged
artifacts, determinism, stage isolation, and the CLI."""

import csv
import dataclasses
import json
import logging
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dosids import augment, parallel
from dosids import pipeline as pl
from dosids.alexclf import HYPERPARAMETER_TYPES, Hyperparameters
from dosids.aso import AsoConfig, TuneResult
from dosids.augment import GanConfig
from dosids.checkpoint import file_digest, load_arrays, save_arrays
from dosids.cli import _config_from_args, build_parser, main as cli_main
from dosids.evalkit import ConfusionMatrix, MetricsReport, per_class_metrics
from dosids.seeding import substream_seed
from dosids.settings import config_keys
from conftest import cluster_dataset


def write_flow_csv(path, seed=0, counts=(30, 30, 30, 10, 10), n_features=8):
    """Blob data dressed up as a flow CSV: numeric columns plus one
    categorical, one socket-ish and one constant column."""
    ds = cluster_dataset(seed, list(counts), n_features=n_features)
    rng = np.random.default_rng(seed + 1)
    protos = rng.choice(["tcp", "udp", "icmp"], ds.n_rows)
    with open(path, "w", encoding="utf-8") as fh:
        names = [f"f{i}" for i in range(n_features)]
        fh.write("src_ip," + ",".join(names) + ",proto,const_col,attack_cat\n")
        for r in range(ds.n_rows):
            feats = ",".join(repr(float(v)) for v in ds.features[r])
            fh.write(f"10.0.0.{r % 250},{feats},{protos[r]},0,"
                     f"{ds.class_names[ds.labels[r]]}\n")
    return path


CONFIG_TEMPLATE = """
# pipeline under test
data.input = {csv}
data.label_column = attack_cat
data.socket_columns = src_ip
augment.policy = median
gan.epochs = 3
gan.batch_size = 4
extractor.blocks = 2
extractor.epochs = 2
aso.population = 4
aso.iterations = 3
aso.proxy_epochs = 1
run.seed = 7
run.out = {out}
"""


@pytest.fixture
def tiny_run(tmp_path):
    csv = write_flow_csv(tmp_path / "flows.csv")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(CONFIG_TEMPLATE.format(csv=csv, out=tmp_path / "out"))
    return cfg_path, tmp_path


# ---- checkpoint container -----------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"a.weight": rng.normal(size=(3, 4)).astype(np.float32),
              "b.bias": rng.normal(size=5).astype(np.float32),
              "scalar": np.float32(2.5)}
    path = tmp_path / "t.ckpt"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert set(loaded) == set(arrays)
    assert np.allclose(loaded["a.weight"], arrays["a.weight"])
    assert loaded["b.bias"].shape == (5,)
    assert float(loaded["scalar"]) == 2.5


def test_checkpoint_digest_stable(tmp_path):
    arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
    save_arrays(tmp_path / "a.ckpt", arrays)
    save_arrays(tmp_path / "b.ckpt", dict(reversed(list(arrays.items()))))
    assert file_digest(tmp_path / "a.ckpt") == file_digest(tmp_path / "b.ckpt")


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="magic"):
        load_arrays(path)


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    good = tmp_path / "good.ckpt"
    save_arrays(good, {"a.weight": np.ones((2, 3)), "b": np.float32(1.0)})
    blob = good.read_bytes()
    path = tmp_path / "bad.ckpt"
    for cut in range(8, len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated"):
            load_arrays(path)
    path.write_bytes(blob + b"\0junk")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: 5 trailing bytes"):
        load_arrays(path)


# ---- config ----------------------------------------------------------------------

def test_parse_config_round_trip(tmp_path):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(
        "data.input = a.csv\n"
        "data.label_column = label  # trailing comment\n"
        "\n"
        "classifier.momentum = 0.8\n"
        "classifier.epochs = 40\n"
        "tune.skip = true\n"
        "run.seed = 11\n")
    cfg = pl.config_from_file(cfg_path)
    assert cfg.input_path == "a.csv"
    assert cfg.skip_tune is True
    assert cfg.classifier_overrides.momentum == 0.8
    assert cfg.classifier_overrides.epochs == 40
    assert type(cfg.classifier_overrides.epochs) is int
    assert cfg.seed == 11


# a raw value per fixed key, each unlike the default, and its parsed form
CONFIG_SAMPLES = {
    "data.input": ("a.csv", "a.csv"),
    "data.label_column": ("attack_cat", "attack_cat"),
    "data.socket_columns": ("src_ip, dst_ip,", ["src_ip", "dst_ip"]),
    "data.subsample": ("500", 500),
    "augment.policy": ("none", "none"),
    "gan.batch_size": ("16", 16),
    "gan.epochs": ("7", 7),
    "extractor.blocks": ("3", 3),
    "extractor.base_channels": ("8", 8),
    "extractor.epochs": ("4", 4),
    "extractor.batch_size": ("64", 64),
    "aso.population": ("6", 6),
    "aso.iterations": ("9", 9),
    "aso.depth_weight": ("25.5", 25.5),
    "aso.multiplier_weight": ("0.4", 0.4),
    "aso.proxy_epochs": ("2", 2),
    "tune.skip": ("yes", True),
    "classifier.input": ("raw", "raw"),
    "run.seed": ("11", 11),
    "run.out": ("runs/x", "runs/x"),
}


def test_config_samples_cover_every_key():
    assert set(CONFIG_SAMPLES) == set(pl.CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(pl.CONFIG_KEYS))
def test_config_key_round_trips(tmp_path, key):
    raw, parsed = CONFIG_SAMPLES[key]
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(f"{key} = {raw}\n")
    cfg = pl.config_from_file(cfg_path)
    default = pl.PipelineConfig()
    parent, _, name = pl.CONFIG_KEYS[key][0].rpartition(".")
    value = getattr(getattr(cfg, parent) if parent else cfg, name)
    assert value == parsed and type(value) is type(parsed)
    assert value != getattr(getattr(default, parent) if parent else default, name)
    # every other field keeps its default
    setattr(getattr(cfg, parent) if parent else cfg, name,
            getattr(getattr(default, parent) if parent else default, name))
    assert cfg == default


def test_sub_config_fields_and_keys_agree():
    """Each GAN and atom-search setting other than the seed, which derives
    from run.seed, has exactly one key, and every gan.*/aso.* key names a
    field."""
    targets = [target for target, _ in pl.CONFIG_KEYS.values()]
    owners = {"": pl.PipelineConfig, "gan": GanConfig, "aso": AsoConfig}
    for prefix in ("gan", "aso"):
        names = {f.name for f in dataclasses.fields(owners[prefix])} - {"seed"}
        assert all(targets.count(f"{prefix}.{name}") == 1 for name in names), prefix
        for key, (target, _) in pl.CONFIG_KEYS.items():
            if key.startswith(f"{prefix}."):
                parent, _, name = target.rpartition(".")
                assert name in {f.name for f in dataclasses.fields(owners[parent])}, key


def test_every_config_field_has_exactly_one_key():
    """The key table is derived from the field declarations: each field, and
    each setting of a nested config, is set by one key. Only the CLI-flag
    outputs and file_keys have none. Two declarations of one key would leave
    a field out of the table."""
    nested = {"gan": GanConfig, "aso": AsoConfig, "classifier_overrides": Hyperparameters}
    keyed = []
    for f in dataclasses.fields(pl.PipelineConfig):
        if f.name in nested:
            keyed += [f"{f.name}.{s.name}" for s in dataclasses.fields(nested[f.name])
                      if s.name != "seed"]
        elif f.name not in ("emit_clean", "emit_synthetic", "file_keys"):
            keyed.append(f.name)
    table = config_keys(pl.PipelineConfig)
    assert sorted(target for target, _ in table.values()) == sorted(keyed)
    assert len(table) == len(keyed)
    assert set(table) == set(pl.CONFIG_KEYS) | {f"classifier.{n}" for n in HYPERPARAMETER_TYPES}


def test_readme_config_table_lists_exactly_the_accepted_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = readme[readme.index("| key | default | meaning |"):].splitlines()[2:]
    listed = set()
    for row in rows:
        if not row.startswith("|"):
            break
        listed.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    accepted = set(pl.CONFIG_KEYS) | {f"classifier.{name}" for name in HYPERPARAMETER_TYPES}
    assert listed == accepted


def test_parse_config_rejects_unknown_classifier_override(tmp_path):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("classifier.momentun = 0.5\n")
    with pytest.raises(ValueError, match="unknown classifier override 'momentun'"):
        pl.config_from_file(cfg_path)


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("data.inptu = x.csv\n")
    with pytest.raises(ValueError, match="unknown config key"):
        pl.config_from_file(cfg_path)


def test_parse_config_rejects_bad_line(tmp_path):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        pl.config_from_file(cfg_path)


def test_presets():
    cfg = pl.PipelineConfig()
    desk = pl.apply_preset(cfg, "desk")
    assert desk.extractor_blocks == 4
    assert desk.subsample == 5000
    assert desk.gan.epochs == 30
    assert (desk.aso.population, desk.aso.iterations) == (10, 20)
    assert desk.proxy_epochs == 3
    paper = pl.apply_preset(cfg, "paper")
    assert paper.extractor_blocks == 16
    with pytest.raises(ValueError):
        pl.apply_preset(cfg, "laptop")


def key_value(cfg, key):
    parent, _, name = pl.CONFIG_KEYS[key][0].rpartition(".")
    return getattr(getattr(cfg, parent) if parent else cfg, name)


def test_readme_config_table_states_the_real_defaults():
    """Each backticked default in README's config table, parsed as the
    config file would parse it, is PipelineConfig()'s value."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = readme[readme.index("| key | default | meaning |"):].splitlines()[2:]
    default, checked = pl.PipelineConfig(), set()
    for row in rows:
        if not row.startswith("|"):
            break
        keys, defaults = (re.findall(r"`([^`]+)`", cell) for cell in row.split("|")[1:3])
        if defaults:
            (key,), (text,) = keys, defaults
            assert key_value(default, key) == pl.CONFIG_KEYS[key][1](text), key
            checked.add(key)
    assert checked == set(pl.CONFIG_KEYS) - {"data.input", "data.socket_columns",
                                             "data.subsample"}


def test_preset_keys_are_config_keys():
    """Preset values go through the config keys' own parsers, and no key
    names the record of what a file set."""
    for preset, values in pl.PRESETS.items():
        assert set(values) <= set(pl.CONFIG_KEYS), preset
        pl.apply_preset(pl.PipelineConfig(), preset).validate()
    assert "file_keys" not in {target for target, _ in pl.CONFIG_KEYS.values()}


def test_config_validation():
    cfg = pl.PipelineConfig(augment_policy="smote")
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = pl.PipelineConfig(classifier_input="pixels")
    with pytest.raises(ValueError):
        cfg.validate()


# ---- staged runs -------------------------------------------------------------------

def test_full_run_artifacts_and_manifest(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.skip_tune = True
    cfg.classifier_overrides = None
    out = tmp_path / "out"
    (out / "old_run/ingest").mkdir(parents=True)                 # a file no stage wrote
    (out / "old_run/ingest/train.bin").write_bytes(b"an earlier run's matrix")
    manifest = pl.run_pipeline(cfg)

    for rel in ("ingest/train.bin", "ingest/test.bin", "ingest/dataset.json",
                "augment/train_aug.bin", "extract/extractor.ckpt",
                "extract/train_features.bin", "tune/hyperparams.json",
                "tune/aso_trace.csv", "train/classifier.ckpt",
                "train/epoch_trace.csv", "evaluate/metrics.json",
                "evaluate/per_class.csv", "evaluate/confusion.csv",
                "report/report.txt", "manifest.json"):
        assert (out / rel).exists(), rel

    # digests in the manifest cover the stages' matrices and checkpoints and
    # match the files on disk
    assert sorted(manifest["checkpoint_digests"]) == [
        "augment/train_aug.bin", "extract/extractor.ckpt", "extract/test_features.bin",
        "extract/train_features.bin", "ingest/test.bin", "ingest/train.bin",
        "train/classifier.ckpt"]
    for rel, digest in manifest["checkpoint_digests"].items():
        assert file_digest(out / rel) == digest
    # census reflects the median-count targets exactly
    after = manifest["census"]["after_augmentation"]
    before = manifest["census"]["before_augmentation"]
    median = int(np.median(list(before.values())))
    for name, count in after.items():
        assert count == max(before[name], median)
    # skip-tune pins the reference optimum
    assert manifest["hyperparameters"]["momentum"] == 0.9
    assert manifest["hyperparameters"]["batch_size"] == 32
    # metrics.json holds the report of the confusion matrix, and per_class.csv
    # its per-class and macro floats
    metrics = json.loads((out / "evaluate/metrics.json").read_text())
    confusion = read_csv_rows(out / "evaluate/confusion.csv")
    counts = np.array([[int(v) for v in row[1:]] for row in confusion[1:]])
    assert MetricsReport.from_dict(metrics) == per_class_metrics(
        ConfusionMatrix(counts, confusion[0][1:]))
    per_class = read_csv_rows(out / "evaluate/per_class.csv")
    assert per_class[0] == ["class", "f1", "recall", "precision", "accuracy"]
    assert [row[0] for row in per_class[1:]] == metrics["class_names"] + ["macro"]
    for name, *values in per_class[1:]:
        row = metrics["macro"] if name == "macro" else metrics["per_class"][name]
        assert [float(v) for v in values] == [row[k] for k in per_class[0][1:]]


def test_dataset_json_lists_categories_of_retained_columns_only(tiny_run):
    """Socket and constant columns keep their name and kind for audit but
    no category list; the retained categorical column keeps its values."""
    cfg_path, tmp_path = tiny_run
    lines = (tmp_path / "flows.csv").read_text().splitlines()
    flags = ("A", "A", "B")
    text = [lines[0] + ",flag,const_flag"]
    text += [f"{line},{flags[i % 3]},Z" for i, line in enumerate(lines[1:])]
    (tmp_path / "flows.csv").write_text("\n".join(text) + "\n")
    cfg = pl.config_from_file(cfg_path)
    pl.run_stage(cfg, "ingest")
    meta = json.loads((tmp_path / "out/ingest/dataset.json").read_text())
    schema = {c["name"]: (c["kind"], c["categories"]) for c in meta["schema"]}
    assert schema["src_ip"] == ("socket", None)
    assert schema["const_col"] == ("constant", None)
    assert schema["const_flag"] == ("constant", None)
    one_hot = sorted(name for name in schema if "=" in name)
    assert one_hot == ["flag=A", "flag=B", "proto=icmp", "proto=tcp", "proto=udp"]
    assert all(schema[name] == ("numeric", None) for name in one_hot)


def test_augment_stage_idempotent(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    pl.run_stage(cfg, "ingest")
    pl.run_stage(cfg, "augment")
    first = (tmp_path / "out/augment/train_aug.bin").read_bytes()
    pl.run_stage(cfg, "augment")
    assert (tmp_path / "out/augment/train_aug.bin").read_bytes() == first


def test_missing_upstream_artifact_error(tiny_run):
    cfg_path, _ = tiny_run
    cfg = pl.config_from_file(cfg_path)
    with pytest.raises(pl.StageError, match="run the 'ingest' stage first") as err:
        pl.run_stage(cfg, "augment")
    assert err.value.code == pl.STAGE_CODES["augment"]


def test_stage_error_removes_partial_outputs(tiny_run, tmp_path):
    cfg_path, base = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.input_path = str(base / "missing.csv")
    with pytest.raises(pl.StageError) as err:
        pl.run_stage(cfg, "ingest")
    assert err.value.code == pl.STAGE_CODES["ingest"]
    assert not (base / "out/ingest").exists()


def test_tune_stage_writes_trace(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    for stage in ("ingest", "augment", "extract", "tune"):
        pl.run_stage(cfg, stage)
    lines = (tmp_path / "out/tune/aso_trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,best_fitness,mean_fitness,K"
    assert len(lines) == 1 + cfg.aso.iterations
    best = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a >= b for a, b in zip(best, best[1:]))
    payload = json.loads((tmp_path / "out/tune/hyperparams.json").read_text())
    assert payload["tuned"] is True


def reference_inner_split(labels: np.ndarray, fraction: float, seed: int):
    """The tune stage's own inner split before `flowdata.per_class_draw`,
    kept as its oracle."""
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        n_train = min(max(int(round(len(members) * fraction)), 1), len(members) - 1)
        perm = rng.permutation(len(members))
        train_idx.append(members[perm[:n_train]])
        val_idx.append(members[perm[n_train:]])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def test_tune_inner_split_matches_reference(tiny_run, monkeypatch):
    """The 0.8 inner split that scores each candidate, with a class of one
    training row, which goes to the validation fold."""
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    write_flow_csv(cfg.input_path, counts=(30, 30, 30, 10, 2))
    cfg.augment_policy = "none"
    for stage in ("ingest", "augment", "extract"):
        pl.run_stage(cfg, stage)
    draw, draws = pl.fd.per_class_draw, []
    monkeypatch.setattr(pl.fd, "per_class_draw",
                        lambda *args: draws.append(draw(*args)) or draws[-1])
    monkeypatch.setattr(pl, "tune_hyperparameters",
                        lambda trainable, aso_cfg: TuneResult(Hyperparameters(), 0.0))
    pl.run_stage(cfg, "tune")

    labels = load_arrays(tmp_path / "out/extract/train_features.bin")["labels"].astype(np.int64)
    want = reference_inner_split(labels, 0.8, substream_seed(cfg.seed, "aso", "inner-split"))
    assert len(draws) == 1
    for got, ref in zip(draws[0], want):
        assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())
    one_row = np.flatnonzero(np.bincount(labels) == 1)
    assert len(one_row) == 1 and one_row[0] in labels[draws[0][1]]


def test_tune_worker_error_is_a_tune_stage_error(tiny_run, monkeypatch):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    for stage in ("ingest", "augment", "extract"):
        pl.run_stage(cfg, stage)

    def failing_train(*args, **kwargs):
        raise FloatingPointError("proxy diverged")

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(pl, "train_classifier", failing_train)
    with pytest.raises(pl.StageError, match="proxy diverged") as err:
        pl.run_stage(cfg, "tune")
    assert err.value.stage == "tune" and err.value.code == pl.STAGE_CODES["tune"]
    assert not (tmp_path / "out/tune").exists()
    assert multiprocessing.active_children() == []


def test_augment_worker_error_is_an_augment_stage_error(tiny_run, monkeypatch):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    pl.run_stage(cfg, "ingest")

    def failing_train(*args, **kwargs):
        raise FloatingPointError("gan diverged")

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(augment, "train_dcgan", failing_train)
    with pytest.raises(pl.StageError, match="gan diverged") as err:
        pl.run_stage(cfg, "augment")
    assert err.value.stage == "augment" and err.value.code == pl.STAGE_CODES["augment"]
    assert not (tmp_path / "out/augment").exists()
    assert multiprocessing.active_children() == []


def test_explicit_socket_column_missing_warns(tiny_run, caplog):
    cfg_path, tmp_path = tiny_run
    cfg_path.write_text(cfg_path.read_text().replace(
        "data.socket_columns = src_ip", "data.socket_columns = src_ip,no_such_column"))
    with caplog.at_level(logging.WARNING, logger="dosids.flowdata"):
        pl.run_stage(pl.config_from_file(cfg_path), "ingest")
    assert [r.getMessage() for r in caplog.records] == [
        "socket column 'no_such_column' not present, ignoring"]


def test_emit_clean_and_synthetic(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.emit_clean = str(tmp_path / "clean.csv")
    cfg.emit_synthetic = str(tmp_path / "synth.csv")
    pl.run_stage(cfg, "ingest")
    pl.run_stage(cfg, "augment")
    clean = (tmp_path / "clean.csv").read_text().splitlines()
    meta = json.loads((tmp_path / "out/ingest/dataset.json").read_text())
    assert len(clean) == 1 + meta["rows"]["train"] + meta["rows"]["test"]
    values = np.array([[float(v) for v in line.split(",")[:-1]]
                       for line in clean[1:]])
    assert values.min() >= 0.0 and values.max() <= 1.0
    synth = (tmp_path / "synth.csv").read_text().splitlines()
    assert synth[0].endswith(",synthetic")
    assert all(line.endswith(",1") for line in synth[1:])
    aug_meta = json.loads((tmp_path / "out/augment/augment.json").read_text())
    added = sum(aug_meta["census_after"][c] - aug_meta["census_before"][c]
                for c in aug_meta["census_after"])
    assert len(synth) - 1 == added


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_tabular_outputs_quote_class_names(tiny_run):
    """Class names come from the input CSV, so a comma or a quote in one
    must not split the rows of the evaluate CSVs or the synthetic file."""
    cfg_path, tmp_path = tiny_run
    renamed = {"c3": 'say "hi"', "c4": "DoS, Hulk"}     # the two minority classes
    rows = read_csv_rows(tmp_path / "flows.csv")
    with open(tmp_path / "flows.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows[:1] + [r[:-1] + [renamed.get(r[-1], r[-1])]
                                             for r in rows[1:]])
    cfg = pl.config_from_file(cfg_path)
    cfg.skip_tune = True
    cfg.emit_synthetic = str(tmp_path / "synth.csv")
    pl.run_pipeline(cfg)
    names = pl._class_names(cfg)
    assert set(renamed.values()) <= set(names)

    confusion = read_csv_rows(tmp_path / "out/evaluate/confusion.csv")
    assert confusion[0] == [""] + names
    assert [r[0] for r in confusion[1:]] == names
    assert all(len(r) == len(names) + 1 for r in confusion)
    per_class = read_csv_rows(tmp_path / "out/evaluate/per_class.csv")
    assert [r[0] for r in per_class] == ["class"] + names + ["macro"]
    assert all(len(r) == 5 for r in per_class)
    synth = read_csv_rows(tmp_path / "synth.csv")
    assert all(len(r) == len(synth[0]) for r in synth)
    assert {r[-2] for r in synth[1:]} == set(renamed.values())


def test_every_csv_output_goes_through_one_writer(tiny_run):
    """`flowdata.write_csv` holds the package's one csv.writer, so every CSV
    a run writes ends its lines with '\n' and reads back square."""
    package = Path(pl.__file__).parent
    assert sum(p.read_text().count("csv.writer(") for p in package.rglob("*.py")) == 1
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.emit_clean = str(tmp_path / "clean.csv")
    cfg.emit_synthetic = str(tmp_path / "synth.csv")
    pl.run_pipeline(cfg)
    paths = [tmp_path / "clean.csv", tmp_path / "synth.csv",
             *sorted((tmp_path / "out").rglob("*.csv"))]
    assert sorted(p.name for p in paths) == ["aso_trace.csv", "clean.csv", "confusion.csv",
                                             "epoch_trace.csv", "per_class.csv", "synth.csv"]
    for path in paths:
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path.name
        rows = read_csv_rows(path)
        assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), path.name


def test_raw_classifier_input_skips_extractor(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.classifier_input = "raw"
    cfg.skip_tune = True
    pl.run_pipeline(cfg)
    assert not (tmp_path / "out/extract/extractor.ckpt").exists()
    info = json.loads((tmp_path / "out/extract/extract.json").read_text())
    meta = json.loads((tmp_path / "out/ingest/dataset.json").read_text())
    n_feat = len(meta["normalization"]["columns"])
    assert info == {"mode": "raw", "feature_dim": n_feat}


def test_rerun_is_byte_identical(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.skip_tune = True
    pl.run_pipeline(cfg)
    metrics_a = (tmp_path / "out/evaluate/metrics.json").read_bytes()
    cfg2 = pl.config_from_file(cfg_path)
    cfg2.skip_tune = True
    cfg2.out_dir = str(tmp_path / "out2")
    pl.run_pipeline(cfg2)
    metrics_b = (tmp_path / "out2/evaluate/metrics.json").read_bytes()
    assert metrics_a == metrics_b


def test_stage_isolation_reproduces_metrics(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.skip_tune = True
    pl.run_pipeline(cfg)
    metrics_before = (tmp_path / "out/evaluate/metrics.json").read_bytes()
    for stage in ("train", "evaluate", "report"):
        shutil.rmtree(tmp_path / "out" / stage)
    for stage in ("train", "evaluate", "report"):
        pl.run_stage(cfg, stage)
    assert (tmp_path / "out/evaluate/metrics.json").read_bytes() == metrics_before


# ---- provenance --------------------------------------------------------------------

def test_every_config_field_is_a_stage_input_or_declared_not_one():
    """A field that no stage lists would change no fingerprint, so an edit
    to it could never be caught."""
    read = {name for spec in pl.STAGE_TABLE.values() for name in spec.fields}
    fields = {f.name for f in dataclasses.fields(pl.PipelineConfig)}
    assert fields - set(pl.NOT_FINGERPRINTED) == read
    assert set(pl.NOT_FINGERPRINTED) <= fields
    assert list(pl.STAGE_TABLE) == list(pl.STAGES)
    for i, spec in enumerate(pl.STAGE_TABLE.values()):
        assert set(spec.upstream) <= set(pl.STAGES[:i])


def test_rerun_in_raw_mode_leaves_no_stale_extractor(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.skip_tune = True
    assert "extract/extractor.ckpt" in pl.run_pipeline(cfg)["checkpoint_digests"]
    cfg.classifier_input = "raw"
    manifest = pl.run_pipeline(cfg)
    assert not (tmp_path / "out/extract/extractor.ckpt").exists()
    assert "extract/extractor.ckpt" not in manifest["checkpoint_digests"]
    assert sorted(p.name for p in (tmp_path / "out/extract").iterdir()) == [
        "extract.json", "stage.json", "test_features.bin", "train_features.bin"]


def test_stale_upstream_is_refused_until_rerun(tiny_run, capsys):
    cfg_path, tmp_path = tiny_run
    pl.run_pipeline(pl.config_from_file(cfg_path))
    cfg_path.write_text(cfg_path.read_text().replace("extractor.blocks = 2",
                                                     "extractor.blocks = 3"))
    cfg = pl.config_from_file(cfg_path)
    with pytest.raises(pl.StageError, match="re-run stage 'extract'") as err:
        pl.run_stage(cfg, "train")
    assert err.value.code == pl.STAGE_CODES["train"] == 14
    assert cli_main(["train", "--config", str(cfg_path)]) == 14
    assert "re-run stage 'extract'" in capsys.readouterr().err
    # the refusal leaves the refusing stage's earlier outputs alone
    assert (tmp_path / "out/train/stage.json").exists()

    pl.run_stage(cfg, "extract")
    with pytest.raises(pl.StageError, match="re-run stage 'tune'") as err:
        pl.run_stage(cfg, "train")
    assert err.value.code == 14
    for stage in ("tune", "train", "evaluate", "report"):
        pl.run_stage(cfg, stage)


def test_rewritten_input_is_refused_until_rerun(tiny_run, capsys):
    """Ingest's fingerprint covers what the input file holds, not only its
    path, and a re-made ingest makes everything downstream stale."""
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    pl.run_pipeline(cfg)
    write_flow_csv(cfg.input_path, seed=5)
    assert cli_main(["augment", "--config", str(cfg_path)]) == 11
    assert "re-run stage 'ingest'" in capsys.readouterr().err

    pl.run_stage(cfg, "ingest")
    assert cli_main(["train", "--config", str(cfg_path)]) == 14
    assert "re-run stage 'extract'" in capsys.readouterr().err


def test_outputs_of_other_code_are_refused_until_rerun(tiny_run, monkeypatch, capsys):
    """Every stage records the package's code digest, so after any edit to
    the code each upstream stage must re-run, in order, before `train`
    accepts it."""
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    pl.run_pipeline(cfg)
    record = json.loads((tmp_path / "out/extract/stage.json").read_text())
    assert record["config"]["code_sha256"] == pl.code_digest()

    monkeypatch.setattr(pl, "code_digest", lambda: "0" * 64)
    assert cli_main(["train", "--config", str(cfg_path)]) == 14
    assert "re-run stage 'ingest'" in capsys.readouterr().err
    for rerun, refused in (("ingest", "extract"), ("augment", "extract"),
                           ("extract", "tune")):
        pl.run_stage(cfg, rerun)
        with pytest.raises(pl.StageError, match=f"re-run stage '{refused}'") as err:
            pl.run_stage(cfg, "train")
        assert err.value.code == 14
    pl.run_stage(cfg, "tune")
    pl.run_stage(cfg, "train")


def test_unfinished_stage_is_refused(tiny_run, monkeypatch):
    """stage.json is written after the stage's outputs, so a stage that
    was cut short counts as not run."""
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.skip_tune = True
    pl.run_pipeline(cfg)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(pl, "train_classifier", interrupted)
    with pytest.raises(KeyboardInterrupt):
        pl.run_stage(cfg, "train")
    assert (tmp_path / "out/train").exists()
    assert not (tmp_path / "out/train/stage.json").exists()
    with pytest.raises(pl.StageError, match="run the 'train' stage first") as err:
        pl.run_stage(cfg, "evaluate")
    assert err.value.code == pl.STAGE_CODES["evaluate"]


def test_output_paths_change_no_fingerprint(tiny_run):
    cfg_path, tmp_path = tiny_run
    cfg = pl.config_from_file(cfg_path)
    cfg.skip_tune = True
    pl.run_pipeline(cfg)
    moved = pl.config_from_file(cfg_path)
    moved.skip_tune = True
    moved.out_dir = str(tmp_path / "elsewhere")
    moved.emit_clean = str(tmp_path / "clean.csv")
    moved.emit_synthetic = str(tmp_path / "synth.csv")
    pl.run_pipeline(moved)
    for stage in pl.STAGES:
        record = json.loads((tmp_path / "out" / stage / "stage.json").read_text())
        assert (tmp_path / "elsewhere" / stage / "stage.json").read_text() == \
            (tmp_path / "out" / stage / "stage.json").read_text()
        assert record == pl.stage_record(moved, stage)
        skipped = stage == "tune"
        assert set(record["upstream"]) == set(() if skipped else pl.STAGE_TABLE[stage].upstream)


# ---- cli -----------------------------------------------------------------------------

def test_cli_run_and_stage_exit_codes(tiny_run, capsys):
    cfg_path, tmp_path = tiny_run
    assert cli_main(["run", "--config", str(cfg_path), "--skip-tune",
                     "--out", str(tmp_path / "cli_out")]) == 0
    out = capsys.readouterr().out
    assert "overall accuracy" in out
    assert cli_main(["report", "--config", str(cfg_path),
                     "--out", str(tmp_path / "cli_out")]) == 0


def test_cli_missing_upstream_exit_code(tiny_run):
    cfg_path, tmp_path = tiny_run
    code = cli_main(["evaluate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "fresh")])
    assert code == pl.STAGE_CODES["evaluate"]


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense.key = 1\n")
    assert cli_main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("setting", [
    "extractor.batch_size = 0", "extractor.base_channels = 0", "extractor.blocks = 0",
    "data.subsample = 0", "extractor.epochs = -3",
    # non-finite floats
    "tune.skip = true\nclassifier.learning_rate = nan",
    "tune.skip = true\nclassifier.weight_decay = inf", "aso.depth_weight = nan",
    # keys that became constants: any value of them is refused as unknown
    "extractor.feature_dim = 0", "extractor.learning_rate = -1"])
def test_cli_out_of_range_setting_is_a_config_error(tmp_path, capsys, setting):
    """Refused before any stage runs, not by a stage crashing, or a run
    finishing on a silently wrong setting."""
    csv = write_flow_csv(tmp_path / "flows.csv", counts=(30, 30, 30))
    key = setting.splitlines()[-1].split(" = ")[0]
    # the setting replaces the template's line for its key, as a key set twice is refused
    lines = [line for line in CONFIG_TEMPLATE.format(csv=csv, out=tmp_path / "out").splitlines()
             if not line.startswith(f"{key} = ")] + setting.splitlines()
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("\n".join(lines) + "\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # named like a parse error: the file, the line and the key written there
    known = key in pl.CONFIG_KEYS or key.startswith("classifier.")
    named = f"{key} must be" if known else f"unknown config key {key!r}"
    assert f"{cfg_path}:{len(lines)}: {named}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["split.train_fraction", "gan.noise_dim", "gan.learning_rate",
                                 "extractor.feature_dim", "extractor.learning_rate",
                                 "augment.target.c1"])
def test_cli_removed_config_key_is_unknown(tmp_path, capsys, key):
    """Settings that became constants, and the name-keyed augment
    targets, are refused like any other unknown key."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"{key} = 1\nrun.out = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def cli_config(*argv):
    return _config_from_args(build_parser().parse_args(["run", *map(str, argv)]))


def test_cli_preset_keeps_settings_the_config_sets(tmp_path, capsys):
    """A preset fills only the fields the config leaves at their defaults:
    an out-of-range value it names is refused, not overwritten, and an
    in-range one is kept."""
    cfg_path = tmp_path / "cfg.txt"
    text = f"aso.population = 6\ngan.epochs = 7\nrun.out = {tmp_path / 'out'}\n"
    cfg_path.write_text(text + "extractor.blocks = 0\n")
    assert cli_main(["run", "--config", str(cfg_path), "--preset", "desk"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg_path.write_text(text + "extractor.blocks = 2\n")
    cfg = cli_config("--config", cfg_path, "--preset", "desk")
    assert (cfg.aso.population, cfg.extractor_blocks, cfg.gan.epochs) == (6, 2, 7)
    assert (cfg.subsample, cfg.aso.iterations, cfg.proxy_epochs) == (5000, 20, 3)
    cfg_path.write_text("data.subsample = 8000\n")
    assert cli_config("--config", cfg_path, "--preset", "desk").subsample == 8000


def test_cli_preset_keeps_a_file_setting_that_equals_the_default(tmp_path):
    """A key the file sets is the file's even when its value is the
    default; the preset still sets every other key it names."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("extractor.blocks = 16\ngan.epochs = 60\n")
    cfg = cli_config("--config", cfg_path, "--preset", "desk")
    assert (cfg.extractor_blocks, cfg.gan.epochs) == (16, 60)
    assert cfg.file_keys == ("extractor.blocks", "gan.epochs")
    for key, text in pl.PRESETS["desk"].items():
        if key not in cfg.file_keys:
            assert key_value(cfg, key) == pl.CONFIG_KEYS[key][1](text), key


@pytest.mark.parametrize("preset", sorted(pl.PRESETS))
@pytest.mark.parametrize("text", ["", "extractor.blocks = 16\ngan.epochs = 60\n",
                                  "aso.population = 6\ngan.epochs = 200\n"])
def test_bench_child_sequence_gives_the_cli_config(tmp_path, preset, text):
    """perfbench/child.py loads the file, applies the preset and validates;
    that gives `dosids run`'s config, also when the file sets a preset key
    to its default."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text + "run.seed = 3\n")
    cfg = pl.apply_preset(pl.config_from_file(cfg_path), preset)
    cfg.validate()
    from_cli = cli_config("--config", cfg_path, "--preset", preset)
    assert cfg == from_cli and cfg.file_keys == from_cli.file_keys


def test_cli_refuses_a_key_set_twice(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"gan.epochs = 7\nrun.out = {tmp_path / 'out'}\ngan.epochs = 9\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}:3: 'gan.epochs' already set on line 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    ("gan.epochs = abc", "gan.epochs: invalid literal for int()"),
    ("tune.skip = maybe", "tune.skip: expected a boolean, got 'maybe'"),
    ("gan.epochz = 3", "unknown config key 'gan.epochz'")])
def test_cli_config_error_names_the_line_and_key(tmp_path, capsys, setting, message):
    """A value the key's parser refuses, or an unknown key, is reported at
    its file and line."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"run.out = {tmp_path / 'out'}\n{setting}\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert f"{cfg_path}:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_bytes(f"run.out = {tmp_path / 'out'}\n".encode() + b"data.input = caf\xe9.csv\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert f"{cfg_path}:2: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_flags_go_through_the_config_setter(tmp_path, capsys):
    """--seed, --out and --skip-tune set run.seed, run.out and tune.skip
    with the keys' parsers, after the preset; an empty run.out is refused."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"run.out = {tmp_path / 'out'}\nrun.seed = 3\n")
    cfg = cli_config("--config", cfg_path, "--seed", "0", "--out", tmp_path / "o2",
                     "--skip-tune", "--preset", "desk")
    assert (cfg.seed, cfg.out_dir, cfg.skip_tune) == (0, str(tmp_path / "o2"), True)
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "x"]) == 2
    assert "run.seed: invalid literal for int()" in capsys.readouterr().err
    assert cli_main(["run", "--config", str(cfg_path), "--out", ""]) == 2
    assert "run.out must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_classifier_overrides_without_skip_tune_are_a_config_error(tmp_path, capsys):
    """The tune stage reads classifier.* only when tuning is skipped."""
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"classifier.epochs = 5\nrun.out = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "tune.skip" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli_config("--config", cfg_path, "--skip-tune").classifier_overrides.epochs == 5
    cfg_path.write_text("classifier.epochs = 5\ntune.skip = true\n")
    assert cli_config("--config", cfg_path).classifier_overrides.epochs == 5


def test_cli_seed_override(tiny_run):
    cfg_path, tmp_path = tiny_run
    assert cli_main(["ingest", "--config", str(cfg_path), "--seed", "99",
                     "--out", str(tmp_path / "seeded")]) == 0
    a = (tmp_path / "seeded/ingest/train.bin").read_bytes()
    assert cli_main(["ingest", "--config", str(cfg_path), "--seed", "100",
                     "--out", str(tmp_path / "seeded2")]) == 0
    b = (tmp_path / "seeded2/ingest/train.bin").read_bytes()
    assert a != b


def test_console_script_help():
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-m", "dosids.cli", "--help"],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "run" in result.stdout
