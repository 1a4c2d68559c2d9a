"""Staged end-to-end runs: ingest -> augment -> extract -> tune -> train ->
evaluate -> report.

Every stage is a pure function of the config fields and upstream stages
that STAGE_TABLE lists for it, so stages can be re-run independently and
a full run is exactly the stage sequence; `run_stage` refuses upstream
outputs made under another config. All randomness derives from the master
seed through named substreams; re-running a config reproduces every
emitted number.
"""

import copy
import hashlib
import json
import logging
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, augment as aug, flowdata as fd, resfeat
from .alexclf import (HYPERPARAMETER_TYPES, Hyperparameters, build_classifier, predict,
                      train_classifier)
from .aso import AsoConfig, tune_hyperparameters
from .augment import GanConfig
from .checkpoint import file_digest, load_arrays, save_arrays
from .evalkit import (METRIC_KEYS, MetricsReport, confusion_from_predictions,
                      per_class_metrics, render_report)
from .resfeat import build_feature_extractor, extract_features, train_feature_extractor
from .seeding import substream_seed
from .settings import check_settings, setting

log = logging.getLogger(__name__)

TRAIN_FRACTION = 0.7    # stratified train share of the ingested rows


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.code = STAGE_CODES[stage]


@dataclass
class PipelineConfig:
    input_path: str = ""
    label_column: str = "label"
    socket_columns: list[str] = field(default_factory=lambda: list(fd.DEFAULT_SOCKET_COLUMNS))
    subsample: int | None = setting(None, least=1)
    augment_policy: str = setting("median", choices=("median", "none"))
    gan: GanConfig = field(default_factory=GanConfig)
    extractor_blocks: int = setting(16, least=1)
    extractor_base_channels: int = setting(16, least=1)
    extractor_epochs: int = setting(10, least=0)
    extractor_batch_size: int = setting(32, least=1)
    aso: AsoConfig = field(default_factory=AsoConfig)
    proxy_epochs: int = setting(5, least=1)
    skip_tune: bool = False
    classifier_overrides: Hyperparameters | None = None
    classifier_input: str = setting("features", choices=("features", "raw"))
    seed: int = 0
    out_dir: str = "runs/out"
    emit_clean: str | None = None
    emit_synthetic: str | None = None
    # the keys config_from_file set, which a preset leaves alone
    file_keys: tuple[str, ...] = field(default=(), compare=False)

    def validate(self):
        """The cross-field rules, then every field's declared domain."""
        if not self.out_dir:
            raise ValueError("run.out must not be empty")
        if self.classifier_overrides is not None and not self.skip_tune:
            raise ValueError("classifier.* applies only with tune.skip or --skip-tune")
        check_settings(self)


# ---- config file ------------------------------------------------------------

def _as_bool(v: str) -> bool:
    if v.lower() in ("1", "true", "yes", "on"):
        return True
    if v.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _column_list(v: str) -> list[str]:
    return [c.strip() for c in v.split(",") if c.strip()]


# dotted config key -> (PipelineConfig field, or "gan."/"aso." sub-field; parser).
# `classifier.<hyperparameter>` is the one prefix rule.
CONFIG_KEYS = {
    "data.input": ("input_path", str),
    "data.label_column": ("label_column", str),
    "data.socket_columns": ("socket_columns", _column_list),
    "data.subsample": ("subsample", int),
    "augment.policy": ("augment_policy", str),
    "gan.batch_size": ("gan.batch_size", int),
    "gan.epochs": ("gan.epochs", int),
    "extractor.blocks": ("extractor_blocks", int),
    "extractor.base_channels": ("extractor_base_channels", int),
    "extractor.epochs": ("extractor_epochs", int),
    "extractor.batch_size": ("extractor_batch_size", int),
    "aso.population": ("aso.population", int),
    "aso.iterations": ("aso.iterations", int),
    "aso.depth_weight": ("aso.depth_weight", float),
    "aso.multiplier_weight": ("aso.multiplier_weight", float),
    "aso.proxy_epochs": ("proxy_epochs", int),
    "tune.skip": ("skip_tune", _as_bool),
    "classifier.input": ("classifier_input", str),
    "run.seed": ("seed", int),
    "run.out": ("out_dir", str),
}

# preset -> {config key: value as a file would hold it}. Desk: minutes-scale
# settings. Paper: the defaults are full depth already, bar the GAN epochs.
PRESETS = {
    "desk": {"data.subsample": "5000", "extractor.blocks": "4", "gan.epochs": "30",
             "aso.population": "10", "aso.iterations": "20", "aso.proxy_epochs": "3"},
    "paper": {"gan.epochs": "200"},
}


def set_keys(cfg: PipelineConfig, values: dict[str, str]) -> PipelineConfig:
    """A copy of `cfg` with each dotted key set from its text by the key's
    parser. `classifier.<hyperparameter>` sets that field of the classifier
    overrides, which start from the reference Hyperparameters()."""
    cfg = copy.deepcopy(cfg)
    for key, text in values.items():
        if key in CONFIG_KEYS:
            field_path, parse = CONFIG_KEYS[key]
        elif key.startswith("classifier."):
            name = key[len("classifier."):]
            if name not in HYPERPARAMETER_TYPES:
                raise ValueError(f"unknown classifier override {name!r}")
            if cfg.classifier_overrides is None:
                cfg.classifier_overrides = Hyperparameters()
            field_path, parse = f"classifier_overrides.{name}", HYPERPARAMETER_TYPES[name]
        else:
            raise ValueError(f"unknown config key {key!r}")
        parent, _, name = field_path.rpartition(".")
        try:
            value = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
        setattr(getattr(cfg, parent) if parent else cfg, name, value)
    return cfg


def config_from_file(path) -> PipelineConfig:
    """PipelineConfig() with the keys of a flat `dotted.key = value` file set
    ('#' starts a comment) and recorded in `file_keys`; errors name the line."""
    cfg, lines = PipelineConfig(), {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if "=" not in line:
                    raise ValueError("expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in lines:
                    raise ValueError(f"{key!r} already set on line {lines[key]}")
                cfg = set_keys(cfg, {key: value})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            lines[key] = lineno
    return replace(cfg, file_keys=tuple(lines))


def apply_preset(cfg: PipelineConfig, preset: str) -> PipelineConfig:
    """A copy of `cfg` with the preset's value for every key it names except
    the keys the config file set (`cfg.file_keys`). Code that builds a
    PipelineConfig itself sets its own values after the preset."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r} "
                         f"(expected {' or '.join(map(repr, PRESETS))})")
    return set_keys(cfg, {key: text for key, text in PRESETS[preset].items()
                          if key not in cfg.file_keys})


# ---- dataset artifact io -----------------------------------------------------

def _path(cfg: PipelineConfig, stage: str, name: str = "") -> str:
    return os.path.join(cfg.out_dir, stage, name)


def _write_json(path, payload: dict):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _save_matrix(path, features: np.ndarray, labels: np.ndarray):
    save_arrays(path, {"features": features, "labels": labels.astype(np.float64)})


def _load_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    arrays = load_arrays(path)
    return arrays["features"], arrays["labels"].astype(np.int64)


def _class_names(cfg: PipelineConfig) -> list[str]:
    return _read_json(_path(cfg, "ingest", "dataset.json"))["class_names"]


def _load_dataset(cfg: PipelineConfig, stage: str, matrix_name: str) -> fd.Dataset:
    """A matrix written by `stage`, with ingest's schema."""
    meta = _read_json(_path(cfg, "ingest", "dataset.json"))
    features, labels = _load_matrix(_path(cfg, stage, matrix_name))
    return fd.Dataset(features=features, labels=labels,
                      class_names=list(meta["class_names"]),
                      schema=[fd.ColumnSchema(**c) for c in meta["schema"]])


def _census(labels: np.ndarray, class_names: list[str]) -> dict[str, int]:
    counts = np.bincount(labels, minlength=len(class_names))
    return {name: int(counts[i]) for i, name in enumerate(class_names)}


# ---- stages -----------------------------------------------------------------
# Each stage writes into `out`, its own freshly emptied directory, and reads
# only the upstream stages and config fields that STAGE_TABLE lists for it.

def stage_ingest(cfg: PipelineConfig, out: str) -> dict:
    """Load, clean, split, encode and normalize; cache both splits."""
    raw = fd.load_flow_csv(cfg.input_path, cfg.label_column)
    raw = fd.drop_socket_and_constant_features(raw, cfg.socket_columns)
    if cfg.subsample is not None:
        raw = fd.subsample(raw, cfg.subsample, substream_seed(cfg.seed, "subsample"))
    train, test = fd.stratified_split(raw, TRAIN_FRACTION,
                                      substream_seed(cfg.seed, "split"))
    categories = fd.fit_categories(train)
    train = fd.one_hot_encode(train, categories)
    test = fd.one_hot_encode(test, categories)
    params = fd.min_max_fit(train)
    train = fd.min_max_apply(train, params)
    test = fd.min_max_apply(test, params)

    _save_matrix(os.path.join(out, "train.bin"), train.features, train.labels)
    _save_matrix(os.path.join(out, "test.bin"), test.features, test.labels)
    _write_json(os.path.join(out, "dataset.json"), {
        "class_names": train.class_names,
        "schema": [asdict(c) for c in train.schema],
        "normalization": {"columns": params.columns,
                          "x_mn": params.x_mn.tolist(),
                          "x_mx": params.x_mx.tolist()},
        "rows": {"train": train.n_rows, "test": test.n_rows},
        "census": {"train": _census(train.labels, train.class_names),
                   "test": _census(test.labels, test.class_names)},
    })
    if cfg.emit_clean:
        combined = replace(train,
                           features=np.concatenate([train.features, test.features]),
                           labels=np.concatenate([train.labels, test.labels]))
        fd.write_clean_csv(combined, cfg.emit_clean)
    return {"train_rows": train.n_rows, "test_rows": test.n_rows,
            "features": train.n_features}


def stage_augment(cfg: PipelineConfig, out: str) -> dict:
    """Raise minority classes to their targets with per-class GANs."""
    train = _load_dataset(cfg, "ingest", "train.bin")
    before = _census(train.labels, train.class_names)

    targets = aug.median_targets(train) if cfg.augment_policy == "median" else {}
    gan_cfg = replace(cfg.gan, seed=substream_seed(cfg.seed, "gan"))
    augmented = aug.oversample_minorities(train, targets, gan_cfg)
    after = _census(augmented.labels, augmented.class_names)

    _save_matrix(os.path.join(out, "train_aug.bin"),
                 augmented.features, augmented.labels)
    _write_json(os.path.join(out, "augment.json"), {
        "census_before": before, "census_after": after,
        "targets": {train.class_names[c]: n for c, n in targets.items()},
    })
    if cfg.emit_synthetic:
        synth = augmented.features[train.n_rows:].tolist()
        labels = augmented.labels[train.n_rows:].tolist()
        fd.write_csv(cfg.emit_synthetic, train.feature_names() + ["label", "synthetic"],
                     (row + [train.class_names[lab], 1] for row, lab in zip(synth, labels)))
    return {"census_before": before, "census_after": after}


def stage_extract(cfg: PipelineConfig, out: str) -> dict:
    """Train and freeze the residual extractor; cache feature matrices.

    classifier_input='raw' passes the preprocessed rows through untouched
    (no extractor is trained)."""
    train = _load_dataset(cfg, "augment", "train_aug.bin")
    test = _load_dataset(cfg, "ingest", "test.bin")

    if cfg.classifier_input == "raw":
        feats_train, feats_test = train.features, test.features
        info = {"mode": "raw", "feature_dim": int(train.n_features)}
    else:
        f = build_feature_extractor(train.n_features, blocks=cfg.extractor_blocks,
                                    base_channels=cfg.extractor_base_channels,
                                    seed=substream_seed(cfg.seed, "extractor"))
        f = train_feature_extractor(f, train, epochs=cfg.extractor_epochs,
                                    lr=resfeat.LEARNING_RATE,
                                    seed=substream_seed(cfg.seed, "extractor"),
                                    batch_size=cfg.extractor_batch_size)
        feats_train = extract_features(f, train)
        feats_test = extract_features(f, test)
        save_arrays(os.path.join(out, "extractor.ckpt"), f.state_arrays())
        info = {"mode": "features", "feature_dim": int(f.feature_dim),
                "blocks": cfg.extractor_blocks,
                "history": [list(h) for h in f.train_history]}

    _save_matrix(os.path.join(out, "train_features.bin"), feats_train, train.labels)
    _save_matrix(os.path.join(out, "test_features.bin"), feats_test, test.labels)
    _write_json(os.path.join(out, "extract.json"), info)
    return {"feature_dim": info["feature_dim"], "mode": info["mode"]}


def stage_tune(cfg: PipelineConfig, out: str) -> dict:
    """Atom-search over the hyperparameter box against an inner validation
    fold, each candidate scored by a short proxy training run."""
    if cfg.skip_tune:
        hp = (cfg.classifier_overrides if cfg.classifier_overrides is not None
              else Hyperparameters())
        info = {"tuned": False, "hyperparameters": hp.to_dict()}
        saved, trace = info, []
    else:
        features, labels = _load_matrix(_path(cfg, "extract", "train_features.bin"))
        n_classes = len(_class_names(cfg))
        tr_idx, val_idx = fd.per_class_draw(labels, n_classes,
                                            lambda n: min(max(round(n * 0.8), 1), n - 1),
                                            substream_seed(cfg.seed, "aso", "inner-split"))
        proxy_seed = substream_seed(cfg.seed, "aso", "proxy")

        def trainable(hp: Hyperparameters) -> float:
            proxy = replace(hp, epochs=cfg.proxy_epochs)
            clf = build_classifier(features.shape[1], n_classes, seed=proxy_seed)
            clf, _ = train_classifier(clf, features[tr_idx], labels[tr_idx], proxy,
                                      seed=proxy_seed)
            pred, _ = predict(clf, features[val_idx])
            return float(1.0 - (pred == labels[val_idx]).mean())

        aso_cfg = replace(cfg.aso, seed=substream_seed(cfg.seed, "aso"))
        result = tune_hyperparameters(trainable, aso_cfg)
        info = {"tuned": True, "hyperparameters": result.hyperparameters.to_dict(),
                "validation_error": result.validation_error}
        saved, trace = dict(info, evaluations=result.evaluations), result.trace
    _write_json(os.path.join(out, "hyperparams.json"), saved)
    fd.write_csv(os.path.join(out, "aso_trace.csv"),
                 ["iteration", "best_fitness", "mean_fitness", "K"], trace)
    return info


def stage_train(cfg: PipelineConfig, out: str) -> dict:
    """Train the classifier at full budget with the winning settings."""
    features, labels = _load_matrix(_path(cfg, "extract", "train_features.bin"))
    n_classes = len(_class_names(cfg))
    hp = Hyperparameters.from_dict(
        _read_json(_path(cfg, "tune", "hyperparams.json"))["hyperparameters"])

    clf = build_classifier(features.shape[1], n_classes,
                           seed=substream_seed(cfg.seed, "classifier"))
    clf, trace = train_classifier(clf, features, labels, hp,
                                  seed=substream_seed(cfg.seed, "classifier"))
    save_arrays(os.path.join(out, "classifier.ckpt"), clf.state_arrays())
    fd.write_csv(os.path.join(out, "epoch_trace.csv"), ["epoch", "loss", "train_acc"], trace)
    _write_json(os.path.join(out, "train.json"), {
        "hyperparameters": hp.to_dict(),
        "feature_dim": int(features.shape[1]),
        "n_classes": n_classes,
        "first_epoch_loss": trace[0][1], "final_epoch_loss": trace[-1][1],
        "final_train_accuracy": trace[-1][2],
    })
    return {"epochs": hp.epochs, "final_loss": trace[-1][1],
            "final_train_accuracy": trace[-1][2]}


def stage_evaluate(cfg: PipelineConfig, out: str) -> dict:
    """Score the held-out split and write the metric reports."""
    features, labels = _load_matrix(_path(cfg, "extract", "test_features.bin"))
    info = _read_json(_path(cfg, "train", "train.json"))
    class_names = _class_names(cfg)

    clf = build_classifier(info["feature_dim"], info["n_classes"],
                           seed=substream_seed(cfg.seed, "classifier"))
    clf.load_state(load_arrays(_path(cfg, "train", "classifier.ckpt")))
    clf.trained = True
    pred, _ = predict(clf, features)
    cm = confusion_from_predictions(labels, pred, info["n_classes"], class_names)
    report = per_class_metrics(cm)

    _write_json(os.path.join(out, "metrics.json"), report.to_dict())
    fd.write_csv(os.path.join(out, "per_class.csv"), ["class", *METRIC_KEYS],
                 ([name] + [row[k] for k in METRIC_KEYS] for name, row
                  in [*report.per_class.items(), ("macro", report.macro)]))
    fd.write_csv(os.path.join(out, "confusion.csv"), [""] + class_names,
                 ([name] + counts for name, counts in zip(class_names, cm.counts.tolist())))
    return {"overall_accuracy": report.overall_accuracy,
            "macro_f1": report.macro["f1"]}


def stage_report(cfg: PipelineConfig, out: str) -> dict:
    """Re-render the evaluation metrics as a human-readable table."""
    report = MetricsReport.from_dict(_read_json(_path(cfg, "evaluate", "metrics.json")))
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    return {"report": os.path.join(out, "report.txt")}


# ---- the stage table ----------------------------------------------------------

class Stage(NamedTuple):
    run: Callable[[PipelineConfig, str], dict]
    upstream: tuple[str, ...]       # stages whose outputs `run` reads
    fields: tuple[str, ...]         # PipelineConfig fields `run` reads


STAGE_TABLE = {
    "ingest": Stage(stage_ingest, (), ("input_path", "label_column", "socket_columns",
                                       "subsample", "seed")),
    "augment": Stage(stage_augment, ("ingest",), ("augment_policy", "gan", "seed")),
    "extract": Stage(stage_extract, ("ingest", "augment"),
                     ("classifier_input", "extractor_blocks", "extractor_base_channels",
                      "extractor_epochs", "extractor_batch_size", "seed")),
    "tune": Stage(stage_tune, ("ingest", "extract"),
                  ("skip_tune", "classifier_overrides", "aso", "proxy_epochs", "seed")),
    "train": Stage(stage_train, ("ingest", "extract", "tune"), ("seed",)),
    "evaluate": Stage(stage_evaluate, ("ingest", "extract", "train"), ("seed",)),
    "report": Stage(stage_report, ("evaluate",), ()),
}
# where outputs go or where settings came from, not what outputs hold: in no
# stage's fingerprint
NOT_FINGERPRINTED = ("out_dir", "emit_clean", "emit_synthetic", "file_keys")


def _upstream(cfg: PipelineConfig, stage: str) -> tuple[str, ...]:
    # a skipped tune reads nothing upstream, so it may run on an empty directory
    return () if stage == "tune" and cfg.skip_tune else STAGE_TABLE[stage].upstream


def _recorded(cfg: PipelineConfig, stage: str) -> str | None:
    path = _path(cfg, stage, "stage.json")
    return _read_json(path)["fingerprint"] if os.path.exists(path) else None


# (absolute path, size, mtime_ns) -> sha256, so each input is hashed once
_INPUT_DIGESTS: dict[tuple, str] = {}


def _input_digest(path) -> str | None:
    """sha256 of the file at `path`; None when it cannot be read, which
    leaves the load itself to report why."""
    try:
        st = os.stat(path)
        key = (os.path.abspath(path), st.st_size, st.st_mtime_ns)
        if key not in _INPUT_DIGESTS:
            _INPUT_DIGESTS[key] = file_digest(path)
    except OSError:
        return None
    return _INPUT_DIGESTS[key]


def stage_record(cfg: PipelineConfig, stage: str) -> dict:
    """What `stage` would record under `cfg`: the config fields it reads (for
    the input file, its sha256 too), the fingerprints its upstream stages
    recorded, and a sha256 over both."""
    config = asdict(cfg)
    fields = {name: config[name] for name in STAGE_TABLE[stage].fields}
    if "input_path" in fields:
        fields["input_sha256"] = _input_digest(cfg.input_path)
    record = {"config": fields,
              "upstream": {up: _recorded(cfg, up) for up in _upstream(cfg, stage)}}
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    return dict(record, fingerprint=hashlib.sha256(blob).hexdigest())


def run_stage(cfg: PipelineConfig, stage: str) -> dict:
    """Run one stage after checking that every upstream stage finished under
    the current config; write its `stage.json` last. On failure remove its
    partial outputs and raise a StageError carrying the stage's exit code."""
    for up in _upstream(cfg, stage):
        recorded = _recorded(cfg, up)
        if recorded is None:
            raise StageError(stage, f"missing {_path(cfg, up, 'stage.json')}; "
                                    f"run the {up!r} stage first")
        if recorded != stage_record(cfg, up)["fingerprint"]:
            raise StageError(stage, f"{up!r} outputs were made under another config "
                                    f"or from other inputs; re-run stage {up!r}")
    out = _path(cfg, stage)
    record = stage_record(cfg, stage)
    try:
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        info = STAGE_TABLE[stage].run(cfg, out)
        _write_json(os.path.join(out, "stage.json"), record)
        return info
    except Exception as exc:
        shutil.rmtree(out, ignore_errors=True)
        raise StageError(stage, str(exc)) from exc


STAGES = tuple(STAGE_TABLE)
STAGE_CODES = {name: 10 + i for i, name in enumerate(STAGES)}


def run_pipeline(cfg: PipelineConfig) -> dict:
    """All stages in order plus the run manifest; returns the manifest."""
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    stage_seconds: dict[str, float] = {}
    stage_info: dict[str, dict] = {}
    for stage in STAGES:
        t0 = time.perf_counter()
        stage_info[stage] = run_stage(cfg, stage)
        stage_seconds[stage] = time.perf_counter() - t0
        log.info("stage %s done in %.2fs", stage, stage_seconds[stage])

    # only what the stages wrote: other files under out_dir are not this run's
    digests = {f"{stage}/{name}": file_digest(_path(cfg, stage, name))
               for stage in STAGES for name in sorted(os.listdir(_path(cfg, stage)))
               if name.endswith((".bin", ".ckpt"))}
    manifest = {
        "config": dict(asdict(cfg), tool_version=__version__),
        "stage_seconds": stage_seconds,
        "census": {"before_augmentation": stage_info["augment"]["census_before"],
                   "after_augmentation": stage_info["augment"]["census_after"]},
        "hyperparameters": stage_info["tune"]["hyperparameters"],
        "checkpoint_digests": digests,
        "results": stage_info["evaluate"],
        "tool_version": __version__,
    }
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    return manifest
