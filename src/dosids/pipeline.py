"""Staged end-to-end runs: ingest -> augment -> extract -> tune -> train ->
evaluate -> report.

Every stage is a pure function of its config plus the previous stage's
files, so stages can be re-run independently and a full run is exactly
the stage sequence. All randomness derives from the master seed through
named substreams; re-running a config reproduces every emitted number.
"""

import json
import logging
import os
import shutil
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, augment as aug, flowdata as fd
from .alexclf import (HYPERPARAMETER_TYPES, Hyperparameters, build_classifier, predict,
                      train_classifier)
from .aso import AsoConfig, tune_hyperparameters
from .augment import GanConfig
from .checkpoint import file_digest, load_arrays, save_arrays
from .evalkit import confusion_from_predictions, per_class_metrics, render_report
from .resfeat import build_feature_extractor, extract_features, train_feature_extractor
from .seeding import substream_seed

log = logging.getLogger(__name__)

STAGES = ("ingest", "augment", "extract", "tune", "train", "evaluate", "report")
STAGE_CODES = {name: 10 + i for i, name in enumerate(STAGES)}


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
    subsample: int | None = None
    train_fraction: float = 0.7
    augment_policy: str = "median"          # "median" or "none"
    augment_targets: dict[str, int] = field(default_factory=dict)
    gan: GanConfig = field(default_factory=GanConfig)
    extractor_blocks: int = 16
    extractor_base_channels: int = 16
    extractor_feature_dim: int | None = None
    extractor_epochs: int = 10
    extractor_lr: float = 0.01
    extractor_batch_size: int = 32
    aso: AsoConfig = field(default_factory=lambda: AsoConfig(population=20, iterations=30))
    proxy_epochs: int = 5
    skip_tune: bool = False
    classifier_overrides: Hyperparameters | None = None
    classifier_input: str = "features"      # "features" or "raw"
    seed: int = 0
    out_dir: str = "runs/out"
    emit_clean: str | None = None
    emit_synthetic: str | None = None

    def validate(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.augment_policy not in ("median", "none"):
            raise ValueError("augment_policy must be 'median' or 'none'")
        if self.classifier_input not in ("features", "raw"):
            raise ValueError("classifier_input must be 'features' or 'raw'")
        if self.proxy_epochs < 1:
            raise ValueError("proxy_epochs must be >= 1")
        self.gan.validate()
        self.aso.validate()
        if self.classifier_overrides is not None:
            self.classifier_overrides.validate()

    def snapshot(self) -> dict:
        d = asdict(self)
        d["tool_version"] = __version__
        return d


def apply_preset(cfg: PipelineConfig, preset: str) -> PipelineConfig:
    """Desk: minutes-scale settings. Paper: full-depth settings."""
    if preset == "desk":
        return replace(cfg,
                       subsample=5000 if cfg.subsample is None else min(cfg.subsample, 5000),
                       extractor_blocks=4,
                       gan=replace(cfg.gan, epochs=30),
                       aso=replace(cfg.aso, population=10, iterations=20),
                       proxy_epochs=3)
    if preset == "paper":
        return replace(cfg,
                       extractor_blocks=16,
                       gan=replace(cfg.gan, epochs=200),
                       aso=replace(cfg.aso, population=20, iterations=30),
                       proxy_epochs=5)
    raise ValueError(f"unknown preset {preset!r} (expected 'desk' or 'paper')")


# ---- config file ------------------------------------------------------------

def parse_config_file(path) -> dict[str, str]:
    """Flat `dotted.key = value` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _as_bool(v: str) -> bool:
    if v.lower() in ("1", "true", "yes", "on"):
        return True
    if v.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _column_list(v: str) -> list[str]:
    return [c.strip() for c in v.split(",") if c.strip()]


# dotted config key -> (PipelineConfig field, or "gan."/"aso." sub-field; parser).
# `augment.target.<class>` and `classifier.<hyperparameter>` are prefix rules.
CONFIG_KEYS = {
    "data.input": ("input_path", str),
    "data.label_column": ("label_column", str),
    "data.socket_columns": ("socket_columns", _column_list),
    "data.subsample": ("subsample", int),
    "split.train_fraction": ("train_fraction", float),
    "augment.policy": ("augment_policy", str),
    "gan.noise_dim": ("gan.noise_dim", int),
    "gan.learning_rate": ("gan.learning_rate", float),
    "gan.batch_size": ("gan.batch_size", int),
    "gan.epochs": ("gan.epochs", int),
    "extractor.blocks": ("extractor_blocks", int),
    "extractor.base_channels": ("extractor_base_channels", int),
    "extractor.feature_dim": ("extractor_feature_dim", int),
    "extractor.epochs": ("extractor_epochs", int),
    "extractor.learning_rate": ("extractor_lr", float),
    "extractor.batch_size": ("extractor_batch_size", int),
    "aso.population": ("aso.population", int),
    "aso.iterations": ("aso.iterations", int),
    "aso.depth_weight": ("aso.depth_weight", float),
    "aso.multiplier_weight": ("aso.multiplier_weight", float),
    "aso.force_law": ("aso.force_law", str),
    "aso.proxy_epochs": ("proxy_epochs", int),
    "tune.skip": ("skip_tune", _as_bool),
    "classifier.input": ("classifier_input", str),
    "run.seed": ("seed", int),
    "run.out": ("out_dir", str),
}


def config_from_file(path) -> PipelineConfig:
    cfg = PipelineConfig()
    overrides: dict[str, str] = {}
    for key, v in parse_config_file(path).items():
        if key in CONFIG_KEYS:
            field_path, parse = CONFIG_KEYS[key]
            parent, _, name = field_path.rpartition(".")
            setattr(getattr(cfg, parent) if parent else cfg, name, parse(v))
        elif key.startswith("augment.target."):
            cfg.augment_targets[key[len("augment.target."):]] = int(v)
        elif key.startswith("classifier."):
            overrides[key[len("classifier."):]] = v
        else:
            raise ValueError(f"unknown config key {key!r}")
    if overrides:
        hp = Hyperparameters()
        for name, v in overrides.items():
            if name not in HYPERPARAMETER_TYPES:
                raise ValueError(f"unknown classifier override {name!r}")
            setattr(hp, name, HYPERPARAMETER_TYPES[name](v))
        cfg.classifier_overrides = hp
    return cfg


# ---- dataset artifact io -----------------------------------------------------

def _stage_dir(cfg: PipelineConfig, stage: str, create: bool = False) -> str:
    path = os.path.join(cfg.out_dir, stage)
    if create:
        os.makedirs(path, exist_ok=True)
    return path


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


def _schema_to_json(schema: list[fd.ColumnSchema]) -> list[dict]:
    return [{"name": c.name, "kind": c.kind, "categories": c.categories} for c in schema]


def _schema_from_json(items: list[dict]) -> list[fd.ColumnSchema]:
    return [fd.ColumnSchema(i["name"], i["kind"], i["categories"]) for i in items]


def _require(path, stage: str, missing_stage: str):
    if not os.path.exists(path):
        raise StageError(stage, f"missing artifact {path}; run the "
                                f"{missing_stage!r} stage first")


def _load_dataset(cfg: PipelineConfig, stage: str, matrix_name: str) -> fd.Dataset:
    meta_path = os.path.join(_stage_dir(cfg, "ingest"), "dataset.json")
    _require(meta_path, stage, "ingest")
    meta = _read_json(meta_path)
    src_stage = "augment" if matrix_name == "train_aug.bin" else "ingest"
    matrix_path = os.path.join(_stage_dir(cfg, src_stage), matrix_name)
    _require(matrix_path, stage, src_stage)
    features, labels = _load_matrix(matrix_path)
    norm = meta.get("normalization")
    params = None
    if norm is not None:
        params = fd.MinMaxParams(columns=list(norm["columns"]),
                                 x_mn=np.asarray(norm["x_mn"]),
                                 x_mx=np.asarray(norm["x_mx"]))
    return fd.Dataset(features=features, labels=labels,
                      class_names=list(meta["class_names"]),
                      schema=_schema_from_json(meta["schema"]),
                      normalization=params)


def _census(labels: np.ndarray, class_names: list[str]) -> dict[str, int]:
    counts = np.bincount(labels, minlength=len(class_names))
    return {name: int(counts[i]) for i, name in enumerate(class_names)}


# ---- stages -----------------------------------------------------------------

def stage_ingest(cfg: PipelineConfig) -> dict:
    """Load, clean, split, encode and normalize; cache both splits."""
    out = _stage_dir(cfg, "ingest", create=True)
    raw = fd.load_flow_csv(cfg.input_path, cfg.label_column)
    raw = fd.drop_socket_and_constant_features(raw, cfg.socket_columns)
    if cfg.subsample is not None:
        raw = fd.subsample(raw, cfg.subsample, substream_seed(cfg.seed, "subsample"))
    train, test = fd.stratified_split(raw, cfg.train_fraction,
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
        "schema": _schema_to_json(train.schema),
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


def stage_augment(cfg: PipelineConfig) -> dict:
    """Raise minority classes to their targets with per-class GANs."""
    out = _stage_dir(cfg, "augment", create=True)
    train = _load_dataset(cfg, "augment", "train.bin")
    before = _census(train.labels, train.class_names)

    targets: dict = {}
    if cfg.augment_policy == "median":
        targets.update(aug.median_targets(train))
    for name, count in cfg.augment_targets.items():
        targets[name] = count
    gan_cfg = replace(cfg.gan, seed=substream_seed(cfg.seed, "gan"))
    augmented = aug.oversample_minorities(train, targets, gan_cfg)
    after = _census(augmented.labels, augmented.class_names)

    _save_matrix(os.path.join(out, "train_aug.bin"),
                 augmented.features, augmented.labels)
    _write_json(os.path.join(out, "augment.json"), {
        "census_before": before, "census_after": after,
        "targets": {train.class_names[c] if isinstance(c, int) else c: int(n)
                    for c, n in targets.items()},
    })
    if cfg.emit_synthetic:
        synth = augmented.features[train.n_rows:]
        labels = augmented.labels[train.n_rows:]
        with open(cfg.emit_synthetic, "w", encoding="utf-8") as fh:
            fh.write(",".join(train.feature_names() + ["label", "synthetic"]) + "\n")
            for row, lab in zip(synth, labels):
                fh.write(",".join(repr(float(v)) for v in row)
                         + f",{train.class_names[lab]},1\n")
    return {"census_before": before, "census_after": after}


def stage_extract(cfg: PipelineConfig) -> dict:
    """Train and freeze the residual extractor; cache feature matrices.

    classifier_input='raw' passes the preprocessed rows through untouched
    (no extractor is trained)."""
    out = _stage_dir(cfg, "extract", create=True)
    train = _load_dataset(cfg, "extract", "train_aug.bin")
    test = _load_dataset(cfg, "extract", "test.bin")

    if cfg.classifier_input == "raw":
        feats_train, feats_test = train.features, test.features
        info = {"mode": "raw", "feature_dim": int(train.n_features)}
    else:
        f = build_feature_extractor(train.n_features, blocks=cfg.extractor_blocks,
                                    base_channels=cfg.extractor_base_channels,
                                    feature_dim=cfg.extractor_feature_dim,
                                    seed=substream_seed(cfg.seed, "extractor"))
        f = train_feature_extractor(f, train, epochs=cfg.extractor_epochs,
                                    lr=cfg.extractor_lr,
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


def _inner_split(labels: np.ndarray, fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        n_train = min(max(int(round(len(members) * fraction)), 1), len(members) - 1)
        perm = rng.permutation(len(members))
        train_idx.append(members[perm[:n_train]])
        val_idx.append(members[perm[n_train:]])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def stage_tune(cfg: PipelineConfig) -> dict:
    """Atom-search over the hyperparameter box against an inner validation
    fold, each candidate scored by a short proxy training run."""
    out = _stage_dir(cfg, "tune", create=True)
    trace_path = os.path.join(out, "aso_trace.csv")
    if cfg.skip_tune:
        hp = (cfg.classifier_overrides if cfg.classifier_overrides is not None
              else Hyperparameters())
        _write_json(os.path.join(out, "hyperparams.json"),
                    {"hyperparameters": hp.to_dict(), "tuned": False})
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("iteration,best_fitness,mean_fitness,K\n")
        return {"tuned": False, "hyperparameters": hp.to_dict()}

    feats_path = os.path.join(_stage_dir(cfg, "extract"), "train_features.bin")
    _require(feats_path, "tune", "extract")
    features, labels = _load_matrix(feats_path)
    meta = _read_json(os.path.join(_stage_dir(cfg, "ingest"), "dataset.json"))
    n_classes = len(meta["class_names"])
    tr_idx, val_idx = _inner_split(labels, 0.8, substream_seed(cfg.seed, "aso", "inner-split"))
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
    _write_json(os.path.join(out, "hyperparams.json"),
                {"hyperparameters": result.hyperparameters.to_dict(),
                 "validation_error": result.validation_error,
                 "evaluations": result.evaluations, "tuned": True})
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("iteration,best_fitness,mean_fitness,K\n")
        for nt, best, mean, k in result.trace:
            fh.write(f"{nt},{best!r},{mean!r},{k}\n")
    return {"tuned": True, "hyperparameters": result.hyperparameters.to_dict(),
            "validation_error": result.validation_error}


def stage_train(cfg: PipelineConfig) -> dict:
    """Train the classifier at full budget with the winning settings."""
    out = _stage_dir(cfg, "train", create=True)
    feats_path = os.path.join(_stage_dir(cfg, "extract"), "train_features.bin")
    hp_path = os.path.join(_stage_dir(cfg, "tune"), "hyperparams.json")
    _require(feats_path, "train", "extract")
    _require(hp_path, "train", "tune")
    features, labels = _load_matrix(feats_path)
    meta = _read_json(os.path.join(_stage_dir(cfg, "ingest"), "dataset.json"))
    n_classes = len(meta["class_names"])
    hp = Hyperparameters.from_dict(_read_json(hp_path)["hyperparameters"])

    clf = build_classifier(features.shape[1], n_classes,
                           seed=substream_seed(cfg.seed, "classifier"))
    clf, trace = train_classifier(clf, features, labels, hp,
                                  seed=substream_seed(cfg.seed, "classifier"))
    save_arrays(os.path.join(out, "classifier.ckpt"), clf.state_arrays())
    with open(os.path.join(out, "epoch_trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,train_acc\n")
        for epoch, loss, acc in trace:
            fh.write(f"{epoch},{loss!r},{acc!r}\n")
    _write_json(os.path.join(out, "train.json"), {
        "hyperparameters": hp.to_dict(),
        "feature_dim": int(features.shape[1]),
        "n_classes": n_classes,
        "first_epoch_loss": trace[0][1], "final_epoch_loss": trace[-1][1],
        "final_train_accuracy": trace[-1][2],
    })
    return {"epochs": hp.epochs, "final_loss": trace[-1][1],
            "final_train_accuracy": trace[-1][2]}


def stage_evaluate(cfg: PipelineConfig) -> dict:
    """Score the held-out split and write the metric reports."""
    out = _stage_dir(cfg, "evaluate", create=True)
    feats_path = os.path.join(_stage_dir(cfg, "extract"), "test_features.bin")
    ckpt_path = os.path.join(_stage_dir(cfg, "train"), "classifier.ckpt")
    info_path = os.path.join(_stage_dir(cfg, "train"), "train.json")
    _require(feats_path, "evaluate", "extract")
    _require(ckpt_path, "evaluate", "train")
    _require(info_path, "evaluate", "train")
    features, labels = _load_matrix(feats_path)
    info = _read_json(info_path)
    meta = _read_json(os.path.join(_stage_dir(cfg, "ingest"), "dataset.json"))

    clf = build_classifier(info["feature_dim"], info["n_classes"],
                           seed=substream_seed(cfg.seed, "classifier"))
    clf.load_state(load_arrays(ckpt_path))
    clf.trained = True
    pred, _ = predict(clf, features)
    cm = confusion_from_predictions(labels, pred, info["n_classes"],
                                    meta["class_names"])
    report = per_class_metrics(cm)

    with open(os.path.join(out, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(render_report(report, "json"))
        fh.write("\n")
    with open(os.path.join(out, "per_class.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_report(report, "csv"))
    with open(os.path.join(out, "confusion.csv"), "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(meta["class_names"]) + "\n")
        for i, name in enumerate(meta["class_names"]):
            fh.write(name + "," + ",".join(str(v) for v in cm.counts[i]) + "\n")
    return {"overall_accuracy": report.overall_accuracy,
            "macro_f1": report.macro["f1"]}


def stage_report(cfg: PipelineConfig) -> dict:
    """Re-render the evaluation metrics as a human-readable table."""
    out = _stage_dir(cfg, "report", create=True)
    metrics_path = os.path.join(_stage_dir(cfg, "evaluate"), "metrics.json")
    _require(metrics_path, "report", "evaluate")
    from .evalkit import MetricsReport
    report = MetricsReport.from_dict(_read_json(metrics_path))
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_report(report, "table"))
    return {"report": os.path.join(out, "report.txt")}


_STAGE_FUNCS = {
    "ingest": stage_ingest, "augment": stage_augment, "extract": stage_extract,
    "tune": stage_tune, "train": stage_train, "evaluate": stage_evaluate,
    "report": stage_report,
}


def run_stage(cfg: PipelineConfig, stage: str) -> dict:
    """Run one stage; on failure remove its partial outputs and raise a
    StageError carrying the stage's exit code."""
    func = _STAGE_FUNCS[stage]
    try:
        return func(cfg)
    except StageError:
        shutil.rmtree(_stage_dir(cfg, stage), ignore_errors=True)
        raise
    except Exception as exc:
        shutil.rmtree(_stage_dir(cfg, stage), ignore_errors=True)
        raise StageError(stage, str(exc)) from exc


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

    digests = {}
    for root, _, files in os.walk(cfg.out_dir):
        for name in sorted(files):
            if name.endswith((".bin", ".ckpt")):
                path = os.path.join(root, name)
                digests[os.path.relpath(path, cfg.out_dir)] = file_digest(path)
    manifest = {
        "config": cfg.snapshot(),
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
