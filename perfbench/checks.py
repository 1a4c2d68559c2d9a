"""Output checks for one pipeline run, computed apart from the program.

Every expected value comes from the generated inputs (`workloads.Inputs`)
or from a property the method must have. Artifacts are read with this
file's own reader of the documented checkpoint layout, not with
`dosids.checkpoint`. Each check raises `CheckError` naming what differs.
"""

import csv
import hashlib
import json
import math
import os
import struct

import numpy as np

from workloads import HP_BOX, TRAIN_FRACTION


class CheckError(Exception):
    pass


def _expect(condition, message):
    if not condition:
        raise CheckError(message)


def read_arrays(path) -> dict:
    """Parse the DOSIDSCK container: magic, version, count, then per array
    a name, its dims and little-endian float32 data."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _expect(blob[:8] == b"DOSIDSCK", f"{path}: bad magic")
    _, count = struct.unpack_from("<II", blob, 8)
    offset, arrays = 16, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        name = blob[offset + 2:offset + 2 + name_len].decode("utf-8")
        offset += 2 + name_len
        ndim = blob[offset]
        shape = struct.unpack_from(f"<{ndim}I", blob, offset + 1)
        offset += 1 + 4 * ndim
        size = math.prod(shape)
        arrays[name] = np.frombuffer(blob, "<f4", size, offset).reshape(shape)
        offset += 4 * size
    _expect(offset == len(blob), f"{path}: {len(blob) - offset} trailing bytes")
    return arrays


def _json(run, *parts):
    with open(os.path.join(run, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(run, *parts):
    with open(os.path.join(run, *parts), encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _split_count(n):
    return min(max(int(round(n * TRAIN_FRACTION)), 1), n - 1)


def expected_census(inputs) -> tuple[dict, dict]:
    """Train and test rows per class after the row cap and the stratified
    split, from the generated labels alone."""
    counts = np.bincount(inputs.labels, minlength=len(inputs.class_names))
    if inputs.row_cap is not None and inputs.rows > inputs.row_cap:
        frac = inputs.row_cap / inputs.rows
        counts = [max(2, int(round(n * frac))) if n >= 2 else n for n in counts]
    train = {name: _split_count(int(n)) for name, n in zip(inputs.class_names, counts)}
    test = {name: int(n) - train[name] for name, n in zip(inputs.class_names, counts)}
    return train, test


def expected_after_augment(inputs) -> dict:
    before, _ = expected_census(inputs)
    if inputs.augment_policy == "none":
        return before
    ordered = sorted(before.values())
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return {name: max(n, int(median)) for name, n in before.items()}


def check_census(run, inputs):
    train, test = expected_census(inputs)
    meta = _json(run, "ingest", "dataset.json")
    _expect(meta["class_names"] == inputs.class_names,
            f"class order {meta['class_names']} != {inputs.class_names}")
    _expect(meta["census"]["train"] == train, f"train census {meta['census']['train']} != {train}")
    _expect(meta["census"]["test"] == test, f"test census {meta['census']['test']} != {test}")
    _expect(_json(run, "augment", "augment.json")["census_before"] == train,
            "augment saw a different training census than the split produced")


def check_encoded_width(run, inputs):
    meta = _json(run, "ingest", "dataset.json")
    retained = sorted(c["name"] for c in meta["schema"] if c["kind"] == "numeric")
    expected = sorted(inputs.numeric_columns
                      + [f"{inputs.category_column}={v}" for v in inputs.categories])
    _expect(retained == expected, f"encoded columns {retained} != {expected}")
    features = read_arrays(os.path.join(run, "ingest", "train.bin"))["features"]
    _expect(features.shape[1] == len(expected),
            f"train matrix width {features.shape[1]} != {len(expected)}")


def check_normalized(run, inputs):
    features = read_arrays(os.path.join(run, "ingest", "train.bin"))["features"]
    for j in range(features.shape[1]):
        col = features[:, j]
        lo, hi = float(col.min()), float(col.max())
        _expect((lo, hi) == (0.0, 1.0) or (lo, hi) == (0.0, 0.0),
                f"normalized training column {j} spans [{lo}, {hi}]")


def check_augment(run, inputs):
    after = _json(run, "augment", "augment.json")["census_after"]
    expected = expected_after_augment(inputs)
    _expect(after == expected, f"census after augment {after} != {expected}")
    base = read_arrays(os.path.join(run, "ingest", "train.bin"))
    grown = read_arrays(os.path.join(run, "augment", "train_aug.bin"))
    n = base["labels"].shape[0]
    _expect(grown["labels"].shape[0] == sum(expected.values()),
            f"train_aug.bin has {grown['labels'].shape[0]} rows")
    _expect(np.array_equal(grown["features"][:n], base["features"])
            and np.array_equal(grown["labels"][:n], base["labels"]),
            "train.bin is not a row prefix of train_aug.bin")
    synthetic = grown["features"][n:]
    _expect(synthetic.size == 0 or (synthetic.min() >= 0.0 and synthetic.max() <= 1.0),
            "synthetic rows leave [0, 1]")


def check_tune(run, inputs):
    hp_file = _json(run, "tune", "hyperparams.json")
    hp = hp_file["hyperparameters"]
    trace = _csv_rows(run, "tune", "aso_trace.csv")
    _expect(trace[0] == ["iteration", "best_fitness", "mean_fitness", "K"],
            f"aso_trace.csv header {trace[0]}")
    if inputs.tune is None:
        _expect(hp_file["tuned"] is False and hp == inputs.skip_tune_hp,
                f"skipped tuning should keep {inputs.skip_tune_hp}, got {hp}")
        _expect(len(trace) == 1, "skipped tuning wrote tuner iterations")
        return
    population, iterations = inputs.tune
    _expect(hp_file["tuned"] is True, "tuning did not run")
    _expect(hp_file["evaluations"] == population * (iterations + 1),
            f"{hp_file['evaluations']} evaluations != {population} x ({iterations} + 1)")
    best = [float(row[1]) for row in trace[1:]]
    _expect(len(best) == iterations, f"{len(best)} trace rows != {iterations} iterations")
    _expect(all(b <= a for a, b in zip(best, best[1:])), "best fitness rose along the trace")
    _expect(hp_file["validation_error"] == best[-1], "reported error is not the trace's best")
    for key in ("momentum", "learning_rate", "weight_decay", "epochs"):
        lo, hi = HP_BOX[key]
        _expect(lo * (1 - 1e-12) <= hp[key] <= hi * (1 + 1e-12),
                f"tuned {key} {hp[key]} outside [{lo}, {hi}]")
    _expect(hp["batch_size"] in HP_BOX["batch_size"], f"tuned batch size {hp['batch_size']}")
    _expect(isinstance(hp["epochs"], int), "tuned epochs is not a whole number")


def check_training(run, inputs):
    rows = _csv_rows(run, "train", "epoch_trace.csv")[1:]
    epochs = _json(run, "tune", "hyperparams.json")["hyperparameters"]["epochs"]
    _expect(len(rows) == epochs, f"{len(rows)} training epochs != {epochs}")
    first, final = float(rows[0][1]), float(rows[-1][1])
    _expect(final < first, f"final training loss {final} is not below the first {first}")


def macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean over classes of one-vs-rest F1; 0 where undefined."""
    scores = []
    for c in range(confusion.shape[0]):
        tp = int(confusion[c, c])
        predicted, actual = int(confusion[:, c].sum()), int(confusion[c, :].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        total = precision + recall
        scores.append(2.0 * precision * recall / total if total else 0.0)
    return sum(scores) / len(scores)


def check_confusion(run, inputs):
    rows = _csv_rows(run, "evaluate", "confusion.csv")
    names = rows[0][1:]
    _expect(names == inputs.class_names, f"confusion classes {names}")
    confusion = np.array([[int(v) for v in row[1:]] for row in rows[1:]])
    _, test = expected_census(inputs)
    sums = {name: int(s) for name, s in zip(names, confusion.sum(axis=1))}
    _expect(sums == test, f"confusion row sums {sums} != test census {test}")
    reported = _json(run, "evaluate", "metrics.json")["macro"]["f1"]
    ours = macro_f1(confusion)
    _expect(abs(reported - ours) <= 1e-12, f"macro F1 {reported} != recomputed {ours}")
    _expect(ours >= inputs.macro_f1_floor,
            f"macro F1 {ours} below the floor {inputs.macro_f1_floor}")


CHECKS = (check_census, check_encoded_width, check_normalized, check_augment,
          check_tune, check_training, check_confusion)


def check_run(run, inputs):
    for check in CHECKS:
        check(run, inputs)


def run_digest(run) -> dict:
    """metrics.json bytes plus every matrix and checkpoint, hashed here,
    and the manifest's own checkpoint digests."""
    digests = {}
    for root, _, files in os.walk(run):
        for name in files:
            if name.endswith((".bin", ".ckpt")) or name == "metrics.json":
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, run)] = hashlib.sha256(fh.read()).hexdigest()
    digests["manifest.checkpoint_digests"] = _json(run, "manifest.json")["checkpoint_digests"]
    return digests


def check_identical(runs):
    """Runs of one input must agree byte for byte."""
    first = run_digest(runs[0])
    for other in runs[1:]:
        digest = run_digest(other)
        differing = sorted(k for k in set(first) | set(digest) if first.get(k) != digest.get(k))
        _expect(not differing, f"{other} differs from {runs[0]} in {differing}")
