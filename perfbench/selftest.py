"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection (the file name does
not match test_*.py); run it from the root of the checkout. It checks
that the input generators reproduce from a seed, that every output check
passes on a real run and fails on a deliberately corrupted copy of it,
and that the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_reproduce_from_seed(name):
    make = workloads.WORKLOADS[name]
    a, b, other = make(3), make(3), make(4)
    assert a.csv_text == b.csv_text
    assert np.array_equal(a.labels, b.labels) and a.class_names == b.class_names
    assert a.csv_text != other.csv_text


def test_benchmark_json_lists_every_reported_metric():
    from run import END_TO_END
    from tracer import LAYER_METRICS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(LAYER_METRICS)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


TINY_HP = {"momentum": 0.9, "weight_decay": 0.0, "epochs": 30,
           "learning_rate": 0.05, "batch_size": 16}


def _tiny_inputs(seed, tune=None):
    """A seconds-long run that still trains a GAN and falls back to jitter
    for one class; the classifier reads the preprocessed rows directly.
    With `tune`, the (population, iterations) of a tuner."""
    rng = np.random.default_rng([seed, 9])
    text, y, names, numeric = workloads._blob_flow_csv(
        rng, (60, 60, 60, 20, 4), 13, ["a", "b", "c", "d", "e"], 0.05)
    config = {"data.label_column": "attack_cat", "data.socket_columns": "src_ip",
              "run.seed": "5", "gan.epochs": "1", "gan.batch_size": "4",
              "classifier.input": "raw"}
    if tune is None:
        config["tune.skip"] = "true"
        config.update({f"classifier.{k}": str(v) for k, v in TINY_HP.items()})
    else:
        config.update({"aso.population": str(tune[0]), "aso.iterations": str(tune[1]),
                       "aso.proxy_epochs": "1"})
    return workloads.Inputs(
        csv_text=text, config=config, preset=None, class_names=names, labels=y,
        numeric_columns=numeric, category_column="proto",
        categories=list(workloads.PROTOCOLS), row_cap=None, augment_policy="median",
        tune=tune, skip_tune_hp=None if tune else dict(TINY_HP), macro_f1_floor=0.0)


def _config(inputs, base, out):
    from dosids import pipeline

    path = base / f"{out.name}.cfg"
    path.write_text(workloads.config_text(inputs, str(base / "flows.csv"), str(out)),
                    encoding="utf-8")
    return pipeline.config_from_file(path)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from dosids import pipeline

    base = tmp_path_factory.mktemp("tiny")
    inputs = _tiny_inputs(1)
    (base / "flows.csv").write_text(inputs.csv_text, encoding="utf-8")
    pipeline.run_pipeline(_config(inputs, base, base / "run"))
    return inputs, base / "run"


@pytest.fixture(scope="module")
def tuned_run(tiny_run):
    """The tiny run's outputs with the tune stage re-run under a tuner."""
    from dosids import pipeline

    _, run = tiny_run
    inputs = _tiny_inputs(1, tune=(2, 2))
    tuned = run.parent / "tuned"
    shutil.copytree(run, tuned)
    pipeline.run_stage(_config(inputs, run.parent, tuned), "tune")
    return inputs, tuned


def _write_arrays(path, arrays):
    blob = bytearray(b"DOSIDSCK" + struct.pack("<II", 1, len(arrays)))
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name], dtype="<f4")
        blob += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", data.ndim)
        blob += b"".join(struct.pack("<I", d) for d in data.shape) + data.tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _edit_matrix(path, edit):
    arrays = {k: np.array(v) for k, v in checks.read_arrays(path).items()}
    edit(arrays)
    _write_arrays(path, arrays)


def _edit_csv_cell(path, row, col, edit):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    rows[row][col] = edit(rows[row][col])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def _drop_one_hot(meta):
    victim = next(c for c in meta["schema"] if "=" in c["name"])
    victim["kind"] = "constant"


def _squash_column(arrays):
    arrays["features"][:, 0] *= 0.5


def _raise_best(path):
    _edit_csv_cell(path, -1, 1, lambda v: repr(float(v) + 0.5))


CORRUPTIONS = {
    "check_census": lambda run: _edit_json(
        run / "ingest" / "dataset.json",
        lambda m: m["census"]["train"].update(a=m["census"]["train"]["a"] + 1)),
    "check_encoded_width": lambda run: _edit_json(run / "ingest" / "dataset.json",
                                                  _drop_one_hot),
    "check_normalized": lambda run: _edit_matrix(run / "ingest" / "train.bin", _squash_column),
    "check_augment": lambda run: _edit_matrix(
        run / "augment" / "train_aug.bin",
        lambda a: a["features"].__setitem__((0, 0), a["features"][0, 0] + 0.25)),
    "check_tune": lambda run: _raise_best(run / "tune" / "aso_trace.csv"),
    "check_training": lambda run: _edit_csv_cell(run / "train" / "epoch_trace.csv", -1, 1,
                                                 lambda v: "1e9"),
    "check_confusion": lambda run: _edit_csv_cell(run / "evaluate" / "confusion.csv", 1, 2,
                                                  lambda v: str(int(v) + 1)),
}


def test_every_check_passes_on_a_real_run(tiny_run, tuned_run):
    checks.check_run(*reversed(tiny_run))
    checks.check_tune(*reversed(tuned_run))
    assert set(CORRUPTIONS) == {c.__name__ for c in checks.CHECKS}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_each_check_fails_on_a_corrupted_copy(request, tmp_path, name):
    inputs, run = request.getfixturevalue("tuned_run" if name == "check_tune" else "tiny_run")
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    check = getattr(checks, name)
    check(copy, inputs)
    CORRUPTIONS[name](copy)
    with pytest.raises(checks.CheckError):
        check(copy, inputs)


def test_macro_f1_floor_is_enforced(tiny_run):
    inputs, run = tiny_run
    with open(run / "evaluate" / "metrics.json", encoding="utf-8") as fh:
        achieved = json.load(fh)["macro"]["f1"]
    inputs = workloads.Inputs(**{**inputs.__dict__, "macro_f1_floor": achieved + 1e-6})
    with pytest.raises(checks.CheckError):
        checks.check_confusion(run, inputs)


def test_identical_check_fails_when_reruns_differ(tiny_run, tmp_path):
    _, run = tiny_run
    twin = tmp_path / "twin"
    shutil.copytree(run, twin)
    checks.check_identical([run, twin])
    with open(twin / "evaluate" / "metrics.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    with pytest.raises(checks.CheckError):
        checks.check_identical([run, twin])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gan_imbalanced",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
