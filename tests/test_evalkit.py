"""Metric checks against hand values and a brute-force pair-scanning oracle."""

import json

import numpy as np
import pytest

from dosids.evalkit import (ConfusionMatrix, MetricsReport,
                            confusion_from_predictions, per_class_metrics,
                            render_report)


def brute_force_metrics(y_true, y_pred, n_classes):
    """Independent oracle: re-derive TP/FP/FN/TN per class by scanning
    the label pairs, then apply the four formulas directly."""
    out = {}
    total = len(y_true)
    for c in range(n_classes):
        tp = fp = fn = tn = 0
        for t, p in zip(y_true, y_pred):
            if t == c and p == c:
                tp += 1
            elif t != c and p == c:
                fp += 1
            elif t == c and p != c:
                fn += 1
            else:
                tn += 1
        accuracy = (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[c] = (accuracy, precision, recall, f1)
    return out


def test_confusion_counting():
    cm = confusion_from_predictions([0, 0, 1], [0, 1, 1], 2)
    assert cm.counts[0, 0] == 1 and cm.counts[0, 1] == 1 and cm.counts[1, 1] == 1
    assert cm.total == 3


def test_confusion_perfect_is_diagonal():
    y = np.array([0, 1, 2, 1, 0])
    cm = confusion_from_predictions(y, y, 3)
    assert np.array_equal(cm.counts, np.diag([2, 2, 1]))


def test_confusion_empty_input():
    cm = confusion_from_predictions([], [], 3)
    assert cm.counts.sum() == 0


def test_confusion_rejects_out_of_range():
    with pytest.raises(ValueError):
        confusion_from_predictions([0, 3], [0, 1], 3)
    with pytest.raises(ValueError):
        confusion_from_predictions([0, 1], [0, -1], 3)


def test_hand_case_tp8_fp2_fn1_tn9():
    # one-vs-rest counts for class 0: TP=8, FP=2, FN=1, TN=9
    counts = np.array([[8, 1], [2, 9]])
    report = per_class_metrics(ConfusionMatrix(counts, ["pos", "neg"]))
    row = report.per_class["pos"]
    assert np.isclose(row["accuracy"], 0.85)
    assert np.isclose(row["precision"], 0.8)
    assert np.isclose(row["recall"], 8 / 9, atol=1e-4)
    assert np.isclose(row["f1"], 0.8421, atol=1e-4)


def test_perfect_predictions_all_ones():
    y = np.array([0, 1, 2, 2, 1, 0])
    report = per_class_metrics(confusion_from_predictions(y, y, 3))
    for row in report.per_class.values():
        assert all(np.isclose(row[k], 1.0) for k in row)
    assert report.overall_accuracy == 1.0


def test_absent_class_convention():
    # class 2 never predicted, never present: p/r/f1 = 0, accuracy = 1
    report = per_class_metrics(confusion_from_predictions([0, 1], [0, 1], 3))
    row = report.per_class["2"]
    assert row["precision"] == 0.0 and row["recall"] == 0.0 and row["f1"] == 0.0
    assert row["accuracy"] == 1.0


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        per_class_metrics(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ["a", "b"]))


def test_matches_brute_force_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n_classes = int(rng.integers(2, 11))
        n = int(rng.integers(1, 2000))
        y_true = rng.integers(0, n_classes, n)
        y_pred = rng.integers(0, n_classes, n)
        report = per_class_metrics(
            confusion_from_predictions(y_true, y_pred, n_classes))
        oracle = brute_force_metrics(y_true, y_pred, n_classes)
        for c in range(n_classes):
            row = report.per_class[str(c)]
            assert row["accuracy"] == oracle[c][0]
            assert row["precision"] == oracle[c][1]
            assert row["recall"] == oracle[c][2]
            assert row["f1"] == oracle[c][3]


def test_micro_recall_equals_overall_accuracy():
    rng = np.random.default_rng(7)
    y_true = rng.integers(0, 4, 500)
    y_pred = rng.integers(0, 4, 500)
    cm = confusion_from_predictions(y_true, y_pred, 4)
    report = per_class_metrics(cm)
    tp_sum = np.trace(cm.counts)
    support = cm.counts.sum(axis=1)
    micro_recall = tp_sum / support.sum()
    assert np.isclose(micro_recall, report.overall_accuracy)


def test_f1_between_precision_and_recall():
    rng = np.random.default_rng(8)
    y_true = rng.integers(0, 5, 800)
    y_pred = rng.integers(0, 5, 800)
    report = per_class_metrics(confusion_from_predictions(y_true, y_pred, 5))
    for row in report.per_class.values():
        if row["precision"] > 0 and row["recall"] > 0:
            assert min(row["precision"], row["recall"]) <= row["f1"] + 1e-12
            assert row["f1"] <= max(row["precision"], row["recall"]) + 1e-12


def test_one_vs_rest_counts_total():
    rng = np.random.default_rng(9)
    y_true = rng.integers(0, 3, 200)
    y_pred = rng.integers(0, 3, 200)
    cm = confusion_from_predictions(y_true, y_pred, 3)
    for c in range(3):
        tp = cm.counts[c, c]
        fp = cm.counts[:, c].sum() - tp
        fn = cm.counts[c, :].sum() - tp
        tn = cm.total - tp - fp - fn
        assert tp + fp + fn + tn == 200


def test_render_table_saturated_and_order():
    y = np.array([0, 1, 1, 0])
    report = per_class_metrics(confusion_from_predictions(y, y, 2, ["normal", "attack"]))
    table = render_report(report, "table")
    header = table.splitlines()[0].split()
    assert header == ["class", "f1", "recall", "precision", "accuracy"]
    assert table.count("100.00") >= 8


def test_render_json_round_trips():
    rng = np.random.default_rng(10)
    y_true = rng.integers(0, 3, 97)
    y_pred = rng.integers(0, 3, 97)
    report = per_class_metrics(confusion_from_predictions(y_true, y_pred, 3))
    again = MetricsReport.from_dict(json.loads(render_report(report, "json")))
    assert again.to_dict() == report.to_dict()


def test_render_csv_header_and_parse():
    y = np.array([0, 1, 0, 1, 1])
    report = per_class_metrics(confusion_from_predictions(y, y, 2, ["a", "b"]))
    lines = render_report(report, "csv").splitlines()
    assert lines[0] == "class,f1,recall,precision,accuracy"
    value = float(lines[1].split(",")[1])
    assert value == report.per_class["a"]["f1"]


def test_render_unknown_format():
    report = per_class_metrics(confusion_from_predictions([0, 1], [0, 1], 2))
    with pytest.raises(ValueError):
        render_report(report, "yaml")
