"""Confusion matrices and per-class / macro classification metrics.

Per-class numbers come from a one-vs-rest reduction of the multi-class
confusion matrix, which is the only reading under which per-class
accuracy differs between classes. Zero-denominator precision/recall/F1
are defined as 0. Macro averages are unweighted class means.
"""

from dataclasses import dataclass

import numpy as np

METRIC_KEYS = ("accuracy", "precision", "recall", "f1")


@dataclass
class ConfusionMatrix:
    counts: np.ndarray          # [n_classes, n_classes], rows = true class
    class_names: list[str]

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    class_names: list[str]
    per_class: dict[str, dict[str, float]]
    macro: dict[str, float]
    overall_accuracy: float

    def to_dict(self) -> dict:
        return {
            "class_names": list(self.class_names),
            "per_class": self.per_class,
            "macro": self.macro,
            "overall_accuracy": self.overall_accuracy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(class_names=list(d["class_names"]),
                   per_class={k: dict(v) for k, v in d["per_class"].items()},
                   macro=dict(d["macro"]),
                   overall_accuracy=float(d["overall_accuracy"]))


def confusion_from_predictions(y_true, y_pred, n_classes: int,
                               class_names: list[str] | None = None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("label vectors differ in length")
    for name, v in (("true", y_true), ("predicted", y_pred)):
        if v.size and (v.min() < 0 or v.max() >= n_classes):
            raise ValueError(f"{name} label out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    if class_names is None:
        class_names = [str(i) for i in range(n_classes)]
    return ConfusionMatrix(counts=counts, class_names=list(class_names))


def per_class_metrics(cm: ConfusionMatrix) -> MetricsReport:
    counts = cm.counts
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    per_class = {}
    sums = {k: 0.0 for k in METRIC_KEYS}
    for c, name in enumerate(cm.class_names):
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        tn = total - tp - fp - fn
        accuracy = (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        row = {"accuracy": float(accuracy), "precision": float(precision),
               "recall": float(recall), "f1": float(f1)}
        per_class[name] = row
        for k in METRIC_KEYS:
            sums[k] += row[k]
    macro = {k: sums[k] / cm.n_classes for k in METRIC_KEYS}
    overall = float(np.trace(counts) / total)
    return MetricsReport(class_names=list(cm.class_names), per_class=per_class,
                         macro=macro, overall_accuracy=overall)


def _pct(v: float) -> str:
    return f"{100.0 * v:.2f}"


def render_report(report: MetricsReport) -> str:
    """Render as a percentage table, f1/recall/precision/accuracy columns."""
    width = max([len(n) for n in report.class_names] + [len("class"), len("macro")])
    header = f"{'class':<{width}}  {'f1':>9}  {'recall':>9}  {'precision':>9}  {'accuracy':>9}"
    lines = [header, "-" * len(header)]
    for name in report.class_names:
        row = report.per_class[name]
        lines.append(f"{name:<{width}}  {_pct(row['f1']):>9}  {_pct(row['recall']):>9}  "
                     f"{_pct(row['precision']):>9}  {_pct(row['accuracy']):>9}")
    m = report.macro
    lines.append("-" * len(header))
    lines.append(f"{'macro':<{width}}  {_pct(m['f1']):>9}  {_pct(m['recall']):>9}  "
                 f"{_pct(m['precision']):>9}  {_pct(m['accuracy']):>9}")
    lines.append(f"overall accuracy: {_pct(report.overall_accuracy)}")
    return "\n".join(lines) + "\n"
