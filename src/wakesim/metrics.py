"""Confusion matrices and F1 summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datapipe.beats import N_CLASSES


def count_pairs(rows, cols, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) table counting each (rows[i], cols[i]) pair.

    Raises ValueError when the sequences differ in length or a value falls
    outside 0..n-1 for its axis.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError(f"need two equal-length label sequences, got {rows.shape} and {cols.shape}")
    for values, n in ((rows, n_rows), (cols, n_cols)):
        if len(values) and not 0 <= values.min() <= values.max() < n:
            raise ValueError(f"labels must lie in 0..{n - 1}, got {values.min()}..{values.max()}")
    return np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols).reshape(n_rows, n_cols)


@dataclass
class ConfusionMatrix:
    """Square count matrix, rows = true class, columns = predicted class."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if (self.counts < 0).any():
            raise ValueError("counts must be nonnegative")

    @classmethod
    def from_pairs(cls, true_labels, predicted_labels, n_classes: int = N_CLASSES):
        return cls(count_pairs(true_labels, predicted_labels, n_classes, n_classes))

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    def normalized(self) -> np.ndarray:
        """Row-stochastic rates; rows with no beats stay all-zero."""
        out = np.zeros(self.counts.shape, dtype=np.float64)
        sums = self.counts.sum(axis=1)
        nonzero = sums > 0
        out[nonzero] = self.counts[nonzero] / sums[nonzero, None]
        return out

    def accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.trace(self.counts) / total) if total else 0.0


def f1_per_class(cm: ConfusionMatrix, class_id: int) -> float | None:
    """F1 = 2PR/(P+R) with the conventions:

    - precision treated as 0 when the class is never predicted,
    - F1 = 0 when P + R = 0,
    - None when the class appears in neither rows nor columns (structurally
      absent, F1 undefined).
    """
    counts = cm.counts
    tp = int(counts[class_id, class_id])
    fp = int(counts[:, class_id].sum()) - tp
    fn = int(counts[class_id, :].sum()) - tp
    if tp + fp + fn == 0:
        return None
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_f1_abnormal(cm: ConfusionMatrix) -> float | None:
    """Mean F1 over the three abnormal classes; None if any is undefined."""
    scores = [f1_per_class(cm, c) for c in range(1, cm.n_classes)]
    if any(s is None for s in scores):
        return None
    return float(sum(scores) / len(scores))
