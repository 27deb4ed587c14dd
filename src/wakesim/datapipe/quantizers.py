"""Per-feature scalar quantizers fitted by class association."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import count_pairs
from .features import pearson_chi2

# Clip candidates searched during fitting, as percentiles of the training
# values. The grid is small on purpose: the front end only needs rough
# dynamic-range trimming.
LO_PERCENTILES = (0.0, 1.0, 2.0, 5.0)
HI_PERCENTILES = (95.0, 98.0, 99.0, 100.0)


@dataclass(frozen=True)
class QuantizerSpec:
    clip_lo: float
    clip_hi: float
    levels: int = 8

    def __post_init__(self):
        if not self.clip_lo < self.clip_hi:
            raise ValueError(f"clip_lo {self.clip_lo} must be below clip_hi {self.clip_hi}")
        if self.levels < 2:
            raise ValueError("need at least two levels")


def quantize(value, spec: QuantizerSpec):
    """Map a value (or array) onto integer levels 0..levels-1.

    level = floor((v - lo) / (hi - lo) * levels), clamped at both ends.
    """
    v = np.asarray(value, dtype=np.float64)
    scaled = np.floor((v - spec.clip_lo) / (spec.clip_hi - spec.clip_lo) * spec.levels)
    out = np.clip(scaled, 0, spec.levels - 1).astype(np.int64)
    return int(out) if np.isscalar(value) or out.ndim == 0 else out


def fit_quantizer(values, labels, levels: int = 8) -> QuantizerSpec:
    """Pick clip bounds that maximize class association after quantization.

    Searches the percentile grid above, scores each candidate by the
    Pearson chi-square of the level-by-class contingency table, and keeps
    the best. Score ties go to the widest clip range, so label-independent
    values fall back to the full observed span.
    """
    v = np.asarray(values, dtype=np.float64)
    y = np.asarray(labels)
    if v.ndim != 1 or len(v) != len(y):
        raise ValueError("values and labels must be 1-d and the same length")
    if v.min() == v.max():
        raise ValueError("degenerate feature: all values identical")
    classes, class_ids = np.unique(y, return_inverse=True)

    best: QuantizerSpec | None = None
    best_key: tuple[float, float] | None = None
    for lo_p in LO_PERCENTILES:
        lo = float(np.percentile(v, lo_p))
        for hi_p in HI_PERCENTILES:
            hi = float(np.percentile(v, hi_p))
            if not lo < hi:
                continue
            spec = QuantizerSpec(lo, hi, levels)
            score = pearson_chi2(count_pairs(quantize(v, spec), class_ids, levels, len(classes)))
            key = (score, hi - lo)
            if best_key is None or key > best_key:
                best, best_key = spec, key
    if best is None:
        raise ValueError("degenerate feature: no valid clip candidate")
    return best
