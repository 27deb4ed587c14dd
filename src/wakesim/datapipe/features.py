"""Spectral features and the chi-square bin ranking."""

from __future__ import annotations

import math

import numpy as np

from ..metrics import count_pairs
from .beats import SEGMENT_LEN

# Magnitude bins 0..126 per channel, two channels.
BINS_PER_CHANNEL = SEGMENT_LEN // 2 + 1
FEATURE_LEN = 2 * BINS_PER_CHANNEL

N_CELLS = 16

# Beats per FFT batch. Transforming a whole split at once would hold its
# samples and complex spectra (~26 MB for 3200 beats) at the same time;
# 256-beat blocks keep that under 2 MB.
FFT_CHUNK = 256


def _spectra(samples: np.ndarray) -> np.ndarray:
    """Feature vectors of a (n, 2, SEGMENT_LEN) sample block, one row per beat."""
    spect = np.abs(np.fft.rfft(samples, n=SEGMENT_LEN, axis=-1)) / SEGMENT_LEN
    return spect.reshape(len(samples), FEATURE_LEN)


def fft_features(beat) -> np.ndarray:
    """Magnitudes of the length-252 DFT, bins 0..126 per channel, over 252.

    No window and no zero padding: the segment length is the transform
    length. Returns a float vector of length 254 (channel 0 bins first).
    `beat` is a beat record or a (2, SEGMENT_LEN) array. It always
    transforms the samples, and neither reads nor fills a cache.
    """
    samples = beat.samples if hasattr(beat, "samples") else np.asarray(beat, dtype=np.float64)
    if samples.shape != (2, SEGMENT_LEN):
        raise ValueError(f"expected (2, {SEGMENT_LEN}) samples, got {samples.shape}")
    return _spectra(samples[None])[0]


def feature_matrix(beats) -> tuple[np.ndarray, np.ndarray]:
    """fft_features of every beat record, stacked; returns (mags, labels).

    `beats` is any iterable of beat records. Rows the records already hold
    are copied, not transformed again. The batched FFT runs over the other
    records in blocks of at most FFT_CHUNK, and each new row is cached on
    its record as a row view of `mags`, which is read-only, so the cache
    cannot be written through it.
    """
    beats = list(beats)
    mags = np.empty((len(beats), FEATURE_LEN), dtype=np.float64)
    new = []
    for i, beat in enumerate(beats):
        if beat.mags is None:
            new.append(i)
        else:
            mags[i] = beat.mags
    for start in range(0, len(new), FFT_CHUNK):
        block = new[start:start + FFT_CHUNK]
        mags[block] = _spectra(np.stack([beats[i].samples for i in block]))
    mags.flags.writeable = False
    for i in new:
        object.__setattr__(beats[i], "mags", mags[i])
    return mags, np.array([beat.label for beat in beats], dtype=np.int64)


def check_bins(bins, what: str) -> None:
    """Raise ValueError naming `what` unless bins are distinct feature bins.

    A repeated bin would count that bin's evidence twice.
    """
    if not all(0 <= b < FEATURE_LEN for b in bins):
        raise ValueError(f"{what}: a bin lies outside 0..{FEATURE_LEN - 1}")
    repeated = [b for i, b in enumerate(bins) if b in bins[:i]]
    if repeated:
        raise ValueError(f"{what}: repeated bin {repeated[0]}")


def pearson_chi2(counts) -> float:
    """Pearson chi-square statistic of a contingency table.

    Cells with zero expected count contribute nothing, which covers empty
    rows and structurally absent classes. Terms are accumulated with
    math.fsum so the statistic is exactly rounded and therefore invariant
    under row/column permutations; equal tables score bit-identically,
    which the downstream tie-breaking relies on.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row * col / total
    mask = expected > 0
    diff = counts[mask] - expected[mask]
    return math.fsum(diff * diff / expected[mask])


def cell_counts(values, class_ids, n_classes: int, n_cells: int = N_CELLS) -> np.ndarray:
    """Contingency table of equal-width value cells against class labels.

    The cell grid spans the observed [min, max] of `values`; a constant
    column collapses into a single cell (and scores zero association).
    """
    values = np.asarray(values, dtype=np.float64)
    lo = values.min()
    hi = values.max()
    if hi > lo:
        cells = np.minimum(((values - lo) / (hi - lo) * n_cells).astype(np.int64), n_cells - 1)
    else:
        cells = np.zeros(len(values), dtype=np.int64)
    return count_pairs(cells, class_ids, n_cells, n_classes)


def chi2_rank(mags, labels) -> list[tuple[int, float]]:
    """Rank feature bins by class association.

    Each bin is quantized into 16 equal-width cells over its own observed
    range and scored by the Pearson chi-square of the cell-by-class
    contingency table. Returns (bin_index, score) pairs sorted by
    descending score; ties break toward the lower bin index.
    """
    mags = np.asarray(mags, dtype=np.float64)
    labels = np.asarray(labels)
    if np.any(mags < 0):
        raise ValueError("feature magnitudes must be nonnegative")
    classes, class_ids = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("chi2_rank needs at least two classes present")
    scores = np.empty(mags.shape[1], dtype=np.float64)
    for j in range(mags.shape[1]):
        scores[j] = pearson_chi2(cell_counts(mags[:, j], class_ids, len(classes)))
    order = sorted(range(mags.shape[1]), key=lambda j: (-scores[j], j))
    return [(j, float(scores[j])) for j in order]
