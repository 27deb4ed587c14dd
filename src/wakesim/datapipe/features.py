"""Spectral features and the chi-square bin ranking."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..metrics import count_pairs
from .beats import SEGMENT_LEN

# Magnitude bins 0..126 per channel, two channels.
BINS_PER_CHANNEL = SEGMENT_LEN // 2 + 1
FEATURE_LEN = 2 * BINS_PER_CHANNEL

N_CELLS = 16

# Beats per FFT batch. Stacking a whole split at once would hold its samples
# and complex spectra (~26 MB for 3200 beats) at the same time; 256-beat
# blocks keep that under 2 MB.
FFT_CHUNK = 256


def _samples(beat) -> np.ndarray:
    samples = beat.samples if hasattr(beat, "samples") else np.asarray(beat, dtype=np.float64)
    if samples.shape != (2, SEGMENT_LEN):
        raise ValueError(f"expected (2, {SEGMENT_LEN}) samples, got {samples.shape}")
    return samples


def _spectra(samples: np.ndarray) -> np.ndarray:
    """Feature vectors of a (n, 2, SEGMENT_LEN) sample block, one row per beat."""
    spect = np.abs(np.fft.rfft(samples, n=SEGMENT_LEN, axis=-1)) / SEGMENT_LEN
    return spect.reshape(len(samples), FEATURE_LEN)


def feature_chunks(beats):
    """Yield (beats, mags) for consecutive blocks of at most FFT_CHUNK beats.

    `beats` may be any iterable; each block's FFT runs as one batched call,
    and its rows equal fft_features of the same beats bit for bit.
    """
    it = iter(beats)
    while chunk := list(itertools.islice(it, FFT_CHUNK)):
        yield chunk, _spectra(np.stack([_samples(b) for b in chunk]))


def fft_features(beat) -> np.ndarray:
    """Magnitudes of the length-252 DFT, bins 0..126 per channel, over 252.

    No window and no zero padding: the segment length is the transform
    length. Returns a float vector of length 254 (channel 0 bins first).
    """
    return _spectra(_samples(beat)[None])[0]


def feature_matrix(beats) -> tuple[np.ndarray, np.ndarray]:
    """fft_features of every beat, stacked; returns (mags, labels)."""
    mags = np.empty((len(beats), FEATURE_LEN), dtype=np.float64)
    labels = np.empty(len(beats), dtype=np.int64)
    start = 0
    for chunk, block in feature_chunks(beats):
        mags[start:start + len(chunk)] = block
        labels[start:start + len(chunk)] = [b.label for b in chunk]
        start += len(chunk)
    return mags, labels


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
