"""Beat records, segmentation, dataset splits, and their on-disk formats."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from ..artifacts import load_json, save_json
from ..errors import DataError
from . import wfdb212

SAMPLE_RATE = 360
# 700 ms at 360 Hz is 252 samples; the window is centered on the QRS sample.
SEGMENT_LEN = 252
HALF_WINDOW = SEGMENT_LEN // 2

CLASS_NAMES = ("N", "L", "R", "P")
SYMBOL_TO_LABEL = {"N": 0, "L": 1, "R": 2, "/": 3}
N_CLASSES = 4


@dataclass
class BeatRecord:
    """One segmented beat: 2 channels x 252 samples plus provenance."""

    samples: np.ndarray
    label: int
    source_id: str
    beat_index: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (2, SEGMENT_LEN):
            raise ValueError(f"expected samples of shape (2, {SEGMENT_LEN}), got {self.samples.shape}")
        if not 0 <= int(self.label) < N_CLASSES:
            raise ValueError(f"label {self.label} outside [0, {N_CLASSES - 1}]")
        self.label = int(self.label)


@dataclass
class Dataset:
    train: list[BeatRecord] = field(default_factory=list)
    test: list[BeatRecord] = field(default_factory=list)
    seed: int | None = None

    def class_counts(self, split: str = "train") -> list[int]:
        beats = getattr(self, split)
        counts = [0] * N_CLASSES
        for b in beats:
            counts[b.label] += 1
        return counts


def segment_beat(signal, qrs_sample: int, label: int, source_id: str, beat_index: int):
    """Cut the centered window around one QRS sample.

    Returns None when the window would run off either end of the record;
    callers count those as skipped.
    """
    signal = np.asarray(signal, dtype=np.float64)
    lo = qrs_sample - HALF_WINDOW
    hi = qrs_sample + HALF_WINDOW
    if lo < 0 or hi > signal.shape[1]:
        return None
    return BeatRecord(signal[:, lo:hi], label, source_id, beat_index)


def load_wfdb_record(path_prefix: str):
    """Load one record given its path without extension.

    Returns (signal, annotations) where signal is a (2, n) float array in
    ADC-normalized units ((raw - baseline) / gain per channel) and
    annotations is a list of (sample, symbol) pairs.
    """
    with open(path_prefix + ".hea", "r") as fh:
        header = wfdb212.read_header(fh.read())
    if header["n_signals"] != 2:
        raise DataError(f"{header['name']}: expected 2 signals, header has {header['n_signals']}")
    for sig in header["signals"]:
        if sig["format"] != "212":
            raise DataError(f"{header['name']}: unsupported signal format {sig['format']}")
    if int(header["fs"]) != SAMPLE_RATE:
        raise DataError(f"{header['name']}: sample rate {header['fs']} != {SAMPLE_RATE}")
    with open(path_prefix + ".dat", "rb") as fh:
        raw = wfdb212.decode_212(fh.read(), header["n_samples"])
    signal = np.empty_like(raw, dtype=np.float64)
    for ch in range(2):
        sig = header["signals"][ch]
        signal[ch] = (raw[ch] - sig["baseline"]) / sig["gain"]
    with open(path_prefix + ".atr", "rb") as fh:
        annotations = wfdb212.read_annotations(fh.read())
    return signal, annotations


def ingest_wfdb_dir(directory: str):
    """Segment every labeled beat of every record in a directory.

    Returns (beats, n_skipped). Records missing any of .hea/.dat/.atr are
    ignored; beats whose window crosses a record boundary are skipped and
    counted.
    """
    names = sorted(
        os.path.splitext(f)[0]
        for f in os.listdir(directory)
        if f.endswith(".hea")
    )
    beats: list[BeatRecord] = []
    skipped = 0
    for name in names:
        prefix = os.path.join(directory, name)
        if not (os.path.exists(prefix + ".dat") and os.path.exists(prefix + ".atr")):
            continue
        signal, annotations = load_wfdb_record(prefix)
        for i, (t, sym) in enumerate(annotations):
            beat = segment_beat(signal, t, SYMBOL_TO_LABEL[sym], name, i)
            if beat is None:
                skipped += 1
            else:
                beats.append(beat)
    if not beats:
        raise DataError(f"no usable beats found under {directory}")
    return beats, skipped


def balanced_split(beats, train_per_class: int, test_per_class: int, seed: int) -> Dataset:
    """Draw a balanced train/test split without replacement, seeded."""
    rng = np.random.default_rng(seed)
    by_class: list[list[BeatRecord]] = [[] for _ in range(N_CLASSES)]
    for b in beats:
        by_class[b.label].append(b)
    ds = Dataset(seed=seed)
    need = train_per_class + test_per_class
    for c, pool in enumerate(by_class):
        if len(pool) < need:
            raise DataError(
                f"class {CLASS_NAMES[c]}: need {need} beats ({train_per_class}+{test_per_class}), have {len(pool)}"
            )
        order = rng.permutation(len(pool))
        ds.train.extend(pool[i] for i in order[:train_per_class])
        ds.test.extend(pool[i] for i in order[train_per_class:need])
    return ds


# ---------------------------------------------------------------------------
# On-disk formats. The CSV layout is the interchange format for beats:
#   label,source_id,beat_index,ch0_0..ch0_251,ch1_0..ch1_251
# ---------------------------------------------------------------------------

_CSV_HEADER = (
    ["label", "source_id", "beat_index"]
    + [f"ch0_{i}" for i in range(SEGMENT_LEN)]
    + [f"ch1_{i}" for i in range(SEGMENT_LEN)]
)


def write_beats_csv(path: str, beats) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerows([b.label, b.source_id, b.beat_index, *b.samples.ravel().tolist()]
                         for b in beats)


def read_beats_csv(path: str) -> list[BeatRecord]:
    beats = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise DataError(f"{path}: unexpected CSV header")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_CSV_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(_CSV_HEADER)} columns, got {len(row)}")
            values = np.array([float(v) for v in row[3:]], dtype=np.float64)
            beats.append(
                BeatRecord(values.reshape(2, SEGMENT_LEN), int(row[0]), row[1], int(row[2]))
            )
    return beats


def write_manifest(path: str, dataset: Dataset) -> None:
    """Record which (source_id, beat_index) pairs landed in each split."""
    manifest = {
        "train": [[b.source_id, b.beat_index] for b in dataset.train],
        "test": [[b.source_id, b.beat_index] for b in dataset.test],
        "seed": dataset.seed,
    }
    save_json(path, manifest)


def read_manifest(path: str) -> dict:
    manifest = load_json(path)
    for key in ("train", "test", "seed"):
        if key not in manifest:
            raise DataError(f"{path}: manifest missing key {key!r}")
    return manifest
