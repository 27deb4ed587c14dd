"""Shared fixtures: one seeded benchmark build reused across the whole run.

The synthetic benchmark plants class-specific tones in known spectrum bins,
so the feature ranking, the front-end model, and the trained back end all
have known-good answers. The session fixtures assert the load-bearing one
(the ranking finds the planted bins) once, up front.
"""

from __future__ import annotations

import numpy as np
import pytest

from wakesim.bayesfront import BayesModel, IdealReader, LogCodec, fit_bayes_model
from wakesim.datapipe import wfdb212
from wakesim.datapipe.beats import SEGMENT_LEN
from wakesim.datapipe.features import chi2_rank, feature_matrix
from wakesim.datapipe.quantizers import QuantizerSpec
from wakesim.datapipe.synthetic import synth_beat, synth_dataset
from wakesim.mlpback import TrainConfig, fit_backend
from wakesim.wakectl import REASONS, StreamResult, run_stream
from wakesim import memsim

BENCH_SEED = 11
BENCH_PER_CLASS = 800
BENCH_NOISE_SIGMA = 0.05
PLANTED_TOP4 = [8, 12, 16, 20]
TRAIN_SEED = 3
PROGRAM_SEED = 5
READ_SEED = 7

LABEL_TO_SYMBOL = {0: "N", 1: "L", 2: "R", 3: "/"}


@pytest.fixture(scope="session")
def bench_dataset():
    return synth_dataset(BENCH_SEED, BENCH_PER_CLASS, BENCH_NOISE_SIGMA,
                         test_per_class=BENCH_PER_CLASS)


@pytest.fixture(scope="session")
def bench_train(bench_dataset):
    return feature_matrix(bench_dataset.train)


@pytest.fixture(scope="session")
def bench_test(bench_dataset):
    return feature_matrix(bench_dataset.test)


@pytest.fixture(scope="session")
def bench_ranked(bench_train):
    mags, labels = bench_train
    ranked = chi2_rank(mags, labels)
    # Everything downstream assumes the planted tone bins win the ranking.
    assert [b for b, _ in ranked[:4]] == PLANTED_TOP4
    return ranked


@pytest.fixture(scope="session")
def bench_model(bench_train, bench_ranked):
    mags, labels = bench_train
    return fit_bayes_model(mags, labels, bench_ranked)


@pytest.fixture(scope="session")
def bench_backend(bench_train, bench_ranked):
    mags, labels = bench_train
    return fit_backend(mags, labels, bench_ranked, TrainConfig(seed=TRAIN_SEED))


@pytest.fixture(scope="session")
def bench_reader(bench_model):
    return IdealReader(bench_model)


@pytest.fixture(scope="session")
def regime_streams(bench_dataset, bench_model, bench_backend):
    """Full test-set streams under the three shipped operating regimes."""
    out = {}
    for name in ("A", "B", "C"):
        op, dists, noise = memsim.regime_preset(name)
        state = memsim.program_arrays(bench_model, dists, op.vddr, seed=PROGRAM_SEED)
        reader = memsim.MemristorReader(state, op, noise, seed=READ_SEED)
        out[name] = run_stream(bench_dataset.test, bench_model, reader, bench_backend)
    return out


@pytest.fixture(scope="session")
def stub_model():
    """Build a BayesModel around a hand-made (4, 4, 8) code table, for tests of reads and inference."""

    def build(codes) -> BayesModel:
        return BayesModel(
            feature_bins=(0, 1, 2, 3),
            quantizers=tuple(QuantizerSpec(0.0, 1.0) for _ in range(4)),
            codes=np.asarray(codes, dtype=np.uint8),
            codec=LogCodec(),
        )

    return build


@pytest.fixture(scope="session")
def from_outcomes():
    """Build a StreamResult from a list of BeatOutcome, for hand-made streams."""

    def build(outcomes) -> StreamResult:
        return StreamResult(
            true=np.array([o.true_label for o in outcomes], dtype=np.int64),
            front=np.array([o.front_pred for o in outcomes], dtype=np.int64),
            reason=np.array([REASONS.index(o.reason) for o in outcomes], dtype=np.int64),
            system=np.array([o.system_pred for o in outcomes], dtype=np.int64),
            backend_error=np.array([o.backend_error for o in outcomes], dtype=bool),
        )

    return build


def _write_record(directory, name, samples, annotations, fs=360,
                  gain=200.0, baseline=1024.0):
    arr = np.asarray(samples)
    lines = [f"{name} 2 {fs} {arr.shape[1]}"]
    for _ in range(2):
        lines.append(f"{name}.dat 212 {gain:g}({baseline:g})/mV")
    # surrogateescape writes a lone surrogate such as \udcff as the raw byte 0xff
    (directory / f"{name}.hea").write_text("\n".join(lines) + "\n", errors="surrogateescape")
    (directory / f"{name}.dat").write_bytes(wfdb212.encode_212(arr))
    (directory / f"{name}.atr").write_bytes(wfdb212.encode_annotations(annotations))


@pytest.fixture
def wfdb_dir_factory(tmp_path):
    """Build record directories of tone beats with known labels.

    Beats are laid back to back so every window [k*252, (k+1)*252) holds one
    beat; gain/baseline quantization to 12-bit counts is the only loss.
    """

    def make(beats_per_class=3, seed=0, name="100", subdir="wfdb"):
        rng = np.random.default_rng(seed)
        labels = [c for c in range(4) for _ in range(beats_per_class)]
        chunks, pairs = [], []
        for i, label in enumerate(labels):
            beat = synth_beat(rng, label, 0.05, name, i)
            raw = np.rint(beat.samples * 200.0 + 1024.0).astype(np.int64)
            chunks.append(raw)
            pairs.append((i * SEGMENT_LEN + SEGMENT_LEN // 2, LABEL_TO_SYMBOL[label]))
        directory = tmp_path / subdir
        directory.mkdir(exist_ok=True)
        _write_record(directory, name, np.concatenate(chunks, axis=1), pairs)
        return directory, labels

    return make


@pytest.fixture
def wfdb_record_writer(tmp_path):
    """Low-level writer for hand-built records: (name, samples, pairs) -> dir."""

    def write(name, samples, annotations, subdir="rec", **kwargs):
        directory = tmp_path / subdir
        directory.mkdir(exist_ok=True)
        _write_record(directory, name, samples, annotations, **kwargs)
        return directory

    return write
