"""Beat segmentation, spectral features, bin ranking, and dataset plumbing."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from wakesim.artifacts import load_json
from wakesim.datapipe.beats import (
    SEGMENT_LEN,
    BeatRecord,
    balanced_split,
    ingest_wfdb_dir,
    load_wfdb_record,
    read_beats_csv,
    segment_beat,
    write_beats_csv,
    write_manifest,
)
from wakesim.datapipe.features import (
    BINS_PER_CHANNEL,
    FEATURE_LEN,
    FFT_CHUNK,
    cell_counts,
    chi2_rank,
    fft_features,
    feature_matrix,
    pearson_chi2,
)
from wakesim.datapipe.quantizers import QuantizerSpec, fit_quantizer, quantize
from wakesim.datapipe.synthetic import CLASS_TONE_BINS, synth_beat, synth_dataset
from wakesim.errors import DataError

import reference

# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def test_segment_beat_window_and_fields():
    signal = np.arange(2 * 600).reshape(2, 600).astype(float)
    beat = segment_beat(signal, 200, 1, "rec", 7)
    assert isinstance(beat, BeatRecord)
    assert beat.samples.shape == (2, SEGMENT_LEN)
    assert np.array_equal(beat.samples, signal[:, 200 - 126:200 + 126])
    assert (beat.label, beat.source_id, beat.beat_index) == (1, "rec", 7)


def test_segment_beat_copies_its_window_out_of_the_signal():
    signal = np.arange(2 * 600).reshape(2, 600).astype(float)
    beat = segment_beat(signal, 200, 1, "rec", 7)
    assert not np.shares_memory(beat.samples, signal)
    signal[:] = 0.0
    assert np.array_equal(beat.samples, np.arange(2 * 600).reshape(2, 600)[:, 74:326])


def test_beat_record_is_read_only():
    owned = np.zeros((2, SEGMENT_LEN))
    beat = BeatRecord(owned, 0, "r", 0)
    assert beat.samples is owned  # an array that owns its data is adopted, not copied
    with pytest.raises(ValueError, match="read-only"):
        beat.samples[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        beat.samples = np.ones((2, SEGMENT_LEN))
    with pytest.raises(dataclasses.FrozenInstanceError):
        beat.label = 1
    view = np.zeros((2, 2 * SEGMENT_LEN))[:, :SEGMENT_LEN]
    assert not np.shares_memory(BeatRecord(view, 0, "r", 0).samples, view)


@pytest.mark.parametrize("label", [1.5, 1.0, True, "1", None])
def test_beat_record_rejects_a_label_that_is_not_an_integer(label):
    with pytest.raises(ValueError, match="is not an integer"):
        BeatRecord(np.zeros((2, SEGMENT_LEN)), label, "r", 0)


@pytest.mark.parametrize("shape", [(SEGMENT_LEN,), (1, SEGMENT_LEN), (2, SEGMENT_LEN - 1)])
def test_beat_record_rejects_samples_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=re.escape(f"expected samples of shape (2, 252), got {shape}")):
        BeatRecord(np.zeros(shape), 0, "r", 0)


def test_beat_records_compare_and_hash_by_identity():
    samples = np.zeros((2, SEGMENT_LEN))
    a = BeatRecord(samples, 0, "r", 0)
    b = BeatRecord(samples, 0, "r", 0)
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2 and a in {a} and b not in {a}


def test_beat_record_keeps_numpy_integer_labels():
    beat = BeatRecord(np.zeros((2, SEGMENT_LEN)), np.int64(3), "r", 0)
    assert beat.label == 3 and type(beat.label) is int


def test_segment_beat_boundaries():
    signal = np.zeros((2, 504))
    assert segment_beat(signal, 126, 0, "r", 0) is not None
    assert segment_beat(signal, 125, 0, "r", 0) is None
    assert segment_beat(signal, 378, 0, "r", 0) is not None
    assert segment_beat(signal, 379, 0, "r", 0) is None


# ---------------------------------------------------------------------------
# spectral features
# ---------------------------------------------------------------------------


def test_fft_features_layout_and_tone():
    t = np.arange(SEGMENT_LEN)
    samples = np.stack([np.cos(2 * np.pi * 8 * t / SEGMENT_LEN),
                        np.zeros(SEGMENT_LEN)])
    f = fft_features(BeatRecord(samples, 0, "r", 0))
    assert f.shape == (FEATURE_LEN,)
    assert FEATURE_LEN == 2 * BINS_PER_CHANNEL == 254
    assert f[8] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.delete(f[:BINS_PER_CHANNEL], 8)) < 1e-12
    assert np.max(f[BINS_PER_CHANNEL:]) == 0.0


def test_fft_features_dc():
    f = fft_features(BeatRecord(np.ones((2, SEGMENT_LEN)), 0, "r", 0))
    assert f[0] == pytest.approx(1.0, abs=1e-12)


def test_fft_features_accepts_beat_records():
    beat = BeatRecord(np.zeros((2, SEGMENT_LEN)), 0, "r", 0)
    assert fft_features(beat).shape == (FEATURE_LEN,)


def test_fft_parseval():
    # energy identity for the one-sided magnitude spectrum of an even-length
    # real signal: bins 1..125 appear twice, DC and Nyquist once
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((2, SEGMENT_LEN))
    f = fft_features(BeatRecord(samples, 0, "r", 0)).reshape(2, BINS_PER_CHANNEL)
    for ch in range(2):
        weights = np.full(BINS_PER_CHANNEL, 2.0)
        weights[0] = weights[-1] = 1.0
        spectral = SEGMENT_LEN * np.sum(weights * f[ch] ** 2)
        assert spectral == pytest.approx(np.sum(samples[ch] ** 2), rel=1e-9)


# ---------------------------------------------------------------------------
# chi-square ranking
# ---------------------------------------------------------------------------


def test_pearson_chi2_hand_case():
    # 2x2 perfect association: chi2 equals the table total
    assert pearson_chi2([[10, 0], [0, 10]]) == pytest.approx(20.0, abs=1e-12)


def test_pearson_chi2_against_scipy():
    rng = np.random.default_rng(1)
    for _ in range(30):
        table = rng.integers(1, 40, size=(16, 4))
        ref = scipy.stats.chi2_contingency(table, correction=False).statistic
        assert pearson_chi2(table) == pytest.approx(ref, rel=1e-12)


def test_pearson_chi2_permutation_invariance_is_exact():
    rng = np.random.default_rng(2)
    table = rng.integers(0, 50, size=(16, 4))
    base = pearson_chi2(table)
    for _ in range(20):
        t = table[rng.permutation(16)][:, rng.permutation(4)]
        assert pearson_chi2(t) == base  # bit-identical, not approx


def test_pearson_chi2_degenerate_tables():
    assert pearson_chi2(np.zeros((4, 4))) == 0.0
    table = np.zeros((4, 2))
    table[0, 0] = 5
    table[1, 1] = 5
    assert np.isfinite(pearson_chi2(table))


def test_cell_counts_uniform_grid():
    values = np.arange(16.0)
    counts = cell_counts(values, np.zeros(16, dtype=np.int64), 1)
    assert counts.shape == (16, 1)
    assert np.array_equal(counts[:, 0], np.ones(16, dtype=np.int64))


def test_cell_counts_constant_column_collapses():
    counts = cell_counts(np.full(10, 3.3), np.arange(10) % 2, 2)
    assert counts[0].sum() == 10
    assert counts[1:].sum() == 0
    assert pearson_chi2(counts) == 0.0


def test_chi2_rank_finds_predictive_column():
    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(4), 50)
    mags = rng.uniform(0.0, 1.0, size=(200, 6))
    mags[:, 2] = labels * 1.0 + 0.01 * rng.standard_normal(200)
    mags = np.abs(mags)
    ranked = chi2_rank(mags, labels)
    assert ranked[0][0] == 2
    assert ranked[0][1] > ranked[1][1]


def test_chi2_rank_duplicate_columns_tie_toward_lower_index():
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(4), 30)
    col = labels + rng.uniform(0, 0.2, size=120)
    mags = np.column_stack([rng.uniform(0, 1, 120), col, col])
    ranked = chi2_rank(mags, labels)
    assert ranked[0][0] == 1 and ranked[1][0] == 2
    assert ranked[0][1] == ranked[1][1]  # identical tables, identical floats


def test_chi2_rank_affine_invariance():
    # scaling by a power of two and shifting by an integer keeps the cell
    # arithmetic exact, so the scores must be bit-identical
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(4), 40)
    mags = rng.uniform(0.5, 2.0, size=(160, 8))
    base = chi2_rank(mags, labels)
    scaled = chi2_rank(mags * 4.0 + 3.0, labels)
    assert [b for b, _ in base] == [b for b, _ in scaled]
    assert [s for _, s in base] == [s for _, s in scaled]


def test_chi2_rank_shuffled_labels_have_no_fixed_winner():
    rng = np.random.default_rng(8)
    labels = np.repeat(np.arange(4), 50)
    mags = rng.uniform(0, 1, size=(200, 10))
    winners = set()
    for seed in range(12):
        perm = np.random.default_rng(seed).permutation(len(labels))
        winners.add(chi2_rank(mags, labels[perm])[0][0])
    assert len(winners) > 1


def test_chi2_rank_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        chi2_rank(np.array([[-1.0, 2.0]]), np.array([0]))
    with pytest.raises(ValueError, match="two classes"):
        chi2_rank(np.ones((5, 3)), np.zeros(5, dtype=int))


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------


def test_synth_dataset_shape_order_and_determinism():
    ds = synth_dataset(11, 6, 0.5, test_per_class=2)
    assert ds.class_counts("train") == [6, 6, 6, 6]
    assert ds.class_counts("test") == [2, 2, 2, 2]
    assert ds.seed == 11
    assert ds.train[0].source_id == "synth-11"
    # fixed generation order: split, then class, then index
    _, labels = feature_matrix(ds.train)
    assert np.array_equal(labels, np.repeat(np.arange(4), 6))

    again = synth_dataset(11, 6, 0.5, test_per_class=2)
    assert all(np.array_equal(a.samples, b.samples)
               for a, b in zip(ds.train + ds.test, again.train + again.test))
    other = synth_dataset(12, 6, 0.5, test_per_class=2)
    assert not np.array_equal(ds.train[0].samples, other.train[0].samples)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.05, 4.0])
def test_synth_dataset_equals_the_per_beat_reference_record_for_record(noise_sigma):
    # block edges at 1, FFT_CHUNK - 1 and FFT_CHUNK + 1 beats per class
    for count in (1, FFT_CHUNK - 1, FFT_CHUNK + 1):
        ds = synth_dataset(11, count, noise_sigma, test_per_class=count + 1)
        ref = reference.synth_dataset(11, count, noise_sigma, test_per_class=count + 1)
        assert ds.seed == ref.seed
        for split in ("train", "test"):
            got, want = getattr(ds, split), getattr(ref, split)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.samples.tobytes() == b.samples.tobytes()
                assert (a.label, a.source_id, a.beat_index) == (b.label, b.source_id, b.beat_index)


def test_synth_beat_equals_the_reference_and_leaves_the_generator_where_it_does():
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for class_id in range(4):
        beat = synth_beat(rng, class_id, 0.3, "x", class_id)
        want = reference.synth_beat(ref_rng, class_id, 0.3, "x", class_id)
        assert beat.samples.tobytes() == want.samples.tobytes() and beat.label == want.label
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_synth_dataset_validation():
    with pytest.raises(ValueError):
        synth_dataset(1, 0)
    with pytest.raises(ValueError):
        synth_dataset(1, 4, noise_sigma=-0.1)


def test_synth_beat_tones_land_in_planted_bins():
    rng = np.random.default_rng(0)
    for class_id, (primary, secondary) in enumerate(CLASS_TONE_BINS):
        beat = synth_beat(rng, class_id, 0.0, "x", 0)
        f = fft_features(beat)
        for ch in range(2):
            off = ch * BINS_PER_CHANNEL
            assert f[off + primary] == pytest.approx(0.5, abs=1e-9)
            assert f[off + secondary] == pytest.approx(0.3, abs=1e-9)
            rest = np.delete(f[off:off + BINS_PER_CHANNEL], [primary, secondary])
            assert np.max(rest) < 1e-9


def test_benchmark_ranking_finds_planted_bins(bench_ranked):
    assert [b for b, _ in bench_ranked[:4]] == [8, 12, 16, 20]


def test_ranking_survives_heavy_noise_monte_carlo():
    # planted tone bins (either harmonic, either channel) must dominate the
    # ranking even at noise 200x the benchmark setting
    planted = {b for pair in CLASS_TONE_BINS for b in pair}
    planted |= {b + BINS_PER_CHANNEL for b in planted}
    for seed in range(25):
        ds = synth_dataset(seed, 300, 10.0, test_per_class=1)
        mags, labels = feature_matrix(ds.train)
        top4 = {b for b, _ in chi2_rank(mags, labels)[:4]}
        assert top4 <= planted, f"seed {seed}: {sorted(top4)}"


# ---------------------------------------------------------------------------
# level quantizers
# ---------------------------------------------------------------------------


def test_quantizer_spec_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(1.0, 1.0)


def test_quantize_values():
    spec = QuantizerSpec(0.0, 8.0)
    assert quantize(np.array([3.5, -1.0, 99.0]), spec).tolist() == [3, 0, 7]
    assert np.array_equal(quantize(np.array([0.0, 7.99, 8.0]), spec),
                          np.array([0, 7, 7]))


def test_fit_quantizer_separates_point_masses():
    values = np.array([0.0] * 30 + [1.0] * 30)
    labels = np.array([0] * 30 + [1] * 30)
    spec = fit_quantizer(values, labels)
    assert (spec.clip_lo, spec.clip_hi) == (0.0, 1.0)
    assert quantize(np.array([0.0, 1.0]), spec).tolist() == [0, 7]


def test_fit_quantizer_tie_prefers_widest_clip():
    # identical per-class distributions: every candidate scores zero, so the
    # widest clip window wins the tie
    values = np.concatenate([np.arange(50.0), np.arange(50.0)])
    labels = np.array([0] * 50 + [1] * 50)
    spec = fit_quantizer(values, labels)
    assert (spec.clip_lo, spec.clip_hi) == (0.0, 49.0)


def test_fit_quantizer_validation():
    with pytest.raises(ValueError):
        fit_quantizer(np.arange(4.0), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="degenerate"):
        fit_quantizer(np.full(10, 2.0), np.arange(10) % 2)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=40).filter(
    lambda v: max(v) > min(v)))
@settings(max_examples=100)
def test_quantize_stays_in_range_property(vals):
    spec = QuantizerSpec(min(vals), max(vals))
    out = quantize(np.array(vals), spec)
    assert out.min() >= 0 and out.max() <= 7


# ---------------------------------------------------------------------------
# splits and on-disk formats
# ---------------------------------------------------------------------------


def test_balanced_split_counts_and_determinism():
    beats = synth_dataset(3, 12, 0.5, test_per_class=1).train
    ds = balanced_split(beats, 8, 2, seed=1)
    assert ds.class_counts("train") == [8, 8, 8, 8]
    assert ds.class_counts("test") == [2, 2, 2, 2]
    keys = {(b.source_id, b.beat_index) for b in ds.train}
    assert all((b.source_id, b.beat_index) not in keys for b in ds.test)
    again = balanced_split(beats, 8, 2, seed=1)
    assert [b.beat_index for b in again.train] == [b.beat_index for b in ds.train]
    with pytest.raises(DataError, match="need 13"):
        balanced_split(beats, 12, 1, seed=1)


def test_beats_csv_round_trip(tmp_path):
    beats = synth_dataset(9, 2, 0.7, test_per_class=1).train
    path = tmp_path / "beats.csv"
    write_beats_csv(path, beats)
    back = read_beats_csv(path)
    assert len(back) == len(beats)
    for a, b in zip(beats, back):
        assert np.array_equal(a.samples, b.samples)  # repr round-trips exactly
        assert (a.label, a.source_id, a.beat_index) == (b.label, b.source_id, b.beat_index)


def test_beats_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,header\n")
    with pytest.raises(DataError, match="header"):
        read_beats_csv(path)


def test_manifest_round_trip(tmp_path):
    ds = synth_dataset(4, 2, 0.5, test_per_class=1)
    path = tmp_path / "manifest.json"
    write_manifest(path, ds)
    manifest = load_json(path)
    assert manifest["seed"] == 4
    assert manifest["train"] == [[b.source_id, b.beat_index] for b in ds.train]
    assert manifest["test"] == [[b.source_id, b.beat_index] for b in ds.test]


# ---------------------------------------------------------------------------
# record ingestion
# ---------------------------------------------------------------------------


def test_ingest_wfdb_dir_labels_and_signal(wfdb_dir_factory):
    directory, labels = wfdb_dir_factory(beats_per_class=3)
    beats, skipped = ingest_wfdb_dir(directory)
    assert skipped == 0
    assert [b.label for b in beats] == labels
    # amplitude normalization: 12-bit counts back to (raw-1024)/200 units
    signal, _ = load_wfdb_record(str(directory / "100"))
    assert np.array_equal(beats[0].samples, signal[:, :SEGMENT_LEN])
    assert np.max(np.abs(signal)) < 20


def test_ingest_counts_boundary_beats_as_skipped(wfdb_record_writer):
    samples = np.zeros((2, 600), dtype=np.int64)
    directory = wfdb_record_writer("r1", samples, [(10, "N"), (300, "L")])
    beats, skipped = ingest_wfdb_dir(directory)
    assert skipped == 1
    assert [b.label for b in beats] == [1]


def test_ingest_skips_records_missing_files(wfdb_record_writer):
    directory = wfdb_record_writer("r1", np.zeros((2, 600), dtype=np.int64),
                                   [(300, "N")])
    (directory / "r2.hea").write_text("r2 2 360 600\nr2.dat 212\nr2.dat 212\n")
    beats, _ = ingest_wfdb_dir(directory)
    assert {b.source_id for b in beats} == {"r1"}


def test_ingest_empty_dir_raises(tmp_path):
    with pytest.raises(DataError, match="no usable beats"):
        ingest_wfdb_dir(tmp_path)


def test_load_wfdb_record_validation(tmp_path):
    bad_fs = tmp_path / "fs"
    bad_fs.mkdir()
    (bad_fs / "x.hea").write_text("x 2 250 600\nx.dat 212\nx.dat 212\n")
    (bad_fs / "x.dat").write_bytes(b"\x00" * 900)
    (bad_fs / "x.atr").write_bytes(b"\x00\x00")
    with pytest.raises(DataError, match="sample rate"):
        load_wfdb_record(str(bad_fs / "x"))

    bad_fmt = tmp_path / "fmt"
    bad_fmt.mkdir()
    (bad_fmt / "y.hea").write_text("y 2 360 600\ny.dat 16\ny.dat 16\n")
    with pytest.raises(DataError, match="format"):
        load_wfdb_record(str(bad_fmt / "y"))

    bad_nsig = tmp_path / "nsig"
    bad_nsig.mkdir()
    (bad_nsig / "z.hea").write_text("z 1 360 600\nz.dat 212\n")
    with pytest.raises(DataError, match="expected 2 signals"):
        load_wfdb_record(str(bad_nsig / "z"))
