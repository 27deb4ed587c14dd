"""The batch stream core against the per-beat, per-read reference paths.

run_features and run_stream run a whole stream as one batch: one FFT call
per FFT_CHUNK records without a cached feature row (feature_matrix, which
run_stream calls), one read_many for the stream, one predict_features call
for its woken rows, and a StreamResult of per-beat columns. Every test here
pins a batched step to the scalar API it replaces, which stays public:
fft_features, MemristorReader(c, f, l), bayes_infer, decide_wake,
mlp_infer and backend.predict(beat, mags). Cutting a stream into pieces
changes no result either.
"""

import csv
import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wakesim import memsim
from wakesim.bayesfront import IdealReader, bayes_infer, bayes_infer_many
from wakesim.datapipe import features
from wakesim.datapipe.beats import N_CLASSES, SEGMENT_LEN, BeatRecord
from wakesim.datapipe.features import FEATURE_LEN, FFT_CHUNK, feature_matrix, fft_features
from wakesim.mlpback import mlp_forward, mlp_infer
from wakesim.report import build_report
from wakesim.wakectl import (_REASONS, BeatOutcome, StreamResult, WakePolicy, decide_wake,
                             run_features, run_stream, wake_codes, wake_stats)

# The seeds of the regime_streams fixture.
PROGRAM_SEED = 5
READ_SEED = 7


class _PredictOnly:
    """Hides predict_features, so run_stream asks the back end beat by beat."""

    def __init__(self, backend):
        self._backend = backend

    def predict(self, beat, mags):
        return self._backend.predict(beat, mags)


class _FlakyBackend:
    """Batch calls always fail; single calls fail on every class-2 beat."""

    def __init__(self, backend):
        self._backend = backend

    def predict(self, beat, mags):
        if beat.label == 2:
            raise RuntimeError("back end down")
        return self._backend.predict(beat, mags)

    def predict_features(self, mags_matrix):
        raise RuntimeError("batch path down")


def _per_beat(reader):
    """A plain word-reader callable: run_stream reads it one word at a time."""
    return lambda c, f, l: reader(c, f, l)


def _preset_reader(model, name, seed=READ_SEED):
    op, dists, noise = memsim.regime_preset(name)
    state = memsim.program_arrays(model, dists, op.vddr, seed=PROGRAM_SEED)
    return memsim.MemristorReader(state, op, noise, seed=seed)


def _fresh(beats):
    """Copies of the records that hold no cached feature row."""
    return [BeatRecord(b.samples, b.label, b.source_id, b.beat_index) for b in beats]


def test_batched_fft_equals_per_beat_features(bench_dataset):
    beats = _fresh(bench_dataset.test)
    reference = np.stack([fft_features(b) for b in beats])
    mags, labels = feature_matrix(beats)
    assert np.array_equal(mags, reference)
    assert labels.tolist() == [b.label for b in beats]


def _counting_spectra(monkeypatch):
    """The row counts of every _spectra call from here on."""
    calls = []
    spectra = features._spectra
    monkeypatch.setattr(features, "_spectra", lambda samples: calls.append(len(samples)) or spectra(samples))
    return calls


def test_feature_matrix_keeps_cached_rows_and_caches_every_new_one(bench_dataset, monkeypatch):
    beats = _fresh(bench_dataset.test[:3 * FFT_CHUNK + 7])
    reference = np.stack([fft_features(b) for b in beats])
    feature_matrix(beats[::3])  # caches every third record
    cached = [b.mags for b in beats]
    calls = _counting_spectra(monkeypatch)
    # cached and uncached records mixed, fed through a generator
    mags, labels = feature_matrix(b for b in beats)
    assert np.array_equal(mags, reference)
    assert labels.tolist() == [b.label for b in beats]
    assert calls == [FFT_CHUNK, FFT_CHUNK, len(beats) - len(beats[::3]) - 2 * FFT_CHUNK]
    assert all((row is None) == (i % 3 != 0) for i, row in enumerate(cached))
    assert all(b.mags is row for b, row in zip(beats[::3], cached[::3]))  # kept, not recomputed
    assert all(b.mags is not None for b in beats)  # every new row is cached
    assert all(np.shares_memory(b.mags, mags) for i, b in enumerate(beats) if i % 3)
    assert np.array_equal(np.stack([b.mags for b in beats]), reference)


def test_feature_matrix_returns_a_read_only_matrix(bench_dataset):
    beats = _fresh(bench_dataset.test[:FFT_CHUNK + 9])
    reference = np.stack([fft_features(b) for b in beats])
    feature_matrix(beats[::2])
    for mags, _ in (feature_matrix(beats), feature_matrix(beats)):  # part cached, then all cached
        with pytest.raises(ValueError, match="read-only"):
            mags[:] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            beats[0].mags[0] = -1.0
    assert np.array_equal(np.stack([b.mags for b in beats]), reference)


def test_second_stream_over_the_same_beats_makes_no_fft_call(bench_dataset, bench_model,
                                                             bench_backend, monkeypatch):
    calls = []
    spectra = features._spectra
    monkeypatch.setattr(features, "_spectra", lambda samples: calls.append(len(samples)) or spectra(samples))
    beats = _fresh(bench_dataset.test[:FFT_CHUNK + 44])
    first = run_stream(beats, bench_model, _preset_reader(bench_model, "B"), bench_backend)
    assert calls == [FFT_CHUNK, 44]
    second = run_stream(beats, bench_model, _preset_reader(bench_model, "B"), bench_backend)
    assert calls == [FFT_CHUNK, 44]
    assert second == first


def test_flip_table_equals_per_read_flip_probability(bench_model):
    for name in ("A", "B", "C"):
        reader = _preset_reader(bench_model, name)
        state, op, noise = reader.state, reader.op, reader.error_model
        assert reader.flip_table.shape == state.codes.shape + (memsim.WORD_BITS,)
        for address in np.ndindex(state.codes.shape):
            margin = np.abs(np.log10(state.r_bl[address]) - np.log10(state.r_blb[address]))
            assert np.array_equal(reader.flip_table[address],
                                  noise.flip_probability(margin, op.vdd)), (name, address)


def test_read_many_equals_the_same_single_reads(bench_model):
    rng = np.random.default_rng(42)
    addrs = [tuple(rng.integers(0, n, size=600)) for n in bench_model.codes.shape]
    scalar = _preset_reader(bench_model, "B")
    expected = [scalar(c, f, l) for c, f, l in zip(*addrs)]
    batch = _preset_reader(bench_model, "B")
    assert batch.read_many(*addrs).tolist() == expected
    # a reader used one word at a time first continues where it left off
    mixed = _preset_reader(bench_model, "B")
    head = [mixed(c, f, l) for c, f, l in zip(*(a[:250] for a in addrs))]
    tail = mixed.read_many(*(a[250:] for a in addrs)).tolist()
    assert head + tail == expected
    assert mixed.read_many([], [], []).tolist() == []


def test_batched_inference_equals_bayes_infer(bench_model):
    levels = np.random.default_rng(7).integers(0, 8, size=(500, bench_model.n_features))
    for reader, twin in ((IdealReader(bench_model), IdealReader(bench_model)),
                         (_preset_reader(bench_model, "C"), _preset_reader(bench_model, "C"))):
        batch = bayes_infer_many(levels, bench_model, reader)
        for i, row in enumerate(levels):
            assert batch[i] == bayes_infer(row.tolist(), bench_model, twin)
        for policy in (WakePolicy(), WakePolicy(False, True, False), WakePolicy(True, False, True)):
            assert wake_codes(batch, policy).tolist() == [
                _REASONS.index(decide_wake(batch[i], policy).reason) for i in range(len(levels))]


def test_batched_backend_equals_mlp_infer_on_every_woken_beat(bench_backend, bench_test,
                                                              regime_streams):
    mags, _ = bench_test
    woken = [i for i, o in enumerate(regime_streams["B"].outcomes) if o.wake]
    assert len(woken) > 3000
    preds = bench_backend.predict_features(mags[woken])
    q = bench_backend.input_quantizer(mags[woken][:, list(bench_backend.bins)])
    _, logits = mlp_forward(q, bench_backend.model)
    for k, i in enumerate(woken):
        pred, row_logits = mlp_infer(bench_backend.quantize_input(mags[i]), bench_backend.model)
        assert preds[k] == pred
        assert np.array_equal(logits[k], row_logits)
        assert logits.dtype == row_logits.dtype == np.int32


def test_batch_stream_equals_per_beat_stream_on_presets(bench_dataset, bench_model, bench_backend,
                                                        regime_streams):
    for name in ("A", "B", "C"):
        reader = _preset_reader(bench_model, name)
        per_beat = run_stream(bench_dataset.test, bench_model, _per_beat(reader),
                              _PredictOnly(bench_backend))
        assert per_beat == regime_streams[name], name


_stream_lengths = st.integers(1, 2 * FFT_CHUNK + 60).filter(lambda n: n % FFT_CHUNK)


@settings(max_examples=12, deadline=None)
@given(read_seed=st.integers(0, 2 ** 64 - 1),
       program_seed=st.integers(0, 2 ** 32 - 1),
       vdd=st.floats(*memsim.VDD_RANGE),
       vddr=st.floats(*memsim.VDDR_RANGE),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       n_beats=_stream_lengths,
       pick_seed=st.integers(0, 2 ** 32 - 1),
       flaky=st.booleans())
def test_batch_and_per_beat_streams_agree(bench_dataset, bench_model, bench_backend, read_seed,
                                          program_seed, vdd, vddr, flags, n_beats, pick_seed,
                                          flaky):
    _, dists, noise = memsim.regime_preset("A")
    state = memsim.program_arrays(bench_model, dists, vddr, program_seed)
    op = memsim.OperatingPoint(vdd=vdd, vddr=vddr)
    picks = np.random.default_rng(pick_seed).choice(len(bench_dataset.test), n_beats, replace=False)
    beats = [bench_dataset.test[i] for i in picks]
    policy = WakePolicy(*flags)
    backend = _FlakyBackend(bench_backend) if flaky else bench_backend

    batch = run_stream(beats, bench_model, memsim.MemristorReader(state, op, noise, read_seed),
                       backend, policy)
    reference = memsim.MemristorReader(state, op, noise, read_seed)
    per_beat = run_stream(beats, bench_model, _per_beat(reference), _PredictOnly(backend), policy)
    assert batch == per_beat
    for o in batch.outcomes:
        failed = flaky and o.wake and o.true_label == 2
        assert o.backend_error == failed
        if failed:
            assert o.system_pred == o.front_pred


def _per_beat_outcomes(beats, model, reader, backend):
    """The stream beat by beat through the scalar API, as a list of outcomes."""
    outcomes = []
    for beat in beats:
        mags = fft_features(beat)
        decision = decide_wake(bayes_infer(model.quantize_features(mags), model, reader))
        system = backend.predict(beat, mags) if decision.wake else 0
        outcomes.append(BeatOutcome(beat.label, decision.front_pred, decision.wake,
                                    decision.reason, system))
    return outcomes


def _reference_trace(path, outcomes):
    """The trace format written one row per outcome."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beat", "true", "front_pred", "wake", "reason", "system_pred"])
        for i, o in enumerate(outcomes):
            writer.writerow([i, o.true_label, o.front_pred, int(o.wake),
                             str(o.reason) if o.reason is not None else "none", o.system_pred])


def test_table_trace_writer_equals_csv_writer_on_every_row(tmp_path):
    combos = np.array(list(itertools.product(range(N_CLASSES), range(N_CLASSES), range(4),
                                             range(N_CLASSES))), dtype=np.int64)
    # back-end errors: woken beats that keep their front-end label
    failed = np.array([[t, f, k, f] for t in range(N_CLASSES) for f in range(N_CLASSES)
                       for k in (1, 2, 3)], dtype=np.int64)
    rows = np.concatenate([combos, failed])
    stream = StreamResult(*rows.T.copy(), backend_error=np.arange(len(rows)) >= len(combos))
    assert stream.n == 256 + len(failed)
    _reference_trace(tmp_path / "reference.csv", stream.outcomes)
    stream.write_trace(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    for column, n in (("true", N_CLASSES), ("front", N_CLASSES), ("reason", 4),
                      ("system", N_CLASSES)):
        for value in (-1, n):
            bad = StreamResult(*(getattr(stream, f.name).copy() for f in fields(StreamResult)))
            getattr(bad, column)[5] = value
            with pytest.raises(ValueError, match=f"trace column {column} holds a value outside"):
                bad.write_trace(tmp_path / "bad.csv")


@pytest.mark.parametrize("n_beats", [0, 1, FFT_CHUNK - 1, FFT_CHUNK, FFT_CHUNK + 1])
def test_columnar_core_equals_the_per_beat_reference(tmp_path, bench_dataset, bench_model,
                                                     bench_backend, from_outcomes, n_beats):
    picks = np.random.default_rng(n_beats).choice(len(bench_dataset.test), n_beats, replace=False)
    beats = [bench_dataset.test[i] for i in picks]
    streams = {
        "features": run_features(*feature_matrix(beats), bench_model,
                                 _preset_reader(bench_model, "B"), bench_backend),
        "beats": run_stream(beats, bench_model, _preset_reader(bench_model, "B"), bench_backend),
    }
    outcomes = _per_beat_outcomes(beats, bench_model, _preset_reader(bench_model, "B"), bench_backend)
    reference = from_outcomes(outcomes)
    _reference_trace(tmp_path / "reference.csv", outcomes)
    for name, stream in streams.items():
        for column in fields(StreamResult):
            got, want = getattr(stream, column.name), getattr(reference, column.name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, column.name)
        assert stream.outcomes == outcomes
        stream.write_trace(tmp_path / f"{name}.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert build_report(stream=stream) == build_report(stream=reference)
    if n_beats == 0:
        assert (tmp_path / "features.csv").read_bytes() == \
            b"beat,true,front_pred,wake,reason,system_pred\r\n"
        doc = build_report(stream=streams["features"])
        assert doc["front_end"]["macro_f1_abnormal"] is None
        assert set(doc["system"]["per_class_f1"].values()) == {None}
        assert doc["wake"]["p_wake_abnormal"] is None


def test_stream_over_a_generator_equals_the_stream_over_the_list(bench_dataset, bench_model,
                                                                 bench_backend):
    listed, generated = (_fresh(bench_dataset.test[:FFT_CHUNK + 30]) for _ in range(2))
    for beats in (listed, generated):
        feature_matrix(beats[::5])  # some records hold a cached row, the rest are transformed
    from_list = run_stream(listed, bench_model, _preset_reader(bench_model, "B"), bench_backend)
    from_generator = run_stream((b for b in generated), bench_model,
                                _preset_reader(bench_model, "B"), bench_backend)
    assert from_generator == from_list and from_list.n == len(listed)


def test_empty_streams_give_an_empty_result(tmp_path, bench_model, bench_backend):
    reader = IdealReader(bench_model)
    streams = [run_stream([], bench_model, reader, bench_backend),
               run_features(np.empty((0, FEATURE_LEN)), np.empty(0, dtype=np.int64),
                            bench_model, reader, bench_backend)]
    for stream in streams:
        assert stream == StreamResult() and stream.n == 0
        stream.write_trace(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == \
            b"beat,true,front_pred,wake,reason,system_pred\r\n"
        stats = wake_stats(stream)
        assert stats.p_wake_abnormal is None and stats.p_wake_normal is None


class _CountingReader:
    """A reader that counts its read_many calls."""

    def __init__(self, reader):
        self._reader = reader
        self.read_many_calls = 0

    def read_many(self, class_ids, features, levels):
        self.read_many_calls += 1
        return self._reader.read_many(class_ids, features, levels)


class _CountingBackend:
    """A back end that counts its predict_features calls."""

    def __init__(self, backend):
        self._backend = backend
        self.calls = 0

    def predict_features(self, mags_matrix):
        self.calls += 1
        return self._backend.predict_features(mags_matrix)


@pytest.mark.parametrize("name", ["B", "C"])
def test_cutting_a_stream_changes_no_result(bench_test, bench_model, bench_backend, name):
    mags, labels = bench_test
    whole = run_features(mags, labels, bench_model, _preset_reader(bench_model, name), bench_backend)
    reader = _preset_reader(bench_model, name)  # carried across the cuts
    cuts = [0, 1, FFT_CHUNK - 1, FFT_CHUNK, FFT_CHUNK + 1, 1000, len(mags)]
    pieces = [run_features(mags[lo:hi], labels[lo:hi], bench_model, reader, bench_backend)
              for lo, hi in zip(cuts, cuts[1:])]
    joined = StreamResult(*(np.concatenate([getattr(p, f.name) for p in pieces])
                            for f in fields(StreamResult)))
    assert joined == whole and whole.n == len(mags)
    assert whole.backend_errors == 0 and (whole.reason != 0).sum() > 1000


def test_a_stream_makes_one_read_many_call_and_one_backend_call(bench_test, bench_model,
                                                                bench_backend):
    mags, labels = bench_test
    reader = _CountingReader(_preset_reader(bench_model, "B"))
    backend = _CountingBackend(bench_backend)
    result = run_features(mags, labels, bench_model, reader, backend)
    assert result.n == len(mags) and (result.reason != 0).any() and result.backend_errors == 0
    assert reader.read_many_calls == 1
    assert backend.calls == 1


class _RowFlakyBackend:
    """predict_features fails on every call of more than one row and on the `bad` rows."""

    def __init__(self, backend, bad):
        self._backend = backend
        self._bad = bad

    def predict_features(self, mags_matrix):
        if len(mags_matrix) > 1 or any(np.array_equal(mags_matrix[0], row) for row in self._bad):
            raise RuntimeError("back end down")
        return self._backend.predict_features(mags_matrix)


def test_run_features_retries_a_failed_block_row_by_row(bench_test, bench_model, bench_backend):
    mags, labels = bench_test
    rows = np.flatnonzero(labels != 0)[::40]
    mags, labels = mags[rows], labels[rows]
    bad = mags[labels == 2]
    healthy = run_features(mags, labels, bench_model, IdealReader(bench_model), bench_backend)
    flaky = run_features(mags, labels, bench_model, IdealReader(bench_model),
                         _RowFlakyBackend(bench_backend, bad))
    failed = (healthy.reason != 0) & (labels == 2)
    assert failed.any() and ((healthy.reason != 0) & (labels != 2)).any()
    assert np.array_equal(flaky.backend_error, failed)
    assert np.array_equal(flaky.system, np.where(failed, healthy.front, healthy.system))
    assert flaky.backend_errors == failed.sum()
