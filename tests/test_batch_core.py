"""The batch stream core against the per-beat, per-read reference paths.

run_features and run_stream run a whole stream as one batch: one FFT call
per FFT_CHUNK records (feature_matrix, which run_stream calls unless its
memo holds the same records in the same order), one read_many for the
stream, one predict_features call over the stream's matrix and its woken
rows (with run_stream's memo, only the rows its back end has not labelled
yet), and a StreamResult of per-beat columns. Every test here pins a
batched step to the scalar API it replaces, which stays public: fft_features,
MemristorReader(c, f, l), bayes_infer, decide_wake, row 0 of mlp_forward and
backend.predict(beat, mags); the per-word read and predict are one-row views
of read_many and predict_features. bayes_infer and decide_wake run the batch
core's decision and wake rules, so those rules are also pinned to the
numpy-free references in tests/reference.py. Cutting a stream into pieces
changes no result either.
"""

import csv
import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wakesim import memsim, wakectl
from wakesim.bayesfront import N_FEATURES, IdealReader, bayes_infer, bayes_infer_many
from wakesim.datapipe import features
from wakesim.datapipe.beats import N_CLASSES, SEGMENT_LEN, BeatRecord
from wakesim.datapipe.features import FEATURE_LEN, FFT_CHUNK, feature_matrix, fft_features
from wakesim.mlpback import mlp_forward
from wakesim.report import build_report
from wakesim.wakectl import (REASONS, BeatOutcome, StreamResult, WakePolicy, decide_wake,
                             run_features, run_stream, wake_codes, wake_stats)

from reference import scalar_infer, scalar_wake_code

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

    def predict_features(self, mags, rows):
        raise RuntimeError("batch path down")


def _per_beat(reader):
    """A plain word-reader callable: run_stream reads it one word at a time."""
    return lambda c, f, l: reader(c, f, l)


def _preset_reader(model, name, seed=READ_SEED):
    op, dists, noise = memsim.regime_preset(name)
    state = memsim.program_arrays(model, dists, op.vddr, seed=PROGRAM_SEED)
    return memsim.MemristorReader(state, op, noise, seed=seed)


def _fresh(beats):
    """New record objects over the same samples, so no earlier stream's memo holds them."""
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


def _counting_matrices(monkeypatch):
    """The records of every features.feature_matrix call from here on, one list per call.

    run_stream calls feature_matrix through its module, so a patch of the
    module attribute (as the bench tracer makes) sees every stream.
    """
    calls = []
    matrix = features.feature_matrix
    monkeypatch.setattr(features, "feature_matrix", lambda beats: calls.append(list(beats)) or matrix(calls[-1]))
    return calls


def _same_records(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_feature_matrix_transforms_a_partly_cached_sequence_whole_and_recaches_it(
        bench_dataset, bench_model, bench_backend, monkeypatch):
    beats = _fresh(bench_dataset.test[::4][:3 * FFT_CHUNK + 7])  # stride to mix classes
    reference = np.stack([fft_features(b) for b in beats])
    reader = IdealReader(bench_model)
    run_stream(beats[::3], bench_model, reader, bench_backend)  # the memo holds every third record
    calls = _counting_spectra(monkeypatch)
    backend = _CountingBackend(bench_backend)
    # records the memo holds and others mixed, fed through a generator
    first = run_stream((b for b in beats), bench_model, reader, backend)
    assert calls == [FFT_CHUNK, FFT_CHUNK, FFT_CHUNK, 7]  # every record, held or not
    [(mags, _)] = backend.calls
    assert np.array_equal(mags, reference)
    assert first.true.tolist() == [b.label for b in beats]
    # the memo now holds the whole sequence
    assert run_stream(beats, bench_model, reader, backend) == first
    assert calls == [FFT_CHUNK, FFT_CHUNK, FFT_CHUNK, 7]


def test_feature_matrix_returns_a_read_only_matrix(bench_dataset, bench_model, bench_backend):
    beats = _fresh(bench_dataset.test[::12])  # class-major order, so stride to mix classes
    reference = np.stack([fft_features(b) for b in beats])
    first, _ = feature_matrix(beats)
    again, _ = feature_matrix(beats)
    assert again is not first and not np.shares_memory(again, first)  # feature_matrix keeps nothing
    backend = _CountingBackend(bench_backend)
    run_stream(beats, bench_model, IdealReader(bench_model), backend)
    [(held, _)] = backend.calls  # the matrix run_stream's memo holds
    for mags in (first, again, held):
        with pytest.raises(ValueError, match="read-only"):
            mags[:] = -1.0
        assert np.array_equal(mags, reference)


def test_a_stream_of_the_last_streams_records_in_order_reuses_its_matrix(
        bench_dataset, bench_model, bench_backend, monkeypatch):
    beats = _fresh(bench_dataset.test[::12])
    # any sequence that is not those record objects in that order is transformed whole
    variants = {
        "reversed": beats[::-1],
        "prefix": beats[:-1],
        "repeated": beats[:-1] + beats[-2:-1],
        "new records, same samples": _fresh(beats),
    }
    calls = _counting_matrices(monkeypatch)
    for name, variant in variants.items():
        calls.clear()
        backend = _CountingBackend(bench_backend)
        first = run_stream(beats, bench_model, IdealReader(bench_model), backend)
        again = run_stream((b for b in beats), bench_model, IdealReader(bench_model), backend)
        assert again == first and len(calls) == 1 and _same_records(calls[0], beats), name
        [(held, _)] = backend.calls  # the same back end: every woken row already labelled
        other = _CountingBackend(bench_backend)
        result = run_stream(variant, bench_model, IdealReader(bench_model), other)
        assert len(calls) == 2 and _same_records(calls[1], variant), name
        [(mags, rows)] = other.calls
        assert mags is not held and not np.shares_memory(mags, held), name
        assert np.array_equal(mags, np.stack([fft_features(b) for b in variant])), name
        assert result.true.tolist() == [b.label for b in variant], name
        assert rows.tolist() == np.flatnonzero(result.reason).tolist(), name


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


def test_a_stream_over_another_sequence_of_streamed_records_transforms_it_whole(
        bench_dataset, bench_model, bench_backend, monkeypatch):
    """Other records evict the memo: the split streamed after them is transformed again, and
    the same back end is asked again for every woken row."""
    split = _fresh(bench_dataset.test[::12])
    others = _fresh(bench_dataset.test[6::12])
    sequences = [("split", split), ("reversed subset", split[::-3]),
                 ("two streams", split[:100] + others[100:]), ("split again", split)]
    calls = _counting_matrices(monkeypatch)
    backend = _CountingBackend(bench_backend)
    results = []
    for name, beats in sequences:
        calls.clear()
        backend.calls.clear()
        result = run_stream(iter(beats), bench_model, _preset_reader(bench_model, "B"), backend)
        assert len(calls) == 1 and _same_records(calls[0], beats), name
        [(mags, rows)] = backend.calls
        assert np.array_equal(mags, np.stack([fft_features(b) for b in beats])), name
        assert rows.tolist() == np.flatnonzero(result.reason).tolist() != [], name
        results.append(result)
    for (name, beats), result in zip(sequences, results):
        assert result == run_stream(_fresh(beats), bench_model, _preset_reader(bench_model, "B"),
                                    bench_backend), name


def test_the_same_records_with_a_new_back_end_reuse_the_matrix_and_ask_for_every_woken_row(
        bench_dataset, bench_model, bench_backend, monkeypatch):
    split = _fresh(bench_dataset.test[::12])
    run_stream(split, bench_model, IdealReader(bench_model), bench_backend)
    matrices, spectra = _counting_matrices(monkeypatch), _counting_spectra(monkeypatch)
    first, second = _CountingBackend(bench_backend), _CountingBackend(bench_backend)
    results = []
    # the memo keeps one back end's labels: `first` is asked again after `second`
    for backend in (first, second, first):
        results.append(run_stream(split, bench_model, _preset_reader(bench_model, "B"), backend))
        mags, rows = backend.calls[-1]
        assert rows.tolist() == np.flatnonzero(results[-1].reason).tolist() != []
    assert matrices == [] and spectra == []
    assert len(first.calls) == 2 and len(second.calls) == 1
    assert first.calls[0][0] is second.calls[0][0] is first.calls[1][0]
    assert results[0] == results[1] == results[2]


def test_a_predict_only_back_end_keeps_no_labels(bench_dataset, bench_model, bench_backend):
    split = _fresh(bench_dataset.test[::12])
    asked = []

    class _Asking:
        def predict(self, beat, mags):
            asked.append(beat)
            return bench_backend.predict(beat, mags)

    predict_only, counting = _Asking(), _CountingBackend(bench_backend)
    results = [run_stream(split, bench_model, IdealReader(bench_model), backend)
               for backend in (counting, predict_only, predict_only, counting)]
    woken = np.flatnonzero(results[0].reason)
    assert len(woken) and all(r == results[0] for r in results)
    # the predict-only back end is asked for every woken beat on every stream
    assert _same_records(asked, [split[i] for i in woken] * 2)
    # and its streams leave the other back end's kept labels alone
    [(_, rows)] = counting.calls
    assert rows.tolist() == woken.tolist()


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
    levels = np.random.default_rng(7).integers(0, 8, size=(500, N_FEATURES))
    for make in (IdealReader, lambda model: _preset_reader(model, "C")):
        reader, twin, ref = make(bench_model), make(bench_model), make(bench_model)
        batch = bayes_infer_many(levels, bench_model, reader)
        outcomes = [scalar_infer(row.tolist(), bench_model, ref) for row in levels]
        for i, row in enumerate(levels):
            assert batch[i] == outcomes[i] == bayes_infer(row.tolist(), bench_model, twin)
        seen = set()
        for flags in itertools.product((True, False), repeat=3):
            policy = WakePolicy(*flags)
            codes = [scalar_wake_code(o, policy) for o in outcomes]
            assert wake_codes(batch, policy).tolist() == codes
            assert [decide_wake(o, policy) for o in outcomes] == codes
            seen.update(codes)
        assert seen == set(range(len(REASONS)))  # every reason fires under some policy


@pytest.mark.parametrize("name", ["B", "C"])
@pytest.mark.parametrize("n_beats", [0, 1, 257])
def test_class_major_batch_reads_each_address_as_a_per_beat_loop(bench_model, name, n_beats):
    # bayes_infer_many reads (class, feature, beat), the loop (beat, class,
    # feature); each address is read in beat order either way
    levels = np.random.default_rng(n_beats).integers(0, 8, size=(n_beats, N_FEATURES))
    batch_reader, loop_reader = _preset_reader(bench_model, name), _preset_reader(bench_model, name)
    batch = bayes_infer_many(levels, bench_model, batch_reader)
    loop = [bayes_infer(row, bench_model, loop_reader) for row in levels.tolist()]
    assert batch.scores.shape == (n_beats, N_CLASSES)
    assert batch.scores.tolist() == [list(o.scores) for o in loop]
    assert [batch[i] for i in range(n_beats)] == loop
    assert batch_reader._reads == loop_reader._reads
    assert sum(batch_reader._reads) == n_beats * N_CLASSES * N_FEATURES


def test_batched_backend_equals_mlp_forward_on_every_woken_beat(bench_backend, bench_test,
                                                              regime_streams):
    mags, _ = bench_test
    woken = [i for i, o in enumerate(regime_streams["B"].outcomes) if o.wake]
    assert len(woken) > 3000
    preds = bench_backend.predict_features(mags, woken)
    q = bench_backend.input_quantizer(mags[woken][:, list(bench_backend.bins)])
    _, logits = mlp_forward(q, bench_backend.model)
    for k, i in enumerate(woken):
        row = bench_backend.input_quantizer(mags[i][list(bench_backend.bins)])
        pred, row_logits = (v[0] for v in mlp_forward(row[None], bench_backend.model))
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


def test_per_word_stream_calls_each_per_beat_seam(monkeypatch, bench_dataset, bench_model,
                                                  bench_backend):
    # the seams a tracer wraps: wakectl.bayes_infer once per beat, the word
    # reader 16 times per beat in class-then-feature order, and
    # backend.predict once per woken beat
    beats = bench_dataset.test[::40]  # class-major order, so stride to mix classes
    infers = []

    def counted_infer(levels, model, reader):
        infers.append(list(levels))
        return bayes_infer(levels, model, reader)

    monkeypatch.setattr(wakectl, "bayes_infer", counted_infer)
    ideal = IdealReader(bench_model)
    words = []

    def reader(c, f, l):
        words.append((c, f, l))
        return ideal(c, f, l)

    asked = []

    class _Counting:
        def predict(self, beat, mags):
            asked.append(beat)
            return bench_backend.predict(beat, mags)

    result = run_stream(beats, bench_model, reader, _Counting())
    levels = bench_model.quantize_matrix(feature_matrix(beats)[0]).tolist()
    assert infers == levels
    assert words == [(c, f, row[f]) for row in levels for c in range(N_CLASSES)
                     for f in range(N_FEATURES)]
    woken = np.flatnonzero(result.reason).tolist()
    assert 0 < len(woken) < len(beats)
    assert len(asked) == len(woken) and all(a is beats[i] for a, i in zip(asked, woken))


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
        scores = bayes_infer(model.quantize_matrix(mags[None])[0], model, reader)
        code = decide_wake(scores)
        system = backend.predict(beat, mags) if code else 0
        outcomes.append(BeatOutcome(beat.label, scores.predicted, code != 0, REASONS[code],
                                    system))
    return outcomes


def _reference_trace(path, outcomes):
    """The trace format written one row per outcome."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beat", "true", "front_pred", "wake", "reason", "system_pred"])
        for i, o in enumerate(outcomes):
            code = REASONS.index(o.reason)
            writer.writerow([i, o.true_label, o.front_pred, int(code != 0),
                             o.reason if code else "none", o.system_pred])


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
    """A back end that records the (mags, rows) of its predict_features calls."""

    def __init__(self, backend):
        self._backend = backend
        self.calls = []

    def predict_features(self, mags, rows):
        self.calls.append((mags, rows))
        return self._backend.predict_features(mags, rows)


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
    assert len(backend.calls) == 1


def test_the_back_end_gets_the_stream_matrix_and_the_woken_rows(bench_dataset, bench_model,
                                                                  bench_backend):
    beats = _fresh(bench_dataset.test[::8])  # class-major order, so stride to mix classes
    labels = np.array([b.label for b in beats])
    held = []
    for name, stream in (("run_stream", lambda backend: run_stream(
                              beats, bench_model, IdealReader(bench_model), backend)),
                         ("run_features", lambda backend: run_features(
                              held[0], labels, bench_model, IdealReader(bench_model), backend))):
        backend = _CountingBackend(bench_backend)
        result = stream(backend)
        [(got, rows)] = backend.calls
        held.append(got)
        assert rows.tolist() == np.flatnonzero(result.reason).tolist() == \
            np.flatnonzero(labels).tolist(), name
        assert result.backend_errors == 0 and result.system.tolist() == labels.tolist(), name
    assert np.array_equal(held[0], feature_matrix(beats)[0])
    assert held[1] is held[0]  # the matrix itself, not a copy of the woken rows


class _RowFlakyBackend:
    """predict_features fails on every call of more than one row and on the `bad` rows."""

    def __init__(self, backend, bad):
        self._backend = backend
        self._bad = bad

    def predict_features(self, mags, rows):
        if len(rows) > 1 or any(np.array_equal(mags[rows[0]], row) for row in self._bad):
            raise RuntimeError("back end down")
        return self._backend.predict_features(mags, rows)


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
