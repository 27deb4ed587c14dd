"""The batch stream core against the per-beat, per-read reference paths.

run_stream works on blocks of beats: one FFT call per block, one
read_many per block, one integer forward pass for the woken rows. Every
test here pins a batched step to the scalar API it replaces, which stays
public: fft_features, MemristorReader(c, f, l), bayes_infer, decide_wake,
mlp_infer and backend.predict(beat, mags).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from wakesim import memsim
from wakesim.bayesfront import IdealReader, bayes_infer, bayes_infer_many
from wakesim.datapipe.features import FFT_CHUNK, feature_chunks, feature_matrix, fft_features
from wakesim.mlpback import mlp_forward, mlp_infer
from wakesim.wakectl import WakePolicy, decide_wake, run_stream, wake_reasons

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


def test_batched_fft_equals_per_beat_features(bench_dataset):
    beats = bench_dataset.test
    reference = np.stack([fft_features(b) for b in beats])
    mags, labels = feature_matrix(beats)
    assert np.array_equal(mags, reference)
    assert labels.tolist() == [b.label for b in beats]
    blocks = list(feature_chunks(iter(beats[:FFT_CHUNK + 44])))
    assert [len(chunk) for chunk, _ in blocks] == [FFT_CHUNK, 44]
    assert np.array_equal(np.concatenate([m for _, m in blocks]), reference[:FFT_CHUNK + 44])


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
            assert wake_reasons(batch, policy) == [decide_wake(batch[i], policy).reason
                                                   for i in range(len(levels))]


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
