"""Float training, post-training quantization, and integer-only inference."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from wakesim.mlpback import (
    HIDDEN_DIMS,
    INPUT_SCALE,
    INPUT_ZERO_POINT,
    MLP_TILE,
    N_INPUT_BINS,
    InputQuantizer,
    MlpClassifier,
    MlpFloat,
    MlpModel,
    QuantLayer,
    TrainConfig,
    fit_backend,
    fit_input_quantizer,
    load_classifier,
    loss_and_grads,
    mlp_forward,
    quantize_mlp,
    save_classifier,
    train_mlp,
)
from wakesim import memsim, mlpback
from wakesim.bayesfront import IdealReader
from wakesim.errors import DataError, TrainingDiverged
from wakesim.wakectl import run_stream

# ---------------------------------------------------------------------------
# input quantizer
# ---------------------------------------------------------------------------


def test_fit_input_quantizer_percentile_clips():
    rng = np.random.default_rng(0)
    values = np.column_stack([np.linspace(0.0, 100.0, 1000),
                              np.full(1000, 5.0),
                              rng.uniform(-1, 1, 1000)])
    q = fit_input_quantizer(values)
    assert q.clip_lo[0] == pytest.approx(0.5, abs=1e-9)
    assert q.clip_hi[0] == pytest.approx(99.5, abs=1e-9)
    # a constant column widens to a unit range instead of degenerating
    assert q.clip_lo[1] == 5.0
    assert q.clip_hi[1] == 6.0


def test_input_quantizer_round_trip_error_bound():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 2.0, size=(500, 6))
    q = fit_input_quantizer(values)
    x = rng.uniform(q.clip_lo, q.clip_hi, size=(50, 6))
    coded = q(x)
    assert coded.dtype == np.int8
    # dequantize lands in the shared [0, 1] embedding; map back per feature
    recon = q.clip_lo + q.dequantize(coded) * (q.clip_hi - q.clip_lo)
    step = (q.clip_hi - q.clip_lo) / 255.0
    assert np.all(np.abs(recon - x) <= step / 2 + 1e-9)


def test_input_quantizer_equals_the_out_of_place_map_and_leaves_a_read_only_input():
    rng = np.random.default_rng(3)
    raw = rng.uniform(-1.0, 3.0, size=(300, 6))
    q = fit_input_quantizer(raw[:200])
    raw.flags.writeable = False
    before = raw.copy()
    coded = q(raw)
    assert np.array_equal(raw, before)
    unit = (np.clip(raw, q.clip_lo, q.clip_hi) - q.clip_lo) / (q.clip_hi - q.clip_lo)
    want = (np.floor(unit * 255.0 + 0.5) + INPUT_ZERO_POINT).astype(np.int8)
    assert coded.dtype == np.int8 and np.array_equal(coded, want)
    assert np.array_equal(q(raw[7]), want[7])


def test_input_quantizer_clips_out_of_range():
    q = InputQuantizer(clip_lo=np.array([0.0]), clip_hi=np.array([1.0]))
    assert q(np.array([-5.0]))[0] == -128
    assert q(np.array([5.0]))[0] == 127
    # a huge finite value saturates, with no overflow in the divide over a narrow clip span
    narrow = InputQuantizer(clip_lo=np.array([0.0]), clip_hi=np.array([1e-3]))
    assert narrow(np.array([1e308, -1e308])).tolist() == [127, -128]
    # Clipped first, the affine map ends at -128 and 127 by itself: the codes equal those of a
    # final clamp to [-128, 127], at both clips, just inside both and at +-1e308.
    for lo, hi in [(0.0, 1.0), (0.0, 1e-3), (0.25, 0.2500001), (-1e308, 0.5), (-3.0, 1e308)]:
        q = InputQuantizer(clip_lo=np.array([lo]), clip_hi=np.array([hi]))
        raw = np.array([lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo), 1e308, -1e308])
        unit = (np.clip(raw, lo, hi) - lo) / (hi - lo)
        clamped = np.clip(np.floor(unit * 255.0 + 0.5) + INPUT_ZERO_POINT, -128, 127)
        codes = np.concatenate([q(v[None]) for v in raw])
        assert codes.tolist() == clamped.tolist()
        assert codes[[0, 1, 4, 5]].tolist() == [-128, 127, 127, -128]


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7e308, 1.7e308), (-np.inf, 0.0), (0.0, np.inf)])
def test_input_quantizer_rejects_a_clip_span_that_overflows(lo, hi):
    with pytest.raises(ValueError, match=r"clip_lo\[1\] .* must be below clip_hi\[1\] .* by a finite span"):
        InputQuantizer(clip_lo=np.array([0.0, lo]), clip_hi=np.array([1.0, hi]))


@pytest.mark.parametrize("lo", [1.0, 2.0])
def test_input_quantizer_rejects_a_clip_not_below_its_high_clip(lo):
    with pytest.raises(ValueError, match=r"clip_lo\[1\] .* must be below clip_hi\[1\] 1.0"):
        InputQuantizer(clip_lo=np.array([0.0, lo]), clip_hi=np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# float training
# ---------------------------------------------------------------------------


def _toy_problem(n=120, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(4), n // 4)
    inputs = rng.normal(0, 0.2, size=(n, 6))
    inputs[np.arange(n), labels % 6] += 2.0
    return inputs, labels


def test_training_is_deterministic():
    inputs, labels = _toy_problem()
    config = TrainConfig(epochs=5, seed=2)
    a = train_mlp(inputs, labels, config, hidden_dims=(8,))
    b = train_mlp(inputs, labels, config, hidden_dims=(8,))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)
    assert a.loss_curve == b.loss_curve


def test_loss_decreases_on_separable_data():
    inputs, labels = _toy_problem()
    model = train_mlp(inputs, labels, TrainConfig(epochs=30, seed=0), hidden_dims=(8,))
    assert model.loss_curve[-1] < model.loss_curve[0] / 2
    assert np.mean(model.predict(inputs) == labels) > 0.95


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 6))
    y = rng.integers(0, 4, size=8)
    model = train_mlp(x, y, TrainConfig(epochs=0, seed=1), hidden_dims=(5,))
    loss, grads_w, grads_b = loss_and_grads(model, x, y)
    h = 1e-6

    def numeric(param, idx):
        orig = param[idx]
        param[idx] = orig + h
        hi = loss_and_grads(model, x, y)[0]
        param[idx] = orig - h
        lo = loss_and_grads(model, x, y)[0]
        param[idx] = orig
        return (hi - lo) / (2 * h)

    for layer in range(len(model.weights)):
        for idx in np.ndindex(model.weights[layer].shape):
            g = grads_w[layer][idx]
            fd = numeric(model.weights[layer], idx)
            assert abs(fd - g) <= 1e-4 * max(1.0, abs(g))
        for (idx,) in np.ndindex(model.biases[layer].shape):
            g = grads_b[layer][idx]
            fd = numeric(model.biases[layer], (idx,))
            assert abs(fd - g) <= 1e-4 * max(1.0, abs(g))


def test_training_divergence_is_reported_with_epoch():
    inputs, labels = _toy_problem()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train_mlp(inputs, labels, TrainConfig(lr=1e12, epochs=200, seed=0),
                      hidden_dims=(8,))
    assert info.value.epoch >= 0
    assert "diverged" in str(info.value)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_weight_scale_and_codes():
    model = MlpFloat(weights=[np.array([[1.27, -1.27, 0.64, 0.0]])],
                     biases=[np.zeros(1)])
    q = quantize_mlp(model, np.zeros((4, 4)))
    layer = q.layers[0]
    assert layer.s_w == pytest.approx(0.01, rel=1e-9)
    assert np.array_equal(layer.w_q, np.array([[127, -127, 64, 0]], dtype=np.int8))
    assert layer.s_in == INPUT_SCALE
    assert layer.zp_in == INPUT_ZERO_POINT
    assert layer.s_out is None  # final layer keeps int32 logits


def test_all_zero_layer_gets_unit_scale_and_ties_to_class_zero():
    model = MlpFloat(weights=[np.zeros((4, 6))], biases=[np.zeros(4)])
    q = quantize_mlp(model, np.zeros((2, 6)))
    assert q.layers[0].s_w == 1.0
    pred, logits = (v[0] for v in mlp_forward(np.zeros(6, dtype=np.int8)[None], q))
    assert np.array_equal(logits, np.zeros(4, dtype=np.int64))
    assert pred == 0


def test_positive_diagonal_routes_argmax():
    model = MlpFloat(weights=[np.eye(4)], biases=[np.zeros(4)])
    q = quantize_mlp(model, np.zeros((2, 4)))
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.integers(-128, 128, size=4).astype(np.int8)
        pred, _ = (v[0] for v in mlp_forward(x[None], q))
        assert pred == int(np.argmax(x))


def test_bias_overflow_is_rejected():
    model = MlpFloat(weights=[np.full((1, 4), 0.127)], biases=[np.array([1e9])])
    with pytest.raises(ValueError, match="int32"):
        quantize_mlp(model, np.zeros((2, 4)))


def test_quantize_refuses_a_final_bias_that_lets_a_logit_wrap():
    # b_q = rint(66310 * 255 * 127) = 2 147 449 350 fits int32 on its own, but
    # not with the 2 * 255 * 128 two inputs can add to it
    model = MlpFloat(weights=[np.eye(4, 2)], biases=[np.array([66310.0, 0.0, 0.0, 0.0])])
    with pytest.raises(ValueError, match="exceeds int32"):
        quantize_mlp(model, np.zeros((2, 2)))


def test_forward_is_the_activation_chain_and_sets_each_hidden_scale():
    # the float reference is one chain for training, predict and calibration,
    # and each hidden s_out is its layer's peak over the calibration batch / 255
    rng = np.random.default_rng(8)
    x = rng.random((300, 6))
    model = train_mlp(x, rng.integers(0, 4, 300), TrainConfig(epochs=0, seed=1), hidden_dims=(9, 7, 5))
    model.biases[1] -= 100.0  # every activation of the second hidden layer is 0
    model.biases[2] += 0.5
    acts = model.forward(x)
    assert len(acts) == 5
    for a, c in zip(acts, model.activations(x), strict=True):
        assert a.dtype == c.dtype == np.float64 and np.array_equal(a, c)
    # ReLU on every hidden layer, none on the logits
    ref = [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = ref[-1] @ w.T + b
        ref.append(np.maximum(z, 0.0) if i < 3 else z)
    for a, r in zip(acts, ref, strict=True):
        assert np.array_equal(a, r)
    assert (acts[1] > 0).any() and not acts[2].any() and (acts[3] > 0).all() and (acts[4] < 0).any()
    q = quantize_mlp(model, x)
    assert [layer.s_out for layer in q.layers] == [acts[1].max() / 255, 1 / 255, acts[3].max() / 255, None]


@pytest.mark.parametrize("n", [1, MLP_TILE - 1, MLP_TILE, MLP_TILE + 1, 3207])
def test_calibration_scales_equal_the_whole_batch_peaks_at_tile_edges(n):
    # Nonnegative weights and inputs, and zero biases, make every activation grow with
    # every input, so the all-ones row holds each hidden layer's largest activation. It
    # is the last row of the first tile: a tile that drops its last row, or a peak taken
    # from the last tile alone, misses it.
    rng = np.random.default_rng(n)
    x = 0.5 * rng.random((n, N_INPUT_BINS))
    x[min(n, MLP_TILE) - 1] = 1.0
    model = train_mlp(x, rng.integers(0, 4, n), TrainConfig(epochs=0, seed=1))
    model.weights = [np.abs(w) for w in model.weights]
    acts = model.forward(x)
    assert all(a.argmax() // a.shape[1] == min(n, MLP_TILE) - 1 for a in acts[1:-1])
    q = quantize_mlp(model, x)
    assert [layer.s_out for layer in q.layers] == [a.max() / 255 for a in acts[1:-1]] + [None]


def test_a_nan_row_in_one_tile_gives_the_scales_of_the_whole_batch():
    # A whole-batch max over a NaN is NaN, and NaN > 0 is false, so every hidden
    # s_out is 1 / 255. The NaN is in the first of three tiles, whose other tiles
    # have positive peaks: a running Python max() from 0.0, which drops a NaN,
    # or the last tile's peak alone, would keep one of those.
    rng = np.random.default_rng(4)
    x = rng.random((2 * MLP_TILE + 7, N_INPUT_BINS))
    x[3, 5] = np.nan
    model = train_mlp(x, rng.integers(0, 4, len(x)), TrainConfig(epochs=0, seed=1))
    model.weights = [np.abs(w) for w in model.weights]
    assert all(np.isnan(a.max()) for a in model.forward(x)[1:-1])
    assert (model.forward(x[MLP_TILE:])[1] > 0).any()
    q = quantize_mlp(model, x)
    assert [layer.s_out for layer in q.layers] == [1 / 255, 1 / 255, None]


def test_calibration_on_an_empty_batch_raises():
    model = train_mlp(np.zeros((4, 6)), np.arange(4), TrainConfig(epochs=0, seed=1), hidden_dims=(5,))
    with pytest.raises(ValueError):
        quantize_mlp(model, np.zeros((0, 6)))


def test_calibration_holds_at_most_two_layers_of_activations():
    # Calibration runs the hidden layers over MLP_TILE rows at a time, so it
    # holds two hidden layers of one tile, 256 x (74 + 100) float64 = 0.36 MB,
    # whatever the batch size; the peak measured 0.36 MB at 3200 and at 12 800
    # rows. Holding two whole layers of a README-sized batch, (3200, 32)
    # through HIDDEN_DIMS, peaked at 4.47 MB (its largest hidden activation
    # is 3200 x 100 float64, 2.56 MB), and forward's whole list, with the
    # temporaries of an out-of-place bias add and ReLU, at 8.98 MB. The
    # bounds are two of that largest activation, and 0.5 MB at both sizes.
    largest = 3200 * max(HIDDEN_DIMS) * 8
    rng = np.random.default_rng(0)
    for n in (3200, 12_800):
        x = rng.random((n, N_INPUT_BINS))
        model = train_mlp(x, rng.integers(0, 4, n), TrainConfig(epochs=0, seed=1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            quantize_mlp(model, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * largest
        assert peak < 500_000, (n, peak)


def _wrapping_classifier() -> MlpClassifier:
    """One layer over two bins: weights [[127, 127], 0, 0, 0], bias [2**31 - 1, 0, 0, 0]."""
    w_q = np.zeros((4, 2), dtype=np.int8)
    w_q[0] = 127
    layer = QuantLayer(w_q, np.array([2**31 - 1, 0, 0, 0], dtype=np.int32), 1.0, INPUT_SCALE,
                       INPUT_ZERO_POINT, None, None)
    return MlpClassifier([0, 1], InputQuantizer(np.zeros(2), np.ones(2)),
                         MlpModel(dims=(2, 4), layers=[layer]))


def test_load_refuses_a_final_bias_that_lets_a_logit_wrap(tmp_path):
    clf = _wrapping_classifier()
    # what the loader guards against: class 0's logit wraps negative and class 1 wins
    pred, logits = (v[0] for v in mlp_forward(np.array([127, 127], dtype=np.int8)[None], clf.model))
    assert (pred, logits[0]) == (1, -2_147_418_879)
    path = tmp_path / "mlp.json"
    save_classifier(path, clf)
    with pytest.raises(DataError, match=re.escape(f"{path}: malformed mlp model: layers[0].bias: "
                                                  "|bias| + 2 * 255 * 128 = 2147548927 exceeds int32")):
        load_classifier(path)


def test_infer_validates_input_shape():
    model = MlpFloat(weights=[np.eye(4)], biases=[np.zeros(4)])
    q = quantize_mlp(model, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="expected input"):
        mlp_forward(np.zeros(5, dtype=np.int8)[None], q)


# ---------------------------------------------------------------------------
# integer pipeline equivalence
# ---------------------------------------------------------------------------


def _oracle_infer(x_q, model):
    """Arbitrary-precision re-implementation of the integer forward pass.

    Accumulation in Python ints, requantization as one float64 product
    rounded half-to-even. Must agree with row 0 of mlp_forward bit for bit.
    """
    x = [int(v) for v in x_q]
    logits = None
    for layer in model.layers:
        acc = []
        for i in range(layer.w_q.shape[0]):
            s = int(layer.b_q[i])
            row = layer.w_q[i]
            for j, xv in enumerate(x):
                s += int(row[j]) * (xv - layer.zp_in)
            acc.append(s)
        if layer.s_out is None:
            logits = acc
        else:
            multiplier = layer.s_in * layer.s_w / layer.s_out
            x = [min(127, max(-128, round(a * multiplier) + layer.zp_out))
                 for a in acc]
    pred = max(range(len(logits)), key=lambda i: (logits[i], -i))
    return pred, logits


def test_integer_inference_matches_pure_python_oracle(bench_backend):
    rng = np.random.default_rng(5)
    model = bench_backend.model
    for _ in range(25):
        x_q = rng.integers(-128, 128, size=model.dims[0]).astype(np.int8)
        pred, logits = (v[0] for v in mlp_forward(x_q[None], model))
        o_pred, o_logits = _oracle_infer(x_q, model)
        assert pred == o_pred
        assert [int(v) for v in logits] == o_logits


def test_integer_inference_matches_float_simulation(bench_backend):
    # same arithmetic carried in float64: must agree exactly while the
    # accumulators stay far below 2**53
    rng = np.random.default_rng(6)
    model = bench_backend.model
    for _ in range(1000):
        x_q = rng.integers(-128, 128, size=model.dims[0]).astype(np.int8)
        x = x_q.astype(np.float64)
        logits_f = None
        for layer in model.layers:
            acc = layer.w_q.astype(np.float64) @ (x - layer.zp_in) + layer.b_q
            if layer.s_out is None:
                logits_f = acc
            else:
                mult = layer.s_in * layer.s_w / layer.s_out
                x = np.clip(np.rint(acc * mult) + layer.zp_out, -128, 127)
        pred, logits = (v[0] for v in mlp_forward(x_q[None], model))
        assert np.array_equal(logits.astype(np.float64), logits_f)
        assert pred == int(np.argmax(logits_f))


def _untiled_forward(q_inputs, model):
    """The forward pass in one untiled chain: int32 activations, int64 accumulators."""
    x = np.asarray(q_inputs, dtype=np.int32)
    for layer in model.layers:
        acc = ((x - layer.zp_in).astype(np.float64) @ layer.w_q.T.astype(np.float64)
               ).astype(np.int64) + layer.b_q
        if layer.s_out is None:
            logits = acc.astype(np.int32)
        else:
            multiplier = layer.s_in * layer.s_w / layer.s_out
            q = np.rint(acc * multiplier) + layer.zp_out
            x = np.clip(q, -128, 127).astype(np.int32)
    return np.argmax(logits, axis=1), logits


def _extreme_model(rng, dims):
    """A quantized network with every weight at +-127 and random scales and biases."""
    layers = []
    s_in, zp_in = INPUT_SCALE, INPUT_ZERO_POINT
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        s_w = float(rng.uniform(1e-3, 1e-1))
        # multipliers from 1e-5 to 1e-2: outputs from mostly saturated to mostly in range
        s_out = None if i == len(dims) - 2 else s_in * s_w / 10 ** rng.uniform(-5, -2)
        layers.append(QuantLayer(
            w_q=rng.choice(np.array([-127, 127], dtype=np.int8), size=(n_out, n_in)),
            b_q=rng.integers(-2**14, 2**14, size=n_out).astype(np.int32),
            s_w=s_w, s_in=s_in, zp_in=zp_in, s_out=s_out,
            zp_out=None if s_out is None else -128))
        s_in, zp_in = s_out, -128
    return MlpModel(dims=tuple(dims), layers=layers)


@pytest.mark.parametrize("n_rows", [0, 1, MLP_TILE - 1, MLP_TILE, MLP_TILE + 1, 2 * MLP_TILE + 7])
def test_tiled_forward_equals_the_untiled_integer_pass(bench_backend, n_rows):
    rng = np.random.default_rng(n_rows)
    models = [bench_backend.model, _extreme_model(rng, (32, 74, 100, 4)),
              _extreme_model(rng, (32, 74, 100, 4)), _extreme_model(rng, (32, 4))]
    for model in models:
        shape = (n_rows, model.dims[0])
        # half the inputs at the int8 extremes -128 and 127
        x = np.where(rng.random(shape) < 0.5, rng.choice([-128, 127], size=shape),
                     rng.integers(-128, 128, size=shape)).astype(np.int8)
        preds, logits = mlp_forward(x, model)
        want_preds, want_logits = _untiled_forward(x, model)
        assert logits.dtype == np.int32 and logits.shape == (n_rows, model.dims[-1])
        assert np.array_equal(logits, want_logits)
        assert np.array_equal(preds, want_preds)
        for row, pred, row_logits in zip(x, preds.tolist(), logits):
            one_pred, one_logits = (v[0] for v in mlp_forward(row[None], model))
            assert one_pred == pred and np.array_equal(one_logits, row_logits)


# ---------------------------------------------------------------------------
# end-to-end back end on the benchmark
# ---------------------------------------------------------------------------


def test_untrained_backend_predicts_at_chance(bench_train, bench_test, bench_ranked):
    mags, labels = bench_train
    clf = fit_backend(mags, labels, bench_ranked, TrainConfig(epochs=0, seed=3))
    test_mags, test_labels = bench_test
    acc = float(np.mean(clf.predict_features(test_mags, np.arange(len(test_mags))) == test_labels))
    assert 0.2 <= acc <= 0.3


def test_short_training_fits_the_training_set(bench_train, bench_ranked):
    mags, labels = bench_train
    clf = fit_backend(mags, labels, bench_ranked, TrainConfig(epochs=50, seed=3))
    acc = float(np.mean(clf.predict_features(mags, np.arange(len(mags))) == labels))
    assert acc >= 0.99


def test_quantized_tracks_float_accuracy(bench_backend, bench_test):
    mags, labels = bench_test
    int_preds = bench_backend.predict_features(mags, np.arange(len(mags)))
    float_ref = bench_backend.model.float_ref
    agree = 0
    for row, ip in zip(mags, int_preds):
        x_q = bench_backend.input_quantizer(row[list(bench_backend.bins)])
        x_deq = bench_backend.input_quantizer.dequantize(x_q)
        fp = int(float_ref.predict(x_deq[None, :])[0])
        agree += fp == ip
    acc_int = float(np.mean(int_preds == labels))
    assert agree / len(labels) >= 0.98
    assert acc_int >= 0.97


def test_predict_features_matches_per_beat_predict(bench_backend, bench_dataset):
    from wakesim.datapipe.features import fft_features
    beats = bench_dataset.test[::400]
    for beat in beats:
        mags = fft_features(beat)
        single = bench_backend.predict(beat, mags)
        batch = bench_backend.predict_features(mags[None, :], [0])[0]
        assert single == batch


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, bench_backend, bench_test):
    path = tmp_path / "mlp.json"
    save_classifier(path, bench_backend)
    back = load_classifier(path)
    assert back.bins == bench_backend.bins
    assert back.model.dims == bench_backend.model.dims
    assert back.model.float_ref is None
    mags, _ = bench_test
    rng = np.random.default_rng(7)
    for i in rng.integers(0, len(mags), size=50):
        x_q = bench_backend.input_quantizer(mags[i][list(bench_backend.bins)])
        a = [v[0] for v in mlp_forward(x_q[None], bench_backend.model)]
        x_back = back.input_quantizer(mags[i][list(back.bins)])
        b = [v[0] for v in mlp_forward(x_back[None], back.model)]
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])


def test_classifier_file_layout(tmp_path, bench_backend):
    path = tmp_path / "mlp.json"
    save_classifier(path, bench_backend)
    doc = json.loads(path.read_text())
    assert doc["activation"] == "relu"
    assert doc["dims"] == [32, 74, 100, 4]
    assert len(doc["layers"]) == 3
    first = doc["layers"][0]
    assert isinstance(first["weights"], str)  # packed blobs, not number lists
    assert first["zp_in"] == -128
    assert doc["layers"][-1]["s_out"] is None


def test_predict_features_labels_the_given_rows_of_the_matrix(bench_backend, bench_test):
    mags, _ = bench_test
    rows = np.array([7, 3100, 3, 3, 1650, 0])  # out of order, one repeated
    whole = bench_backend.predict_features(mags, np.arange(len(mags)))
    got = bench_backend.predict_features(mags, rows)
    assert got.tolist() == whole[rows].tolist()
    assert got.tolist() == bench_backend.predict_features(mags[rows], np.arange(len(rows))).tolist()
    assert len(set(whole[rows].tolist())) > 1
    # A read-only matrix, as feature_matrix returns it, and a writable copy label alike, for
    # unsorted, repeated and empty rows.
    writable = mags.copy()
    for more in ([3199, 2, 2, 2, 801, 1600, 0, 3199], np.array([], dtype=np.int64), []):
        read_only = bench_backend.predict_features(mags, more)
        gathered = bench_backend.predict_features(writable, more)
        assert read_only.dtype == gathered.dtype
        assert read_only.tolist() == gathered.tolist() == whole[np.asarray(more, dtype=np.int64)].tolist()


def _forward_rows(monkeypatch):
    """Patch mlpback.mlp_forward to record the row count of each call; returns that list."""
    calls = []

    def counted(q_inputs, model):
        calls.append(len(q_inputs))
        return mlp_forward(q_inputs, model)

    monkeypatch.setattr(mlpback, "mlp_forward", counted)
    return calls


def test_a_split_streamed_again_labels_each_row_at_most_once(tmp_path, monkeypatch, bench_dataset,
                                                             bench_model, bench_backend):
    path = tmp_path / "mlp.json"
    save_classifier(path, bench_backend)

    def reader(name):
        if name == "ideal":
            return IdealReader(bench_model)
        op, dists, noise = memsim.regime_preset(name)
        state = memsim.program_arrays(bench_model, dists, op.vddr, seed=5)
        return memsim.MemristorReader(state, op, noise, seed=7)

    regimes = ("ideal", "A", "B", "C")
    split = bench_dataset.test
    fresh = [run_stream(split, bench_model, reader(name), load_classifier(path)) for name in regimes]
    woken = [np.flatnonzero(r.reason) for r in fresh]
    calls = _forward_rows(monkeypatch)
    clf = load_classifier(path)
    again = [run_stream(split, bench_model, reader(name), clf) for name in regimes]
    assert again == fresh
    # The first stream runs exactly its woken rows; each later one only the rows no stream woke yet.
    new = [len(np.setdiff1d(w, np.concatenate([w[:0], *woken[:i]]))) for i, w in enumerate(woken)]
    assert calls == [n for n in new if n]
    assert calls[0] == len(woken[0]) < len(split)
    assert sum(calls) == len(np.unique(np.concatenate(woken))) < sum(map(len, woken))
    calls.clear()
    assert [run_stream(split, bench_model, reader(name), clf) for name in regimes] == fresh
    assert calls == []


def test_a_matrix_that_can_change_is_labelled_anew_on_every_call(monkeypatch, bench_backend, bench_test):
    """predict_features keeps nothing: every call runs only the requested rows, for a read-only
    matrix as for a writable one, so a matrix changed between calls gets its new rows' labels."""
    mags, labels = bench_test
    normal, abnormal = np.flatnonzero(labels == 0)[:5], np.flatnonzero(labels == 2)[:5]
    calls = _forward_rows(monkeypatch)
    writable = mags.copy()
    for matrix in (mags, writable, mags, writable):
        assert bench_backend.predict_features(matrix, normal).tolist() == [0] * 5
    writable[normal] = mags[abnormal]
    assert bench_backend.predict_features(writable, normal).tolist() == [2] * 5
    assert calls == [len(normal)] * 5  # only the requested rows, every call
