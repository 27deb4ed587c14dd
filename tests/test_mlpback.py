"""Float training, post-training quantization, and integer-only inference."""

import json

import numpy as np
import pytest

from wakesim.mlpback import (
    INPUT_SCALE,
    INPUT_ZERO_POINT,
    MLP_TILE,
    InputQuantizer,
    MlpFloat,
    MlpModel,
    QuantLayer,
    TrainConfig,
    fit_backend,
    fit_input_quantizer,
    load_classifier,
    loss_and_grads,
    mlp_forward,
    mlp_infer,
    quantize_mlp,
    save_classifier,
    train_mlp,
)
from wakesim.errors import TrainingDiverged

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


def test_input_quantizer_clips_out_of_range():
    q = InputQuantizer(clip_lo=np.array([0.0]), clip_hi=np.array([1.0]))
    assert q(np.array([-5.0]))[0] == -128
    assert q(np.array([5.0]))[0] == 127


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
    pred, logits = mlp_infer(np.zeros(6, dtype=np.int8), q)
    assert np.array_equal(logits, np.zeros(4, dtype=np.int64))
    assert pred == 0


def test_positive_diagonal_routes_argmax():
    model = MlpFloat(weights=[np.eye(4)], biases=[np.zeros(4)])
    q = quantize_mlp(model, np.zeros((2, 4)))
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.integers(-128, 128, size=4).astype(np.int8)
        pred, _ = mlp_infer(x, q)
        assert pred == int(np.argmax(x))


def test_bias_overflow_is_rejected():
    model = MlpFloat(weights=[np.full((1, 4), 0.127)], biases=[np.array([1e9])])
    with pytest.raises(ValueError, match="int32"):
        quantize_mlp(model, np.zeros((2, 4)))


def test_infer_validates_input_shape():
    model = MlpFloat(weights=[np.eye(4)], biases=[np.zeros(4)])
    q = quantize_mlp(model, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="expected input"):
        mlp_infer(np.zeros(5, dtype=np.int8), q)


# ---------------------------------------------------------------------------
# integer pipeline equivalence
# ---------------------------------------------------------------------------


def _oracle_infer(x_q, model):
    """Arbitrary-precision re-implementation of the integer forward pass.

    Accumulation in Python ints, requantization as one float64 product
    rounded half-to-even. Must agree with mlp_infer bit for bit.
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
        pred, logits = mlp_infer(x_q, model)
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
        pred, logits = mlp_infer(x_q, model)
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
            one_pred, one_logits = mlp_infer(row, model)
            assert one_pred == pred and np.array_equal(one_logits, row_logits)


# ---------------------------------------------------------------------------
# end-to-end back end on the benchmark
# ---------------------------------------------------------------------------


def test_untrained_backend_predicts_at_chance(bench_train, bench_test, bench_ranked):
    mags, labels = bench_train
    clf = fit_backend(mags, labels, bench_ranked, TrainConfig(epochs=0, seed=3))
    test_mags, test_labels = bench_test
    acc = float(np.mean(clf.predict_features(test_mags) == test_labels))
    assert 0.2 <= acc <= 0.3


def test_short_training_fits_the_training_set(bench_train, bench_ranked):
    mags, labels = bench_train
    clf = fit_backend(mags, labels, bench_ranked, TrainConfig(epochs=50, seed=3))
    acc = float(np.mean(clf.predict_features(mags) == labels))
    assert acc >= 0.99


def test_quantized_tracks_float_accuracy(bench_backend, bench_test):
    mags, labels = bench_test
    int_preds = bench_backend.predict_features(mags)
    float_ref = bench_backend.model.float_ref
    agree = 0
    for row, ip in zip(mags, int_preds):
        x_q = bench_backend.quantize_input(row)
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
        batch = bench_backend.predict_features(mags[None, :])[0]
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
        x_q = bench_backend.quantize_input(mags[i])
        a = mlp_infer(x_q, bench_backend.model)
        b = mlp_infer(back.quantize_input(mags[i]), back.model)
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
