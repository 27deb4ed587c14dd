"""Int8 MLP back end: float training, post-training quantization, integer inference.

The network consumes the 32 top-ranked spectral bins, each affine-quantized
to int8 between its 0.5th and 99.5th training percentiles. The float model
trains on the common dequantization x = (q + 128) / 255 of those int8
features, so the integer pipeline's input tensor has a single per-tensor
scale (1/255, zero point -128) even though the feature clips differ per bin.

Integer inference is the reference arithmetic: int8 weights, int32
accumulators, bias add, then requantization by a real-valued multiplier
with round-half-to-even and clamping. Hidden activations are calibrated to
[0, max] so the ReLU folds into the requantization clamp. Final-layer
logits, one per class, stay int32 and the argmax (lowest index on ties) is
the prediction.
"""

from __future__ import annotations

import base64
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .artifacts import NULL, NUMBER, load_json, reading, save_json, typed, typed_list
from .datapipe.beats import N_CLASSES
from .datapipe.features import check_bins
from .errors import TrainingDiverged

HIDDEN_DIMS = (74, 100)
N_INPUT_BINS = 32
INPUT_SCALE = 1.0 / 255.0
INPUT_ZERO_POINT = -128
CLIP_PERCENTILES = (0.5, 99.5)
# Rows per pass of a layer chain: mlp_forward's (see its docstring) and
# quantize_mlp's calibration, whose transients then stay the same size
# whatever the batch.
MLP_TILE = 256


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, not {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, not {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, not {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed}")


@dataclass(frozen=True)
class InputQuantizer:
    """Per-feature affine int8 quantizer for the selected bins; inputs are clipped first, so none overflows."""

    clip_lo: np.ndarray
    clip_hi: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.asarray(self.clip_hi) - np.asarray(self.clip_lo)
        bad = np.flatnonzero(~((0 < span) & (span < np.inf)))
        if len(bad):
            i = bad[0]
            raise ValueError(f"clip_lo[{i}] {self.clip_lo[i]} must be below clip_hi[{i}] {self.clip_hi[i]}"
                             " by a finite span")

    def __call__(self, raw) -> np.ndarray:
        # Clipped first, so the unit value lies in [0, 1] and the codes in [-128, 127].
        # The affine map then runs in place in the new array np.clip returns, so the
        # caller's array, which may be read-only, is never written.
        q = np.clip(np.asarray(raw, dtype=np.float64), self.clip_lo, self.clip_hi)
        q -= self.clip_lo
        q /= self.clip_hi - self.clip_lo
        q *= 255.0
        q += 0.5
        np.floor(q, out=q)
        q += INPUT_ZERO_POINT
        return q.astype(np.int8)

    def dequantize(self, q) -> np.ndarray:
        """Shared [0, 1] embedding of the int8 features; the float model's input."""
        return (np.asarray(q, dtype=np.float64) - INPUT_ZERO_POINT) * INPUT_SCALE


def fit_input_quantizer(values) -> InputQuantizer:
    """Clip each feature at its 0.5 / 99.5 training percentiles."""
    values = np.asarray(values, dtype=np.float64)
    lo = np.percentile(values, CLIP_PERCENTILES[0], axis=0)
    hi = np.percentile(values, CLIP_PERCENTILES[1], axis=0)
    degenerate = ~(lo < hi)
    if degenerate.any():
        # Widen constant features so the affine map stays defined.
        hi = hi.copy()
        hi[degenerate] = lo[degenerate] + 1.0
    return InputQuantizer(clip_lo=lo, clip_hi=hi)


@dataclass
class MlpFloat:
    """Float64 reference network (ReLU hidden layers, linear output)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss_curve: list[float] = field(default_factory=list)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    def activations(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """The input batch, then each layer's activation, each computed only when asked for.

        A layer's bias add and ReLU run in place on its product, and a
        yielded array is never written again, so a caller that keeps only
        the latest one holds at most two layers' rows at a time.
        """
        a = np.asarray(x, dtype=np.float64)
        yield a
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
            yield a

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Activations per layer; index 0 is the input batch."""
        return list(self.activations(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        logits = self.forward(x)[-1]
        return np.argmax(logits, axis=1)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(model: MlpFloat, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradients for one batch."""
    acts = model.forward(x)
    logits = acts[-1]
    probs = _softmax(logits)
    n = len(y)
    loss = float(-np.log(probs[np.arange(n), y] + 1e-300).mean())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w = []
    grads_b = []
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w.append(delta.T @ acts[i])
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i]) * (acts[i] > 0)
    return loss, grads_w[::-1], grads_b[::-1]


def train_mlp(inputs, labels, config: TrainConfig = TrainConfig(),
              hidden_dims: tuple[int, ...] = HIDDEN_DIMS) -> MlpFloat:
    """Plain minibatch gradient descent, deterministic for a seed.

    Initialization, batch order, and accumulation order are all fixed by
    the seed, so refits reproduce identical float weights on a platform.
    Raises TrainingDiverged (with the epoch) if the loss goes non-finite.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    dims = (x.shape[1],) + tuple(hidden_dims) + (N_CLASSES,)
    weights = [
        rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=(dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    ]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    model = MlpFloat(weights=weights, biases=biases)
    n = len(x)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, gw, gb = loss_and_grads(model, x[batch], y[batch])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            for i in range(len(model.weights)):
                model.weights[i] -= config.lr * gw[i]
                model.biases[i] -= config.lr * gb[i]
            epoch_loss += loss
            n_batches += 1
        model.loss_curve.append(epoch_loss / max(n_batches, 1))
    return model


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

@dataclass
class QuantLayer:
    w_q: np.ndarray          # int8, (out, in), row-major
    b_q: np.ndarray          # int32, at scale s_in * s_w
    s_w: float
    s_in: float
    zp_in: int
    s_out: float | None      # None on the final layer: logits stay int32
    zp_out: int | None


@dataclass
class MlpModel:
    dims: tuple[int, ...]
    layers: list[QuantLayer]
    float_ref: MlpFloat | None = None


def _check_logit_range(bias: np.ndarray, in_dim: int, what: str) -> None:
    """Raise ValueError unless every final-layer logit fits int32.

    A logit is the bias plus (q - zp_in) @ w over in_dim inputs, each term
    at most 255 * 128 in magnitude; mlp_forward's int32 store would wrap a
    sum past the int32 range silently.
    """
    peak = int(np.abs(np.asarray(bias, dtype=np.int64)).max(initial=0)) + in_dim * 255 * 128
    if peak > np.iinfo(np.int32).max:
        raise ValueError(f"{what}: |bias| + {in_dim} * 255 * 128 = {peak} exceeds int32, "
                         "so a logit could wrap")


def _weight_scale(w: np.ndarray) -> float:
    peak = float(np.abs(w).max())
    return peak / 127.0 if peak > 0 else 1.0


def _hidden_peaks(model: MlpFloat, calibration) -> np.ndarray:
    """Each hidden layer's largest activation over a batch, one MLP_TILE block of rows at a time.

    A tile runs through the hidden layers only. The max over the tiles'
    maxima equals the whole batch's max bit for bit, NaN included (a NaN in
    any tile gives NaN), and an empty batch raises ValueError, as a max over
    no rows does.
    """
    x = np.asarray(calibration, dtype=np.float64)
    n_hidden = len(model.weights) - 1
    peaks = []
    for start in range(0, len(x), MLP_TILE):
        acts = model.activations(x[start:start + MLP_TILE])
        next(acts)  # the input tile
        peaks.append([next(acts).max() for _ in range(n_hidden)])
    return np.array(peaks).max(axis=0)


def quantize_mlp(model: MlpFloat, calibration: np.ndarray) -> MlpModel:
    """Post-training quantization against a calibration batch.

    Weights: symmetric per-tensor int8 (scale = max|w| / 127; an all-zero
    tensor gets scale 1). Biases: int32 at the combined input*weight scale;
    a final-layer bias that would let a logit leave int32 raises ValueError.
    Hidden activations: per-tensor affine from the observed [0, max] range
    over the batch, found one MLP_TILE block of rows at a time, so the
    activations held stay two layers of one tile whatever the batch size;
    the final layer is never computed. An empty batch raises ValueError.
    """
    peaks = _hidden_peaks(model, calibration)
    layers: list[QuantLayer] = []
    s_in = INPUT_SCALE
    zp_in = INPUT_ZERO_POINT
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        s_w = _weight_scale(w)
        w_q = np.clip(np.rint(w / s_w), -127, 127).astype(np.int8)
        b_q = np.rint(b / (s_in * s_w)).astype(np.int64)
        if np.abs(b_q).max(initial=0) > np.iinfo(np.int32).max:
            raise ValueError("bias does not fit in int32 at the combined scale")
        b_q = b_q.astype(np.int32)
        if i < n_layers - 1:
            peak = float(peaks[i])
            s_out = peak / 255.0 if peak > 0 else 1.0 / 255.0
            zp_out = -128  # range [0, peak]: ReLU folds into the clamp
            layers.append(QuantLayer(w_q, b_q, s_w, s_in, zp_in, s_out, zp_out))
            s_in, zp_in = s_out, zp_out
        else:
            _check_logit_range(b_q, w_q.shape[1], "final-layer bias")
            layers.append(QuantLayer(w_q, b_q, s_w, s_in, zp_in, None, None))
    return MlpModel(dims=model.dims, layers=layers, float_ref=model)


def mlp_forward(q_inputs, model: MlpModel) -> tuple[np.ndarray, np.ndarray]:
    """Integer-only forward pass over a batch of int8 input rows.

    Returns (predicted classes, int32 logits), one row per input. Every
    step is integer arithmetic except the requantize multiply, which is a
    single float64 product rounded half-to-even. The matrix products run
    through float64 BLAS, and hidden activations stay float64: every term
    is an integer of magnitude at most 127 * 255, so every partial sum of a
    layer with fewer than 2**37 inputs is an integer below 2**53 and exact,
    whatever the summation order, and each value equals the one an
    int32/int64 pipeline would hold.

    Each layer's weights and bias are converted to float64 once per call,
    and the layers run over MLP_TILE rows at a time, so a tile's
    intermediates stay small enough for the cache. On a 2-core Xeon, 3200
    rows of the benchmark model took 6.7-8.2 ms as one untiled
    int32/int64 chain, 4.4-4.6 ms as 256-row calls of that chain, and
    3.2-3.4 ms here (quartiles of 50 calls).
    """
    x = np.asarray(q_inputs, dtype=np.int32)
    if x.ndim != 2 or x.shape[1] != model.dims[0]:
        raise ValueError(f"expected inputs of shape (n, {model.dims[0]}), got {x.shape}")
    *hidden, last = model.layers
    hidden = [(layer.zp_in, layer.w_q.T.astype(np.float64), layer.b_q.astype(np.float64),
               layer.s_in * layer.s_w / layer.s_out, layer.zp_out) for layer in hidden]
    w_last = last.w_q.T.astype(np.float64)
    logits = np.empty((len(x), last.w_q.shape[0]), dtype=np.int32)
    for start in range(0, len(x), MLP_TILE):
        h = x[start:start + MLP_TILE].astype(np.float64)
        for zp_in, w, b, multiplier, zp_out in hidden:
            acc = (h - zp_in) @ w
            acc += b
            acc *= multiplier
            np.rint(acc, out=acc)
            acc += zp_out
            h = np.clip(acc, -128, 127, out=acc)
        acc = ((h - last.zp_in) @ w_last).astype(np.int64) + last.b_q
        logits[start:start + MLP_TILE] = acc.astype(np.int32)
    return np.argmax(logits, axis=1), logits


class MlpClassifier:
    """Bundle of bin selection, input quantizer, and quantized network."""

    def __init__(self, bins, input_quantizer: InputQuantizer, model: MlpModel):
        self.bins = tuple(int(b) for b in bins)
        self.input_quantizer = input_quantizer
        self.model = model

    def predict(self, beat, mags) -> int:
        """Predicted class of one beat's feature row: a one-row predict_features."""
        return int(self.predict_features(np.asarray(mags)[None], [0])[0])

    def predict_features(self, mags, rows) -> np.ndarray:
        """Predicted class of the given rows of a feature matrix.

        Only the classifier's bins of the given rows are gathered and run.
        """
        mags = np.asarray(mags, dtype=np.float64)
        return mlp_forward(self.input_quantizer(mags[np.ix_(rows, self.bins)]), self.model)[0]


def fit_backend(mags, labels, ranked_bins, config: TrainConfig = TrainConfig()) -> MlpClassifier:
    """Train the full back end from a feature matrix and a bin ranking."""
    bins = [int(b) for b, _ in ranked_bins[:N_INPUT_BINS]]
    if len(bins) < N_INPUT_BINS:
        raise ValueError(f"need {N_INPUT_BINS} ranked bins, got {len(bins)}")
    raw = np.asarray(mags, dtype=np.float64)[:, bins]
    quantizer = fit_input_quantizer(raw)
    x = quantizer.dequantize(quantizer(raw))
    float_model = train_mlp(x, labels, config)
    model = quantize_mlp(float_model, x)
    return MlpClassifier(bins, quantizer, model)


# ---------------------------------------------------------------------------
# Model file format: JSON, weights/biases as base64 blobs with declared
# shapes, row-major, fixed little-endian integer layout.
# ---------------------------------------------------------------------------

def _blob(arr: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(arr.astype(dtype))).decode("ascii")


def _unblob(text: str, dtype: str, shape) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype=dtype).reshape(shape).copy()


def save_classifier(path: str, clf: MlpClassifier) -> None:
    doc = {
        "dims": list(clf.model.dims),
        "activation": "relu",
        "input": {
            "bins": list(clf.bins),
            "clip_lo": [float(v) for v in clf.input_quantizer.clip_lo],
            "clip_hi": [float(v) for v in clf.input_quantizer.clip_hi],
            "scale": INPUT_SCALE,
            "zero_point": INPUT_ZERO_POINT,
        },
        "layers": [
            {
                "shape": list(layer.w_q.shape),
                "weights": _blob(layer.w_q, "int8"),
                "bias": _blob(layer.b_q, "<i4"),
                "s_w": layer.s_w,
                "s_in": layer.s_in,
                "zp_in": layer.zp_in,
                "s_out": layer.s_out,
                "zp_out": layer.zp_out,
            }
            for layer in clf.model.layers
        ],
    }
    save_json(path, doc)


def _scale(layer_doc: dict, key: str, where: str, kind=NUMBER):
    """A layer's quantization scale: positive, or None where kind allows it."""
    value = typed(layer_doc[key], kind, f"{where}.{key}")
    if value is not None and not value > 0:
        raise ValueError(f"{where}.{key} is {value}, expected a positive scale")
    return value


def load_classifier(path: str) -> MlpClassifier:
    with reading(path, "mlp model"):
        doc = typed(load_json(path), dict, "document")
        dims = typed_list(doc["dims"], int, "dims")
        if len(dims) < 2 or dims[-1] != N_CLASSES:
            raise ValueError(f"dims {dims} need an input width and {N_CLASSES} outputs, one per class")
        if typed(doc["activation"], str, "activation") != "relu":
            raise ValueError(f"activation {doc['activation']!r} is not relu")
        input_doc = typed(doc["input"], dict, "input")
        if (typed(input_doc["scale"], NUMBER, "input.scale") != INPUT_SCALE
                or typed(input_doc["zero_point"], int, "input.zero_point") != INPUT_ZERO_POINT):
            raise ValueError("input: scale and zero point differ from the int8 input encoding")
        bins = typed_list(input_doc["bins"], int, "input.bins", dims[0])
        check_bins(bins, "input.bins")
        clips = [np.array(typed_list(input_doc[key], NUMBER, f"input.{key}", dims[0]), dtype=np.float64)
                 for key in ("clip_lo", "clip_hi")]
        quantizer = InputQuantizer(clip_lo=clips[0], clip_hi=clips[1])
        layer_docs = typed_list(doc["layers"], dict, "layers", len(dims) - 1)
        layers = []
        for i, layer_doc in enumerate(layer_docs):
            where = f"layers[{i}]"
            shape = tuple(typed_list(layer_doc["shape"], int, f"{where}.shape", 2))
            if shape != (dims[i + 1], dims[i]):
                raise ValueError(f"{where}.shape {list(shape)} does not match dims")
            # The final layer keeps int32 logits, so it has no output scale.
            last = i == len(layer_docs) - 1
            bias = _unblob(typed(layer_doc["bias"], str, f"{where}.bias"), "<i4", (shape[0],))
            layer = QuantLayer(
                w_q=_unblob(typed(layer_doc["weights"], str, f"{where}.weights"), "int8", shape),
                b_q=bias.astype(np.int32),
                s_w=_scale(layer_doc, "s_w", where),
                s_in=_scale(layer_doc, "s_in", where),
                zp_in=typed(layer_doc["zp_in"], int, f"{where}.zp_in"),
                s_out=_scale(layer_doc, "s_out", where, NULL if last else NUMBER),
                zp_out=typed(layer_doc["zp_out"], NULL if last else int, f"{where}.zp_out"),
            )
            # The encoding quantize_mlp writes: every int8 activation has zero point
            # INPUT_ZERO_POINT, and a layer's input scale is exactly that of what feeds it.
            for key in ("zp_in",) if last else ("zp_in", "zp_out"):
                if getattr(layer, key) != INPUT_ZERO_POINT:
                    raise ValueError(f"{where}.{key} is {getattr(layer, key)}, expected {INPUT_ZERO_POINT}")
            s_feed = layers[-1].s_out if layers else INPUT_SCALE
            if layer.s_in != s_feed:
                raise ValueError(f"{where}.s_in is {layer.s_in}, expected {s_feed}, the scale of its input")
            # mlp_forward scales the accumulator by it in float64: |(q - zp_in) @ w| is at most
            # 255 * 128 per input, and |bias| below 2**31.
            if not last and not math.isfinite(layer.s_in * layer.s_w / layer.s_out
                                              * (shape[1] * 255 * 128 + 2 ** 31)):
                raise ValueError(f"{where}: the requantize multiplier s_in * s_w / s_out is not finite "
                                 "over the accumulator's range")
            if last:
                _check_logit_range(bias, shape[1], f"{where}.bias")
            layers.append(layer)
        model = MlpModel(dims=tuple(dims), layers=layers)
        return MlpClassifier(bins, quantizer, model)
