"""Log-domain naive Bayes front end.

Likelihoods are stored as 8-bit codes n = round(m * log_b(p)) with b < 1, so
small codes mean likely and per-class evidence accumulates by integer
addition. The minimum accumulated code wins; a minimum at or above the
underflow threshold means every class decoded below machine-integer
resolution and the inference is flagged invalid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import NUMBER, load_json, reading, save_json, typed, typed_list
from .datapipe.beats import CLASS_NAMES, N_CLASSES
from .datapipe.features import check_bins
from .datapipe.quantizers import QuantizerSpec, fit_quantizer, quantize
from .metrics import count_pairs

N_FEATURES = 4
N_LEVELS = 8
SMOOTHING_SIGMA = 1.0

# Probabilities below 2**-16 are not representable on the 16-bit
# accumulation path, so decoding past that point defines "invalid".
UNDERFLOW_BITS = 16


@dataclass(frozen=True)
class LogCodec:
    """Fixed-point logarithmic probability codec."""

    base: float = 0.15
    scale: int = 16
    width: int = 8

    def __post_init__(self):
        if not 0.0 < self.base < 1.0:
            raise ValueError("base must lie strictly between 0 and 1")
        if self.scale < 1 or self.width < 1:
            raise ValueError("scale and width must be positive")
        if self.width > 8:
            raise ValueError("width must be at most 8: codes are stored as 8-bit words")

    @property
    def code_max(self) -> int:
        return (1 << self.width) - 1


def encode_log(p: float, codec: LogCodec = LogCodec()) -> int:
    """Encode a probability as a clamped integer code."""
    if p <= 0.0:
        raise ValueError("probability must be positive")
    n = round(codec.scale * math.log(p) / math.log(codec.base))
    return min(max(int(n), 0), codec.code_max)


def decode_log(code: int, codec: LogCodec = LogCodec()) -> float:
    """Decode a code back to its representative probability base**(n/scale)."""
    return codec.base ** (code / codec.scale)


def invalid_threshold(codec: LogCodec = LogCodec(), underflow_bits: int = UNDERFLOW_BITS) -> int:
    """Smallest code whose decoded probability falls below 2**-underflow_bits."""
    # base**(n/scale) < 2**-k  <=>  n > k * scale * ln 2 / -ln(base)
    bound = underflow_bits * codec.scale * math.log(2.0) / -math.log(codec.base)
    return math.floor(bound) + 1


def fit_likelihoods(levels, labels, n_classes: int = N_CLASSES, n_levels: int = N_LEVELS,
                    sigma: float = SMOOTHING_SIGMA) -> np.ndarray:
    """Per-class, per-feature level histograms with Gaussian smoothing.

    Raw counts c_j are convolved with exp(-(l-j)^2 / (2 sigma^2)) and
    normalized, which keeps every level strictly positive for any class
    with at least one training beat.

    Returns probabilities of shape (n_classes, n_features, n_levels).
    """
    levels = np.asarray(levels, dtype=np.int64)
    if levels.ndim != 2:
        raise ValueError("levels must be (n_beats, n_features)")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    n_features = levels.shape[1]
    grid = np.arange(n_levels)
    kernel = np.exp(-((grid[:, None] - grid[None, :]) ** 2) / (2.0 * sigma * sigma))
    probs = np.empty((n_classes, n_features, n_levels))
    for f in range(n_features):
        counts = count_pairs(labels, levels[:, f], n_classes, n_levels).astype(np.float64)
        for c in range(n_classes):
            if not counts[c].any():
                raise ValueError(f"class {c} has no training beats")
            smoothed = kernel @ counts[c]
            probs[c, f] = smoothed / smoothed.sum()
    return probs


@dataclass
class BayesModel:
    """Trained front-end model: bin choice, quantizers, and code table."""

    feature_bins: tuple[int, ...]
    quantizers: tuple[QuantizerSpec, ...]
    codes: np.ndarray  # (n_classes, n_features, n_levels), uint8
    codec: LogCodec
    class_names: tuple[str, ...] = CLASS_NAMES

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        expected = (len(self.class_names), len(self.feature_bins), N_LEVELS)
        if self.codes.shape != expected:
            raise ValueError(f"code table shape {self.codes.shape} != {expected}")

    @cached_property
    def invalid_threshold(self) -> int:
        return invalid_threshold(self.codec)

    @property
    def n_features(self) -> int:
        return len(self.feature_bins)

    def quantize_features(self, mags) -> list[int]:
        """Quantized level of each selected bin of one feature vector."""
        return self.quantize_matrix(np.asarray(mags)[None])[0].tolist()

    def quantize_matrix(self, mags) -> np.ndarray:
        return bin_levels(mags, self.feature_bins, self.quantizers)


def bin_levels(mags, bins, quantizers) -> np.ndarray:
    """Levels of the selected bins for a (n_beats, n_bins) feature matrix, one column per bin."""
    mags = np.asarray(mags, dtype=np.float64)
    levels = np.empty((len(mags), len(bins)), dtype=np.int64)
    for j, (b, q) in enumerate(zip(bins, quantizers)):
        levels[:, j] = quantize(mags[:, b], q)
    return levels


@dataclass(frozen=True)
class ClassScores:
    """Outcome of one front-end inference."""

    scores: tuple[int, ...]
    predicted: int
    tie_with_normal: bool
    invalid: bool


def word_address(shape, class_id: int, feature: int, level: int) -> int:
    """Flat index of one (class, feature, level) address of a code table.

    Raises IndexError for an address outside `shape`; a negative index
    does not wrap.
    """
    n_classes, n_features, n_levels = shape
    if not (0 <= class_id < n_classes and 0 <= feature < n_features and 0 <= level < n_levels):
        raise IndexError(f"address {(class_id, feature, level)} outside {shape}")
    return (class_id * n_features + feature) * n_levels + level


def word_addresses(shape, class_ids, features, levels) -> np.ndarray:
    """word_address over a read sequence: one flat index per read."""
    index = tuple(np.asarray(a, dtype=np.intp) for a in (class_ids, features, levels))
    try:
        return np.ravel_multi_index(index, shape)
    except ValueError as exc:  # an index outside its axis, or arrays that do not broadcast
        raise IndexError(f"read sequence outside {shape}: {exc}") from None


class IdealReader:
    """Fault-free word reader: returns stored codes unchanged.

    An address outside the code table raises IndexError, as in
    memsim.MemristorReader.
    """

    def __init__(self, model: BayesModel):
        self._shape = model.codes.shape
        self._codes = model.codes.reshape(-1)

    def __call__(self, class_id: int, feature: int, level: int) -> int:
        return int(self._codes[word_address(self._shape, class_id, feature, level)])

    def read_many(self, class_ids, features, levels) -> np.ndarray:
        return self._codes[word_addresses(self._shape, class_ids, features, levels)]


def fit_bayes_model(mags, labels, ranked_bins, codec: LogCodec = LogCodec()) -> BayesModel:
    """Fit the front-end model on a training feature matrix.

    Takes the top-4 ranked bins, fits one 8-level quantizer per bin, builds
    smoothed likelihoods, and encodes them. Class priors are uniform and
    therefore omitted from the code table. Fitting is deterministic: the
    same inputs reproduce the same table bit for bit.
    """
    mags = np.asarray(mags, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    bins = tuple(int(b) for b, _ in ranked_bins[:N_FEATURES])
    if len(bins) < N_FEATURES:
        raise ValueError(f"need at least {N_FEATURES} ranked bins")
    quantizers = tuple(fit_quantizer(mags[:, b], labels, N_LEVELS) for b in bins)
    probs = fit_likelihoods(bin_levels(mags, bins, quantizers), labels)
    codes = np.empty_like(probs, dtype=np.uint8)
    for idx, p in np.ndenumerate(probs):
        codes[idx] = encode_log(float(p), codec)
    return BayesModel(bins, quantizers, codes, codec)


def bayes_infer(levels, model: BayesModel, reader) -> ClassScores:
    """Accumulate per-class codes through a word reader and pick the argmin.

    The reader is any callable (class_id, feature, level) -> code. An
    exception from the reader propagates, as it does from read_many in
    bayes_infer_many.
    """
    scores = [
        sum(int(reader(c, f, int(levels[f]))) for f in range(model.n_features))
        for c in range(len(model.class_names))
    ]
    smin = min(scores)
    predicted = scores.index(smin)
    tie_with_normal = scores[0] == smin and any(s == smin for s in scores[1:])
    return ClassScores(
        scores=tuple(scores),
        predicted=predicted,
        tie_with_normal=tie_with_normal,
        invalid=smin >= model.invalid_threshold,
    )


@dataclass(frozen=True)
class ScoreBatch:
    """Outcomes of a batch of front-end inferences, one row per beat."""

    scores: np.ndarray  # (n_beats, n_classes), int64
    predicted: np.ndarray
    tie_with_normal: np.ndarray
    invalid: np.ndarray

    def __getitem__(self, i: int) -> ClassScores:
        return ClassScores(
            scores=tuple(self.scores[i].tolist()),
            predicted=int(self.predicted[i]),
            tie_with_normal=bool(self.tie_with_normal[i]),
            invalid=bool(self.invalid[i]),
        )


def bayes_infer_many(levels, model: BayesModel, reader) -> ScoreBatch:
    """bayes_infer over a (n_beats, n_features) level matrix in one pass.

    The reader must offer read_many(class_ids, features, levels) -> codes.
    Words are requested in the order a per-beat bayes_infer loop reads them
    (beat, then class, then feature), so a reader whose noise depends on
    per-address read order returns the same words either way.
    """
    levels = np.asarray(levels, dtype=np.int64)
    n_beats, n_features = levels.shape
    n_classes = len(model.class_names)
    shape = (n_beats, n_classes, n_features)
    class_ids = np.broadcast_to(np.arange(n_classes)[None, :, None], shape)
    features = np.broadcast_to(np.arange(n_features)[None, None, :], shape)
    words = reader.read_many(class_ids.ravel(), features.ravel(),
                             np.broadcast_to(levels[:, None, :], shape).ravel())
    scores = np.asarray(words, dtype=np.int64).reshape(shape).sum(axis=2)
    smin = scores.min(axis=1)
    return ScoreBatch(
        scores=scores,
        predicted=scores.argmin(axis=1),
        tie_with_normal=(scores[:, 0] == smin) & (scores[:, 1:] == smin[:, None]).any(axis=1),
        invalid=smin >= model.invalid_threshold,
    )


# ---------------------------------------------------------------------------
# Model file format: JSON with the code table in class-major order
# (class, then feature, then level). That order is normative.
# ---------------------------------------------------------------------------

def save_bayes_model(path: str, model: BayesModel) -> None:
    doc = {
        "codec": {"base": model.codec.base, "scale": model.codec.scale, "width": model.codec.width},
        "feature_bins": list(model.feature_bins),
        "quantizers": [
            {"clip_lo": q.clip_lo, "clip_hi": q.clip_hi, "levels": q.levels}
            for q in model.quantizers
        ],
        "codes": [int(v) for v in model.codes.reshape(-1)],
        "class_names": list(model.class_names),
    }
    save_json(path, doc)


def load_bayes_model(path: str) -> BayesModel:
    with reading(path, "bayes model"):
        doc = typed(load_json(path), dict, "document")
        codec_doc = typed(doc["codec"], dict, "codec")
        codec = LogCodec(base=typed(codec_doc["base"], NUMBER, "codec.base"),
                         scale=typed(codec_doc["scale"], int, "codec.scale"),
                         width=typed(codec_doc["width"], int, "codec.width"))
        bins = tuple(typed_list(doc["feature_bins"], int, "feature_bins"))
        check_bins(bins, "feature_bins")
        quantizers = tuple(
            QuantizerSpec(clip_lo=typed(q["clip_lo"], NUMBER, f"quantizers[{i}].clip_lo"),
                          clip_hi=typed(q["clip_hi"], NUMBER, f"quantizers[{i}].clip_hi"),
                          levels=typed(q["levels"], int, f"quantizers[{i}].levels"))
            for i, q in enumerate(typed_list(doc["quantizers"], dict, "quantizers", len(bins)))
        )
        if any(q.levels != N_LEVELS for q in quantizers):
            raise ValueError(f"quantizers: every quantizer needs {N_LEVELS} levels")
        class_names = tuple(typed_list(doc["class_names"], str, "class_names"))
        codes = np.array(typed_list(doc["codes"], int, "codes"), dtype=np.int64)
        if ((codes < 0) | (codes > codec.code_max)).any():
            raise ValueError(f"codes: a code lies outside 0..{codec.code_max}")
        codes = codes.reshape(len(class_names), len(bins), N_LEVELS)
        return BayesModel(bins, quantizers, codes, codec, class_names)
