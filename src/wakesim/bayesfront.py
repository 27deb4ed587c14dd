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
from .datapipe.quantizers import N_LEVELS, QuantizerSpec, fit_quantizer, quantize
from .metrics import count_pairs

# The one model shape: N_CLASSES classes, N_FEATURES feature bins, N_LEVELS
# levels per bin, so a code table has N_CLASSES * N_FEATURES * N_LEVELS words.
N_FEATURES = 4
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
        # Up to 2**53 a scale is exact as a float, and the invalid threshold
        # stays finite for every base in (0, 1).
        if not 1 <= self.scale <= 2**53:
            raise ValueError(f"scale {self.scale} is outside 1..2**53")
        if self.width < 1:
            raise ValueError("width must be positive")
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


def fit_likelihoods(levels, labels) -> np.ndarray:
    """Per-class, per-feature level histograms with Gaussian smoothing.

    Raw counts c_j are convolved with exp(-(l-j)^2 / (2 sigma^2)), sigma =
    SMOOTHING_SIGMA, and normalized, which keeps every level strictly
    positive for any class with at least one training beat.

    Returns probabilities of shape (N_CLASSES, n_features, N_LEVELS).
    """
    levels = np.asarray(levels, dtype=np.int64)
    if levels.ndim != 2:
        raise ValueError("levels must be (n_beats, n_features)")
    n_features = levels.shape[1]
    grid = np.arange(N_LEVELS)
    kernel = np.exp(-((grid[:, None] - grid[None, :]) ** 2) / (2.0 * SMOOTHING_SIGMA**2))
    probs = np.empty((N_CLASSES, n_features, N_LEVELS))
    for f in range(n_features):
        counts = count_pairs(labels, levels[:, f], N_CLASSES, N_LEVELS).astype(np.float64)
        for c in range(N_CLASSES):
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
    codes: np.ndarray  # (N_CLASSES, N_FEATURES, N_LEVELS), uint8
    codec: LogCodec

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        expected = (N_CLASSES, N_FEATURES, N_LEVELS)
        if self.codes.shape != expected:
            raise ValueError(f"code table shape {self.codes.shape} != {expected}")
        if not len(self.feature_bins) == len(self.quantizers) == N_FEATURES:
            raise ValueError(f"need {N_FEATURES} feature bins, with one quantizer each")

    @cached_property
    def invalid_threshold(self) -> int:
        return invalid_threshold(self.codec)

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


def word_addresses(shape, class_ids, features, levels) -> np.ndarray:
    """Flat index of each (class, feature, level) address of a read sequence in a code table.

    The three integer arrays broadcast together, so compact ones serve:
    bayes_infer_many passes (N_CLASSES, 1, 1), (1, n_features, 1) and
    (1, n_features, n_beats) arrays and gets its reads in (class, feature,
    beat) order. Raises IndexError for a value outside its axis (checked
    on each array before broadcasting), for a non-empty array that is not
    of an integer dtype (a float or bool index would be truncated or read
    as 0/1), and for arrays that do not broadcast.
    """
    index = []
    for a, n in zip((class_ids, features, levels), shape):
        a = np.asarray(a)
        if a.size:
            if a.dtype.kind not in "iu":
                raise IndexError(f"read sequence of dtype {a.dtype}: addresses must be integers")
            if not (0 <= a.min() and a.max() < n):
                raise IndexError(f"read sequence outside {shape}")
        index.append(a.astype(np.intp, copy=False))
    c, f, l = index
    _, n_features, n_levels = shape
    try:
        return (c * n_features + f) * n_levels + l
    except ValueError:  # arrays that do not broadcast
        shapes = [a.shape for a in index]
        raise IndexError(f"read sequence of shapes {shapes} does not broadcast") from None


class WordReader:
    """The per-word read of a reader: a one-row view of its read_many.

    `reader(c, f, l)` reads the one word at (c, f, l) through read_many, so
    word_addresses is its only address check. A coordinate that is not a
    scalar raises IndexError before any read, where read_many would read
    every word it names.
    """

    def __call__(self, class_id: int, feature: int, level: int) -> int:
        address = (class_id, feature, level)
        if any(np.ndim(x) != 0 for x in address):
            raise IndexError(f"address {address}: a per-word read takes one scalar per coordinate")
        return int(self.read_many(*address)[0])


class IdealReader(WordReader):
    """Fault-free word reader: returns stored codes unchanged.

    An address outside the code table, or one that is not of integers,
    raises IndexError, as in memsim.MemristorReader.
    """

    def __init__(self, model: BayesModel):
        self._shape = model.codes.shape
        self._codes = model.codes.reshape(-1)

    def read_many(self, class_ids, features, levels) -> np.ndarray:
        """Stored codes of a read sequence: the address arrays broadcast together, flattened in C order."""
        return self._codes[word_addresses(self._shape, class_ids, features, levels).ravel()]


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
    quantizers = tuple(fit_quantizer(mags[:, b], labels) for b in bins)
    probs = fit_likelihoods(bin_levels(mags, bins, quantizers), labels)
    codes = np.empty_like(probs, dtype=np.uint8)
    for idx, p in np.ndenumerate(probs):
        codes[idx] = encode_log(float(p), codec)
    return BayesModel(bins, quantizers, codes, codec)


def bayes_infer(levels, model: BayesModel, reader) -> ClassScores:
    """bayes_infer_many of one beat through a word reader: any callable
    (class_id, feature, level) -> code, called in class-then-feature order.
    An exception from the reader propagates, as it does from read_many.
    """
    scores = [
        sum(int(reader(c, f, int(levels[f]))) for f in range(N_FEATURES))
        for c in range(N_CLASSES)
    ]
    return _decide(np.array([scores], dtype=np.int64), model)[0]


@dataclass(frozen=True)
class ScoreBatch:
    """Outcomes of a batch of front-end inferences, one row per beat."""

    scores: np.ndarray  # (n_beats, N_CLASSES), int64
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

    The reader must offer read_many(class_ids, features, levels) -> codes,
    which reads the broadcast address arrays flattened in C order. They
    are passed compact and class-major: class (N_CLASSES, 1, 1), feature
    (1, n_features, 1) and level (1, n_features, n_beats), so the words
    arrive in (class, feature, beat) order and each class's score is a sum
    over the feature axis. A per-beat bayes_infer loop reads in (beat,
    class, feature) order instead, but for any one address both orders
    read it in beat order, so a reader whose noise depends only on
    per-address read order (memsim.MemristorReader) returns the same words
    either way.
    """
    levels = np.asarray(levels, dtype=np.int64)
    n_beats, n_features = levels.shape
    words = reader.read_many(np.arange(N_CLASSES)[:, None, None],
                             np.arange(n_features)[None, :, None],
                             levels.T[None])
    words = np.asarray(words, dtype=np.int64).reshape(N_CLASSES, n_features, n_beats)
    return _decide(words.sum(axis=1).T, model)


def _decide(scores: np.ndarray, model: BayesModel) -> ScoreBatch:
    """The decision rule over an (n_beats, N_CLASSES) score matrix: argmin, N tie and invalid flag."""
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
            {"clip_lo": q.clip_lo, "clip_hi": q.clip_hi, "levels": N_LEVELS}
            for q in model.quantizers
        ],
        "codes": [int(v) for v in model.codes.reshape(-1)],
        "class_names": list(CLASS_NAMES),
    }
    save_json(path, doc)


def load_bayes_model(path: str) -> BayesModel:
    with reading(path, "bayes model"):
        doc = typed(load_json(path), dict, "document")
        codec_doc = typed(doc["codec"], dict, "codec")
        codec = LogCodec(base=typed(codec_doc["base"], NUMBER, "codec.base"),
                         scale=typed(codec_doc["scale"], int, "codec.scale"),
                         width=typed(codec_doc["width"], int, "codec.width"))
        if typed_list(doc["class_names"], str, "class_names") != list(CLASS_NAMES):
            raise ValueError(f"class_names {doc['class_names']} differ from {list(CLASS_NAMES)}")
        bins = tuple(typed_list(doc["feature_bins"], int, "feature_bins", N_FEATURES))
        check_bins(bins, "feature_bins")
        quantizer_docs = typed_list(doc["quantizers"], dict, "quantizers", N_FEATURES)
        if any(typed(q["levels"], int, f"quantizers[{i}].levels") != N_LEVELS
               for i, q in enumerate(quantizer_docs)):
            raise ValueError(f"quantizers: every quantizer needs {N_LEVELS} levels")
        quantizers = tuple(
            QuantizerSpec(clip_lo=typed(q["clip_lo"], NUMBER, f"quantizers[{i}].clip_lo"),
                          clip_hi=typed(q["clip_hi"], NUMBER, f"quantizers[{i}].clip_hi"))
            for i, q in enumerate(quantizer_docs)
        )
        codes = np.array(typed_list(doc["codes"], int, "codes"), dtype=np.int64)
        if ((codes < 0) | (codes > codec.code_max)).any():
            raise ValueError(f"codes: a code lies outside 0..{codec.code_max}")
        return BayesModel(bins, quantizers, codes.reshape(N_CLASSES, N_FEATURES, N_LEVELS), codec)
