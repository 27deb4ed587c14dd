"""Wake-up policy and the always-on/back-end stream loop.

The front end finalizes a beat locally only when it is confidently normal:
predicted class N, no tie with an abnormal class, and a valid (non
underflowed) minimum score. Anything else wakes the back end, and the back
end's label is final for that beat.

run_features is the stream core: it runs a whole feature matrix as one
batch (one read_many call for the front end, one predict_features call for
the woken rows) and returns a StreamResult of per-beat columns (true, front
and system labels, wake reason code, back-end error). The batch size cannot
change a result: read noise is counter-based per address and the back end
is row-independent. run_stream is run_features over beat records:
datapipe.features' feature_matrix gives their matrix, running the FFT only
over records that hold no cached feature row and caching the new rows, so
streaming the same record objects again in one process (one split through
several regimes) makes no FFT call.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, fields

import numpy as np

# perfbench's tracer patches wakectl.bayes_infer; the per-beat import can go with ROADMAP item 1.
from .bayesfront import BayesModel, ClassScores, ScoreBatch, bayes_infer, bayes_infer_many
from .datapipe.beats import N_CLASSES
from .datapipe.features import feature_matrix
from .metrics import ConfusionMatrix, count_pairs


class WakeReason(enum.Enum):
    ABNORMAL = "abnormal"
    AMBIGUOUS = "ambiguous"
    INVALID = "invalid"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class WakePolicy:
    """Which front-end outcomes wake the back end. All on by default."""

    wake_on_abnormal: bool = True
    wake_on_ambiguous: bool = True
    wake_on_invalid: bool = True


@dataclass(frozen=True)
class WakeDecision:
    wake: bool
    reason: WakeReason | None
    front_pred: int


def decide_wake(scores: ClassScores, policy: WakePolicy = WakePolicy()) -> WakeDecision:
    """Apply the wake rule to one inference outcome.

    Wake when the prediction is abnormal, when N ties with an abnormal
    class, or when the result is invalid. Reasons are prioritized
    Invalid > Abnormal > Ambiguous when several apply.
    """
    if scores.invalid and policy.wake_on_invalid:
        reason = WakeReason.INVALID
    elif scores.predicted != 0 and policy.wake_on_abnormal:
        reason = WakeReason.ABNORMAL
    elif scores.tie_with_normal and policy.wake_on_ambiguous:
        reason = WakeReason.AMBIGUOUS
    else:
        reason = None
    return WakeDecision(wake=reason is not None, reason=reason, front_pred=scores.predicted)


@dataclass(frozen=True)
class BeatOutcome:
    true_label: int
    front_pred: int
    wake: bool
    reason: WakeReason | None
    system_pred: int
    backend_error: bool = False


# decide_wake's reasons by priority, indexed by reason code; code 0 is a sleep.
_REASONS = (None, WakeReason.INVALID, WakeReason.ABNORMAL, WakeReason.AMBIGUOUS)
_TRACE_REASONS = tuple(str(r) if r else "none" for r in _REASONS)
# Each trace line after its beat number, indexed by
# ((true * N_CLASSES + front) * len(_REASONS) + reason) * N_CLASSES + system;
# the line ends are csv.writer's.
_TRACE_ROWS = tuple(
    f"{t},{f},{int(k != 0)},{_TRACE_REASONS[k]},{s}\r\n"
    for t, f, k, s in itertools.product(range(N_CLASSES), range(N_CLASSES),
                                        range(len(_REASONS)), range(N_CLASSES)))
# reason_counts keys and the reason code each one counts.
_COUNT_KEYS = {"sleep": 0, **{str(r): _REASONS.index(r) for r in WakeReason}}


def _empty_column(dtype=np.int64):
    return field(default_factory=lambda: np.empty(0, dtype=dtype))


@dataclass(eq=False)
class StreamResult:
    """Per-beat columns of a stream, in stream order.

    `true`, `front` and `system` are class ids, `reason` is the wake reason
    code (0 sleep, 1 invalid, 2 abnormal, 3 ambiguous: the index into
    _REASONS) and `backend_error` marks woken beats the back end failed on.
    """

    true: np.ndarray = _empty_column()
    front: np.ndarray = _empty_column()
    reason: np.ndarray = _empty_column()
    system: np.ndarray = _empty_column()
    backend_error: np.ndarray = _empty_column(bool)

    @property
    def outcomes(self) -> list[BeatOutcome]:
        """One BeatOutcome per beat, built from the columns."""
        return [BeatOutcome(t, f, k != 0, _REASONS[k], s, e) for t, f, k, s, e in zip(
            self.true.tolist(), self.front.tolist(), self.reason.tolist(),
            self.system.tolist(), self.backend_error.tolist())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StreamResult):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def n(self) -> int:
        return len(self.true)

    @property
    def backend_errors(self) -> int:
        return int(self.backend_error.sum())

    def reason_counts(self) -> dict[int, dict[str, int]]:
        """Per true class: sleeps and wakes broken down by reason.

        The four counters of every class sum to that class's beat count.
        """
        grid = count_pairs(self.true, self.reason, N_CLASSES, len(_REASONS)).tolist()
        return {c: {key: grid[c][code] for key, code in _COUNT_KEYS.items()}
                for c in range(N_CLASSES)}

    def front_confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(self.true, self.front)

    def system_confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(self.true, self.system)

    def write_trace(self, path: str) -> None:
        """Write trace.csv: one line per beat, formatted through _TRACE_ROWS.

        Raises ValueError for a column value outside its range, which would
        otherwise index the wrong line.
        """
        for name, n in (("true", N_CLASSES), ("front", N_CLASSES),
                        ("reason", len(_REASONS)), ("system", N_CLASSES)):
            column = getattr(self, name)
            if len(column) != self.n:
                raise ValueError(f"trace column {name} holds {len(column)} rows, true holds {self.n}")
            if self.n and not 0 <= column.min() <= column.max() < n:
                raise ValueError(f"trace column {name} holds a value outside 0..{n - 1}")
        keys = ((self.true * N_CLASSES + self.front) * len(_REASONS) + self.reason) * N_CLASSES \
            + self.system
        with open(path, "w", newline="") as fh:
            fh.write("beat,true,front_pred,wake,reason,system_pred\r\n")
            fh.write("".join(f"{i},{_TRACE_ROWS[k]}" for i, k in enumerate(keys.tolist())))


def wake_codes(batch: ScoreBatch, policy: WakePolicy = WakePolicy()) -> np.ndarray:
    """decide_wake over a batch of inference outcomes: each beat's reason code (0 = sleep)."""
    return np.select(
        [batch.invalid & policy.wake_on_invalid,
         (batch.predicted != 0) & policy.wake_on_abnormal,
         batch.tie_with_normal & policy.wake_on_ambiguous],
        [1, 2, 3], 0)


def _front_end(mags, model: BayesModel, reader, policy: WakePolicy):
    """(front-end labels, wake reason codes) of a matrix of beats.

    Readers with read_many take one batched pass; any other word-reader
    callable goes beat by beat through bayes_infer and decide_wake.
    """
    if hasattr(reader, "read_many"):
        batch = bayes_infer_many(model.quantize_matrix(mags), model, reader)
        return batch.predicted, wake_codes(batch, policy)
    decisions = [decide_wake(bayes_infer(model.quantize_features(row), model, reader), policy)
                 for row in mags]
    return (np.array([d.front_pred for d in decisions], dtype=np.int64),
            np.array([_REASONS.index(d.reason) for d in decisions], dtype=np.int64))


def _back_end(predict_features, predict_one, mags, woken: np.ndarray):
    """(labels, failed) of the woken rows of a stream.

    predict_features labels all woken rows in one call. If it is None, or
    that call raises, predict_one(i) labels each row on its own, so one
    failure costs one beat.
    """
    if predict_features is not None and len(woken):
        try:
            labels = np.asarray(predict_features(mags[woken]), dtype=np.int64)
            if labels.shape == woken.shape:
                return labels, np.zeros(len(woken), dtype=bool)
        except Exception:
            pass
    labels = np.zeros(len(woken), dtype=np.int64)
    failed = np.zeros(len(woken), dtype=bool)
    for k, i in enumerate(woken.tolist()):
        try:
            labels[k] = int(predict_one(i))
        except Exception:
            failed[k] = True
    return labels, failed


def _run(mags, true, model: BayesModel, reader, predict_features, predict_one,
         policy: WakePolicy) -> StreamResult:
    """StreamResult of a feature matrix, run as one batch.

    Sleeps end as N and woken beats take the back end's label;
    predict_one(i) labels matrix row i on its own.
    """
    front, reason = _front_end(mags, model, reader, policy)
    woken = np.flatnonzero(reason)
    labels, failed = _back_end(predict_features, predict_one, mags, woken)
    system = np.zeros(len(front), dtype=np.int64)
    system[woken] = np.where(failed, front[woken], labels)
    error = np.zeros(len(front), dtype=bool)
    error[woken] = failed
    return StreamResult(true, front, reason, system, error)


def run_features(mags, labels, model: BayesModel, reader, backend,
                 policy: WakePolicy = WakePolicy()) -> StreamResult:
    """Run the full system over a feature matrix and its true labels.

    The whole matrix is one batch: quantize the selected bins, infer
    through the word reader (one read_many call, or word by word for a
    plain callable) and apply the wake rule. A sleeping beat is finalized
    as N; a woken beat takes the back end's label from one
    backend.predict_features call over all woken rows. If that call raises,
    each woken row is retried on its own, and a row that still fails is
    recorded as a back-end error and keeps its front-end label.
    """
    mags = np.asarray(mags, dtype=np.float64)
    labels = np.array(labels, dtype=np.int64)  # a copy: the result's true column
    if mags.ndim != 2 or labels.shape != (len(mags),):
        raise ValueError(f"need (n, bins) magnitudes and n labels, got {mags.shape} and {labels.shape}")
    predict_features = backend.predict_features
    return _run(mags, labels, model, reader, predict_features,
                lambda i: predict_features(mags[i:i + 1])[0], policy)


def run_stream(beats, model: BayesModel, reader, backend,
               policy: WakePolicy = WakePolicy()) -> StreamResult:
    """run_features over beat records, with a per-beat back-end fallback.

    `beats` may be any iterable of beat records; their features come from
    feature_matrix, which transforms only the records that hold no cached
    row. The one difference from run_features: a back end without
    predict_features, or whose predict_features raises, labels each woken
    beat through backend.predict(beat, mags). The outcomes are the same as
    beat by beat.
    """
    beats = list(beats)
    mags, labels = feature_matrix(beats)
    return _run(mags, labels, model, reader, getattr(backend, "predict_features", None),
                lambda i: backend.predict(beats[i], mags[i]), policy)


@dataclass(frozen=True)
class WakeStats:
    """Conditional wake rates and reason mix; None where a class is absent."""

    p_wake_abnormal: float | None
    p_wake_normal: float | None
    reason_fractions: dict[int, dict[str, float] | None]
    counts: dict[int, dict[str, int]]


def wake_stats(result: StreamResult) -> WakeStats:
    return stats_from_counts(result.reason_counts())


def stats_from_counts(counts: dict[int, dict[str, int]]) -> WakeStats:
    """WakeStats of reason counts per true class, as StreamResult.reason_counts gives them."""
    beats = [sum(counts[c].values()) for c in range(N_CLASSES)]
    # A class's wakes are its beats that did not sleep.
    wakes = [beats[c] - counts[c]["sleep"] for c in range(N_CLASSES)]
    n_abnormal = sum(beats[1:])
    fractions = {c: {k: v / beats[c] for k, v in counts[c].items()} if beats[c] else None
                 for c in range(N_CLASSES)}
    return WakeStats(
        p_wake_abnormal=sum(wakes[1:]) / n_abnormal if n_abnormal else None,
        p_wake_normal=wakes[0] / beats[0] if beats[0] else None,
        reason_fractions=fractions,
        counts=counts,
    )
