"""Wake-up policy and the always-on/back-end stream loop.

The front end finalizes a beat locally only when it is confidently normal:
predicted class N, no tie with an abnormal class, and a valid (non
underflowed) minimum score. Anything else wakes the back end, and the back
end's label is final for that beat.

run_features is the stream core: it takes a feature matrix in blocks and
returns a StreamResult of per-beat columns (true, front and system labels,
wake reason code, back-end error). run_stream feeds beat records through
the same block step after an FFT per block.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field, fields

import numpy as np

from .bayesfront import BayesModel, ClassScores, ScoreBatch, bayes_infer, bayes_infer_many
from .datapipe.beats import BeatRecord, N_CLASSES
from .datapipe.features import FFT_CHUNK, feature_chunks
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

    @classmethod
    def from_outcomes(cls, outcomes) -> StreamResult:
        """The columns of a list of per-beat outcomes."""
        outcomes = list(outcomes)
        return cls(
            true=np.array([o.true_label for o in outcomes], dtype=np.int64),
            front=np.array([o.front_pred for o in outcomes], dtype=np.int64),
            reason=np.array([_REASONS.index(o.reason) for o in outcomes], dtype=np.int64),
            system=np.array([o.system_pred for o in outcomes], dtype=np.int64),
            backend_error=np.array([o.backend_error for o in outcomes], dtype=bool),
        )

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beat", "true", "front_pred", "wake", "reason", "system_pred"])
            writer.writerows(zip(
                range(self.n), self.true.tolist(), self.front.tolist(),
                (self.reason != 0).astype(np.int64).tolist(),
                [_TRACE_REASONS[k] for k in self.reason.tolist()],
                self.system.tolist()))


def wake_codes(batch: ScoreBatch, policy: WakePolicy = WakePolicy()) -> np.ndarray:
    """decide_wake over a batch of inference outcomes: each beat's reason code (0 = sleep)."""
    return np.select(
        [batch.invalid & policy.wake_on_invalid,
         (batch.predicted != 0) & policy.wake_on_abnormal,
         batch.tie_with_normal & policy.wake_on_ambiguous],
        [1, 2, 3], 0)


def wake_reasons(batch: ScoreBatch, policy: WakePolicy = WakePolicy()) -> list[WakeReason | None]:
    """wake_codes as WakeReason values: each beat's wake reason or None."""
    return [_REASONS[k] for k in wake_codes(batch, policy).tolist()]


def _front_end(mags, model: BayesModel, reader, policy: WakePolicy):
    """(front-end labels, wake reason codes) of a block of beats.

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
    """(labels, failed) of the woken rows of a block.

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


def _run_block(true, mags, model: BayesModel, reader, predict_features, predict_one,
               policy: WakePolicy) -> tuple[np.ndarray, ...]:
    """StreamResult columns of one block: sleeps end as N, woken beats take the back end's label."""
    front, reason = _front_end(mags, model, reader, policy)
    woken = np.flatnonzero(reason)
    labels, failed = _back_end(predict_features, predict_one, mags, woken)
    system = np.zeros(len(front), dtype=np.int64)
    system[woken] = np.where(failed, front[woken], labels)
    error = np.zeros(len(front), dtype=bool)
    error[woken] = failed
    return np.asarray(true, dtype=np.int64), front, reason, system, error


def _collect(blocks) -> StreamResult:
    columns = list(zip(*blocks))
    return StreamResult(*map(np.concatenate, columns)) if columns else StreamResult()


def run_features(mags, labels, model: BayesModel, reader, backend,
                 policy: WakePolicy = WakePolicy()) -> StreamResult:
    """Run the full system over a feature matrix and its true labels.

    Rows are processed in blocks of FFT_CHUNK. Per block: quantize the
    selected bins, infer through the word reader (one read_many call, or
    word by word for a plain callable) and apply the wake rule. A sleeping
    beat is finalized as N; a woken beat takes the back end's label from
    one backend.predict_features call over the block's woken rows. If that
    call raises, each woken row is retried on its own, and a row that still
    fails is recorded as a back-end error and keeps its front-end label.
    """
    mags = np.asarray(mags, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if mags.ndim != 2 or labels.shape != (len(mags),):
        raise ValueError(f"need (n, bins) magnitudes and n labels, got {mags.shape} and {labels.shape}")
    predict_features = backend.predict_features
    blocks = []
    for start in range(0, len(mags), FFT_CHUNK):
        block = mags[start:start + FFT_CHUNK]
        blocks.append(_run_block(labels[start:start + FFT_CHUNK], block, model, reader,
                                 predict_features, lambda i: predict_features(block[i:i + 1])[0],
                                 policy))
    return _collect(blocks)


def run_stream(beats, model: BayesModel, reader, backend,
               policy: WakePolicy = WakePolicy()) -> StreamResult:
    """run_features over beat records, with per-beat fallbacks.

    Each block of FFT_CHUNK beats gets its features from one FFT call and
    goes through the same block step as run_features. Two per-beat paths
    remain for callers that cannot take a block: a reader without read_many
    is called word by word through bayes_infer, and a back end without
    predict_features, or whose predict_features raises, labels each woken
    beat through backend.predict(beat, mags). The outcomes are the same as
    beat by beat.
    """
    predict_features = getattr(backend, "predict_features", None)
    return _collect(
        _run_block([b.label for b in chunk], mags, model, reader, predict_features,
                   lambda i: backend.predict(chunk[i], mags[i]), policy)
        for chunk, mags in feature_chunks(beats))


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


class OracleBackend:
    """Test helper: a back end that always answers the true label."""

    def predict(self, beat: BeatRecord, mags: np.ndarray) -> int:
        return beat.label
