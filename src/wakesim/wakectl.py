"""Wake-up policy and the always-on/back-end stream loop.

The front end finalizes a beat locally only when it is confidently normal:
predicted class N, no tie with an abnormal class, and a valid (non
underflowed) minimum score. Anything else wakes the back end, and the back
end's label is final for that beat.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field

import numpy as np

from .bayesfront import BayesModel, ClassScores, ScoreBatch, bayes_infer, bayes_infer_many
from .datapipe.beats import BeatRecord, N_CLASSES
from .datapipe.features import feature_chunks
from .metrics import ConfusionMatrix


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


@dataclass
class StreamResult:
    outcomes: list[BeatOutcome] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def backend_errors(self) -> int:
        return sum(1 for o in self.outcomes if o.backend_error)

    def reason_counts(self) -> dict[int, dict[str, int]]:
        """Per true class: sleeps and wakes broken down by reason.

        The four counters of every class sum to that class's beat count.
        """
        counts = {c: {"sleep": 0, "abnormal": 0, "ambiguous": 0, "invalid": 0}
                  for c in range(N_CLASSES)}
        for o in self.outcomes:
            key = str(o.reason) if o.reason is not None else "sleep"
            counts[o.true_label][key] += 1
        return counts

    def front_confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(
            [o.true_label for o in self.outcomes],
            [o.front_pred for o in self.outcomes],
        )

    def system_confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(
            [o.true_label for o in self.outcomes],
            [o.system_pred for o in self.outcomes],
        )

    def write_trace(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beat", "true", "front_pred", "wake", "reason", "system_pred"])
            for i, o in enumerate(self.outcomes):
                writer.writerow([
                    i, o.true_label, o.front_pred, int(o.wake),
                    str(o.reason) if o.reason is not None else "none",
                    o.system_pred,
                ])


# decide_wake's reasons by priority; index 0 is a sleep.
_REASONS = (None, WakeReason.INVALID, WakeReason.ABNORMAL, WakeReason.AMBIGUOUS)


def wake_reasons(batch: ScoreBatch, policy: WakePolicy = WakePolicy()) -> list[WakeReason | None]:
    """decide_wake over a batch of inference outcomes: each beat's wake reason or None."""
    codes = np.select(
        [batch.invalid & policy.wake_on_invalid,
         (batch.predicted != 0) & policy.wake_on_abnormal,
         batch.tie_with_normal & policy.wake_on_ambiguous],
        [1, 2, 3], 0)
    return [_REASONS[k] for k in codes.tolist()]


def _front_end(mags, model: BayesModel, reader, policy: WakePolicy):
    """(front-end labels, wake reasons) of a block of beats.

    Readers with read_many take one batched pass; any other word-reader
    callable goes beat by beat through bayes_infer and decide_wake.
    """
    if hasattr(reader, "read_many"):
        batch = bayes_infer_many(model.quantize_matrix(mags), model, reader)
        return batch.predicted.tolist(), wake_reasons(batch, policy)
    decisions = [decide_wake(bayes_infer(model.quantize_features(row), model, reader), policy)
                 for row in mags]
    return [d.front_pred for d in decisions], [d.reason for d in decisions]


def _back_end(backend, beats, mags, woken: list[int]) -> dict[int, int | None]:
    """Back-end label of every woken beat; None where the back end failed on it.

    A back end with predict_features labels all woken rows in one call. If
    it has none, or that call raises, each beat goes through
    backend.predict(beat, mags) on its own, so one failure costs one beat.
    """
    predict_features = getattr(backend, "predict_features", None)
    if predict_features is not None and woken:
        try:
            return dict(zip(woken, np.asarray(predict_features(mags[woken])).tolist()))
        except Exception:
            pass
    labels: dict[int, int | None] = {}
    for i in woken:
        try:
            labels[i] = int(backend.predict(beats[i], mags[i]))
        except Exception:
            labels[i] = None
    return labels


def run_stream(beats, model: BayesModel, reader, backend,
               policy: WakePolicy = WakePolicy()) -> StreamResult:
    """Run the full system over a beat stream.

    Per beat: extract features, quantize the selected bins, infer through
    the given word reader, and apply the wake rule. On wake the backend's
    prediction (backend.predict(beat, mags) -> class id) is final; on sleep
    the beat is finalized as N. A backend exception on a waked beat is
    recorded as a system error for that beat and the run continues with the
    front-end label.

    The stream is processed in blocks of FFT_CHUNK beats. A reader with
    read_many and a back end with predict_features each serve a whole
    block per call; the outcomes are the same as beat by beat.
    """
    result = StreamResult()
    for chunk, mags in feature_chunks(beats):
        front, reasons = _front_end(mags, model, reader, policy)
        woken = [i for i, r in enumerate(reasons) if r is not None]
        labels = _back_end(backend, chunk, mags, woken)
        for i, beat in enumerate(chunk):
            label = labels.get(i, 0)
            result.outcomes.append(BeatOutcome(
                true_label=beat.label,
                front_pred=front[i],
                wake=reasons[i] is not None,
                reason=reasons[i],
                system_pred=front[i] if label is None else label,
                backend_error=label is None,
            ))
    return result


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
    n_abnormal = sum(sum(counts[c].values()) for c in range(1, N_CLASSES))
    n_normal = sum(counts[0].values())
    wakes_abnormal = sum(
        counts[c][k] for c in range(1, N_CLASSES) for k in ("abnormal", "ambiguous", "invalid")
    )
    wakes_normal = sum(counts[0][k] for k in ("abnormal", "ambiguous", "invalid"))
    fractions: dict[int, dict[str, float] | None] = {}
    for c in range(N_CLASSES):
        total = sum(counts[c].values())
        if total == 0:
            fractions[c] = None
        else:
            fractions[c] = {k: v / total for k, v in counts[c].items()}
    return WakeStats(
        p_wake_abnormal=wakes_abnormal / n_abnormal if n_abnormal else None,
        p_wake_normal=wakes_normal / n_normal if n_normal else None,
        reason_fractions=fractions,
        counts=counts,
    )


class OracleBackend:
    """Test helper: a back end that always answers the true label."""

    def predict(self, beat: BeatRecord, mags: np.ndarray) -> int:
        return beat.label
