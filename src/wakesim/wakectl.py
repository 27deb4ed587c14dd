"""Wake-up policy and the always-on/back-end stream loop.

The front end finalizes a beat locally only when it is confidently normal:
predicted class N, no tie with an abnormal class, and a valid (non
underflowed) minimum score. Anything else wakes the back end, and the back
end's label is final for that beat.

run_features is the stream core: it runs a whole feature matrix as one
batch (one read_many call for the front end, one predict_features call
over the stream's matrix and the woken row indices) and returns a
StreamResult of per-beat columns (true, front and system labels, wake
reason code, back-end error). The batch size cannot change a result: read
noise is counter-based per address and the back end is row-independent.
run_stream is run_features over beat records, and the one owner of reuse
for a split streamed again (one split through several regimes): a
single-entry memo holds the last records, their read-only matrix and true
labels, and one back end's label per row. The same record objects in the
same order skip feature_matrix; with the same back end too, only woken rows
not yet labelled go to predict_features. Other records replace the memo.
The protocol: a predict_features label depends only on its row and its
back end.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, fields

import numpy as np

# perfbench's tracer patches wakectl.bayes_infer; the per-beat import can go with ROADMAP item 1.
from .bayesfront import BayesModel, ClassScores, ScoreBatch, bayes_infer, bayes_infer_many
from .datapipe.beats import N_CLASSES
# Called through its module, so a patch of features.feature_matrix (perfbench's tracer) sees streams.
from .datapipe import features
from .metrics import ConfusionMatrix, count_pairs


# Wake reason names, indexed by reason code in wake_codes's priority order;
# code 0 is a sleep.
REASONS = ("sleep", "invalid", "abnormal", "ambiguous")


@dataclass(frozen=True)
class WakePolicy:
    """Which front-end outcomes wake the back end. All on by default."""

    wake_on_abnormal: bool = True
    wake_on_ambiguous: bool = True
    wake_on_invalid: bool = True


def wake_codes(outcome: ScoreBatch | ClassScores, policy: WakePolicy = WakePolicy()) -> np.ndarray:
    """The wake reason code (an index into REASONS) of each beat of a ScoreBatch, or of one ClassScores.

    Wake when the prediction is abnormal, when N ties with an abnormal
    class, or when the result is invalid. Reasons are prioritized
    Invalid > Abnormal > Ambiguous when several apply; 0 is a sleep.
    """
    return np.where(outcome.invalid & policy.wake_on_invalid, 1,
                    np.where((outcome.predicted != 0) & policy.wake_on_abnormal, 2,
                             np.where(outcome.tie_with_normal & policy.wake_on_ambiguous, 3, 0)))


def decide_wake(scores: ClassScores, policy: WakePolicy = WakePolicy()) -> int:
    """wake_codes of one inference outcome."""
    return int(wake_codes(scores, policy))


@dataclass(frozen=True)
class BeatOutcome:
    true_label: int
    front_pred: int
    wake: bool
    reason: str  # a name from REASONS
    system_pred: int
    backend_error: bool = False


_TRACE_REASONS = ("none",) + REASONS[1:]
# Each trace line after its beat number, indexed by
# ((true * N_CLASSES + front) * len(REASONS) + reason) * N_CLASSES + system;
# the line ends are csv.writer's.
_TRACE_ROWS = tuple(
    f"{t},{f},{int(k != 0)},{_TRACE_REASONS[k]},{s}\r\n"
    for t, f, k, s in itertools.product(range(N_CLASSES), range(N_CLASSES),
                                        range(len(REASONS)), range(N_CLASSES)))
# "0,", "1,", ...: the beat-number field of each trace line, grown on demand.
_TRACE_PREFIXES: list[str] = []


def _trace_prefixes(n: int) -> list[str]:
    """_TRACE_PREFIXES, holding at least its first n entries."""
    _TRACE_PREFIXES.extend(f"{i}," for i in range(len(_TRACE_PREFIXES), n))
    return _TRACE_PREFIXES


def _empty_column(dtype=np.int64):
    return field(default_factory=lambda: np.empty(0, dtype=dtype))


@dataclass(eq=False)
class StreamResult:
    """Per-beat columns of a stream, in stream order.

    `true`, `front` and `system` are class ids, `reason` is the wake reason
    code (0 sleep, 1 invalid, 2 abnormal, 3 ambiguous: the index into
    REASONS) and `backend_error` marks woken beats the back end failed on.
    """

    true: np.ndarray = _empty_column()
    front: np.ndarray = _empty_column()
    reason: np.ndarray = _empty_column()
    system: np.ndarray = _empty_column()
    backend_error: np.ndarray = _empty_column(bool)

    @property
    def outcomes(self) -> list[BeatOutcome]:
        """One BeatOutcome per beat, built from the columns."""
        return [BeatOutcome(t, f, k != 0, REASONS[k], s, e) for t, f, k, s, e in zip(
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
        grid = count_pairs(self.true, self.reason, N_CLASSES, len(REASONS)).tolist()
        return {c: dict(zip(REASONS, row)) for c, row in enumerate(grid)}

    def front_confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(self.true, self.front)

    def system_confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix.from_pairs(self.true, self.system)

    def write_trace(self, path: str) -> None:
        """Write trace.csv: one line per beat, joined from _TRACE_PREFIXES and _TRACE_ROWS.

        Raises ValueError for a column value outside its range, which would
        otherwise index the wrong line.
        """
        for name, n in (("true", N_CLASSES), ("front", N_CLASSES),
                        ("reason", len(REASONS)), ("system", N_CLASSES)):
            column = getattr(self, name)
            if len(column) != self.n:
                raise ValueError(f"trace column {name} holds {len(column)} rows, true holds {self.n}")
            if self.n and not 0 <= column.min() <= column.max() < n:
                raise ValueError(f"trace column {name} holds a value outside 0..{n - 1}")
        keys = ((self.true * N_CLASSES + self.front) * len(REASONS) + self.reason) * N_CLASSES \
            + self.system
        # Beat numbers at the even slots and line bodies at the odd ones: one
        # join, with no string built per line.
        parts = [""] * (2 * self.n)
        parts[::2] = _trace_prefixes(self.n)[:self.n]
        parts[1::2] = [_TRACE_ROWS[k] for k in keys.tolist()]
        with open(path, "w", newline="") as fh:
            fh.write("beat,true,front_pred,wake,reason,system_pred\r\n")
            fh.write("".join(parts))


def _front_end(mags, model: BayesModel, reader, policy: WakePolicy):
    """(front-end labels, wake reason codes) of a matrix of beats.

    Readers with read_many take one batched pass; any other word-reader
    callable goes beat by beat through bayes_infer and decide_wake.
    """
    levels = model.quantize_matrix(mags)
    if hasattr(reader, "read_many"):
        batch = bayes_infer_many(levels, model, reader)
        return batch.predicted, wake_codes(batch, policy)
    scores = [bayes_infer(row, model, reader) for row in levels.tolist()]
    return (np.array([s.predicted for s in scores], dtype=np.int64),
            np.array([decide_wake(s, policy) for s in scores], dtype=np.int64))


def _back_end(predict_features, predict_one, mags, woken: np.ndarray):
    """(labels, failed) of the woken rows of a stream.

    predict_features(mags, woken) labels all woken rows in one call. If it
    is None, or that call raises, predict_one(i) labels each row on its own,
    so one failure costs one beat.
    """
    if predict_features is not None and len(woken):
        try:
            labels = np.asarray(predict_features(mags, woken), dtype=np.int64)
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
    backend.predict_features(mags, rows) call, which gets the matrix itself
    and the indices of the woken rows. If that call raises, each woken row
    is retried on its own, and a row that still fails is recorded as a
    back-end error and keeps its front-end label.
    """
    mags = np.asarray(mags, dtype=np.float64)
    labels = np.array(labels, dtype=np.int64)  # a copy: the result's true column
    if mags.ndim != 2 or labels.shape != (len(mags),):
        raise ValueError(f"need (n, bins) magnitudes and n labels, got {mags.shape} and {labels.shape}")
    predict_features = backend.predict_features
    return _run(mags, labels, model, reader, predict_features,
                lambda i: predict_features(mags, np.array([i]))[0], policy)


# run_stream's memo: (records, matrix, true labels, back end, its label of
# each row or -1 where not yet asked).
_memo: tuple = ((), None, None, None, None)


def _once(predict_features, known: np.ndarray):
    """predict_features over rows, asking only for those whose `known` label is -1, each once."""
    def predict(mags, rows):
        rows = np.asarray(rows, dtype=np.intp)
        new = np.unique(rows[known[rows] < 0])
        if len(new):
            labels = np.asarray(predict_features(mags, new), dtype=np.int64)
            if labels.shape != new.shape:
                raise ValueError(f"back end gave {labels.shape} labels for {len(new)} rows")
            known[new] = labels
        return known[rows]
    return predict


def run_stream(beats, model: BayesModel, reader, backend,
               policy: WakePolicy = WakePolicy()) -> StreamResult:
    """run_features over beat records, with a per-beat back-end fallback.

    `beats` may be any iterable of beat records; their matrix comes from
    features.feature_matrix, or from the memo (see the module docstring)
    when they are the records of the last stream. A back end without
    predict_features, or whose predict_features raises, labels each woken
    beat through backend.predict(beat, mags), and none of its labels are
    kept. The outcomes are the same as beat by beat.
    """
    global _memo
    beats = list(beats)
    records, mags, labels, kept_backend, known = _memo
    if not (beats and len(beats) == len(records) and all(map(operator.is_, beats, records))):
        mags, labels = features.feature_matrix(beats)
        kept_backend = known = None
    predict_features = getattr(backend, "predict_features", None)
    if predict_features is not None:
        if backend is not kept_backend:
            kept_backend, known = backend, np.full(len(beats), -1, dtype=np.int64)
        predict_features = _once(predict_features, known)
    _memo = beats, mags, labels, kept_backend, known
    return _run(mags, labels.copy(), model, reader, predict_features,
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
