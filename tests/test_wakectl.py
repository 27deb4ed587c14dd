"""Wake policy, the stream loop, and wake-rate aggregation."""

import csv

import numpy as np
import pytest

from wakesim.bayesfront import ClassScores
from wakesim.metrics import macro_f1_abnormal
from wakesim.wakectl import (
    BeatOutcome,
    OracleBackend,
    StreamResult,
    WakePolicy,
    WakeReason,
    decide_wake,
    run_stream,
    wake_stats,
)

# ---------------------------------------------------------------------------
# decision rule
# ---------------------------------------------------------------------------


def _scores(raw=(10, 20, 30, 40), predicted=0, tie=False, invalid=False):
    return ClassScores(scores=tuple(raw), predicted=predicted,
                       tie_with_normal=tie, invalid=invalid)


def test_confident_normal_sleeps():
    d = decide_wake(_scores())
    assert d.wake is False
    assert d.reason is None
    assert d.front_pred == 0


def test_abnormal_prediction_wakes():
    d = decide_wake(_scores(predicted=2))
    assert d.wake is True
    assert d.reason is WakeReason.ABNORMAL


def test_normal_tie_wakes_as_ambiguous():
    d = decide_wake(_scores(raw=(10, 10, 30, 40), predicted=0, tie=True))
    assert d.wake is True
    assert d.reason is WakeReason.AMBIGUOUS


def test_invalid_wakes_and_outranks_other_reasons():
    d = decide_wake(_scores(predicted=2, tie=True, invalid=True))
    assert d.reason is WakeReason.INVALID
    # without the invalid flag the same scores report the abnormal reason
    d = decide_wake(_scores(predicted=2, tie=True))
    assert d.reason is WakeReason.ABNORMAL


def test_policy_flags_gate_each_reason():
    no_invalid = WakePolicy(wake_on_invalid=False)
    d = decide_wake(_scores(predicted=2, invalid=True), no_invalid)
    assert d.reason is WakeReason.ABNORMAL  # falls through to the next rule

    no_abnormal = WakePolicy(wake_on_abnormal=False)
    d = decide_wake(_scores(predicted=2, tie=False), no_abnormal)
    assert d.wake is False

    no_ambiguous = WakePolicy(wake_on_ambiguous=False)
    d = decide_wake(_scores(predicted=0, tie=True), no_ambiguous)
    assert d.wake is False

    all_off = WakePolicy(False, False, False)
    d = decide_wake(_scores(predicted=3, tie=True, invalid=True), all_off)
    assert d.wake is False and d.reason is None


def test_sleep_requires_strict_unique_normal_minimum():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        raw = rng.integers(0, 200, size=4)
        smin = int(raw.min())
        predicted = int(raw.argmin())
        tie = raw[0] == smin and bool(np.any(raw[1:] == smin))
        invalid = smin >= 94
        d = decide_wake(_scores(tuple(int(v) for v in raw), predicted, tie, invalid))
        sleeps = not d.wake
        assert sleeps == (raw[0] < raw[1:].min() and raw[0] < 94)


# ---------------------------------------------------------------------------
# stream loop
# ---------------------------------------------------------------------------


class _FailingBackend:
    def predict(self, beat, mags):
        raise RuntimeError("backend crashed")


def test_ideal_stream_is_perfect_and_wakes_only_on_abnormal(
        bench_dataset, bench_model, bench_reader, bench_backend):
    result = run_stream(bench_dataset.test, bench_model, bench_reader, bench_backend)
    assert result.n == len(bench_dataset.test)
    assert result.system_confusion().accuracy() == 1.0
    for o in result.outcomes:
        assert o.wake == (o.true_label != 0)
    stats = wake_stats(result)
    assert stats.p_wake_normal == 0.0
    assert stats.p_wake_abnormal == 1.0
    assert stats.reason_fractions[1]["abnormal"] == 1.0


def test_sleep_always_finalizes_normal(regime_streams):
    # escalation soundness on a degraded stream: an abnormal system label
    # implies a wake, and a sleep implies the system answered normal
    for o in regime_streams["B"].outcomes:
        if not o.wake:
            assert o.system_pred == 0
        if o.system_pred != 0:
            assert o.wake


def test_degraded_stream_recovers_through_the_backend(regime_streams):
    result = regime_streams["B"]
    front = macro_f1_abnormal(result.front_confusion())
    system = macro_f1_abnormal(result.system_confusion())
    assert front < 0.8
    assert system > front


def test_oracle_backend_never_hurts(bench_dataset, bench_model, bench_backend):
    from wakesim import memsim
    op, dists, noise = memsim.regime_preset("B")
    state = memsim.program_arrays(bench_model, dists, op.vddr, seed=5)
    stream = bench_dataset.test[::8]  # class-major order, so stride to mix classes
    real = run_stream(stream, bench_model,
                      memsim.MemristorReader(state, op, noise, seed=7), bench_backend)
    oracle = run_stream(stream, bench_model,
                        memsim.MemristorReader(state, op, noise, seed=7), OracleBackend())
    f_front = macro_f1_abnormal(real.front_confusion())
    f_real = macro_f1_abnormal(real.system_confusion())
    f_oracle = macro_f1_abnormal(oracle.system_confusion())
    assert f_oracle >= f_real >= f_front


def test_backend_exception_falls_back_to_front_label(bench_dataset, bench_model,
                                                     bench_reader):
    stream = bench_dataset.test[::40]  # mixed classes so some beats wake
    result = run_stream(stream, bench_model, bench_reader, _FailingBackend())
    wakes = sum(1 for o in result.outcomes if o.wake)
    assert wakes > 0
    assert result.backend_errors == wakes
    for o in result.outcomes:
        if o.wake:
            assert o.backend_error
            assert o.system_pred == o.front_pred
        else:
            assert not o.backend_error


def test_normal_only_stream_has_undefined_abnormal_rate(bench_dataset, bench_model,
                                                        bench_reader, bench_backend):
    normals = [b for b in bench_dataset.test if b.label == 0][:50]
    result = run_stream(normals, bench_model, bench_reader, bench_backend)
    stats = wake_stats(result)
    assert stats.p_wake_abnormal is None
    assert stats.p_wake_normal == 0.0
    assert stats.reason_fractions[0] is not None
    for c in (1, 2, 3):
        assert stats.reason_fractions[c] is None


def test_reason_counts_partition_each_class(regime_streams):
    result = regime_streams["C"]
    counts = result.reason_counts()
    per_class = [0, 0, 0, 0]
    for o in result.outcomes:
        per_class[o.true_label] += 1
    for c in range(4):
        assert sum(counts[c].values()) == per_class[c]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _outcome(true_label, reason):
    wake = reason is not None
    front = 1 if reason is WakeReason.ABNORMAL else 0
    system = true_label if wake else 0
    return BeatOutcome(true_label=true_label, front_pred=front, wake=wake,
                       reason=reason, system_pred=system)


def test_wake_stats_reproduces_reference_rates_exactly():
    outcomes = []
    outcomes += [_outcome(1, WakeReason.ABNORMAL)] * 983
    outcomes += [_outcome(1, WakeReason.AMBIGUOUS)] * 15
    outcomes += [_outcome(1, None)] * 2
    outcomes += [_outcome(0, None)] * 9812
    outcomes += [_outcome(0, WakeReason.AMBIGUOUS)] * 100
    outcomes += [_outcome(0, WakeReason.INVALID)] * 88
    stats = wake_stats(StreamResult.from_outcomes(outcomes))
    assert stats.p_wake_abnormal == 0.998
    assert stats.p_wake_normal == 0.0188
    assert stats.reason_fractions[1]["abnormal"] == 0.983
    assert stats.reason_fractions[1]["ambiguous"] == 0.015
    assert stats.counts[0]["invalid"] == 88


def test_all_abnormal_waked_gives_unit_rate():
    outcomes = [_outcome(c, WakeReason.ABNORMAL) for c in (1, 2, 3) for _ in range(5)]
    stats = wake_stats(StreamResult.from_outcomes(outcomes))
    assert stats.p_wake_abnormal == 1.0
    assert stats.p_wake_normal is None


def test_trace_file_format(tmp_path, bench_dataset, bench_model, bench_reader,
                           bench_backend):
    result = run_stream(bench_dataset.test[::160], bench_model, bench_reader,
                        bench_backend)
    path = tmp_path / "trace.csv"
    result.write_trace(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beat", "true", "front_pred", "wake", "reason", "system_pred"]
    assert len(rows) == 21
    assert {row[3] for row in rows[1:]} == {"0", "1"}
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        assert row[3] in {"0", "1"}
        assert row[4] in {"none", "abnormal", "ambiguous", "invalid"}
        if row[3] == "0":
            assert row[4] == "none"
            assert row[5] == "0"
