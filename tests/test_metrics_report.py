"""Confusion/F1 metrics and the JSON + text run reports."""

import json

import numpy as np
import pytest

from wakesim.artifacts import dump_json
from wakesim.metrics import ConfusionMatrix, f1_per_class, macro_f1_abnormal
from wakesim.report import (
    build_report,
    config_digest,
    load_report,
    render_report,
    save_report,
)
from wakesim.wakectl import BeatOutcome, StreamResult

# ---------------------------------------------------------------------------
# confusion matrix
# ---------------------------------------------------------------------------


def test_confusion_validation():
    with pytest.raises(ValueError, match="square"):
        ConfusionMatrix(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError, match="nonnegative"):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]))


def test_from_pairs_counts_and_rejects_length_mismatch():
    cm = ConfusionMatrix.from_pairs([0, 0, 1, 2, 3, 3], [0, 1, 1, 2, 3, 0])
    assert cm.counts.tolist() == [[1, 1, 0, 0],
                                  [0, 1, 0, 0],
                                  [0, 0, 1, 0],
                                  [1, 0, 0, 1]]
    assert np.array_equal(cm.counts.sum(axis=1),
                          np.bincount([0, 0, 1, 2, 3, 3], minlength=4))
    with pytest.raises(ValueError):
        ConfusionMatrix.from_pairs([0, 1], [0])


@pytest.mark.parametrize("true, pred", [([-1, 0], [0, -2]), ([0, 4], [0, 1]), ([0, 1], [0, 4])])
def test_from_pairs_rejects_labels_outside_the_classes(true, pred):
    with pytest.raises(ValueError, match="0..3"):
        ConfusionMatrix.from_pairs(true, pred)


def test_accuracy_of_empty_matrix_is_zero():
    assert ConfusionMatrix(np.zeros((4, 4), dtype=int)).accuracy() == 0.0


# ---------------------------------------------------------------------------
# F1
# ---------------------------------------------------------------------------


def test_f1_known_counts():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[1, 1] = 8   # tp
    counts[0, 1] = 2   # fp
    counts[1, 0] = 2   # fn
    assert f1_per_class(ConfusionMatrix(counts), 1) == pytest.approx(0.8, rel=1e-12)


def test_f1_is_zero_when_never_correct_and_none_when_absent():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[2, 1] = 5  # class 1 only appears as a wrong prediction
    cm = ConfusionMatrix(counts)
    assert f1_per_class(cm, 1) == 0.0
    assert f1_per_class(cm, 3) is None


def test_macro_f1_averages_abnormal_classes_only():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 50  # N is excluded from the macro average
    for c in (1, 2, 3):
        counts[c, c] = 8
        counts[0, c] = 2
        counts[c, 0] = 2
    assert macro_f1_abnormal(ConfusionMatrix(counts)) == pytest.approx(0.8, rel=1e-12)


def test_macro_f1_zero_when_abnormal_always_missed():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 10
    for c in (1, 2, 3):
        counts[c, 0] = 5
    assert macro_f1_abnormal(ConfusionMatrix(counts)) == 0.0


def test_macro_f1_none_when_any_abnormal_class_absent():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 10
    counts[1, 1] = 10
    assert macro_f1_abnormal(ConfusionMatrix(counts)) is None


def test_f1_against_pair_counting_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        true = rng.integers(0, 4, size=n)
        pred = rng.integers(0, 4, size=n)
        cm = ConfusionMatrix.from_pairs(true, pred)
        assert cm.accuracy() == pytest.approx(float(np.mean(true == pred)), abs=1e-12)
        for c in range(4):
            tp = int(np.sum((true == c) & (pred == c)))
            fp = int(np.sum((true != c) & (pred == c)))
            fn = int(np.sum((true == c) & (pred != c)))
            got = f1_per_class(cm, c)
            if tp + fp + fn == 0:
                assert got is None
                continue
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@pytest.fixture()
def cyclic_stream(from_outcomes) -> StreamResult:
    """100 beats per class; 6 front / 1 system error per abnormal class.

    Errors rotate cyclically through the other abnormal classes so each
    class also receives exactly its own share of false positives.
    """
    outcomes = []
    for _ in range(100):
        outcomes.append(BeatOutcome(0, 0, False, "sleep", 0))
    for c in (1, 2, 3):
        wrong = 1 + (c % 3)
        for i in range(100):
            front = c if i < 94 else wrong
            system = c if i < 99 else wrong
            outcomes.append(BeatOutcome(c, front, True, "abnormal", system))
    return from_outcomes(outcomes)


@pytest.fixture()
def echo_report(cyclic_stream):
    config = {"noise_sigma": 0.05, "seed": 11}
    energy = [{"vdd": 1.2, "e_avg": 9.92944e-08}]
    return build_report(stream=cyclic_stream, energy_rows=energy, config=config,
                        seeds={"train": 3})


def test_report_keys_and_partial_flag(echo_report):
    assert set(echo_report) == {"config", "config_digest", "seeds", "partial",
                                "front_end", "system", "wake", "energy"}
    assert echo_report["partial"] is False
    assert echo_report["seeds"] == {"train": 3}


def test_report_echoes_classifier_sections(echo_report):
    front = echo_report["front_end"]
    assert front["confusion"][0] == [100, 0, 0, 0]
    assert front["confusion"][1] == [0, 94, 6, 0]
    assert front["confusion"][3] == [0, 6, 0, 94]
    assert front["accuracy"] == 0.955
    assert front["macro_f1_abnormal"] == 0.94
    assert front["per_class_f1"]["N"] == pytest.approx(1.0)
    assert set(front["per_class_f1"]) == {"N", "L", "R", "P"}
    system = echo_report["system"]
    assert system["macro_f1_abnormal"] == pytest.approx(0.99, rel=1e-12)


def test_report_echoes_wake_section(echo_report):
    wake = echo_report["wake"]
    assert wake["p_wake_abnormal"] == 1.0
    assert wake["p_wake_normal"] == 0.0
    assert wake["reasons_by_class"]["N"]["sleep"] == 1.0
    assert wake["reasons_by_class"]["L"]["abnormal"] == 1.0
    assert wake["counts_by_class"]["R"]["abnormal"] == 100
    assert wake["backend_errors"] == 0


def test_partial_reports(cyclic_stream):
    only_energy = build_report(energy_rows=[{"vdd": 1.0, "e_avg": 1e-7}])
    assert only_energy["partial"] is True
    assert "front_end" not in only_energy and "wake" not in only_energy
    only_stream = build_report(stream=cyclic_stream)
    assert only_stream["partial"] is True
    assert "energy" not in only_stream
    assert "front_end" in only_stream
    empty = build_report()
    assert empty["partial"] is True
    assert set(empty) == {"config", "config_digest", "seeds", "partial"}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_config_digest_is_order_independent():
    a = config_digest({"alpha": 1, "beta": [1, 2]})
    b = config_digest({"beta": [1, 2], "alpha": 1})
    assert a == b
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")
    assert config_digest({"alpha": 2, "beta": [1, 2]}) != a


def test_dump_report_is_byte_stable(echo_report):
    text = dump_json(echo_report)
    assert text.endswith("\n")
    shuffled = dict(reversed(list(echo_report.items())))
    assert dump_json(shuffled) == text
    assert json.loads(text)["front_end"]["macro_f1_abnormal"] == 0.94


def test_save_load_round_trip(tmp_path, echo_report):
    path = tmp_path / "report.json"
    save_report(path, echo_report)
    assert load_report(path) == echo_report
    assert path.read_text() == dump_json(echo_report)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_report_contents(echo_report):
    text = render_report(echo_report)
    assert f"config digest : {echo_report['config_digest'][:16]}" in text
    assert "partial       : False" in text
    assert "[front_end] accuracy=0.9550 macro_f1_abnormal=0.9400" in text
    assert "confusion (rows true, cols pred):" in text
    assert "[wake] p(wake|abnormal)=1.0000 p(wake|normal)=0.0000" in text
    assert "[energy]" in text
    assert "e_avg=9.92944e-08 vdd=1.2" in text


def test_render_handles_missing_values(from_outcomes):
    # normal-only stream: abnormal F1 undefined, abnormal wake rate undefined
    stream = from_outcomes([BeatOutcome(0, 0, False, "sleep", 0) for _ in range(10)])
    text = render_report(build_report(stream=stream))
    assert "macro_f1_abnormal=--" in text
    assert "p(wake|abnormal)=--" in text
    assert "L: no beats" in text
