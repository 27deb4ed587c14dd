"""Log-domain codec, likelihood fitting, and front-end inference."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakesim.bayesfront import (
    IdealReader,
    BayesModel,
    LogCodec,
    bayes_infer,
    decode_log,
    encode_log,
    fit_bayes_model,
    fit_likelihoods,
    invalid_threshold,
    load_bayes_model,
    save_bayes_model,
    word_addresses,
)
from wakesim.datapipe.quantizers import QuantizerSpec

# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def test_encode_known_values():
    assert encode_log(1.0) == 0
    assert encode_log(0.5) == 6
    assert encode_log(0.15) == 16
    assert encode_log(1e-30) == 255  # clamped at the top of the code range


def test_decode_known_values():
    assert decode_log(0) == 1.0
    assert decode_log(5) == 0.5527497037082496
    assert decode_log(6) == 0.49094656092429806
    assert decode_log(16) == pytest.approx(0.15, rel=1e-15)


def test_decode_is_strictly_decreasing():
    values = [decode_log(n) for n in range(256)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_round_trip_identity_over_all_codes():
    assert all(encode_log(decode_log(n)) == n for n in range(256))


def test_exactly_codes_zero_to_six_cover_the_confident_half():
    # sweep (0.5, 1] densely plus the open boundary itself: the codes that
    # can be produced by a probability above one half are exactly 0..6
    grid = np.linspace(0.5, 1.0, 200001)[1:]
    produced = {encode_log(float(p)) for p in grid}
    produced.add(encode_log(math.nextafter(0.5, 1.0)))
    assert produced == {0, 1, 2, 3, 4, 5, 6}
    # the boundary sits between codes 5 and 6
    assert decode_log(5) > 0.5 > decode_log(6)


def test_invalid_threshold_value_and_bound():
    assert invalid_threshold() == 94
    assert decode_log(94) < 2.0 ** -16 <= decode_log(93)


def test_encode_rejects_nonpositive():
    with pytest.raises(ValueError):
        encode_log(0.0)
    with pytest.raises(ValueError):
        encode_log(-0.5)


def test_codec_validation():
    with pytest.raises(ValueError):
        LogCodec(base=1.5)
    with pytest.raises(ValueError):
        LogCodec(scale=0)
    with pytest.raises(ValueError, match="scale"):
        LogCodec(scale=2**53 + 1)
    assert LogCodec(width=8).code_max == 255
    # the largest scale with the base nearest 1 still has a threshold
    assert invalid_threshold(LogCodec(base=1 - 2**-53, scale=2**53)) > 2**53


def test_alternate_codec_round_trip():
    codec = LogCodec(base=0.5, scale=4, width=6)
    assert all(encode_log(decode_log(n, codec), codec) == n
               for n in range(codec.code_max + 1))


@given(st.floats(min_value=1e-300, max_value=1.0))
@settings(max_examples=300)
def test_encode_quantization_error_bound(p):
    code = encode_log(p)
    assert 0 <= code <= 255
    if 0 < code < 255:
        # interior codes are within half a code step in the log domain
        half_step = -math.log(0.15) / 32
        assert abs(math.log(decode_log(code)) - math.log(p)) <= half_step * (1 + 1e-9)


@given(st.floats(min_value=1e-300, max_value=1.0),
       st.floats(min_value=1e-300, max_value=1.0))
@settings(max_examples=200)
def test_encode_is_monotone(p1, p2):
    if p1 <= p2:
        assert encode_log(p1) >= encode_log(p2)


# ---------------------------------------------------------------------------
# likelihood fitting
# ---------------------------------------------------------------------------


def _levels_all_at(level, per_class=10):
    levels = np.full((4 * per_class, 1), level, dtype=np.int64)
    labels = np.repeat(np.arange(4), per_class)
    return levels, labels


def test_fit_likelihoods_delta_matches_kernel_oracle():
    levels, labels = _levels_all_at(3, per_class=1)
    probs = fit_likelihoods(levels, labels)
    grid = np.arange(8)
    expected = np.exp(-((grid - 3) ** 2) / 2.0)
    expected /= expected.sum()
    for c in range(4):
        assert np.array_equal(probs[c, 0], expected)  # same arithmetic path, bit-equal
    assert probs[0, 0, 0] == 0.0044324548182281655
    # count scale only touches the last bit of the normalization
    bigger = fit_likelihoods(*_levels_all_at(3, per_class=10))
    np.testing.assert_allclose(bigger[0, 0], expected, rtol=1e-15, atol=0.0)


def test_fit_likelihoods_rows_are_distributions():
    rng = np.random.default_rng(0)
    levels = rng.integers(0, 8, size=(80, 4))
    labels = np.repeat(np.arange(4), 20)
    probs = fit_likelihoods(levels, labels)
    assert probs.shape == (4, 4, 8)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-12)


def test_fit_likelihoods_uniform_counts_are_reflection_symmetric():
    # the truncated kernel weights edge levels less, so uniform counts do not
    # produce a uniform distribution; they do produce an exactly symmetric one
    levels = np.tile(np.arange(8), 5).reshape(-1, 1)
    labels = np.zeros(40, dtype=np.int64)
    labels = np.concatenate([labels, np.ones(40, dtype=np.int64),
                             np.full(40, 2), np.full(40, 3)])
    levels = np.tile(levels, (4, 1))
    probs = fit_likelihoods(levels, labels)
    p = probs[0, 0]
    assert np.max(np.abs(p - p[::-1])) < 1e-15
    assert p[0] < p[3]  # strictly not uniform


def test_fit_likelihoods_validation():
    levels, labels = _levels_all_at(3)
    with pytest.raises(ValueError, match="no training beats"):
        fit_likelihoods(levels, np.zeros(len(levels), dtype=np.int64))
    with pytest.raises(ValueError, match="n_beats, n_features"):
        fit_likelihoods(levels[:, 0], labels)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def test_infer_all_equal_codes_is_a_normal_tie(stub_model):
    model = stub_model(np.full((4, 4, 8), 10))
    scores = bayes_infer([0, 0, 0, 0], model, IdealReader(model))
    assert scores.scores == (40, 40, 40, 40)
    assert scores.predicted == 0
    assert scores.tie_with_normal is True
    assert scores.invalid is False


def test_infer_zero_code_class_wins(stub_model):
    codes = np.full((4, 4, 8), 10)
    codes[2] = 0
    model = stub_model(codes)
    scores = bayes_infer([1, 2, 3, 4], model, IdealReader(model))
    assert scores.predicted == 2
    assert scores.scores[2] == 0
    assert scores.tie_with_normal is False


def test_infer_stuck_high_is_invalid(stub_model):
    model = stub_model(np.full((4, 4, 8), 255))
    scores = bayes_infer([7, 7, 7, 7], model, IdealReader(model))
    assert scores.scores == (1020, 1020, 1020, 1020)
    assert scores.invalid is True
    assert scores.tie_with_normal is True


def test_infer_prediction_is_shift_invariant(stub_model):
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 200, size=(4, 4, 8))
    model = stub_model(codes)
    shifted = stub_model(codes + 55)
    for _ in range(50):
        levels = rng.integers(0, 8, size=4)
        a = bayes_infer(levels, model, IdealReader(model))
        b = bayes_infer(levels, shifted, IdealReader(shifted))
        assert a.predicted == b.predicted
        assert a.tie_with_normal == b.tie_with_normal


def test_invalid_band_boundary_scores(stub_model):
    codes = np.zeros((4, 4, 8), dtype=np.uint8)
    # per-class sums land exactly at threshold-1 and threshold
    for total, expected_invalid in ((93, False), (94, True)):
        codes[:, 0, 0] = total - 3
        codes[:, 1:, 0] = 1
        model = stub_model(codes)
        scores = bayes_infer([0, 0, 0, 0], model, IdealReader(model))
        assert scores.scores[0] == total
        assert scores.invalid is expected_invalid


def test_model_validates_code_shape(stub_model):
    with pytest.raises(ValueError):
        stub_model(np.zeros((4, 4, 7)))
    with pytest.raises(ValueError, match="4 feature bins, with one quantizer each"):
        BayesModel((0, 1, 2), (QuantizerSpec(0.0, 1.0),) * 3, np.zeros((4, 4, 8)), LogCodec())


# ---------------------------------------------------------------------------
# word addresses of a read sequence
# ---------------------------------------------------------------------------

SHAPE = (4, 4, 8)


def _class_major(levels):
    """The compact class-major arrays bayes_infer_many reads through."""
    return (np.arange(SHAPE[0])[:, None, None], np.arange(SHAPE[1])[None, :, None],
            levels.T[None])


def _beat_major(levels):
    """(beat, class, feature) broadcast views of the same reads."""
    grid = (len(levels),) + SHAPE[:2]
    return (np.broadcast_to(np.arange(SHAPE[0])[None, :, None], grid),
            np.broadcast_to(np.arange(SHAPE[1])[None, None, :], grid),
            np.broadcast_to(levels[:, None, :], grid))


@pytest.mark.parametrize("n", [0, 1, 257])
def test_word_addresses_equal_ravel_multi_index(n):
    rng = np.random.default_rng(n)
    flat = tuple(rng.integers(0, size, size=n) for size in SHAPE)
    levels = rng.integers(0, SHAPE[2], size=(n, SHAPE[1]))
    for index in (flat, _beat_major(levels), _class_major(levels)):
        got = word_addresses(SHAPE, *index)
        expected = np.ravel_multi_index(np.broadcast_arrays(*index), SHAPE)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
    # the class-major grid holds the beat-major reads, transposed
    assert np.array_equal(word_addresses(SHAPE, *_class_major(levels)),
                          word_addresses(SHAPE, *_beat_major(levels)).transpose(1, 2, 0))


@pytest.mark.parametrize("index", [
    *[tuple([v] if axis == a else [0] for a in range(3))
      for axis in range(3) for v in (-1, SHAPE[axis])],
    ([0, 1], [0, 1, 2], [0]),
    (np.zeros((2, 1, 1), int), np.zeros((1, 3, 1), int), np.zeros((4, 1, 2), int)),
    ([0.9], [1.7], [2.2]),
    ([0], [1], [2.0]),
    ([0], [1], [np.nan]),
    ([True], [False], [True]),
    ([0], np.array([1], dtype=object), [2]),
], ids=lambda index: repr(index)[:40])
def test_word_addresses_refuse_a_bad_read_sequence(index):
    with pytest.raises(IndexError):
        word_addresses(SHAPE, *index)


def test_word_addresses_read_nothing_from_empty_sequences():
    # an empty list is float64; with nothing to read it is not refused
    assert word_addresses(SHAPE, [], [], []).tolist() == []
    assert word_addresses(SHAPE, np.array([], dtype=bool), [], []).dtype == np.intp


def test_word_addresses_do_not_wrap_narrow_integers():
    shape = (4, 16, 256)
    index = [np.array([v], dtype=np.uint8) for v in (3, 15, 255)]
    assert word_addresses(shape, *index).tolist() == [np.ravel_multi_index((3, 15, 255), shape)]


def test_quantize_matrix_uses_selected_bins():
    codes = np.zeros((4, 4, 8))
    model = BayesModel(
        feature_bins=(3, 1, 0, 2),
        quantizers=tuple(QuantizerSpec(0.0, 8.0) for _ in range(4)),
        codes=codes.astype(np.uint8),
        codec=LogCodec(),
    )
    levels = model.quantize_matrix(np.array([[0.5, 3.5, 7.5, 5.5]]))
    assert levels.tolist() == [[5, 3, 0, 7]]


# ---------------------------------------------------------------------------
# fitting and persistence
# ---------------------------------------------------------------------------


def test_fit_is_deterministic(bench_train, bench_ranked, bench_model):
    mags, labels = bench_train
    refit = fit_bayes_model(mags, labels, bench_ranked)
    assert np.array_equal(refit.codes, bench_model.codes)
    assert refit.feature_bins == bench_model.feature_bins
    assert refit.quantizers == bench_model.quantizers


def test_fit_handles_single_beat_per_class():
    rng = np.random.default_rng(2)
    mags = rng.uniform(0.1, 1.0, size=(4, 254))
    labels = np.arange(4)
    ranked = [(j, 1.0) for j in range(254)]
    model = fit_bayes_model(mags, labels, ranked)
    assert model.codes.shape == (4, 4, 8)
    assert model.codes.dtype == np.uint8


def test_benchmark_front_end_is_perfect_on_clean_data(bench_dataset, bench_model,
                                                      bench_reader, bench_test):
    mags, labels = bench_test
    correct = ties = invalid = 0
    levels = bench_model.quantize_matrix(mags)
    for i in range(len(labels)):
        scores = bayes_infer(levels[i], bench_model, bench_reader)
        correct += scores.predicted == labels[i]
        ties += scores.tie_with_normal
        invalid += scores.invalid
    assert correct == len(labels)
    assert ties == 0
    assert invalid == 0


def test_save_load_round_trip(tmp_path, bench_model):
    path = tmp_path / "bayes.json"
    save_bayes_model(path, bench_model)
    back = load_bayes_model(path)
    assert np.array_equal(back.codes, bench_model.codes)
    assert back.feature_bins == bench_model.feature_bins
    assert back.quantizers == bench_model.quantizers
    assert back.codec == bench_model.codec

    rng = np.random.default_rng(3)
    for _ in range(20):
        levels = rng.integers(0, 8, size=4)
        assert (bayes_infer(levels, back, IdealReader(back))
                == bayes_infer(levels, bench_model, IdealReader(bench_model)))


def test_model_file_layout(tmp_path, bench_model):
    path = tmp_path / "bayes.json"
    save_bayes_model(path, bench_model)
    doc = json.loads(path.read_text())
    assert set(doc) == {"codec", "feature_bins", "quantizers", "codes", "class_names"}
    assert len(doc["codes"]) == 128
    # flat code table is class-major: class, then feature, then level
    for c, f, l in ((0, 0, 0), (1, 2, 3), (3, 3, 7)):
        assert doc["codes"][(c * 4 + f) * 8 + l] == int(bench_model.codes[c, f, l])
    assert doc["codec"] == {"base": 0.15, "scale": 16, "width": 8}
