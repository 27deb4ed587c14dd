"""Format-212 packing and the binary annotation stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakesim.datapipe.wfdb212 import (
    decode_212,
    encode_212,
    encode_annotations,
    read_annotations,
    read_header,
)
from wakesim.errors import ParseError

# ---------------------------------------------------------------------------
# signal packing
# ---------------------------------------------------------------------------


def test_decode_single_frame_by_hand():
    # s0 = 100 (0x064), s1 = -5 (0xFFB two's complement):
    #   b0 = 0x64, b1 = (0xF << 4) | 0x0 = 0xF0, b2 = 0xFB
    out = decode_212(bytes([0x64, 0xF0, 0xFB]), 1)
    assert out.shape == (2, 1)
    assert out[0, 0] == 100
    assert out[1, 0] == -5


def test_round_trip_corner_values():
    corners = np.array([[-2048, -1, 0, 1, 2047], [2047, 0, -2048, -1, 1]])
    assert np.array_equal(decode_212(encode_212(corners), 5), corners)


def test_round_trip_random():
    rng = np.random.default_rng(0)
    samples = rng.integers(-2048, 2048, size=(2, 4096))
    back = decode_212(encode_212(samples), 4096)
    assert back.dtype == np.int32
    assert np.array_equal(back, samples)


def test_decode_truncated_frame_reports_offset():
    with pytest.raises(ParseError, match="byte offset 3"):
        decode_212(b"\x00\x00\x00\x00", 2)


def test_decode_frame_count_mismatch():
    with pytest.raises(ParseError, match="promises 5 .* holds 2"):
        decode_212(b"\x00" * 6, 5)


def test_encode_rejects_bad_shape_and_range():
    with pytest.raises(ValueError, match="shape"):
        encode_212(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="range"):
        encode_212(np.array([[2048], [0]]))
    with pytest.raises(ValueError, match="range"):
        encode_212(np.array([[0], [-2049]]))


@given(st.lists(st.tuples(st.integers(-2048, 2047), st.integers(-2048, 2047)),
                min_size=1, max_size=64))
@settings(max_examples=50)
def test_round_trip_property(pairs):
    samples = np.array(pairs).T
    assert np.array_equal(decode_212(encode_212(samples), len(pairs)), samples)


# ---------------------------------------------------------------------------
# annotation stream
# ---------------------------------------------------------------------------


def _word(code, delta):
    return ((code << 10) | delta).to_bytes(2, "little")


def test_read_single_beat_by_hand():
    data = _word(1, 10) + b"\x00\x00"
    assert read_annotations(data) == [(10, "N")]


def test_symbols_and_cumulative_time():
    data = _word(1, 10) + _word(2, 5) + _word(3, 7) + _word(12, 1) + b"\x00\x00"
    assert read_annotations(data) == [(10, "N"), (15, "L"), (22, "R"), (23, "/")]


def test_unknown_beat_code_advances_time_but_drops_symbol():
    data = _word(1, 10) + _word(38, 100) + _word(2, 1) + b"\x00\x00"
    assert read_annotations(data) == [(10, "N"), (111, "L")]


def test_num_sub_chn_do_not_advance_time():
    data = _word(1, 10)
    for code in (60, 61, 62):
        data += _word(code, 5)
    data += _word(2, 1) + b"\x00\x00"
    assert read_annotations(data) == [(10, "N"), (11, "L")]


def test_aux_payload_is_skipped_with_odd_padding():
    payload = b"abc\x00"  # 3 declared bytes, padded to 4
    data = _word(1, 10) + _word(63, 3) + payload + _word(2, 2) + b"\x00\x00"
    assert read_annotations(data) == [(10, "N"), (12, "L")]


def test_long_skip_interval_high_word_first():
    interval = 70000
    data = (_word(59, 0)
            + ((interval >> 16) & 0xFFFF).to_bytes(2, "little")
            + (interval & 0xFFFF).to_bytes(2, "little")
            + _word(1, 0) + b"\x00\x00")
    assert read_annotations(data) == [(70000, "N")]


def test_zero_word_terminates_stream():
    data = _word(1, 10) + b"\x00\x00" + _word(2, 5)
    assert read_annotations(data) == [(10, "N")]


def test_truncated_annotation_inputs():
    with pytest.raises(ParseError, match="truncated"):
        read_annotations(_word(1, 10) + b"\x04")
    with pytest.raises(ParseError, match="skip"):
        read_annotations(_word(59, 0) + b"\x01\x00")
    with pytest.raises(ParseError, match="aux"):
        read_annotations(_word(63, 6) + b"ab")


def test_encode_emits_long_skip_for_wide_gaps():
    pairs = [(10, "N"), (400, "L"), (90000, "R"), (90000, "/")]
    data = encode_annotations(pairs)
    assert read_annotations(data) == pairs
    # the 89600-sample gap cannot fit the 10-bit delta field
    assert data.count(_word(59, 0)) >= 1


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown beat symbol"):
        encode_annotations([(10, "Q")])
    with pytest.raises(ValueError, match="nondecreasing"):
        encode_annotations([(10, "N"), (5, "N")])


@given(st.lists(st.tuples(st.integers(0, 3000), st.sampled_from("NLR/")),
                min_size=1, max_size=80))
@settings(max_examples=100)
def test_annotation_round_trip_property(entries):
    # absolute times are the running sum of the generated gaps
    t = 0
    pairs = []
    for gap, sym in entries:
        t += gap
        pairs.append((t, sym))
    assert read_annotations(encode_annotations(pairs)) == pairs


# ---------------------------------------------------------------------------
# header parsing
# ---------------------------------------------------------------------------


HEADER = """\
100 2 360 650000
100.dat 212 200(1024)/mV 12 0 995
100.dat 212 100/mV 12 1011
# comment line is ignored
"""


def test_read_header_fields():
    h = read_header(HEADER)
    assert h["name"] == "100"
    assert h["n_signals"] == 2
    assert h["fs"] == 360.0
    assert h["n_samples"] == 650000
    assert h["signals"][0] == {"file": "100.dat", "format": "212",
                               "gain": 200.0, "baseline": 1024.0}
    assert h["signals"][1]["gain"] == 100.0
    assert h["signals"][1]["baseline"] == 1011.0


def test_read_header_defaults_and_decorated_fields():
    h = read_header("r/2 2 360/360 100\nr.dat 212x4:2+0\nr.dat 212 0/mV\n")
    assert h["name"] == "r"
    assert h["fs"] == 360.0
    assert h["signals"][0]["format"] == "212"
    assert h["signals"][0]["gain"] == 200.0
    assert h["signals"][0]["baseline"] == 1024.0
    # explicit zero gain falls back to the conventional 200 adu/mV
    assert h["signals"][1]["gain"] == 200.0


def test_read_header_errors():
    with pytest.raises(ParseError, match="empty"):
        read_header("   \n# only comments\n")
    with pytest.raises(ParseError, match="record name"):
        read_header("100 2 360\n")
    with pytest.raises(ParseError, match="malformed header"):
        read_header("100 two 360 650000\n")
    with pytest.raises(ParseError, match="declares 2 signals"):
        read_header("100 2 360 650000\n100.dat 212\n")
    with pytest.raises(ParseError, match="malformed signal"):
        read_header("100 1 360 650000\n100.dat\n")
    with pytest.raises(ParseError, match="malformed signal"):
        read_header("100 1 360 650000\n100.dat 212 2OO(1024)/mV\n")
