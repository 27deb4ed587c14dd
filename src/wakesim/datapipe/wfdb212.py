"""Readers and writers for WFDB format-212 signals and MIT annotation streams.

Only the subset needed to ingest two-channel Holter records is implemented:
format 212 packing, the binary annotation format (including SKIP/NUM/SUB/CHN/AUX
pseudo-annotations), and a minimal header parser. Everything is plain bytes in,
numpy arrays out; no external WFDB dependency.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParseError

# Annotation type codes for the beat symbols this project keeps. All other
# codes advance time but are dropped.
BEAT_CODES = {1: "N", 2: "L", 3: "R", 12: "/"}

# Pseudo-annotation codes: no beat attached, special field handling.
_SKIP, _NUM, _SUB, _CHN, _AUX = 59, 60, 61, 62, 63


def decode_212(data: bytes, n_samples: int) -> np.ndarray:
    """Unpack a two-channel format-212 byte stream.

    Each 3-byte frame holds one 12-bit two's-complement sample per channel:

        s0 = ((b1 & 0x0F) << 8) | b0
        s1 = ((b1 & 0xF0) << 4) | b2

    both sign-extended from bit 11.

    Args:
        data: raw .dat contents.
        n_samples: samples per channel promised by the header.

    Returns:
        int32 array of shape (2, n_samples).
    """
    if len(data) % 3 != 0:
        offset = len(data) - len(data) % 3
        raise ParseError(f"truncated 212 frame at byte offset {offset}")
    n_frames = len(data) // 3
    if n_frames != n_samples:
        raise ParseError(
            f"header promises {n_samples} samples per channel, stream holds {n_frames}"
        )
    raw = np.frombuffer(data, dtype=np.uint8).astype(np.int32).reshape(-1, 3)
    s0 = ((raw[:, 1] & 0x0F) << 8) | raw[:, 0]
    s1 = ((raw[:, 1] & 0xF0) << 4) | raw[:, 2]
    out = np.stack([s0, s1])
    out[out >= 2048] -= 4096
    return out


def encode_212(samples) -> bytes:
    """Pack two channels of 12-bit samples into format-212 bytes.

    Inverse of :func:`decode_212`; used to build test fixtures and small
    synthetic records.
    """
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != 2:
        raise ValueError("expected samples of shape (2, n)")
    if arr.min() < -2048 or arr.max() > 2047:
        raise ValueError("samples out of 12-bit range")
    u = arr & 0xFFF
    frames = np.empty((arr.shape[1], 3), dtype=np.uint8)
    frames[:, 0] = u[0] & 0xFF
    frames[:, 1] = ((u[1] >> 8) << 4) | (u[0] >> 8)
    frames[:, 2] = u[1] & 0xFF
    return frames.tobytes()


def read_annotations(data: bytes) -> list[tuple[int, str]]:
    """Parse a binary annotation stream into (absolute_sample, symbol) pairs.

    Records are 16-bit little-endian words: the top 6 bits carry the type
    code, the low 10 bits the sample interval since the previous annotation.
    A zero word terminates the stream. SKIP with a zero interval is followed
    by a 4-byte long interval (high 16-bit word first, each little-endian);
    NUM/SUB/CHN carry field values and do not advance time; AUX is followed
    by its byte count padded to even length.

    Only symbols in BEAT_CODES are returned; every other code still advances
    the running time.
    """
    out: list[tuple[int, str]] = []
    t = 0
    pos = 0
    rec = 0
    n = len(data)
    while pos < n:
        if pos + 2 > n:
            raise ParseError(f"truncated annotation record {rec}")
        word = data[pos] | (data[pos + 1] << 8)
        pos += 2
        if word == 0:
            break
        code = word >> 10
        delta = word & 0x3FF
        if code == _SKIP and delta == 0:
            if pos + 4 > n:
                raise ParseError(f"truncated skip interval in record {rec}")
            high = data[pos] | (data[pos + 1] << 8)
            low = data[pos + 2] | (data[pos + 3] << 8)
            pos += 4
            interval = (high << 16) | low
            if interval >= 1 << 31:
                interval -= 1 << 32
            t += interval
        elif code in (_NUM, _SUB, _CHN):
            pass
        elif code == _AUX:
            skip = delta + (delta & 1)  # aux strings are padded to even length
            if pos + skip > n:
                raise ParseError(f"truncated aux field in record {rec}")
            pos += skip
        else:
            t += delta
            sym = BEAT_CODES.get(code)
            if sym is not None:
                out.append((t, sym))
        rec += 1
    return out


def encode_annotations(pairs) -> bytes:
    """Serialize (absolute_sample, symbol) pairs back to the binary format.

    Emits a long SKIP when an interval exceeds the 10-bit delta field and
    terminates with the zero word. Fixture-writing counterpart of
    :func:`read_annotations`.
    """
    code_of = {v: k for k, v in BEAT_CODES.items()}
    buf = bytearray()
    prev = 0
    for t, sym in pairs:
        if sym not in code_of:
            raise ValueError(f"unknown beat symbol {sym!r}")
        delta = t - prev
        if delta < 0:
            raise ValueError("annotation times must be nondecreasing")
        if delta > 1023:
            buf += (_SKIP << 10).to_bytes(2, "little")
            buf += ((delta >> 16) & 0xFFFF).to_bytes(2, "little")
            buf += (delta & 0xFFFF).to_bytes(2, "little")
            delta = 0
        buf += ((code_of[sym] << 10) | delta).to_bytes(2, "little")
        prev = t
    buf += b"\x00\x00"
    return bytes(buf)


def read_header(text: str) -> dict:
    """Parse the pieces of a .hea file this pipeline relies on.

    Returns record name, channel count, sampling frequency, samples per
    channel, and per-signal (gain, baseline) used for amplitude
    normalization. Gain fields of the form ``200(1024)/mV`` are handled;
    missing gain or baseline fall back to the conventional 200 adu/mV
    and 1024.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty header")
    head = lines[0].split()
    if len(head) < 4:
        raise ParseError("header line needs record name, channels, fs, samples")
    name = head[0].split("/")[0]
    try:
        n_sig = int(head[1])
        fs = float(head[2].split("/")[0])
        n_samples = int(head[3])
    except ValueError as exc:
        raise ParseError(f"malformed header line: {lines[0]!r}") from exc
    signals = []
    for ln in lines[1 : 1 + n_sig]:
        fields = ln.split()
        if len(fields) < 2:
            raise ParseError(f"malformed signal line: {ln!r}")
        fmt = fields[1].split("x")[0].split(":")[0].split("+")[0]
        gain, baseline = 200.0, 1024.0
        if len(fields) >= 3:
            gfield = fields[2].split("/")[0]
            try:
                if "(" in gfield:
                    gpart, bpart = gfield.split("(")
                    gain = float(gpart) if gpart else 200.0
                    baseline = float(bpart.rstrip(")"))
                elif gfield:
                    gain = float(gfield)
                    if len(fields) >= 5:
                        baseline = float(fields[4])
            except ValueError as exc:
                raise ParseError(f"malformed signal line: {ln!r}") from exc
        if gain == 0:
            gain = 200.0
        signals.append({"file": fields[0], "format": fmt, "gain": gain, "baseline": baseline})
    if len(signals) != n_sig:
        raise ParseError(f"header declares {n_sig} signals, found {len(signals)}")
    return {
        "name": name,
        "n_signals": n_sig,
        "fs": fs,
        "n_samples": n_samples,
        "signals": signals,
    }
