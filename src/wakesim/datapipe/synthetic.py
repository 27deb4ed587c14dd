"""Synthetic beat generator with class-specific spectral signatures.

Each class plants two tones at known DFT bins so the whole pipeline can be
exercised without real recordings: class c uses bins 8+4c and 30+4c with
amplitudes 1.0 and 0.6. White noise on top controls difficulty; sigma 0
gives exactly separable spectra.
"""

from __future__ import annotations

import numpy as np

from .beats import BeatRecord, Dataset, N_CLASSES, SEGMENT_LEN
from .features import FFT_CHUNK

CLASS_TONE_BINS = tuple((8 + 4 * c, 30 + 4 * c) for c in range(N_CLASSES))
TONE_AMPLITUDES = (1.0, 0.6)
# Fixed offset between the two channels so they are not identical copies.
CHANNEL_PHASE_SHIFT = np.pi / 3


def _synth_block(rng: np.random.Generator, class_id: int, noise_sigma: float, n: int) -> np.ndarray:
    """Samples of n consecutive beats of one class, shape (n, 2, SEGMENT_LEN).

    Each beat draws from rng in turn, its two tone phases and then its ch0
    and ch1 noise, so a block takes the stream positions of n one-beat
    blocks. The tones and noise are then summed for the whole block, with
    each sample's operations in the one-beat order.
    """
    t = np.arange(SEGMENT_LEN)
    phases = np.empty((n, len(TONE_AMPLITUDES)))
    noise = np.empty((n, 2, SEGMENT_LEN))
    for i in range(n):
        phases[i] = rng.uniform(0.0, 2.0 * np.pi, size=len(TONE_AMPLITUDES))
        # Draw noise unconditionally so the stream position does not depend
        # on sigma; scaling by zero still yields exact zeros.
        rng.standard_normal(out=noise[i])
    samples = np.zeros((n, 2, SEGMENT_LEN))
    for ch in range(2):
        for k, (amp, freq) in enumerate(zip(TONE_AMPLITUDES, CLASS_TONE_BINS[class_id])):
            samples[:, ch] += amp * np.cos(2.0 * np.pi * freq * t / SEGMENT_LEN + phases[:, k, None]
                                           + ch * CHANNEL_PHASE_SHIFT)
    noise *= noise_sigma
    samples += noise
    return samples


def synth_beat(rng: np.random.Generator, class_id: int, noise_sigma: float,
               source_id: str, beat_index: int) -> BeatRecord:
    """One beat: a one-beat _synth_block."""
    return BeatRecord(_synth_block(rng, class_id, noise_sigma, 1)[0], class_id, source_id, beat_index)


def synth_dataset(seed: int, beats_per_class: int, noise_sigma: float = 1.0,
                  test_per_class: int | None = None) -> Dataset:
    """Build a balanced synthetic dataset, bit-reproducible for a seed.

    Beats are generated in a fixed order (split, then class, then index),
    so the same seed always yields the same samples. Each class is made in
    blocks of at most FFT_CHUNK beats, so the working arrays stay the same
    size whatever the split size, and every record equals the one a
    synth_beat per beat would give.
    """
    if beats_per_class < 1:
        raise ValueError("beats_per_class must be positive")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    if test_per_class is None:
        test_per_class = beats_per_class
    rng = np.random.default_rng(seed)
    source = f"synth-{seed}"
    ds = Dataset(seed=seed)
    index = 0
    for split, count in (("train", beats_per_class), ("test", test_per_class)):
        beats = getattr(ds, split)
        for c in range(N_CLASSES):
            for start in range(0, count, FFT_CHUNK):
                for samples in _synth_block(rng, c, noise_sigma, min(FFT_CHUNK, count - start)):
                    beats.append(BeatRecord(samples, c, source, index))
                    index += 1
    return ds
