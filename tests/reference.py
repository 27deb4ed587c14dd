"""Per-beat references for the front end's decision rule, the wake rule and synthesis.

The library runs each rule once, in its batch core (bayesfront's score
matrix rule and wakectl.wake_codes). These are the plain per-beat versions,
written without numpy, that the batch core is checked against. The
synthetic generator makes its beats a block at a time; synth_beat here is
the one-beat-at-a-time generator its records are checked against.
"""

import numpy as np

from wakesim.bayesfront import N_FEATURES, BayesModel, ClassScores
from wakesim.datapipe.beats import N_CLASSES, SEGMENT_LEN, BeatRecord, Dataset
from wakesim.datapipe.synthetic import CHANNEL_PHASE_SHIFT, CLASS_TONE_BINS, TONE_AMPLITUDES
from wakesim.wakectl import WakePolicy


def scalar_infer(levels, model: BayesModel, reader) -> ClassScores:
    """Accumulate per-class codes through a word reader and pick the argmin.

    The reader is any callable (class_id, feature, level) -> code, read in
    class-then-feature order.
    """
    scores = [
        sum(int(reader(c, f, int(levels[f]))) for f in range(N_FEATURES))
        for c in range(N_CLASSES)
    ]
    smin = min(scores)
    predicted = scores.index(smin)
    tie_with_normal = scores[0] == smin and any(s == smin for s in scores[1:])
    return ClassScores(
        scores=tuple(scores),
        predicted=predicted,
        tie_with_normal=tie_with_normal,
        invalid=smin >= model.invalid_threshold,
    )


def scalar_wake_code(scores: ClassScores, policy: WakePolicy = WakePolicy()) -> int:
    """The wake reason code of one inference outcome, by priority:
    1 invalid, 2 abnormal, 3 ambiguous, 0 sleep."""
    if scores.invalid and policy.wake_on_invalid:
        return 1
    if scores.predicted != 0 and policy.wake_on_abnormal:
        return 2
    if scores.tie_with_normal and policy.wake_on_ambiguous:
        return 3
    return 0


def synth_beat(rng: np.random.Generator, class_id: int, noise_sigma: float,
               source_id: str, beat_index: int) -> BeatRecord:
    """One synthetic beat: its two phases, then per channel its tones and noise."""
    t = np.arange(SEGMENT_LEN)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(TONE_AMPLITUDES))
    samples = np.zeros((2, SEGMENT_LEN))
    for ch in range(2):
        x = np.zeros(SEGMENT_LEN)
        for amp, freq, phase in zip(TONE_AMPLITUDES, CLASS_TONE_BINS[class_id], phases):
            x += amp * np.cos(2.0 * np.pi * freq * t / SEGMENT_LEN + phase + ch * CHANNEL_PHASE_SHIFT)
        x += noise_sigma * rng.standard_normal(SEGMENT_LEN)
        samples[ch] = x
    return BeatRecord(samples, class_id, source_id, beat_index)


def synth_dataset(seed: int, beats_per_class: int, noise_sigma: float, test_per_class: int) -> Dataset:
    """The synthetic dataset made one synth_beat at a time: split, then class, then index."""
    rng = np.random.default_rng(seed)
    ds = Dataset(seed=seed)
    index = 0
    for split, count in (("train", beats_per_class), ("test", test_per_class)):
        for c in range(N_CLASSES):
            for _ in range(count):
                getattr(ds, split).append(synth_beat(rng, c, noise_sigma, f"synth-{seed}", index))
                index += 1
    return ds
