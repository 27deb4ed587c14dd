"""Scalar references for the front end's decision rule and the wake rule.

The library runs each rule once, in its batch core (bayesfront's score
matrix rule and wakectl.wake_codes). These are the plain per-beat versions,
written without numpy, that the batch core is checked against.
"""

from wakesim.bayesfront import N_FEATURES, BayesModel, ClassScores
from wakesim.datapipe.beats import N_CLASSES
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
