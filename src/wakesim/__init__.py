"""wakesim: uncertainty-triggered wake-up inference, simulated end to end.

An always-on log-domain naive Bayes front end screens a beat stream and
wakes an int8 MLP back end only on abnormal, ambiguous, or invalid
outcomes. The front end's code tables live in a simulated resistive array
whose read errors depend on the operating point, and a closed-form energy
model turns measured wake rates into average energy per input.
"""

from .bayesfront import (
    BayesModel,
    ClassScores,
    IdealReader,
    LogCodec,
    ScoreBatch,
    bayes_infer,
    bayes_infer_many,
    decode_log,
    encode_log,
    fit_bayes_model,
    fit_likelihoods,
    invalid_threshold,
    load_bayes_model,
    save_bayes_model,
)
from .datapipe import (
    BeatRecord,
    CLASS_NAMES,
    Dataset,
    chi2_rank,
    feature_matrix,
    fft_features,
    fit_quantizer,
    quantize,
    QuantizerSpec,
    segment_beat,
    synth_dataset,
)
from .energymodel import (
    EnergyParams,
    RatesTable,
    WakeRates,
    e_avg,
    e_avg_from_p_wake,
    e_baseline,
    e_fe,
    p_mon,
    p_wake,
    sweep,
    write_sweep_csv,
)
from .memsim import (
    ArrayState,
    DeviceDistributions,
    MemristorReader,
    OperatingPoint,
    ReadErrorModel,
    load_array_state,
    margins,
    program_arrays,
    regime_preset,
    save_array_state,
)
from .metrics import ConfusionMatrix, f1_per_class, macro_f1_abnormal
from .mlpback import (
    MlpClassifier,
    MlpFloat,
    MlpModel,
    TrainConfig,
    fit_backend,
    load_classifier,
    mlp_forward,
    mlp_infer,
    quantize_mlp,
    save_classifier,
    train_mlp,
)
from .report import build_report, config_digest, dump_report, render_report, save_report
from .wakectl import (
    BeatOutcome,
    OracleBackend,
    StreamResult,
    WakeDecision,
    WakePolicy,
    WakeReason,
    decide_wake,
    run_stream,
    wake_reasons,
    wake_stats,
)

__version__ = "0.1.0"
