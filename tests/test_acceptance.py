"""Acceptance suite: one test per shipped guarantee, loosest stated tolerance.

Each test prints one PASS line with the measured numbers; run with -v (and
-s to see the numbers on success). Criterion 12 needs real recordings and
is skipped unless WAKESIM_MITBIH_DIR points at a directory of them.
"""

import math
import os

import numpy as np
import pytest

from wakesim.bayesfront import (
    IdealReader,
    LogCodec,
    bayes_infer,
    decode_log,
    encode_log,
    fit_bayes_model,
)
from wakesim.data import default_rates_fixture
from wakesim.datapipe.beats import balanced_split, ingest_wfdb_dir
from wakesim.datapipe.features import chi2_rank, feature_matrix
from wakesim.datapipe.wfdb212 import (
    decode_212,
    encode_212,
    encode_annotations,
    read_annotations,
)
from wakesim.energymodel import (
    EnergyParams,
    RatesTable,
    WakeRates,
    e_avg,
    e_avg_from_p_wake,
    e_baseline,
    sweep,
)
from wakesim.memsim import (
    DeviceDistributions,
    MemristorReader,
    OperatingPoint,
    ReadErrorModel,
    program_arrays,
)
from wakesim.metrics import ConfusionMatrix, macro_f1_abnormal
from wakesim.mlpback import TrainConfig, fit_backend, loss_and_grads, mlp_forward, train_mlp
from wakesim.wakectl import WakePolicy, decide_wake, run_stream

# Reference wake rates of the three operating presets at nominal supply
# (the preset-A pair is also the 1.2 V row of the bundled sweep table),
# and the average-energy figures they are expected to reproduce.
REFERENCE_RATES = {
    "A": WakeRates(0.998, 0.0188),
    "B": WakeRates(1.0, 0.225),
    "C": WakeRates(1.0, 0.773),
}
TARGET_E_AVG = {"A": 100e-9, "B": 757e-9, "C": 2.5e-6}


def test_criterion_01_preset_energy_within_5_percent():
    params = EnergyParams()
    measured = {}
    for name, rates in REFERENCE_RATES.items():
        total = e_avg(params, 1.2, rates).total
        assert abs(total / TARGET_E_AVG[name] - 1.0) <= 0.05, (name, total)
        measured[name] = total
    print("PASS criterion 1: e_avg per preset "
          + " ".join(f"{k}={v:.4g} J" for k, v in measured.items())
          + " all within 5% of targets")


def test_criterion_02_baseline_ratio_band():
    params = EnergyParams()
    ratio = e_baseline(params, 1.2) / e_avg(params, 1.2, REFERENCE_RATES["A"]).total
    assert 30.0 <= ratio <= 37.0
    print(f"PASS criterion 2: baseline/e_avg(A) = {ratio:.4f} in [30, 37]")


def test_criterion_03_marginal_wake_cost_is_32_nJ():
    params = EnergyParams()
    assert e_avg_from_p_wake(params, 1.2, 0.01).service == 3.2e-8
    for q in (0.0, 0.2, 0.5, 0.9):
        delta = (e_avg_from_p_wake(params, 1.2, q + 0.01).total
                 - e_avg_from_p_wake(params, 1.2, q).total)
        assert delta == pytest.approx(3.2e-8, rel=1e-12), q
    print("PASS criterion 3: +0.01 wake probability adds 3.2e-8 J "
          "(exact at the service term, 1e-12 relative on totals)")


def test_criterion_04_codec_seven_codes_and_round_trip():
    codec = LogCodec()
    # probabilities above one half occupy exactly the seven lowest codes
    grid = np.linspace(0.5, 1.0, 200001)[1:]
    seen = {encode_log(float(p), codec) for p in grid}
    seen.add(encode_log(float(np.nextafter(0.5, 1.0)), codec))
    seen.add(encode_log(1.0, codec))
    assert seen == set(range(7))
    # the boundary code's representative sits just below one half
    assert decode_log(5, codec) > 0.5 > decode_log(6, codec)
    for n in range(256):
        assert encode_log(decode_log(n, codec), codec) == n
    print("PASS criterion 4: (0.5, 1] maps onto codes {0..6}; "
          "256-code round-trip identity holds")


ZERO_SIGMA = DeviceDistributions(
    lrs_log10_mean_table=((1.0, 4.0), (3.0, 4.0)),
    lrs_log10_sigma_table=((1.0, 0.0), (3.0, 0.0)),
    hrs_log10_mean=6.0,
    hrs_log10_sigma=0.0,
)
QUIET = ReadErrorModel(sigma_n_table=((0.5, 0.0), (1.4, 0.0)))


def test_criterion_05_fault_free_paths_agree_with_float_oracle(stub_model):
    op = OperatingPoint(vdd=1.2, vddr=2.4)
    rng = np.random.default_rng(505)
    log10_of_code = [math.log10(decode_log(c)) for c in range(256)]
    floor = 2.0 ** -16
    checked = 0
    for m in range(100):
        codes = rng.integers(0, 256, size=(4, 4, 8))
        model = stub_model(codes)
        state = program_arrays(model, ZERO_SIGMA, op.vddr, seed=600 + m)
        through_array = MemristorReader(state, op, QUIET, seed=900 + m)
        ideal = IdealReader(model)
        for _ in range(100):
            levels = [int(v) for v in rng.integers(0, 8, size=4)]
            got = bayes_infer(levels, model, through_array)
            assert got == bayes_infer(levels, model, ideal)
            # float posterior oracle: per-class fsum of log10 likelihoods
            logp = [
                math.fsum(log10_of_code[int(codes[c, f, levels[f]])]
                          for f in range(4))
                for c in range(4)
            ]
            best = max(logp)
            tied = [c for c in range(4) if logp[c] >= best - 1e-9]
            assert got.predicted == tied[0]
            assert got.tie_with_normal == (0 in tied and len(tied) > 1)
            assert got.invalid == (10.0 ** best < floor)
            checked += 1
    assert checked == 10_000
    print(f"PASS criterion 5: {checked} (model, input) cases; quiet array == "
          "ideal reader bit-exactly == float posterior argmax")


def test_criterion_06_degradation_and_system_recovery(regime_streams):
    front = {}
    system = {}
    for name, stream in regime_streams.items():
        front[name] = macro_f1_abnormal(stream.front_confusion())
        system[name] = macro_f1_abnormal(stream.system_confusion())
    assert front["A"] >= 0.99
    for name in ("B", "C"):
        assert front[name] <= 0.75, front
        assert system[name] >= 0.95, system
    reasons = regime_streams["C"].reason_counts()[0]
    wakes = reasons["abnormal"] + reasons["ambiguous"] + reasons["invalid"]
    assert wakes > 0
    assert reasons["ambiguous"] + reasons["invalid"] > wakes / 2
    print("PASS criterion 6: front macro-F1 "
          + " ".join(f"{k}={front[k]:.4f}" for k in "ABC")
          + "; system " + " ".join(f"{k}={system[k]:.4f}" for k in "ABC")
          + f"; preset-C normal wakes {reasons} mostly ambiguous/invalid")


def test_criterion_07_normal_finalizes_only_on_strict_valid_minimum(stub_model):
    rng = np.random.default_rng(707)
    n = 100_000
    codes = rng.integers(0, 256, size=(n, 4, 4))
    # half the cases straddle the underflow band, and a stripe carries
    # exact normal/abnormal ties
    codes[: n // 2] = rng.integers(0, 48, size=(n // 2, 4, 4))
    codes[::97, 1] = codes[::97, 0]
    sums = codes.sum(axis=2)
    expect_sleep = (sums[:, 0] < sums[:, 1:].min(axis=1)) & (sums[:, 0] < 94)
    model = stub_model(np.zeros((4, 4, 8)))
    for k in range(n):
        row = codes[k]
        scores = bayes_infer([0, 0, 0, 0], model,
                             lambda c, f, l, row=row: int(row[c, f]))
        assert (decide_wake(scores) == 0) == bool(expect_sleep[k]), (k, row)
    print(f"PASS criterion 7: {n} fuzzed score vectors; N finalizes without "
          "waking iff it is the strict unique minimum below the invalid band")


def test_criterion_08_long_period_optimum_is_interior():
    table = RatesTable.from_csv(default_rates_fixture())
    result = sweep(EnergyParams(), table.vdds, [1.0], table)
    best = result.argmin(1.0)
    assert min(table.vdds) < best.vdd < max(table.vdds)
    ratio = best.e_baseline / best.e_avg
    assert abs(ratio / 2.4 - 1.0) <= 0.20
    print(f"PASS criterion 8: t_s=1 s argmin vdd={best.vdd} is interior; "
          f"baseline/e_avg = {ratio:.4f} (within 20% of 2.4)")


def _exact_integer_forward(x_q, model):
    """Arbitrary-precision reference for the int8 pipeline."""
    x = [int(v) for v in x_q]
    logits = None
    for layer in model.layers:
        acc = []
        for i in range(layer.w_q.shape[0]):
            s = int(layer.b_q[i])
            row = layer.w_q[i]
            for j, xv in enumerate(x):
                s += int(row[j]) * (xv - layer.zp_in)
            acc.append(s)
        if layer.s_out is None:
            logits = acc
        else:
            multiplier = layer.s_in * layer.s_w / layer.s_out
            x = [min(127, max(-128, round(a * multiplier) + layer.zp_out))
                 for a in acc]
    pred = max(range(len(logits)), key=lambda i: (logits[i], -i))
    return pred, logits


def test_criterion_09_mlp_accuracy_gradients_and_bit_identity(bench_backend, bench_test):
    mags, labels = bench_test
    deq = np.array([
        bench_backend.input_quantizer.dequantize(bench_backend.input_quantizer(row[list(bench_backend.bins)]))
        for row in mags
    ])
    acc_float = float(np.mean(bench_backend.model.float_ref.predict(deq) == labels))
    acc_int = float(np.mean(bench_backend.predict_features(mags, np.arange(len(mags))) == labels))
    assert acc_float >= 0.98
    assert abs(acc_int - acc_float) <= 0.02

    rng = np.random.default_rng(909)
    x = rng.normal(size=(10, 6))
    y = rng.integers(0, 4, size=10)
    model = train_mlp(x, y, TrainConfig(epochs=0, seed=9), hidden_dims=(5,))
    _, grads_w, _ = loss_and_grads(model, x, y)
    h = 1e-6
    worst = 0.0
    for layer in range(len(model.weights)):
        for idx in np.ndindex(model.weights[layer].shape):
            orig = model.weights[layer][idx]
            model.weights[layer][idx] = orig + h
            hi = loss_and_grads(model, x, y)[0]
            model.weights[layer][idx] = orig - h
            lo = loss_and_grads(model, x, y)[0]
            model.weights[layer][idx] = orig
            fd = (hi - lo) / (2.0 * h)
            g = grads_w[layer][idx]
            worst = max(worst, abs(fd - g) / max(1.0, abs(g)))
    assert worst <= 1e-4

    for _ in range(50):
        x_q = rng.integers(-128, 128, size=bench_backend.model.dims[0]).astype(np.int8)
        pred, logits = (v[0] for v in mlp_forward(x_q[None], bench_backend.model))
        o_pred, o_logits = _exact_integer_forward(x_q, bench_backend.model)
        assert pred == o_pred
        assert [int(v) for v in logits] == o_logits
    print(f"PASS criterion 9: float acc {acc_float:.4f} >= 0.98, int8 acc "
          f"{acc_int:.4f} within 2pp, worst gradient error {worst:.2e} <= 1e-4, "
          "integer inference bit-identical to the exact reference")


def test_criterion_10_wfdb_parsers_round_trip():
    rng = np.random.default_rng(1010)
    samples = rng.integers(-2048, 2048, size=(2, 10_000))
    assert np.array_equal(decode_212(encode_212(samples), 10_000), samples)
    gaps = rng.integers(0, 3000, size=3000)
    symbols = rng.choice(list("NLR/"), size=3000)
    pairs = [(int(t), str(s)) for t, s in zip(np.cumsum(gaps), symbols)]
    assert read_annotations(encode_annotations(pairs)) == pairs
    print("PASS criterion 10: 10^4 sample pairs and 3000 annotations "
          "round-trip exactly")


def test_criterion_11_macro_f1_matches_counting_oracle():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(1000):
        counts = rng.integers(0, 25, size=(4, 4))
        counts[1, 1] += 1  # keep every abnormal class present so the
        counts[2, 2] += 1  # macro average stays defined
        counts[3, 3] += 1
        got = macro_f1_abnormal(ConfusionMatrix(counts))
        f1s = []
        for c in (1, 2, 3):
            tp = int(counts[c, c])
            fp = int(counts[:, c].sum()) - tp
            fn = int(counts[c, :].sum()) - tp
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
        worst = max(worst, abs(got - sum(f1s) / 3))
    assert worst <= 1e-12
    print(f"PASS criterion 11: 1000 random matrices, worst |macro-F1 - oracle| "
          f"= {worst:.2e} <= 1e-12")


MITBIH_DIR = os.environ.get("WAKESIM_MITBIH_DIR", "")


@pytest.mark.skipif(not MITBIH_DIR, reason="optional real-recording check; "
                    "set WAKESIM_MITBIH_DIR to a directory of .hea/.dat/.atr files")
def test_criterion_12_real_recordings_front_end_floor():
    beats, skipped = ingest_wfdb_dir(MITBIH_DIR)
    dataset = balanced_split(beats, 3200, 800, seed=0)
    train_mags, train_labels = feature_matrix(dataset.train)
    ranked = chi2_rank(train_mags, train_labels)
    model = fit_bayes_model(train_mags, train_labels, ranked)
    backend = fit_backend(train_mags, train_labels, ranked, TrainConfig(seed=3))
    stream = run_stream(dataset.test, model, IdealReader(model), backend, WakePolicy())
    front = macro_f1_abnormal(stream.front_confusion())
    system = macro_f1_abnormal(stream.system_confusion())
    assert front >= 0.85
    assert system >= front
    print(f"PASS criterion 12: real recordings ({len(beats)} beats, {skipped} "
          f"skipped) front macro-F1 {front:.4f} >= 0.85, system {system:.4f} >= front")
