#!/usr/bin/env python3
"""Stress the wake-up system across the three shipped operating regimes.

Trains the benchmark system once, then streams the same test split through
arrays programmed and read at presets A (nominal), B (programming supply
lowered to 1.5 V) and C (read supply lowered to 0.8 V). Prints
classification, wake, and energy numbers side by side; the point of the
exercise is that the system column barely moves while the front-end column
collapses.
"""

import argparse

from wakesim import memsim
from wakesim.bayesfront import fit_bayes_model
from wakesim.datapipe.features import chi2_rank, feature_matrix
from wakesim.datapipe.synthetic import synth_dataset
from wakesim.energymodel import EnergyParams, WakeRates, e_avg, e_baseline
from wakesim.metrics import macro_f1_abnormal
from wakesim.mlpback import TrainConfig, fit_backend
from wakesim.wakectl import run_stream, wake_stats


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beats-per-class", type=int, default=800)
    ap.add_argument("--test-per-class", type=int, default=800)
    ap.add_argument("--noise-sigma", type=float, default=0.05)
    ap.add_argument("--dataset-seed", type=int, default=11)
    ap.add_argument("--train-seed", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--program-seed", type=int, default=5)
    ap.add_argument("--read-seed", type=int, default=7)
    args = ap.parse_args()

    print(f"dataset: seed {args.dataset_seed}, {args.beats_per_class}/class train, "
          f"{args.test_per_class}/class test, noise sigma {args.noise_sigma}")
    dataset = synth_dataset(args.dataset_seed, args.beats_per_class,
                            args.noise_sigma, args.test_per_class)
    train_mags, train_labels = feature_matrix(dataset.train)
    ranked = chi2_rank(train_mags, train_labels)
    model = fit_bayes_model(train_mags, train_labels, ranked)
    backend = fit_backend(train_mags, train_labels, ranked,
                          TrainConfig(epochs=args.epochs, seed=args.train_seed))
    print(f"front-end bins {list(model.feature_bins)}")

    params = EnergyParams()
    header = (f"{'regime':>6} {'vdd':>5} {'vddr':>5} {'bit err':>9} {'front F1':>9} "
              f"{'system F1':>10} {'p(w|abn)':>9} {'p(w|n)':>8} {'e_avg J':>10} {'save':>7}")
    print(header)
    print("-" * len(header))
    for name in ("A", "B", "C"):
        op, dists, noise = memsim.regime_preset(name)
        state = memsim.program_arrays(model, dists, op.vddr, seed=args.program_seed)
        reader = memsim.MemristorReader(state, op, noise, seed=args.read_seed)
        eps = float(noise.flip_probability(memsim.margins(state), op.vdd).mean())
        stream = run_stream(dataset.test, model, reader, backend)
        stats = wake_stats(stream)
        front = macro_f1_abnormal(stream.front_confusion())
        system = macro_f1_abnormal(stream.system_confusion())
        rates = WakeRates(stats.p_wake_abnormal, stats.p_wake_normal)
        energy = e_avg(params, op.vdd, rates).total
        saving = e_baseline(params, op.vdd) / energy
        print(f"{name:>6} {op.vdd:>5.2f} {op.vddr:>5.2f} {eps:>9.2e} {front:>9.4f} "
              f"{system:>10.4f} {stats.p_wake_abnormal:>9.4f} "
              f"{stats.p_wake_normal:>8.4f} {energy:>10.3e} {saving:>6.1f}x")


if __name__ == "__main__":
    main()
