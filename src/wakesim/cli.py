"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure. Errors print one machine-parsable line on stderr:
``wakesim: error: <kind>: <message>``.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import asdict, replace

import click
import numpy as np

from . import bayesfront, config as cfg, energymodel, memsim, mlpback, report as reportmod
from .artifacts import load_npz, reading
from .data import default_rates_fixture
from .datapipe import beats as beatsmod
from .datapipe import features as featmod
from .datapipe.synthetic import synth_dataset
from .errors import ConfigError, DataError, WakesimError
from .wakectl import WakePolicy, run_stream, wake_stats


def _fail(kind: str, message: str, code: int):
    click.echo(f"wakesim: error: {kind}: {message}", err=True)
    sys.exit(code)


def cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            _fail("config", str(exc), 2)
        except DataError as exc:
            _fail("data", str(exc), 3)
        except (WakesimError, OSError, ValueError) as exc:
            _fail("runtime", str(exc), 4)
    return wrapper


@click.group()
def main():
    """Simulator and benchmark harness for the wake-up inference system."""


# ---------------------------------------------------------------------------
# prepare-data
# ---------------------------------------------------------------------------

SOURCES = ("synthetic", "wfdb", "csv")


@main.command("prepare-data")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--source", type=click.Choice(SOURCES), default=None)
@click.option("--seed", type=int, default=None, help="Dataset seed (synthetic generation or split).")
@click.option("--beats-per-class", type=int, default=None)
@click.option("--test-per-class", type=int, default=None)
@click.option("--noise-sigma", type=float, default=None)
@click.option("--wfdb-dir", type=click.Path(exists=True, file_okay=False), default=None)
@click.option("--train-csv", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--test-csv", type=click.Path(exists=True, dir_okay=False), default=None)
@cli_errors
def prepare_data(out_dir, config_path, source, seed, beats_per_class, test_per_class,
                 noise_sigma, wfdb_dir, train_csv, test_csv):
    """Build a dataset split and its feature cache."""
    parser = cfg.load_config(config_path, dataset=dict(
        source=source, seed=seed, beats_per_class=beats_per_class,
        test_per_class=test_per_class, noise_sigma=noise_sigma))
    source = cfg.get(parser, "dataset", "source")
    seed, beats_per_class, test_per_class = (
        cfg.get(parser, "dataset", key, int) for key in ("seed", "beats_per_class", "test_per_class"))
    noise_sigma = cfg.get(parser, "dataset", "noise_sigma", float)
    for ok, rule in ((source in SOURCES, f"source must be one of {', '.join(SOURCES)}"),
                     (seed >= 0, "seed must be nonnegative"),
                     (beats_per_class >= 1, "beats_per_class must be at least 1"),
                     (test_per_class >= 0, "test_per_class must be nonnegative"),
                     (math.isfinite(noise_sigma) and noise_sigma >= 0,
                      "noise_sigma must be finite and nonnegative")):
        if not ok:
            raise ConfigError(f"[dataset]: {rule}")

    if source == "synthetic":
        ds = synth_dataset(seed, beats_per_class, noise_sigma, test_per_class)
    elif source == "wfdb":
        if wfdb_dir is None:
            raise ConfigError("--wfdb-dir is required with source=wfdb")
        all_beats, skipped = beatsmod.ingest_wfdb_dir(wfdb_dir)
        click.echo(f"ingested {len(all_beats)} beats ({skipped} skipped at record edges)")
        ds = beatsmod.balanced_split(all_beats, beats_per_class, test_per_class, seed)
    else:
        if train_csv is None or test_csv is None:
            raise ConfigError("--train-csv and --test-csv are required with source=csv")
        ds = beatsmod.Dataset(
            train=beatsmod.read_beats_csv(train_csv),
            test=beatsmod.read_beats_csv(test_csv),
            seed=seed,
        )

    os.makedirs(out_dir, exist_ok=True)
    beatsmod.write_beats_csv(os.path.join(out_dir, "test.csv"), ds.test)
    beatsmod.write_manifest(os.path.join(out_dir, "manifest.json"), ds)
    train_mags, train_labels = featmod.feature_matrix(ds.train)
    test_mags, test_labels = featmod.feature_matrix(ds.test)
    np.savez(
        os.path.join(out_dir, "features.npz"),
        train_mags=train_mags, train_labels=train_labels,
        test_mags=test_mags, test_labels=test_labels,
    )
    click.echo(f"train {ds.class_counts('train')} test {ds.class_counts('test')} -> {out_dir}")


def _load_features(data_dir: str):
    """(train_mags, train_labels, test_mags, test_labels) of the feature cache.

    Each split must hold an (n, FEATURE_LEN) matrix of finite, nonnegative
    magnitudes and n integer labels in 0..N_CLASSES-1. The train split must
    hold every class at least once; the test split may lack classes.
    """
    path = os.path.join(data_dir, "features.npz")
    if not os.path.exists(path):
        raise DataError(f"{path} not found; run prepare-data first")
    arrays = []
    with reading(path, "feature cache"), load_npz(path) as npz:
        for split in ("train", "test"):
            mags, labels = npz[f"{split}_mags"], npz[f"{split}_labels"]
            if mags.ndim != 2 or mags.shape[1] != featmod.FEATURE_LEN:
                raise ValueError(f"{split}_mags has shape {mags.shape}, "
                                 f"expected (n, {featmod.FEATURE_LEN})")
            if labels.shape != (len(mags),):
                raise ValueError(f"{split}_labels has shape {labels.shape}, expected ({len(mags)},)")
            if not np.issubdtype(mags.dtype, np.floating) or not np.issubdtype(labels.dtype, np.integer):
                raise TypeError(f"{split} arrays are {mags.dtype}/{labels.dtype}, expected float/int")
            if not np.isfinite(mags).all() or (mags < 0).any():
                raise ValueError(f"{split}_mags holds a negative or non-finite magnitude")
            if len(labels) and not 0 <= labels.min() <= labels.max() < beatsmod.N_CLASSES:
                raise ValueError(f"{split}_labels must lie in 0..{beatsmod.N_CLASSES - 1}")
            absent = np.setdiff1d(np.arange(beatsmod.N_CLASSES), labels)
            if split == "train" and len(absent):
                raise ValueError(f"train_labels hold no beat of class {absent[0]}; "
                                 "training needs every class")
            arrays += [mags.astype(np.float64, copy=False), labels.astype(np.int64, copy=False)]
    return tuple(arrays)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@main.command()
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--seed", type=int, default=None, help="Training seed (init and batch order).")
@click.option("--epochs", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--batch-size", type=int, default=None)
@cli_errors
def train(data_dir, out_dir, config_path, seed, epochs, lr, batch_size):
    """Fit the front-end code table and the int8 back end."""
    parser = cfg.load_config(config_path, train=dict(lr=lr, epochs=epochs, batch_size=batch_size, seed=seed))
    codec = cfg.settings(parser, "codec", bayesfront.LogCodec)
    train_config = cfg.settings(parser, "train", mlpback.TrainConfig)
    train_mags, train_labels, test_mags, test_labels = _load_features(data_dir)
    ranked = featmod.chi2_rank(train_mags, train_labels)
    # A constant bin scores 0, so the front end takes one only when few bins tell the classes apart.
    with reading(os.path.join(data_dir, "features.npz"), "feature cache"):
        for b, _ in ranked[:bayesfront.N_FEATURES]:
            if np.ptp(train_mags[:, b]) == 0:
                raise ValueError(f"train_mags bin {b} holds the same value for every beat; "
                                 "the front end cannot quantize a constant bin")

    model = bayesfront.fit_bayes_model(train_mags, train_labels, ranked, codec)
    clf = mlpback.fit_backend(train_mags, train_labels, ranked, train_config)

    os.makedirs(out_dir, exist_ok=True)
    bayesfront.save_bayes_model(os.path.join(out_dir, "bayes_model.json"), model)
    mlpback.save_classifier(os.path.join(out_dir, "mlp_model.json"), clf)

    every_row = np.arange(len(test_labels))
    mlp_acc = (float(np.mean(clf.predict_features(test_mags, every_row) == test_labels))
               if len(test_labels) else None)
    click.echo(f"front-end bins {list(model.feature_bins)}")
    click.echo(f"back-end int8 test accuracy {reportmod.fmt(mlp_acc)}")
    click.echo(f"models -> {out_dir}")


# ---------------------------------------------------------------------------
# program
# ---------------------------------------------------------------------------

@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--preset", type=str, default=None, help="Operating regime preset (A, B, or C).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--seed", type=int, default=None, help="Programming seed (device draws).")
@cli_errors
def program(model_path, out_path, preset, config_path, seed):
    """Program the code table into a simulated resistive array."""
    parser = cfg.load_config(config_path, seeds=dict(program=seed))
    op, dists, noise = cfg.build_operating_setup(parser, preset)
    seed = cfg.get(parser, "seeds", "program", int)
    if seed < 0:
        raise ConfigError("[seeds] program: must be nonnegative")
    model = bayesfront.load_bayes_model(model_path)
    state = memsim.program_arrays(model, dists, op.vddr, seed)
    memsim.save_array_state(out_path, state, op, noise)
    eps = noise.flip_probability(memsim.margins(state), op.vdd)
    click.echo(
        f"programmed {state.codes.size} words at vddr={op.vddr} "
        f"(vdd={op.vdd}, mean bit error {float(eps.mean()):.3e}) -> {out_path}"
    )


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@main.command()
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--bayes", "bayes_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mlp", "mlp_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--array-state", "state_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--ideal", is_flag=True, help="Use the fault-free word reader.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--seed", type=int, default=None, help="Read-noise seed.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@cli_errors
def run(data_dir, bayes_path, mlp_path, state_path, ideal, config_path, seed, out_dir):
    """Stream the test split through the wake-up system."""
    if (state_path is None) == (not ideal):
        raise ConfigError("choose exactly one of --array-state or --ideal")
    # --seed stays out of the parser, whose sections report.json records as config.
    parser = cfg.load_config(config_path)
    if seed is None:
        seed = cfg.get(parser, "seeds", "read", int)
    if not 0 <= seed <= memsim.READ_SEED_MAX:
        raise ConfigError(f"[seeds] read: must lie in 0..{memsim.READ_SEED_MAX}")
    policy = cfg.settings(parser, "policy", WakePolicy)
    test_csv = os.path.join(data_dir, "test.csv")
    if not os.path.exists(test_csv):
        raise DataError(f"{test_csv} not found; run prepare-data first")
    test_beats = beatsmod.read_beats_csv(test_csv)
    model = bayesfront.load_bayes_model(bayes_path)
    clf = mlpback.load_classifier(mlp_path)
    if ideal:
        reader = bayesfront.IdealReader(model)
        regime = "ideal"
    else:
        state, op, noise = memsim.load_array_state(state_path)
        if not np.array_equal(state.codes, model.codes):
            raise DataError("array state was programmed from a different code table")
        reader = memsim.MemristorReader(state, op, noise, seed)
        regime = op.label or f"vdd={op.vdd},vddr={op.vddr}"

    result = run_stream(test_beats, model, reader, clf, policy)
    stats = wake_stats(result)

    # Energy at the run's operating supply from the measured wake rates.
    params = cfg.settings(parser, "energy", energymodel.EnergyParams)
    vdd_run = params.vdd_nominal if ideal else op.vdd
    energy_rows = None
    if stats.p_wake_abnormal is not None and stats.p_wake_normal is not None:
        rates = energymodel.WakeRates(stats.p_wake_abnormal, stats.p_wake_normal)
        row = energymodel.sweep(params, [vdd_run], [params.t_s], lambda _vdd: rates).rows[0]
        if row.failed:
            raise WakesimError(row.error)
        energy_rows = [{k: v for k, v in asdict(row).items() if k not in ("failed", "error")}]

    os.makedirs(out_dir, exist_ok=True)
    result.write_trace(os.path.join(out_dir, "trace.csv"))
    doc = reportmod.build_report(
        stream=result,
        energy_rows=energy_rows,
        config={"regime": regime, **cfg.config_as_dict(parser)},
        seeds={"read": seed},
    )
    if not ideal:  # the run reads the state's operating point and seed, not the config's
        doc["array_state"] = {"label": op.label, "vdd": op.vdd, "vddr": state.vddr,
                              "program_seed": state.seed}
    reportmod.save_report(os.path.join(out_dir, "report.json"), doc)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(reportmod.render_report(doc))

    front = reportmod.fmt(doc["front_end"]["macro_f1_abnormal"])
    system = reportmod.fmt(doc["system"]["macro_f1_abnormal"])
    click.echo(f"regime {regime}: front macro-F1 {front}, system macro-F1 {system}")
    click.echo(
        f"p(wake|abnormal)={stats.p_wake_abnormal} p(wake|normal)={stats.p_wake_normal} "
        f"backend_errors={result.backend_errors}"
    )
    click.echo(f"trace + report -> {out_dir}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _grid(flag: str, text: str) -> list[float]:
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: non-numeric entry in {text!r}")
    if not grid:
        raise ConfigError(f"{flag}: empty grid")
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"{flag}: non-finite entry in {text!r}")
    return grid


@main.command()
@click.option("--rates", "rates_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Wake-rate CSV (vdd,vddr,p_wake_abn,p_wake_n); bundled table by default.")
@click.option("--vdd", "vdd_list", type=str, default=None, help="Comma-separated vdd grid.")
@click.option("--ts", "ts_list", type=str, default="2.0e-3,1.0", help="Comma-separated t_s grid.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@cli_errors
def sweep(rates_path, vdd_list, ts_list, config_path, out_path):
    """Evaluate the energy model over a vdd x t_s grid."""
    params = cfg.settings(cfg.load_config(config_path), "energy", energymodel.EnergyParams)
    rates = energymodel.RatesTable.from_csv(rates_path or default_rates_fixture())
    vdd_grid = rates.vdds if vdd_list is None else _grid("--vdd", vdd_list)
    if vdd_list is not None and min(vdd_grid) <= 0:
        raise ConfigError(f"--vdd: {min(vdd_grid):g} is not positive")
    ts_grid = _grid("--ts", ts_list)
    for t_s in ts_grid:
        try:
            replace(params, t_s=t_s)
        except ValueError as exc:
            raise ConfigError(f"--ts: {exc}")
    result = energymodel.sweep(params, vdd_grid, ts_grid, rates)
    bests = [result.argmin(t_s) for t_s in ts_grid]
    for row in result.rows:
        if row.failed:
            click.echo(f"wakesim: warning: sweep point vdd={row.vdd:g} t_s={row.t_s:g} "
                       f"failed: {row.error}", err=True)
    energymodel.write_sweep_csv(out_path, result)
    for t_s, best in zip(ts_grid, bests):
        ratio = best.e_baseline / best.e_avg
        click.echo(
            f"t_s={t_s:g}: argmin vdd={best.vdd:g} e_avg={best.e_avg:.4e} J "
            f"baseline={best.e_baseline:.4e} J ratio={ratio:.2f}"
        )
    click.echo(f"sweep -> {out_path}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@main.command("report")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@cli_errors
def report_cmd(path):
    """Render a stored report.json for reading."""
    doc = reportmod.load_report(path)
    click.echo(reportmod.render_report(doc), nl=False)


if __name__ == "__main__":
    main()
