"""The three benchmark workloads and their output checks.

walkthrough    the README CLI walkthrough, each command a child process
regime_stream  the full test split through the ideal reader and presets A, B, C
rates_grid     program seeds x vddr x vdd grid of short streams, then the energy sweep

Each workload has `setup(tag, tracer)` (returns host seconds), `measure(tag,
tracer)` (returns host seconds of the measured phase and the beats it passed
through `run_stream`) and `check(tag)` (adds output-check failures to the
ledger). Every call into a wakesim layer goes through a module attribute, so
the wrappers `tracing.instrument` installs see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from .tracing import SPAN_OUT_ENV

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS_PATH = Path(__file__).resolve().parent / "pinned.json"

# Acceptance criterion 6: the front end collapses on B and C, the system does not.
FRONT_F1_MIN_A = 0.99
FRONT_F1_MAX_BC = 0.75
SYSTEM_F1_MIN = 0.95

GRID_VDDRS = (1.5, 2.4)
GRID_ARRAYS_PER_VDDR = 3
GRID_TS = (2.0e-3, 1.0)
# The ideal run's report records its read seed, so it always gets the README
# one; the ideal reader draws no noise, so the seed changes nothing else.
IDEAL_READ_SEED = 7
CHILD_TIMEOUT_S = 150.0

# On a shared host the interpreter's speed swings by up to 1.7x for tens of
# seconds at a time. Timing a fixed piece of work before and after every
# operation lets the operation's host time be scaled to one reference speed:
# the one at which the probe takes PROBE_REF_S.
PROBE_REF_S = 0.008


def probe() -> float:
    """Host seconds of fixed work like the simulator's hot path, but no wakesim code.

    An interpreted integer loop, small-array numpy calls, and short-lived
    Philox generators, as in a per-read `MemristorReader` call.
    """
    import numpy as np  # here, so that importing this module stays out of set-up time

    t0 = perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i % 7
    a = np.zeros(8)
    for _ in range(1_000):
        a = np.sqrt(a + 1.0)
    for i in range(100):
        np.random.Generator(np.random.Philox(key=i)).random(8)
    return perf_counter() - t0


@dataclass(frozen=True)
class Config:
    """Inputs of one run. The defaults are the README configuration.

    The workload seed moves only the noisy path (program seeds, read seed,
    the rates_grid subset), so the ideal-path files stay pinnable.
    """

    dataset_seed: int = 11
    beats_per_class: int = 800
    test_per_class: int = 800
    noise_sigma: float = 0.05
    train_seed: int = 3
    epochs: int = 200
    program_seed: int = 5
    read_seed: int = 7
    subset_seed: int = 0
    grid_per_class: int = 25

    @classmethod
    def for_seed(cls, seed: int, **overrides) -> "Config":
        if seed < 0:
            raise ValueError("--seed must be nonnegative")
        base = cls(**overrides)
        return cls(**{**asdict(base), "program_seed": base.program_seed + seed,
                      "read_seed": base.read_seed + seed, "subset_seed": seed})

    @property
    def pin_key(self) -> str:
        """The fields the pinned ideal-path digests depend on."""
        return (f"dataset_seed={self.dataset_seed},beats_per_class={self.beats_per_class},"
                f"test_per_class={self.test_per_class},noise_sigma={self.noise_sigma},"
                f"train_seed={self.train_seed},epochs={self.epochs}")


def load_pins(cfg: Config) -> dict[str, str]:
    """Pinned sha256 digests of the ideal path for this config, or {}."""
    with open(PINS_PATH) as fh:
        return json.load(fh).get(cfg.pin_key, {})


def sha256(path) -> str:
    """sha256 of a file; of an .npz, of its members, since zip headers carry write times."""
    h = hashlib.sha256()
    if Path(path).suffix == ".npz":
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode())
                h.update(zf.read(name))
        return h.hexdigest()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Ledger:
    """Attempted operations, their host times and the failures recorded against each."""

    def __init__(self):
        self.ops: dict[str, list[str]] = {}
        self.seconds: dict[str, float] = {}
        self.scaled_seconds: dict[str, float] = {}
        self._probe = (float("-inf"), 0.0)  # (taken at, seconds)

    def _probe_before(self) -> float:
        """The probe just taken after the previous operation, or a fresh one."""
        taken_at, seconds = self._probe
        return seconds if perf_counter() - taken_at < 0.05 else probe()

    def _probe_after(self) -> float:
        seconds = probe()
        self._probe = (perf_counter(), seconds)
        return seconds

    @contextlib.contextmanager
    def op(self, name: str):
        """Run and time one operation; an exception is recorded as its failure, not raised.

        `scaled_seconds` holds the time at the reference speed, taken from
        the probe run just before and just after the operation.
        """
        self.ops.setdefault(name, [])
        before = self._probe_before()
        t0 = perf_counter()
        try:
            yield
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.ops[name].append(f"raised {type(exc).__name__}: {exc}")
        finally:
            elapsed = perf_counter() - t0
            self.seconds[name] = elapsed
            self.scaled_seconds[name] = elapsed * PROBE_REF_S / ((before + self._probe_after()) / 2)

    def check(self, name: str, ok: bool, message: str) -> None:
        self.ops.setdefault(name, [])
        if not ok:
            self.ops[name].append(message)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for failures in self.ops.values() if failures)

    def failures(self) -> dict[str, list[str]]:
        return {name: f for name, f in self.ops.items() if f}


def check_pins(ledger: Ledger, op: str, pins: dict[str, str], files: dict[str, Path]) -> None:
    for key, path in files.items():
        if key in pins:
            got = sha256(path) if path.exists() else "missing"
            ledger.check(op, got == pins[key], f"{key}: sha256 {got} != pinned {pins[key]}")


def check_bands(ledger: Ledger, op: str, regime: str, front: float, system: float) -> None:
    if regime == "A":
        ledger.check(op, front >= FRONT_F1_MIN_A, f"front macro-F1 {front:.4f} < {FRONT_F1_MIN_A}")
    else:
        ledger.check(op, front <= FRONT_F1_MAX_BC, f"front macro-F1 {front:.4f} > {FRONT_F1_MAX_BC}")
    ledger.check(op, system >= SYSTEM_F1_MIN, f"system macro-F1 {system:.4f} < {SYSTEM_F1_MIN}")


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

class InProcess:
    """Set-up shared by regime_stream and rates_grid.

    Set-up is import + synth_dataset + feature_matrix + chi2_rank +
    fit_bayes_model + fit_backend. The import happens once per process, so
    set-up time is import_s plus the median of the repeated builds.
    """

    setup_reps = 2

    def __init__(self, cfg: Config, out: Path, ledger: Ledger, pins: dict[str, str]):
        self.cfg, self.out, self.ledger, self.pins = cfg, out, ledger, pins
        self.import_s = None
        self.decision_changes: dict[str, int] = {}

    def _import(self) -> None:
        t0 = perf_counter()
        import wakesim.bayesfront as bayesfront
        import wakesim.datapipe.beats as beats
        import wakesim.datapipe.features as features
        import wakesim.datapipe.synthetic as synthetic
        import wakesim.energymodel as energymodel
        import wakesim.memsim as memsim
        import wakesim.mlpback as mlpback
        import wakesim.report as report
        import wakesim.wakectl as wakectl
        self.import_s = perf_counter() - t0
        self.bayesfront, self.beats, self.features, self.synthetic = bayesfront, beats, features, synthetic
        self.energymodel, self.memsim, self.mlpback = energymodel, memsim, mlpback
        self.report, self.wakectl = report, wakectl

    def setup(self, tag: str, tracer=None) -> float:
        if self.import_s is None:
            self._import()
        cfg = self.cfg
        t0 = perf_counter()
        ds = self.synthetic.synth_dataset(cfg.dataset_seed, cfg.beats_per_class, cfg.noise_sigma,
                                          cfg.test_per_class)
        mags, labels = self.features.feature_matrix(ds.train)
        ranked = self.features.chi2_rank(mags, labels)
        model = self.bayesfront.fit_bayes_model(mags, labels, ranked, self.bayesfront.LogCodec())
        clf = self.mlpback.fit_backend(mags, labels, ranked,
                                       self.mlpback.TrainConfig(epochs=cfg.epochs, seed=cfg.train_seed))
        elapsed = perf_counter() - t0
        self.test, self.model, self.clf = ds.test, model, clf
        models = self.out / tag / "model"
        models.mkdir(parents=True, exist_ok=True)
        self.bayesfront.save_bayes_model(str(models / "bayes_model.json"), model)
        self.mlpback.save_classifier(str(models / "mlp_model.json"), clf)
        self.models = models
        return elapsed

    def setup_seconds(self, builds: list[float]) -> float:
        return self.import_s + statistics.median(builds)

    def _stream(self, beats, reader, vdd: float, regime: str, directory: Path, config: dict):
        """run_stream -> wake_stats -> energy at the stream's vdd -> report, trace and report files."""
        wakectl, energymodel = self.wakectl, self.energymodel
        result = wakectl.run_stream(beats, self.model, reader, self.clf)
        stats = wakectl.wake_stats(result)
        rates = energymodel.WakeRates(stats.p_wake_abnormal, stats.p_wake_normal)
        params = energymodel.EnergyParams()
        priced = energymodel.sweep(params, [vdd], [params.t_s], lambda _vdd: rates)
        energy_rows = [{k: v for k, v in asdict(r).items() if k not in ("failed", "error")}
                       for r in priced.rows if not r.failed]
        doc = self.report.build_report(stream=result, energy_rows=energy_rows,
                                       config={"regime": regime, **config}, seeds={"read": self.cfg.read_seed})
        directory.mkdir(parents=True, exist_ok=True)
        result.write_trace(str(directory / "trace.csv"))
        self.report.save_report(str(directory / "report.json"), doc)
        return result, doc, priced

    def _count_changes(self, label: str, result, ideal) -> None:
        changed = sum(a.front_pred != b.front_pred for a, b in zip(result.outcomes, ideal.outcomes))
        self.decision_changes[label] = self.decision_changes.get(label, 0) + changed

    def csv_probe(self, tag: str) -> None:
        """Write and read back the test split as beats CSV (datapipe.beats attribution)."""
        directory = self.out / tag / "csv_probe"
        directory.mkdir(parents=True, exist_ok=True)
        path = str(directory / "test.csv")
        self.beats.write_beats_csv(path, self.test)
        with self.ledger.op(f"{tag}/csv_probe"):
            back = self.beats.read_beats_csv(path)
            self.ledger.check(f"{tag}/csv_probe", len(back) == len(self.test), "CSV round trip lost beats")
        os.remove(path)

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RegimeStream(InProcess):
    """The 3200-beat test split through the ideal reader and presets A, B, C."""

    REGIMES = ("ideal", "A", "B", "C")

    def measure(self, tag: str, tracer=None):
        self.results = {}
        t0 = perf_counter()
        for regime in self.REGIMES:
            with self.ledger.op(f"{tag}/{regime}"):
                if regime == "ideal":
                    reader = self.bayesfront.IdealReader(self.model)
                    vdd = self.energymodel.EnergyParams().vdd_nominal
                else:
                    op, dists, noise = self.memsim.regime_preset(regime)
                    state = self.memsim.program_arrays(self.model, dists, op.vddr, self.cfg.program_seed)
                    reader = self.memsim.MemristorReader(state, op, noise, self.cfg.read_seed)
                    vdd = op.vdd
                self.results[regime] = self._stream(
                    self.test, reader, vdd, regime, self.out / tag / regime,
                    {"program_seed": self.cfg.program_seed})
        wall = perf_counter() - t0
        return wall, sum(r[0].n for r in self.results.values())

    def check(self, tag: str) -> None:
        ledger = self.ledger
        for regime in self.REGIMES:
            op = f"{tag}/{regime}"
            if regime not in self.results:
                continue
            result, doc, priced = self.results[regime]
            ledger.check(op, result.backend_errors == 0, f"{result.backend_errors} back-end errors")
            ledger.check(op, not any(r.failed for r in priced.rows), "energy point failed")
            if regime == "ideal":
                check_pins(ledger, op, self.pins, {
                    "run_ideal/trace.csv": self.out / tag / regime / "trace.csv",
                    "bayes_model.json": self.models / "bayes_model.json",
                    "mlp_model.json": self.models / "mlp_model.json",
                })
            else:
                check_bands(ledger, op, regime, doc["front_end"]["macro_f1_abnormal"],
                            doc["system"]["macro_f1_abnormal"])
                self._count_changes(regime, result, self.results["ideal"][0])

    def noisy_digests(self, tag: str) -> dict[str, str]:
        return {f"{r}/{name}": sha256(self.out / tag / r / name)
                for r in self.REGIMES[1:] for name in ("trace.csv", "report.json")
                if (self.out / tag / r / name).exists()}


class RatesGrid(InProcess):
    """Simulated wake rates over vddr x program seed x vdd, priced by the energy sweep."""

    def setup(self, tag: str, tracer=None) -> float:
        elapsed = super().setup(tag, tracer)
        import numpy as np
        rng = np.random.default_rng(self.cfg.subset_seed)
        labels = np.array([b.label for b in self.test])
        picks = np.concatenate([
            rng.choice(np.flatnonzero(labels == c), self.cfg.grid_per_class, replace=False)
            for c in np.unique(labels)
        ])
        self.subset = [self.test[i] for i in sorted(picks.tolist())]
        fixture = self.energymodel.RatesTable.from_csv(_default_rates_fixture())
        self.vdds = fixture.vdds
        return elapsed

    def measure(self, tag: str, tracer=None):
        memsim, energymodel = self.memsim, self.energymodel
        out = self.out / tag
        _, dists, noise = memsim.regime_preset("A")
        self.streams, self.labels, self.sweeps = {}, {}, {}
        rates: dict[tuple[float, float], list] = {}
        beats = 0
        t0 = perf_counter()
        with self.ledger.op(f"{tag}/ideal"):
            ideal = self.bayesfront.IdealReader(self.model)
            vdd_nominal = energymodel.EnergyParams().vdd_nominal
            self.streams["ideal"] = self._stream(self.subset, ideal, vdd_nominal, "ideal",
                                                 out / "ideal", {})
            beats += len(self.subset)
        for vddr in GRID_VDDRS:
            for k in range(GRID_ARRAYS_PER_VDDR):
                program_seed = self.cfg.program_seed + k
                state = None
                for vdd in self.vdds:
                    name = f"vddr={vddr:g},seed={program_seed},vdd={vdd:g}"
                    with self.ledger.op(f"{tag}/{name}"):
                        if state is None:
                            state = memsim.program_arrays(self.model, dists, vddr, program_seed)
                        op = memsim.OperatingPoint(vdd=vdd, vddr=vddr)
                        reader = memsim.MemristorReader(state, op, noise, self.cfg.read_seed)
                        stream = self._stream(self.subset, reader, vdd, name, out / "points" / name,
                                              {"program_seed": program_seed, "vddr": vddr})
                        self.streams[name] = stream
                        self.labels[name] = f"vdd={vdd:g},vddr={vddr:g}"
                        rates.setdefault((vddr, vdd), []).append(stream[0])
                        beats += len(self.subset)
        with self.ledger.op(f"{tag}/sweep"):
            self._sweep(out, rates)
        return perf_counter() - t0, beats

    def _sweep(self, out: Path, rates: dict) -> None:
        """Average the grid's wake rates over seeds and price them with energymodel.sweep."""
        energymodel = self.energymodel
        table = []
        for vddr in GRID_VDDRS:
            averaged = {}
            for vdd in self.vdds:
                stats = [self.wakectl.wake_stats(r) for r in rates.get((vddr, vdd), [])]
                if stats:
                    averaged[vdd] = energymodel.WakeRates(
                        statistics.fmean(s.p_wake_abnormal for s in stats),
                        statistics.fmean(s.p_wake_normal for s in stats))
                    table.append((vdd, vddr, averaged[vdd]))
            result = energymodel.sweep(energymodel.EnergyParams(), self.vdds, GRID_TS, averaged.__getitem__)
            self.sweeps[vddr] = result
            energymodel.write_sweep_csv(str(out / f"sweep_vddr{vddr:g}.csv"), result)
            doc = self.report.build_report(
                energy_rows=[{k: v for k, v in asdict(r).items() if k != "error"} for r in result.rows],
                config={"vddr": vddr, "arrays": GRID_ARRAYS_PER_VDDR}, seeds={"read": self.cfg.read_seed})
            self.report.save_report(str(out / f"sweep_vddr{vddr:g}.json"), doc)
        with open(out / "rates.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(energymodel.RatesTable.HEADER)
            for vdd, vddr, r in table:
                writer.writerow([repr(vdd), repr(vddr), repr(r.p_wake_abn), repr(r.p_wake_n)])

    def check(self, tag: str) -> None:
        ledger = self.ledger
        ideal = self.streams.get("ideal")
        for name, (result, doc, priced) in self.streams.items():
            op = f"{tag}/{name}"
            system = doc["system"]["macro_f1_abnormal"]
            ledger.check(op, system >= SYSTEM_F1_MIN, f"system macro-F1 {system:.4f} < {SYSTEM_F1_MIN}")
            ledger.check(op, result.backend_errors == 0, f"{result.backend_errors} back-end errors")
            ledger.check(op, not any(r.failed for r in priced.rows), "energy point failed")
            if name != "ideal" and ideal is not None:
                self._count_changes(self.labels[name], result, ideal[0])
        for vddr, result in self.sweeps.items():
            for row in result.rows:
                ledger.check(f"{tag}/sweep vddr={vddr:g},vdd={row.vdd:g},t_s={row.t_s:g}",
                             not row.failed, f"sweep point failed: {row.error}")

    def noisy_digests(self, tag: str) -> dict[str, str]:
        out = self.out / tag
        return {p.name: sha256(p) for p in sorted(out.glob("*.csv"))}


def _default_rates_fixture() -> str:
    from wakesim.data import default_rates_fixture
    return default_rates_fixture()


# ---------------------------------------------------------------------------
# CLI walkthrough
# ---------------------------------------------------------------------------

@dataclass
class Child:
    command: str
    code: int
    wall_s: float
    rss_mb: float
    stdout: Path
    stderr: Path


def run_child(command: str, argv: list[str], cwd: Path, env: dict[str, str],
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; its peak RSS comes from os.wait4."""
    stdout, stderr = cwd / f"{command}.out", cwd / f"{command}.err"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            deadline = t0 + timeout
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if perf_counter() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(command, proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra or {})
    return env


def front_preds(trace_path: Path) -> list[str]:
    with open(trace_path, newline="") as fh:
        return [row["front_pred"] for row in csv.DictReader(fh)]


def macro_f1s(report_path: Path) -> tuple[float, float]:
    with open(report_path) as fh:
        doc = json.load(fh)
    return doc["front_end"]["macro_f1_abnormal"], doc["system"]["macro_f1_abnormal"]


class Walkthrough:
    """The README walkthrough, cold: every command is its own child process."""

    setup_reps = 2
    STREAMED = ("run_ideal", "run_b")

    def __init__(self, cfg: Config, out: Path, ledger: Ledger, pins: dict[str, str]):
        self.cfg, self.out, self.ledger, self.pins = cfg, out, ledger, pins
        self.children: list[tuple[str, Child]] = []
        self.decision_changes: dict[str, int] = {}
        self.data_dir: dict[bool, Path] = {}

    def _argv(self, traced: bool, args: list[str]) -> list[str]:
        if traced:
            return [sys.executable, str(Path(__file__).resolve().parent / "tracecli.py"), *args]
        return [sys.executable, "-m", "wakesim.cli", *args]

    def _run(self, tag: str, command: str, args: list[str], tracer) -> Child:
        cwd = self.out / tag
        cwd.mkdir(parents=True, exist_ok=True)
        name = f"{tag}/{command}"
        child = None
        if tracer is None:
            with self.ledger.op(name):
                child = run_child(command, self._argv(False, args), cwd, child_env())
        else:
            spans = cwd / f"{command}.spans.json"
            with self.ledger.op(name), tracer.span(f"cli.{command}") as span:
                child = run_child(command, self._argv(True, args), cwd,
                                  child_env({**tracer.child_env(), SPAN_OUT_ENV: str(spans)}))
            if child is not None:
                span["attrs"].update(code=child.code, rss_mb=child.rss_mb)
            if spans.exists():
                tracer.load(spans)
        if child is None:
            return None
        self.children.append((tag, child))
        message = child.stderr.read_text().strip().splitlines()[-1:] if child.code else []
        self.ledger.check(name, child.code == 0, f"exit {child.code}: {' '.join(message)}")
        return child

    def setup(self, tag: str, tracer=None) -> float:
        cfg = self.cfg
        child = self._run(tag, "prepare_data", [
            "prepare-data", "--out", "data", "--source", "synthetic", "--seed", str(cfg.dataset_seed),
            "--beats-per-class", str(cfg.beats_per_class), "--test-per-class", str(cfg.test_per_class),
            "--noise-sigma", repr(cfg.noise_sigma)], tracer)
        if child is None:
            raise RuntimeError("could not start prepare-data")
        self.data_dir.setdefault(tracer is not None, self.out / tag / "data")
        return child.wall_s

    def setup_seconds(self, builds: list[float]) -> float:
        return statistics.median(builds)

    def commands(self, data: Path) -> list[tuple[str, list[str]]]:
        cfg = self.cfg
        models = ["--bayes", "model/bayes_model.json", "--mlp", "model/mlp_model.json"]
        return [
            ("train", ["train", "--data", str(data), "--out", "model", "--seed", str(cfg.train_seed),
                       "--epochs", str(cfg.epochs)]),
            ("program", ["program", "--model", "model/bayes_model.json", "--out", "state_b.npz",
                         "--preset", "B", "--seed", str(cfg.program_seed)]),
            ("run_ideal", ["run", "--data", str(data), *models, "--ideal",
                           "--seed", str(IDEAL_READ_SEED), "--out", "run_ideal"]),
            ("run_b", ["run", "--data", str(data), *models, "--array-state", "state_b.npz",
                       "--seed", str(cfg.read_seed), "--out", "run_b"]),
            ("sweep", ["sweep", "--out", "sweep.csv"]),
            ("report", ["report", "run_b/report.json"]),
        ]

    def measure(self, tag: str, tracer=None):
        data = self.data_dir[tracer is not None]
        t0 = perf_counter()
        for command, args in self.commands(data):
            self._run(tag, command, args, tracer)
        wall = perf_counter() - t0
        return wall, len(self.STREAMED) * self.cfg.test_per_class * 4  # four classes

    def check(self, tag: str) -> None:
        ledger, d = self.ledger, self.out / tag
        check_pins(ledger, f"{tag}/train", self.pins, {
            "bayes_model.json": d / "model" / "bayes_model.json",
            "mlp_model.json": d / "model" / "mlp_model.json",
        })
        check_pins(ledger, f"{tag}/run_ideal", self.pins, {
            "run_ideal/report.json": d / "run_ideal" / "report.json",
            "run_ideal/trace.csv": d / "run_ideal" / "trace.csv",
        })
        if (d / "run_b" / "report.json").exists():
            front, system = macro_f1s(d / "run_b" / "report.json")
            check_bands(ledger, f"{tag}/run_b", "B", front, system)
        if (d / "run_b" / "trace.csv").exists() and (d / "run_ideal" / "trace.csv").exists():
            ideal, noisy = front_preds(d / "run_ideal" / "trace.csv"), front_preds(d / "run_b" / "trace.csv")
            self.decision_changes["B"] = sum(a != b for a, b in zip(ideal, noisy))
        if (d / "sweep.csv").exists():
            rows = (d / "sweep.csv").read_text().splitlines()[1:]
            ledger.check(f"{tag}/sweep", rows and not any("nan" in r for r in rows), "failed sweep points")
        report_out = d / "report.out"
        ledger.check(f"{tag}/report", report_out.exists() and
                     report_out.read_text().startswith("config digest"), "report did not render")

    def noisy_digests(self, tag: str) -> dict[str, str]:
        d = self.out / tag
        return {name: sha256(d / name) for name in
                ("state_b.npz", "run_b/trace.csv", "run_b/report.json") if (d / name).exists()}

    def peak_rss_mb(self) -> float:
        return max(child.rss_mb for _, child in self.children)


WORKLOADS = {"walkthrough": Walkthrough, "regime_stream": RegimeStream, "rates_grid": RatesGrid}
