"""Run one workload: set-up, measured passes, checks, and the traced pass.

An untraced run sets up `setup_reps` times and reports the median set-up,
then repeats the measured phase for about `seconds` (at least once) and
reports the median pass, its operations' host times scaled to the reference
speed (`workloads.probe`); the unscaled median is kept in the record. A traced
run sets up once and measures untraced the same way, then sets up and
measures once more with every layer wrapped (`tracing.instrument`), checks
that the traced outputs equal the untraced ones, and reports the per-layer
metrics. End-to-end metrics only ever come from untraced passes.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import uuid
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from .tracing import Tracer, duration, instrument
from .workloads import (ROOT, SRC, WORKLOADS, Config, InProcess, Ledger, child_env, load_pins,
                        run_child, sha256)

OUT_ROOT = ROOT / ".perfbench_out"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("beats_per_s", "beats/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("memsim.read_s", "s"),
    ("memsim.reads", "count"),
    ("memsim.program_s", "s"),
    ("memsim.programs", "count"),
    ("memsim.bit_flips", "count"),
    ("memsim.bit_error_rate", "fraction"),
    ("memsim.decision_changes", "count"),
    ("wakectl.stream_self_s.ideal", "s"),
    ("wakectl.stream_self_s.noisy", "s"),
    ("wakectl.wakes", "count"),
    ("wakectl.wakes_abnormal", "count"),
    ("wakectl.wakes_ambiguous", "count"),
    ("wakectl.wakes_invalid", "count"),
    ("wakectl.missed_abnormal", "count"),
    ("wakectl.wake_precision", "fraction"),
    ("wakectl.trace_write_s", "s"),
    ("bayesfront.fit_s", "s"),
    ("bayesfront.infer_s", "s"),
    ("bayesfront.infers", "count"),
    ("mlpback.fit_s", "s"),
    ("mlpback.infer_s", "s"),
    ("mlpback.infers", "count"),
    ("mlpback.errors", "count"),
    ("datapipe.synth_s", "s"),
    ("datapipe.fft_s", "s"),
    ("datapipe.chi2_s", "s"),
    ("datapipe.csv_write_s", "s"),
    ("datapipe.csv_read_s", "s"),
    ("datapipe.csv_bytes", "bytes"),
    ("energymodel.sweep_s", "s"),
    ("energymodel.points", "count"),
    ("energymodel.points_failed", "count"),
    ("report.build_s", "s"),
    ("report.save_s", "s"),
    ("cli.import_s", "s"),
    ("trace_overhead_s", "s"),
)

# Child logs and span files differ between traced and untraced runs by design.
_NOT_OUTPUTS = (".out", ".err", ".spans.json")


def layer_metrics(spans: list[dict], decision_changes: int, import_s: float,
                  overhead_s: float) -> dict[str, float]:
    def total(name):
        return sum(duration(s) for s in spans if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    streams = [s["attrs"] for s in spans if s["name"] == "wakectl.run_stream"]

    def stream(key, kind=None):
        return sum(a[key] for a in streams if kind in (None, a["kind"]))

    reads, wakes = stream("reads"), stream("wakes")
    return {
        "memsim.read_s": stream("read_s"),
        "memsim.reads": reads,
        "memsim.program_s": total("memsim.program_arrays"),
        "memsim.programs": count("memsim.program_arrays"),
        "memsim.bit_flips": stream("flips"),
        "memsim.bit_error_rate": stream("flips") / (8 * reads) if reads else 0.0,
        "memsim.decision_changes": decision_changes,
        "wakectl.stream_self_s.ideal": stream("self_s", "ideal"),
        "wakectl.stream_self_s.noisy": stream("self_s", "noisy"),
        "wakectl.wakes": wakes,
        "wakectl.wakes_abnormal": stream("wakes_abnormal"),
        "wakectl.wakes_ambiguous": stream("wakes_ambiguous"),
        "wakectl.wakes_invalid": stream("wakes_invalid"),
        "wakectl.missed_abnormal": stream("missed_abnormal"),
        "wakectl.wake_precision": stream("woken_abnormal") / wakes if wakes else 0.0,
        "wakectl.trace_write_s": total("wakectl.write_trace"),
        "bayesfront.fit_s": total("bayesfront.fit_bayes_model"),
        "bayesfront.infer_s": stream("infer_self_s"),
        "bayesfront.infers": stream("infers"),
        "mlpback.fit_s": total("mlpback.fit_backend"),
        "mlpback.infer_s": stream("backend_s"),
        "mlpback.infers": stream("backend_calls"),
        "mlpback.errors": stream("backend_errors"),
        "datapipe.synth_s": total("datapipe.synth_dataset"),
        "datapipe.fft_s": total("datapipe.feature_matrix"),
        "datapipe.chi2_s": total("datapipe.chi2_rank"),
        "datapipe.csv_write_s": total("datapipe.write_beats_csv"),
        "datapipe.csv_read_s": total("datapipe.read_beats_csv"),
        "datapipe.csv_bytes": attr("datapipe.write_beats_csv", "bytes")
        + attr("datapipe.read_beats_csv", "bytes"),
        "energymodel.sweep_s": total("energymodel.sweep"),
        "energymodel.points": attr("energymodel.sweep", "points"),
        "energymodel.points_failed": attr("energymodel.sweep", "points_failed"),
        "report.build_s": total("report.build_report"),
        "report.save_s": total("report.save_report"),
        "cli.import_s": import_s,
        "trace_overhead_s": overhead_s,
    }


def by_reader(spans: list[dict], decision_changes: dict[str, int]) -> dict[str, dict]:
    """Stream counters per reader (ideal, A, B, C, or a grid operating point)."""
    keys = ("beats", "reads", "flips", "wakes", "missed_abnormal", "backend_calls",
            "self_s", "read_s", "infer_self_s", "backend_s")
    table: dict[str, dict] = {}
    for s in spans:
        if s["name"] == "wakectl.run_stream":
            row = table.setdefault(s["attrs"]["reader"], dict.fromkeys(keys, 0))
            for k in keys:
                row[k] += s["attrs"][k]
    for label, row in table.items():
        row["decision_changes"] = decision_changes.get(label, 0)
    return table


def output_digests(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*"))
            if p.is_file() and not p.name.endswith(_NOT_OUTPUTS)}


def compare_outputs(ledger: Ledger, out: Path, pairs) -> None:
    """Traced outputs must equal the untraced ones, file for file."""
    for untraced, traced in pairs:
        a, b = output_digests(out / untraced), output_digests(out / traced)
        differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        ledger.check(f"{traced}/identical_to_{untraced}", bool(a) and not differing,
                     f"traced outputs differ: {differing[:5]}")


def pass_seconds(op_seconds: dict[str, float], passes: int) -> list[float]:
    """Per pass, the summed times of its operations (keys `pass<i>/<op>`)."""
    totals = [0.0] * passes
    for name, seconds in op_seconds.items():
        tag, _, _ = name.partition("/")
        if tag.startswith("pass"):
            totals[int(tag[4:])] += seconds
    return totals


def measure_import_s(directory: Path) -> float:
    """Host time of a child that only imports wakesim.cli."""
    child = run_child("import", [sys.executable, "-c", "import wakesim.cli"], directory, child_env())
    if child.code != 0:
        raise RuntimeError(f"importing wakesim.cli failed: {child.stderr.read_text().strip()}")
    return child.wall_s


def _blas() -> dict:
    import numpy
    info = {"name": None, "version": None, "threads": None}
    with contextlib.suppress(KeyError, TypeError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(name: str, cfg: Config, seed: int, trace: bool) -> dict:
    import numpy
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            src.update(str(path.relative_to(SRC)).encode())
            src.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "program_seed": cfg.program_seed,
        "read_seed": cfg.read_seed,
        "traced": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads_fixed": False,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_root: Path = OUT_ROOT, cfg: Config | None = None, pins=None) -> dict:
    """Run one workload and return its result record.

    The record's `result` entry is the benchmark's output line: correct,
    attempted, failed, and the metrics (end-to-end when untraced, per-layer
    when traced).
    """
    cfg = cfg or Config.for_seed(seed)
    out = out_root / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ledger = Ledger()
    workload = WORKLOADS[name](cfg, out, ledger, load_pins(cfg) if pins is None else pins)
    record: dict = {"workload": name, "config": asdict(cfg)}

    builds = [workload.setup(f"setup{i}") for i in range(1 if trace else workload.setup_reps)]
    walls, beats = [], 0
    start = perf_counter()
    # Stop before a pass that would likely end after `seconds`, so a run's
    # length does not depend on how slow the machine is.
    while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
        tag = f"pass{len(walls)}"
        wall, beats = workload.measure(tag)
        workload.check(tag)
        walls.append(wall)
    record.update(setup_builds_s=builds, pass_walls_s=walls, beats_per_pass=beats,
                  noisy_digests=workload.noisy_digests("pass0"))
    if hasattr(workload, "children"):
        record["commands"] = [
            {"tag": tag, "command": c.command, "wall_s": c.wall_s, "rss_mb": c.rss_mb, "code": c.code}
            for tag, c in workload.children]

    host = pass_seconds(ledger.seconds, len(walls))
    scaled = pass_seconds(ledger.scaled_seconds, len(walls))
    record.update(host_wall_s=statistics.median(host), probe_scale=[b / a for a, b in zip(host, scaled)])
    if not trace:
        wall = statistics.median(scaled)
        metrics = {
            "wall_s": wall,
            "setup_s": workload.setup_seconds(builds),
            "beats_per_s": beats / wall,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = dict(END_TO_END)
    else:
        tracer = Tracer(uuid.uuid4().hex)
        in_process = isinstance(workload, InProcess)
        with instrument(tracer) if in_process else contextlib.nullcontext():
            with tracer.span("setup"):
                workload.setup("traced_setup", tracer)
            with tracer.span("measure"):
                traced_wall, _ = workload.measure("traced", tracer)
        workload.decision_changes.clear()
        workload.check("traced")
        compare_outputs(ledger, out, [("setup0", "traced_setup"), ("pass0", "traced")])
        if in_process:
            with instrument(tracer), tracer.span("csv_probe"):
                workload.csv_probe("traced")
        metrics = layer_metrics(tracer.spans, sum(workload.decision_changes.values()),
                                measure_import_s(out), traced_wall - statistics.median(walls))
        units = dict(PER_LAYER)
        record.update(by_reader=by_reader(tracer.spans, workload.decision_changes),
                      traced_wall_s=traced_wall)
        tracer.dump(str(out / "trace.json"))

    record["provenance"] = provenance(name, cfg, seed, trace)
    record["operations"] = list(ledger.ops)
    record["op_seconds"] = ledger.seconds
    record["failures"] = ledger.failures()
    record["result"] = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    for data in out.glob("*/data"):
        shutil.rmtree(data)
    with open(out / "record.json", "w") as fh:
        json.dump(record, fh, indent=2, default=str)
        fh.write("\n")
    return record
