"""Spans and layer wrappers for the traced benchmark run.

Every layer is timed from outside: `instrument` replaces the public
functions of the wakesim modules with wrappers that record a span around
each call, and wraps the reader and backend that `run_stream` receives in
counting proxies. Nothing inside `src/` changes, and the wrappers return
exactly what the wrapped call returned, so traced outputs are byte-identical
to untraced ones.

Per-read and per-beat calls are too many to keep as single spans (51 200
reads per stream), so the stream span carries their counts and summed times
as attributes instead.

This module imports only the standard library; wakesim modules are looked
up when `instrument` runs, so importing it costs nothing in set-up time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
from time import perf_counter

# Environment through which a traced CLI child joins the benchmark's run.
SPAN_RUN_ENV = "PERFBENCH_RUN_ID"
SPAN_PARENT_ENV = "PERFBENCH_PARENT_SPAN"
SPAN_OUT_ENV = "PERFBENCH_SPANS_OUT"


class Tracer:
    """In-memory span log of one workload run, written out when the run ends.

    A span is a dict with id, parent, name, run id, start and end
    (`time.perf_counter`, which is CLOCK_MONOTONIC on Linux and therefore
    comparable between the benchmark and its CLI children) and attributes.
    """

    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[str | None] = [parent]
        self._count = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        self._count += 1
        record = {
            "id": f"{os.getpid()}.{self._count}",
            "parent": self._stack[-1],
            "name": name,
            "run": self.run_id,
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(record)

    @property
    def current(self) -> str | None:
        return self._stack[-1]

    def child_env(self) -> dict[str, str]:
        """Environment that makes a traced CLI child join this run."""
        return {SPAN_RUN_ENV: self.run_id, SPAN_PARENT_ENV: self.current or ""}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")

    def load(self, path: str) -> None:
        """Merge spans a traced child wrote."""
        with open(path) as fh:
            self.spans.extend(json.load(fh))


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class TimedReader:
    """Proxy for a `MemristorReader`: counts reads, read time and bit flips.

    A flip is a bit of the returned word that differs from the programmed
    code, so flips / (8 * reads) is the observed bit error rate.
    """

    __slots__ = ("_read", "_codes", "reads", "seconds", "flips")

    def __init__(self, read, codes):
        self._read = read
        self._codes = codes.tolist()
        self.reads = 0
        self.seconds = 0.0
        self.flips = 0

    def __call__(self, class_id, feature, level):
        t0 = perf_counter()
        word = self._read(class_id, feature, level)
        self.seconds += perf_counter() - t0
        self.reads += 1
        self.flips += (int(word) ^ self._codes[class_id][feature][level]).bit_count()
        return word


class TimedBackend:
    """Proxy for the back end passed to `run_stream`."""

    def __init__(self, backend):
        self._backend = backend
        self.calls = 0
        self.errors = 0
        self.seconds = 0.0

    def predict(self, beat, mags):
        self.calls += 1
        t0 = perf_counter()
        try:
            return self._backend.predict(beat, mags)
        except Exception:
            self.errors += 1
            raise
        finally:
            self.seconds += perf_counter() - t0


def reader_label(reader, memsim) -> str:
    if isinstance(reader, memsim.MemristorReader):
        op = reader.op
        return op.label or f"vdd={op.vdd:g},vddr={op.vddr:g}"
    return "ideal" if type(reader).__name__ == "IdealReader" else type(reader).__name__


def outcome_counts(result) -> dict[str, int]:
    """Wake counters of one stream, by reason, plus abnormal beats that slept."""
    counts = {"wakes": 0, "wakes_abnormal": 0, "wakes_ambiguous": 0, "wakes_invalid": 0,
              "woken_abnormal": 0, "missed_abnormal": 0}
    for o in result.outcomes:
        if o.wake:
            counts["wakes"] += 1
            counts[f"wakes_{o.reason}"] += 1
            counts["woken_abnormal"] += o.true_label != 0
        elif o.true_label != 0:
            counts["missed_abnormal"] += 1
    return counts


def _traced_stream(tracer: Tracer, run_stream):
    wakectl = sys.modules["wakesim.wakectl"]
    memsim = importlib.import_module("wakesim.memsim")

    @functools.wraps(run_stream)
    def wrapper(beats, model, reader, backend, *args, **kwargs):
        label = reader_label(reader, memsim)
        noisy = isinstance(reader, memsim.MemristorReader)
        proxy_reader = TimedReader(reader, reader.state.codes) if noisy else reader
        proxy_backend = TimedBackend(backend)
        infer = {"calls": 0, "self_s": 0.0}
        bayes_infer = wakectl.bayes_infer

        def timed_infer(levels, model_, reader_):
            before = getattr(reader_, "seconds", 0.0)
            t0 = perf_counter()
            try:
                return bayes_infer(levels, model_, reader_)
            finally:
                infer["calls"] += 1
                infer["self_s"] += perf_counter() - t0 - (getattr(reader_, "seconds", 0.0) - before)

        wakectl.bayes_infer = timed_infer
        try:
            with tracer.span("wakectl.run_stream", reader=label,
                             kind="noisy" if noisy else "ideal") as span:
                result = run_stream(beats, model, proxy_reader, proxy_backend, *args, **kwargs)
        finally:
            wakectl.bayes_infer = bayes_infer
        read_s = proxy_reader.seconds if noisy else 0.0
        span["attrs"].update(
            beats=result.n,
            reads=proxy_reader.reads if noisy else 0,
            read_s=read_s,
            flips=proxy_reader.flips if noisy else 0,
            infers=infer["calls"],
            infer_self_s=infer["self_s"],
            backend_calls=proxy_backend.calls,
            backend_errors=proxy_backend.errors,
            backend_s=proxy_backend.seconds,
            self_s=duration(span) - infer["self_s"] - read_s - proxy_backend.seconds,
            **outcome_counts(result),
        )
        return result

    return wrapper


def _csv_bytes(args, kwargs, result):
    """Size of the beats CSV a reader or writer touched."""
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _sweep_points(args, kwargs, result):
    return {"points": len(result.rows), "points_failed": sum(r.failed for r in result.rows)}


# (module, attribute, span name, attribute hook). A function imported by name
# into another module is patched in that module too (the `wakesim.cli` rows).
_TARGETS = (
    ("wakesim.datapipe.synthetic", "synth_dataset", "datapipe.synth_dataset", None),
    ("wakesim.cli", "synth_dataset", "datapipe.synth_dataset", None),
    ("wakesim.datapipe.features", "feature_matrix", "datapipe.feature_matrix", None),
    ("wakesim.datapipe.features", "chi2_rank", "datapipe.chi2_rank", None),
    ("wakesim.datapipe.beats", "write_beats_csv", "datapipe.write_beats_csv", _csv_bytes),
    ("wakesim.datapipe.beats", "read_beats_csv", "datapipe.read_beats_csv", _csv_bytes),
    ("wakesim.bayesfront", "fit_bayes_model", "bayesfront.fit_bayes_model", None),
    ("wakesim.mlpback", "fit_backend", "mlpback.fit_backend", None),
    ("wakesim.memsim", "program_arrays", "memsim.program_arrays", None),
    ("wakesim.energymodel", "sweep", "energymodel.sweep", _sweep_points),
    ("wakesim.report", "build_report", "report.build_report", None),
    ("wakesim.report", "save_report", "report.save_report", None),
)


def _spanned(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if hook is not None:
            span["attrs"].update(hook(args, kwargs, result))
        return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers' public functions with span recorders, then restore them.

    Targets in modules that are not imported yet (`wakesim.cli` in an
    in-process workload) are skipped.
    """
    for name in ("wakesim.datapipe.synthetic", "wakesim.datapipe.features", "wakesim.datapipe.beats",
                 "wakesim.bayesfront", "wakesim.mlpback", "wakesim.memsim", "wakesim.energymodel",
                 "wakesim.report", "wakesim.wakectl"):
        importlib.import_module(name)
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module_name, attr, span_name, hook in _TARGETS:
            module = sys.modules.get(module_name)
            if module is not None:
                patch(module, attr, _spanned(tracer, getattr(module, attr), span_name, hook))
        wakectl = sys.modules["wakesim.wakectl"]
        stream = _traced_stream(tracer, wakectl.run_stream)
        patch(wakectl, "run_stream", stream)
        if "wakesim.cli" in sys.modules:
            patch(sys.modules["wakesim.cli"], "run_stream", stream)
        result_cls = wakectl.StreamResult
        patch(result_cls, "write_trace",
              _spanned(tracer, result_cls.write_trace, "wakectl.write_trace", None))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
