"""Run reports: a byte-stable JSON document plus a human-readable rendering."""

from __future__ import annotations

import hashlib
import json

from .artifacts import NUMBER, dump_json, load_json, reading, save_json, typed, typed_list
from .datapipe.beats import CLASS_NAMES
from .metrics import ConfusionMatrix, f1_per_class, macro_f1_abnormal
from .wakectl import StreamResult, stats_from_counts

_STREAM_SECTIONS = ("front_end", "system", "wake")


def config_digest(config: dict) -> str:
    """sha256 over the canonical JSON encoding of a config mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _classifier_section(cm: ConfusionMatrix) -> dict:
    per_class = {
        CLASS_NAMES[c]: f1_per_class(cm, c) for c in range(cm.n_classes)
    }
    return {
        "confusion": [[int(v) for v in row] for row in cm.counts],
        "per_class_f1": per_class,
        "macro_f1_abnormal": macro_f1_abnormal(cm),
        "accuracy": cm.accuracy(),
    }


def _stream_sections(front: ConfusionMatrix, system: ConfusionMatrix,
                     counts: dict[int, dict[str, int]], backend_errors: int) -> dict:
    """The classifier and wake sections of a stream's confusions and wake counts."""
    stats = stats_from_counts(counts)
    return {
        "front_end": _classifier_section(front),
        "system": _classifier_section(system),
        "wake": {
            "p_wake_abnormal": stats.p_wake_abnormal,
            "p_wake_normal": stats.p_wake_normal,
            "reasons_by_class": {
                CLASS_NAMES[c]: stats.reason_fractions[c] for c in stats.reason_fractions
            },
            "counts_by_class": {
                CLASS_NAMES[c]: stats.counts[c] for c in stats.counts
            },
            "backend_errors": backend_errors,
        },
    }


def build_report(stream: StreamResult | None = None, energy_rows: list[dict] | None = None,
                 config: dict | None = None, seeds: dict | None = None) -> dict:
    """Assemble the run report.

    Any missing section marks the report partial instead of failing, so a
    front-end-only run or a pure energy sweep still reports cleanly.
    """
    config = config or {}
    report: dict = {
        "config": config,
        "config_digest": config_digest(config),
        "seeds": seeds or {},
        "partial": stream is None or energy_rows is None,
    }
    if stream is not None:
        report.update(_stream_sections(stream.front_confusion(), stream.system_confusion(),
                                       stream.reason_counts(), stream.backend_errors))
    if energy_rows is not None:
        report["energy"] = energy_rows
    return report


def _check_report(doc) -> None:
    """Raise KeyError, TypeError or ValueError unless doc is a report build_report could write.

    What build_report derives is derived again and must match: the config
    digest from the config, and the classifier and wake sections from the
    confusion matrices and wake counts they hold. A run through an array
    state (a regime other than ideal) records the state in array_state.
    """
    typed(doc, dict, "report")
    digest = typed(doc["config_digest"], str, "config_digest")
    if digest != config_digest(typed(doc["config"], dict, "config")):
        raise ValueError("config_digest does not match config")
    for name, seed in typed(doc["seeds"], dict, "seeds").items():
        typed(seed, int, f"seeds.{name}")
    if "array_state" in doc:
        state = typed(doc["array_state"], dict, "array_state")
        for key, kind in (("label", str), ("vdd", NUMBER), ("vddr", NUMBER), ("program_seed", int)):
            typed(state[key], kind, f"array_state.{key}")
    elif doc["config"].get("regime", "ideal") != "ideal":
        raise ValueError("array_state is missing from a run through an array state")
    has_stream = any(key in doc for key in _STREAM_SECTIONS)
    if has_stream:
        wake = typed(doc["wake"], dict, "wake")
        by_class = typed(wake["counts_by_class"], dict, "wake.counts_by_class")
        counts = {}
        for c, name in enumerate(CLASS_NAMES):
            counts[c] = typed(by_class[name], dict, f"wake.counts_by_class.{name}")
            for reason, n in counts[c].items():
                typed(n, int, f"wake.counts_by_class.{name}.{reason}")
        rebuilt = _stream_sections(
            ConfusionMatrix(typed(doc["front_end"], dict, "front_end")["confusion"]),
            ConfusionMatrix(typed(doc["system"], dict, "system")["confusion"]),
            counts, typed(wake["backend_errors"], int, "wake.backend_errors"))
        for key in _STREAM_SECTIONS:
            if dump_json(rebuilt[key]) != dump_json(doc[key]):
                raise ValueError(f"{key} does not match the counts it holds")
    if "energy" in doc:
        rows = typed_list(doc["energy"], dict, "energy")
        if not rows:
            raise ValueError("energy has no rows")
        for i, row in enumerate(rows):
            for key, value in row.items():
                typed(value, NUMBER, f"energy[{i}].{key}")
    if typed(doc["partial"], bool, "partial") != (not has_stream or "energy" not in doc):
        raise ValueError("partial does not match the sections present")


def save_report(path: str, report: dict) -> None:
    save_json(path, report)


def load_report(path: str) -> dict:
    with reading(path, "report"):
        doc = load_json(path)
        _check_report(doc)
    return doc


def fmt(x) -> str:
    """A metric to four decimals, or `--` where it is undefined."""
    if x is None:
        return "--"
    return f"{x:.4f}"


def render_report(report: dict) -> str:
    """Small fixed-width table for terminals."""
    lines = []
    lines.append(f"config digest : {report.get('config_digest', '')[:16]}")
    lines.append(f"partial       : {report.get('partial')}")
    if "array_state" in report:
        state = report["array_state"]
        lines.append("array state   : " + " ".join(f"{k}={state[k]}" for k in sorted(state)))
    for section in ("front_end", "system"):
        if section not in report:
            continue
        sec = report[section]
        lines.append(f"[{section}] accuracy={fmt(sec.get('accuracy'))} "
                     f"macro_f1_abnormal={fmt(sec.get('macro_f1_abnormal'))}")
        lines.append("  confusion (rows true, cols pred):")
        for name, row in zip(CLASS_NAMES, sec["confusion"]):
            lines.append("    " + name + " " + " ".join(f"{v:6d}" for v in row))
    if "wake" in report:
        wake = report["wake"]
        lines.append(f"[wake] p(wake|abnormal)={fmt(wake['p_wake_abnormal'])} "
                     f"p(wake|normal)={fmt(wake['p_wake_normal'])}")
        for name, reasons in wake["reasons_by_class"].items():
            if reasons is None:
                lines.append(f"    {name}: no beats")
            else:
                mix = " ".join(f"{k}={v:.3f}" for k, v in sorted(reasons.items()))
                lines.append(f"    {name}: {mix}")
    if "energy" in report:
        lines.append("[energy]")
        for row in report["energy"]:
            lines.append("    " + " ".join(f"{k}={v:.6g}" for k, v in sorted(row.items())))
    return "\n".join(lines) + "\n"
