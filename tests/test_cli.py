"""End-to-end CLI flows: artifacts, echoes, exit codes, reproducibility.

Uses a small synthetic split (60 train / 20 test per class) so the whole
prepare/train/program/run chain stays fast; the full-size numbers live in
tests/test_acceptance.py.
"""

import base64
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import wakesim
from wakesim.cli import main
from wakesim.data import default_rates_fixture
from wakesim.datapipe.beats import read_beats_csv, write_beats_csv
from wakesim.datapipe.features import FEATURE_LEN, chi2_rank
from wakesim.datapipe.synthetic import synth_dataset
from wakesim.memsim import VDD_RANGE, VDDR_RANGE


def _invoke(args, **kwargs):
    result = CliRunner().invoke(main, args, **kwargs)
    return result


def _ok(args):
    result = _invoke(args)
    assert result.exit_code == 0, f"{args}: {result.output}\n{result.exception!r}"
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One prepared dataset, trained models, programmed array, and two runs."""
    ws = tmp_path_factory.mktemp("cli")
    paths = {
        "data": ws / "data",
        "model": ws / "model",
        "state": ws / "state.npz",
        "run_ideal": ws / "run_ideal",
        "run_a": ws / "run_a",
        "ws": ws,
    }
    out = {}
    out["prepare"] = _ok([
        "prepare-data", "--out", str(paths["data"]), "--source", "synthetic",
        "--seed", "11", "--beats-per-class", "60", "--test-per-class", "20",
        "--noise-sigma", "0.05",
    ])
    out["train"] = _ok([
        "train", "--data", str(paths["data"]), "--out", str(paths["model"]),
        "--seed", "3", "--epochs", "30",
    ])
    paths["bayes"] = paths["model"] / "bayes_model.json"
    paths["mlp"] = paths["model"] / "mlp_model.json"
    out["program"] = _ok([
        "program", "--model", str(paths["bayes"]), "--out", str(paths["state"]),
        "--preset", "A", "--seed", "5",
    ])
    out["run_ideal"] = _ok([
        "run", "--data", str(paths["data"]), "--bayes", str(paths["bayes"]),
        "--mlp", str(paths["mlp"]), "--ideal", "--out", str(paths["run_ideal"]),
    ])
    out["run_a"] = _ok([
        "run", "--data", str(paths["data"]), "--bayes", str(paths["bayes"]),
        "--mlp", str(paths["mlp"]), "--array-state", str(paths["state"]),
        "--seed", "7", "--out", str(paths["run_a"]),
    ])
    return paths, out


def test_pipeline_writes_all_artifacts(workspace):
    paths, _ = workspace
    for name in ("test.csv", "manifest.json", "features.npz"):
        assert (paths["data"] / name).exists()
    assert not (paths["data"] / "train.csv").exists()
    assert paths["bayes"].exists() and paths["mlp"].exists()
    assert paths["state"].exists()
    for run in ("run_ideal", "run_a"):
        for name in ("trace.csv", "report.json", "report.txt"):
            assert (paths[run] / name).exists()


def test_train_echoes_selected_bins(workspace):
    _, out = workspace
    assert "front-end bins [8, 12, 16, 20]" in out["train"].output
    assert "back-end int8 test accuracy" in out["train"].output


def test_program_echoes_word_count(workspace):
    _, out = workspace
    assert "programmed 128 words at vddr=2.4" in out["program"].output


def test_ideal_run_report(workspace):
    paths, out = workspace
    doc = json.loads((paths["run_ideal"] / "report.json").read_text())
    assert doc["partial"] is False
    assert doc["front_end"]["accuracy"] == 1.0
    assert doc["system"]["accuracy"] == 1.0
    assert doc["wake"]["p_wake_normal"] == 0.0
    assert doc["config"]["regime"] == "ideal"
    assert doc["energy"][0]["vdd"] == 1.2
    assert "front macro-F1 1.0000" in out["run_ideal"].output


def test_low_noise_array_run_tracks_ideal(workspace):
    paths, _ = workspace
    doc = json.loads((paths["run_a"] / "report.json").read_text())
    assert doc["front_end"]["accuracy"] >= 0.99
    assert doc["config"]["regime"] == "A"
    assert doc["seeds"] == {"read": 7}


def test_rerunning_is_byte_identical(workspace, tmp_path):
    paths, _ = workspace
    for sub in ("x", "y"):
        _ok([
            "run", "--data", str(paths["data"]), "--bayes", str(paths["bayes"]),
            "--mlp", str(paths["mlp"]), "--array-state", str(paths["state"]),
            "--seed", "7", "--out", str(tmp_path / sub),
        ])
    assert (tmp_path / "x/report.json").read_bytes() == (tmp_path / "y/report.json").read_bytes()
    assert (tmp_path / "x/trace.csv").read_bytes() == (tmp_path / "y/trace.csv").read_bytes()
    assert (tmp_path / "x/report.json").read_bytes() == (paths["run_a"] / "report.json").read_bytes()


def test_noisy_report_records_the_array_state_it_read(workspace, tmp_path):
    paths, _ = workspace
    state = tmp_path / "state_c.npz"
    _ok(["program", "--model", str(paths["bayes"]), "--out", str(state), "--preset", "C",
         "--seed", "9"])
    _ok(["run", "--data", str(paths["data"]), "--bayes", str(paths["bayes"]), "--mlp", str(paths["mlp"]),
         "--array-state", str(state), "--out", str(tmp_path / "run_c")])
    report = tmp_path / "run_c" / "report.json"
    doc = json.loads(report.read_text())
    assert doc["array_state"] == {"label": "C", "vdd": 0.8, "vddr": 2.4, "program_seed": 9}
    assert doc["config"]["regime"] == "C"
    line = "array state   : label=C program_seed=9 vdd=0.8 vddr=2.4\n"
    assert line in (tmp_path / "run_c" / "report.txt").read_text()
    assert line in _ok(["report", str(report)]).output
    assert "array_state" not in json.loads((paths["run_ideal"] / "report.json").read_text())
    for name, edit, message in (
            ("seed-string", lambda s: s.update(program_seed="9"), "array_state.program_seed is str"),
            ("vdd-null", lambda s: s.update(vdd=None), "array_state.vdd is NoneType"),
            ("label-number", lambda s: s.update(label=3), "array_state.label is int"),
            ("no-vddr", lambda s: s.pop("vddr"), "missing key 'vddr'"),
            ("deleted", None, "array_state is missing from a run through an array state")):
        tampered = json.loads(report.read_text())
        if edit is None:
            del tampered["array_state"]
        else:
            edit(tampered["array_state"])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tampered))
        result = _invoke(["report", str(path)])
        _assert_one_error_line(result, codes=(3,))
        assert message in result.stderr, name


def test_report_command_renders_stored_report(workspace):
    paths, _ = workspace
    result = _ok(["report", str(paths["run_ideal"] / "report.json")])
    assert "config digest :" in result.output
    assert "[front_end] accuracy=1.0000" in result.output
    assert "confusion (rows true, cols pred):" in result.output


def test_sweep_csv_and_echo(workspace):
    paths, _ = workspace
    out_path = paths["ws"] / "sweep.csv"
    result = _ok(["sweep", "--out", str(out_path)])
    assert "t_s=0.002: argmin vdd=1.2" in result.output
    assert "ratio=32.29" in result.output
    assert "t_s=1: argmin vdd=0.9" in result.output
    assert result.stderr == ""
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 6 supply points x 2 monitoring periods
    nominal = next(r for r in rows if float(r["vdd"]) == 1.2 and float(r["t_s"]) == 2e-3)
    assert float(nominal["e_avg"]) == 9.92944e-08


def test_sweep_warns_once_per_failed_point(workspace):
    paths, _ = workspace
    out_path = paths["ws"] / "sweep_partial.csv"
    result = _ok(["sweep", "--vdd", "1.05,1.0", "--out", str(out_path)])
    assert result.stderr == "".join(
        f"wakesim: warning: sweep point vdd=1.05 t_s={t_s} failed: no wake rates tabulated at vdd=1.05\n"
        for t_s in ("0.002", "1"))
    assert "t_s=0.002: argmin vdd=1 " in result.output
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["vdd"] for r in rows] == ["1.05", "1.0"] * 2
    assert rows[0]["e_avg"] == "nan" and rows[1]["e_avg"] != "nan"


def test_sweep_without_a_successful_point_names_the_cause(workspace):
    paths, _ = workspace
    result = _invoke(["sweep", "--vdd", "1.05", "--out", str(paths["ws"] / "sweep_none.csv")])
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == ("wakesim: error: data: no successful sweep points at t_s=0.002: "
                             "no wake rates tabulated at vdd=1.05\n")


@pytest.mark.parametrize("rows, line", [("1.0,2.4,1.0,0.1\n0.0,2.4,1.0,0.1\n", 3),
                                        ("-1.0,2.4,1.0,0.1\n", 2)])
def test_sweep_on_a_rates_row_without_a_positive_vdd_names_the_line(workspace, tmp_path, rows, line):
    paths, _ = workspace
    rates = tmp_path / "rates.csv"
    rates.write_text("vdd,vddr,p_wake_abn,p_wake_n\n" + rows)
    result = _invoke(["sweep", "--rates", str(rates), "--out", str(tmp_path / "sweep.csv")])
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == f"wakesim: error: data: {rates}:{line}: vdd and vddr must be finite and positive\n"


@pytest.mark.parametrize("rows, line, message", [
    # a finite vdd this large overflows e_fe and p_mon to inf, and inf / inf to a nan ratio
    ("1.0,2.4,1.0,0.1\n1e308,2.4,1.0,0.1\n", 3, "vdd 1e+308 outside (0.5, 1.4)"),
    ("1e308,2.4,1.0,0.1\n", 2, "vdd 1e+308 outside (0.5, 1.4)"),
    ("1.0,2.4,1.0,0.1\n1.2,3.5,1.0,0.1\n", 3, "vddr 3.5 outside (1.0, 3.0)"),
])
def test_sweep_on_a_rates_row_outside_the_supply_ranges_names_the_line(workspace, tmp_path, rows, line,
                                                                        message):
    rates = tmp_path / "rates.csv"
    rates.write_text("vdd,vddr,p_wake_abn,p_wake_n\n" + rows)
    result = _invoke(["sweep", "--rates", str(rates), "--out", str(tmp_path / "sweep.csv")])
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == f"wakesim: error: data: {rates}:{line}: {message}\n"


def test_sweep_rejects_bad_grid(workspace):
    paths, _ = workspace
    result = _invoke(["sweep", "--ts", "1e-3,fast", "--out", str(paths["ws"] / "s2.csv")])
    assert result.exit_code == 2
    assert "wakesim: error: config: --ts: non-numeric entry" in result.stderr


def test_run_requires_exactly_one_reader(workspace):
    paths, _ = workspace
    base = ["run", "--data", str(paths["data"]), "--bayes", str(paths["bayes"]),
            "--mlp", str(paths["mlp"]), "--out", str(paths["ws"] / "bad")]
    neither = _invoke(base)
    both = _invoke(base + ["--ideal", "--array-state", str(paths["state"])])
    for result in (neither, both):
        assert result.exit_code == 2
        assert "wakesim: error: config: choose exactly one" in result.stderr


def test_mismatched_array_state_is_a_data_error(workspace, tmp_path):
    paths, _ = workspace
    doc = json.loads(paths["bayes"].read_text())
    doc["codes"][0] = (doc["codes"][0] + 1) % 256
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    result = _invoke([
        "run", "--data", str(paths["data"]), "--bayes", str(edited),
        "--mlp", str(paths["mlp"]), "--array-state", str(paths["state"]),
        "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 3
    assert "wakesim: error: data: array state was programmed from a different code table" in result.stderr


def test_missing_features_is_a_data_error(workspace, tmp_path):
    result = _invoke(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m")])
    assert result.exit_code == 3
    assert "run prepare-data first" in result.stderr


@pytest.mark.parametrize("corrupt", [lambda raw: b"not a zipfile at all", lambda raw: raw[:len(raw) // 2],
                                     lambda raw: b""], ids=["not-a-zip", "truncated", "empty"])
def test_corrupt_features_is_a_data_error_naming_the_file(workspace, tmp_path, corrupt):
    paths, _ = workspace
    broken = tmp_path / "data"
    shutil.copytree(paths["data"], broken)
    path = broken / "features.npz"
    path.write_bytes(corrupt(path.read_bytes()))
    result = _invoke(["train", "--data", str(broken), "--out", str(tmp_path / "m")])
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == f"wakesim: error: data: {path}: malformed feature cache: not an .npz archive\n"


def _malform(arrays: dict, case: str) -> None:
    if case == "missing-train-labels":
        del arrays["train_labels"]
    elif case == "label-9":
        arrays["test_labels"][3] = 9
    elif case == "unequal-lengths":
        arrays["train_labels"] = arrays["train_labels"][:-1]
    elif case == "200-bins":
        arrays["test_mags"] = arrays["test_mags"][:, :200]
    elif case == "nan-magnitude":
        arrays["train_mags"][5, 7] = np.nan
    elif case in ("train-without-P", "train-only-N"):
        keep = arrays["train_labels"] != 3 if case == "train-without-P" else arrays["train_labels"] == 0
        arrays["train_mags"], arrays["train_labels"] = arrays["train_mags"][keep], arrays["train_labels"][keep]
    else:
        arrays["test_mags"][2, 3] = -0.5


@pytest.mark.parametrize("case", ["missing-train-labels", "label-9", "unequal-lengths", "200-bins",
                                  "nan-magnitude", "negative-magnitude", "train-without-P",
                                  "train-only-N"])
def test_malformed_feature_cache_is_a_data_error(workspace, tmp_path, case):
    paths, _ = workspace
    data = tmp_path / "data"
    data.mkdir()
    with np.load(paths["data"] / "features.npz") as npz:
        arrays = dict(npz)
    _malform(arrays, case)
    np.savez(data / "features.npz", **arrays)
    result = _invoke(["train", "--data", str(data), "--out", str(tmp_path / "m")])
    _assert_one_error_line(result, codes=(3,))
    assert f"wakesim: error: data: {data / 'features.npz'}: malformed feature cache" in result.stderr


def _loading(paths, artifact: str, path: Path) -> list[str]:
    """The command that loads `artifact` from path and everything else from the workspace."""
    if artifact == "report.json":
        return ["report", str(path)]
    files = {"bayes_model.json": paths["bayes"], "mlp_model.json": paths["mlp"],
             "state.npz": paths["state"], artifact: path}
    reader = ["--array-state", str(files["state.npz"])] if artifact == "state.npz" else ["--ideal"]
    return ["run", "--data", str(paths["data"]), "--bayes", str(files["bayes_model.json"]),
            "--mlp", str(files["mlp_model.json"]), *reader, "--out", str(path.parent / "out")]


def _source(paths, artifact: str) -> Path:
    return {"bayes_model.json": paths["bayes"], "mlp_model.json": paths["mlp"],
            "report.json": paths["run_a"] / "report.json", "state.npz": paths["state"]}[artifact]


def _assert_one_error_line(result, codes=(2, 3, 4)):
    assert result.exit_code in codes, f"{result.output}\n{result.exception!r}"
    assert re.fullmatch(r"wakesim: error: (config|data|runtime): [^\n]+\n", result.stderr), result.stderr


def _resistance(name: str, value: float, every: bool = False):
    """An edit of an array state's arrays: one resistance of `name`, or all of them, set to value."""
    def edit(arrays):
        if every:
            arrays[name][...] = value
        else:
            arrays[name].flat[17] = value
    return edit


def _meta(key: str, value):
    """An edit of an array state's arrays: meta[key] set to value (json.dumps writes inf as Infinity)."""
    def edit(arrays):
        arrays["meta"] = np.array(json.dumps({**json.loads(str(arrays["meta"])), key: value}))
    return edit


def _five_classes(doc):
    doc["class_names"].append("Q")
    doc["codes"] += doc["codes"][:32]


def _three_bins(doc):
    del doc["feature_bins"][3], doc["quantizers"][3]
    # codes are class-major: word i belongs to feature (i // 8) % 4
    doc["codes"] = [code for i, code in enumerate(doc["codes"]) if i // 8 % 4 != 3]


def _six_outputs(doc):
    """Two more output rows, all zero, on the last layer."""
    last = doc["layers"][-1]
    rows, cols = last["shape"]
    for key, pad in (("weights", bytes(2 * cols)), ("bias", bytes(2 * 4))):
        last[key] = base64.b64encode(base64.b64decode(last[key]) + pad).decode("ascii")
    last["shape"] = [rows + 2, cols]
    doc["dims"][-1] = rows + 2


@pytest.mark.parametrize("artifact, content, message", [
    ("bayes_model.json", lambda doc: doc.pop("quantizers"), "missing key 'quantizers'"),
    ("mlp_model.json", lambda doc: doc["layers"][0].pop("s_w"), "missing key 's_w'"),
    ("report.json", {"hello": 1}, "missing key"),
    ("report.json", [1, 2], "report is list"),
    ("state.npz", b"garbage, not an archive", "not an .npz archive"),
    ("bayes_model.json", lambda doc: doc["codec"].update(base=float("nan")), "NaN is not a JSON number"),
    ("mlp_model.json", lambda doc: doc["layers"][0].update(s_w=float("nan")), "NaN is not a JSON number"),
    ("mlp_model.json", lambda doc: doc["input"]["clip_lo"].__setitem__(0, float("inf")),
     "Infinity is not a JSON number"),
    ("report.json", lambda doc: doc["energy"][0].update(e_avg=float("-inf")),
     "-Infinity is not a JSON number"),
    ("mlp_model.json", lambda doc: doc["layers"][0].update(s_out=0.0),
     "layers[0].s_out is 0.0, expected a positive scale"),
    ("mlp_model.json", lambda doc: doc["layers"][1].update(s_in=-0.5),
     "layers[1].s_in is -0.5, expected a positive scale"),
    ("state.npz", _resistance("r_bl", np.nan, every=True), "r_bl holds a resistance that is not finite"),
    ("state.npz", _resistance("r_blb", np.nan), "r_blb holds a resistance that is not finite"),
    ("state.npz", _resistance("r_bl", np.inf), "r_bl holds a resistance that is not finite"),
    ("state.npz", _resistance("r_blb", 0.0), "r_blb holds a resistance that is not finite and positive"),
    ("state.npz", _resistance("r_bl", -2e4), "r_bl holds a resistance that is not finite and positive"),
    ("mlp_model.json", lambda doc: doc["input"]["clip_lo"].__setitem__(0, doc["input"]["clip_hi"][0] + 1.0),
     "must be below clip_hi[0]"),
    ("mlp_model.json", lambda doc: doc["input"]["clip_lo"].__setitem__(0, doc["input"]["clip_hi"][0]),
     "must be below clip_hi[0]"),
    ("bayes_model.json", lambda doc: doc["feature_bins"].__setitem__(2, doc["feature_bins"][0]),
     "feature_bins: repeated bin"),
    ("mlp_model.json", lambda doc: doc["input"]["bins"].__setitem__(5, doc["input"]["bins"][1]),
     "input.bins: repeated bin"),
    ("bayes_model.json", _five_classes, "class_names ['N', 'L', 'R', 'P', 'Q'] differ"),
    ("bayes_model.json", _three_bins, "feature_bins has 3 entries, expected 4"),
    ("mlp_model.json", _six_outputs, "need an input width and 4 outputs"),
    ("state.npz", _meta("sigma_n_table", []), "sigma_n_table is empty"),
    ("state.npz", _meta("sigma_n_table", [[1.2, 3.8], [0.8, 0.08]]),
     "sigma_n_table: x values [1.2, 0.8] are not strictly increasing"),
    ("state.npz", _meta("sigma_n_table", [[0.7, float("inf")], [1.2, 0.08]]), "Infinity is not a JSON number"),
    ("mlp_model.json", lambda doc: doc["layers"][0].update(zp_in=5), "layers[0].zp_in is 5, expected -128"),
    ("mlp_model.json", lambda doc: doc["layers"][1].update(s_in=doc["layers"][1]["s_in"] * 1000),
     "layers[1].s_in is"),
    ("mlp_model.json", lambda doc: doc["layers"][0].update(zp_out=100), "layers[0].zp_out is 100, expected -128"),
    ("mlp_model.json", lambda doc: doc["layers"][0].update(s_out=1e-320),
     "layers[0]: the requantize multiplier s_in * s_w / s_out is not finite"),
    ("mlp_model.json", lambda doc: doc["layers"][1].update(s_w=1e308),
     "layers[1]: the requantize multiplier s_in * s_w / s_out is not finite over the accumulator's range"),
    ("mlp_model.json", lambda doc: doc["input"].update(clip_lo=[-1e308] * 32, clip_hi=[1e308] * 32),
     "clip_lo[0] -1e+308 must be below clip_hi[0] 1e+308 by a finite span"),
    ("state.npz", lambda arrays: arrays.update(codes=arrays["codes"].astype(np.int64) + 256),
     "codes hold a value outside 0..255"),
    ("state.npz", _meta("seed", -5), "meta.seed -5 is negative"),
], ids=["bayes-no-quantizers", "mlp-no-s_w", "report-other-object", "report-list", "state-garbage",
        "bayes-nan", "mlp-nan-s_w", "mlp-inf-clip", "report-minus-inf", "mlp-zero-s_out",
        "mlp-negative-s_in", "state-all-nan", "state-one-nan", "state-inf", "state-zero",
        "state-negative", "mlp-clip-crossed", "mlp-clip-equal", "bayes-repeated-bin",
        "mlp-repeated-bin", "bayes-five-classes", "bayes-three-bins", "mlp-six-outputs",
        "state-empty-sigma-table", "state-descending-sigma-table", "state-infinity-token",
        "mlp-other-zp_in", "mlp-other-s_in", "mlp-other-zp_out", "mlp-infinite-multiplier",
        "mlp-overflowing-multiplier", "mlp-overflowing-clip-span", "state-wrapped-codes",
        "state-negative-seed"])
def test_malformed_artifact_is_a_data_error_naming_the_file(workspace, tmp_path, artifact, content,
                                                            message):
    paths, _ = workspace
    path = tmp_path / artifact
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif artifact == "state.npz":
        with np.load(_source(paths, artifact)) as npz:
            arrays = dict(npz)
        content(arrays)
        np.savez(path, **arrays)
    elif callable(content):
        doc = json.loads(_source(paths, artifact).read_text())
        content(doc)
        path.write_text(json.dumps(doc))
    else:
        path.write_text(json.dumps(content))
    result = _invoke(_loading(paths, artifact, path))
    _assert_one_error_line(result, codes=(3,))
    assert f"wakesim: error: data: {path}: malformed" in result.stderr
    assert message in result.stderr


def _json_kind(value) -> str:
    for kind, types in (("bool", bool), ("number", (int, float)), ("string", str),
                        ("array", list), ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null"


def _locations(node, path=()):
    """(path, value) of every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _locations(value, path + (key,))


@st.composite
def _mutated(draw, paths, artifact):
    """The bytes of `artifact` with one key deleted, one value's JSON type swapped or one list truncated."""
    raw = _source(paths, artifact).read_bytes()
    if artifact == "state.npz":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    doc = json.loads(raw)
    locations = list(_locations(doc))
    kind = draw(st.sampled_from(["delete", "swap", "truncate"]))
    if kind == "delete":
        # Seeds and energy rows are mappings build_report takes from its caller
        # as given, so a report that lacks one of their keys is still valid.
        locations = [(p, v) for p, v in locations if isinstance(p[-1], str)
                     and not (artifact == "report.json" and p[0] in ("seeds", "energy") and len(p) > 1)]
    elif kind == "truncate":
        locations = [(p, v) for p, v in locations if isinstance(v, list) and v]
    path, value = draw(st.sampled_from(locations))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "swap":
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in (None, True, 7, "x", [], {}) if _json_kind(v) != _json_kind(value)]))
    else:
        del value[draw(st.integers(0, len(value) - 1)):]
    return json.dumps(doc).encode()


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_mutated_artifacts_follow_the_exit_code_contract(workspace, data):
    paths, _ = workspace
    artifact = data.draw(st.sampled_from(["bayes_model.json", "mlp_model.json", "report.json", "state.npz"]))
    path = paths["ws"] / "fuzz" / artifact
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data.draw(_mutated(paths, artifact)))
    _assert_one_error_line(_invoke(_loading(paths, artifact, path)))


_FEATURE_MEMBERS = ("train_mags", "train_labels", "test_mags", "test_labels")


@st.composite
def _value_mutant(draw, arrays):
    """The feature cache's arrays with one member changed in value, so that the cache is invalid:
    a sign, a NaN, an integer or bool dtype, another shape, a label outside the classes, or
    train_mags whose bins each hold one value, so the front end's bins are constant."""
    kind = draw(st.sampled_from(["sign", "nan", "dtype", "shape", "label", "constant"]))
    name = draw(st.sampled_from(["train_mags"] if kind == "constant" else
                                [m for m in _FEATURE_MEMBERS if kind != "label" or m.endswith("labels")]))
    a = arrays[name].copy()
    mags = name.endswith("mags")
    if kind == "sign":  # a positive magnitude or label turns negative
        a.flat[draw(st.sampled_from(np.flatnonzero(a > 0).tolist()))] *= -1
    elif kind == "nan":
        a = a.astype(np.float64)
        a.flat[draw(st.integers(0, a.size - 1))] = np.nan
    elif kind == "dtype":
        a = a.astype(draw(st.sampled_from([np.int64, np.int32, np.bool_] if mags
                                          else [np.bool_, np.float64, np.float32])))
    elif kind == "shape":
        a = draw(st.sampled_from([a[:-1], a[..., None], a[None], np.append(a, a[:1], axis=0)]
                                 + ([a[:, :-1], a.ravel(), np.hstack([a, a[:, :1]])] if mags else [])))
    elif kind == "label":
        a[draw(st.integers(0, len(a) - 1))] = draw(st.integers(-2 ** 62, -1) | st.integers(4, 2 ** 62))
    else:  # every train beat takes one beat's magnitudes
        a[:] = a[draw(st.integers(0, len(a) - 1))]
    return {**arrays, name: a}


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_value_mutated_feature_cache_follows_the_exit_code_contract(workspace, data):
    paths, _ = workspace
    with np.load(paths["data"] / "features.npz") as npz:
        arrays = dict(npz)
    data_dir = paths["ws"] / "fuzz_features"
    data_dir.mkdir(exist_ok=True)
    np.savez(data_dir / "features.npz", **data.draw(_value_mutant(arrays)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = _invoke(["train", "--data", str(data_dir), "--out", str(paths["ws"] / "fuzz_model"),
                          "--epochs", "1"])
    _assert_one_error_line(result, codes=(2, 3))
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_train_on_a_constant_train_bin_is_a_data_error_naming_the_bin(workspace, tmp_path):
    paths, _ = workspace
    with np.load(paths["data"] / "features.npz") as npz:
        arrays = dict(npz)
    np.savez(tmp_path / "features.npz", **{**arrays, "train_mags": np.zeros_like(arrays["train_mags"])})
    result = _invoke(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m"), "--epochs", "1"])
    _assert_one_error_line(result, codes=(3,))
    assert f"{tmp_path / 'features.npz'}: malformed feature cache: train_mags bin 0 holds" in result.stderr


def test_train_on_one_constant_train_bin_outside_the_front_end_trains(workspace, tmp_path):
    """A flat bin scores 0 and ranks last, so neither the front end nor the back end takes it."""
    paths, _ = workspace
    with np.load(paths["data"] / "features.npz") as npz:
        arrays = dict(npz)
    top = chi2_rank(arrays["train_mags"], arrays["train_labels"])[0][0]
    arrays["train_mags"][:, top] = arrays["train_mags"][0, top]
    np.savez(tmp_path / "features.npz", **arrays)
    _ok(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m"), "--epochs", "1"])
    assert top not in json.loads((tmp_path / "m" / "bayes_model.json").read_text())["feature_bins"]
    assert top not in json.loads((tmp_path / "m" / "mlp_model.json").read_text())["input"]["bins"]


# A huge finite value for each JSON number kind of mlp_model.json.
_HUGE = {float: (1e307, 1e308, sys.float_info.max), int: (2 ** 63, -2 ** 63)}


@st.composite
def _mlp_value_mutant(draw, doc):
    """(mutant, path) of mlp_model.json with one value changed at path: a number's sign, zero or a
    huge finite value; one bin's clip pair swapped or spread to -h, h for a huge h; or a weight or
    bias blob that decodes to another length."""
    kind = draw(st.sampled_from(["sign", "zero", "huge", "clip pair", "blob"]))
    if kind == "clip pair":
        i = draw(st.integers(0, len(doc["input"]["bins"]) - 1))
        lo, hi = doc["input"]["clip_lo"], doc["input"]["clip_hi"]
        h = draw(st.sampled_from((None,) + _HUGE[float]))
        lo[i], hi[i] = (hi[i], lo[i]) if h is None else (-h, h)
        return doc, ("input", "clip_lo", i)
    if kind == "blob":
        layer = draw(st.integers(0, len(doc["layers"]) - 1))
        key = draw(st.sampled_from(["weights", "bias"]))
        raw = base64.b64decode(doc["layers"][layer][key])
        n = draw(st.integers(0, 2 * len(raw)).filter(lambda n: n != len(raw)))
        doc["layers"][layer][key] = base64.b64encode((raw * 2)[:n]).decode("ascii")
        return doc, ("layers", layer, key)
    path, value = draw(st.sampled_from([(p, v) for p, v in _locations(doc)
                                        if _json_kind(v) == "number" and (v or kind != "sign")]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "huge":
        parent[path[-1]] = draw(st.sampled_from(_HUGE[type(value)]))
    else:
        parent[path[-1]] = -value if kind == "sign" else type(value)(0)
    return doc, path


def _valid_mlp_mutant(doc, path) -> bool:
    """Whether a one-value mutant of mlp_model.json is still a model: a bin moved to another
    distinct bin, a clip pair still ordered with a finite span, or a positive weight scale whose
    requantize multiplier stays finite over the accumulator's range (the last layer has none)."""
    where, *rest = path
    if where == "input" and rest[0] == "bins":
        bins = doc["input"]["bins"]
        return 0 <= bins[rest[1]] < FEATURE_LEN and bins.count(bins[rest[1]]) == 1
    if where == "input" and rest[0] in ("clip_lo", "clip_hi"):
        lo, hi = doc["input"]["clip_lo"][rest[1]], doc["input"]["clip_hi"][rest[1]]
        return lo < hi and math.isfinite(hi - lo)
    if where == "layers" and rest[1] == "s_w":
        layer = doc["layers"][rest[0]]
        return layer["s_w"] > 0 and (layer["s_out"] is None or math.isfinite(
            layer["s_in"] * layer["s_w"] / layer["s_out"] * (layer["shape"][1] * 255 * 128 + 2 ** 31)))
    return False


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_value_mutated_mlp_model_follows_the_exit_code_contract(workspace, data):
    paths, _ = workspace
    doc, changed = data.draw(_mlp_value_mutant(json.loads(paths["mlp"].read_text())))
    path = paths["ws"] / "fuzz_mlp" / "mlp_model.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = _invoke(_loading(paths, "mlp_model.json", path))
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if _valid_mlp_mutant(doc, changed):
        assert result.exit_code == 0, f"{changed}: {result.output}\n{result.exception!r}"
    else:
        _assert_one_error_line(result, codes=(2, 3))


# Huge finite values for bayes_model.json: _HUGE's, their negatives and an int past every float.
_BAYES_HUGE = {float: _HUGE[float] + tuple(-h for h in _HUGE[float]), int: _HUGE[int] + (10**400,)}


@st.composite
def _bayes_value_mutant(draw, doc):
    """(mutant, path) of bayes_model.json with one leaf changed: a number's sign, zero or a huge
    finite value; a code outside 0..255; one quantizer's clip pair swapped; or a leaf of another
    JSON type."""
    kind = draw(st.sampled_from(["sign", "zero", "huge", "code", "clip pair", "type"]))
    if kind == "clip pair":
        i = draw(st.integers(0, len(doc["quantizers"]) - 1))
        q = doc["quantizers"][i]
        q["clip_lo"], q["clip_hi"] = q["clip_hi"], q["clip_lo"]
        return doc, ("quantizers", i, "clip_lo")
    if kind == "code":
        i = draw(st.integers(0, len(doc["codes"]) - 1))
        doc["codes"][i] = draw(st.integers(-2 ** 70, -1) | st.integers(256, 2 ** 70))
        return doc, ("codes", i)
    leaves = [(p, v) for p, v in _locations(doc) if not isinstance(v, (dict, list))]
    if kind != "type":
        leaves = [(p, v) for p, v in leaves if _json_kind(v) == "number" and (v or kind != "sign")]
    path, value = draw(st.sampled_from(leaves))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "type":
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in (None, True, 7, "x", [], {}) if _json_kind(v) != _json_kind(value)]))
    elif kind == "huge":
        parent[path[-1]] = draw(st.sampled_from(_BAYES_HUGE[type(value)]))
    else:
        parent[path[-1]] = -value if kind == "sign" else type(value)(0)
    return doc, path


def _valid_bayes_mutant(doc, path) -> bool:
    """Whether a one-leaf mutant of bayes_model.json is still a model: a number where the loader
    takes one, and a code in 0..2**width - 1, a bin moved to another distinct bin, a clip pair
    still ordered (a span that overflows to inf only puts every value on level 0), a base in
    (0, 1), a scale in 1..2**53 (exact as a float) or a width of 1..8 that holds every code."""
    value = doc
    for key in path:
        value = value[key]
    if _json_kind(value) != "number":
        return False
    codec, where = doc["codec"], path[0]
    if where == "codes":
        return 0 <= value < 2 ** codec["width"]
    if where == "feature_bins":
        return 0 <= value < FEATURE_LEN and doc["feature_bins"].count(value) == 1
    if where == "quantizers" and path[2] != "levels":
        q = doc["quantizers"][path[1]]
        return q["clip_lo"] < q["clip_hi"]
    if where == "codec":
        return {"base": 0 < value < 1, "scale": 1 <= value <= 2 ** 53,
                "width": 1 <= value <= 8 and max(doc["codes"]) < 2 ** value}[path[1]]
    return False  # quantizers[i].levels: every quantizer has 8


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_value_mutated_bayes_model_follows_the_exit_code_contract(workspace, data):
    paths, _ = workspace
    doc, changed = data.draw(_bayes_value_mutant(json.loads(paths["bayes"].read_text())))
    path = paths["ws"] / "fuzz_bayes" / "bayes_model.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = _invoke(_loading(paths, "bayes_model.json", path))
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if _valid_bayes_mutant(doc, changed):
        assert result.exit_code == 0, f"{changed}: {result.output}\n{result.exception!r}"
    else:
        _assert_one_error_line(result, codes=(2, 3))


_STATE_MEMBERS = ("r_bl", "r_blb", "codes")


@st.composite
def _state_value_mutant(draw, arrays):
    """(mutant, what) of state.npz's arrays with one member or one meta leaf changed in value: a
    member's sign, zero, NaN, an integer outside 0..255, another dtype or another shape; or a meta
    number's sign, zero or a huge finite value, or a meta leaf of another JSON type."""
    kind = draw(st.sampled_from(["sign", "zero", "nan", "range", "dtype", "shape", "meta"]))
    if kind == "meta":
        meta = json.loads(str(arrays["meta"]))
        how = draw(st.sampled_from(["sign", "zero", "huge", "type"]))
        leaves = [(p, v) for p, v in _locations(meta) if not isinstance(v, (dict, list))
                  and (how == "type" or _json_kind(v) == "number" and (v or how != "sign"))]
        path, value = draw(st.sampled_from(leaves))
        parent = meta
        for key in path[:-1]:
            parent = parent[key]
        if how == "type":
            parent[path[-1]] = draw(st.sampled_from(
                [v for v in (None, True, 7, "x", [], {}) if _json_kind(v) != _json_kind(value)]))
        elif how == "huge":
            parent[path[-1]] = draw(st.sampled_from(_BAYES_HUGE[type(value)]))
        else:
            parent[path[-1]] = -value if how == "sign" else type(value)(0)
        return {**arrays, "meta": np.array(json.dumps(meta))}, ("meta",) + path
    name = draw(st.sampled_from(_STATE_MEMBERS))
    a = arrays[name].copy()
    if kind == "sign":
        a = a.astype(np.int64) if name == "codes" else a
        a.flat[draw(st.sampled_from(np.flatnonzero(a > 0).tolist()))] *= -1
    elif kind == "zero":
        a.flat[draw(st.integers(0, a.size - 1))] = 0
    elif kind == "nan":
        a = a.astype(np.float64)
        a.flat[draw(st.integers(0, a.size - 1))] = np.nan
    elif kind == "range":
        a = a.astype(np.int64)
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.integers(-2 ** 62, -1) | st.integers(256, 2 ** 62))
    elif kind == "dtype":
        a = a.astype(draw(st.sampled_from([np.int64, np.int16, np.uint16, np.float32, np.float64,
                                           np.bool_])))
    else:
        a = draw(st.sampled_from([a[:-1], a[..., None], a[None], a.ravel(), np.append(a, a[:1], axis=0)]))
    return {**arrays, name: a}, (name,)


def _valid_state_mutant(mutant, source, what) -> bool:
    """Whether a one-value mutant of state.npz is still the workspace's array state: resistances of
    the same shape, every one finite and positive (any real dtype); integer codes of the same shape
    equal to the model's table; a meta vdd and vddr inside memsim's ranges, an integer seed >= 0, a
    string label, and a sigma_n table of number pairs, x strictly increasing, sigma >= 0 and
    nonincreasing."""
    name = what[0]
    if name != "meta":
        a = mutant[name]
        if a.shape != source[name].shape:
            return False
        if name == "codes":
            return a.dtype.kind in "iu" and np.array_equal(a, source["codes"])
        return bool(np.all(np.isfinite(a) & (a > 0)))
    meta = json.loads(str(mutant["meta"]))

    def number(v):
        return _json_kind(v) == "number"

    table = meta["sigma_n_table"]
    if what[1] == "sigma_n_table":
        if not all(number(v) and math.isfinite(v) for pair in table for v in pair):
            return False
        xs, sigmas = [x for x, _ in table], [s for _, s in table]
        return all(a < b for a, b in zip(xs, xs[1:])) and min(sigmas) >= 0 and \
            all(a >= b for a, b in zip(sigmas, sigmas[1:]))
    value = meta[what[1]]
    return {"vdd": lambda: number(value) and 0.5 <= value <= 1.4,
            "vddr": lambda: number(value) and 1.0 <= value <= 3.0,
            "seed": lambda: isinstance(value, int) and not isinstance(value, bool) and value >= 0,
            "label": lambda: isinstance(value, str)}[what[1]]()


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_value_mutated_array_state_follows_the_exit_code_contract(workspace, data):
    paths, _ = workspace
    with np.load(paths["state"]) as npz:
        arrays = dict(npz)
    mutant, what = data.draw(_state_value_mutant(arrays))
    path = paths["ws"] / "fuzz_state" / "state.npz"
    path.parent.mkdir(exist_ok=True)
    np.savez(path, **mutant)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = _invoke(_loading(paths, "state.npz", path))
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if _valid_state_mutant(mutant, arrays, what):
        assert result.exit_code == 0, f"{what}: {result.output}\n{result.exception!r}"
    else:
        _assert_one_error_line(result, codes=(2, 3))


@st.composite
def _rates_value_mutant(draw, rows):
    """The rows of a rates CSV with one field changed: a number's sign, zero, a huge finite value, a
    non-finite or non-numeric token, or another row's vdd; or one row with a field dropped or added."""
    rows = [row[:] for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["sign", "zero", "huge", "token", "repeat", "width"]))
    if kind == "width":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0.5"]
        return rows
    j = draw(st.integers(0, 3))
    if kind == "repeat":
        j = 0
        rows[i][0] = rows[draw(st.integers(0, len(rows) - 1).filter(lambda k: k != i))][0]
    elif kind == "token":
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "x", ""]))
    elif kind == "huge":
        rows[i][j] = repr(draw(st.sampled_from(_BAYES_HUGE[float])))
    else:
        rows[i][j] = repr(-float(rows[i][j]) if kind == "sign" else 0.0)
    return rows


def _valid_rates(rows) -> bool:
    """Whether CSV rows are a rates table: four numbers per row, vdd and vddr inside memsim's
    VDD_RANGE and VDDR_RANGE, both rates in [0, 1], and no vdd twice."""
    try:
        values = [[float(v) for v in row] for row in rows if len(row) == 4]
    except ValueError:
        return False
    vdds = [v[0] for v in values]
    return len(values) == len(rows) and len(set(vdds)) == len(vdds) and all(
        VDD_RANGE[0] <= vdd <= VDD_RANGE[1] and VDDR_RANGE[0] <= vddr <= VDDR_RANGE[1]
        and 0 <= p_abn <= 1 and 0 <= p_n <= 1
        for vdd, vddr, p_abn, p_n in values)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_value_mutated_rates_csv_follows_the_exit_code_contract(workspace, data):
    paths, _ = workspace
    with open(default_rates_fixture(), newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows = data.draw(_rates_value_mutant(rows))
    path = paths["ws"] / "fuzz_rates" / "rates.csv"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = _invoke(["sweep", "--rates", str(path), "--out", str(path.parent / "sweep.csv")])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if _valid_rates(rows):
        assert result.exit_code == 0 and result.stderr == "", f"{rows}: {result.output}\n{result.exception!r}"
    else:
        _assert_one_error_line(result, codes=(2, 3))


def test_mlp_model_whose_logit_could_wrap_is_a_data_error(workspace, tmp_path):
    """One layer over two bins, weights [[127, 127], 0, 0, 0] and bias [2**31 - 1, 0, 0, 0]:
    input [127, 127] would wrap class 0's int32 logit."""
    paths, _ = workspace
    doc = json.loads(paths["mlp"].read_text())
    weights = np.zeros((4, 2), dtype=np.int8)
    weights[0] = 127
    doc["dims"] = [2, 4]
    doc["input"].update(bins=doc["input"]["bins"][:2], clip_lo=[0.0, 0.0], clip_hi=[1.0, 1.0])
    doc["layers"] = [{**doc["layers"][-1], "shape": [4, 2], "s_in": doc["input"]["scale"], "s_w": 1.0,
                      "weights": base64.b64encode(weights.tobytes()).decode("ascii"),
                      "bias": base64.b64encode(np.array([2**31 - 1, 0, 0, 0], "<i4").tobytes()).decode("ascii")}]
    path = tmp_path / "mlp_model.json"
    path.write_text(json.dumps(doc))
    result = _invoke(_loading(paths, "mlp_model.json", path))
    _assert_one_error_line(result, codes=(3,))
    assert f"{path}: malformed mlp model: layers[0].bias: |bias| + 2 * 255 * 128" in result.stderr
    # the same model with a zero bias runs
    doc["layers"][0]["bias"] = base64.b64encode(np.zeros(4, "<i4").tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    _ok(_loading(paths, "mlp_model.json", path))


def test_cli_import_loads_no_scipy():
    src = str(Path(wakesim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wakesim.cli; sys.exit('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bad_config_value_is_a_config_error(workspace, tmp_path):
    conf = tmp_path / "bad.ini"
    conf.write_text("[dataset]\nnoise_sigma = plenty\n")
    result = _invoke(["prepare-data", "--out", str(tmp_path / "d"),
                      "--config", str(conf)])
    assert result.exit_code == 2
    assert "wakesim: error: config: [dataset] noise_sigma: not a number" in result.stderr


_TABLES = ("[operating_point]\nvdd = 1.1\nvddr = 2.0\n"
           "lrs_log10_mean = 1.0:5.995,2.0:4.8,3.0:3.8\nlrs_log10_sigma = 1.0:0.02,3.0:0.12\n"
           "hrs_log10_mean = 6.0\nhrs_log10_sigma = 0.06\nsigma_n = 0.7:5.0,1.2:0.08\n")


def _command(paths, tmp_path, name: str) -> list[str]:
    """`name` run on the workspace, writing under tmp_path."""
    return {
        "prepare-data": ["prepare-data", "--out", str(tmp_path / "d")],
        "train": ["train", "--data", str(paths["data"]), "--out", str(tmp_path / "m")],
        "program": ["program", "--model", str(paths["bayes"]), "--out", str(tmp_path / "s.npz")],
        "run": ["run", "--data", str(paths["data"]), "--bayes", str(paths["bayes"]),
                "--mlp", str(paths["mlp"]), "--ideal", "--out", str(tmp_path / "r")],
        "sweep": ["sweep", "--out", str(tmp_path / "s.csv")],
    }[name]


@pytest.mark.parametrize("name, conf, flags, message", [
    ("train", "[codec]\nbase = 2\n", [], "[codec]: base must lie strictly between 0 and 1"),
    ("train", "[codec]\nwidth = 9\n", [], "[codec]: width must be at most 8"),
    ("train", "[train]\nbatch_size = 0\n", [], "[train]: batch_size must be at least 1"),
    ("train", "[train]\nepochs = -3\n", [], "[train]: epochs must be nonnegative"),
    ("train", "", ["--lr", "nan"], "[train]: lr must be finite and positive"),
    ("prepare-data", "", ["--beats-per-class", "0"], "[dataset]: beats_per_class must be at least 1"),
    ("prepare-data", "", ["--test-per-class", "-2"], "[dataset]: test_per_class must be nonnegative"),
    ("prepare-data", "[dataset]\nsource = bogus\n", [], "[dataset]: source must be one of"),
    ("run", "[policy]\nwake_on_abnormal = maybe\n", [], "[policy] wake_on_abnormal: not a boolean"),
    ("run", "[energy]\npi = 2\n", [], "[energy]: pi must lie in [0, 1]"),
    ("sweep", "[energy]\npi = 1%\n", [], "[energy] pi: not a number"),
    ("sweep", "", ["--ts", ""], "--ts: empty grid"),
    ("sweep", "", ["--vdd", ","], "--vdd: empty grid"),
    ("program", _TABLES, ["--preset", "B"], "--preset B conflicts with the explicit [operating_point]"),
    ("program", "[operating_point]\nvdd = 1.1\n", [], "[operating_point] missing key 'vddr'"),
    ("sweep", "[energy]\ne_service = nan\n", [], "[energy]: e_service must be finite and positive"),
    ("program", _TABLES.replace("hrs_log10_sigma = 0.06", "hrs_log10_sigma = nan"), [],
     "[operating_point]: hrs sigma must be finite and nonnegative"),
    ("program", _TABLES.replace("hrs_log10_mean = 6.0", "hrs_log10_mean = inf"), [],
     "[operating_point]: hrs mean must be finite"),
    ("program", _TABLES.replace("sigma_n = 0.7:5.0", "sigma_n = 0.7:nan"), [],
     "[operating_point] sigma_n: non-finite pair '0.7:nan'"),
    ("program", _TABLES.replace("2.0:4.8", "2.0:4.8,2.0:4.7"), [],
     "[operating_point]: lrs_log10_mean_table: x values [1.0, 2.0, 2.0, 3.0] are not strictly increasing"),
    ("sweep", "", ["--ts=-1"], "--ts: t_s must be finite and nonnegative"),
    ("sweep", "", ["--ts", "nan"], "--ts: non-finite entry in 'nan'"),
    ("sweep", "", ["--ts", "inf"], "--ts: non-finite entry in 'inf'"),
    ("sweep", "", ["--vdd", "1.0,nan"], "--vdd: non-finite entry in '1.0,nan'"),
    ("sweep", "", ["--vdd=-1,1.0"], "--vdd: -1 is not positive"),
    ("sweep", "", ["--vdd", "1.0,0"], "--vdd: 0 is not positive"),
    ("prepare-data", "", ["--seed", "-1"], "[dataset]: seed must be nonnegative"),
    ("train", "", ["--seed", "-1"], "[train]: seed must be nonnegative"),
    ("program", "", ["--seed", "-1"], "[seeds] program: must be nonnegative"),
    ("run", "", ["--seed", "-1"], "[seeds] read: must lie in 0..18446744073709551615"),
    ("run", "", ["--seed", str(2**64)], "[seeds] read: must lie in 0..18446744073709551615"),
    ("run", "[seeds]\nread = -1\n", [], "[seeds] read: must lie in 0..18446744073709551615"),
    ("train", "[train]\nepoch = 1\n", [], "[train] epoch: unknown key"),
    ("sweep", "[energy]\ne_fe_curve = 0.9:1e-9,1.0:2e-9\n", [], "[energy] e_fe_curve: unknown key"),
    ("program", "[operating_point]\nvddd = 1.1\n", [], "[operating_point] vddd: unknown key"),
    ("prepare-data", "[datset]\nseed = 4\n", [], "[datset]: unknown section"),
    ("sweep", "[DEFAULT]\nseed = 4\n", [], "[DEFAULT]: unknown section"),
    ("train", "[train]\nseed = \udcff\n", [],
     "malformed config file {ini}: 'utf-8' codec can't decode byte 0xff in position 15"),
], ids=["codec-base", "codec-width", "batch-size", "epochs", "lr-nan", "beats-per-class",
        "test-per-class", "source", "policy-bool", "pi-range", "percent", "empty-ts", "empty-vdd",
        "preset-and-tables", "partial-tables", "e-service-nan", "hrs-sigma-nan", "hrs-mean-inf", "table-nan", "table-repeated-x",
        "ts-negative", "ts-nan", "ts-inf", "vdd-nan", "vdd-negative", "vdd-zero", "dataset-seed", "train-seed", "program-seed",
        "run-seed-negative", "run-seed-2**64", "run-seed-file", "unknown-key", "stale-e-fe-curve",
        "unknown-table-key", "unknown-section", "default-section", "not-utf8"])
def test_bad_setting_is_one_config_error_line(workspace, tmp_path, name, conf, flags, message):
    paths, _ = workspace
    args = _command(paths, tmp_path, name) + flags
    ini = tmp_path / "bad.ini"
    if conf:
        ini.write_text(conf, errors="surrogateescape")  # \udcff is written as the byte 0xff
        args += ["--config", str(ini)]
    result = _invoke(args)
    _assert_one_error_line(result, codes=(2,))
    assert result.stderr.startswith(f"wakesim: error: config: {message.format(ini=ini)}"), result.stderr


def test_explicit_operating_point_tables_are_programmed(workspace, tmp_path):
    paths, _ = workspace
    (tmp_path / "op.ini").write_text(_TABLES)
    result = _ok(_command(paths, tmp_path, "program") + ["--config", str(tmp_path / "op.ini")])
    assert "programmed 128 words at vddr=2.0 (vdd=1.1," in result.output


def test_run_without_abnormal_beats_echoes_undefined_f1(workspace, tmp_path):
    paths, _ = workspace
    data = tmp_path / "data"
    data.mkdir()
    normal = [b for b in read_beats_csv(paths["data"] / "test.csv") if b.label == 0]
    write_beats_csv(data / "test.csv", normal)
    result = _ok(["run", "--data", str(data), "--bayes", str(paths["bayes"]), "--mlp", str(paths["mlp"]),
                  "--ideal", "--out", str(tmp_path / "out")])
    assert "regime ideal: front macro-F1 --, system macro-F1 --" in result.output


def test_train_on_an_empty_test_split_echoes_undefined_accuracy(tmp_path):
    _ok(["prepare-data", "--out", str(tmp_path / "d"), "--beats-per-class", "20", "--test-per-class", "0"])
    result = _ok(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "m"), "--epochs", "2"])
    assert "back-end int8 test accuracy --" in result.output
    assert result.stderr == ""


def test_unknown_subcommand_fails_with_usage(workspace):
    result = _invoke(["frobnicate"])
    assert result.exit_code == 2
    assert "No such command" in result.stderr


def test_prepare_data_from_csv_source(tmp_path):
    ds = synth_dataset(4, 3, 0.05, test_per_class=2)
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    write_beats_csv(train_csv, ds.train)
    write_beats_csv(test_csv, ds.test)
    out_dir = tmp_path / "out"
    result = _ok(["prepare-data", "--out", str(out_dir), "--source", "csv",
                  "--train-csv", str(train_csv), "--test-csv", str(test_csv)])
    assert "-> " in result.output
    for name in ("test.csv", "manifest.json", "features.npz"):
        assert (out_dir / name).exists()
    assert not (out_dir / "train.csv").exists()
    with np.load(out_dir / "features.npz") as npz:
        assert npz["train_mags"].shape == (12, 254)
        assert npz["test_mags"].shape == (8, 254)
    missing = _invoke(["prepare-data", "--out", str(out_dir), "--source", "csv"])
    assert missing.exit_code == 2
    assert "--train-csv and --test-csv are required" in missing.stderr


def test_train_on_a_csv_train_split_without_a_class_is_a_data_error(tmp_path):
    ds = synth_dataset(4, 3, 0.05, test_per_class=2)
    write_beats_csv(tmp_path / "train.csv", [b for b in ds.train if b.label != 3])
    write_beats_csv(tmp_path / "test.csv", ds.test)
    data = tmp_path / "data"
    _ok(["prepare-data", "--out", str(data), "--source", "csv",
         "--train-csv", str(tmp_path / "train.csv"), "--test-csv", str(tmp_path / "test.csv")])
    result = _invoke(["train", "--data", str(data), "--out", str(tmp_path / "m")])
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == (f"wakesim: error: data: {data / 'features.npz'}: malformed feature cache: "
                             "train_labels hold no beat of class 3; training needs every class\n")


# A message starts with where the error is: the file's line, or the file as a whole.
@pytest.mark.parametrize("column, value, message", [
    (0, "7", ":3: label 7 outside [0, 3]"),
    (0, "1.5", ":3: invalid literal for int() with base 10: '1.5'"),
    (0, "N", ":3: invalid literal for int() with base 10: 'N'"),
    (2, "x", ":3: invalid literal for int() with base 10: 'x'"),
    (3, "oops", ":3: could not convert string to float: 'oops'"),
    (200, "nan", ":3: samples must be finite"),
    (3, "-inf", ":3: samples must be finite"),
    (1, "syn\udcff", ": malformed beats CSV: not UTF-8 text (invalid start byte)"),
    (3, "1" * 200_000, ": malformed beats CSV: field larger than field limit (131072)"),
], ids=["label-range", "label-fraction", "label-text", "beat-index", "sample-text", "sample-nan",
        "sample-inf", "not-utf8", "field-too-long"])
@pytest.mark.parametrize("command", ["prepare-data", "run"])
def test_malformed_beats_csv_row_is_a_data_error_naming_the_line(workspace, tmp_path, command,
                                                                 column, value, message):
    paths, _ = workspace
    ds = synth_dataset(4, 3, 0.05, test_per_class=2)
    data = tmp_path / "data"
    data.mkdir()
    write_beats_csv(data / "train.csv", ds.train)
    write_beats_csv(data / "test.csv", ds.test)
    with open(data / "test.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][column] = value
    # surrogateescape writes a lone surrogate such as \udcff as the raw byte 0xff
    with open(data / "test.csv", "w", newline="", errors="surrogateescape") as fh:
        csv.writer(fh).writerows(rows)
    if command == "prepare-data":
        args = ["prepare-data", "--out", str(tmp_path / "out"), "--source", "csv",
                "--train-csv", str(data / "train.csv"), "--test-csv", str(data / "test.csv")]
    else:
        args = ["run", "--data", str(data), "--bayes", str(paths["bayes"]), "--mlp", str(paths["mlp"]),
                "--ideal", "--out", str(tmp_path / "out")]
    result = _invoke(args)
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == f"wakesim: error: data: {data / 'test.csv'}{message}\n"


def test_prepare_data_from_wfdb_source(wfdb_dir_factory, tmp_path):
    directory, labels = wfdb_dir_factory(beats_per_class=3)
    out_dir = tmp_path / "out"
    result = _ok(["prepare-data", "--out", str(out_dir), "--source", "wfdb",
                  "--wfdb-dir", str(directory), "--beats-per-class", "2",
                  "--test-per-class", "1", "--seed", "0"])
    assert f"ingested {len(labels)} beats" in result.output
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["train"]) == 8 and len(manifest["test"]) == 4
    missing = _invoke(["prepare-data", "--out", str(out_dir), "--source", "wfdb"])
    assert missing.exit_code == 2
    assert "--wfdb-dir is required" in missing.stderr


@pytest.mark.parametrize("fs, message", [
    ("nan", "data: {dir}/100.hea: sampling frequency must be finite and positive: '100 2 nan 600'"),
    ("360.7", "data: 100: sample rate 360.7 != 360"),
    ("\udcff", "data: {dir}/100.hea: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
], ids=["nan", "fractional", "not-utf8"])
def test_prepare_data_rejects_a_bad_wfdb_sample_rate(wfdb_record_writer, tmp_path, fs, message):
    directory = wfdb_record_writer("100", np.zeros((2, 600), dtype=np.int64), [(300, "N")], fs=fs)
    result = _invoke(["prepare-data", "--out", str(tmp_path / "out"), "--source", "wfdb",
                      "--wfdb-dir", str(directory)])
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == f"wakesim: error: {message.format(dir=directory)}\n"


def test_wfdb_parse_error_names_the_file(wfdb_dir_factory, tmp_path):
    # among several records, the error must say which file failed to parse
    directory, _ = wfdb_dir_factory(beats_per_class=3)
    for ext in (".dat", ".atr"):
        shutil.copy(directory / f"100{ext}", directory / f"101{ext}")
    (directory / "101.hea").write_text("")
    result = _invoke(["prepare-data", "--out", str(tmp_path / "out"), "--source", "wfdb",
                      "--wfdb-dir", str(directory)])
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == f"wakesim: error: data: {directory / '101.hea'}: empty header\n"
