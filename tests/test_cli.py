"""End-to-end CLI flows: artifacts, echoes, exit codes, reproducibility.

Uses a small synthetic split (60 train / 20 test per class) so the whole
prepare/train/program/run chain stays fast; the full-size numbers live in
tests/test_acceptance.py.
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import wakesim
from wakesim.cli import main
from wakesim.datapipe.beats import read_beats_csv, write_beats_csv
from wakesim.datapipe.synthetic import synth_dataset


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


def test_corrupt_features_is_a_runtime_error(workspace, tmp_path):
    paths, _ = workspace
    broken = tmp_path / "data"
    shutil.copytree(paths["data"], broken)
    (broken / "features.npz").write_bytes(b"not a zipfile at all")
    result = _invoke(["train", "--data", str(broken), "--out", str(tmp_path / "m")])
    assert result.exit_code == 4
    assert "wakesim: error: runtime:" in result.stderr


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
    else:
        arrays["test_mags"][2, 3] = -0.5


@pytest.mark.parametrize("case", ["missing-train-labels", "label-9", "unequal-lengths", "200-bins",
                                  "nan-magnitude", "negative-magnitude"])
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
], ids=["bayes-no-quantizers", "mlp-no-s_w", "report-other-object", "report-list", "state-garbage",
        "bayes-nan", "mlp-nan-s_w", "mlp-inf-clip", "report-minus-inf", "mlp-zero-s_out",
        "mlp-negative-s_in", "state-all-nan", "state-one-nan", "state-inf", "state-zero",
        "state-negative", "mlp-clip-crossed", "mlp-clip-equal", "bayes-repeated-bin",
        "mlp-repeated-bin"])
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
    ("program", _TABLES.replace("sigma_n = 0.7:5.0", "sigma_n = 0.7:nan"), [],
     "[operating_point] sigma_n: non-finite pair '0.7:nan'"),
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
], ids=["codec-base", "codec-width", "batch-size", "epochs", "lr-nan", "beats-per-class",
        "test-per-class", "source", "policy-bool", "pi-range", "percent", "empty-ts", "empty-vdd",
        "preset-and-tables", "partial-tables", "e-service-nan", "hrs-sigma-nan", "table-nan",
        "ts-negative", "ts-nan", "ts-inf", "vdd-nan", "vdd-negative", "vdd-zero", "dataset-seed", "train-seed", "program-seed",
        "run-seed-negative", "run-seed-2**64", "run-seed-file", "unknown-key", "stale-e-fe-curve",
        "unknown-table-key", "unknown-section", "default-section"])
def test_bad_setting_is_one_config_error_line(workspace, tmp_path, name, conf, flags, message):
    paths, _ = workspace
    args = _command(paths, tmp_path, name) + flags
    if conf:
        (tmp_path / "bad.ini").write_text(conf)
        args += ["--config", str(tmp_path / "bad.ini")]
    result = _invoke(args)
    _assert_one_error_line(result, codes=(2,))
    assert result.stderr.startswith(f"wakesim: error: config: {message}"), result.stderr


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


@pytest.mark.parametrize("column, value, message", [
    (0, "7", "label 7 outside [0, 3]"),
    (0, "1.5", "invalid literal for int() with base 10: '1.5'"),
    (0, "N", "invalid literal for int() with base 10: 'N'"),
    (2, "x", "invalid literal for int() with base 10: 'x'"),
    (3, "oops", "could not convert string to float: 'oops'"),
    (200, "nan", "samples must be finite"),
    (3, "-inf", "samples must be finite"),
], ids=["label-range", "label-fraction", "label-text", "beat-index", "sample-text", "sample-nan",
        "sample-inf"])
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
    with open(data / "test.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    if command == "prepare-data":
        args = ["prepare-data", "--out", str(tmp_path / "out"), "--source", "csv",
                "--train-csv", str(data / "train.csv"), "--test-csv", str(data / "test.csv")]
    else:
        args = ["run", "--data", str(data), "--bayes", str(paths["bayes"]), "--mlp", str(paths["mlp"]),
                "--ideal", "--out", str(tmp_path / "out")]
    result = _invoke(args)
    _assert_one_error_line(result, codes=(3,))
    assert result.stderr == f"wakesim: error: data: {data / 'test.csv'}:3: {message}\n"


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
], ids=["nan", "fractional"])
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
