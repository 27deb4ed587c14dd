"""Byte identity of a small README walkthrough against checked-in digests.

Runs prepare-data, train, program B and C, run --ideal, run B, run C and
sweep in process and compares the sha256 of every file they write with
tests/golden.json. An .npz archive is compared member by member, because
its zip headers carry write times. On a mismatch the assertion names the
files that differ and prints the whole new digest map, which replaces
golden.json when a change of bytes is intended.
"""

import hashlib
import json
import zipfile
from pathlib import Path

from click.testing import CliRunner

from wakesim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")


def _ok(args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, f"{args}: {result.output}\n{result.exception!r}"


def _walkthrough(ws: Path) -> None:
    data, model = ws / "data", ws / "model"
    _ok(["prepare-data", "--out", data, "--source", "synthetic", "--seed", "11",
         "--beats-per-class", "100", "--test-per-class", "100", "--noise-sigma", "0.05"])
    _ok(["train", "--data", data, "--out", model, "--seed", "3", "--epochs", "10"])
    # C reads at vdd = 0.8 V, where many bits flip: its run covers the noisy read path.
    for preset in ("B", "C"):
        _ok(["program", "--model", model / "bayes_model.json", "--out", ws / f"state_{preset.lower()}.npz",
             "--preset", preset, "--seed", "5"])
    models = ["--bayes", model / "bayes_model.json", "--mlp", model / "mlp_model.json"]
    _ok(["run", "--data", data, *models, "--ideal", "--out", ws / "run_ideal"])
    for preset in ("b", "c"):
        _ok(["run", "--data", data, *models, "--array-state", ws / f"state_{preset}.npz", "--seed", "7",
             "--out", ws / f"run_{preset}"])
    _ok(["sweep", "--out", ws / "sweep.csv"])


def _digests(ws: Path) -> dict[str, str]:
    """sha256 of every file under ws, and of every member of each .npz archive."""
    out = {}
    for path in sorted(p for p in ws.rglob("*") if p.is_file()):
        name = path.relative_to(ws).as_posix()
        if path.suffix == ".npz":
            with zipfile.ZipFile(path) as zf:
                for member in sorted(zf.namelist()):
                    out[f"{name}::{member}"] = hashlib.sha256(zf.read(member)).hexdigest()
        else:
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_walkthrough_outputs_match_golden_digests(tmp_path):
    _walkthrough(tmp_path)
    got = _digests(tmp_path)
    want = json.loads(GOLDEN.read_text())
    differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not differ, (f"outputs differ from {GOLDEN.name}: {', '.join(differ)}\n"
                        f"new digests:\n{json.dumps(got, indent=2, sort_keys=True)}")
