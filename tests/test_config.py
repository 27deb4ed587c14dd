"""The settings path: DEFAULTS, file and flags merged, then built into dataclasses."""

import dataclasses

import pytest

from wakesim import config as cfg
from wakesim.bayesfront import LogCodec
from wakesim.energymodel import EnergyParams
from wakesim.mlpback import TrainConfig
from wakesim.wakectl import WakePolicy


@pytest.mark.parametrize("section, cls, expected", [
    ("codec", LogCodec, LogCodec()),
    ("policy", WakePolicy, WakePolicy()),
    ("energy", EnergyParams, EnergyParams()),
    ("train", TrainConfig, TrainConfig(seed=3)),  # the CLI trains with seed 3
])
def test_defaults_build_the_dataclass_defaults(section, cls, expected):
    assert cfg.settings(cfg.load_config(None), section, cls) == expected
    # settings() skips a key that names no field, so a renamed field would
    # silently fall back to its default, and a field with no key could not
    # be set from a file, which rejects unknown keys.
    fields = {f.name for f in dataclasses.fields(cls)}
    assert set(cfg.DEFAULTS[section]) == fields


def test_flags_override_the_file_which_overrides_defaults(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[train]\nlr = 0.1\nepochs = 5\n")
    parser = cfg.load_config(str(path), train={"epochs": 7, "batch_size": None})
    assert cfg.settings(parser, "train", TrainConfig) == TrainConfig(lr=0.1, epochs=7, batch_size=64, seed=3)


def test_values_are_read_literally(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[dataset]\nsource = 5% of %(seed)s\n")
    assert cfg.config_as_dict(cfg.load_config(str(path)))["dataset"]["source"] == "5% of %(seed)s"
