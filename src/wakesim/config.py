"""INI-style configuration files shared by the CLI commands.

Settings come in three layers: command-line flags over the file over
`DEFAULTS`. Values are read literally (no `%` interpolation). Tables
(vdd-dependent parameters) use the compact `x:y,x:y` pair syntax.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing

from .errors import ConfigError
from .memsim import DeviceDistributions, OperatingPoint, ReadErrorModel, regime_preset

DEFAULTS: dict[str, dict[str, str]] = {
    "dataset": {
        "source": "synthetic",
        "seed": "11",
        "beats_per_class": "800",
        "test_per_class": "800",
        "noise_sigma": "0.05",
    },
    "codec": {"base": "0.15", "scale": "16", "width": "8"},
    "train": {"lr": "0.05", "epochs": "200", "batch_size": "64", "seed": "3"},
    "operating_point": {"preset": "A"},
    "policy": {
        "wake_on_abnormal": "true",
        "wake_on_ambiguous": "true",
        "wake_on_invalid": "true",
    },
    "energy": {
        "e_fe_nominal": "2.0e-9",
        "e_service": "3.2e-6",
        "p_mon_nominal": "2.9e-6",
        "static_frac": "0.55",
        "vdd_nominal": "1.2",
        "pi": "0.01",
        "t_s": "2.0e-3",
    },
    "seeds": {"program": "5", "read": "7"},
}

# The keys of an explicit operating point; any one of them replaces the preset.
TABLE_KEYS = ("vdd", "vddr", "lrs_log10_mean", "lrs_log10_sigma",
              "hrs_log10_mean", "hrs_log10_sigma", "sigma_n")


def load_config(path: str | None, **flags: dict) -> configparser.ConfigParser:
    """`DEFAULTS`, overlaid by the file at `path`, overlaid by `flags`.

    Each keyword names a section and maps its keys to flag values; a value
    of None is a flag that was not given and leaves the key as it was.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")
    parser.read_dict({section: {key: str(value) for key, value in values.items() if value is not None}
                      for section, values in flags.items()})
    return parser


def config_as_dict(parser: configparser.ConfigParser) -> dict:
    return {section: dict(parser[section]) for section in parser.sections()}


_READERS = {str: ("get", "a string"), float: ("getfloat", "a number"), int: ("getint", "an integer"),
            bool: ("getboolean", "a boolean")}


def get(parser, section: str, key: str, kind=str):
    """[section] key as `kind`: str, float, int, bool, or any other type for an x:y table."""
    if kind not in _READERS:
        return parse_table(parser.get(section, key), f"[{section}] {key}")
    method, noun = _READERS[kind]
    try:
        return getattr(parser, method)(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not {noun} ({exc})")


def settings(parser, section: str, cls, **extra):
    """A `cls` dataclass from the [section] keys named like its fields.

    Each key is read as its field's type hint; fields the section does not
    set keep their defaults, and `extra` gives fields by value. A
    ValueError from the class's own checks becomes a ConfigError.
    """
    hints = typing.get_type_hints(cls)
    values = {f.name: get(parser, section, f.name, hints[f.name])
              for f in dataclasses.fields(cls) if f.name not in extra and parser.has_option(section, f.name)}
    try:
        return cls(**values, **extra)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}")


def parse_table(text: str, key: str = "") -> tuple[tuple[float, float], ...]:
    """Parse `x:y,x:y` pairs, sorted by x."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected x:y pairs, got {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{key}: non-numeric pair {chunk!r}")
        if not all(map(math.isfinite, pairs[-1])):
            raise ConfigError(f"{key}: non-finite pair {chunk!r}")
    if not pairs:
        raise ConfigError(f"{key}: empty table")
    return tuple(sorted(pairs))


def build_operating_setup(parser, preset: str | None = None
                          ) -> tuple[OperatingPoint, DeviceDistributions, ReadErrorModel]:
    """The operating point of the [operating_point] tables, or else of a preset.

    The tables win when the section sets any of `TABLE_KEYS`, and then all of
    them are required. `preset` (the --preset flag) overrides the file's
    preset and may not be given with tables.
    """
    sec = "operating_point"
    if not any(parser.has_option(sec, key) for key in TABLE_KEYS):
        try:
            return regime_preset((parser.get(sec, "preset") if preset is None else preset).strip())
        except ValueError as exc:
            raise ConfigError(str(exc))
    if preset is not None:
        raise ConfigError(f"--preset {preset} conflicts with the explicit [{sec}] tables")
    for key in TABLE_KEYS:
        if not parser.has_option(sec, key):
            raise ConfigError(f"[{sec}] missing key {key!r} (or set only preset=A|B|C)")
    dists = settings(parser, sec, DeviceDistributions,
                     lrs_log10_mean_table=get(parser, sec, "lrs_log10_mean", tuple),
                     lrs_log10_sigma_table=get(parser, sec, "lrs_log10_sigma", tuple))
    noise = settings(parser, sec, ReadErrorModel, sigma_n_table=get(parser, sec, "sigma_n", tuple))
    return settings(parser, sec, OperatingPoint), dists, noise
