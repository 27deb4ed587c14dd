"""Closed-form average-energy model of the wake-up system.

Per monitored input, the system spends the front-end inference energy, the
always-on monitoring energy P_mon(vdd) * T_s, and with probability p_wake
the back-end service energy. The wake probability mixes the class-
conditional wake rates with the abnormal prevalence pi:

    p_wake = pi * p_wake_abnormal + (1 - pi) * p_wake_normal
    e_avg  = e_fe(vdd) + p_mon(vdd) * t_s + p_wake * e_service

The baseline (no front end, back end on every input) is
e_service + p_mon(vdd) * t_s. All energies in joules, powers in watts,
times in seconds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

from .artifacts import reading
from .errors import DataError
from .memsim import VDD_RANGE, VDDR_RANGE


@dataclass(frozen=True)
class EnergyParams:
    """Model constants. Defaults describe the nominal design point."""

    e_fe_nominal: float = 2.0e-9    # front-end inference at vdd_nominal
    e_service: float = 3.2e-6      # one back-end wake-up service
    p_mon_nominal: float = 2.9e-6  # monitoring power at vdd_nominal
    static_frac: float = 0.55      # static share of p_mon; the rest is dynamic
    vdd_nominal: float = 1.2
    pi: float = 0.01               # abnormal-beat prevalence
    t_s: float = 2.0e-3            # monitoring period per input

    def __post_init__(self):
        # Written so that NaN fails every check.
        for name in ("e_fe_nominal", "e_service", "p_mon_nominal", "vdd_nominal"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        # t_s = 0 is a legal degenerate point (back-to-back monitoring).
        if not 0 <= self.t_s < math.inf:
            raise ValueError("t_s must be finite and nonnegative")
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError("pi must lie in [0, 1]")
        if not 0.0 <= self.static_frac <= 1.0:
            raise ValueError("static_frac must lie in [0, 1]")


@dataclass(frozen=True)
class WakeRates:
    p_wake_abn: float
    p_wake_n: float

    def __post_init__(self):
        for name in ("p_wake_abn", "p_wake_n"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def p_wake(rates: WakeRates, pi: float) -> float:
    """Unconditional wake probability under abnormal prevalence pi."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError("pi must lie in [0, 1]")
    return pi * rates.p_wake_abn + (1.0 - pi) * rates.p_wake_n


def p_mon(vdd: float, params: EnergyParams = EnergyParams()) -> float:
    """Monitoring power: static share scales with vdd, dynamic share with vdd^2."""
    if vdd <= 0:
        raise ValueError("vdd must be positive")
    ratio = vdd / params.vdd_nominal
    return params.p_mon_nominal * (params.static_frac * ratio + (1.0 - params.static_frac) * ratio * ratio)


def e_fe(vdd: float, params: EnergyParams = EnergyParams()) -> float:
    """Front-end inference energy at a supply point.

    Dynamic energy: e_fe_nominal scaled by (vdd / vdd_nominal)^2.
    """
    if vdd <= 0:
        raise ValueError("vdd must be positive")
    ratio = vdd / params.vdd_nominal
    return params.e_fe_nominal * ratio * ratio


@dataclass(frozen=True)
class EnergyBreakdown:
    front_end: float
    monitoring: float
    service: float

    @property
    def total(self) -> float:
        return self.front_end + self.monitoring + self.service


def e_avg_from_p_wake(params: EnergyParams, vdd: float, p_wake_value: float) -> EnergyBreakdown:
    """Average energy per input; affine in p_wake with slope exactly e_service."""
    if not 0.0 <= p_wake_value <= 1.0:
        raise ValueError("p_wake must lie in [0, 1]")
    return EnergyBreakdown(
        front_end=e_fe(vdd, params),
        monitoring=p_mon(vdd, params) * params.t_s,
        service=p_wake_value * params.e_service,
    )


def e_avg(params: EnergyParams, vdd: float, rates: WakeRates) -> EnergyBreakdown:
    return e_avg_from_p_wake(params, vdd, p_wake(rates, params.pi))


def e_baseline(params: EnergyParams, vdd: float) -> float:
    """Back end on every input, same monitoring load, no front end."""
    return params.e_service + p_mon(vdd, params) * params.t_s


# ---------------------------------------------------------------------------
# Wake-rate sources and the vdd/t_s sweep
# ---------------------------------------------------------------------------

class RatesTable:
    """Wake rates per vdd, loaded from a `vdd,vddr,p_wake_abn,p_wake_n` CSV."""

    HEADER = ["vdd", "vddr", "p_wake_abn", "p_wake_n"]

    def __init__(self, rows: list[tuple[float, float, WakeRates]]):
        self._rows = rows

    @classmethod
    def from_csv(cls, path: str) -> "RatesTable":
        rows = []
        with open(path, "r", encoding="utf-8", newline="") as fh, reading(path, "rates CSV"):
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != cls.HEADER:
                raise DataError(f"{path}: expected header {','.join(cls.HEADER)}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise DataError(f"{path}:{lineno}: expected 4 columns")
                try:
                    vdd, row_vddr, p_abn, p_n = (float(v) for v in row)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric value") from exc
                if not (0 < vdd < math.inf and 0 < row_vddr < math.inf):
                    raise DataError(f"{path}:{lineno}: vdd and vddr must be finite and positive")
                if not VDD_RANGE[0] <= vdd <= VDD_RANGE[1]:
                    raise DataError(f"{path}:{lineno}: vdd {vdd:g} outside {VDD_RANGE}")
                if not VDDR_RANGE[0] <= row_vddr <= VDDR_RANGE[1]:
                    raise DataError(f"{path}:{lineno}: vddr {row_vddr:g} outside {VDDR_RANGE}")
                try:
                    rates = WakeRates(p_abn, p_n)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
                if any(abs(r[0] - vdd) < 1e-9 for r in rows):
                    raise DataError(f"{path}:{lineno}: vdd {vdd:g} repeats; a table holds one row per vdd")
                rows.append((vdd, row_vddr, rates))
        if not rows:
            raise DataError(f"{path}: no usable rows")
        return cls(rows)

    @property
    def vdds(self) -> list[float]:
        return [r[0] for r in self._rows]

    def __call__(self, vdd: float) -> WakeRates:
        for row_vdd, _, rates in self._rows:
            if abs(row_vdd - vdd) < 1e-9:
                return rates
        raise DataError(f"no wake rates tabulated at vdd={vdd}")


@dataclass(frozen=True)
class SweepRow:
    vdd: float
    t_s: float
    p_wake: float | None
    e_fe: float | None
    e_mon: float | None
    e_service_term: float | None
    e_avg: float | None
    e_baseline: float | None
    failed: bool = False
    error: str = ""


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def argmin(self, t_s: float) -> SweepRow:
        rows = [r for r in self.rows if r.t_s == t_s]
        candidates = [r for r in rows if not r.failed]
        if not candidates:
            cause = f": {rows[0].error}" if rows else ""
            raise DataError(f"no successful sweep points at t_s={t_s}{cause}")
        return min(candidates, key=lambda r: r.e_avg)


def sweep(params: EnergyParams, vdd_grid, t_s_grid, rates_source) -> SweepResult:
    """Evaluate the energy model over a vdd x t_s grid.

    rates_source is a callable vdd -> WakeRates (a RatesTable or a live
    simulation hook). A failing source marks that point failed and the
    sweep continues.
    """
    rows: list[SweepRow] = []
    for t_s in t_s_grid:
        for vdd in vdd_grid:
            point = replace(params, t_s=float(t_s))
            try:
                rates = rates_source(float(vdd))
                pw = p_wake(rates, point.pi)
                bd = e_avg_from_p_wake(point, float(vdd), pw)
                rows.append(SweepRow(
                    vdd=float(vdd), t_s=float(t_s), p_wake=pw,
                    e_fe=bd.front_end, e_mon=bd.monitoring,
                    e_service_term=bd.service, e_avg=bd.total,
                    e_baseline=e_baseline(point, float(vdd)),
                ))
            except Exception as exc:
                rows.append(SweepRow(
                    vdd=float(vdd), t_s=float(t_s), p_wake=None, e_fe=None,
                    e_mon=None, e_service_term=None, e_avg=None,
                    e_baseline=None, failed=True, error=str(exc),
                ))
    return SweepResult(rows)


def write_sweep_csv(path: str, result: SweepResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "vdd", "t_s", "p_wake", "e_fe", "e_mon", "e_service_term", "e_avg", "e_baseline",
        ])
        for r in result.rows:
            if r.failed:
                writer.writerow([repr(r.vdd), repr(r.t_s)] + ["nan"] * 6)
            else:
                writer.writerow([
                    repr(r.vdd), repr(r.t_s), repr(r.p_wake), repr(r.e_fe),
                    repr(r.e_mon), repr(r.e_service_term), repr(r.e_avg),
                    repr(r.e_baseline),
                ])
