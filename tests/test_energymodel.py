"""Closed-form energy model: knowns, affine structure, tables, and the sweep."""

import csv
from dataclasses import replace

import pytest

from wakesim.data import default_rates_fixture
from wakesim.energymodel import (
    EnergyParams,
    RatesTable,
    WakeRates,
    e_avg,
    e_avg_from_p_wake,
    e_baseline,
    e_fe,
    p_mon,
    p_wake,
    sweep,
    write_sweep_csv,
)
from wakesim.errors import DataError

# wake rates measured on the three benchmark stress levels at the
# nominal operating point (see tests/test_wakectl.py for their origin)
RATES_A = WakeRates(0.998, 0.0188)
RATES_B = WakeRates(1.0, 0.225)
RATES_C = WakeRates(1.0, 0.773)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"e_service": 0.0},
    {"e_fe_nominal": -1e-9},
    {"p_mon_nominal": 0.0},
    {"vdd_nominal": -1.2},
    {"t_s": -1e-3},
    {"pi": 1.5},
    {"pi": -0.01},
    {"static_frac": 1.01},
    {"e_service": float("nan")},
    {"t_s": float("nan")},
    {"t_s": float("inf")},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        EnergyParams(**kwargs)


def test_zero_monitoring_period_is_legal():
    assert EnergyParams(t_s=0.0).t_s == 0.0


@pytest.mark.parametrize("abn,norm", [(1.1, 0.0), (-0.1, 0.0), (0.5, 2.0)])
def test_wake_rates_validation(abn, norm):
    with pytest.raises(ValueError, match="outside"):
        WakeRates(abn, norm)


# ---------------------------------------------------------------------------
# the three scalar pieces
# ---------------------------------------------------------------------------


def test_p_wake_mixes_class_rates_with_prevalence():
    assert p_wake(RATES_A, 0.01) == 0.01 * 0.998 + 0.99 * 0.0188
    assert p_wake(RATES_A, 0.01) == pytest.approx(0.028592, rel=1e-12)
    assert p_wake(RATES_B, 0.0) == RATES_B.p_wake_n
    assert p_wake(RATES_B, 1.0) == RATES_B.p_wake_abn
    with pytest.raises(ValueError, match="pi"):
        p_wake(RATES_A, 1.2)


def test_p_mon_known_points():
    # static share scales linearly, dynamic share quadratically
    assert p_mon(1.2) == 2.9e-6
    assert p_mon(0.6) == 1.12375e-06
    with pytest.raises(ValueError):
        p_mon(0.0)


def test_p_mon_increases_with_supply():
    grid = [0.5, 0.7, 0.9, 1.1, 1.3]
    vals = [p_mon(v) for v in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_e_fe_default_quadratic_scaling():
    assert e_fe(1.2) == 2.0e-9
    assert e_fe(0.6) == pytest.approx(5.0e-10, rel=1e-12)
    with pytest.raises(ValueError):
        e_fe(-1.0)


def test_e_fe_measured_curve_interpolates_but_never_extrapolates():
    params = EnergyParams(e_fe_curve=((0.8, 1.0e-9), (1.2, 2.0e-9)))
    assert e_fe(0.8, params) == 1.0e-9
    assert e_fe(1.2, params) == 2.0e-9
    assert e_fe(1.0, params) == pytest.approx(1.5e-9, rel=1e-12)
    with pytest.raises(ValueError, match="outside"):
        e_fe(1.3, params)
    with pytest.raises(ValueError, match="outside"):
        e_fe(0.7, params)


# ---------------------------------------------------------------------------
# average energy and its structure
# ---------------------------------------------------------------------------


def test_breakdown_total_is_the_sum_of_parts():
    bd = e_avg(EnergyParams(), 1.2, RATES_B)
    assert bd.total == bd.front_end + bd.monitoring + bd.service


def test_stress_level_totals_at_nominal_point():
    params = EnergyParams()
    assert e_avg(params, 1.2, RATES_A).total == pytest.approx(9.92944e-08, rel=1e-12)
    assert e_avg(params, 1.2, RATES_B).total == pytest.approx(7.526e-07, rel=1e-12)
    assert e_avg(params, 1.2, RATES_C).total == pytest.approx(2.488664e-06, rel=1e-12)


def test_baseline_and_saving_ratio_at_nominal_point():
    params = EnergyParams()
    base = e_baseline(params, 1.2)
    assert base == pytest.approx(3.2058e-06, rel=1e-12)
    ratio = base / e_avg(params, 1.2, RATES_A).total
    assert ratio == pytest.approx(32.285808665946924, rel=1e-12)
    assert 30.0 <= ratio <= 37.0


def test_service_term_is_exactly_affine_in_p_wake():
    params = EnergyParams()
    assert e_avg_from_p_wake(params, 1.2, 0.01).service == 3.2e-8
    for q in (0.0, 0.13, 0.5, 0.87):
        lo = e_avg_from_p_wake(params, 1.2, q)
        hi = e_avg_from_p_wake(params, 1.2, q + 0.01)
        assert hi.service - lo.service == pytest.approx(3.2e-8, rel=1e-12)
        # only the service term moves with p_wake
        assert hi.front_end == lo.front_end
        assert hi.monitoring == lo.monitoring
    with pytest.raises(ValueError, match="p_wake"):
        e_avg_from_p_wake(params, 1.2, 1.01)


def test_total_is_affine_in_monitoring_period():
    totals = {}
    for t_s in (1.0e-3, 3.0e-3):
        totals[t_s] = e_avg(EnergyParams(t_s=t_s), 1.0, RATES_A).total
    slope = (totals[3.0e-3] - totals[1.0e-3]) / 2.0e-3
    assert slope == pytest.approx(p_mon(1.0), rel=1e-9)


def test_degenerate_point_reduces_to_front_end_energy():
    params = EnergyParams(t_s=0.0)
    assert e_avg_from_p_wake(params, 1.1, 0.0).total == e_fe(1.1, params)


def test_total_increases_with_supply_at_fixed_rates():
    params = EnergyParams()
    totals = [e_avg(params, v, RATES_A).total for v in (0.7, 0.8, 0.9, 1.0, 1.1, 1.2)]
    assert all(a < b for a, b in zip(totals, totals[1:]))


# ---------------------------------------------------------------------------
# rates table
# ---------------------------------------------------------------------------


def test_shipped_rates_table():
    table = RatesTable.from_csv(default_rates_fixture())
    assert table.vdds == [0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
    assert table(1.2) == WakeRates(0.998, 0.0188)
    assert table(0.7) == WakeRates(1.0, 0.5455)
    with pytest.raises(DataError, match="no wake rates"):
        table(0.75)


def test_rates_table_vddr_filter(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text(
        "vdd,vddr,p_wake_abn,p_wake_n\n"
        "1.0,2.4,1.0,0.1\n"
        "1.0,1.5,1.0,0.4\n"
        "1.2,2.4,0.9,0.02\n"
    )
    table = RatesTable.from_csv(path, vddr=2.4)
    assert table.vdds == [1.0, 1.2]
    assert table(1.0) == WakeRates(1.0, 0.1)
    with pytest.raises(DataError, match="no usable rows"):
        RatesTable.from_csv(path, vddr=3.0)


@pytest.mark.parametrize("text,message", [
    ("volts,vddr,p_wake_abn,p_wake_n\n1.0,2.4,1.0,0.1\n", "expected header"),
    ("vdd,vddr,p_wake_abn,p_wake_n\n1.0,2.4,1.0\n", "expected 4 columns"),
    ("vdd,vddr,p_wake_abn,p_wake_n\n1.0,2.4,one,0.1\n", "non-numeric"),
    ("vdd,vddr,p_wake_abn,p_wake_n\n", "no usable rows"),
    ("vdd,vddr,p_wake_abn,p_wake_n\n1.0,1.5,1.0,0.4\n1.0,2.4,1.0,0.1\n", r"bad.csv:3: vdd 1 repeats"),
    ("vdd,vddr,p_wake_abn,p_wake_n\n1.0,2.4,1.5,0.1\n", r"bad.csv:2: p_wake_abn=1.5 outside \[0, 1\]"),
    ("vdd,vddr,p_wake_abn,p_wake_n\n1.0,2.4,1.0,nan\n", r"bad.csv:2: p_wake_n=nan outside \[0, 1\]"),
    ("vdd,vddr,p_wake_abn,p_wake_n\nnan,2.4,1.0,0.1\n", r"bad.csv:2: vdd and vddr must be finite"),
    ("vdd,vddr,p_wake_abn,p_wake_n\n1.0,inf,1.0,0.1\n", r"bad.csv:2: vdd and vddr must be finite"),
])
def test_rates_table_rejects_malformed_csv(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        RatesTable.from_csv(path)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_match_direct_evaluation():
    params = EnergyParams()
    table = RatesTable.from_csv(default_rates_fixture())
    result = sweep(params, table.vdds, [2.0e-3, 1.0], table)
    assert len(result.rows) == 12
    for row in result.rows:
        assert not row.failed
        point = replace(params, t_s=row.t_s)
        pw = p_wake(table(row.vdd), params.pi)
        bd = e_avg_from_p_wake(point, row.vdd, pw)
        assert row.p_wake == pw
        assert row.e_fe == bd.front_end
        assert row.e_mon == bd.monitoring
        assert row.e_service_term == bd.service
        assert row.e_avg == bd.total
        assert row.e_baseline == e_baseline(point, row.vdd)


def test_sweep_reproduces_nominal_total():
    table = RatesTable.from_csv(default_rates_fixture())
    result = sweep(EnergyParams(), table.vdds, [2.0e-3], table)
    row = next(r for r in result.rows if r.vdd == 1.2)
    assert row.e_avg == pytest.approx(9.92944e-08, rel=1e-12)


def test_long_period_sweep_has_interior_optimum():
    table = RatesTable.from_csv(default_rates_fixture())
    result = sweep(EnergyParams(), table.vdds, [1.0], table)
    best = result.argmin(1.0)
    assert best.vdd == 0.9
    assert min(table.vdds) < best.vdd < max(table.vdds)
    assert best.e_baseline / best.e_avg == pytest.approx(2.416059411661792, rel=1e-9)
    nominal = next(r for r in result.rows if r.vdd == 1.2)
    assert nominal.e_avg / best.e_avg == pytest.approx(1.4097504428583776, rel=1e-9)


def test_sweep_marks_untabulated_points_failed_and_argmin_skips_them():
    table = RatesTable.from_csv(default_rates_fixture())
    result = sweep(EnergyParams(), [0.75, 0.9, 1.2], [1.0], table)
    failed = next(r for r in result.rows if r.vdd == 0.75)
    assert failed.failed
    assert "no wake rates" in failed.error
    assert failed.e_avg is None
    assert result.argmin(1.0).vdd == 0.9
    all_bad = sweep(EnergyParams(), [0.75, 0.85], [1.0], table)
    with pytest.raises(DataError, match="no successful sweep points"):
        all_bad.argmin(1.0)
    with pytest.raises(DataError, match="no successful sweep points"):
        result.argmin(2.0)


def test_sweep_csv_round_trip(tmp_path):
    table = RatesTable.from_csv(default_rates_fixture())
    result = sweep(EnergyParams(), [0.75, 0.9, 1.2], [2.0e-3, 1.0], table)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["vdd", "t_s", "p_wake", "e_fe", "e_mon",
                       "e_service_term", "e_avg", "e_baseline"]
    assert len(rows) == 1 + len(result.rows)
    for cells, row in zip(rows[1:], result.rows):
        assert float(cells[0]) == row.vdd
        assert float(cells[1]) == row.t_s
        if row.failed:
            assert cells[2:] == ["nan"] * 6
        else:
            # repr round-trips doubles exactly
            assert float(cells[6]) == row.e_avg
            assert float(cells[7]) == row.e_baseline
