"""Degree-of-freedom accounting tests.

Frozen reference values were produced by an independent 50-digit
recomputation of the budget formulas (critical frequencies, per-order
bandwidths, effective time, total) for two fixed configurations.
"""

import json
import math

import pytest

from wavedof.channel import ChannelConfig
from wavedof.dofcore import (
    critical_frequency,
    effective_bandwidth,
    effective_time,
    snr_max,
    snr_upper_bound,
    total_dof,
    truncation_order,
)


def worked_cfg(**kw):
    # band [1.9, 2.9] GHz, 10 cm disk, instantaneous observation,
    # threshold equal to the SNR ceiling
    d = dict(
        f0=2.4e9, half_bw=0.5e9, radius=0.1, obs_time=0.0,
        wave_speed=3e8, noise_var=1.0, p_max=1.0, gamma=1.0,
    )
    d.update(kw)
    return ChannelConfig(**d)


def second_cfg():
    # nonzero window, threshold 5 percent of the ceiling
    return worked_cfg(obs_time=2e-9, p_max=20.0)


# frozen 50-digit oracle outputs, rounded to double
F1_WORKED = 351298989.14591496
F8_WORKED = 2810391913.1673197
W6_WORKED = 792206065.1245102
W7_WORKED = 440907075.97859525
W8_WORKED = 89608086.83268029
TEFF_WORKED = 6.666666666666667e-10
D_WORKED = 26.096961637247714
D_SECOND = 63.519577811600036


class TestEffectiveTime:
    def test_worked_value(self):
        assert effective_time(worked_cfg()) == pytest.approx(TEFF_WORKED, rel=1e-15)

    def test_window_adds_linearly(self):
        assert effective_time(worked_cfg(obs_time=1e-9)) == pytest.approx(
            1e-9 + TEFF_WORKED, rel=1e-15
        )

    def test_point_region(self):
        assert effective_time(worked_cfg(radius=0.0, obs_time=3e-9)) == 3e-9


class TestSnrMax:
    def test_ratio(self):
        assert snr_max(worked_cfg(p_max=20.0, noise_var=4.0)) == 5.0

    def test_silent_channel(self):
        assert snr_max(worked_cfg(p_max=0.0)) == 0.0

    def test_noiseless_rejected(self):
        with pytest.raises(ValueError, match="noise_var"):
            snr_max(worked_cfg(noise_var=0.0))


class TestCriticalFrequency:
    def test_frozen_values(self):
        cfg = worked_cfg()
        assert critical_frequency(cfg, 1) == pytest.approx(F1_WORKED, rel=1e-12)
        assert critical_frequency(cfg, 8) == pytest.approx(F8_WORKED, rel=1e-12)

    def test_order_zero_at_threshold_ceiling(self):
        assert critical_frequency(worked_cfg(), 0) == 0.0

    def test_even_in_order(self):
        cfg = worked_cfg()
        assert critical_frequency(cfg, -5) == critical_frequency(cfg, 5)

    def test_clamped_at_zero(self):
        # gamma well below the ceiling pulls low orders to zero
        assert critical_frequency(second_cfg(), 1) == 0.0

    def test_strictly_increasing_past_clamp(self):
        cfg = worked_cfg()
        vals = [critical_frequency(cfg, n) for n in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_silent_channel_unreachable(self):
        assert math.isinf(critical_frequency(worked_cfg(p_max=0.0), 0))
        assert math.isinf(critical_frequency(worked_cfg(p_max=0.0), 3))

    def test_point_region(self):
        cfg = worked_cfg(radius=0.0)
        assert critical_frequency(cfg, 0) == 0.0
        assert math.isinf(critical_frequency(cfg, 1))
        assert math.isinf(critical_frequency(worked_cfg(radius=0.0, gamma=2.0), 0))

    def test_noiseless_rejected(self):
        with pytest.raises(ValueError):
            critical_frequency(worked_cfg(noise_var=0.0), 1)


class TestSnrUpperBound:
    def test_equals_threshold_at_critical_frequency(self):
        # the critical frequency is defined as the bound's threshold
        # crossing; only holds where the clamp at zero is inactive
        cfg = worked_cfg(p_max=50.0, gamma=2.0)
        for n in (2, 4, 9):
            f = critical_frequency(cfg, n)
            assert f > 0.0
            b = snr_upper_bound(cfg, n, f)
            assert b.log_value == pytest.approx(math.log(cfg.gamma), abs=1e-9)

    def test_monotone_in_frequency(self):
        cfg = worked_cfg()
        b1 = snr_upper_bound(cfg, 3, 1e9)
        b2 = snr_upper_bound(cfg, 3, 2e9)
        assert b2.log_value > b1.log_value

    def test_log_value_consistency(self):
        b = snr_upper_bound(worked_cfg(), 2, 5e8)
        assert b.value == pytest.approx(math.exp(b.log_value), rel=1e-12)

    def test_overflow_guard(self):
        b = snr_upper_bound(worked_cfg(), 0, 1e15)
        assert math.isinf(b.value) and math.isfinite(b.log_value)

    def test_silent_channel(self):
        b = snr_upper_bound(worked_cfg(p_max=0.0), 2, 1e9)
        assert b.value == 0.0 and math.isinf(b.log_value)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            snr_upper_bound(worked_cfg(), 1, -1.0)


class TestTruncationOrder:
    def test_frozen_values(self):
        assert truncation_order(worked_cfg()) == 9
        assert truncation_order(second_cfg()) == 10

    def test_degenerate_configs(self):
        assert truncation_order(worked_cfg(p_max=0.0)) == 1
        assert truncation_order(worked_cfg(radius=0.0)) == 1

    def test_grows_with_radius(self):
        assert truncation_order(worked_cfg(radius=0.2)) > truncation_order(worked_cfg())

    def test_noiseless_rejected(self):
        with pytest.raises(ValueError):
            truncation_order(worked_cfg(noise_var=0.0))


class TestEffectiveBandwidth:
    def test_order_zero_full_band(self):
        assert effective_bandwidth(worked_cfg(), 0) == 1e9

    def test_frozen_values(self):
        cfg = worked_cfg()
        assert effective_bandwidth(cfg, 6) == pytest.approx(W6_WORKED, rel=1e-12)
        assert effective_bandwidth(cfg, 7) == pytest.approx(W7_WORKED, rel=1e-12)
        assert effective_bandwidth(cfg, 8) == pytest.approx(W8_WORKED, rel=1e-12)

    def test_low_orders_keep_full_band(self):
        # critical frequencies of orders 1..5 sit below the band edge
        cfg = worked_cfg()
        for n in range(1, 6):
            assert effective_bandwidth(cfg, n) == pytest.approx(1e9, rel=1e-12)

    def test_vanishes_at_truncation(self):
        cfg = worked_cfg()
        for n in (9, 10, 25):
            assert effective_bandwidth(cfg, n) == 0.0

    def test_even_in_order(self):
        cfg = worked_cfg()
        assert effective_bandwidth(cfg, -6) == effective_bandwidth(cfg, 6)

    def test_non_increasing_and_bounded(self):
        cfg = worked_cfg()
        vals = [effective_bandwidth(cfg, n) for n in range(0, 15)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1e9 for v in vals)


class TestTotalDof:
    def test_worked_budget(self):
        rep = total_dof(worked_cfg())
        assert rep.n_upper == 9
        assert len(rep.per_order) == 17
        assert rep.t_eff == pytest.approx(TEFF_WORKED, rel=1e-15)
        assert rep.total == pytest.approx(D_WORKED, rel=1e-12)

    def test_second_budget(self):
        rep = total_dof(second_cfg())
        assert rep.n_upper == 10
        assert rep.total == pytest.approx(D_SECOND, rel=1e-12)

    def test_rows_consistent(self):
        rep = total_dof(worked_cfg())
        ns = [r.n for r in rep.per_order]
        assert ns == list(range(-8, 9))
        for r in rep.per_order:
            assert r.dof == pytest.approx(r.w_eff * rep.t_eff + 1.0, rel=1e-15)
            assert r.f_crit == critical_frequency(worked_cfg(), r.n)
        assert rep.total == pytest.approx(sum(r.dof for r in rep.per_order), rel=1e-15)

    def test_each_order_contributes_at_least_one(self):
        rep = total_dof(worked_cfg())
        assert all(r.dof >= 1.0 for r in rep.per_order)
        assert rep.total >= 2 * rep.n_upper - 1

    def test_noiseless_rejected(self):
        with pytest.raises(ValueError):
            total_dof(worked_cfg(noise_var=0.0))


class TestReportSerialization:
    def test_json_reproducible_across_builds(self):
        # the CLI writes the report body as json.dumps(to_dict(), sort_keys=True)
        dump = lambda rep: json.dumps(rep.to_dict(), sort_keys=True)
        assert dump(total_dof(second_cfg())) == dump(total_dof(second_cfg()))

    def test_csv_layout(self):
        rep = total_dof(worked_cfg())
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "n,f_crit_hz,w_eff_hz,dof"
        assert len(lines) == 1 + 17
        row0 = lines[1 + 8].split(",")   # order 0 row
        assert row0[0] == "0"
        assert float(row0[2]) == pytest.approx(1e9, rel=1e-8)

    def test_csv_deterministic(self):
        assert total_dof(worked_cfg()).to_csv() == total_dof(worked_cfg()).to_csv()


class TestMonotonicity:
    def test_dof_grows_with_radius(self):
        totals = [total_dof(worked_cfg(radius=r)).total for r in (0.05, 0.1, 0.2, 0.4)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_dof_grows_with_time(self):
        totals = [total_dof(worked_cfg(obs_time=t)).total for t in (0.0, 1e-9, 4e-9)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_dof_shrinks_with_threshold(self):
        cfgs = [worked_cfg(p_max=100.0, gamma=g) for g in (0.01, 1.0, 50.0)]
        totals = [total_dof(c).total for c in cfgs]
        assert all(b < a for a, b in zip(totals, totals[1:]))
