"""Degree-of-freedom accounting tests.

Frozen reference values were produced by an independent 50-digit
recomputation of the budget formulas (critical frequencies, per-order
bandwidths, effective time, total) for two fixed configurations.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavedof import cli
from wavedof.channel import ChannelConfig
from wavedof.dofcore import (
    OrderBudget,
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

    def test_non_integer_order_rejected(self):
        cfg = worked_cfg()
        with pytest.raises(ValueError, match="order must be an integer, got 2.7"):
            critical_frequency(cfg, 2.7)
        assert critical_frequency(cfg, np.int64(2)) == critical_frequency(cfg, 2)


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
        for freq in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="freq"):
                snr_upper_bound(worked_cfg(), 1, freq)

    def test_non_integer_order_rejected(self):
        cfg = worked_cfg()
        with pytest.raises(ValueError, match="order must be an integer, got 2.7"):
            snr_upper_bound(cfg, 2.7, 1e9)
        assert snr_upper_bound(cfg, np.int32(-2), 1e9) == snr_upper_bound(cfg, 2, 1e9)


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

    def test_non_integer_order_rejected(self):
        cfg = worked_cfg()
        with pytest.raises(ValueError, match="order must be an integer, got 7.9"):
            effective_bandwidth(cfg, 7.9)
        assert effective_bandwidth(cfg, np.int64(7)) == effective_bandwidth(cfg, 7)


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

    def test_columns_and_rows(self):
        rep = total_dof(second_cfg())
        assert [c.shape for c in (rep.n, rep.f_crit, rep.w_eff, rep.dof)] == [(19,)] * 4
        assert rep.n.tolist() == list(range(-9, 10))
        assert len(rep.per_order) == 19
        assert rep.per_order[0] == (-9, rep.f_crit[0], rep.w_eff[0], rep.dof[0])
        assert all(type(v) in (int, float) for row in rep.per_order for v in row)

    @pytest.mark.parametrize("radius", [0.1, 0.37, 100.0])
    def test_total_is_the_sequential_sum(self, radius):
        # left to right, one rounding per order; Python 3.12+ sum() compensates
        rep = total_dof(worked_cfg(radius=radius, obs_time=3e-9))
        acc = 0.0
        for d in rep.dof.tolist():
            acc += d
        assert rep.total == acc

    def test_total_pinned_at_r100(self):
        # the default wideband scenario at R = 100 m; math.fsum gives 14830126.412966006
        cfg = ChannelConfig(f0=1.5e9, half_bw=1.3e9, radius=100.0, obs_time=0.0,
                            wave_speed=3e8, noise_var=1.0, p_max=1000.0, gamma=1.0)
        assert total_dof(cfg).total == 14830126.412965681

    @pytest.mark.parametrize("kw", [dict(obs_time=1e300), dict(obs_time=1e308, p_max=0.0),
                                    dict(radius=1e300, p_max=0.0, wave_speed=1e-10)])
    def test_overflowing_budget_rejected_without_warning(self, kw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"W_n \* T_eff \+ 1 .* must be finite"):
                total_dof(worked_cfg(**kw))


class TestReportSerialization:
    def test_json_reproducible_across_builds(self):
        # the CLI writes the report body from the scalars and the columns
        dump = lambda rep: [rep.t_eff, rep.n_upper, rep.total] + [
            c.tobytes() for c in (rep.n, rep.f_crit, rep.w_eff, rep.dof)
        ]
        assert dump(total_dof(second_cfg())) == dump(total_dof(second_cfg()))

    def test_csv_layout(self):
        rep = total_dof(worked_cfg())
        lines = "".join(cli._report_csv(rep)).strip().split("\n")
        assert lines[0] == "n,f_crit_hz,w_eff_hz,dof"
        assert len(lines) == 1 + 17
        row0 = lines[1 + 8].split(",")   # order 0 row
        assert row0[0] == "0"
        assert float(row0[2]) == pytest.approx(1e9, rel=1e-8)

    def test_csv_deterministic(self):
        csv = lambda: "".join(cli._report_csv(total_dof(worked_cfg())))
        assert csv() == csv()


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


# The per-order scan and loop that computed the budget before the closed
# form, kept verbatim as the reference implementation.


def oracle_critical_frequency(cfg, n):
    n = abs(int(n))
    s = snr_max(cfg)
    if s == 0.0:
        return math.inf
    log_ratio = math.log(cfg.gamma) - math.log(s)
    if cfg.radius == 0.0:
        if n == 0 and log_ratio <= 0.0:
            return 0.0
        return math.inf
    scale = cfg.wave_speed / (math.e * math.pi * cfg.radius)
    return max(0.0, scale * (n + 0.5 * log_ratio))


def oracle_effective_bandwidth(cfg, n):
    n = abs(int(n))
    if n == 0:
        return 2.0 * cfg.half_bw
    f_crit = oracle_critical_frequency(cfg, n)
    if f_crit > cfg.band_high:
        return 0.0
    return cfg.band_high - max(cfg.band_low, f_crit)


def oracle_budget(cfg):
    """(n_upper, rows, total) by scanning orders one at a time."""
    n_up = 1
    while oracle_critical_frequency(cfg, n_up) <= cfg.band_high:
        n_up += 1
    t_eff = effective_time(cfg)
    rows = []
    for n in range(-(n_up - 1), n_up):
        w_eff = oracle_effective_bandwidth(cfg, n)
        rows.append(OrderBudget(n, oracle_critical_frequency(cfg, n), w_eff, w_eff * t_eff + 1.0))
    return n_up, tuple(rows), float(sum(r.dof for r in rows))


def assert_matches_oracle(cfg):
    n_up, rows, total = oracle_budget(cfg)
    assert truncation_order(cfg) == n_up
    rep = total_dof(cfg)
    assert rep.n_upper == n_up
    assert rep.per_order == rows
    assert rep.total == total
    for n in range(n_up + 2):
        assert critical_frequency(cfg, n) == oracle_critical_frequency(cfg, n)
        assert effective_bandwidth(cfg, n) == oracle_effective_bandwidth(cfg, n)


@st.composite
def budget_configs(draw):
    """Configs with N_u up to a few hundred, the band edge often exactly on some F_k."""
    radius = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    wave_speed = draw(st.floats(1e3, 1e9))
    noise_var = draw(st.floats(1e-3, 1e3))
    p_max = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    # gamma / snr_max on both sides of 1, exactly 1 included
    ratio = draw(st.one_of(st.just(1.0), st.floats(1e-8, 1e8)))
    gamma = ratio * p_max / noise_var if p_max > 0.0 else draw(st.floats(1e-3, 1e3))
    base = dict(radius=radius, obs_time=draw(st.floats(0.0, 1e-6)), wave_speed=wave_speed,
                noise_var=noise_var, p_max=p_max, gamma=gamma)
    probe = ChannelConfig(f0=2.0, half_bw=1.0, **base)
    scale = wave_speed / (math.e * math.pi * radius) if radius > 0.0 else wave_speed
    f_k = oracle_critical_frequency(probe, draw(st.integers(1, 300)))
    if draw(st.booleans()) and 0.0 < f_k < math.inf:
        # the band edge on F_k or one ulp to either side
        band_high = draw(st.sampled_from([f_k, math.nextafter(f_k, 0.0), math.nextafter(f_k, math.inf)]))
    else:
        band_high = scale * draw(st.floats(1e-3, 300.0))
    half_bw = band_high * draw(st.floats(0.01, 0.49))
    f0 = band_high - half_bw
    # nudge f0 by an ulp at a time until f0 + half_bw lands on band_high
    for _ in range(4):
        if f0 + half_bw == band_high:
            break
        f0 = math.nextafter(f0, math.inf if f0 + half_bw < band_high else -math.inf)
    return ChannelConfig(f0=f0, half_bw=half_bw, **base)


class TestClosedFormAgainstScan:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(cfg=budget_configs())
    def test_matches_scan_and_loop(self, cfg):
        assume(oracle_critical_frequency(cfg, 300) > cfg.band_high)
        assert_matches_oracle(cfg)

    # rounding puts the closed-form floor one order off in each direction here
    @pytest.mark.parametrize(
        "cfg",
        [
            ChannelConfig(f0=244660257.21179268, half_bw=81553419.07059756, radius=0.022503189629941682,
                          obs_time=0.0, wave_speed=242042.82596539633, noise_var=0.0016291320205914558,
                          p_max=574.5924343514893, gamma=47654.05755407671),
            ChannelConfig(f0=13673388.18122511, half_bw=4557796.06040837, radius=0.0017287065617760048,
                          obs_time=0.0, wave_speed=1156.210500151457, noise_var=786.1433757647487,
                          p_max=0.05933338971703838, gamma=0.002648059212463295),
        ],
    )
    def test_floor_corrected_at_the_band_edge(self, cfg):
        assert_matches_oracle(cfg)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(radius=0.0, gamma=0.5),            # point region, order 0 usable
            dict(radius=0.0, gamma=2.0),            # point region, order 0 below threshold
            dict(p_max=0.0),                        # silent channel
            dict(radius=0.0, p_max=0.0),
            dict(gamma=1e-300),                     # shift far below zero
            dict(radius=1e-310, wave_speed=1e308),  # scale overflows to inf
            dict(radius=1e-310, wave_speed=1e308, p_max=math.exp(4.0)),
        ],
    )
    def test_degenerate_limits(self, kw):
        assert_matches_oracle(worked_cfg(**kw))

    @pytest.mark.parametrize("kw", [dict(wave_speed=1e308, p_max=1000.0), dict(wave_speed=1e308, obs_time=1e-9, p_max=1000.0)])
    def test_overflowing_scale_defined_without_warning(self, kw):
        # scale * (n + shift) overflows to inf for orders past N_u: F_n = inf,
        # a defined result
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_oracle(worked_cfg(**kw))
            assert total_dof(worked_cfg(**kw)).total == 7.0 * (1.0 + 1e9 * kw.get("obs_time", 0.0))


class TestOrderSymmetry:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cfg=budget_configs())
    @example(cfg=worked_cfg(radius=0.0))
    @example(cfg=worked_cfg(p_max=0.0))
    def test_columns_bitwise_even_in_n(self, cfg):
        # DofReport's contract: cli._budget_rows formats each order's text once for -n and +n
        rep = total_dof(cfg)
        for col in (rep.f_crit, rep.w_eff, rep.dof):
            assert col.tobytes() == col[::-1].tobytes()


class TestOrderBound:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(radius=2e5),                       # N_u about 1.6e7
            dict(radius=1e300),                     # n - 1 == n at this size
            dict(p_max=1e308, noise_var=1e-10),     # snr_max overflows to inf
            dict(radius=1e3, wave_speed=5e-324),    # scale underflows to 0
        ],
    )
    def test_past_the_bound_raises_naming_it(self, kw):
        cfg = worked_cfg(**kw)
        with pytest.raises(ValueError, match="N_u <= 10000000"):
            truncation_order(cfg)
        with pytest.raises(ValueError, match="N_u <= 10000000"):
            total_dof(cfg)
