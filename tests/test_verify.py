"""Verification harness tests: quadrature residuals, SNR estimator
calibration, noise statistics, power balance, time support, and the
end-to-end detectability audit."""

import ast
import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavedof import verify
from wavedof.channel import (
    ChannelConfig,
    _circle_nodes,
    _complex_normal,
    _gain_scale,
    _planewave_sum,
    _white_circle_noise,
)
from wavedof.cli import DEFAULT_CONFIG, main
from wavedof.dofcore import critical_frequency, snr_max, snr_upper_bound, truncation_order
from wavedof.specfun import bessel_j_table
from wavedof.verify import (
    CampaignReport,
    CheckResult,
    TrialPlan,
    empirical_order_snr,
    noise_variance_check,
    orthogonality_check,
    power_balance_check,
    run_campaign,
    time_support_check,
)

SEED = 90210


def wide_cfg(**kw):
    # wide band keeps every full-band-usable order far above its
    # critical frequency, so the detectability audit is clean
    d = dict(
        f0=1.5e9, half_bw=1.3e9, radius=0.1, obs_time=0.0,
        wave_speed=3e8, noise_var=1.0, p_max=1000.0, gamma=1.0,
    )
    d.update(kw)
    return ChannelConfig(**d)


def plan(**kw):
    d = dict(num_trials=2000, circle_samples=64, seed=SEED, n_probe=16, freq_samples=257)
    d.update(kw)
    return TrialPlan(**d)


# the smallest plan the CLI tests run
SMALL_PLAN = TrialPlan(num_trials=100, circle_samples=16, seed=SEED, n_probe=4, freq_samples=33)

# trials in one power-balance chunk at plan()'s 64 nodes
PB_CHUNK = verify._block_rows(64 * verify._POWER_BALANCE_SCATTERERS)


def dense_time_support(n, radius, cfg):
    """The time-support transform as one dense (times, omega) matrix in SI units: the oracle of the chirp-z one.

    Returns the time axis and the kernel h itself, of which the checked
    transform reports the square in units where R/c = 1.
    """
    c = cfg.wave_speed
    omega_max = verify._TS_KR_MAX * c / radius
    omega = np.linspace(0.0, omega_max, verify._TS_FREQ_SAMPLES)
    window = 0.5 * (1.0 - np.cos(2.0 * math.pi * omega / omega_max))
    spectrum = window * bessel_j_table(abs(n), omega * radius / c)[:, -1]
    times = np.linspace(0.0, verify._TS_PAD * radius / c, verify._TS_TIME_SAMPLES)
    phase = np.outer(times, omega)
    basis = np.cos(phase) if abs(n) % 2 == 0 else np.sin(phase)
    h = verify._trapezoid(basis * spectrum[None, :], omega, axis=1) / math.pi
    return times, h


def assert_matches_dense_transform(got, n, radius, cfg):
    """|h| of the chirp-z result within 1e-12 of max|h| of the dense oracle, and the same time axis."""
    times, h = dense_time_support(n, radius, cfg)
    np.testing.assert_allclose(got.times, times, rtol=1e-15, atol=0.0)
    # the oracle's kernel is in SI units, (c/R) times the dimensionless one
    h = np.abs(h) * (radius / cfg.wave_speed)
    assert np.max(np.abs(np.sqrt(got.energy) - h)) <= 1e-12 * np.max(h)


def whole_per_trial(p, cfg, z):
    """Circle power of every trial, synthesized at once at argument z = omega R / c."""
    m = p.circle_samples
    rng = np.random.default_rng(p.seed)
    t, j = p.num_trials, 16
    angles = rng.uniform(0.0, 2.0 * math.pi, (t, j))
    gains = _complex_normal(rng, _gain_scale(cfg, j), (t, j))
    values = _planewave_sum(angles[:, None, :], gains[:, None, :], z, _circle_nodes(m)[None, :, None])
    if cfg.noise_var > 0.0:
        values = values + _white_circle_noise(cfg, rng, (t, m))
    return np.mean(np.abs(values) ** 2, axis=1)


def whole_power_balance(p, cfg, omega):
    """The power balance synthesizing every trial at once: the oracle of the chunked one."""
    z = omega * cfg.radius / cfg.wave_speed
    j_tab = bessel_j_table(int(math.ceil(math.e * z / 2.0)) + 12, z)
    modal_sum = cfg.p_max * (j_tab[0] ** 2 + 2.0 * np.sum(j_tab[1:] ** 2))
    m = p.circle_samples
    noise_term = cfg.noise_var * m / (2.0 * math.pi)
    reference = modal_sum + noise_term
    exact_ref = cfg.p_max + noise_term
    per_trial = whole_per_trial(p, cfg, z)
    t = p.num_trials
    est = float(per_trial.mean())
    scale = max(reference, 1e-300)
    return verify.PowerBalance(
        residual=abs(est - reference) / scale,
        stderr=float(per_trial.std() / math.sqrt(t)) / scale,
        estimate=est,
        reference=float(reference),
        tail=float(abs(exact_ref - reference) / max(exact_ref, 1e-300)),
    )


def whole_order_snr(p, cfg, n, f_edge):
    """The SNR estimate and its per-trial signal and noise integrals from one whole draw per part: the oracle of the streamed one."""
    grid = np.linspace(0.0, cfg.band_high, p.freq_samples)
    grid = grid[grid <= f_edge * (1.0 + 1e-12)]
    omega = 2.0 * math.pi * grid
    j_row = bessel_j_table(abs(n), 2.0 * math.pi * grid * cfg.radius / cfg.wave_speed)[:, -1]
    w = np.convolve(np.diff(omega), [0.5, 0.5])
    rng = np.random.default_rng(p.seed)
    shape = (p.num_trials, grid.size)
    sig = np.einsum("tk,k->t", rng.standard_exponential(shape), cfg.p_max * w * j_row**2)
    den = np.einsum("tk,k->t", rng.standard_exponential(shape), cfg.noise_var * w)
    est = verify.SnrEstimate(n, float(f_edge), float(np.mean(sig) / np.mean(den)), verify._ratio_stderr(sig, den))
    return est, sig, den


def serial_dof_prediction(cfg, p):
    """The detectability audit as one serial loop over orders: the oracle of the probe list."""
    results = []
    n_up = truncation_order(cfg)
    gamma = cfg.gamma
    for i, n in enumerate(range(1, min(n_up - 1, p.n_probe) + 1)):
        f_crit = critical_frequency(cfg, n)
        sub = TrialPlan(**{**p.to_dict(), "seed": p.seed + 7919 * (i + 1)})
        if f_crit > 0.0:
            est = verify.empirical_order_snr(sub, cfg, n, 0.8 * f_crit)
            ok = est.snr_hat + 3.0 * est.stderr < gamma
            results.append(CheckResult(f"snr_below_crit[n={n}]", est.snr_hat, est.stderr,
                                       "pass" if ok else "fail", f"threshold {gamma:.6g} at 0.8 F_n"))
        if f_crit < cfg.band_low:
            est = verify.empirical_order_snr(sub, cfg, n, cfg.band_high)
            ok = est.snr_hat + 3.0 * est.stderr >= gamma
            results.append(CheckResult(f"snr_full_band[n={n}]", est.snr_hat, est.stderr,
                                       "pass" if ok else "fail", f"threshold {gamma:.6g} over the band"))
    if math.isfinite(critical_frequency(cfg, n_up)):
        sub = TrialPlan(**{**p.to_dict(), "seed": p.seed + 104729})
        est = verify.empirical_order_snr(sub, cfg, n_up, cfg.band_high)
        ok = est.snr_hat + 3.0 * est.stderr < gamma
        results.append(CheckResult(f"snr_truncated[n={n_up}]", est.snr_hat, est.stderr,
                                   "pass" if ok else "fail", "in-band SNR at the truncation order"))
    return results


def serial_campaign(cfg, p):
    """Every stage in check order in the calling thread: the oracle of the pool."""
    resid = max(orthogonality_check(3, 3, p.circle_samples), orthogonality_check(2, 5, p.circle_samples))
    checks = [CheckResult("orthogonality", resid, 0.0, "pass" if resid < 1e-12 else "fail",
                          "worst residual below the alias bound")]
    checks.extend(noise_variance_check(p, cfg))
    pb = power_balance_check(p, cfg, 2.0 * math.pi * cfg.f0)
    checks.append(CheckResult("power_balance", pb.residual, pb.stderr,
                              "pass" if pb.residual <= max(3.0 * pb.stderr, 1e-12) else "fail",
                              "circle power vs modal sum at f0"))
    checks.append(CheckResult("power_balance_exact", pb.tail, 0.0, "pass" if pb.tail < 1e-6 else "fail",
                              "truncation tail of the modal sum"))
    if cfg.radius > 0.0:
        ts = time_support_check(0, cfg.radius, cfg)
        rc = cfg.radius / cfg.wave_speed
        edge_ok = abs(ts.edge_time - rc) <= 0.05 * rc
        checks.append(CheckResult("time_support_leakage", ts.leakage, 0.0,
                                  "pass" if (ts.leakage < 0.01 and edge_ok) else "fail",
                                  f"edge at {ts.edge_time:.4g} s vs R/c = {rc:.4g} s"))
    else:
        checks.append(CheckResult("time_support_leakage", 0.0, 0.0, "skipped", "point observation region"))
    try:
        checks.extend(serial_dof_prediction(cfg, p))
    except ValueError as exc:
        checks.append(CheckResult("dof_prediction", 0.0, 0.0, "skipped", str(exc)))
    return CampaignReport(config=cfg, plan=p, checks=tuple(checks))


class TestTrialPlan:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TrialPlan(num_trials=0)
        with pytest.raises(ValueError, match="alias"):
            TrialPlan(circle_samples=16, n_probe=16)
        with pytest.raises(ValueError):
            TrialPlan(freq_samples=1)

    def test_statistical_floor(self):
        with pytest.raises(ValueError, match="statistical checks need num_trials >= 100, got 99"):
            TrialPlan(num_trials=99)
        assert TrialPlan(num_trials=100).num_trials == 100

    def test_dict_round_trip(self):
        # the campaign artifact records the plan through to_dict()
        p = plan()
        assert TrialPlan(**p.to_dict()) == p

    @pytest.mark.parametrize("field", ["num_trials", "circle_samples", "seed", "n_probe", "freq_samples"])
    @pytest.mark.parametrize("value", [150.5, 200.0, "200", None])
    def test_integers_required(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrialPlan(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrialPlan(seed=-1, num_trials=150)

    def test_numpy_integers_stored_as_int(self):
        p = TrialPlan(num_trials=np.int64(300), seed=np.uint32(5))
        assert type(p.num_trials) is int and type(p.seed) is int
        assert json.loads(json.dumps(p.to_dict()))["num_trials"] == 300

    @pytest.mark.parametrize(
        "kw",
        [
            dict(num_trials=10_000_000),
            dict(num_trials=100, circle_samples=200_000),
            dict(num_trials=100, freq_samples=200_000),
            dict(num_trials=100, circle_samples=60_000, n_probe=29_000),
        ],
    )
    def test_size_bound(self, kw):
        # rejected when built: none of these plans is ever run
        with pytest.raises(ValueError, match=f"<= {2**24} cells"):
            TrialPlan(**kw)

    def test_size_bound_edge(self):
        cols = 257
        assert TrialPlan(num_trials=2**24 // cols).num_trials == 2**24 // cols
        with pytest.raises(ValueError, match="num_trials"):
            TrialPlan(num_trials=2**24 // cols + 1)


class TestOrthogonality:
    def test_diagonal(self):
        assert orthogonality_check(3, 3, 64) < 1e-12

    def test_off_diagonal(self):
        assert orthogonality_check(2, 5, 64) < 1e-12

    def test_aliased_pair(self):
        # n - m lands exactly on the sampling period, so the quadrature
        # collapses to the diagonal value instead of zero
        assert orthogonality_check(0, 64, 64) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_exact_below_alias_bound(self):
        rng = np.random.default_rng(SEED)
        for _ in range(60):
            m_samples = int(rng.integers(8, 128))
            n = int(rng.integers(-20, 21))
            m = int(rng.integers(-20, 21))
            if abs(n - m) >= m_samples:
                continue
            assert orthogonality_check(n, m, m_samples) < 1e-12

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            orthogonality_check(0, 0, 0)

    @pytest.mark.parametrize(
        "field, args", [("num_samples", (3, 3, 2.5)), ("n", (0.5, 3, 8)), ("n", (math.nan, 3, 8)), ("m", (3, 3.0, 8))]
    )
    def test_non_integer_argument_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            orthogonality_check(*args)

    def test_numpy_integers_accepted(self):
        assert orthogonality_check(np.int64(3), np.int32(3), np.int64(64)) == orthogonality_check(3, 3, 64)


class TestEmpiricalSnr:
    def test_flat_response_recovers_snr_max(self):
        # tiny disk keeps the order-0 response at 1 across the band, so
        # the estimator must land on p_max / noise_var
        cfg = wide_cfg(radius=1e-4, p_max=50.0, noise_var=2.0)
        est = empirical_order_snr(plan(), cfg, 0, cfg.band_high)
        assert est.stderr > 0.0
        assert abs(est.snr_hat - snr_max(cfg)) <= 3.0 * est.stderr

    def test_silent_channel(self):
        est = empirical_order_snr(plan(), wide_cfg(p_max=0.0), 0, 1e9)
        assert est.snr_hat == 0.0

    def test_nonnegative_and_deterministic(self):
        cfg = wide_cfg()
        a = empirical_order_snr(plan(), cfg, 2, 1e9)
        b = empirical_order_snr(plan(), cfg, 2, 1e9)
        assert a.snr_hat >= 0.0
        assert a == b
        c = empirical_order_snr(plan(seed=SEED + 1), cfg, 2, 1e9)
        assert c.snr_hat != a.snr_hat

    def test_noiseless_rejected(self):
        with pytest.raises(ValueError, match="noise_var"):
            empirical_order_snr(plan(), wide_cfg(noise_var=0.0), 0, 1e9)

    def test_edge_out_of_band(self):
        with pytest.raises(ValueError, match="f_edge"):
            empirical_order_snr(plan(), wide_cfg(), 0, 5e9)

    def test_too_few_points_below_edge(self):
        with pytest.raises(ValueError, match="grid"):
            empirical_order_snr(plan(freq_samples=16), wide_cfg(), 0, 1e5)

    def test_small_trial_count_rejected(self):
        with pytest.raises(ValueError, match="statistical"):
            empirical_order_snr(plan(num_trials=10), wide_cfg(), 0, 1e9)

    def test_bound_never_exceeded_random_sweep(self):
        # the estimate may sit far below the loose bound but must never
        # clear it by a statistically significant margin
        rng = np.random.default_rng(777)
        for _ in range(50):
            f0 = float(rng.uniform(0.3e9, 3.0e9))
            cfg = ChannelConfig(
                f0=f0,
                half_bw=float(rng.uniform(0.2, 0.9)) * f0,
                radius=float(rng.uniform(0.01, 0.2)),
                obs_time=0.0,
                wave_speed=3e8,
                noise_var=1.0,
                p_max=float(10.0 ** rng.uniform(-1.0, 4.0)),
                gamma=1.0,
            )
            n = int(rng.integers(1, 21))
            p = plan(num_trials=800, seed=int(rng.integers(2**31)))
            grid_step = cfg.band_high / (p.freq_samples - 1)
            f_edge = float(rng.uniform(2.0 * grid_step, cfg.band_high))
            est = empirical_order_snr(p, cfg, n, f_edge)
            bound = snr_upper_bound(cfg, n, f_edge).value
            assert est.snr_hat <= bound + 3.0 * est.stderr, (
                f"n={n} f_edge={f_edge:.3g}: {est.snr_hat:.3g} above bound {bound:.3g}"
            )


def old_ratio_stderr(num, den):
    """_ratio_stderr without its power-of-two scaling: its oracle wherever this neither under- nor overflows."""
    t = num.size
    nb, db = float(np.mean(num)), float(np.mean(den))
    vn = float(np.var(num)) / t
    vd = float(np.var(den)) / t
    return math.sqrt(vn / db**2 + (nb / db**2) ** 2 * vd)


class TestRatioStderr:
    @pytest.mark.parametrize("t", [100, 2000])
    @pytest.mark.parametrize("scale_num, scale_den", [(1.0, 1.0), (1e3, 0.37), (1e-40, 3e50), (7.1e60, 2e-30), (0.0, 1.0)])
    def test_unscaled_bits_in_the_normal_range(self, t, scale_num, scale_den):
        rng = np.random.default_rng(SEED)
        num = scale_num * rng.standard_exponential(t)
        den = scale_den * rng.standard_exponential(t)
        assert verify._ratio_stderr(num, den) == old_ratio_stderr(num, den)

    @pytest.mark.parametrize(
        "e_num, e_den",
        # pairs whose ratio of means, 2^(e_num - e_den), stays in the float range
        [(a, b) for a in (-1000, -500, 0, 500, 1000) for b in (-1000, -500, 0, 500, 1000) if abs(a - b) <= 1000],
    )
    def test_finite_for_finite_positive_means(self, e_num, e_den):
        # means of 2^-1000 made the old form divide by an underflowed zero,
        # means of 2^500 over 2^-500 overflow its squared quotient; a power of
        # two scales the result exactly wherever that stays in range
        rng = np.random.default_rng(SEED)
        num, den = rng.standard_exponential(500), 0.3 + rng.standard_exponential(500)
        got = verify._ratio_stderr(np.ldexp(num, e_num), np.ldexp(den, e_den))
        assert got == math.ldexp(old_ratio_stderr(num, den), e_num - e_den)
        assert 0.0 < got < math.inf

    def test_subnormal_means(self):
        rng = np.random.default_rng(SEED)
        got = verify._ratio_stderr(np.ldexp(1.0 + rng.random(300), -1070), np.ldexp(1.0 + rng.random(300), -1060))
        assert 0.0 < got < math.inf


class TestNoiseVariance:
    def test_silent_channel_exact_zero(self):
        rows = noise_variance_check(plan(), wide_cfg(noise_var=0.0))
        assert all(r.verdict == "pass" and r.estimate == 0.0 for r in rows)

    def test_calibration_window(self):
        # chi-squared concentration puts every order estimate within a
        # few percent of 2 pi at this trial count
        cfg = wide_cfg(noise_var=1.0)
        rows = noise_variance_check(
            TrialPlan(num_trials=10_000, circle_samples=16, seed=SEED, n_probe=4), cfg
        )
        var_rows = [r for r in rows if r.name.startswith("noise_var")]
        assert len(var_rows) == 9
        for r in var_rows:
            assert 2 * math.pi * 0.94 <= r.estimate <= 2 * math.pi * 1.06
            assert r.verdict == "pass"

    def test_mean_and_cross_rows(self):
        rows = noise_variance_check(plan(n_probe=4, circle_samples=16), wide_cfg())
        names = [r.name for r in rows]
        assert "noise_mean_worst" in names
        assert "noise_cross[1,2]" in names
        assert "noise_cross_worst" in names
        assert all(r.verdict == "pass" for r in rows)

    def test_deterministic(self):
        a = noise_variance_check(plan(n_probe=3), wide_cfg())
        b = noise_variance_check(plan(n_probe=3), wide_cfg())
        assert a == b


class TestPowerBalance:
    def test_parseval_identity(self):
        # sum of squared orders at fixed argument telescopes to one
        for z in (0.5, 5.0, 20.0):
            n_max = int(math.ceil(math.e * z / 2.0)) + 12
            tab = bessel_j_table(n_max, z)
            total = tab[0] ** 2 + 2.0 * np.sum(tab[1:] ** 2)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_exact_mode_truncation_residual(self):
        # one pass gives both the truncation tail and the noiseless
        # Monte Carlo residual
        cfg = wide_cfg(noise_var=0.0, p_max=3.0)
        pb = power_balance_check(plan(), cfg, 2 * math.pi * cfg.f0)
        assert pb.tail < 1e-6
        assert pb.stderr > 0.0
        assert pb.residual <= 3.0 * pb.stderr

    def test_monte_carlo_with_noise(self):
        cfg = wide_cfg(p_max=4.0, noise_var=0.5)
        pb = power_balance_check(plan(), cfg, 2 * math.pi * cfg.f0)
        assert pb.residual <= 3.0 * pb.stderr + 1e-9

    def test_noise_floor_only(self):
        cfg = wide_cfg(p_max=0.0, noise_var=1.0)
        pb = power_balance_check(plan(), cfg, 2 * math.pi * cfg.f0)
        assert pb.residual <= 3.0 * pb.stderr

    def test_nonfinite_or_negative_argument_rejected(self):
        for omega in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^omega must be (>= 0|finite), got "):
                power_balance_check(plan(), wide_cfg(), omega)

    def test_deterministic(self):
        cfg = wide_cfg()
        a = power_balance_check(plan(), cfg, 2 * math.pi * cfg.f0)
        b = power_balance_check(plan(), cfg, 2 * math.pi * cfg.f0)
        assert a == b

    @pytest.mark.parametrize("noise_var", [0.0, 0.7])
    def test_chunks_bitwise_equal_to_whole_synthesis(self, noise_var):
        cfg = wide_cfg(noise_var=noise_var, p_max=3.0)
        p = plan(num_trials=3 * PB_CHUNK + 17)
        got = power_balance_check(p, cfg, 2 * math.pi * cfg.f0)
        want = whole_power_balance(p, cfg, 2 * math.pi * cfg.f0)
        assert got.estimate == want.estimate and got.stderr == want.stderr
        assert got == want

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("noise_var", [0.0, 0.7])
    def test_pool_map_gives_the_whole_per_trial_bits(self, workers, noise_var):
        # 9 chunks, the last one partial, one pool task each
        cfg = wide_cfg(noise_var=noise_var, p_max=3.0)
        p = plan(num_trials=8 * PB_CHUNK + 17)
        omega = 2 * math.pi * cfg.f0

        def per_trial(run, map_):
            """The result and the per-trial powers that ``map_`` handed back."""
            tasks = []

            def recording(fn, it):
                out = list(map_(fn, it))
                tasks.extend(out)
                return out

            result = run(recording)
            return result, np.concatenate(tasks)

        want, want_rows = per_trial(lambda m: power_balance_check(p, cfg, omega, m), map)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            got, got_rows = per_trial(lambda m: power_balance_check(p, cfg, omega, m), pool.map)
        whole = whole_per_trial(p, cfg, omega * cfg.radius / cfg.wave_speed)
        assert want_rows.tobytes() == whole.tobytes()
        assert got_rows.tobytes() == whole.tobytes()
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert np.array(got).tobytes() == np.array(whole_power_balance(p, cfg, omega)).tobytes()

    @pytest.mark.parametrize("omega", [10**400, -(10**400)])
    def test_integer_omega_past_the_float_range_rejected(self, omega):
        with pytest.raises(ValueError, match=rf"^omega must be finite, got {omega}$"):
            power_balance_check(plan(), wide_cfg(), omega)


class TestTimeSupport:
    def test_leakage_small_at_default_band(self):
        cfg = wide_cfg()
        res = time_support_check(0, 1.0, cfg)
        assert res.leakage < 0.01

    def test_edge_at_aperture_crossing(self):
        cfg = wide_cfg()
        for n in (0, 1, 4, 8):
            res = time_support_check(n, 1.0, cfg)
            r_over_c = 1.0 / cfg.wave_speed
            assert abs(res.edge_time - r_over_c) <= 0.05 * r_over_c

    def test_edge_scales_with_radius(self):
        cfg = wide_cfg()
        e1 = time_support_check(0, 1.0, cfg).edge_time
        e2 = time_support_check(0, 2.0, cfg).edge_time
        assert e2 / e1 == pytest.approx(2.0, rel=0.05)

    def test_order_invariance_within_factor_two(self):
        cfg = wide_cfg()
        leaks = [time_support_check(n, 1.0, cfg).leakage for n in (0, 1, 4, 8)]
        assert max(leaks) <= 2.0 * min(leaks)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            time_support_check(0, 0.0, wide_cfg())

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_nonfinite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be finite"):
            time_support_check(0, radius, wide_cfg())

    @pytest.mark.parametrize("radius", [1e-300, np.float64(1e-300)])
    def test_tiny_radius_accepted(self, radius):
        # the transform runs in units of R/c, so 200 c / radius never forms
        cfg = wide_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = time_support_check(0, radius, cfg)
        r_over_c = 1e-300 / cfg.wave_speed
        assert res.leakage == time_support_check(0, 1.0, cfg).leakage
        assert abs(res.edge_time - r_over_c) <= 0.05 * r_over_c
        assert np.all(np.isfinite(res.times)) and np.all(np.isfinite(res.energy))

    def test_leakage_and_energy_independent_of_radius(self):
        cfg = wide_cfg()
        results = [time_support_check(3, radius, cfg) for radius in (1e-300, 1.0, 1e300)]
        assert len({r.leakage for r in results}) == 1
        assert len({r.energy.tobytes() for r in results}) == 1

    @pytest.mark.parametrize("radius, wave_speed", [(1e300, 1e-10), (1e-300, 1e300)])
    def test_time_unit_outside_the_float_range_rejected(self, radius, wave_speed):
        # R/c overflows or underflows to 0: no time axis can be written in seconds
        with pytest.raises(ValueError, match="radius / wave_speed must be a finite time > 0"):
            time_support_check(0, radius, wide_cfg(wave_speed=wave_speed))

    @pytest.mark.parametrize("radius", [10**400, -(10**400)])
    def test_integer_radius_past_the_float_range_rejected(self, radius):
        with pytest.raises(ValueError, match=rf"^radius must be finite, got {radius}$"):
            time_support_check(0, radius, wide_cfg())

    @pytest.mark.parametrize("n", [0.5, 2.0, math.nan])
    def test_non_integer_order_rejected(self, n):
        with pytest.raises(ValueError, match="order must be an integer"):
            time_support_check(n, 0.1, wide_cfg())

    def test_order_bound_is_inside_the_band(self):
        # the highest accepted order turns on well inside the band and
        # still measures a compact kernel
        bound = verify._TS_MAX_ORDER
        assert bound == 180 == int(0.9 * verify._TS_KR_MAX)
        cfg = ChannelConfig(**DEFAULT_CONFIG)
        for n in (bound, -bound):
            assert time_support_check(n, 0.1, cfg).leakage < 1e-5

    @pytest.mark.parametrize("n", [181, -181, 250, 10_000])
    def test_order_past_the_band_rejected(self, n):
        with pytest.raises(ValueError, match=rf"order must satisfy \|order\| <= 180, 0.9 of the band edge kR = 200, got {n}"):
            time_support_check(n, 0.1, ChannelConfig(**DEFAULT_CONFIG))

    @pytest.mark.parametrize("radius", [0.1, 0.37])
    @pytest.mark.parametrize("n", [0, 1, 4, 8, 100, 180])
    def test_chirp_z_matches_dense_transform(self, n, radius):
        cfg = wide_cfg()
        assert_matches_dense_transform(time_support_check(n, radius, cfg), n, radius, cfg)


class TestBlockedStages:
    """The block sizes leave every byte, and the stages' working sets are bounded."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_campaign_bytes_at_whole_array_and_scalar_limits(self, monkeypatch, seed):
        cfg, p = ChannelConfig(**DEFAULT_CONFIG), TrialPlan(seed=seed)
        shipped = json.dumps(run_campaign(cfg, p).to_dict())
        # whole arrays: one block of every draw and synthesis
        monkeypatch.setattr(verify, "_BLOCK_CELLS", sys.maxsize)
        assert json.dumps(run_campaign(cfg, p).to_dict()) == shipped
        # one trial per block, and so per pool task, the finest split
        monkeypatch.undo()
        monkeypatch.setattr(verify, "_BLOCK_CELLS", 1)
        assert json.dumps(run_campaign(cfg, p).to_dict()) == shipped

    @pytest.mark.parametrize("stage", ["time_support", "power_balance", "snr", "noise"])
    def test_peak_memory_at_defaults(self, stage):
        cfg, p = ChannelConfig(**DEFAULT_CONFIG), TrialPlan()
        run, bound = {
            # a few complex vectors of the FFT length (64 kB each); the
            # dense (times, frequencies) matrix alone was 32 MB
            "time_support": (lambda: time_support_check(0, cfg.radius, cfg), 1e6),
            # the draws (2.8 MB), the noise draw's one real temporary and a
            # 1 MB synthesis chunk: measured 4.5 MB, here with 50% to spare
            "power_balance": (lambda: power_balance_check(p, cfg, 2 * math.pi * cfg.f0), 6.8e6),
            # one 0.5 MB block of standard exponentials, 255 trials x 257
            # frequencies, and the Bessel row (0.2 MB): measured 0.61 MB;
            # a whole (trials, K) draw was 4.1 MB
            "snr": (lambda: empirical_order_snr(p, cfg, p.n_probe, cfg.band_high), 1e6),
            # the (trials, nodes) noise (2 MB) and a few (trials, orders)
            # arrays of 1 MB: measured 4.8 MB
            "noise": (lambda: noise_variance_check(p, cfg), 6e6),
        }[stage]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def traced_peak(run):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def small_plans(draw):
    """In-bound plans of a few chunks; the extreme sizes are only ever tested for rejection."""
    n_probe = draw(st.integers(0, 8))
    return TrialPlan(
        num_trials=draw(st.integers(100, 700)),
        circle_samples=draw(st.integers(2 * n_probe + 2, 96)),
        seed=draw(st.integers(0, 2**32 - 1)),
        n_probe=n_probe,
        freq_samples=draw(st.integers(2, 600)),
    )


class TestBlockedStagesOverRandomPlans:
    """Over random small plans the blocked stages keep their whole-array bytes and their block bound."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        p=small_plans(),
        noise_var=st.sampled_from([0.0, 0.7]),
        # 0 or inside the campaign's power span, which excludes the subnormals
        p_max=st.just(0.0) | st.floats(1e-100, 10.0),
        radius=st.floats(0.01, 1.0),
    )
    def test_power_balance(self, p, noise_var, p_max, radius):
        cfg = wide_cfg(noise_var=noise_var, p_max=p_max, radius=radius)
        omega = 2 * math.pi * cfg.f0
        got, peak = traced_peak(lambda: power_balance_check(p, cfg, omega))
        want = whole_power_balance(p, cfg, omega)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        # angles, gains and node noise drawn whole (24 + 16 m bytes a trial,
        # plus the per-trial power), twice for the draws' temporaries, and
        # three (chunk, nodes, scatterers) complex blocks
        t, m = p.num_trials, p.circle_samples
        drawn = t * (16 * 24 + 16 * m + 8)
        block = min(t, verify._block_rows(m * 16)) * m * 16 * 16
        assert peak < 2 * drawn + 3 * block

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        p=small_plans(),
        n=st.integers(0, 8),
        edge=st.floats(0.05, 1.0),
        cells=st.sampled_from([1, 1000, verify._BLOCK_CELLS, sys.maxsize]),
    )
    def test_snr(self, p, n, edge, cells):
        cfg = wide_cfg()
        f_edge = edge * cfg.band_high
        grid = np.linspace(0.0, cfg.band_high, p.freq_samples)
        k = int(np.count_nonzero(grid <= f_edge * (1.0 + 1e-12)))
        assume(k >= 2)
        want, want_sig, want_den = whole_order_snr(p, cfg, n, f_edge)
        stderr = mock.patch.object(verify, "_ratio_stderr", wraps=verify._ratio_stderr)
        with mock.patch.object(verify, "_BLOCK_CELLS", cells), stderr as spy:
            got, peak = traced_peak(lambda: empirical_order_snr(p, cfg, n, f_edge))
            block = 8 * min(p.num_trials, verify._block_rows(k)) * k
        # the per-trial signal and noise integrals, then the estimate
        sig, den = spy.call_args.args
        assert (sig.tobytes(), den.tobytes()) == (want_sig.tobytes(), want_den.tobytes())
        assert np.array(got).tobytes() == np.array(want).tobytes()
        # the Bessel row's own working set, one block of draws, and a few
        # vectors of the trials or the frequencies
        _, table_peak = traced_peak(lambda: bessel_j_table(n, 2.0 * math.pi * grid[:k] * cfg.radius / cfg.wave_speed))
        assert peak < table_peak + block + 64 * (p.num_trials + k)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(n=st.integers(0, 8), radius=st.floats(0.01, 2.0))
    def test_time_support(self, n, radius):
        cfg = wide_cfg()
        got, peak = traced_peak(lambda: time_support_check(n, radius, cfg))
        assert_matches_dense_transform(got, n, radius, cfg)
        # the Bessel table's own working set, then at most eight complex
        # vectors of the FFT length; the dense (times, frequencies) matrix
        # alone was 32 MB
        kr = np.linspace(0.0, verify._TS_KR_MAX, verify._TS_FREQ_SAMPLES)
        _, table_peak = traced_peak(lambda: bessel_j_table(n, kr))
        assert peak < table_peak + 8 * 16 * verify._TS_FFT_SIZE


class TestSnrLaw:
    """The drawn powers are p_max |J_n|^2 and noise_var times Exp(1): the estimate has a closed-form law."""

    @pytest.mark.parametrize("n, f_edge", [(0, 2.8e9), (1, 2.8e9), (4, 0.9e9), (9, 2.0e9), (16, 2.8e9)])
    def test_mean_and_stderr_match_exponential_moments(self, n, f_edge):
        cfg, p = ChannelConfig(**DEFAULT_CONFIG), TrialPlan()
        grid = np.linspace(0.0, cfg.band_high, p.freq_samples)
        omega = 2 * math.pi * grid[grid <= f_edge * (1 + 1e-12)]
        step = np.diff(omega) / 2
        w = np.append(step, 0.0) + np.insert(step, 0, 0.0)
        signal = cfg.p_max * w * bessel_j_table(n, omega * cfg.radius / cfg.wave_speed)[:, -1] ** 2
        noise = cfg.noise_var * w
        # Exp(1) has mean 1 and variance 1, so a trial's integral has mean
        # sum(weights) and variance sum(weights^2); delta method for the ratio
        mean = signal.sum() / noise.sum()
        se = math.sqrt((np.sum(signal**2) + mean**2 * np.sum(noise**2)) / p.num_trials) / noise.sum()
        est = empirical_order_snr(p, cfg, n, f_edge)
        assert abs(est.snr_hat - mean) <= 4 * se
        assert est.stderr == pytest.approx(se, rel=0.1)


def assert_worker_count_invisible(cfg, p):
    """run_campaign on 1 and on 4 workers gives the serial oracle's bytes and leaves no thread behind."""
    want = json.dumps(serial_campaign(cfg, p).to_dict())
    baseline = threading.active_count()
    for cpus in (1, 4):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
            assert verify._usable_cpus() == cpus
            assert json.dumps(run_campaign(cfg, p).to_dict()) == want
        assert threading.active_count() == baseline
    return json.loads(want)


# the campaign stages that can raise, in check order; the last is every SNR probe
FAILING_STAGES = ("noise_variance_check", "power_balance_check", "time_support_check", "empirical_order_snr")


class TestCampaignWorkers:
    """Stages run on a thread pool; the worker count changes no byte."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_defaults(self, seed):
        doc = assert_worker_count_invisible(ChannelConfig(**DEFAULT_CONFIG), TrialPlan(seed=seed))
        assert any(c["name"].startswith("snr_truncated") for c in doc["checks"])

    def test_point_region_skips_time_support(self):
        doc = assert_worker_count_invisible(wide_cfg(radius=0.0), plan())
        # a point region has no SNR probes, so time support is the last line
        assert doc["checks"][-1]["name"] == "time_support_leakage" and doc["checks"][-1]["verdict"] == "skipped"

    def test_noiseless_skips_snr(self):
        doc = assert_worker_count_invisible(wide_cfg(noise_var=0.0), plan(num_trials=300))
        assert doc["checks"][-1]["name"] == "dof_prediction" and doc["checks"][-1]["verdict"] == "skipped"

    def test_too_few_grid_points_skips_snr(self):
        doc = assert_worker_count_invisible(wide_cfg(), plan(num_trials=300, freq_samples=2))
        assert doc["checks"][-1]["name"] == "dof_prediction"
        assert doc["checks"][-1]["detail"].startswith("fewer than 2 grid points")

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(p=small_plans(), radius=st.sampled_from([0.0, 0.05, 0.37]), noise_var=st.sampled_from([0.0, 0.7, 1.0]))
    def test_random_plans(self, p, radius, noise_var):
        assert_worker_count_invisible(wide_cfg(radius=radius, noise_var=noise_var), p)

    @pytest.mark.parametrize("stage", ["noise_variance_check", "power_balance_check", "time_support_check"])
    def test_stage_error_propagates(self, monkeypatch, tmp_path, capsys, stage):
        err = ValueError(f"{stage} broke")

        def broken(*args):
            raise err

        monkeypatch.setattr(verify, stage, broken)
        baseline = threading.active_count()
        with pytest.raises(ValueError) as info:
            run_campaign(wide_cfg(), plan(num_trials=300))
        assert info.value is err
        assert threading.active_count() == baseline
        assert main(["simulate", "--num-trials", "300", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {stage} broke\n"
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("broken, first", [
        (("noise_variance_check", "power_balance_check"), "noise_variance_check"),
        (("power_balance_check", "time_support_check"), "power_balance_check"),
    ])
    def test_first_stage_error_in_check_order_wins(self, monkeypatch, broken, first):
        # the power balance runs in this thread, the other stages on the pool;
        # either way the error of the earliest stage in check order is raised
        errors = {stage: ValueError(f"{stage} broke") for stage in broken}
        for stage, err in errors.items():
            def fail(*args, err=err):
                raise err
            monkeypatch.setattr(verify, stage, fail)
        with pytest.raises(ValueError) as info:
            run_campaign(wide_cfg(), plan(num_trials=300))
        assert info.value is errors[first]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("pair", list(itertools.permutations(FAILING_STAGES, 2)), ids="-then-".join)
    def test_error_precedence_over_stage_pairs(self, monkeypatch, pair, cpus):
        # both stages of the pair raise, the second only after the first
        # where two workers let it wait; one worker runs its tasks in
        # submission order.  The error of the earlier stage in check order
        # is raised either way, and no thread is left behind.
        errors = {stage: RuntimeError(f"{stage} broke") for stage in pair}
        first_raised = threading.Event()

        def broken(stage):
            def fail(*args):
                if stage == pair[0]:
                    first_raised.set()
                elif cpus > 1:
                    assert first_raised.wait(timeout=60)
                raise errors[stage]
            return fail

        for stage in pair:
            monkeypatch.setattr(verify, stage, broken(stage))
        baseline = threading.active_count()
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
            with pytest.raises(RuntimeError) as info:
                run_campaign(wide_cfg(), SMALL_PLAN)
        assert info.value is errors[min(pair, key=FAILING_STAGES.index)]
        assert threading.active_count() == baseline

    def test_power_balance_runs_its_tasks_from_the_calling_thread(self, monkeypatch):
        # a pool task that waited on the pool's own tasks would hang a
        # 1-worker pool; two workers let such a design finish and fail here
        real, calls = verify.power_balance_check, []

        def recorded(*args):
            calls.append((threading.current_thread(), len(args)))
            return real(*args)

        monkeypatch.setattr(verify, "power_balance_check", recorded)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            run_campaign(wide_cfg(), plan(num_trials=8 * PB_CHUNK + 17))
        # plan, config, omega and the pool's map
        assert calls == [(threading.current_thread(), 4)]

    def test_probe_error_skips_every_snr_line(self, monkeypatch):
        real = verify.empirical_order_snr

        def order_3_breaks(p, cfg, n, f_edge):
            if n == 3:
                raise ValueError("probe broke")
            return real(p, cfg, n, f_edge)

        monkeypatch.setattr(verify, "empirical_order_snr", order_3_breaks)
        rep = run_campaign(wide_cfg(), plan(num_trials=300))
        snr = [c for c in rep.checks if c.name.startswith(("snr_", "dof_prediction"))]
        assert snr == [CheckResult("dof_prediction", 0.0, 0.0, "skipped", "probe broke")]


def snr_rows(cfg, p):
    """The detectability audit's lines of a campaign."""
    return [c for c in run_campaign(cfg, p).checks if c.name.startswith(("snr_", "dof_prediction"))]


class TestDofPrediction:
    def test_wide_config_all_pass(self):
        rows = snr_rows(wide_cfg(), plan())
        assert rows
        assert all(r.verdict == "pass" for r in rows)
        names = [r.name for r in rows]
        n_up = truncation_order(wide_cfg())
        assert f"snr_truncated[n={n_up}]" in names
        assert any(name.startswith("snr_full_band") for name in names)
        assert any(name.startswith("snr_below_crit") for name in names)

    def test_vanishing_threshold_opens_every_order(self):
        # gamma near zero pushes all critical frequencies to zero: every
        # probed order passes the full-band check
        rows = snr_rows(wide_cfg(gamma=1e-12), plan(n_probe=6))
        full = [r for r in rows if r.name.startswith("snr_full_band")]
        assert len(full) == 6
        assert all(r.verdict == "pass" for r in full)
        assert not [r for r in rows if r.name.startswith("snr_below_crit")]

    @pytest.mark.xfail(strict=True, reason="the full-band claim needs kR large enough (ROADMAP item 2)")
    def test_small_disk_keeps_the_full_band(self):
        # critical_frequency puts F_n at 0 for every n < ln(snr_max/gamma)/2
        # at any radius, but at R = 1 mm J_2 stays far below threshold
        cfg = ChannelConfig(**{**DEFAULT_CONFIG, "radius": 1e-3})
        rows = {r.name: r for r in snr_rows(cfg, TrialPlan(num_trials=300))}
        assert rows["snr_full_band[n=2]"].verdict == "pass"

    def test_noiseless_skips_with_reason(self):
        rows = snr_rows(wide_cfg(noise_var=0.0), plan())
        assert rows == [
            CheckResult("dof_prediction", 0.0, 0.0, "skipped", "snr_max is undefined for noise_var == 0")
        ]


class TestCampaign:
    def test_default_campaign_passes(self):
        rep = run_campaign(wide_cfg(), plan())
        assert rep.passed
        assert all(c.verdict in ("pass", "fail", "skipped") for c in rep.checks)
        table = rep.summary_table()
        assert "overall: pass" in table
        assert "noise_var[n=0]" in table

    def test_noiseless_campaign_skips_snr(self):
        rep = run_campaign(wide_cfg(noise_var=0.0), plan())
        assert rep.passed
        skipped = [c for c in rep.checks if c.verdict == "skipped"]
        assert any(c.name == "dof_prediction" for c in skipped)
        noise_rows = [c for c in rep.checks if c.name.startswith("noise_var")]
        assert all(c.verdict == "pass" and c.estimate == 0.0 for c in noise_rows)

    def test_json_reproducible(self):
        a = json.dumps(run_campaign(wide_cfg(), plan()).to_dict(), sort_keys=True)
        b = json.dumps(run_campaign(wide_cfg(), plan()).to_dict(), sort_keys=True)
        assert a == b

    def test_artifact_bytes_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS splits a product across its threads and the rounding
        # follows the split: at 150 trials a BLAS noise covariance gave a
        # different noise_cross_worst on 1 and on 2 threads
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "wavedof.cli", "simulate", "--num-trials", "150", "--out", str(tmp_path)]
        artifacts = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run(argv, env=env, capture_output=True, check=True, timeout=300)
            artifacts.append((tmp_path / "verification.json").read_bytes())
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize(
        "kw, name",
        [(dict(noise_var=1e-300), "noise_var"), (dict(noise_var=1e-150), "noise_var"), (dict(noise_var=1e308), "noise_var"),
         (dict(p_max=1e308), "p_max"), (dict(p_max=5e-324), "p_max"), (dict(p_max=1.01e100, noise_var=1e-101), "p_max")],
    )
    def test_powers_outside_the_span_rejected_before_any_stage(self, kw, name):
        stages = ("noise_variance_check", "power_balance_check", "time_support_check", "empirical_order_snr")
        with contextlib.ExitStack() as stack:
            for stage in stages:
                stack.enter_context(mock.patch.object(verify, stage, side_effect=AssertionError(f"{stage} ran")))
            with pytest.raises(ValueError, match=rf"^{name} must be 0 or within \[1e-100, 1e\+100\] for a verification campaign"):
                run_campaign(wide_cfg(**kw), SMALL_PLAN)

    @pytest.mark.parametrize("value", [1e308, 1e-300])
    @pytest.mark.parametrize("name", ["p_max", "noise_var"])
    @pytest.mark.parametrize(
        "stage",
        [lambda cfg: noise_variance_check(SMALL_PLAN, cfg),
         lambda cfg: power_balance_check(SMALL_PLAN, cfg, 2 * math.pi * cfg.f0),
         lambda cfg: empirical_order_snr(SMALL_PLAN, cfg, 2, cfg.band_high)],
        ids=["noise_variance_check", "power_balance_check", "empirical_order_snr"],
    )
    def test_powers_outside_the_span_rejected_by_each_stage(self, stage, name, value):
        # called alone, a stage holds the campaign's span: no overflow, no zero standard error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=rf"^{name} must be 0 or within \[1e-100, 1e\+100\] for a verification campaign"):
                stage(wide_cfg(**{name: value}))

    @pytest.mark.parametrize("p_max, noise_var", [(1e100, 1e97), (1e-97, 1e-100)])
    def test_powers_at_the_span_edges(self, p_max, noise_var):
        # both powers scaled alike: finite estimates, no warning, the unit-scale verdicts
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            edge = run_campaign(wide_cfg(p_max=p_max, noise_var=noise_var), SMALL_PLAN)
        unit = run_campaign(wide_cfg(), SMALL_PLAN)
        assert all(math.isfinite(c.estimate) and math.isfinite(c.stderr) for c in edge.checks)
        assert [(c.name, c.verdict) for c in edge.checks] == [(c.name, c.verdict) for c in unit.checks]

    def test_plan_floor_enforced(self):
        with pytest.raises(ValueError, match="statistical"):
            run_campaign(wide_cfg(), TrialPlan(num_trials=1))


def test_every_verdict_is_decided_by_the_line_helper():
    # a CheckResult built outside verify._line takes the literal verdict "skipped"
    judged, helpers = [], 0
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_line":
                helpers += 1
                inside |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not isinstance(node, ast.Call) or getattr(func, "id", getattr(func, "attr", None)) != "CheckResult":
                continue
            args = {**dict(enumerate(node.args)), **{kw.arg: kw.value for kw in node.keywords}}
            verdict = args.get(3, args.get("verdict"))
            skipped = isinstance(verdict, ast.Constant) and verdict.value == "skipped"
            judged.append((path.name, node.lineno, id(node) in inside, skipped))
        assert text.count('"pass" if') == (1 if path.name == "verify.py" else 0), path.name
    assert helpers == 1
    assert [(name, inside) for name, _, inside, _ in judged if inside] == [("verify.py", True)]
    assert [(name, line) for name, line, inside, skipped in judged if not (inside or skipped)] == []
    # the skipped lines: a point region's time support and the skipped audit
    assert sum(skipped for *_, skipped in judged) == 2
