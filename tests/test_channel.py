"""Field model tests: config validation, scatterer statistics, synthesis
equivalence, modal noise, input validation."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavedof import channel, specfun
from wavedof.channel import (
    ChannelConfig,
    FieldSamples,
    ModalSpectrum,
    ScattererSet,
    _circle_nodes,
    _complex_normal,
    _gain_scale,
    _modal_order,
    _planewave_sum,
    _white_circle_noise,
    make_scatterers,
    modal_coefficients,
    modal_truncation_order,
    symmetric_orders,
    synth_field_circle,
    synth_field_modal,
    synth_field_planewave,
)
from wavedof.specfun import bessel_j, bessel_j_table
from wavedof.verify import TrialPlan

SEED = 4151


def base_cfg(**kw):
    d = dict(f0=2.4e9, half_bw=0.5e9, radius=0.1, obs_time=0.0, wave_speed=3e8)
    d.update(kw)
    return ChannelConfig(**d)


class TestChannelConfig:
    def test_band_properties(self):
        cfg = base_cfg()
        assert cfg.band_low == 1.9e9
        assert cfg.band_high == 2.9e9
        assert cfg.k_max == pytest.approx(2.0 * math.pi * 2.9e9 / 3e8, rel=1e-15)

    def test_invalid_band(self):
        with pytest.raises(ValueError, match="band"):
            base_cfg(f0=1e9, half_bw=1.5e9)
        with pytest.raises(ValueError, match="band"):
            base_cfg(half_bw=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("radius", -0.1),
            ("obs_time", -1e-9),
            ("wave_speed", 0.0),
            ("noise_var", -1.0),
            ("p_max", -0.5),
            ("gamma", 0.0),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            base_cfg(**{field: value})

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        field=st.sampled_from(["f0", "half_bw", "radius", "obs_time", "wave_speed", "noise_var", "p_max", "gamma"]),
        # an integer past the float range counts as non-finite
        value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
        radius=st.floats(0.0, 1e3),
        gamma=st.floats(1e-6, 1e6),
    )
    def test_non_finite_field_rejected_by_name(self, field, value, radius, gamma):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            base_cfg(**{"radius": radius, "gamma": gamma, field: value})

    def test_degenerate_zeros_accepted(self):
        base_cfg(radius=0.0)
        base_cfg(noise_var=0.0)
        base_cfg(p_max=0.0)
        base_cfg(obs_time=0.0)

    def test_dict_round_trip(self):
        # the sweep rebuilds each point's config from to_dict()
        cfg = base_cfg(gamma=2.5, p_max=3.0)
        assert ChannelConfig(**cfg.to_dict()) == cfg

    @pytest.mark.parametrize("kw", [{}, dict(f0=np.float64(2.4e9), radius=np.float64(0.25), gamma=np.float32(2.0))])
    def test_dict_is_asdict(self, kw):
        cfg = base_cfg(**kw)
        assert list(cfg.to_dict().items()) == list(dataclasses.asdict(cfg).items())


class TestMakeScatterers:
    def test_deterministic(self):
        cfg = base_cfg()
        a = make_scatterers(cfg, 20, 5, seed=SEED)
        b = make_scatterers(cfg, 20, 5, seed=SEED)
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.gains, b.gains)
        c = make_scatterers(cfg, 20, 5, seed=SEED + 1)
        assert not np.array_equal(a.gains, c.gains)

    def test_gain_power_normalization(self):
        # total ensemble power is p_max; each quadrature part of a gain
        # carries p_max / (2 J)
        cfg = base_cfg(p_max=2.0)
        s = make_scatterers(cfg, 10_000, 4, seed=SEED)
        target = cfg.p_max / (2 * 10_000)
        assert np.var(s.gains.real) == pytest.approx(target, rel=0.05)
        assert np.var(s.gains.imag) == pytest.approx(target, rel=0.05)

    def test_gains_follow_the_gain_law_and_draw_order(self):
        # angles first, then every real part, then every imaginary part
        cfg = base_cfg(p_max=3.0)
        s = make_scatterers(cfg, 5, 4, seed=SEED)
        rng = np.random.default_rng(SEED)
        rng.uniform(0.0, 2.0 * math.pi, 5)
        real, imag = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        assert np.array_equal(s.gains, math.sqrt(3.0 / 10.0) * (real + 1j * imag))
        assert _gain_scale(cfg, 5) == math.sqrt(3.0 / 10.0)
        rng = np.random.default_rng(SEED)
        rng.uniform(0.0, 2.0 * math.pi, 5)
        assert np.array_equal(_complex_normal(rng, _gain_scale(cfg, 5), (5, 4)), s.gains)

    @pytest.mark.parametrize("shape", [(7,), (2000, 64), (3, 0)])
    @pytest.mark.parametrize("scale", [0.0, math.sqrt(5e-324), 0.37, 5.0])
    def test_complex_normal_has_the_bits_of_the_sum_expression(self, scale, shape):
        # drawn and scaled in place, signed zeros included; sqrt(5e-324),
        # the root of the least subnormal, is the smallest nonzero scale
        # that _gain_scale or the node noise can give
        rng = np.random.default_rng(SEED)
        want = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert _complex_normal(np.random.default_rng(SEED), scale, shape).tobytes() == want.tobytes()

    def test_angle_range_and_grid(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 50, 6, seed=SEED)
        assert np.all((s.angles >= 0.0) & (s.angles < 2.0 * math.pi))
        assert s.freq_grid[0] == cfg.band_low
        assert s.freq_grid[-1] == cfg.band_high
        assert s.freq_grid.size == 6

    def test_validation(self):
        cfg = base_cfg()
        with pytest.raises(ValueError):
            make_scatterers(cfg, 0, 4, seed=SEED)
        with pytest.raises(ValueError):
            make_scatterers(cfg, 5, 1, seed=SEED)

    @pytest.mark.parametrize("args", [(10**400, 3), (3, 10**400), (2**24 // 3 + 1, 3), (2**12, 2**12 + 1)])
    def test_cell_bound_rejected_before_allocating(self, args):
        # only ever rejected, never run: past the bound one gains array is over 256 MB
        with pytest.raises(ValueError, match=r"^num_scatterers \* num_freqs must be <= 16777216 cells, got "):
            make_scatterers(base_cfg(), *args, seed=SEED)

    @pytest.mark.parametrize("field, args", [("num_scatterers", (8.5, 4)), ("num_freqs", (5, 3.0))])
    def test_non_integer_count_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_scatterers(base_cfg(), *args, seed=SEED)

    @pytest.mark.parametrize("seed", [2.5, math.nan, math.inf, 1e308, "7"])
    def test_non_integer_seed_rejected(self, seed):
        s = make_scatterers(base_cfg(), 5, 4, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[0])
        message = re.escape(f"seed must be an integer, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            make_scatterers(base_cfg(), 5, 4, seed=seed)
        with pytest.raises(ValueError, match=message):
            synth_field_circle(s, base_cfg(), 8, omega, with_noise=True, seed=seed)

    def test_negative_seed_rejected(self):
        s = make_scatterers(base_cfg(), 5, 4, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[0])
        for seed in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
                make_scatterers(base_cfg(), 5, 4, seed=seed)
            with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
                synth_field_circle(s, base_cfg(), 8, omega, with_noise=True, seed=seed)

    def test_numpy_integer_seed_draws_as_int(self):
        # a numpy integer seed is the same generator seed as the Python int,
        # for the scatterers and for the node noise
        cfg = base_cfg()
        want = make_scatterers(cfg, 5, 4, seed=SEED)
        omega = 2 * math.pi * float(want.freq_grid[0])
        noisy = synth_field_circle(want, cfg, 8, omega, with_noise=True, seed=SEED).values
        for seed in (np.int64(SEED), np.uint32(SEED), np.int16(SEED)):
            got = make_scatterers(cfg, 5, 4, seed=seed)
            assert got.angles.tobytes() == want.angles.tobytes()
            assert got.gains.tobytes() == want.gains.tobytes()
            assert synth_field_circle(got, cfg, 8, omega, with_noise=True, seed=seed).values.tobytes() == noisy.tobytes()
        rng = np.random.default_rng(SEED)
        assert want.angles.tobytes() == rng.uniform(0.0, 2.0 * math.pi, 5).tobytes()


class TestModalCoefficients:
    def test_shape_and_orders(self):
        s = make_scatterers(base_cfg(), 10, 3, seed=SEED)
        ms = modal_coefficients(s, 4)
        assert np.array_equal(ms.orders, np.arange(-4, 5))
        assert ms.coeffs.shape == (9, 3)
        assert ms.n_max == 4

    def test_conjugate_pairing_for_real_gains(self):
        # real gain profile makes the angular density real, so the modal
        # transform is Hermitian in the order index
        rng = np.random.default_rng(SEED)
        s = ScattererSet(
            angles=rng.uniform(0, 2 * math.pi, 12),
            gains=rng.standard_normal((12, 4)).astype(complex),
            freq_grid=np.linspace(1e9, 2e9, 4),
        )
        ms = modal_coefficients(s, 6)
        for n in range(1, 7):
            assert np.allclose(ms.order_row(-n), np.conj(ms.order_row(n)), rtol=0, atol=1e-13)

    def test_order_zero_is_plain_sum(self):
        s = make_scatterers(base_cfg(), 15, 3, seed=SEED)
        ms = modal_coefficients(s, 2)
        assert np.allclose(ms.order_row(0), s.gains.sum(axis=0), rtol=1e-13)

    def test_order_row_range(self):
        s = make_scatterers(base_cfg(), 5, 3, seed=SEED)
        ms = modal_coefficients(s, 2)
        with pytest.raises(ValueError):
            ms.order_row(3)

    def test_negative_n_max(self):
        s = make_scatterers(base_cfg(), 5, 3, seed=SEED)
        with pytest.raises(ValueError):
            modal_coefficients(s, -1)

    def test_n_max_bound(self):
        # rejected before the (2 n_max + 1, J) kernel is allocated
        s = make_scatterers(base_cfg(), 5, 3, seed=SEED)
        assert modal_coefficients(s, specfun._MAX_ORDER).n_max == specfun._MAX_ORDER
        for n_max in (specfun._MAX_ORDER + 1, 10**9):
            with pytest.raises(ValueError, match=f"n_max must be <= {specfun._MAX_ORDER}"):
                modal_coefficients(s, n_max)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, math.nan, "3"])
    def test_non_integer_n_max_rejected(self, n_max):
        s = make_scatterers(base_cfg(), 5, 3, seed=SEED)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            modal_coefficients(s, n_max)


class TestFieldSynthesis:
    def test_single_scatterer_closed_form(self):
        cfg = base_cfg()
        s = ScattererSet(
            angles=np.array([0.7]),
            gains=np.array([[1.5 - 0.25j, 0.5 + 1.0j]]),
            freq_grid=np.array([2.0e9, 2.5e9]),
        )
        omega = 2 * math.pi * 2.5e9
        r, phi = 0.06, 1.9
        k = omega / cfg.wave_speed
        expect = (0.5 + 1.0j) * np.exp(1j * k * r * math.cos(phi - 0.7))
        assert synth_field_planewave(s, cfg, (r, phi), omega) == pytest.approx(expect, rel=1e-14)

    def test_modal_matches_planewave(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 25, 5, seed=SEED)
        ms = modal_coefficients(s, modal_truncation_order(cfg))
        rng = np.random.default_rng(SEED + 9)
        for _ in range(10):
            r = float(rng.uniform(0, cfg.radius))
            phi = float(rng.uniform(0, 2 * math.pi))
            omega = 2 * math.pi * float(s.freq_grid[rng.integers(0, 5)])
            a = synth_field_planewave(s, cfg, (r, phi), omega)
            b = synth_field_modal(ms, cfg, (r, phi), omega)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-12)

    def test_center_value_is_order_zero(self):
        # at r = 0 only J_0 survives
        cfg = base_cfg()
        s = make_scatterers(cfg, 12, 3, seed=SEED)
        ms = modal_coefficients(s, 5)
        omega = 2 * math.pi * float(s.freq_grid[1])
        v = synth_field_modal(ms, cfg, (0.0, 0.3), omega)
        assert v == pytest.approx(complex(ms.order_row(0)[1]), rel=1e-14)

    def test_position_outside_disk(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        ms = modal_coefficients(s, 3)
        omega = 2 * math.pi * float(s.freq_grid[0])
        with pytest.raises(ValueError, match="radius"):
            synth_field_planewave(s, cfg, (0.2, 0.0), omega)
        with pytest.raises(ValueError, match="radius"):
            synth_field_modal(ms, cfg, (0.2, 0.0), omega)

    @pytest.mark.parametrize("route", ["planewave", "modal"])
    @pytest.mark.parametrize(
        "r, phi, omega_shift, field",
        [
            (math.nan, 0.0, 0.0, "r"),
            (math.inf, 0.0, 0.0, "r"),
            (-0.01, 0.0, 0.0, "r"),
            (0.05, math.nan, 0.0, "phi"),
            (0.05, -math.inf, 0.0, "phi"),
            (0.05, 0.0, math.nan, "omega"),
            (0.05, 0.0, math.inf, "omega"),
            # several broken: the first of r, phi, omega is named
            (math.nan, math.inf, math.nan, "r"),
            (0.05, math.nan, math.inf, "phi"),
        ],
    )
    def test_nonfinite_or_negative_position_rejected(self, route, r, phi, omega_shift, field):
        # both synthesis routes share one position check; no input may
        # come back as a NaN field or land on grid index 0
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[1]) + omega_shift
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            if route == "planewave":
                synth_field_planewave(s, cfg, (r, phi), omega)
            else:
                synth_field_modal(modal_coefficients(s, 3), cfg, (r, phi), omega)

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    @pytest.mark.parametrize(
        "route, field",
        [(route, field) for route in ("planewave", "modal") for field in ("r", "phi", "omega")] + [("circle", "omega")],
    )
    def test_integer_past_float_range_rejected(self, route, field, value):
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        args = {"r": 0.05, "phi": 0.0, "omega": 2 * math.pi * float(s.freq_grid[1]), field: value}
        x = (args["r"], args["phi"])
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
            if route == "planewave":
                synth_field_planewave(s, cfg, x, args["omega"])
            elif route == "modal":
                synth_field_modal(modal_coefficients(s, 3), cfg, x, args["omega"])
            else:
                synth_field_circle(s, cfg, 8, args["omega"])

    @pytest.mark.parametrize("phi", [1e308, -1e308])
    def test_huge_angle_reduced_exactly(self, phi):
        # n * phi overflowed to a nan+nanj field; the exact remainder keeps it finite
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        ms = modal_coefficients(s, modal_truncation_order(cfg))
        omega = 2 * math.pi * float(s.freq_grid[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = synth_field_modal(ms, cfg, (cfg.radius, phi), omega)
            reduced = synth_field_modal(ms, cfg, (cfg.radius, math.remainder(phi, 2 * math.pi)), omega)
        assert np.isfinite(value) and value == reduced

    def test_off_grid_frequency(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        with pytest.raises(ValueError, match="grid"):
            synth_field_planewave(s, cfg, (0.05, 0.0), 2 * math.pi * 2.123e9)

    def test_one_grid_search_per_frequency(self, monkeypatch):
        # a spectrum or scatterer set remembers where its last frequency sits
        searches = []
        search = channel._grid_index
        monkeypatch.setattr(channel, "_grid_index", lambda grid, omega: searches.append(omega) or search(grid, omega))
        cfg = base_cfg()
        s = make_scatterers(cfg, 8, 4, seed=SEED)
        ms = modal_coefficients(s, modal_truncation_order(cfg))
        rng = np.random.default_rng(SEED)
        points = list(zip(cfg.radius * rng.random(64), rng.uniform(0.0, 2 * math.pi, 64)))
        omega = 2 * math.pi * float(s.freq_grid[2])
        for route, holder in ((synth_field_planewave, s), (synth_field_modal, ms)):
            searches.clear()
            for x in points:
                route(holder, cfg, x, omega)
            assert searches == [omega]
        synth_field_circle(s, cfg, 8, omega)
        assert searches == [omega]

    def test_alternating_frequencies_keep_the_bytes(self):
        # each call on one spectrum, switching between grid frequencies, gives
        # the bits of the same call on a fresh copy that remembers nothing
        cfg = base_cfg()
        s = make_scatterers(cfg, 8, 5, seed=SEED)
        ms = modal_coefficients(s, modal_truncation_order(cfg))
        rng = np.random.default_rng(SEED + 1)
        ks = [0, 4, 0, 2, 2, 4, 1, 0, 3, 3]
        got, want = [], []
        for i, k in enumerate(ks):
            # Python and numpy floats of one frequency share a memo entry
            omega = 2 * math.pi * (float(s.freq_grid[k]) if i % 2 else s.freq_grid[k])
            x = (cfg.radius * float(rng.random()), float(rng.uniform(0.0, 2 * math.pi)))
            got += [synth_field_modal(ms, cfg, x, omega), synth_field_planewave(s, cfg, x, omega)]
            want += [synth_field_modal(dataclasses.replace(ms), cfg, x, omega),
                     synth_field_planewave(dataclasses.replace(s), cfg, x, omega)]
            got.extend(synth_field_circle(s, cfg, 6, omega).values.ravel())
            want.extend(synth_field_circle(dataclasses.replace(s), cfg, 6, omega).values.ravel())
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("route", ["planewave", "modal", "circle"])
    def test_off_grid_frequency_after_a_remembered_one(self, route):
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        ms = modal_coefficients(s, modal_truncation_order(cfg))
        omega = 2 * math.pi * float(s.freq_grid[1])

        def synth(w):
            if route == "planewave":
                return synth_field_planewave(s, cfg, (0.05, 0.3), w)
            if route == "modal":
                return synth_field_modal(ms, cfg, (0.05, 0.3), w)
            return synth_field_circle(s, cfg, 4, w).values.tobytes()

        first = synth(omega)
        assert synth(omega) == first
        for off in (omega * (1.0 + 1e-6), math.nextafter(omega, math.inf) * (1.0 + 1e-8)):
            with pytest.raises(ValueError, match="not on the grid"):
                synth(off)
        # the point routes check omega first, the circle finds no grid point for it
        with pytest.raises(ValueError, match="omega must be finite, got nan|frequency nan Hz is not on the grid"):
            synth(math.nan)
        assert synth(omega) == first

    def test_float32_omega_searches_for_itself(self):
        # np.float32 is no float: equal to the remembered omega, it still
        # searches in its own precision, which misses some grid points
        cfg = base_cfg()
        w32 = np.float32(2 * math.pi * 2.4e9)
        for _ in range(100):
            w32 = np.nextafter(w32, np.float32(math.inf))
            s = ScattererSet(angles=[0.3, 1.1], gains=np.ones((2, 2)), freq_grid=[float(w32) / (2 * math.pi), 2.6e9])
            try:
                synth_field_planewave(s, cfg, (0.05, 0.3), w32)
            except ValueError:
                break
        else:
            pytest.fail("no float32 omega whose own search misses its grid point")
        ms = modal_coefficients(s, modal_truncation_order(cfg))
        for route, holder in ((synth_field_planewave, s), (synth_field_modal, ms)):
            route(holder, cfg, (0.05, 0.3), float(w32))
            with pytest.raises(ValueError, match="not on the grid"):
                route(holder, cfg, (0.05, 0.3), w32)

    def test_undertruncated_modal_sum_warns(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        ms = modal_coefficients(s, 2)
        omega = 2 * math.pi * float(s.freq_grid[-1])
        with pytest.warns(RuntimeWarning, match="truncation"):
            synth_field_modal(ms, cfg, (cfg.radius, 0.0), omega)

    def test_truncation_order_rule(self):
        cfg = base_cfg()
        expect = math.ceil(math.e * cfg.k_max * cfg.radius / 2.0) + 12
        assert modal_truncation_order(cfg) == expect
        assert _modal_order(0.0) == 12
        assert modal_truncation_order(base_cfg(radius=0.2)) > modal_truncation_order(cfg)


def modal_noise(cfg, n_max, num_samples, num_draws, seed):
    """Circle-quadrature projection of the node noise onto orders -n_max..n_max.

    nu_n = (2pi/M) sum_m eta(phi_m) e^{-i n phi_m}, one row per draw, as the
    campaign's noise check computes it.
    """
    eta = _white_circle_noise(cfg, np.random.default_rng(seed), (num_draws, num_samples))
    kernel = np.exp(-1j * np.outer(symmetric_orders(n_max), _circle_nodes(num_samples)))
    return (2.0 * math.pi / num_samples) * (eta @ kernel.T)


class TestModalNoise:
    def test_zero_noise_var(self):
        cfg = base_cfg(noise_var=0.0)
        nu = modal_noise(cfg, 4, 32, 3, seed=SEED)
        assert np.array_equal(nu, np.zeros((3, 9), dtype=complex))

    def test_deterministic(self):
        cfg = base_cfg()
        a = modal_noise(cfg, 4, 32, 3, seed=SEED)
        b = modal_noise(cfg, 4, 32, 3, seed=SEED)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, modal_noise(cfg, 4, 32, 3, seed=SEED + 1))

    def test_aliasing_guard(self):
        # M nodes resolve orders |n| <= n_probe only while M >= 2 n_probe + 2
        with pytest.raises(ValueError, match="alias"):
            TrialPlan(circle_samples=32, n_probe=16)
        TrialPlan(circle_samples=32, n_probe=15)

    def test_second_moment(self):
        # E|nu_n|^2 = 2 pi noise_var independent of order
        cfg = base_cfg(noise_var=0.7)
        target = 2 * math.pi * 0.7
        draws = modal_noise(cfg, 3, 16, 2500, seed=SEED)
        for col in range(7):
            est = np.mean(np.abs(draws[:, col]) ** 2)
            se = np.std(np.abs(draws[:, col]) ** 2) / math.sqrt(2500)
            assert abs(est - target) < 5 * se

    def test_symmetric_orders_helper(self):
        assert np.array_equal(symmetric_orders(2), [-2, -1, 0, 1, 2])
        assert np.array_equal(symmetric_orders(0), [0])


def received_order(s, cfg, n, omega, num_nodes=64, **noise):
    """Order-n received signal at omega: the circle quadrature
    (1/M) sum_m y(phi_m) e^{-i n phi_m} of the field synthesized on the circle."""
    fs = synth_field_circle(s, cfg, num_nodes, omega, **noise)
    return complex(np.mean(fs.values[:, 0] * np.exp(-1j * n * _circle_nodes(num_nodes))))


class TestReceivedSpectrum:
    def test_noiseless_is_alpha_times_bessel(self):
        # a spectrum holding one order n synthesizes i^n alpha_n J_n(kR) e^{i n phi},
        # with J_{-n} = (-1)^n J_n
        cfg = base_cfg()
        s = make_scatterers(cfg, 10, 4, seed=SEED)
        ms = modal_coefficients(s, 3)
        phi = 0.4
        for n in (-3, 0, 2):
            coeffs = np.zeros_like(ms.coeffs)
            coeffs[n + 3] = ms.order_row(n)
            one = ModalSpectrum(orders=ms.orders, coeffs=coeffs, freq_grid=ms.freq_grid)
            for k, f in enumerate(s.freq_grid):
                omega = 2 * math.pi * f
                jn = (-1) ** abs(n) if n < 0 else 1
                jn *= bessel_j(abs(n), omega * cfg.radius / cfg.wave_speed)
                want = 1j**n * ms.order_row(n)[k] * jn * np.exp(1j * n * phi)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = synth_field_modal(one, cfg, (cfg.radius, phi), omega)
                assert got == pytest.approx(want, rel=1e-12)

    def test_noise_requires_seed(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[0])
        with pytest.raises(ValueError, match="seed"):
            received_order(s, cfg, 0, omega, with_noise=True)

    def test_noise_deterministic(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 5, 3, seed=SEED)
        ms = modal_coefficients(s, 2)
        omega = 2 * math.pi * float(s.freq_grid[1])
        clean = received_order(s, cfg, 1, omega)
        # noiseless, the order-1 projection is i alpha_1 J_1(kR)
        want = 1j * ms.order_row(1)[1] * bessel_j(1, omega * cfg.radius / cfg.wave_speed)
        assert clean == pytest.approx(want, rel=1e-10)
        a = received_order(s, cfg, 1, omega, with_noise=True, seed=11)
        b = received_order(s, cfg, 1, omega, with_noise=True, seed=11)
        assert a == b
        assert a != clean
        assert a != received_order(s, cfg, 1, omega, with_noise=True, seed=12)


class TestFieldCircle:
    def test_matches_pointwise_synthesis(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 8, 3, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[2])
        fs = synth_field_circle(s, cfg, 16, omega)
        assert not fs.noise_included
        for p in range(16):
            r, phi = fs.positions[p]
            assert complex(fs.values[p, 0]) == pytest.approx(
                synth_field_planewave(s, cfg, (r, phi), omega), rel=1e-12
            )

    def test_noise_flag(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 8, 3, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[0])
        fs = synth_field_circle(s, cfg, 16, omega, with_noise=True, seed=5)
        assert fs.noise_included
        with pytest.raises(ValueError, match="seed"):
            synth_field_circle(s, cfg, 16, omega, with_noise=True)

    def test_node_count_validation(self):
        cfg = base_cfg()
        s = make_scatterers(cfg, 8, 3, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[0])
        assert synth_field_circle(s, cfg, np.int64(1), omega).values.shape == (1, 1)
        with pytest.raises(ValueError, match="num_nodes must be an integer"):
            synth_field_circle(s, cfg, 2.5, omega)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="num_nodes must be >= 1"):
                synth_field_circle(s, cfg, bad, omega)

    @pytest.mark.parametrize("num_nodes", [10**400, 2**40, 2**21 + 1])
    def test_cell_bound_rejected_before_allocating(self, num_nodes):
        # only ever rejected, never run: 2^40 nodes would ask for 8 TiB per scatterer column
        cfg = base_cfg()
        s = make_scatterers(cfg, 8, 3, seed=SEED)
        omega = 2 * math.pi * float(s.freq_grid[0])
        with pytest.raises(ValueError, match=rf"^num_nodes \* num_scatterers must be <= 16777216 cells, got {num_nodes} \* 8 = "):
            synth_field_circle(s, cfg, num_nodes, omega)


class TestSerialization:
    def test_scatterer_validation(self):
        with pytest.raises(ValueError):
            ScattererSet(angles=np.array([]), gains=np.zeros((0, 2)), freq_grid=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="shape"):
            ScattererSet(angles=np.array([0.1]), gains=np.zeros((2, 2)), freq_grid=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            ScattererSet(angles=np.array([0.1]), gains=np.zeros((1, 2)), freq_grid=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            ScattererSet(
                angles=np.array([0.1]),
                gains=np.array([[np.nan, 0.0]]),
                freq_grid=np.array([1.0, 2.0]),
            )

    def test_modal_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            ModalSpectrum(
                orders=np.array([0, 1]),
                coeffs=np.zeros((2, 2), dtype=complex),
                freq_grid=np.array([1.0, 2.0]),
            )

    def test_field_samples_validation(self):
        with pytest.raises(ValueError):
            FieldSamples(
                positions=np.zeros((3, 3)),
                freq_grid=np.array([1.0]),
                values=np.zeros((3, 1), dtype=complex),
            )
        with pytest.raises(ValueError):
            FieldSamples(
                positions=np.zeros((3, 2)),
                freq_grid=np.array([1.0, 2.0]),
                values=np.zeros((3, 1), dtype=complex),
            )

    def test_nan_angle_rejected(self):
        # the plane-wave synthesis would return nan+nanj
        with pytest.raises(ValueError, match="^angles must be finite$"):
            ScattererSet(angles=[math.nan, 1.0], gains=np.ones((2, 2)), freq_grid=[2e8, 3e8])

    def test_grid_ending_in_inf_rejected(self):
        # the grid search's relative tolerance would put every omega "on the
        # grid" and synthesize 7.77e8 Hz from the 2e8 Hz gains
        with pytest.raises(ValueError, match="^freq_grid must be finite$"):
            ScattererSet(angles=[0.3, 1.0], gains=np.ones((2, 2)), freq_grid=[2e8, math.inf])
        with pytest.raises(ValueError, match="^freq_grid must be finite$"):
            ModalSpectrum(orders=[0], coeffs=np.ones((1, 2)), freq_grid=[2e8, math.inf])

    def test_nan_grid_entry_rejected(self):
        # NaN fails every comparison, so the increasing check alone lets it through
        with pytest.raises(ValueError, match="^freq_grid must be finite$"):
            ScattererSet(angles=[0.3], gains=np.ones((1, 3)), freq_grid=[1.0, math.nan, 3.0])

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(angles=["0.5", "1"]), "angles must be a real number, got "),
            (dict(angles=np.array(["0.5", "1"])), "angles must be a real number, got "),
            (dict(gains=[["1", "1"], ["1", "1"]]), "gains must be a complex number, got "),
            (dict(gains=np.ones((2, 2), dtype=bool)), "gains must be a complex number, got "),
            (dict(gains=[[True, 1.0], [1.0, 1.0]]), "gains must be a complex number, got True"),
        ],
    )
    def test_non_number_scatterer_arrays_rejected(self, fields, message):
        # the float and complex casts read a digit string as its number and a bool as 0 or 1
        args = dict(angles=[0.3, 1.0], gains=np.ones((2, 2)), freq_grid=[1.0, 2.0]) | fields
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            ScattererSet(**args)

    @pytest.mark.parametrize("field", ["positions", "freq_grid"])
    def test_nan_field_sample_axes_rejected(self, field):
        args = dict(positions=[[0.1, 0.0], [0.1, 1.0]], freq_grid=[1.0], values=np.ones((2, 1)))
        args[field] = [[0.1, 0.0], [math.nan, 1.0]] if field == "positions" else [math.nan]
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            FieldSamples(**args)

    @pytest.mark.parametrize(
        "angles, message",
        [([0.3, 1j], r"^angles must be a real number, got "), ([[0.3, 1.0]], r"^angles must be 1-D, got shape \(1, 2\)$")],
    )
    def test_complex_or_2d_angles_rejected_at_construction(self, angles, message):
        # the synthesis would raise a TypeError, for a 2-D set only once it is used
        with pytest.raises(ValueError, match=message):
            ScattererSet(angles=angles, gains=np.ones((2, 2)), freq_grid=[1.0, 2.0])

    @pytest.mark.parametrize("orders", [[-1.5, 0, 1.5], ["-1", "0", "1"], [-1.0, 0.0, 1.0]])
    def test_non_integer_orders_rejected(self, orders):
        # an integer cast would truncate them to -1, 0, 1
        with pytest.raises(ValueError, match="^orders must be an integer, got "):
            ModalSpectrum(orders=orders, coeffs=np.ones((3, 2)), freq_grid=[1.0, 2.0])


I_POWERS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


def loop_modal_field(ms, cfg, x, omega):
    """Per-order loop form of the modal sum, the oracle for synth_field_modal."""
    r, phi = x
    idx = int(np.argmin(np.abs(ms.freq_grid - omega / (2.0 * math.pi))))
    j_tab = bessel_j_table(ms.n_max, omega * r / cfg.wave_speed)
    total = 0.0 + 0.0j
    for n, alpha in zip(ms.orders, ms.coeffs[:, idx]):
        j_n = j_tab[abs(n)] if (n >= 0 or abs(n) % 2 == 0) else -j_tab[abs(n)]
        total += I_POWERS[n % 4] * alpha * j_n * np.exp(1j * n * phi)
    return complex(total)


_I_POWER_ARRAY = np.array(I_POWERS)


def vectorized_modal_field(ms, cfg, x, omega):
    """The modal sum with its per-order factors built on every call, the bitwise oracle of synth_field_modal."""
    r, phi = x
    if abs(phi) > 2.0 * math.pi:
        phi = math.remainder(phi, 2.0 * math.pi)
    idx = int(np.argmin(np.abs(ms.freq_grid - omega / (2.0 * math.pi))))
    n = ms.orders
    j_tab = bessel_j_table(int(n.max()), omega * r / cfg.wave_speed)
    j_n = np.where((n < 0) & (n % 2 == 1), -1.0, 1.0) * j_tab[np.abs(n)]
    return complex(np.sum(_I_POWER_ARRAY[n % 4] * ms.coeffs[:, idx] * j_n * np.exp(1j * n * phi)))


class TestSynthesisProperties:
    # wave_speed 2 pi puts omega = 2 pi at kr = r, so r sweeps the Bessel
    # argument over [0, 30], the orders before and after their turning points
    CFG = ChannelConfig(f0=2.0, half_bw=1.0, radius=30.0, obs_time=0.0, wave_speed=2.0 * math.pi)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_max=st.integers(0, 60),
        z=st.one_of(st.floats(0.0, 12.0), st.floats(12.0, 30.0)),
        phi=st.floats(0.0, 2.0 * math.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_modal_field_matches_per_order_loop(self, n_max, z, phi, seed):
        rng = np.random.default_rng(seed)
        size = (2 * n_max + 1, 2)
        ms = ModalSpectrum(
            orders=symmetric_orders(n_max),
            coeffs=rng.standard_normal(size) + 1j * rng.standard_normal(size),
            freq_grid=np.array([1.0, 2.0]),
        )
        omega = 2.0 * math.pi
        with warnings.catch_warnings():
            # short spectra are allowed here; both forms sum the same orders
            warnings.simplefilter("ignore", RuntimeWarning)
            got = synth_field_modal(ms, self.CFG, (z, phi), omega)
        want = loop_modal_field(ms, self.CFG, (z, phi), omega)
        assert abs(got - want) <= 1e-12 * max(1.0, float(np.sum(np.abs(ms.coeffs[:, 0]))))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_max=st.integers(0, 250),
        r=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
        phi=st.one_of(
            st.floats(-2.0 * math.pi, 2.0 * math.pi),
            st.floats(-1e308, 1e308),
            st.sampled_from([-0.0, -5e-324, -1.0, -7.0, 7.0, -1e308, 1e308]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_max=0, r=0.0, phi=-0.0, seed=1)
    @example(n_max=0, r=0.7, phi=-1.0, seed=2)
    @example(n_max=1, r=0.0, phi=-7.0, seed=3)
    @example(n_max=250, r=30.0, phi=-1e308, seed=4)
    def test_modal_field_bitwise_equal_to_vectorized_oracle(self, n_max, r, phi, seed):
        # every grid frequency of one spectrum, which keeps its order factors between calls
        rng = np.random.default_rng(seed)
        grid = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        size = (2 * n_max + 1, grid.size)
        ms = ModalSpectrum(
            orders=symmetric_orders(n_max),
            coeffs=rng.standard_normal(size) + 1j * rng.standard_normal(size),
            freq_grid=grid,
        )
        omegas = [2.0 * math.pi * f for f in grid.tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = np.array([synth_field_modal(ms, self.CFG, (r, phi), omega) for omega in omegas])
            want = np.array([vectorized_modal_field(ms, self.CFG, (r, phi), omega) for omega in omegas])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kr", [0.0, 5e-324, 1e-8, 0.3, 11.5, 1e300])
    @pytest.mark.parametrize("phi", [0.0, -0.0, 2.5, -1e300])
    def test_planewave_sum_has_the_bits_of_the_complex_exp(self, kr, phi):
        # cos and sin of the real phase against the complex exp they replace
        rng = np.random.default_rng(SEED)
        angles = np.concatenate([[0.0, -0.0, math.pi / 2, math.pi, -math.pi, 1e300], rng.uniform(0.0, 7.0, 2042)])
        phasors = np.exp(1j * kr * np.cos(phi - angles))
        # one unit gain per row gives each phasor as the sum sees it
        assert _planewave_sum(angles[:, None], np.ones((angles.size, 1), complex), kr, phi).tobytes() == phasors.tobytes()
        angles = angles.reshape(-1, 8)
        gains = rng.standard_normal(angles.shape) + 1j * rng.standard_normal(angles.shape)
        # zero gains of every sign pair, where a phasor's zero sign could show
        gains[0, :4] = [complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
        gains[1] = complex(0.0, -0.0)
        want = np.einsum("...j,...j->...", np.exp(1j * kr * np.cos(phi - angles)), gains)
        assert _planewave_sum(angles, gains, kr, phi).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        trials=st.integers(1, 5),
        num_scatterers=st.integers(1, 24),
        num_nodes=st.integers(1, 64),
        radius=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_planewave_rows_match_circle_synthesis(self, trials, num_scatterers, num_nodes, radius, seed):
        # the power-balance check synthesizes every trial in one batched call
        cfg = base_cfg(radius=radius)
        rng = np.random.default_rng(seed)
        shape = (trials, num_scatterers)
        angles = rng.uniform(0.0, 2.0 * math.pi, shape)
        gains = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid = np.array([cfg.band_low, cfg.band_high])
        omega = 2.0 * math.pi * grid[1]
        kr = omega / cfg.wave_speed * cfg.radius
        batched = _planewave_sum(angles[:, None, :], gains[:, None, :], kr, _circle_nodes(num_nodes)[None, :, None])
        assert batched.shape == (trials, num_nodes)
        for t in range(trials):
            s = ScattererSet(angles=angles[t], gains=np.column_stack([gains[t], gains[t]]), freq_grid=grid)
            row = synth_field_circle(s, cfg, num_nodes, omega).values[:, 0]
            assert np.max(np.abs(batched[t] - row)) <= 1e-12 * float(np.sum(np.abs(gains[t])))
