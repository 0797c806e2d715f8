"""The argument contracts of the public entry points.

Every parameter annotated ``int`` takes Python and numpy integers, and the
result does not depend on which; booleans, floats, strings, None and
out-of-range integers raise a ValueError that names the parameter.  One
table lists every such parameter, and a guard keeps the table complete.
Every parameter annotated ``float``, and the r and phi of a position,
takes a finite real number under one rule: booleans, strings, None,
complex numbers, NaN, infinities and integers past the float range raise
a ValueError that names the parameter, and no call returns a NaN or an
undocumented infinity.  A second table lists those, under its own guard.
A float32 position synthesizes the field of its value in float64, a
ChannelConfig stores every field as a float, and an argument sequence
that mixes booleans with numbers is rejected.
"""

import cmath
import dataclasses
import inspect
import math
import numbers
import pickle
import re
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavedof
from wavedof import (
    ChannelConfig,
    TrialPlan,
    bessel_j,
    bessel_j_table,
    chebyshev_first_kind,
    chebyshev_second_kind,
    critical_frequency,
    effective_bandwidth,
    effective_time,
    empirical_order_snr,
    make_scatterers,
    modal_coefficients,
    modal_truncation_order,
    orthogonality_check,
    power_balance_check,
    snr_upper_bound,
    stirling_gamma_lower,
    synth_field_circle,
    synth_field_modal,
    synth_field_planewave,
    time_support_check,
    total_dof,
)

CFG = ChannelConfig(f0=1.5e9, half_bw=1.3e9, radius=0.1, obs_time=0.0, wave_speed=3e8, p_max=1000.0)
SCATTERERS = make_scatterers(CFG, 6, 3, seed=1)
OMEGA = 2.0 * math.pi * float(SCATTERERS.freq_grid[1])
SMALL_PLAN = TrialPlan(num_trials=100, circle_samples=8, n_probe=3, freq_samples=16)
HUGE = 10**400
# orders of either sign that only enter float arithmetic are bounded by 2^53
FLOAT_ORDER = 2**53
SIGNED_REJECTED = (FLOAT_ORDER + 1, -FLOAT_ORDER - 1, HUGE, -HUGE)


class IntParam(NamedTuple):
    owner: str              # the entry point's name in the wavedof namespace
    param: str
    label: str              # the name its ValueError gives
    call: Callable          # the entry point with the value in that parameter
    accepted: range         # small accepted values
    rejected: tuple         # out-of-range integers, never run


INT_PARAMS = [
    IntParam("bessel_j", "n", "order", lambda v: bessel_j(v, 1.5), range(0, 31), (-1, 10_001, HUGE, -HUGE)),
    IntParam("bessel_j_table", "n_max", "order", lambda v: bessel_j_table(v, [0.0, 1.5, 20.0]), range(0, 31),
             (-1, 10_001, HUGE, -HUGE)),
    IntParam("chebyshev_first_kind", "n", "order", lambda v: chebyshev_first_kind(v, 0.3), range(0, 31),
             (-1, 10_001, HUGE, -HUGE)),
    IntParam("chebyshev_second_kind", "n", "order", lambda v: chebyshev_second_kind(v, 0.3), range(0, 31),
             (-1, 10_001, HUGE, -HUGE)),
    IntParam("stirling_gamma_lower", "n", "order", stirling_gamma_lower, range(1, 101),
             (0, -1, FLOAT_ORDER + 1, HUGE, -HUGE)),
    IntParam("critical_frequency", "n", "order", lambda v: critical_frequency(CFG, v), range(-30, 31), SIGNED_REJECTED),
    IntParam("effective_bandwidth", "n", "order", lambda v: effective_bandwidth(CFG, v), range(-30, 31),
             SIGNED_REJECTED),
    IntParam("snr_upper_bound", "n", "order", lambda v: snr_upper_bound(CFG, v, 1e9), range(-30, 31),
             SIGNED_REJECTED),
    IntParam("make_scatterers", "num_scatterers", "num_scatterers", lambda v: make_scatterers(CFG, v, 3, seed=1),
             range(1, 9), (0, -1, 2**24 // 3 + 1, HUGE, -HUGE)),
    IntParam("make_scatterers", "num_freqs", "num_freqs", lambda v: make_scatterers(CFG, 4, v, seed=1),
             range(2, 9), (1, 0, 2**22 + 1, HUGE, -HUGE)),
    IntParam("make_scatterers", "seed", "seed", lambda v: make_scatterers(CFG, 4, 3, seed=v), range(0, 101),
             (-1, -HUGE)),
    IntParam("modal_coefficients", "n_max", "n_max", lambda v: modal_coefficients(SCATTERERS, v), range(0, 21),
             (-1, 10_001, HUGE, -HUGE)),
    IntParam("synth_field_circle", "num_nodes", "num_nodes", lambda v: synth_field_circle(SCATTERERS, CFG, v, OMEGA),
             range(1, 17), (0, 2**24 // 6 + 1, 2**40, HUGE, -HUGE)),
    IntParam("synth_field_circle", "seed", "seed",
             lambda v: synth_field_circle(SCATTERERS, CFG, 8, OMEGA, with_noise=True, seed=v), range(0, 101),
             (-1, -HUGE)),
    IntParam("orthogonality_check", "n", "n", lambda v: orthogonality_check(v, 2, 16), range(-20, 21),
             SIGNED_REJECTED),
    IntParam("orthogonality_check", "m", "m", lambda v: orthogonality_check(3, v, 16), range(-20, 21),
             SIGNED_REJECTED),
    IntParam("orthogonality_check", "num_samples", "num_samples", lambda v: orthogonality_check(3, 2, v),
             range(1, 65), (0, 2**24 + 1, HUGE, -HUGE)),
    IntParam("time_support_check", "n", "order", lambda v: time_support_check(v, 0.1, CFG), range(-8, 9),
             (181, -181, HUGE, -HUGE)),
    IntParam("empirical_order_snr", "n", "order", lambda v: empirical_order_snr(SMALL_PLAN, CFG, v, 1e9),
             range(-8, 9), (10_001, -10_001, HUGE)),
    IntParam("TrialPlan", "num_trials", "num_trials", lambda v: TrialPlan(num_trials=v), range(100, 301),
             (99, 0, 2**24 // 257 + 1, HUGE, -HUGE)),
    IntParam("TrialPlan", "circle_samples", "circle_samples", lambda v: TrialPlan(circle_samples=v), range(34, 129),
             (33, 0, HUGE, -HUGE)),
    IntParam("TrialPlan", "seed", "seed", lambda v: TrialPlan(seed=v), range(0, 101), (-1, -HUGE)),
    IntParam("TrialPlan", "n_probe", "n_probe", lambda v: TrialPlan(n_probe=v), range(0, 17), (-1, -HUGE)),
    IntParam("TrialPlan", "freq_samples", "freq_samples", lambda v: TrialPlan(freq_samples=v), range(2, 301),
             (1, 0, HUGE, -HUGE)),
]
IDS = [f"{p.owner}.{p.param}" for p in INT_PARAMS]

NON_INTEGERS = (2.0, 2.5, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, "3", None)
INT_TYPES = (int, np.int8, np.int64, np.uint32)

# records the library builds and returns, not entry points that take input
RESULT_RECORDS = {("DofReport", "n_upper")}


def _not_an_integer(p: IntParam, value) -> str:
    return rf"^{p.label} must be an integer, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np.bool_"])
@pytest.mark.parametrize("p", INT_PARAMS, ids=IDS)
def test_booleans_rejected(p, value):
    with pytest.raises(ValueError, match=_not_an_integer(p, value)):
        p.call(value)


def _fits(kind, value: int) -> bool:
    return kind is int or np.iinfo(kind).min <= value <= np.iinfo(kind).max


@pytest.mark.parametrize("p", INT_PARAMS, ids=IDS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_contract(p, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if data.draw(st.booleans(), label="accepted"):
            value = data.draw(st.sampled_from(p.accepted), label="value")
            kind = data.draw(st.sampled_from([k for k in INT_TYPES if _fits(k, value)]), label="type")
            # pickled whole, so a numpy integer left in a result shows as well as a changed value
            assert pickle.dumps(p.call(kind(value))) == pickle.dumps(p.call(value))
        else:
            bad = data.draw(st.sampled_from(NON_INTEGERS + p.rejected), label="bad")
            match = re.escape(p.label) if type(bad) is int else _not_an_integer(p, bad)
            with pytest.raises(ValueError, match=match):
                p.call(bad)


@pytest.mark.parametrize("p", [p for p in INT_PARAMS if FLOAT_ORDER + 1 in p.rejected],
                         ids=lambda p: f"{p.owner}.{p.param}")
def test_float_order_bound_accepted(p):
    # the bound itself runs, with no overflow warning, at either sign the parameter takes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for value in (FLOAT_ORDER, -FLOAT_ORDER) if -FLOAT_ORDER - 1 in p.rejected else (FLOAT_ORDER,):
            p.call(value)


def test_every_int_parameter_is_in_the_table():
    # a new entry point with an integer parameter has to join the table above
    annotations = {int, "int", int | None, "int | None"}
    found = set()
    for name in dir(wavedof):
        obj = getattr(wavedof, name)
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.annotation in annotations:
                found.add((name, param.name))
    assert found - RESULT_RECORDS == {(p.owner, p.param) for p in INT_PARAMS}
    assert RESULT_RECORDS <= found


CONFIG_KW = dict(f0=1.5e9, half_bw=1.3e9, radius=0.1, obs_time=0.0, wave_speed=3e8, p_max=1000.0)
CONFIG_FIELDS = list(ChannelConfig.__dataclass_fields__)
MODAL = modal_coefficients(SCATTERERS, modal_truncation_order(CFG))


def _config(name, value):
    return ChannelConfig(**{**CONFIG_KW, name: value})


class FloatParam(NamedTuple):
    owner: str              # the entry point's name in the wavedof namespace
    param: str              # x[0] and x[1] for the r and phi of a position x
    label: str              # the name its ValueError gives
    call: Callable          # the entry point with the value in that parameter
    accepted: float         # a value it accepts
    inf_ok: bool = False    # its docstring documents an infinite result


def _position_params(owner: str, route: Callable, holder) -> list:
    return [
        FloatParam(owner, "x[0]", "r", lambda v: route(holder, CFG, (v, 0.3), OMEGA), 0.05),
        FloatParam(owner, "x[1]", "phi", lambda v: route(holder, CFG, (0.05, v), OMEGA), 0.3),
        FloatParam(owner, "omega", "omega", lambda v: route(holder, CFG, (0.05, 0.3), v), OMEGA),
    ]


FLOAT_PARAMS = [
    *(FloatParam("ChannelConfig", name, name, lambda v, name=name: _config(name, v), CONFIG_KW.get(name, 1.0))
      for name in CONFIG_FIELDS),
    *_position_params("synth_field_planewave", synth_field_planewave, SCATTERERS),
    *_position_params("synth_field_modal", synth_field_modal, MODAL),
    FloatParam("synth_field_circle", "omega", "omega", lambda v: synth_field_circle(SCATTERERS, CFG, 8, v), OMEGA),
    FloatParam("bessel_j", "z", "argument", lambda v: bessel_j(2, v), 1.5),
    # SnrBound: value overflows to inf, and log_value where the exponent does
    FloatParam("snr_upper_bound", "freq", "freq", lambda v: snr_upper_bound(CFG, 2, v), 1e9, inf_ok=True),
    FloatParam("time_support_check", "radius", "radius", lambda v: time_support_check(0, v, CFG), 0.1),
    FloatParam("power_balance_check", "omega", "omega", lambda v: power_balance_check(SMALL_PLAN, CFG, v), OMEGA),
    FloatParam("empirical_order_snr", "f_edge", "f_edge", lambda v: empirical_order_snr(SMALL_PLAN, CFG, 2, v), 1e9),
]
FLOAT_IDS = [f"{p.owner}.{p.param}" for p in FLOAT_PARAMS]

NON_REALS = (True, np.True_, None, "0.1", 1j)
NON_FINITE = (math.nan, math.inf, -math.inf, HUGE, -HUGE)
FLOAT_EDGES = (0.0, -0.0, 5e-324, 1e308, -1e308)

# records the library builds and returns, not entry points that take input
FLOAT_RESULT_RECORDS = {("CheckResult", "estimate"), ("CheckResult", "stderr"), ("DofReport", "t_eff"),
                        ("DofReport", "total"), ("SnrEstimate", "f_edge"), ("SnrEstimate", "snr_hat"),
                        ("SnrEstimate", "stderr")}


def _defined(result, inf_ok: bool) -> bool:
    """No NaN anywhere in a result, and no infinity unless ``inf_ok``."""
    if dataclasses.is_dataclass(result):
        return all(_defined(getattr(result, f.name), inf_ok) for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return all(_defined(item, inf_ok) for item in result)
    if isinstance(result, np.ndarray):
        return all(_defined(item, inf_ok) for item in result.ravel().tolist())
    if isinstance(result, numbers.Number):
        return not cmath.isnan(result) and (inf_ok or not cmath.isinf(result))
    return True


@pytest.mark.parametrize("p", FLOAT_PARAMS, ids=FLOAT_IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_real_contract(p, data):
    values = NON_REALS + NON_FINITE + FLOAT_EDGES + (np.float32(p.accepted), np.float64(p.accepted))
    value = data.draw(st.sampled_from(values), label="value")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if any(value is v for v in NON_REALS):
            with pytest.raises(ValueError, match=rf"^{p.label} must be a real number, got {re.escape(repr(value))}$"):
                p.call(value)
        elif any(value is v for v in NON_FINITE):
            with pytest.raises(ValueError, match=rf"^{p.label} must be finite, got {re.escape(str(value))}$"):
                p.call(value)
        else:
            try:
                result = p.call(value)
            except ValueError as exc:
                assert re.search(rf"\b{p.label}\b", str(exc)), str(exc)
            else:
                assert _defined(result, p.inf_ok), result


def test_every_float_parameter_is_in_the_table():
    # a new entry point with a real parameter has to join the table above
    found = set()
    for name in dir(wavedof):
        obj = getattr(wavedof, name)
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        for param in inspect.signature(obj).parameters.values():
            # a NamedTuple field's annotation is a ForwardRef
            annotation = getattr(param.annotation, "__forward_arg__", param.annotation)
            if annotation in (float, "float"):
                found.add((name, param.name))
            elif annotation == "tuple[float, float]":
                found |= {(name, f"{param.name}[0]"), (name, f"{param.name}[1]")}
    assert found - FLOAT_RESULT_RECORDS == {(p.owner, p.param) for p in FLOAT_PARAMS}
    assert FLOAT_RESULT_RECORDS <= found


# kR = omega in units where R = c = 1; the modal reference reaches order 10^4 at kR = 2 * 9988 / e
UNIT_CFG = ChannelConfig(**{**CONFIG_KW, "radius": 1.0, "wave_speed": 1.0})
MAX_KR = 7348.759716840732


@pytest.mark.parametrize(
    "cfg, omega",
    [(CFG, 1e308), (UNIT_CFG, math.nextafter(MAX_KR, math.inf)),
     # kR overflows to inf
     (ChannelConfig(**{**CONFIG_KW, "radius": 1e300, "wave_speed": 1e-300}), 1e10)],
    ids=["1e308", "past-the-bound", "kR-inf"],
)
def test_power_balance_omega_past_the_modal_reference_named(cfg, omega):
    with pytest.raises(ValueError, match=r"^omega must keep kR = omega \* radius / wave_speed <= 7348\.76, "):
        power_balance_check(SMALL_PLAN, cfg, omega)


def test_power_balance_omega_at_the_modal_bound_accepted():
    assert math.ceil(math.e * MAX_KR / 2.0) + 12 == 10_000
    assert math.isfinite(power_balance_check(SMALL_PLAN, UNIT_CFG, MAX_KR).reference)


@pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None, 1j, np.array(0.1)],
                         ids=["True", "False", "np.True_", "str", "None", "complex", "0-d array"])
@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_config_non_number_rejected(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
        _config(name, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan), HUGE, -HUGE],
                         ids=["nan", "inf", "-inf", "np.nan", "huge", "-huge"])
@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_config_non_finite_rejected(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
        _config(name, value)


@pytest.mark.parametrize("kind", [float, int, np.float64, np.float32, np.int64])
def test_config_fields_stored_as_float(kind):
    # every field is stored as the float of its value, so each type gives the
    # one configuration and a float64 budget (at radius np.float32(0.1) too)
    given = {**CONFIG_KW, "noise_var": 1.0, "gamma": 1.0}
    assert set(given) == set(CONFIG_FIELDS)
    cfg = ChannelConfig(**{k: kind(v) for k, v in given.items()})
    ref = ChannelConfig(**{k: float(kind(v)) for k, v in given.items()})
    for name in CONFIG_FIELDS:
        assert type(getattr(cfg, name)) is float and getattr(cfg, name) == getattr(ref, name)
    assert critical_frequency(cfg, 5) == critical_frequency(ref, 5)
    assert total_dof(cfg).total == total_dof(ref).total
    assert type(effective_time(cfg)) is float and effective_time(cfg) == effective_time(ref)


@pytest.mark.parametrize("route, holder", [(synth_field_planewave, SCATTERERS), (synth_field_modal, MODAL)],
                         ids=["synth_field_planewave", "synth_field_modal"])
def test_float32_position_synthesized_in_float64(route, holder):
    # a float32 r or phi is the value it holds: the field has the bits of the same value as a float
    r, phi = np.float32(0.05), np.float32(0.3)
    assert route(holder, CFG, (r, phi), OMEGA) == route(holder, CFG, (float(r), float(phi)), OMEGA)
    assert route(holder, CFG, (r, 0.3), OMEGA) == route(holder, CFG, (float(r), 0.3), OMEGA)


@pytest.mark.parametrize("call", [lambda z: bessel_j_table(1, z), lambda z: chebyshev_first_kind(2, z)],
                         ids=["bessel_j_table", "chebyshev_first_kind"])
@pytest.mark.parametrize("z, bad", [([0.5, True], True), ((0.25, np.False_), np.False_), ([[0.5, 1.0], [1, True]], True)],
                         ids=["list", "tuple", "nested"])
def test_bool_in_a_number_sequence_rejected(call, z, bad):
    # numpy would read the bool as 1 or 0 in a sequence it promotes to floats
    with pytest.raises(ValueError, match=rf"argument must be a real number, got {re.escape(repr(bad))}$"):
        call(z)
