"""Degrees-of-freedom accounting for band limited fields on a disk.

Each circular-harmonic order behaves as a one dimensional channel whose
usable band shrinks with the order: the order-n signal rides on
J_n(omega R / c), which is evanescent below a critical frequency that
grows linearly in n.  Summing usable bandwidth times effective
observation time across orders, plus one residual dimension per order,
gives the total spatial-temporal degree-of-freedom count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import _MAX_FLOAT_ORDER, ChannelConfig, _int_arg, _real_arg

__all__ = [
    "SnrBound",
    "OrderBudget",
    "DofReport",
    "effective_time",
    "snr_max",
    "critical_frequency",
    "snr_upper_bound",
    "truncation_order",
    "effective_bandwidth",
    "total_dof",
]

_E_PI = math.e * math.pi

# Bound on the truncation order N_u; a budget holds 2 N_u - 1 rows of columns.
_MAX_N_UPPER = 10_000_000


class SnrBound(NamedTuple):
    """Per-order SNR ceiling; ``value`` may overflow to inf, ``log_value`` only at a freq near the float range."""

    log_value: float
    value: float


class OrderBudget(NamedTuple):
    """One order's row of the degree-of-freedom budget."""

    n: int
    f_crit: float
    w_eff: float
    dof: float


def effective_time(cfg: ChannelConfig) -> float:
    """Observation window plus the disk's aperture fill time, T + 2R/c.

    A wavefront takes 2R/c to sweep the disk, so the region keeps
    accumulating independent temporal samples for that long after the
    window closes.
    """
    return cfg.obs_time + 2.0 * cfg.radius / cfg.wave_speed


def snr_max(cfg: ChannelConfig) -> float:
    """Best-case per-order SNR, p_max / noise_var."""
    if cfg.noise_var == 0.0:
        raise ValueError("snr_max is undefined for noise_var == 0")
    return cfg.p_max / cfg.noise_var


def _shift(cfg: ChannelConfig) -> float | None:
    """ln(gamma / snr_max) / 2, or None for a silent channel (snr_max == 0)."""
    s = snr_max(cfg)
    return None if s == 0.0 else 0.5 * (math.log(cfg.gamma) - math.log(s))


def _crit_line(cfg: ChannelConfig) -> tuple[float, float] | None:
    """(scale, shift) with F_n = max(0, scale * (|n| + shift)); None without a line.

    scale = c / (e pi R) and shift = ln(gamma / snr_max) / 2.  Affine F_n gives
    the closed form N_u = max(1, floor(band_high / scale - shift) + 1).  A
    silent channel and a point region (R == 0) have no line.
    """
    shift = _shift(cfg)
    if shift is None or cfg.radius == 0.0:
        return None
    return cfg.wave_speed / (_E_PI * cfg.radius), shift


def _signed_order(n) -> int:
    """An order of either sign, |n| <= 2^53."""
    return _int_arg(n, lo=-_MAX_FLOAT_ORDER, hi=_MAX_FLOAT_ORDER)


def _f_crit(cfg: ChannelConfig, n):
    """F_n for nonnegative orders n, an int or an array; see critical_frequency."""
    line = _crit_line(cfg)
    if line is None:
        shift = _shift(cfg)
        return np.where((n == 0) & (shift is not None and shift <= 0.0), 0.0, math.inf)
    # the product overflows to inf for a huge scale, a defined F_n; fmax maps
    # the NaN of an overflowed scale times n + shift == 0 to 0, as max does
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fmax(0.0, line[0] * (n + line[1]))


def critical_frequency(cfg: ChannelConfig, n: int) -> float:
    """Frequency below which order n stays under the detection threshold.

    max(0, n c / (e pi R) + c ln(gamma / snr_max) / (2 e pi R)); the
    threshold crossing of the order-n SNR ceiling.  Degenerate limits:
    inf when the channel is silent (p_max == 0) or the region is a point
    (R == 0, except order 0 at gamma <= snr_max, which stays usable).
    """
    return float(_f_crit(cfg, abs(_signed_order(n))))


def snr_upper_bound(cfg: ChannelConfig, n: int, freq: float) -> SnrBound:
    """Ceiling on the order-n SNR at a given frequency.

    snr_max * exp(-(2n - 2 pi e f R / c)), from the small-argument
    Bessel envelope; meaningful in the evanescent regime
    2 pi f R / c < n.  ``value`` may be inf, ``log_value`` too at a freq as high as 1e308.
    """
    n = abs(_signed_order(n))
    _real_arg(freq, "freq", 0.0)
    s = snr_max(cfg)
    if s == 0.0:
        return SnrBound(-math.inf, 0.0)
    log_val = math.log(s) - 2.0 * n + 2.0 * math.pi * math.e * freq * cfg.radius / cfg.wave_speed
    value = math.exp(log_val) if log_val < 709.0 else math.inf
    return SnrBound(log_val, value)


def truncation_order(cfg: ChannelConfig) -> int:
    """Smallest order whose critical frequency clears the whole band.

    Orders at or above this contribute no usable bandwidth; the budget
    enumerates strictly smaller orders.  N_u is the closed form of
    ``_crit_line``; a ValueError names the bound when it exceeds 10^7.
    """
    line = _crit_line(cfg)
    if line is None:
        return 1
    scale, shift = line
    # a zero scale puts every F_n at 0, so no order clears the band
    estimate = cfg.band_high / scale - shift if scale > 0.0 else math.inf
    # bound first: far past it n - 1 == n in floats, and floor(inf) raises
    if estimate <= _MAX_N_UPPER:
        n = max(1, math.floor(estimate) + 1)
        # where F_n lies within an ulp of band_high the floor can be one off
        while n > 1 and critical_frequency(cfg, n - 1) > cfg.band_high:
            n -= 1
        while critical_frequency(cfg, n) <= cfg.band_high:
            n += 1
        if n <= _MAX_N_UPPER:
            return n
    raise ValueError(f"truncation order exceeds the bound N_u <= {_MAX_N_UPPER}; reduce radius, band or snr_max")


def _usable_band(cfg: ChannelConfig, n, f_crit):
    """W_n from |n| and F_n, for one order or arrays of them."""
    w = np.where(f_crit > cfg.band_high, 0.0, cfg.band_high - np.maximum(cfg.band_low, f_crit))
    return np.where(n == 0, 2.0 * cfg.half_bw, w)


def effective_bandwidth(cfg: ChannelConfig, n: int) -> float:
    """Usable bandwidth of order n inside the physical band.

    Order 0 keeps the full 2*half_bw.  Other orders keep the part of the
    band above their critical frequency, and nothing once the critical
    frequency clears the band edge.  Even in |n|.
    """
    n = abs(_signed_order(n))
    return float(_usable_band(cfg, n, critical_frequency(cfg, n)))


def total_dof(cfg: ChannelConfig) -> "DofReport":
    """Degree-of-freedom budget across all usable orders.

    Each order |n| < truncation_order contributes w_eff * t_eff + 1; the
    +1 is the residual dimension an order keeps even with vanishing
    usable band.  A budget whose rows or total overflow is rejected.
    """
    n_up = truncation_order(cfg)
    t_eff = effective_time(cfg)
    n = np.arange(-(n_up - 1), n_up)
    f_crit = _f_crit(cfg, np.abs(n))
    w_eff = _usable_band(cfg, n, f_crit)
    with np.errstate(over="ignore", invalid="ignore"):
        dof = w_eff * t_eff + 1.0
        # left to right, as Python 3.11's sum(); 3.12+ sum() compensates
        total = float(np.add.accumulate(dof)[-1])
    # every dof is >= 1 or NaN, so a finite total means every row is finite
    if not math.isfinite(total):
        raise ValueError(
            "budget overflows: W_n * T_eff + 1 and its sum over orders must be finite; reduce obs_time, radius or the band"
        )
    return DofReport(t_eff=t_eff, n_upper=n_up, n=n, f_crit=f_crit, w_eff=w_eff, dof=dof, total=total)


@dataclass(frozen=True, eq=False)
class DofReport:
    """Evaluated budget: one column per row field over orders -(N_u - 1)..N_u - 1, and their total.

    Every column but ``n`` is even in n bit for bit, each row being computed
    from |n|; the CLI spells the rows of n and -n from one text on this.
    """

    t_eff: float
    n_upper: int
    n: np.ndarray
    f_crit: np.ndarray
    w_eff: np.ndarray
    dof: np.ndarray
    total: float

    @property
    def per_order(self) -> tuple:
        """The rows as OrderBudget tuples, built from the columns at each access."""
        return tuple(map(OrderBudget, self.n.tolist(), self.f_crit.tolist(), self.w_eff.tolist(), self.dof.tolist()))
