"""The scenario record and the argument checks, in the standard library alone.

``ChannelConfig`` and the integer, real and cell-count checks every layer
runs on its inputs.  This module imports no numpy, so ``import wavedof``,
``wavedof --version``, ``--help`` and every input error rejected before a
command computes start without it.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

__all__ = ["ChannelConfig", "SPEED_OF_LIGHT"]

SPEED_OF_LIGHT = 2.998e8

# |order| bound where an order only enters float arithmetic (critical
# frequencies, SNR ceilings, Stirling's bound, quadrature phases): floats
# hold every integer up to 2^53 exactly, and none past about 1.8e308.
_MAX_FLOAT_ORDER = 2**53

# A real argument's bounds: the two comparisons that pass a float inside them reject NaN and inf
_FLOAT_MAX = sys.float_info.max

# Bound on the largest array a synthesis or a verification plan makes, in
# complex cells: scatterers by frequencies, circle nodes by scatterers,
# trials (or probed orders) by circle nodes (or frequency samples).  2^24
# cells is 256 MB per array, 32x the default verification plan.
_MAX_CELLS = 2**24


def _int_arg(value, name: str = "order", lo: int | None = None, hi: int | None = None) -> int:
    """An integer argument as a Python int, checked against ``lo <= value <= hi`` where given.

    Python and numpy integers pass.  Booleans, floats, strings, None and
    values outside the bounds are a ValueError naming ``name``.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    # bool is an int subclass, but True is no count, seed or order
    if n is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lo is not None and n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        raise ValueError(f"{name} must be <= {hi}, got {n}")
    return n


def _real_arg(value, name: str, lo: float = -_FLOAT_MAX, open_lo: bool = False):
    """A finite real argument >= lo (> lo if ``open_lo``), returned as given.

    Python and numpy integers and floats pass unconverted.  Booleans,
    strings, None, complex numbers, arrays, NaN, infinities, integers past
    the float range and values below ``lo`` are a ValueError naming ``name``.
    """
    # the common case, a float such as every synthesis point's, by two comparisons
    if type(value) is float and lo <= value <= _FLOAT_MAX and not (open_lo and value == lo):
        return value
    # bool is an int subclass, but True is no length, time or power
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # exact for an integer of any size; a float32 would take the bounds in its own, narrower range
    v = value if isinstance(value, numbers.Integral) else float(value)
    if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
        raise ValueError(f"{name} must be finite, got {value}")
    if v < lo or (open_lo and v == lo):
        raise ValueError(f"{name} must be {'>' if open_lo else '>='} {lo:g}, got {value}")
    return value


def _check_cells(what: str, rows: int, cols: int, limit: int = _MAX_CELLS) -> None:
    """Reject an array of rows * cols cells past ``limit``; ``what`` names the product."""
    if rows * cols > limit:
        raise ValueError(f"{what} must be <= {limit} cells, got {rows} * {cols} = {rows * cols}")


@dataclass(frozen=True)
class ChannelConfig:
    """Physical scenario: band, geometry, observation time, noise and threshold.

    Every field is a finite real number (see ``_real_arg``), stored as a
    Python float, with f0 > half_bw > 0 and wave_speed, gamma > 0.
    The rest admit 0 as degenerate limits (point observation region, no
    observation time, noiseless sensing, silent channel); the operations
    that would divide by them reject the degenerate value instead.
    """

    f0: float                       # center frequency, Hz
    half_bw: float                  # half bandwidth, Hz
    radius: float                   # observation disk radius, m
    obs_time: float                 # observation window length, s
    wave_speed: float = SPEED_OF_LIGHT
    noise_var: float = 1.0          # noise power per order
    p_max: float = 1.0              # max per-order spectral power
    gamma: float = 1.0              # detection SNR threshold

    def __post_init__(self):
        for name, value in self.to_dict().items():
            lo = -_FLOAT_MAX if name in ("f0", "half_bw") else 0.0
            # a float, so an np.float32 field puts no budget arithmetic in float32
            object.__setattr__(self, name, float(_real_arg(value, name, lo, open_lo=name in ("wave_speed", "gamma"))))
        if not self.f0 > self.half_bw > 0.0:
            raise ValueError(f"band must satisfy f0 > half_bw > 0, got f0={self.f0}, half_bw={self.half_bw}")

    @property
    def band_low(self) -> float:
        return self.f0 - self.half_bw

    @property
    def band_high(self) -> float:
        return self.f0 + self.half_bw

    @property
    def k_max(self) -> float:
        """Largest wavenumber in the band, rad/m."""
        return 2.0 * math.pi * self.band_high / self.wave_speed

    def to_dict(self) -> dict:
        """The fields by name, in declaration order; the values themselves, not copies."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}
