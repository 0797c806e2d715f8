"""Random 2D multipath field model.

A band limited field observed over a disk of radius R is realized as a
superposition of plane waves from discrete far-field point scatterers with
random complex gains.  The same field can be synthesized through its
circular-harmonic modal expansion, which gives an independent cross-check
of the plane-wave sum.  White Gaussian sensor noise on the observation
circle is modelled per angular quadrature node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ChannelConfig, _check_cells, _int_arg, _real_arg
from .specfun import _MAX_ORDER, _array_arg, bessel_j_table

__all__ = [
    "ScattererSet",
    "ModalSpectrum",
    "FieldSamples",
    "symmetric_orders",
    "modal_truncation_order",
    "make_scatterers",
    "synth_field_planewave",
    "modal_coefficients",
    "synth_field_modal",
    "synth_field_circle",
]

_I_POWERS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def symmetric_orders(n_max: int) -> np.ndarray:
    """Integer orders -n_max..n_max inclusive."""
    return np.arange(-n_max, n_max + 1)


def modal_truncation_order(cfg: ChannelConfig) -> int:
    """Orders needed for the modal sum to match the plane-wave field on the disk.

    ceil(e * k_max * R / 2) + 12; Bessel terms decay super-exponentially
    beyond order e*kR/2, and 12 extra orders push the tail below 1e-8.
    """
    return _modal_order(cfg.k_max * cfg.radius)


def _modal_order(kr: float) -> int:
    """ceil(e * kr / 2) + 12, the modal truncation rule at argument kr."""
    return int(math.ceil(math.e * kr / 2.0)) + 12


def _set_arrays(holder, fields: tuple) -> None:
    """Store each (name, dtype, ndim) array field of a frozen container as a ``dtype`` array.

    A field must hold numbers of ``dtype``'s kinds (see ``specfun._array_arg``),
    have ``ndim`` axes and be finite, or a ValueError names it.
    """
    for name, dtype, ndim in fields:
        arr = _array_arg(getattr(holder, name), name, dtype)
        if arr.ndim != ndim:
            raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
        object.__setattr__(holder, name, arr)


@dataclass(frozen=True)
class ScattererSet:
    """Discrete far-field scatterer ensemble on a shared frequency grid."""

    angles: np.ndarray      # azimuths, shape (J,)
    gains: np.ndarray       # complex gains, shape (J, K)
    freq_grid: np.ndarray   # Hz, shape (K,)

    def __post_init__(self):
        _set_arrays(self, (("angles", float, 1), ("gains", complex, 2), ("freq_grid", float, 1)))
        if self.angles.size == 0:
            raise ValueError("angle list must be non-empty")
        if self.gains.shape != (self.angles.size, self.freq_grid.size):
            raise ValueError(
                f"gains must have shape (num_angles, num_freqs) = "
                f"({self.angles.size}, {self.freq_grid.size}), got {self.gains.shape}"
            )
        if self.freq_grid.size < 2 or np.any(np.diff(self.freq_grid) <= 0.0):
            raise ValueError("freq_grid must be strictly increasing with at least 2 points")
        object.__setattr__(self, "_grid_memo", None)

    @property
    def num_scatterers(self) -> int:
        return self.angles.size


@dataclass(frozen=True)
class ModalSpectrum:
    """Per-order complex coefficients on a frequency grid."""

    orders: np.ndarray      # -n_max..n_max, shape (2*n_max+1,)
    coeffs: np.ndarray      # complex, shape (2*n_max+1, K)
    freq_grid: np.ndarray   # Hz, shape (K,)

    def __post_init__(self):
        _set_arrays(self, (("orders", int, 1), ("coeffs", complex, 2), ("freq_grid", float, 1)))
        n_max = self.orders.max(initial=0)
        if not np.array_equal(self.orders, symmetric_orders(n_max)):
            raise ValueError("orders must be the symmetric range -n_max..n_max")
        if self.coeffs.shape != (self.orders.size, self.freq_grid.size):
            raise ValueError(
                f"coeffs must have shape (num_orders, num_freqs) = "
                f"({self.orders.size}, {self.freq_grid.size}), got {self.coeffs.shape}"
            )
        object.__setattr__(self, "_grid_memo", None)

    @cached_property
    def n_max(self) -> int:
        return int(self.orders.max())

    @cached_property
    def _synthesis_factors(self) -> tuple:
        """(|n|, the sign in J_{-n} = (-1)^n J_n, i^n, i n) per order, for synth_field_modal."""
        n = self.orders
        return np.abs(n), np.where((n < 0) & (n % 2 == 1), -1.0, 1.0), _I_POWERS[n % 4], 1j * n

    def _weighted_column(self, idx: int) -> np.ndarray:
        """i^n alpha_n at grid index idx over the orders, the first factor of a modal synthesis."""
        return self._synthesis_factors[2] * self.coeffs[:, idx]

    def order_row(self, n: int) -> np.ndarray:
        """Coefficient row alpha_n(freq_grid) for a single order."""
        if abs(n) > self.n_max:
            raise ValueError(f"order {n} outside stored range +-{self.n_max}")
        return self.coeffs[n + self.n_max]


@dataclass(frozen=True)
class FieldSamples:
    """Complex field values on a (position, frequency) grid."""

    positions: np.ndarray       # (r, phi) rows, shape (P, 2)
    freq_grid: np.ndarray       # Hz, shape (K,)
    values: np.ndarray          # complex, shape (P, K)
    noise_included: bool = False

    def __post_init__(self):
        _set_arrays(self, (("positions", float, 2), ("freq_grid", float, 1), ("values", complex, 2)))
        if self.positions.shape[1] != 2:
            raise ValueError("positions must be (r, phi) rows")
        if self.values.shape != (self.positions.shape[0], self.freq_grid.size):
            raise ValueError("values must have shape (num_positions, num_freqs)")


def make_scatterers(cfg: ChannelConfig, num_scatterers: int, num_freqs: int, seed: int) -> ScattererSet:
    """Draw a random scatterer ensemble.

    Angles are i.i.d. uniform on [0, 2pi); gains are i.i.d. circularly
    symmetric complex Gaussian with variance p_max/num_scatterers per
    scatterer and frequency, so the total power sum_j E|g_j|^2 equals
    p_max at every frequency.  The grid spans [band_low, band_high].
    Deterministic for a given seed.
    """
    num_scatterers = _int_arg(num_scatterers, "num_scatterers", lo=1)
    num_freqs = _int_arg(num_freqs, "num_freqs", lo=2)
    _check_cells("num_scatterers * num_freqs", num_scatterers, num_freqs)
    rng = np.random.default_rng(_int_arg(seed, "seed", lo=0))
    angles = rng.uniform(0.0, 2.0 * math.pi, num_scatterers)
    gains = _complex_normal(rng, _gain_scale(cfg, num_scatterers), (num_scatterers, num_freqs))
    return ScattererSet(angles=angles, gains=gains, freq_grid=np.linspace(cfg.band_low, cfg.band_high, num_freqs))


def _gain_scale(cfg: ChannelConfig, num_scatterers: int) -> float:
    """Per-part gain scale sqrt(p_max / (2J)): J gains of variance p_max / J sum to p_max."""
    return math.sqrt(cfg.p_max / (2.0 * num_scatterers))


def _complex_normal(rng: np.random.Generator, scale: float, shape: tuple) -> np.ndarray:
    """scale * (x + iy), x and y standard normal; all real parts are drawn first.

    Built in one complex array, each part drawn into place, then scaled
    in place, with no complex temporary.  That has the bits of
    ``scale * (x + 1j * y)`` at scale 0, signed zeros included, and at
    every scale whose products with the draws stay nonzero; the library's
    scales are square roots of doubles, so 0 or at least 2.2e-162.  At a
    subnormal scale a product that underflows can take the other zero
    sign, and scaling each part on its way in flips zero signs at scale 0.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= scale
    return out


def _grid_index(freq_grid: np.ndarray, omega: float) -> int:
    f = _real_arg(omega, "omega") / (2.0 * math.pi)
    idx = int(np.abs(freq_grid - f).argmin())
    scale = max(abs(freq_grid.item(-1)), 1.0)
    if not abs(freq_grid.item(idx) - f) <= 1e-9 * scale:
        raise ValueError(f"frequency {f} Hz of omega = {omega} is not on the grid")
    return idx


def _on_grid(holder, omega: float, at_index=None):
    """``at_index(i)``, or i itself, for omega's index i on ``holder.freq_grid``.

    The holder remembers its last float omega that was on the grid and the
    value for it, as one tuple replaced whole, so a thread reads one pair
    or the other.  A float omega equal to it would repeat the same search,
    so it takes the remembered value; every other omega searches, so one
    off the grid or not finite always raises.
    """
    last = holder._grid_memo
    remember = isinstance(omega, float)
    if remember and last is not None and last[0] == omega:
        return last[1]
    idx = _grid_index(holder.freq_grid, omega)
    value = idx if at_index is None else at_index(idx)
    if remember:
        object.__setattr__(holder, "_grid_memo", (omega, value))
    return value


def _check_position(cfg: ChannelConfig, x: tuple[float, float], omega: float) -> tuple[float, float]:
    """(r, phi) of a field point: r, phi and omega real and finite, 0 <= r <= radius."""
    r, phi = x
    _real_arg(r, "r", 0.0)
    _real_arg(phi, "phi")
    _real_arg(omega, "omega")
    if r > cfg.radius * (1.0 + 1e-12):
        raise ValueError(f"r must be <= the disk radius {cfg.radius}, got {r}")
    return r, phi


def _planewave_sum(angles: np.ndarray, gains: np.ndarray, kr: float, phi) -> np.ndarray:
    """sum_j g_j exp(i kr cos(phi - phi_j)) over the last axis.

    Leading axes broadcast, so one call covers many positions or many
    independent scatterer sets.

    The phasors are cos and sin of the real phase, written into one
    complex array, with no complex phase and no complex exp.  The sum has
    the bits of the sum of ``np.exp(1j * kr * np.cos(phi - angles))``:
    that product's real part is a zero, whose exp is exactly 1, and its
    imaginary part is ``kr * c + (+0)``.  Where ``kr * c`` is -0, the
    phasor here is 1-0j, not 1+0j, but einsum sums from +0, so no sign of
    a zero reaches the result.
    """
    phase = kr * np.cos(phi - angles)
    phasors = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=phasors.real)
    np.sin(phase, out=phasors.imag)
    return np.einsum("...j,...j->...", phasors, gains)


def synth_field_planewave(s: ScattererSet, cfg: ChannelConfig, x: tuple[float, float], omega: float) -> complex:
    """Field at position x = (r, phi) by direct plane-wave superposition.

    sum_j g_j(omega) exp(i (omega/c) r cos(phi - phi_j)); omega must sit on
    the scatterer set's frequency grid.
    """
    r, phi = _check_position(cfg, x, omega)
    idx = _on_grid(s, omega)
    # in float64 whatever real types r and omega came as
    return complex(_planewave_sum(s.angles, s.gains[:, idx], float(omega) / cfg.wave_speed * float(r), phi))


def modal_coefficients(s: ScattererSet, n_max: int) -> ModalSpectrum:
    """Modal coefficients alpha_n(omega) = sum_j g_j(omega) e^{-i n phi_j}.

    The discrete-angle ensemble turns the angular transform of the gain
    density into an exact sum.  The sum is a BLAS product, so its last
    bits may depend on the BLAS thread count: at 121 orders x 300
    scatterers x 200 frequencies they differ between 1 and 2 or more
    OpenBLAS threads, at 41 x 32 x 32 they do not.
    """
    # synth_field_modal evaluates Bessel orders up to the upper bound
    n_max = _int_arg(n_max, "n_max", lo=0, hi=_MAX_ORDER)
    orders = symmetric_orders(n_max)
    kernel = np.exp(-1j * np.outer(orders, s.angles))
    return ModalSpectrum(orders=orders, coeffs=kernel @ s.gains, freq_grid=s.freq_grid)


def synth_field_modal(ms: ModalSpectrum, cfg: ChannelConfig, x: tuple[float, float], omega: float) -> complex:
    """Field at x = (r, phi) from the truncated modal expansion.

    sum_{|n| <= n_max} i^n alpha_n(omega) J_n(omega r / c) e^{i n phi}.
    Warns when the stored orders fall short of the truncation rule for the
    evaluated argument.
    """
    r, phi = _check_position(cfg, x, omega)
    if abs(phi) > 2.0 * math.pi:
        # n * phi overflows for a huge phi; the remainder is exact, and |phi| <= 2 pi keeps its bits
        phi = math.remainder(phi, 2.0 * math.pi)
    weighted = _on_grid(ms, omega, ms._weighted_column)
    # in float64 whatever real types r and omega came as
    z = float(omega) * float(r) / cfg.wave_speed
    # at z = 0 only order 0 contributes, so any stored range suffices
    needed = 0 if z == 0.0 else _modal_order(z)
    if ms.n_max < needed:
        warnings.warn(
            f"modal spectrum holds orders up to {ms.n_max} but the truncation rule "
            f"asks for {needed} at kr={z:.3g}; the synthesized field may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    abs_n, sign, _, i_n = ms._synthesis_factors
    j_n = sign * bessel_j_table(ms.n_max, z)[abs_n]
    return complex((weighted * j_n * np.exp(i_n * phi)).sum())


def _circle_nodes(num_samples: int) -> np.ndarray:
    """Midpoint-uniform angular quadrature nodes."""
    return 2.0 * math.pi * (np.arange(num_samples) + 0.5) / num_samples


def _node_noise_var(cfg: ChannelConfig, num_nodes: int) -> float:
    """Per-node variance of white circle noise on num_nodes quadrature cells.

    Discretizing a white process of spectral level noise_var on M cells of
    width 2pi/M gives noise_var * M / (2pi); projected onto any order, the
    circle quadrature turns it back into modal noise of power 2pi*noise_var.
    """
    return cfg.noise_var * num_nodes / (2.0 * math.pi)


def _white_circle_noise(cfg: ChannelConfig, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex white-on-the-circle noise for a quadrature with shape[-1] nodes.

    Leading axes of ``shape`` index independent draws, e.g. Monte Carlo trials.
    """
    return _complex_normal(rng, math.sqrt(_node_noise_var(cfg, shape[-1]) / 2.0), shape)


def synth_field_circle(
    s: ScattererSet,
    cfg: ChannelConfig,
    num_nodes: int,
    omega: float,
    with_noise: bool = False,
    seed: int | None = None,
) -> FieldSamples:
    """Plane-wave field sampled at uniform nodes on the observation circle.

    Node noise follows the white-process discretization (variance
    noise_var * M / (2pi) per node).
    """
    num_nodes = _int_arg(num_nodes, "num_nodes", lo=1)
    # the plane-wave sum makes one (nodes, scatterers) array
    _check_cells("num_nodes * num_scatterers", num_nodes, s.num_scatterers)
    nodes = _circle_nodes(num_nodes)
    idx = _on_grid(s, omega)
    values = _planewave_sum(s.angles, s.gains[:, idx], omega / cfg.wave_speed * cfg.radius, nodes[:, None])
    if with_noise:
        rng = np.random.default_rng(_int_arg(seed, "seed", lo=0))
        values = values + _white_circle_noise(cfg, rng, (num_nodes,))
    positions = np.column_stack([np.full(num_nodes, cfg.radius), nodes])
    return FieldSamples(
        positions=positions,
        freq_grid=s.freq_grid[idx : idx + 1],
        values=values[:, None],
        noise_included=with_noise,
    )
