"""Special-function kernel: Bessel J_n, Chebyshev polynomials, Stirling bound.

Self-contained float64 implementations of the special functions the rest of
the package builds on.  Bessel functions of the first kind are evaluated by
an ascending power series for small arguments and by Miller's backward
recurrence (normalized with J_0 + 2*sum_k J_{2k} = 1) for large arguments,
which keeps the tiny pre-turn-on values of high orders accurate where a
naive forward recurrence would explode.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "StirlingBound",
    "bessel_j",
    "bessel_j_table",
    "chebyshev_first_kind",
    "chebyshev_second_kind",
    "stirling_gamma_lower",
]

_MAX_ORDER = 10_000

# Ascending series below this argument, Miller recurrence above (the series
# is also used whenever z <= n/2, where its terms decay from the start).
_SERIES_Z_CUTOFF = 12.0

# Series stops once a term falls below _SERIES_REL_TOL * 1e-4 of the
# largest term, and gives up after _SERIES_MAX_TERMS terms.
_SERIES_REL_TOL = 1e-10
_SERIES_MAX_TERMS = 1600


class StirlingBound(NamedTuple):
    """Stirling lower bound on Gamma(n+1), in log and linear form."""

    log_value: float
    value: float


def _check_order_arg(n, z) -> None:
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n} (use the reflection identity for negative orders)")
    if n > _MAX_ORDER:
        raise ValueError(f"order must be <= {_MAX_ORDER}, got {n}")
    if z < 0.0:
        raise ValueError(f"argument must be >= 0, got {z} (use the reflection identity for negative arguments)")
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")


def _series_j(n: int, z: float) -> float:
    """Ascending power series J_n(z) = (z/2)^n/n! * sum_m (-q)^m / (m! (n+1)_m)."""
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    zh = 0.5 * z
    # prefactor (z/2)^n / n! by iterative product; gradual underflow to 0 is
    # correct here because the prefactor is an upper envelope of |J_n|
    pref = 1.0
    for k in range(1, n + 1):
        pref *= zh / k
    if pref == 0.0:
        return 0.0
    q = -(zh * zh)
    term = 1.0
    terms = [term]
    peak = 1.0
    for m in range(1, _SERIES_MAX_TERMS + 1):
        term = term * q / (m * (n + m))
        terms.append(term)
        peak = max(peak, abs(term))
        if abs(term) <= _SERIES_REL_TOL * 1e-4 * peak and m * (n + m) > -q:
            return pref * math.fsum(terms)
    raise ValueError(f"Bessel series did not converge within {_SERIES_MAX_TERMS} terms for n={n}, z={z}")


def _miller_table(n_max: int, z: float) -> np.ndarray:
    """J_0(z)..J_{n_max}(z) by backward recurrence with sum normalization."""
    m0 = max(n_max, int(math.ceil(z)))
    start = m0 + 40 + int(math.ceil(math.sqrt(40.0 * m0)))
    if start % 2:
        start += 1
    out = np.zeros(n_max + 1)
    j_up = 0.0        # trial J_{k+1}
    j_cur = 1e-300    # trial J_k at k = start
    norm = 0.0        # accumulates J_0 + 2*sum_k J_{2k}
    for k in range(start, 0, -1):
        j_down = (2.0 * k / z) * j_cur - j_up
        j_up = j_cur
        j_cur = j_down
        idx = k - 1
        if idx <= n_max:
            out[idx] = j_cur
        if idx % 2 == 0:
            norm += j_cur if idx == 0 else 2.0 * j_cur
        if abs(j_cur) > 1e250:
            j_cur *= 1e-250
            j_up *= 1e-250
            norm *= 1e-250
            out *= 1e-250
    return out / norm


def bessel_j(n: int, z: float) -> float:
    """Bessel function of the first kind J_n(z) for integer n >= 0, z >= 0.

    Evaluation strategy: ascending series for z <= max(12, n/2), Miller
    backward recurrence otherwise.
    """
    n = int(n)
    z = float(z)
    _check_order_arg(n, z)
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    if z <= max(_SERIES_Z_CUTOFF, 0.5 * n):
        return _series_j(n, z)
    return float(_miller_table(n, z)[n])


def bessel_j_table(n_max: int, z: float) -> np.ndarray:
    """All of J_0(z)..J_{n_max}(z) in one pass.

    Main entry point for modal synthesis, where every order up to the
    truncation limit is needed at the same argument.
    """
    n_max = int(n_max)
    z = float(z)
    _check_order_arg(n_max, z)
    if z == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    if z > _SERIES_Z_CUTOFF:
        return _miller_table(n_max, z)
    return np.array([_series_j(n, z) for n in range(n_max + 1)])


def _check_cheb_arg(n, z) -> None:
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"Chebyshev polynomials are defined on [-1, 1], got {z}")


def chebyshev_first_kind(n: int, z: float) -> float:
    """T_n(z) = cos(n arccos z) by the three-term recurrence."""
    n = int(n)
    z = float(z)
    _check_cheb_arg(n, z)
    if n == 0:
        return 1.0
    t_prev, t_cur = 1.0, z
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 2.0 * z * t_cur - t_prev
    return t_cur


def chebyshev_second_kind(n: int, z: float) -> float:
    """U_n(z) by the recurrence U_0 = 1, U_1 = 2z, U_{k+1} = 2z U_k - U_{k-1}."""
    n = int(n)
    z = float(z)
    _check_cheb_arg(n, z)
    if n == 0:
        return 1.0
    u_prev, u_cur = 1.0, 2.0 * z
    for _ in range(n - 1):
        u_prev, u_cur = u_cur, 2.0 * z * u_cur - u_prev
    return u_cur


def stirling_gamma_lower(n: int) -> StirlingBound:
    """Stirling lower bound sqrt(2 pi n) n^n e^{-n} < Gamma(n+1).

    Computed in the log domain; the linear value is +inf when it exceeds
    the float range.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_val = 0.5 * math.log(2.0 * math.pi * n) + n * math.log(n) - n
    value = math.exp(log_val) if log_val <= 709.0 else math.inf
    return StirlingBound(log_value=log_val, value=value)
