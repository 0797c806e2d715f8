"""Special-function kernel: Bessel J_n, Chebyshev polynomials, Stirling bound.

Self-contained float64 implementations of the special functions the rest of
the package builds on.  ``bessel_j_table`` is the one Bessel kernel: it takes
a scalar or an array of arguments and gives each argument one rule.  Every
argument z >= 1e-8 runs Miller's backward recurrence (normalized with
J_0 + 2*sum_k J_{2k} = 1), which keeps the tiny pre-turn-on values of high
orders accurate where a naive forward recurrence would explode and loses no
digits to cancellation; below 1e-8 the leading term (z/2)^n / n! is J_n(z)
to rounding.  The input's kind picks how the recurrence runs, and both ways
give the same bits.  A scalar, a modal synthesis's one argument over up to
hundreds of orders, runs it alone on plain Python floats and lists, two
steps at a time: the recurrence starts at an even order, so which step of
each pair adds to the normalization sum is fixed and no step tests its
parity.  An array, the campaign's one order over a frequency grid, runs it
across all its arguments at once in numpy, with the same operations in the
same order per argument.
``bessel_j`` reads one entry of that table.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import _MAX_FLOAT_ORDER, _int_arg, _real_arg

__all__ = [
    "StirlingBound",
    "bessel_j",
    "bessel_j_table",
    "chebyshev_first_kind",
    "chebyshev_second_kind",
    "stirling_gamma_lower",
]

_MAX_ORDER = 10_000

# Miller's recurrence runs O(z) steps: at this bound about 10 ms for a
# scalar argument, 0.62 s for a one-argument array, since the array path
# spends about 12 numpy calls on a step (best of 5, 2-vCPU Xeon VM).  The
# campaign's probes stay below z = 1.5e4 while its order bound holds.
_MAX_ARG = 1e5

# Miller's recurrence at or above this argument, the leading term
# (z/2)^n / n! below it: (z/2)^2 < 2^-53 there, and Miller's first steps
# overflow for z below about 1e-100.
_TINY_Z = 1e-8


class StirlingBound(NamedTuple):
    """Stirling lower bound on Gamma(n+1), in log and linear form."""

    log_value: float
    value: float


# An array's element type: the dtype kinds it may hold, and its name in an error
_ARRAY_KINDS = {float: ("iuf", "a real number"), complex: ("iufc", "a complex number"), int: ("iu", "an integer")}


def _array_arg(z, name: str, dtype: type = float) -> np.ndarray:
    """z, a scalar or an array of ``dtype``'s _ARRAY_KINDS, as a ``dtype`` array; any other z is a ValueError naming ``name``."""
    kinds, noun = _ARRAY_KINDS[dtype]
    # checked before the cast, which reads a bool as 0 or 1, a digit string as its number and None as NaN
    arr = np.asarray(z)
    if arr.dtype.kind not in kinds:
        raise ValueError(f"{name} must be {noun}, got {(arr.item() if arr.ndim == 0 else arr)!r}")
    if arr.ndim and not isinstance(z, np.ndarray):
        # numpy promotes a sequence that mixes bools with numbers to a number array
        for item in np.asarray(z, dtype=object).flat:
            if isinstance(item, (bool, np.bool_)):
                raise ValueError(f"{name} must be {noun}, got {item!r}")
    return arr.astype(dtype, copy=False)


def _check_order_arg(n: int, z: np.ndarray) -> None:
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n} (use the reflection identity for negative orders)")
    for bad, rule in (
        (z < 0.0, "must be >= 0 (use the reflection identity for negative arguments)"),
        (~np.isfinite(z), "must be finite"),
        (z > _MAX_ARG, f"must be <= {_MAX_ARG:g}"),
    ):
        if bad.any():
            raise ValueError(f"argument {rule}, got {z[bad].flat[0]}")


def _leading_terms(n_max: int, z: float) -> np.ndarray:
    """(z/2)^n / n! for n = 0..n_max, 0 from where it underflows to 0.

    For 0 <= z < _TINY_Z, (z/2)^2 < 2^-53, so this is J_n(z) to rounding;
    z == 0 gives the unit row.  Gradual underflow to 0 is correct because
    the term is an upper envelope of |J_n|, and it stays 0 for every higher
    order.
    """
    zh = 0.5 * z
    terms = [1.0]
    for n in range(1, n_max + 1):
        term = terms[-1] * (zh / n)
        if term == 0.0:
            break
        terms.append(term)
    row = np.zeros(n_max + 1)
    row[: len(terms)] = terms
    return row


def _miller_start(n_max: int, z: float) -> int:
    """Even starting order of Miller's recurrence, far enough above n_max and z."""
    m0 = max(n_max, int(math.ceil(z)))
    start = m0 + 40 + int(math.ceil(math.sqrt(40.0 * m0)))
    return start + start % 2


def _scale_stored(out: list, idx: int, hi: int) -> int:
    """Scale out[idx:hi] by 1e-250 in place; return ``hi`` lowered past the entries now zero."""
    out[idx:hi] = [v * 1e-250 for v in out[idx:hi]]
    while hi > idx and out[hi - 1] == 0.0:
        hi -= 1
    return hi


def _miller_table(n_max: int, z: float) -> np.ndarray:
    """J_0(z)..J_{n_max}(z) by backward recurrence with sum normalization.

    Step k gives J_{k-1}.  The start is even, so the steps come in pairs
    (k, k - 1) of an odd order and an even one, and only the even one adds
    to the norm; the loops take a pair per pass and test no parity.  The
    first loop runs the steps above n_max, which store nothing, the second
    the pairs down to orders 3 and 2, and the last pair, whose even order 0
    adds to the norm once instead of twice, comes after them.  A pair that
    crosses n_max writes order n_max + 1 to a spare slot.

    The 1e-250 rescale touches only the stored entries below ``hi``; the
    entries at and above it are exact zeros, which the rescale leaves as
    they are, so skipping them keeps the bits where a small z and a high
    n_max rescale hundreds of times.
    """
    start = _miller_start(n_max, z)
    out = [0.0] * (n_max + 2)
    hi = n_max + 1
    j_up = 0.0        # trial J_{k+1}
    j_cur = 1e-300    # trial J_k at k = start
    norm = 0.0        # accumulates J_0 + 2*sum_k J_{2k}
    top = n_max + 2 - n_max % 2   # the even k of the first pair that stores
    for k in range(start, top, -2):
        j_up, j_cur = j_cur, (2.0 * k / z) * j_cur - j_up
        if j_cur > 1e250 or j_cur < -1e250:
            j_cur, j_up, norm = j_cur * 1e-250, j_up * 1e-250, norm * 1e-250
        j_up, j_cur = j_cur, (2.0 * (k - 1) / z) * j_cur - j_up
        norm += 2.0 * j_cur
        if j_cur > 1e250 or j_cur < -1e250:
            j_cur, j_up, norm = j_cur * 1e-250, j_up * 1e-250, norm * 1e-250
    for k in range(top, 2, -2):
        j_up, j_cur = j_cur, (2.0 * k / z) * j_cur - j_up
        out[k - 1] = j_cur
        if j_cur > 1e250 or j_cur < -1e250:
            j_cur, j_up, norm = j_cur * 1e-250, j_up * 1e-250, norm * 1e-250
            hi = _scale_stored(out, k - 1, hi)
        j_up, j_cur = j_cur, (2.0 * (k - 1) / z) * j_cur - j_up
        out[k - 2] = j_cur
        norm += 2.0 * j_cur
        if j_cur > 1e250 or j_cur < -1e250:
            j_cur, j_up, norm = j_cur * 1e-250, j_up * 1e-250, norm * 1e-250
            hi = _scale_stored(out, k - 2, hi)
    j_up, j_cur = j_cur, (4.0 / z) * j_cur - j_up
    out[1] = j_cur
    if j_cur > 1e250 or j_cur < -1e250:
        j_cur, j_up, norm = j_cur * 1e-250, j_up * 1e-250, norm * 1e-250
        hi = _scale_stored(out, 1, hi)
    j_cur = (2.0 / z) * j_cur - j_up
    out[0] = j_cur
    norm += j_cur
    if j_cur > 1e250 or j_cur < -1e250:
        norm *= 1e-250
        _scale_stored(out, 0, hi)
    return np.array(out[: n_max + 1]) / norm


def _miller_rows(n_max: int, z: np.ndarray) -> np.ndarray:
    """``_miller_table`` at every argument of the 1-D array z at once, bitwise.

    Arguments are sorted by their starting order, so at step k the ones
    whose recurrence has begun form a prefix; each step updates that
    prefix, and the 1e-250 rescale touches only the arguments that need it,
    and of those only the columns below the shared ``hi``.
    """
    starts = np.array([_miller_start(n_max, zk) for zk in z.tolist()])
    order = np.argsort(-starts, kind="stable")
    zs, starts = z[order], starts[order]
    out = np.zeros((z.size, n_max + 1))
    hi = n_max + 1
    j_up = np.zeros(z.size)
    j_cur = np.full(z.size, 1e-300)
    norm = np.zeros(z.size)
    begun = np.searchsorted(-starts, -np.arange(starts[0] + 1), side="right")
    for k in range(int(starts[0]), 0, -1):
        p = begun[k]
        j_down = (2.0 * k / zs[:p]) * j_cur[:p] - j_up[:p]
        j_up[:p] = j_cur[:p]
        j_cur[:p] = j_down
        idx = k - 1
        if idx <= n_max:
            out[:p, idx] = j_down
        if idx % 2 == 0:
            norm[:p] += j_down if idx == 0 else 2.0 * j_down
        big = np.flatnonzero(np.abs(j_down) > 1e250)
        if big.size:
            j_cur[big] *= 1e-250
            j_up[big] *= 1e-250
            norm[big] *= 1e-250
            out[big, idx:hi] *= 1e-250
            while hi > idx and not out[:, hi - 1].any():
                hi -= 1
    rows = np.empty_like(out)
    rows[order] = out / norm[:, None]
    return rows


def bessel_j_table(n_max: int, z) -> np.ndarray:
    """J_0(z)..J_{n_max}(z) at every argument of z, shape z.shape + (n_max + 1,).

    Domain: integer 0 <= n_max <= 10^4 and 0 <= z <= 10^5, z a scalar or an
    array of integers or floats (a bool, string, None or complex is rejected).
    A scalar inside the domain returns its rule's row as it is, with no
    table or domain scan around it; an array runs its recurrence arguments
    together.  Both give the same row at the same argument.
    """
    n_max = _int_arg(n_max, hi=_MAX_ORDER)
    z = np.asarray(z, dtype=float) if type(z) is float else _array_arg(z, "argument")
    if z.ndim == 0 and n_max >= 0:
        zk = float(z)
        # a NaN fails both comparisons; any argument that fails one is left to the checks below
        if 0.0 <= zk <= _MAX_ARG:
            return _miller_table(n_max, zk) if zk >= _TINY_Z else _leading_terms(n_max, zk)
    _check_order_arg(n_max, z)
    args = z.ravel()
    rows = np.zeros((args.size, n_max + 1))
    tiny = args < _TINY_Z
    for i in np.flatnonzero(tiny).tolist():
        rows[i] = _leading_terms(n_max, float(args[i]))
    if not tiny.all():
        rows[~tiny] = _miller_rows(n_max, args[~tiny])
    return rows.reshape(z.shape + (n_max + 1,))


def bessel_j(n: int, z: float) -> float:
    """Bessel function of the first kind J_n(z) for integer n >= 0, z >= 0."""
    return float(bessel_j_table(n, float(_real_arg(z, "argument")))[n])


def _chebyshev(n, z, first_step: float):
    """Three-term recurrence P_{k+1} = 2z P_k - P_{k-1} from P_0 = 1, P_1 = first_step * z.

    ``z`` is a scalar (float result) or an array (array result, elementwise).
    """
    n = _int_arg(n, lo=0, hi=_MAX_ORDER)
    z_arr = _array_arg(z, "Chebyshev argument")
    outside = ~(np.abs(z_arr) <= 1.0)
    if outside.any():
        raise ValueError(f"Chebyshev polynomials are defined on [-1, 1], got {z_arr[outside][0]}")
    if n == 0:
        return np.ones_like(z_arr) if z_arr.ndim else 1.0
    z = z_arr if z_arr.ndim else float(z)
    prev, cur = 1.0, first_step * z
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * z * cur - prev
    return cur


def chebyshev_first_kind(n: int, z):
    """T_n(z) = cos(n arccos z) by the three-term recurrence; z scalar or array."""
    return _chebyshev(n, z, 1.0)


def chebyshev_second_kind(n: int, z):
    """U_n(z) by the recurrence U_0 = 1, U_1 = 2z, U_{k+1} = 2z U_k - U_{k-1}; z scalar or array."""
    return _chebyshev(n, z, 2.0)


def stirling_gamma_lower(n: int) -> StirlingBound:
    """Stirling lower bound sqrt(2 pi n) n^n e^{-n} < Gamma(n+1).

    Computed in the log domain; the linear value is +inf when it exceeds
    the float range.
    """
    n = _int_arg(n, lo=1, hi=_MAX_FLOAT_ORDER)
    log_val = 0.5 * math.log(2.0 * math.pi * n) + n * math.log(n) - n
    value = math.exp(log_val) if log_val <= 709.0 else math.inf
    return StirlingBound(log_value=log_val, value=value)
