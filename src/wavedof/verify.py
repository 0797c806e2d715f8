"""Monte Carlo verification harness.

Checks the analytic degree-of-freedom machinery against direct numerical
experiments on the field model: circle-quadrature orthogonality, modal
noise statistics, power balance, per-order SNR against the detectability
threshold, and the time support of the per-order impulse response.

Every statistical check reports an estimate, a standard error, and a
verdict; fixed seeds make a full campaign bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import fft, ifft

from . import __version__
from .channel import (
    _circle_nodes,
    _complex_normal,
    _gain_scale,
    _modal_order,
    _node_noise_var,
    _planewave_sum,
    _white_circle_noise,
    symmetric_orders,
)
from .config import _MAX_CELLS, _MAX_FLOAT_ORDER, ChannelConfig, _check_cells, _int_arg, _real_arg
from .dofcore import critical_frequency, truncation_order
from .specfun import _MAX_ORDER, bessel_j_table

__all__ = [
    "TrialPlan",
    "SnrEstimate",
    "CheckResult",
    "TimeSupportResult",
    "PowerBalance",
    "CampaignReport",
    "orthogonality_check",
    "empirical_order_snr",
    "noise_variance_check",
    "power_balance_check",
    "time_support_check",
    "run_campaign",
]

_MIN_STATISTICAL_TRIALS = 100

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class TrialPlan:
    """Monte Carlo sizing: trial count, circle quadrature, probed orders."""

    num_trials: int = 2000
    circle_samples: int = 64
    seed: int = 0
    n_probe: int = 16
    freq_samples: int = 257

    def __post_init__(self):
        # num_trials and circle_samples get their bounds below, in messages that give the reason
        lower = {"num_trials": None, "circle_samples": None, "seed": 0, "n_probe": 0, "freq_samples": 2}
        for name, lo in lower.items():
            object.__setattr__(self, name, _int_arg(getattr(self, name), name, lo=lo))
        if self.num_trials < _MIN_STATISTICAL_TRIALS:
            raise ValueError(
                f"statistical checks need num_trials >= {_MIN_STATISTICAL_TRIALS}, "
                f"got {self.num_trials}"
            )
        if self.circle_samples < 2 * self.n_probe + 2:
            raise ValueError(
                f"circle_samples={self.circle_samples} aliases orders up to "
                f"{self.n_probe}; need at least {2 * self.n_probe + 2}"
            )
        _check_cells(
            "max(num_trials, 2*n_probe+1) * max(circle_samples, freq_samples)",
            max(self.num_trials, 2 * self.n_probe + 1),
            max(self.circle_samples, self.freq_samples),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class SnrEstimate(NamedTuple):
    """Empirical per-order SNR over [grid start, f_edge]."""

    n: int
    f_edge: float
    snr_hat: float
    stderr: float


@dataclass(frozen=True)
class CheckResult:
    """One verification line: named estimate with a 3 sigma verdict."""

    name: str
    estimate: float
    stderr: float
    verdict: str                # "pass" | "fail" | "skipped"
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _line(name: str, estimate: float, stderr: float, ok: bool, detail: str = "") -> CheckResult:
    """A judged verification line: the one place a verdict is passed or failed."""
    return CheckResult(name, estimate, stderr, "pass" if ok else "fail", detail)


def orthogonality_check(n: int, m: int, num_samples: int) -> float:
    """Residual of the circle-harmonic inner product under quadrature.

    (2pi/M) sum_k e^{i(n-m)phi_k} over midpoint-uniform nodes, against the
    exact value 2pi delta_nm.  Exact to rounding while |n - m| < M; when
    n - m is a nonzero multiple of M the quadrature aliases to 2pi and the
    residual shows it.
    """
    n = _int_arg(n, "n", lo=-_MAX_FLOAT_ORDER, hi=_MAX_FLOAT_ORDER)
    m = _int_arg(m, "m", lo=-_MAX_FLOAT_ORDER, hi=_MAX_FLOAT_ORDER)
    # bounded like any array of a plan, far inside the float range
    num_samples = _int_arg(num_samples, "num_samples", lo=1, hi=_MAX_CELLS)
    quad = (2.0 * math.pi / num_samples) * np.sum(np.exp(1j * (n - m) * _circle_nodes(num_samples)))
    expected = 2.0 * math.pi if n == m else 0.0
    return float(abs(quad - expected))


def _orthogonality_lines(plan: TrialPlan) -> list[CheckResult]:
    resid = max(orthogonality_check(3, 3, plan.circle_samples), orthogonality_check(2, 5, plan.circle_samples))
    return [_line("orthogonality", resid, 0.0, resid < 1e-12, "worst residual below the alias bound")]


# Cells (float or complex) in one block of a stage that streams its
# trials: the SNR probes' draws and the power balance's synthesis chunks.
# At the defaults a block is 255 SNR trials of 257 frequencies (0.5 MB of
# floats) or 64 power-balance trials of 64 nodes x 16 scatterers (1 MB
# complex), small enough to stay in cache.
_BLOCK_CELLS = 2**16


def _block_rows(row_cells: int) -> int:
    """Rows of ``row_cells`` cells in one block: at most _BLOCK_CELLS cells, at least one row."""
    return max(1, _BLOCK_CELLS // row_cells)


def _ratio_stderr(num: np.ndarray, den: np.ndarray) -> float:
    """Delta-method standard error of mean(num)/mean(den), independent parts.

    Each part is first scaled by the power of two that brings its mean into
    [0.5, 1), and the result scaled back by their ratio, so no square or
    quotient below under- or overflows for any finite positive means.  A
    power of two scales every rounding with it, so wherever the unscaled
    expression stays in the normal range the result has its bits.
    """
    t = num.size
    e_num = math.frexp(float(np.mean(num)))[1]
    e_den = math.frexp(float(np.mean(den)))[1]
    num, den = np.ldexp(num, -e_num), np.ldexp(den, -e_den)
    nb, db = float(np.mean(num)), float(np.mean(den))
    vn = float(np.var(num)) / t
    vd = float(np.var(den)) / t
    return math.ldexp(math.sqrt(vn / db**2 + (nb / db**2) ** 2 * vd), e_num - e_den)


# A campaign's nonzero powers, p_max and noise_var, lie in [1/_POWER_SPAN,
# _POWER_SPAN], in a campaign and in each stage called alone.  Its checks
# square powers scaled by up to about 1e7 (circle nodes per 2 pi,
# exponential tails) and divide by them, and the squares of powers in this
# range stay normal floats, so no standard error under- or overflows to 0,
# inf or NaN.
_POWER_SPAN = 1e100


def _check_powers(cfg: ChannelConfig) -> None:
    """Reject a nonzero p_max or noise_var outside [1/_POWER_SPAN, _POWER_SPAN]."""
    for name, value in (("p_max", cfg.p_max), ("noise_var", cfg.noise_var)):
        if value != 0.0 and not 1.0 / _POWER_SPAN <= value <= _POWER_SPAN:
            raise ValueError(
                f"{name} must be 0 or within [{1.0 / _POWER_SPAN:g}, {_POWER_SPAN:g}] "
                f"for a verification campaign, got {value}"
            )


def empirical_order_snr(plan: TrialPlan, cfg: ChannelConfig, n: int, f_edge: float) -> SnrEstimate:
    """Monte Carlo per-order SNR over the band [grid start, f_edge].

    Ratio of trapezoid integrals mean |alpha_n J_n|^2 over mean noise
    power density, averaged across independent coefficient and noise
    realizations.  The signal grid runs from 0 Hz with the spectrum held
    at its envelope p_max, so the estimate probes the detectability bound
    below the physical band as well as inside it.

    The powers are drawn and reduced in blocks of trials, every signal
    block before the first noise block.  The generator fills blocks in
    stream order and each trial's sum sees the same numbers, so the result
    has the bits of one whole (trials, frequencies) draw per part.
    """
    _check_powers(cfg)
    n = _int_arg(n)
    if cfg.noise_var == 0.0:
        raise ValueError("empirical SNR is undefined for noise_var == 0")
    if not 0.0 < _real_arg(f_edge, "f_edge") <= cfg.band_high * (1.0 + 1e-9):
        raise ValueError(f"f_edge must lie in (0, band_high], got {f_edge}")
    grid = np.linspace(0.0, cfg.band_high, plan.freq_samples)
    grid = grid[grid <= f_edge * (1.0 + 1e-12)]
    if grid.size < 2:
        raise ValueError(f"fewer than 2 grid points below f_edge={f_edge}; densify the plan")
    omega = 2.0 * math.pi * grid
    j_row = bessel_j_table(abs(n), 2.0 * math.pi * grid * cfg.radius / cfg.wave_speed)[:, -1]
    w = np.convolve(np.diff(omega), [0.5, 0.5])        # trapezoid weights over omega

    # alpha_n of the discrete-scatterer ensemble is exactly CN(0, p_max), the
    # gain law of one scatterer, independently per frequency, and nu_n is
    # CN(0, 2 pi noise_var).  Only |alpha_n|^2 and the noise density
    # |nu_n|^2 / (2 pi) enter, and the squared modulus of a circular complex
    # Gaussian is its variance times a standard exponential, so the powers
    # are drawn from that law directly: the signal draw, then the noise draw.
    rng = np.random.default_rng(plan.seed)
    t, k = plan.num_trials, grid.size
    step = _block_rows(k)
    sig, den = np.empty(t), np.empty(t)
    for out, weights in ((sig, cfg.p_max * w * j_row**2), (den, cfg.noise_var * w)):
        for lo in range(0, t, step):
            rows = out[lo : lo + step]
            # drawn inline, so each block is freed before the next one is drawn
            np.einsum("tk,k->t", rng.standard_exponential((rows.size, k)), weights, out=rows)
    snr_hat = float(np.mean(sig) / np.mean(den))
    return SnrEstimate(n=n, f_edge=float(f_edge), snr_hat=snr_hat, stderr=_ratio_stderr(sig, den))


def noise_variance_check(plan: TrialPlan, cfg: ChannelConfig) -> list[CheckResult]:
    """Modal noise statistics across orders |n| <= n_probe.

    Per order: E|nu_n|^2 against 2 pi noise_var at 3 standard errors, and
    E nu_n against 0.  Cross-order products are screened jointly at a
    multiple-comparison-adjusted threshold, with the (1, 2) pair reported
    as its own 3 sigma line.  The projection onto the orders,
    ``eta @ kernel.T``, is a BLAS product, whose last bits may depend on
    the BLAS thread count; over five plan sizes, the default among them,
    they were the same at 1 and 2 OpenBLAS threads.
    """
    _check_powers(cfg)
    orders = symmetric_orders(plan.n_probe)
    target = 2.0 * math.pi * cfg.noise_var
    if cfg.noise_var == 0.0:
        return [_line(f"noise_var[n={n}]", 0.0, 0.0, True, "silent channel") for n in orders]

    rng = np.random.default_rng(plan.seed)
    m = plan.circle_samples
    eta = _white_circle_noise(cfg, rng, (plan.num_trials, m))
    kernel = np.exp(-1j * np.outer(orders, _circle_nodes(m)))
    nu = (2.0 * math.pi / m) * (eta @ kernel.T)        # (trials, orders)

    sq = np.abs(nu) ** 2
    var_est = sq.mean(axis=0)
    var_se = sq.std(axis=0) / math.sqrt(plan.num_trials)
    results = [
        _line(f"noise_var[n={n}]", float(est), float(se), abs(est - target) <= 3.0 * se, f"target {target:.6g}")
        for n, est, se in zip(orders, var_est, var_se)
    ]

    mean_vec = nu.mean(axis=0)
    comp_se = np.sqrt(nu.real.var(axis=0) + nu.imag.var(axis=0)) / math.sqrt(plan.num_trials)
    worst = int(np.argmax(np.abs(mean_vec) / comp_se))
    # max over 2(2n_probe+1) Gaussian components; 4.5 sigma keeps the
    # joint false-alarm rate negligible
    ok = np.all(np.abs(mean_vec) <= 4.5 * comp_se)
    results.append(
        _line("noise_mean_worst", float(abs(mean_vec[worst])), float(comp_se[worst]), ok,
              f"worst order {orders[worst]}, joint 4.5 sigma screen")
    )

    if plan.n_probe >= 2:
        prod = nu[:, plan.n_probe + 1] * np.conj(nu[:, plan.n_probe + 2])
        cross = complex(prod.mean())
        cross_se = math.sqrt(prod.real.var() + prod.imag.var()) / math.sqrt(plan.num_trials)
        results.append(_line("noise_cross[1,2]", abs(cross), cross_se, abs(cross) <= 3.0 * cross_se))
        # joint screen over every ordered pair, threshold adjusted for count
        # einsum, not a BLAS product, so the bytes do not depend on the thread count
        cov = np.einsum("ti,tj->ij", nu.conj(), nu) / plan.num_trials
        pair_se = np.sqrt(np.outer(var_est, var_est) / plan.num_trials)
        off = ~np.eye(orders.size, dtype=bool)
        worst_ratio = float(np.max(np.abs(cov)[off] / pair_se[off]))
        results.append(
            _line("noise_cross_worst", worst_ratio, 1.0, worst_ratio <= 4.5,
                  "max |cov|/se over order pairs, 4.5 sigma screen")
        )
    return results


class PowerBalance(NamedTuple):
    """Circle-averaged field power against the modal sum."""

    residual: float          # relative, Monte Carlo
    stderr: float            # relative
    estimate: float
    reference: float
    tail: float              # relative truncation tail of sum_n J_n^2 = 1


# scatterers per Monte Carlo trial of the power balance
_POWER_BALANCE_SCATTERERS = 16

# The largest kR = omega R / c whose modal reference the Bessel kernel
# evaluates: _modal_order(kR) = ceil(e kR / 2) + 12 stays <= _MAX_ORDER.
_PB_MAX_KR = 2.0 * (_MAX_ORDER - 12) / math.e


def power_balance_check(plan: TrialPlan, cfg: ChannelConfig, omega: float, map=map) -> PowerBalance:
    """Average power on the observation circle vs the per-order sum.

    The circle average of E|field|^2 must equal sum_n E|alpha_n|^2
    J_n(omega R/c)^2 plus the node noise power.  The Monte Carlo residual
    estimates the left side from synthesized fields; ``tail`` substitutes
    the expectation exactly, which leaves the truncation tail of
    sum_n J_n^2 = 1; its orders up to 10^4 bound kR = omega R / c by 7348.76.

    Every random number is drawn first, then ``map`` synthesizes the trials
    one chunk per task: the builtin map runs them here, an executor's ``map``
    on its pool.  Each trial's power is computed alone and the tasks come
    back in order, so the result's bits do not depend on which.
    """
    _check_powers(cfg)
    z = _real_arg(omega, "omega", 0.0) * cfg.radius / cfg.wave_speed
    if not z <= _PB_MAX_KR:  # also false for a kR that overflowed to inf
        raise ValueError(f"omega must keep kR = omega * radius / wave_speed <= {_PB_MAX_KR:.6g}, got kR = {z:g}")
    j_tab = bessel_j_table(_modal_order(z), z)
    modal_sum = cfg.p_max * (j_tab[0] ** 2 + 2.0 * np.sum(j_tab[1:] ** 2))
    m = plan.circle_samples
    noise_term = _node_noise_var(cfg, m)
    reference = modal_sum + noise_term
    exact_ref = cfg.p_max + noise_term
    tail = abs(exact_ref - reference) / max(exact_ref, 1e-300)

    rng = np.random.default_rng(plan.seed)
    t, j = plan.num_trials, _POWER_BALANCE_SCATTERERS
    angles = rng.uniform(0.0, 2.0 * math.pi, (t, j))
    gains = _complex_normal(rng, _gain_scale(cfg, j), (t, j))
    noise = _white_circle_noise(cfg, rng, (t, m)) if cfg.noise_var > 0.0 else None
    nodes = _circle_nodes(m)[None, :, None]
    # trials synthesized at once, one (chunk, m, j) complex block
    chunk = _block_rows(m * j)

    def circle_power(lo: int) -> np.ndarray:
        """Per-trial circle power of the chunk that begins at trial ``lo``."""
        rows = slice(lo, lo + chunk)
        # (chunk, m) field samples on the circle, one scatterer set per trial
        values = _planewave_sum(angles[rows, None, :], gains[rows, None, :], z, nodes)
        if noise is not None:
            values = values + noise[rows]
        return np.mean(np.abs(values) ** 2, axis=1)

    per_trial = np.concatenate(list(map(circle_power, range(0, t, chunk))))
    est = float(per_trial.mean())
    se = float(per_trial.std() / math.sqrt(t))
    scale = max(reference, 1e-300)
    return PowerBalance(
        residual=abs(est - reference) / scale,
        stderr=se / scale,
        estimate=est,
        reference=float(reference),
        tail=float(tail),
    )


def _power_balance_lines(plan: TrialPlan, cfg: ChannelConfig, map) -> list[CheckResult]:
    pb = power_balance_check(plan, cfg, 2.0 * math.pi * cfg.f0, map)
    return [
        _line("power_balance", pb.residual, pb.stderr, pb.residual <= max(3.0 * pb.stderr, 1e-12),
              "circle power vs modal sum at f0"),
        _line("power_balance_exact", pb.tail, 0.0, pb.tail < 1e-6, "truncation tail of the modal sum"),
    ]


# Resolution of the windowed inverse transform, in units where R/c = 1:
# frequency as kR, time as ct/R.  The band runs to kR = 200 and the time
# axis to pad; delta is the support margin of the leakage window.  The
# values meet two conditions: at least 64 time samples fall inside the
# nominal support (2048 >= 64 * pad), and the frequency step resolves the
# kernel's oscillation at the time-axis edge (2048 - 1 >= 2 * kR_max * pad
# / pi, about 509).
_TS_KR_MAX = 200.0
_TS_FREQ_SAMPLES = 2048
_TS_TIME_SAMPLES = 2048
_TS_PAD = 4.0
_TS_DELTA = 0.05

# J_n turns on near kR = n, so an order must turn on well inside the band.
# Leakage: 5.1e-7 at n = 180, 4.0e-6 at 190, 3.5e-4 at 200, 0.031 at 250,
# where the kernel is cut off mid-rise by the band edge.
_TS_MAX_ORDER = int(0.9 * _TS_KR_MAX)

# FFT length of the chirp-z transform: the power of two that holds the
# freq + time - 1 lags of the frequency samples' convolution with the chirp.
_TS_FFT_SIZE = 1 << (_TS_FREQ_SAMPLES + _TS_TIME_SAMPLES - 2).bit_length()


class TimeSupportResult(NamedTuple):
    leakage: float          # energy fraction outside |t| <= (1 + delta) R/c
    edge_time: float        # outermost half-max crossing of the energy envelope, s
    times: np.ndarray       # s
    energy: np.ndarray      # squared kernel in units where R/c = 1


def time_support_check(n: int, radius: float, cfg: ChannelConfig) -> TimeSupportResult:
    """Time support of the order-n receive kernel.

    Inverse-transforms a cosine-tapered J_n(kr) over a wide band and
    measures how much kernel energy escapes |t| <= (1 + delta) r/c.  The
    transform runs in units where r/c = 1, so everything but the time axis
    and the edge is the same for every radius; those two are scaled by r/c
    at the end.  The kernel is even or odd with the order, so only t >= 0
    is evaluated.  A compact result, with an energy edge at r/c, is what
    makes the effective observation time T + 2r/c order-independent.  The
    edge sits at r/c for the low orders the campaign and acceptance
    criterion 6 check (n <= 8), not for every accepted order: at
    r = 0.1 m the half-maximum edge is 3.33e-10 s at n = 0, 2.43e-10 s at
    n = 100 and 5.8e-11 s at n = 180.

    The taper vanishes at both band ends; weighting the band
    symmetrically keeps the leakage fraction comparable across orders,
    which turn on at different frequencies.
    """
    n = _int_arg(n)
    if abs(n) > _TS_MAX_ORDER:
        raise ValueError(
            f"order must satisfy |order| <= {_TS_MAX_ORDER}, 0.9 of the band edge kR = {_TS_KR_MAX:g}, got {n}"
        )
    _real_arg(radius, "radius", 0.0, open_lo=True)
    # Python floats give inf or 0 here where numpy scalars would warn
    t_unit = float(radius) / float(cfg.wave_speed)
    if not 0.0 < t_unit < math.inf:
        raise ValueError(f"radius / wave_speed must be a finite time > 0, got {radius} / {cfg.wave_speed}")
    kr = np.linspace(0.0, _TS_KR_MAX, _TS_FREQ_SAMPLES)
    window = 0.5 * (1.0 - np.cos(2.0 * math.pi * kr / _TS_KR_MAX))
    # trapezoid weights over kR times the tapered spectrum
    weighted = np.convolve(np.diff(kr), [0.5, 0.5]) * window * bessel_j_table(abs(n), kr)[:, -1]
    tau = np.linspace(0.0, _TS_PAD, _TS_TIME_SAMPLES)

    # sum_k weighted_k e^{i theta j k} at every time index j, theta the
    # product of the two grid steps.  jk = (j^2 + k^2 - (j - k)^2) / 2 makes
    # it a convolution with the chirp e^{-i theta m^2 / 2} over the lags
    # m = j - k (Bluestein's chirp-z transform), done by one FFT pair.
    theta = float(tau[1] * kr[1])
    k = np.arange(max(_TS_FREQ_SAMPLES, _TS_TIME_SAMPLES))
    chirp = np.exp(1j * (0.5 * theta * (k * k)))
    gap = np.zeros(_TS_FFT_SIZE - _TS_TIME_SAMPLES - _TS_FREQ_SAMPLES + 1)
    # lags 0 .. times - 1, then -(freqs - 1) .. -1 wrapped to the end
    lags = np.concatenate([chirp[:_TS_TIME_SAMPLES], gap, chirp[_TS_FREQ_SAMPLES - 1 : 0 : -1]]).conj()
    conv = ifft(fft(weighted * chirp[:_TS_FREQ_SAMPLES], _TS_FFT_SIZE) * fft(lags))
    h = conv[:_TS_TIME_SAMPLES] * chirp[:_TS_TIME_SAMPLES]
    # even orders give a cosine transform, odd orders a sine transform
    energy = ((h.real if abs(n) % 2 == 0 else h.imag) / math.pi) ** 2

    inside = tau <= 1.0 + _TS_DELTA
    total = float(_trapezoid(energy, tau))
    leakage = float(_trapezoid(np.where(inside, 0.0, energy), tau)) / total

    half = 0.5 * float(energy.max())
    above = np.nonzero(energy >= half)[0]
    edge_time = float(tau[above[-1]]) * t_unit
    return TimeSupportResult(leakage=leakage, edge_time=edge_time, times=tau * t_unit, energy=energy)


def _time_support_lines(cfg: ChannelConfig) -> list[CheckResult]:
    if not cfg.radius > 0.0:
        return [CheckResult("time_support_leakage", 0.0, 0.0, "skipped", "point observation region")]
    ts = time_support_check(0, cfg.radius, cfg)
    rc = cfg.radius / cfg.wave_speed
    ok = ts.leakage < 0.01 and abs(ts.edge_time - rc) <= 0.05 * rc
    return [_line("time_support_leakage", ts.leakage, 0.0, ok, f"edge at {ts.edge_time:.4g} s vs R/c = {rc:.4g} s")]


class _SnrProbe(NamedTuple):
    """One SNR estimate of the detectability audit and the side of gamma it must fall on."""

    name: str
    plan: TrialPlan
    n: int
    f_edge: float
    below: bool             # pass when snr_hat + 3 stderr < gamma, else when >= gamma
    detail: str


def _snr_probes(cfg: ChannelConfig, plan: TrialPlan) -> list[_SnrProbe]:
    """The detectability audit's probes, in check order; each seeds its own generator.

    Three claims, one line each per probed order: below the critical
    frequency the empirical SNR stays under the threshold; orders whose
    critical frequency sits below the band keep the whole band usable;
    orders at the truncation bound are undetectable across the band.
    """
    probes = []
    n_up = truncation_order(cfg)
    gamma = cfg.gamma
    probe_top = min(n_up - 1, plan.n_probe)
    for i, n in enumerate(range(1, probe_top + 1)):
        f_crit = critical_frequency(cfg, n)
        sub = dataclasses.replace(plan, seed=plan.seed + 7919 * (i + 1))
        if f_crit > 0.0:
            detail = f"threshold {gamma:.6g} at 0.8 F_n"
            probes.append(_SnrProbe(f"snr_below_crit[n={n}]", sub, n, 0.8 * f_crit, True, detail))
        if f_crit < cfg.band_low:
            detail = f"threshold {gamma:.6g} over the band"
            probes.append(_SnrProbe(f"snr_full_band[n={n}]", sub, n, cfg.band_high, False, detail))
    if math.isfinite(critical_frequency(cfg, n_up)):
        sub = dataclasses.replace(plan, seed=plan.seed + 104729)
        detail = "in-band SNR at the truncation order"
        probes.append(_SnrProbe(f"snr_truncated[n={n_up}]", sub, n_up, cfg.band_high, True, detail))
    return probes


def _judge(probe: _SnrProbe, est: SnrEstimate, gamma: float) -> CheckResult:
    high = est.snr_hat + 3.0 * est.stderr
    # both comparisons are written out so that a NaN estimate fails either side
    return _line(probe.name, est.snr_hat, est.stderr, high < gamma if probe.below else high >= gamma, probe.detail)


def _snr_lines(cfg: ChannelConfig, plan: TrialPlan, submit):
    """Submit the detectability audit's probes with ``submit``; return the reader of its lines.

    A ValueError in placing or in estimating a probe makes the audit one
    skipped ``dof_prediction`` line; any other error raises from the reader.
    """
    try:
        probes, error = _snr_probes(cfg, plan), None
    except ValueError as exc:
        probes, error = [], exc
    estimates = [submit(empirical_order_snr, p.plan, cfg, p.n, p.f_edge) for p in probes]

    def read() -> list[CheckResult]:
        try:
            if error is not None:
                raise error
            return [_judge(p, est.result(), cfg.gamma) for p, est in zip(probes, estimates)]
        except ValueError as exc:
            return [CheckResult("dof_prediction", 0.0, 0.0, "skipped", str(exc))]

    return read


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated verification run."""

    config: ChannelConfig
    plan: TrialPlan
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "seed": self.plan.seed,
            "config": self.config.to_dict(),
            "plan": self.plan.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }

    def summary_table(self) -> str:
        lines = [f"{'check':<28} {'estimate':>14} {'stderr':>12} verdict"]
        for c in self.checks:
            lines.append(f"{c.name:<28} {c.estimate:>14.6g} {c.stderr:>12.4g} {c.verdict}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_campaign(cfg: ChannelConfig, plan: TrialPlan) -> CampaignReport:
    """Full verification pass: quadrature, noise, power, time support, SNR.

    Nonzero p_max and noise_var must lie in [1e-100, 1e100], where the
    squared powers stay inside the float range; other powers are rejected
    before any stage runs.

    The noise, power-balance and time-support stages and every SNR probe
    seed their own generator and spend their time in numpy loops that
    release the GIL, so they run at once on a pool of one thread per
    usable CPU; the power balance, the largest stage, is split into
    several tasks of its trials.  Each stage's lines are read back in
    check order, so the report, and the error of the first stage in that
    order to raise, do not depend on the number of workers.
    """
    _check_powers(cfg)
    pool = ThreadPoolExecutor(max_workers=_usable_cpus())
    try:
        noise = pool.submit(noise_variance_check, plan, cfg)
        support = pool.submit(_time_support_lines, cfg)
        snr = _snr_lines(cfg, plan, pool.submit)
        # The power balance draws here and queues its trial tasks behind the
        # other stages, then this thread waits for them.  A pool task must
        # not wait on the pool: on one worker it would wait forever.
        balance = Future()
        try:
            balance.set_result(_power_balance_lines(plan, cfg, pool.map))
        except Exception as exc:
            balance.set_exception(exc)
        checks = (*_orthogonality_lines(plan), *noise.result(), *balance.result(), *support.result(), *snr())
    finally:
        # after a stage raised, the stages not yet started need not run
        pool.shutdown(cancel_futures=True)
    return CampaignReport(config=cfg, plan=plan, checks=checks)
