"""Special-function kernel tests.

Reference values come from an independent high-precision route: an
ascending power series evaluated with mpmath at 60 digits (written here
from the series definition, not mpmath's own Bessel), plus exact trig
and rational identities for the polynomial families.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from wavedof.specfun import (
    bessel_j,
    bessel_j_table,
    chebyshev_first_kind,
    chebyshev_second_kind,
    stirling_gamma_lower,
)

mp.mp.dps = 60

SEED = 20260822


def oracle_j(n, z):
    """J_n(z) by ascending series at 60 digits."""
    z = mp.mpf(z)
    term = (z / 2) ** n / mp.factorial(n)
    total = term
    q = -((z / 2) ** 2)
    m = 1
    while True:
        term *= q / (m * (n + m))
        total += term
        if abs(term) < abs(total) * mp.mpf(10) ** (-55):
            return total
        m += 1


# frozen oracle outputs (60-digit series, rounded to double)
J5_AT_1 = 0.00024975773021123443
J0_AT_12 = 0.047689310796833537
J16_AT_20 = 0.14517984041982906
J0_FIRST_ZERO = 2.4048255576957728
STIRLING_1 = 0.9221370088957891
STIRLING_5 = 118.01916795759008
T7_AT_03 = -0.8461632
U7_AT_03 = -0.6785664


class TestBesselValues:
    def test_zero_argument(self):
        assert bessel_j(0, 0.0) == 1.0
        for n in (1, 2, 7, 40):
            assert bessel_j(n, 0.0) == 0.0

    def test_frozen_series_value(self):
        assert bessel_j(5, 1.0) == pytest.approx(J5_AT_1, rel=1e-13)

    def test_frozen_boundary_value(self):
        # z = 12 sits exactly on the series/recurrence dispatch boundary
        assert bessel_j(0, 12.0) == pytest.approx(J0_AT_12, rel=1e-11)

    def test_frozen_recurrence_value(self):
        assert bessel_j(16, 20.0) == pytest.approx(J16_AT_20, rel=1e-11)

    def test_first_zero_of_j0(self):
        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if bessel_j(0, lo) * bessel_j(0, mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(J0_FIRST_ZERO, abs=1e-12)
        assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-15

    def test_against_oracle_grid(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for n in (0, 1, 2, 5, 16, 33, 64):
            for z in rng.uniform(1e-3, 100.0, 12):
                ref = oracle_j(n, z)
                if abs(ref) < mp.mpf("1e-280"):
                    continue
                err = abs(bessel_j(n, float(z)) - ref) / abs(ref)
                worst = max(worst, float(err))
        assert worst < 1e-10

    def test_table_matches_scalar(self):
        # cross-validates the two evaluation routes: the table uses the
        # backward recurrence at z=40 while high-order scalars re-series
        tab = bessel_j_table(60, 40.0)
        for n in (0, 3, 17, 44, 60):
            assert tab[n] == pytest.approx(bessel_j(n, 40.0), rel=1e-10, abs=1e-280)

    def test_table_small_argument(self):
        tab = bessel_j_table(8, 2.5)
        for n in range(9):
            assert tab[n] == pytest.approx(bessel_j(n, 2.5), rel=1e-13)


class TestBesselInvariants:
    def test_three_term_recurrence(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(400):
            n = int(rng.integers(1, 64))
            z = float(rng.uniform(0.5, 100.0))
            tab = bessel_j_table(n + 1, z)
            resid = tab[n - 1] + tab[n + 1] - (2.0 * n / z) * tab[n]
            scale = max(abs(tab[n - 1]), abs(tab[n]), abs(tab[n + 1]), 1e-300)
            assert abs(resid) / scale < 1e-8

    def test_small_argument_dominance(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            z = float(rng.uniform(0.0, n / 2.0))
            # small-argument envelope (z/2)^n / n!, in the log domain
            bound = 0.0 if z == 0.0 else math.exp(n * math.log(0.5 * z) - math.lgamma(n + 1))
            assert abs(bessel_j(n, z)) <= bound * (1.0 + 1e-6)

    def test_magnitude_cap(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(200):
            n = int(rng.integers(0, 80))
            z = float(rng.uniform(0.0, 120.0))
            assert abs(bessel_j(n, z)) <= 1.0 + 1e-12


class TestBesselDomain:
    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="reflection"):
            bessel_j(-1, 1.0)

    def test_huge_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(10_001, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -0.5)

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, math.nan)
        with pytest.raises(ValueError):
            bessel_j(0, math.inf)


class TestStirling:
    def test_frozen_values(self):
        assert stirling_gamma_lower(1).value == pytest.approx(STIRLING_1, rel=1e-14)
        assert stirling_gamma_lower(5).value == pytest.approx(STIRLING_5, rel=1e-14)
        assert stirling_gamma_lower(5).value < 120.0

    def test_lower_bound_holds(self):
        for n in range(1, 501):
            assert stirling_gamma_lower(n).log_value < math.lgamma(n + 1)

    def test_log_and_value_consistent(self):
        for n in (1, 10, 100, 170):
            b = stirling_gamma_lower(n)
            assert b.value == pytest.approx(math.exp(b.log_value), rel=1e-12)

    def test_large_n_overflows_to_inf(self):
        b = stirling_gamma_lower(200)
        assert math.isinf(b.value) and math.isfinite(b.log_value)

    def test_domain(self):
        with pytest.raises(ValueError):
            stirling_gamma_lower(0)


class TestChebyshev:
    def test_base_cases(self):
        for x in np.linspace(-1.0, 1.0, 7):
            x = float(x)
            assert chebyshev_first_kind(0, x) == 1.0
            assert chebyshev_first_kind(1, x) == x
            assert chebyshev_second_kind(0, x) == 1.0
            assert chebyshev_second_kind(1, x) == 2.0 * x

    def test_frozen_values(self):
        assert chebyshev_first_kind(7, 0.3) == pytest.approx(T7_AT_03, rel=1e-13)
        assert chebyshev_second_kind(7, 0.3) == pytest.approx(U7_AT_03, rel=1e-13)

    def test_cosine_identity(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(1000):
            n = int(rng.integers(0, 51))
            theta = float(rng.uniform(0.0, math.pi))
            assert chebyshev_first_kind(n, math.cos(theta)) == pytest.approx(
                math.cos(n * theta), abs=1e-12
            )

    def test_second_kind_bounded(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            x = float(rng.uniform(-1.0, 1.0))
            assert abs(chebyshev_second_kind(n, x)) <= n + 1.0 + 1e-9

    def test_second_kind_endpoint(self):
        for n in range(12):
            assert chebyshev_second_kind(n, 1.0) == n + 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            chebyshev_first_kind(3, 1.5)
        with pytest.raises(ValueError):
            chebyshev_second_kind(3, -1.0001)
        with pytest.raises(ValueError):
            chebyshev_first_kind(-1, 0.5)
