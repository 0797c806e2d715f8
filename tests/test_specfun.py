"""Special-function kernel tests.

Reference values come from an independent high-precision route: an
ascending power series evaluated with mpmath at 60 digits (written here
from the series definition, not mpmath's own Bessel), mpmath's own
``besselj``, and exact trig and rational identities for the polynomial
families.  The per-argument Miller recurrence, rescaling its whole partial
table, is kept below as the bitwise oracle of the kernel.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# The plain per-argument Miller recurrence, which rescales its whole partial
# table: the bitwise oracle of the kernel for every z >= 1e-8.
_TINY_Z = 1e-8


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


def _leading_terms(n_max: int, z: float) -> np.ndarray:
    """(z/2)^n / n! for n = 0..n_max by the running product, 0 once it underflows."""
    out = np.zeros(n_max + 1)
    pref = 1.0
    for n in range(n_max + 1):
        if n:
            pref *= 0.5 * z / n
        if pref == 0.0:
            break
        out[n] = pref
    return out


def oracle_table(n_max, z):
    """The reference rules called once per argument: Miller at z >= 1e-8, the leading term below."""
    z = np.asarray(z, dtype=float)
    rows = [(_miller_table if zk >= _TINY_Z else _leading_terms)(n_max, float(zk)) for zk in z.ravel()]
    return np.array(rows).reshape(z.shape + (n_max + 1,))


# the cutoff, both sides of it, zero, subnormal and tiny arguments
_special_z = st.sampled_from(
    [0.0, 5e-324, 1e-310, 1e-300, 1e-100, _TINY_Z, math.nextafter(_TINY_Z, 0.0), math.nextafter(_TINY_Z, 1.0), 12.0]
)
_tiny_z = st.one_of(_special_z, st.floats(0.0, _TINY_Z))
_miller_z = st.one_of(st.floats(_TINY_Z, 12.0), st.floats(12.0, 300.0))
_any_z = st.one_of(_tiny_z, _miller_z)

# longer arrays, of the sizes the campaign passes (its frequency grids hold
# 15 to a few hundred arguments)
_longer_args = dict(min_size=15, max_size=131)


@st.composite
def _table_cases(draw):
    """(n_max, z): scalars and short lists, or longer 1-D and (2, k) arrays."""
    z = draw(
        st.one_of(
            _any_z,
            st.lists(_any_z, min_size=0, max_size=6),
            st.lists(_any_z, min_size=6, max_size=6).map(lambda v: np.reshape(v, (2, 3))),
            st.lists(_miller_z, **_longer_args),
            st.lists(_any_z, **_longer_args),
            st.lists(_any_z, min_size=130, max_size=130).map(
                lambda v: np.reshape(v, (2, 65))
            ),
        )
    )
    return draw(st.integers(0, 120 if np.size(z) <= 6 else 40)), z


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
        # z = 12, the top of acceptance criterion 2's range (0, 12]
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
        # the backward recurrence at z=40 against mpmath's own J_n, up to
        # orders far past the turning point
        tab = bessel_j_table(60, 40.0)
        for n in (0, 3, 17, 44, 60):
            assert tab[n] == pytest.approx(float(mp.besselj(n, 40)), rel=1e-10, abs=1e-280)

    @pytest.mark.parametrize("n,z", [(300, 150.0), (1000, 500.0), (3000, 1500.0), (194, 97.0)])
    def test_high_order_below_turning_point(self, n, z):
        # z <= n/2 with z > 12: the values before the turning point are tiny
        ref = mp.besselj(n, z)
        got = bessel_j(n, z)
        if abs(ref) < mp.mpf("1e-300"):
            assert got == 0.0
        else:
            assert abs(got - ref) / abs(ref) < 1e-10

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(0, 10_000), z=st.floats(0.0, 1e4))
    def test_magnitude_cap_whole_order_range(self, n, z):
        assert abs(bessel_j(n, z)) <= 1.0 + 1e-12


class TestBesselKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_table_cases())
    def test_bitwise_equal_to_per_argument_oracle(self, case):
        n_max, z = case
        got = bessel_j_table(n_max, z)
        want = oracle_table(n_max, z)
        assert got.shape == np.shape(z) + (n_max + 1,)
        assert got.tobytes() == want.tobytes()

    def test_array_path_rescale_and_underflow(self):
        # high orders drive the recurrence through its 1e-250 rescale (many
        # times for small z), and tiny arguments underflow the leading term
        # long before n_max
        rng = np.random.default_rng(SEED + 4)
        for n_max, z in (
            (300, rng.uniform(12.0, 14.0, 64)),
            (150, np.geomspace(1e-300, 1e-3, 64)),
            (2000, np.geomspace(_TINY_Z, 12.0, 64)),
        ):
            assert bessel_j_table(n_max, z).tobytes() == oracle_table(n_max, z).tobytes()

    def test_scalar_path_rescale_and_underflow(self):
        # the same regimes at one scalar argument, which runs the
        # per-argument loops; at n_max 300 and z = 13 the recurrence
        # rescales its partial table once, at n_max 10^4 it rescales about
        # 40 times at z = 13 and thousands at 1e-7
        for n_max, z in ((300, 13.0), (150, 1e-200), (10_000, 13.0), (10_000, 1e-7)):
            assert bessel_j_table(n_max, z).tobytes() == oracle_table(n_max, z).tobytes()

    def test_small_array_rescale_and_underflow(self):
        # the same regimes in arrays of one to a few arguments, which run the array path
        rng = np.random.default_rng(SEED + 5)
        for n_max, z in (
            (300, rng.uniform(12.0, 14.0, 1)),
            (300, rng.uniform(12.0, 14.0, 5)),
            (300, np.array([13.0])),
            (150, np.geomspace(1e-300, 1e-3, 5)),
            (150, np.array([1e-200])),
            (10_000, np.array([13.0, 1e-7])),
        ):
            assert bessel_j_table(n_max, z).tobytes() == oracle_table(n_max, z).tobytes()

    def test_array_path_at_every_size(self):
        # mixed, all-tiny and one-recurrence-argument arrays of 0 to 70
        # arguments, the even sizes also as (2, k)
        rng = np.random.default_rng(SEED + 6)
        for size in range(71):
            tiny = rng.uniform(0.0, _TINY_Z, size)
            mixed = np.where(rng.random(size) < 0.5, tiny, rng.uniform(_TINY_Z, 30.0, size))
            one = tiny.copy()
            one[: min(size, 1)] = 13.0
            rng.shuffle(one)
            for z in (mixed, tiny, one, mixed.reshape(2, -1) if size % 2 == 0 else mixed):
                assert bessel_j_table(20, z).tobytes() == oracle_table(20, z).tobytes(), (size, z)

    def test_all_tiny_table_peak(self):
        # one leading-term row at a time into the table: the traced peak is
        # the 2^22-cell table (33.5 MB) and at most 1 MB more
        z = np.linspace(0.0, 1e-9, 419)
        tracemalloc.start()
        try:
            table = bessel_j_table(10_000, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (419, 10_001)
        assert peak <= table.nbytes + 2**20

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(n_max=st.integers(0, 250), z=st.one_of(st.floats(1e-3, 12.0), st.floats(12.0, 300.0)))
    def test_bitwise_at_synthesis_orders(self, n_max, z):
        # one argument over as many orders as a modal synthesis asks for;
        # short tables run most of their steps above n_max, where nothing is stored
        assert bessel_j_table(n_max, z).tobytes() == oracle_table(n_max, z).tobytes()

    def test_scalar_reads_the_table(self):
        for n, z in ((0, 0.0), (7, 3.5), (40, 12.0), (60, 40.0)):
            assert bessel_j(n, z) == bessel_j_table(n, z)[n]


def _worst_errors(n_max, z):
    """Largest absolute error, and relative error where |J| > 1e-3, of the kernel against mpmath's J_n."""
    got = bessel_j_table(n_max, z)
    assert np.isfinite(got).all()
    worst_abs = worst_rel = 0.0
    for zk, row in zip(z, got):
        for n in range(n_max + 1):
            ref = mp.besselj(n, mp.mpf(float(zk)))
            err = abs(mp.mpf(float(row[n])) - ref)
            worst_abs = max(worst_abs, float(err))
            if abs(ref) > 1e-3:
                worst_rel = max(worst_rel, float(err / abs(ref)))
    return worst_abs, worst_rel


class TestBesselAccuracy:
    """The kernel against mpmath over z in (0, 12], orders 0..40, both sides of the 1e-8 cutoff."""

    def test_recurrence_range(self):
        # the range where an ascending series loses digits to cancellation;
        # 40 arguments take the per-argument loop, 80 the array path
        rng = np.random.default_rng(SEED + 6)
        for count in (40, 80):
            z = np.concatenate([rng.uniform(0.0, 12.0, count - 4), [_TINY_Z, 1e-6, 1e-3, 12.0]])
            worst_abs, worst_rel = _worst_errors(40, z)
            assert worst_abs <= 1e-15
            assert worst_rel <= 1e-13

    @pytest.mark.parametrize(
        "z",
        [
            5e-324,
            1e-320,
            1e-300,
            1e-200,
            1e-100,
            1e-30,
            math.nextafter(_TINY_Z, 0.0),
            _TINY_Z,
            math.nextafter(_TINY_Z, 1.0),
        ],
    )
    def test_tiny_arguments_and_cutoff(self, z):
        # the leading term below the cutoff, Miller at and above it; each
        # entry finite and equal to mpmath to rounding where it is a normal
        # float
        worst_abs, worst_rel = _worst_errors(40, [z])
        assert worst_abs <= 1e-15 and worst_rel <= 1e-13
        tab = bessel_j_table(40, z)
        for n in range(41):
            ref = mp.besselj(n, mp.mpf(z))
            if abs(ref) > 1e-290:
                assert abs(tab[n] - ref) / abs(ref) <= 1e-13


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
        with pytest.raises(ValueError, match="finite"):
            bessel_j_table(3, [1.0, math.nan])
        # a NaN deep inside a longer array
        z = np.linspace(0.0, 20.0, 128)
        z[65] = math.nan
        with pytest.raises(ValueError, match=r"^argument must be finite, got nan$"):
            bessel_j_table(3, z)
        # a negative infinity is negative before it is non-finite
        with pytest.raises(ValueError, match=r"^argument must be >= 0 \(use the reflection .*\), got -inf$"):
            bessel_j_table(3, [1.0, -math.inf])

    @pytest.mark.parametrize(
        "z, message",
        [
            ([2.0, math.nan, -1.0], r"must be >= 0 .*, got -1\.0$"),
            ([math.nan, 2e5], r"must be finite, got nan$"),
            ([math.inf, 2e5], r"must be finite, got inf$"),
            ([3.0, 2e5, 3e5], r"must be <= 100000, got 200000\.0$"),
        ],
    )
    def test_first_broken_rule_reported(self, z, message):
        # sign first, then finiteness, then the bound; each with the first offending value
        with pytest.raises(ValueError, match="^argument " + message):
            bessel_j_table(2, z)

    def test_negative_zero_and_empty_accepted(self):
        want = bessel_j_table(3, 0.0)
        assert bessel_j_table(3, -0.0).tobytes() == want.tobytes()
        assert bessel_j_table(3, np.full(64, -0.0)).tobytes() == np.tile(want, (64, 1)).tobytes()
        assert bessel_j_table(3, []).shape == (0, 4)
        assert bessel_j_table(3, np.zeros((0, 5))).shape == (0, 5, 4)

    def test_argument_bound(self):
        assert abs(bessel_j_table(0, 1e5)[0]) <= 1.0
        assert np.all(np.abs(bessel_j_table(1, np.full(64, 1e5))) <= 1.0)
        with pytest.raises(ValueError, match="<= 100000"):
            bessel_j(0, math.nextafter(1e5, math.inf))
        with pytest.raises(ValueError, match=r"^argument must be <= 100000, got 100000\.00000000001$"):
            bessel_j_table(0, np.full(64, np.nextafter(1e5, math.inf)))
        with pytest.raises(ValueError, match="<= 100000"):
            bessel_j_table(2, np.array([[1.0, 2.0], [3.0, 1e8]]))

    @pytest.mark.parametrize("n", [2.7, 2.0, 2.9, math.nan, "3", None])
    def test_non_integer_order_rejected(self, n):
        with pytest.raises(ValueError, match=f"order must be an integer, got {n!r}"):
            bessel_j(n, 1.0)
        with pytest.raises(ValueError, match=f"order must be an integer, got {n!r}"):
            bessel_j_table(n, [1.0, 20.0])

    @pytest.mark.parametrize("n", [-1, 0, 5, 60])
    @pytest.mark.parametrize(
        "z",
        [0.0, -0.0, 5e-324, math.nextafter(_TINY_Z, 0.0), _TINY_Z, 13.0, 1e5, math.nextafter(1e5, math.inf),
         math.nan, math.inf, -math.inf, -0.5],
    )
    def test_one_argument_is_its_array_row(self, n, z):
        # a scalar skips the table and the domain scan; in the domain it gives
        # the row of a one-argument array bit for bit, outside it the same message
        def outcome(arg):
            try:
                return bessel_j_table(n, arg).tobytes()
            except ValueError as exc:
                return str(exc)

        want = outcome(np.array([z]))
        forms = [z, np.float64(z), np.array(z)] + ([int(z)] if math.isfinite(z) and z == int(z) else [])
        for form in forms:
            assert outcome(form) == want, form

    @pytest.mark.parametrize("z", ["1", True, np.True_, None, 1j, [True, False], ["1", "2"], [1.0, None], np.array([1j])])
    def test_non_number_argument_rejected(self, z):
        # the float cast would read a bool as 0 or 1, a string as its number and None as NaN
        with pytest.raises(ValueError, match=r"^argument must be a real number, got "):
            bessel_j_table(2, z)
        with pytest.raises(ValueError, match=r"^argument must be a real number, got "):
            bessel_j_table(2, np.full(64, z, dtype=object) if np.ndim(z) == 0 else z)

    def test_non_number_scalar_named_as_given(self):
        with pytest.raises(ValueError, match=r"^argument must be a real number, got '1'$"):
            bessel_j_table(2, "1")
        with pytest.raises(ValueError, match=r"^argument must be a real number, got True$"):
            bessel_j(2, True)

    def test_integer_types_accepted(self):
        want = bessel_j_table(3, 1.5)
        assert bessel_j_table(np.int64(3), 1.5).tobytes() == want.tobytes()
        assert bessel_j(np.int32(3), 1.5) == want[3]


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

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError, match="order must be an integer, got 2.7"):
            stirling_gamma_lower(2.7)
        assert stirling_gamma_lower(np.int64(5)) == stirling_gamma_lower(5)


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
        with pytest.raises(ValueError):
            chebyshev_second_kind(3, np.array([0.5, 1.5]))

    def test_array_matches_scalar(self):
        grid = np.linspace(-1.0, 1.0, 201)
        for kind in (chebyshev_first_kind, chebyshev_second_kind):
            for n in (0, 1, 2, 5, 9, 40, 1000):
                scalar = np.array([kind(n, float(x)) for x in grid])
                assert kind(n, grid).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("z", [True, np.True_, "0.5", None, 0.5j, [0.5, None], [True, False]])
    @pytest.mark.parametrize("kind", [chebyshev_first_kind, chebyshev_second_kind])
    def test_non_number_argument_rejected(self, kind, z):
        with pytest.raises(ValueError, match=r"^Chebyshev argument must be a real number, got "):
            kind(2, z)

    @pytest.mark.parametrize("kind", [chebyshev_first_kind, chebyshev_second_kind])
    def test_non_integer_degree_rejected(self, kind):
        with pytest.raises(ValueError, match="order must be an integer, got 2.7"):
            kind(2.7, 0.5)
        assert kind(np.int64(2), 0.5) == kind(2, 0.5)

    def test_degree_bound(self):
        assert chebyshev_first_kind(10_000, 1.0) == 1.0
        with pytest.raises(ValueError, match="<= 10000"):
            chebyshev_first_kind(10_001, 0.5)
        with pytest.raises(ValueError, match="<= 10000"):
            chebyshev_second_kind(100_000_000, 0.5)
