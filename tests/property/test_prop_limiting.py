"""Property-based tests for the finger limiting function g(x)."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.limiting import (
    FingerLimiter,
    ceil_log2_fraction,
    exact_gap,
    finger_limit,
    finger_limits,
    limit_offset,
)

POSITIVE_FRACTIONS = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**9)
)


class TestCeilLog2Fraction:
    @given(POSITIVE_FRACTIONS)
    def test_defining_inequality(self, value):
        k = ceil_log2_fraction(value)
        assert Fraction(2) ** k >= min(value, max(value, 1)) or value <= 1
        if value > 1:
            assert Fraction(2) ** k >= value
            assert Fraction(2) ** (k - 1) < value

    @given(st.integers(min_value=0, max_value=200))
    def test_matches_integer_ceil_log2(self, exponent):
        from repro.util.bits import ceil_log2

        value = (1 << exponent) + 1
        assert ceil_log2_fraction(Fraction(value)) == ceil_log2(value)


class TestFingerLimit:
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.fractions(min_value=Fraction(1, 4), max_value=Fraction(10**6)),
    )
    def test_non_negative(self, x, d0):
        assert finger_limit(x, d0) >= 0

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.fractions(min_value=Fraction(1, 4), max_value=Fraction(100)),
    )
    def test_monotone_in_x(self, x, d0):
        assert finger_limit(x, d0) <= finger_limit(x + 1, d0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_limit_allows_progress(self, x):
        # 2^{g(x)} >= (x+2)/3 > x/4 for d0=1: the allowed jump shrinks at
        # most geometrically, so routes stay O(log) even when limited.
        g = finger_limit(x, 1)
        assert (1 << g) * 4 >= x

    @given(st.integers(min_value=1, max_value=10**6))
    def test_limit_never_reaches_past_root(self, x):
        # The largest allowed finger offset never exceeds the distance to
        # the root by more than the derivation's slack factor.
        g = finger_limit(x, 1)
        assert (1 << g) <= max(2 * (x + 2) // 3, 1)


class TestFingerLimiterConsistency:
    @given(
        st.integers(min_value=4, max_value=24),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_for_ring_matches_manual_fraction(self, bits, n, x):
        limiter = FingerLimiter.for_ring(bits, n)
        assert limiter(x) == finger_limit(x, Fraction(1 << bits, n))


GAPS = st.one_of(
    st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(2**48)),
    st.floats(min_value=1e-6, max_value=2.0**48, allow_nan=False),
)


class TestSingleIntegerForm:
    @given(st.integers(min_value=0, max_value=2**48 - 1), GAPS)
    @example(0, Fraction(1, 2))
    @example(2**48 - 1, Fraction(2**48))
    @example(2**48 - 1, Fraction(2**48, 2**16))  # x*n + 2*size >= 2^63
    @example(8, 1.0)
    @example(3 * 2**20, Fraction(1, 3))  # (x + 2*d0)/3 just above 2^20
    def test_limiter_vector_and_definition_agree(self, x, d0):
        limit = finger_limit(x, d0)
        assert FingerLimiter(d0=d0)(x) == limit
        assert finger_limits([x], d0)[0] == limit

    @given(GAPS)
    @example(Fraction(1, 3))
    def test_offset_is_ceiling_of_twice_gap(self, d0):
        c = limit_offset(d0)
        assert c - 1 < 2 * exact_gap(d0) <= c

    @given(
        st.integers(min_value=8, max_value=48),
        st.integers(min_value=1, max_value=2**22),
    )
    @example(48, 3)
    @example(48, 2**22)
    @example(48, 2**22 - 1)
    @example(8, 2**22)
    def test_float_gap_gives_exact_offset(self, bits, n):
        assert limit_offset(2**bits / n) == limit_offset(Fraction(2**bits, n))
