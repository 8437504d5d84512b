"""SimTime: exact arithmetic, ordering, units, formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel import SimTime, ZERO_TIME, cycles_to_time, fs, ms, ns, ps, sec, us


class TestConstruction:
    def test_unit_scaling(self):
        assert ns(1).femtoseconds == 1_000_000
        assert ps(1).femtoseconds == 1_000
        assert us(1).femtoseconds == 10**9
        assert ms(1).femtoseconds == 10**12
        assert sec(1).femtoseconds == 10**15
        assert fs(7).femtoseconds == 7

    def test_float_values_round_to_resolution(self):
        assert ns(1.5).femtoseconds == 1_500_000
        assert fs(0.4).femtoseconds == 0
        assert fs(0.6).femtoseconds == 1

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="unknown time unit"):
            SimTime(1, "minutes")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ns(-1)
        with pytest.raises(ValueError, match="negative"):
            SimTime.from_fs(-5)

    def test_from_fs(self):
        assert SimTime.from_fs(123).femtoseconds == 123

    def test_zero_constant(self):
        assert ZERO_TIME.is_zero()
        assert not ZERO_TIME
        assert bool(ns(1))


class TestArithmetic:
    def test_add_sub(self):
        assert ns(3) + ns(4) == ns(7)
        assert us(1) - ns(1) == ns(999)

    def test_sub_underflow_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ns(1) - ns(2)

    def test_scalar_multiply(self):
        assert ns(3) * 4 == ns(12)
        assert 4 * ns(3) == ns(12)
        assert ns(10) * 0.5 == ns(5)

    def test_division_by_time_gives_ratio(self):
        assert ns(10) / ns(5) == 2.0

    def test_division_by_scalar_gives_time(self):
        assert ns(10) / 2 == ns(5)

    def test_floordiv_and_mod(self):
        assert ns(10) // ns(3) == 3
        assert ns(10) % ns(3) == ns(1)

    def test_zero_division_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ns(1) / ZERO_TIME
        with pytest.raises(ZeroDivisionError):
            ns(1) // ZERO_TIME
        with pytest.raises(ZeroDivisionError):
            ns(1) % ZERO_TIME

    def test_cross_type_arithmetic_not_supported(self):
        with pytest.raises(TypeError):
            ns(1) + 5  # type: ignore[operator]


class TestComparison:
    def test_ordering(self):
        assert ns(1) < ns(2) <= ns(2) < us(1)
        assert us(1) > ns(999)

    def test_equality_and_hash(self):
        assert ns(1000) == us(1)
        assert hash(ns(1000)) == hash(us(1))
        assert ns(1) != ns(2)
        assert ns(1) != "1 ns"

    def test_sorting(self):
        times = [us(1), ns(5), ms(1), ZERO_TIME]
        assert sorted(times) == [ZERO_TIME, ns(5), us(1), ms(1)]


class TestConversion:
    def test_to_unit_roundtrips(self):
        t = ns(1234)
        assert t.to_ns() == 1234.0
        assert t.to_us() == 1.234
        assert t.to_ps() == 1_234_000.0
        assert abs(t.to_seconds() - 1.234e-6) < 1e-18

    def test_str_picks_exact_unit(self):
        assert str(ns(5)) == "5 ns"
        assert str(us(1)) == "1 us"
        assert str(fs(3)) == "3 fs"

    def test_repr_contains_fs(self):
        assert "fs" in repr(ns(1))


class TestCyclesToTime:
    def test_cycle_conversion(self):
        assert cycles_to_time(100, 100e6) == us(1)
        assert cycles_to_time(1, 1e9) == ns(1)

    def test_zero_cycles(self):
        assert cycles_to_time(0, 1e6) == ZERO_TIME

    def test_invalid_arguments(self):
        for n_cycles, frequency_hz in ((1, 0), (-1, 1e6)):
            for _ in range(2):  # raised on every call, not only the first
                with pytest.raises(ValueError):
                    cycles_to_time(n_cycles, frequency_hz)

    def test_repeated_call_returns_the_same_object(self):
        assert cycles_to_time(37, 133e6) is cycles_to_time(37, 133e6)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.one_of(
                    st.sampled_from([100e6, 133e6, 200e6]),
                    st.integers(1, 10**10),
                    st.floats(1e3, 1e10),
                ),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_memo_matches_the_formula(self, calls):
        for n_cycles, frequency_hz in calls + calls[::-1]:  # each pair twice
            expected = int(round(n_cycles * 1e15 / frequency_hz))
            assert cycles_to_time(n_cycles, frequency_hz).femtoseconds == expected


class TestProperties:
    @given(st.integers(0, 10**18), st.integers(0, 10**18))
    def test_addition_commutes(self, a, b):
        ta, tb = SimTime.from_fs(a), SimTime.from_fs(b)
        assert ta + tb == tb + ta
        assert (ta + tb).femtoseconds == a + b

    @given(st.integers(0, 10**18), st.integers(0, 10**18), st.integers(0, 10**18))
    def test_addition_associates(self, a, b, c):
        ta, tb, tc = (SimTime.from_fs(v) for v in (a, b, c))
        assert (ta + tb) + tc == ta + (tb + tc)

    @given(st.integers(0, 10**15), st.integers(1, 10**6))
    def test_divmod_reconstructs(self, a, b):
        ta, tb = SimTime.from_fs(a), SimTime.from_fs(b)
        q, r = ta // tb, ta % tb
        assert tb * q + r == ta
        assert r < tb

    @given(st.integers(0, 10**18))
    def test_ordering_total(self, a):
        t = SimTime.from_fs(a)
        assert t <= t
        assert not (t < t)
