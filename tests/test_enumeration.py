"""Index <-> rational bijection, continued fractions, Brocot rows, ?."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import cfrac_value, farey_fractions, naive_stern
from sternseq import (INFINITY, DyadicRational, brocot_row, index_of_rational,
                      minkowski_q, rational_of_index, reverse_bits, stern,
                      to_odd_cfrac)

rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
)


def test_enumeration_golden_values():
    expected = {1: Fraction(1), 2: Fraction(1, 2), 6: Fraction(2, 3),
                9: Fraction(4, 3), 11: Fraction(5, 2), 14: Fraction(3, 4)}
    for n, x in expected.items():
        assert rational_of_index(n) == x
        assert index_of_rational(x) == n


def test_enumeration_is_the_ratio_sequence():
    for n in range(1, 1 << 10):
        assert rational_of_index(n) == Fraction(stern(n), stern(n + 1))


@given(st.integers(min_value=1, max_value=1 << 32))
def test_round_trip_from_index(n):
    assert index_of_rational(rational_of_index(n)) == n


@given(rationals)
def test_round_trip_from_rational(x):
    assert rational_of_index(index_of_rational(x)) == x


def test_index_rejects_nonpositive():
    with pytest.raises(ValueError):
        rational_of_index(0)
    with pytest.raises(ValueError):
        index_of_rational(Fraction(0))


@given(rationals)
def test_odd_cfrac_shape_and_value(x):
    if x < 1:
        x = 1 / x
    cf = to_odd_cfrac(x)
    assert len(cf) % 2 == 1
    assert all(a >= 1 for a in cf[1:])
    assert cfrac_value(cf) == x


def test_quotient_sum_is_row_number_plus_one():
    """The quotients of t(n) always add up to bit_length(n)."""
    for n in range(1, 1 << 12):
        x = rational_of_index(n)
        if x < 1:
            x = 1 / x
        assert sum(to_odd_cfrac(x)) == n.bit_length()


def test_reverse_bits_examples():
    assert reverse_bits(1) == 1
    assert reverse_bits(13) == 11
    assert reverse_bits(11) == 13
    assert reverse_bits(6) == 3


@given(st.integers(min_value=1, max_value=1 << 40).filter(lambda n: n % 2))
def test_reverse_bits_involutive_on_odd(n):
    assert reverse_bits(reverse_bits(n)) == n


def test_bit_reversal_swaps_row_halves(table16):
    for r in range(2, 13):
        for k in range(1, 1 << r, 2):
            m = reverse_bits((1 << r) + k)
            lhs = Fraction(table16[(1 << r) + k], table16[(1 << r) - k])
            assert lhs == Fraction(table16[m], table16[m + 1])


def test_brocot_row_small():
    assert brocot_row(0) == [Fraction(0), INFINITY]
    assert brocot_row(2) == [Fraction(0), Fraction(1, 2), Fraction(1),
                             Fraction(2), INFINITY]


def test_brocot_row_entries_and_determinant(table16):
    for r in range(1, 9):
        row = brocot_row(r)
        assert len(row) == (1 << r) + 1
        assert row[-1] is INFINITY
        for k in range(1 << r):
            assert row[k] == Fraction(table16[k], table16[(1 << r) - k])
        for x, y in zip(row[:-2], row[1:-1]):
            assert x < y
            assert y.numerator * x.denominator - x.numerator * y.denominator == 1
        # the step up to 1/0 has determinant 1 as well
        assert row[-2].denominator == 1


def test_infinity_ordering_and_repr():
    assert str(INFINITY) == "1/0"
    assert Fraction(10 ** 9) < INFINITY
    assert not INFINITY < Fraction(1)
    # the other comparisons, derived from __lt__ and __eq__
    assert INFINITY > Fraction(10 ** 9) and INFINITY >= Fraction(1)
    assert not INFINITY <= Fraction(1) and not Fraction(1) >= INFINITY
    assert INFINITY <= INFINITY and INFINITY >= INFINITY
    assert not INFINITY > INFINITY and not INFINITY < INFINITY


def test_minkowski_golden():
    assert minkowski_q(Fraction(0)).as_fraction() == 0
    assert minkowski_q(Fraction(1)).as_fraction() == 1
    assert minkowski_q(Fraction(1, 2)).as_fraction() == Fraction(1, 2)
    assert minkowski_q(Fraction(1, 3)).as_fraction() == Fraction(1, 4)


def test_minkowski_rejects_above_one():
    with pytest.raises(ValueError):
        minkowski_q(Fraction(3, 2))


def test_minkowski_sends_row_entries_to_dyadics(table16):
    for r in range(9):
        for ell in range(1, (1 << r) + 1, 2):
            x = Fraction(table16[ell], table16[(1 << (r + 1)) - ell])
            assert minkowski_q(x).as_fraction() == Fraction(ell, 1 << r)


def test_minkowski_strictly_increasing():
    sample = farey_fractions(25)
    assert len(sample) >= 200
    images = [minkowski_q(x).as_fraction() for x in sample[:220]]
    assert all(a < b for a, b in zip(images, images[1:]))


def test_dyadic_rational_normal_form():
    d = DyadicRational(4, 3)  # 4/8
    assert (d.numerator, d.exponent) == (1, 1)
    assert d.as_fraction() == Fraction(1, 2)
    assert DyadicRational(0, 5).as_fraction() == 0


@given(st.integers(min_value=1, max_value=1 << 30))
def test_naive_cross_check_of_enumeration(n):
    x = rational_of_index(n)
    assert x == Fraction(naive_stern(n), naive_stern(n + 1))
