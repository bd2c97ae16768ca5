"""Row sums and prefix sums of the ratio sequence, exact and float."""
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import pairwise_fraction_sum, t_prefix_sum_scan
import sternseq
from sternseq import (DEFAULT_EXACT_CAP, DEFAULT_TABLE_CAP,
                      ResourceLimitError, SumReport, alpha_estimate,
                      prefix_row_sum, row_sum, stern_ratio, t_prefix_sum,
                      theorem_bounds)
from sternseq.sums import _ratio_exact, _ratio_fsum


def direct_row_sum(r):
    return sum(stern_ratio(n) for n in range(1 << r, 2 << r))


def test_row_sum_golden():
    assert row_sum(0) == 1
    assert row_sum(1) == Fraction(5, 2)
    assert row_sum(3) == Fraction(23, 2)


def test_row_sum_matches_direct():
    for r in range(11):
        assert row_sum(r) == direct_row_sum(r)


def test_prefix_row_sum_matches_direct():
    acc = Fraction(0)
    for r in range(12):
        assert prefix_row_sum(r) == acc
        acc += direct_row_sum(r)
    # the two closed forms are consistent with one another
    for r in range(12):
        assert prefix_row_sum(r + 1) - prefix_row_sum(r) == row_sum(r)


def test_theorem_bounds_enclose_every_prefix():
    acc = Fraction(0)
    for N in range(1, 1 << 11):
        acc += stern_ratio(N - 1)
        lo, hi = theorem_bounds(N)
        assert lo <= acc < hi


def test_bounds_shape():
    lo, hi = theorem_bounds(8)
    assert (lo, hi) == (Fraction(3), Fraction(23, 2))


def test_t_prefix_sum_exact_golden():
    rep = t_prefix_sum(8)
    assert isinstance(rep, SumReport)
    assert rep.exact_sum == 9
    assert rep.float_sum == 9.0
    assert rep.lower <= rep.exact_sum < rep.upper


def test_t_prefix_sum_exact_vs_pairwise():
    for N in (1, 2, 100, 4096):
        want = pairwise_fraction_sum(
            [stern_ratio(n) for n in range(N)])
        assert t_prefix_sum(N).exact_sum == want


# 2^r - 1, 2^r, 2^r + 1 and 3 * 2^(r-1) +- 1: both sides of a row
# edge and of a row's middle, where the head gives way to the complement
ROW_EDGES = sorted({N for r in range(1, 17)
                    for N in ((1 << r) - 1, 1 << r, (1 << r) + 1,
                              3 * (1 << (r - 1)) - 1, 3 * (1 << (r - 1)) + 1)})


def check_against_scan(N):
    exact, fsum = t_prefix_sum_scan(N)
    rep = t_prefix_sum(N)
    assert rep.exact_sum == exact
    assert abs(Fraction(rep.float_sum) - exact) <= Fraction(
        rep.float_error_bound)
    assert abs(rep.float_sum - fsum) <= math.ulp(fsum)
    assert t_prefix_sum(N, mode="float").float_sum == rep.float_sum
    assert alpha_estimate(1, N) == rep.float_sum / N


@settings(deadline=None)
@given(st.integers(1, 1 << 13))
def test_prefix_sum_matches_full_table_scan(N):
    check_against_scan(N)


@pytest.mark.parametrize("N", ROW_EDGES)
def test_prefix_sum_matches_full_table_scan_at_row_edges(N):
    check_against_scan(N)


def test_float_tracks_exact_within_bound():
    for k in range(4, 17, 4):
        rep = t_prefix_sum(1 << k)
        err = abs(rep.float_sum - float(rep.exact_sum))
        assert err <= rep.float_error_bound
        assert rep.float_error_bound < 1e-9 * (1 << k)


def test_float_mode_only():
    rep = t_prefix_sum(1 << 10, mode="float")
    assert rep.exact_sum is None
    assert rep.float_sum == t_prefix_sum(1 << 10).float_sum


def test_exact_cap():
    """Just past DEFAULT_EXACT_CAP only float mode runs; past the table
    cap neither does, and alpha_estimate shares that cap."""
    N = DEFAULT_EXACT_CAP + 1
    with pytest.raises(ResourceLimitError):
        t_prefix_sum(N)
    assert t_prefix_sum(N, mode="float").exact_sum is None
    with pytest.raises(ResourceLimitError, match="table cap"):
        t_prefix_sum(DEFAULT_TABLE_CAP + 1, mode="float")
    with pytest.raises(ResourceLimitError, match="table cap"):
        alpha_estimate(2, DEFAULT_TABLE_CAP)


def test_caps_fire_before_any_table(monkeypatch):
    """Lag-1 sums build no table of N, so they check the caps
    themselves, with the table's own message."""
    def no_table(*args, **kwargs):
        raise AssertionError("stern_table called past a cap")
    monkeypatch.setattr(sternseq.core, "stern_table", no_table)
    monkeypatch.setattr(sternseq.sums, "stern_table", no_table)
    N = DEFAULT_TABLE_CAP + 1
    table_msg = re.escape(f"table of s(n) to n = {N} exceeds the table cap")
    with pytest.raises(ResourceLimitError, match=table_msg):
        t_prefix_sum(N, mode="float")
    with pytest.raises(ResourceLimitError, match=table_msg):
        alpha_estimate(1, N)
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        t_prefix_sum(DEFAULT_EXACT_CAP + 1)


def test_mode_validation():
    with pytest.raises(ValueError):
        t_prefix_sum(16, mode="fast")
    with pytest.raises(ValueError):
        t_prefix_sum(0)


@pytest.mark.parametrize("shift", [1, 2, 5])
def test_ratio_fsum_matches_generator_form(table16, shift):
    for count in (0, 1, 7, 1000, len(table16) - shift):
        want = math.fsum(table16[n] / table16[n + shift]
                         for n in range(count))
        assert _ratio_fsum(table16, count, shift) == want


def test_alpha_estimate_lag_one():
    a = alpha_estimate(1, 1 << 16)
    assert abs(a - 1.5) < 0.001


def test_alpha_estimate_rejects_bad_input():
    with pytest.raises(ValueError):
        alpha_estimate(0, 1 << 10)


@given(st.lists(st.fractions(min_value=0, max_value=10), max_size=40))
def test_pairwise_sum_is_plain_sum(terms):
    assert pairwise_fraction_sum(terms) == sum(terms, Fraction(0))


@given(st.integers(0, 20), st.lists(st.integers(1, 12), max_size=40))
def test_ratio_exact_is_plain_sum(head, tail):
    """Small denominators repeat, so several numerators share one slot
    of the lcm; every count from 0 to the end of the table is summed."""
    table = [head] + tail
    for count in range(len(table)):
        want = sum((Fraction(table[n], table[n + 1]) for n in range(count)),
                   Fraction(0))
        assert _ratio_exact(table, count) == want
