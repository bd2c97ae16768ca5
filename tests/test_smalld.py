"""The extra structure available at d = 2 and d = 3."""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sternseq
from oracles import (a3_row_recurrence, count_digit_strings, delta3_scan,
                     naive_stern, product_coefficients)
from sternseq import (DEFAULT_DIGIT_CAP, DEFAULT_TABLE_CAP,
                      ResourceLimitError, a3_enumerate, a3_member,
                      a3_row_count, a3_row_count_closed, count_T, delta3,
                      delta3_classify, delta3_trace, even_stern_index,
                      hyperbinary, stern, t3_zero_closed)

A3_BELOW_100 = [0, 5, 7, 10, 14, 20, 28, 33, 35, 40, 45, 47, 49, 51,
                56, 61, 63, 66, 70, 73, 75, 80, 85, 87, 90, 94, 98]


def test_mu_power_norm_and_recurrence():
    """mu^r = A + B mu has norm A^2 - AB + 2B^2 = |mu|^(2r) = 2^r, and
    mu^2 = -mu - 2 gives X_(r+2) = -X_(r+1) - 2 X_r for A and for B."""
    for r in [*range(301), 6144, 7167, 1 << 16]:
        A, B = sternseq.smalld._mu_power(r)
        assert A * A - A * B + 2 * B * B == 1 << r
        A1, B1 = sternseq.smalld._mu_power(r + 1)
        A2, B2 = sternseq.smalld._mu_power(r + 2)
        assert (A2, B2) == (-A1 - 2 * A, -B1 - 2 * B)


def test_even_values_are_multiples_of_three(table16):
    for n in range(1 << 12):
        assert even_stern_index(n) == (table16[n] % 2 == 0) == (n % 3 == 0)


def test_a3_member_against_table(table16_mod3):
    for n in range(1 << 14):
        assert a3_member(n) == (table16_mod3[n] == 0)


@given(st.integers(min_value=0, max_value=1 << 30))
def test_a3_member_against_recurrence(n):
    assert a3_member(n) == (naive_stern(n) % 3 == 0)


def test_a3_enumerate_golden_and_closure():
    got = a3_enumerate(100)
    assert got == A3_BELOW_100
    full = set(a3_enumerate(1 << 12))
    for n in sorted(full):
        if n and 2 * n < (1 << 12):
            assert 2 * n in full
        for child in (8 * n - 7, 8 * n - 5, 8 * n + 5, 8 * n + 7):
            if n and 0 < child < (1 << 12):
                assert child in full


def test_a3_enumerate_matches_membership():
    assert a3_enumerate(2048) == [n for n in range(2048) if a3_member(n)]


def test_a3_enumerate_cap():
    with pytest.raises(ResourceLimitError):
        a3_enumerate(1 << 25)


def test_a3_row_count_scan_and_closed_form(table16_mod3):
    for r in range(14):
        scanned = sum(1 for n in range(1 << r, 2 << r)
                      if table16_mod3[n] == 0)
        assert a3_row_count(r) == scanned
    for r in [*range(301), 6144, 7167, 1 << 16]:
        assert a3_row_count(r) == a3_row_count_closed(r)


def test_a3_row_count_seeds():
    assert [a3_row_count(r) for r in range(6)] == [0, 0, 2, 2, 2, 10]


def test_a3_row_count_matches_recurrence_loop():
    """The matrix power equals r - 2 steps of the recurrence, for every
    small r and for rows thousands of steps out."""
    for r in [*range(301), 6144, 7167, 1 << 16]:
        assert a3_row_count(r) == a3_row_recurrence(r)


def test_t3_zero_closed_matches_count(table16_mod3):
    for r in range(15):
        assert t3_zero_closed(r) == table16_mod3[:1 << r].count(0)
    for r in range(15, 2049):
        assert t3_zero_closed(r) == count_T(1 << r, 3, 0)


def test_delta3_definition_and_methods():
    for N in (0, 1, 17, 1000, 4096):
        direct = count_T(N, 3, 1) - count_T(N, 3, 2)
        assert delta3(N) == direct
        assert delta3(N, method="table") == direct
    assert delta3(4) == 1


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=1 << 14))
def test_delta3_census_matches_table_and_trace(N):
    assert delta3(N) == delta3(N, method="table") == delta3_trace(N)[-1]


def test_delta3_census_far_past_the_table_cap():
    N = (1 << 1000) - 1
    counts = [count_T(N, 3, i) for i in range(3)]
    assert sum(counts) == N
    delta = delta3(N)
    assert delta == counts[1] - counts[2]
    assert delta in (0, 1, 2, 3)
    # N = 2m + 1, so the pair S_3(m) decides Delta(N - 1) and Delta(N)
    assert (delta3(N - 1), delta) == delta3_classify(N // 2)
    assert count_T(1 << 1000, 3, 0) == t3_zero_closed(1000)


def test_closed_form_checks_survive_optimize():
    """Under python -O a wrong power of mu still raises instead of
    truncating a non-integer."""
    src = (
        "import sys\n"
        "from sternseq import smalld\n"
        "mu_power = smalld._mu_power\n"
        "smalld._mu_power = lambda r: (mu_power(r)[0] + 1, mu_power(r)[1])\n"
        "for fn in (smalld.a3_row_count_closed, smalld.t3_zero_closed):\n"
        "    try:\n"
        "        fn(5)\n"
        "    except ValueError:\n"
        "        print('raised')\n"
        "print(sys.flags.optimize)\n")
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-O", "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised", "1"]


def test_delta3_trace_prefix():
    assert delta3_trace(8) == [0, 0, 1, 2, 1, 2, 2, 1, 1]


def test_delta3_trace_matches_running_count():
    for N in list(range(40)) + [1000, 4097]:
        assert delta3_trace(N) == delta3_scan(N)


def test_delta3_stays_in_band():
    tr = delta3_trace(1 << 14)
    assert set(tr[1:]) == {0, 1, 2, 3}


def test_delta3_classify_decides_children():
    tr = delta3_trace(1 << 13)
    for m in range(1, 1 << 12):
        assert (tr[2 * m], tr[2 * m + 1]) == delta3_classify(m)


def test_delta3_doubling_fixed_point():
    tr = delta3_trace(1 << 14)
    for N in range(1, 1 << 12):
        assert tr[2 * N] == tr[4 * N]


def test_hyperbinary_small_table():
    assert [hyperbinary(3, n) for n in range(9)] == [1, 1, 2, 1, 3, 2, 3, 1, 4]
    assert hyperbinary(3, 4) == 3


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=150))
def test_hyperbinary_against_digit_search(d, n):
    assert hyperbinary(d, n) == count_digit_strings(d, n)


@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_hyperbinary_window_against_digit_search(d, n):
    assert hyperbinary(d, n) == count_digit_strings(d, n)


def test_hyperbinary_identities():
    for n in range(1 << 10):
        assert hyperbinary(2, n) == 1
        assert stern(n + 1) == hyperbinary(3, n)


def test_hyperbinary_parity_law():
    for d in range(2, 9):
        for n in range(1 << 9):
            assert (hyperbinary(d, n) % 2 == 1) == (n % d in (0, 1))


def test_hyperbinary_monotone_in_digit_bound():
    for n in range(200):
        for d in range(2, 6):
            assert hyperbinary(d, n) <= hyperbinary(d + 1, n)


def test_hyperbinary_cap():
    """The target's bits take the bit cap, its window of min(d, n + 1)
    values the table cap; a wide d with a small n stays cheap."""
    with pytest.raises(ResourceLimitError, match="bit cap"):
        hyperbinary(3, 1 << DEFAULT_DIGIT_CAP)
    with pytest.raises(ResourceLimitError, match="table cap"):
        hyperbinary(DEFAULT_TABLE_CAP + 1, DEFAULT_TABLE_CAP)
    assert hyperbinary(DEFAULT_TABLE_CAP + 1, 5) == hyperbinary(6, 5)


def test_generating_product_matches_sequence():
    coeffs = product_coefficients(256)
    for n in range(1, 257):
        assert coeffs[n] == stern(n)
