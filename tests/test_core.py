"""Core sequence: bit scan, doubling table, diatomic rows, block splits."""
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import insertion_row, naive_stern, stern_table_scalar
import sternseq
from sternseq import (DEFAULT_DIGIT_CAP, DEFAULT_TABLE_CAP,
                      ResourceLimitError, SternPair, block_decompose,
                      diatomic_row, stern, stern_block, stern_pair,
                      stern_ratio, stern_table)
from sternseq.core import stern_row_head

# first seventeen values, computable by hand from the recurrence
PREFIX = [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4, 1]


def test_small_values_by_hand():
    assert [stern(n) for n in range(17)] == PREFIX
    assert stern(11) == 5


def test_rejects_negative_index():
    with pytest.raises(ValueError):
        stern(-1)


@given(st.integers(min_value=0, max_value=1 << 40))
def test_bit_scan_agrees_with_recurrence(n):
    assert stern(n) == naive_stern(n)


@given(st.integers(min_value=0, max_value=1 << 40))
def test_pair_is_consecutive_values(n):
    p = stern_pair(n)
    assert isinstance(p, SternPair)
    assert (p.left, p.right) == (stern(n), stern(n + 1))


@given(st.integers(min_value=0, max_value=1 << 40))
def test_consecutive_values_coprime(n):
    assert math.gcd(*stern_pair(n)) == 1


def test_table_matches_pointwise(table16):
    idx = list(range(200)) + [4095, 10000, 65535, 65536]
    assert all(table16[n] == stern(n) for n in idx)
    assert len(table16) == (1 << 16) + 1


def test_table_mod_matches_plain(table16):
    for d in (2, 3, 7, 12):
        tm = stern_table(4096, mod=d)
        assert tm == [v % d for v in table16[:4097]]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 3, 4]),
       st.one_of(st.none(), st.integers(min_value=1, max_value=300)))
def test_table_matches_scalar_loop_at_every_chunk_edge(chunk, mod):
    """Tiny chunks put a chunk or row boundary at every small limit."""
    want = stern_table_scalar(300, mod)
    with mock.patch.object(sternseq.core, "_CHUNK", chunk):
        for limit in range(301):
            assert stern_table(limit, mod) == want[:limit + 1]


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


CHUNK_LIMITS = ((1 << 17) - 1, (1 << 17) + 1, 3 * (1 << 15) + 1)
# for each limit, F = F(m + 1) bounds its values (m = bit_length(limit)):
# moduli around F and around (F + 2) / 2, where 2 mod - 2 crosses F
EDGE_MODULI = sorted({mod for F in {_fib(n.bit_length() + 1)
                                    for n in CHUNK_LIMITS}
                      for mod in (F - 1, F, F + 1,
                                  (F + 1) // 2, (F + 2) // 2, (F + 4) // 2)})


@pytest.mark.parametrize("mod", [None, 1, 2, 3, 7, 12, 256, 257, 10 ** 30,
                                 *EDGE_MODULI])
def test_table_matches_scalar_loop_across_real_chunks(mod):
    """Equal to the oracle, and every entry is one of at most F(m + 1) + 1
    shared int objects, or of at most `mod` of them."""
    want = stern_table_scalar((1 << 17) + 1, mod)
    for limit in CHUNK_LIMITS:
        table = stern_table(limit, mod)
        assert table == want[:limit + 1]
        shared = _fib(limit.bit_length() + 1) + 1
        if mod is not None:
            shared = min(shared, mod)
        assert len(set(map(id, table))) <= shared, (limit, mod)


def test_table_rejects_nonpositive_modulus():
    for limit, mod in ((5, 0), (0, 0), (10, -3)):
        with pytest.raises(ValueError, match="modulus"):
            stern_table(limit, mod)


def test_mirror_symmetry_within_rows(table16):
    for r in range(1, 16):
        for k in range(0, (1 << r) + 1, max(1, (1 << r) // 64)):
            assert table16[(1 << r) + k] == table16[(1 << (r + 1)) - k]


def test_row_head_matches_scalar_table():
    """Counts from 0 to the whole row, so both the reduction to row
    m < r and the plain table slice (m = r) are compared."""
    want = stern_table_scalar(1 << 15)
    for r in range(15):
        counts = {0, 1, 1 << max(r - 1, 0)}
        counts |= {c for j in range(r + 1) for c in ((1 << j) - 1, 1 << j)}
        for count in sorted(counts):
            assert (stern_row_head(r, count)
                    == want[1 << r:(1 << r) + count + 1]), (r, count)


def test_row_head_rejects_counts_outside_the_row():
    for r, count in ((0, 2), (3, 9), (5, 33), (4, -1)):
        with pytest.raises(ValueError, match="outside"):
            stern_row_head(r, count)
    with pytest.raises(ValueError, match="nonnegative"):
        stern_row_head(-1, 0)


@pytest.mark.parametrize("call,what", [
    (lambda r: diatomic_row(r, 0, 1), "row exponent"),
    (lambda r: stern_block(r, 0, 0), "block exponent"),
    (sternseq.brocot_row, "row exponent"),
    (lambda r: sternseq.walk_counts(2, r), "walk length"),
    (sternseq.a3_row_count, "row exponent"),
    (sternseq.a3_row_count_closed, "row exponent"),
    (sternseq.t3_zero_closed, "exponent"),
    (sternseq.row_sum, "row exponent"),
    (sternseq.prefix_row_sum, "row exponent"),
])
def test_exponent_checks(call, what):
    """Every exponent input goes through _check_bits: a negative one is
    a ValueError naming it, one past the bit cap a ResourceLimitError."""
    with pytest.raises(ValueError, match=f"^{what} must be nonnegative$"):
        call(-1)
    with pytest.raises(ResourceLimitError,
                       match=f"^{what} {DEFAULT_DIGIT_CAP + 1} exceeds"):
        call(DEFAULT_DIGIT_CAP + 1)


def test_ratio_recurrences():
    for n in range(1, 1 << 10):
        t = stern_ratio(n)
        assert stern_ratio(2 * n) == 1 / (1 + 1 / t)
        assert stern_ratio(2 * n + 1) == 1 + t


def test_ratio_at_zero_is_zero():
    assert stern_ratio(0) == Fraction(0)


def test_row_against_insertion_rule():
    for r in range(8):
        for a, b in ((0, 1), (1, 1), (2, 5)):
            assert diatomic_row(r, a, b) == insertion_row(r, a, b)


def test_row_entries_closed_form(table16):
    r = 9
    row = diatomic_row(r, 3, 4)
    for k in range(0, (1 << r) + 1):
        assert row[k] == table16[(1 << r) - k] * 3 + table16[k] * 4


def test_row_golden():
    assert diatomic_row(3, 0, 1) == [0, 1, 1, 2, 1, 3, 2, 3, 1]
    assert len(diatomic_row(10, 0, 1)) == (1 << 10) + 1


def test_row_cap(monkeypatch):
    """Rows share the table cap of stern_table, which bounds the
    largest index: row r needs s(2^r), so r = 22 is the last that fits."""
    for r in (23, 25, DEFAULT_DIGIT_CAP + 1):
        with pytest.raises(ResourceLimitError):
            diatomic_row(r, 0, 1)
    with pytest.raises(ResourceLimitError, match="table cap"):
        stern_table(DEFAULT_TABLE_CAP + 1)
    # wide seeds take the work cap, one step per 30-bit word of an entry
    with pytest.raises(ResourceLimitError, match="work cap"):
        diatomic_row(14, 10 ** 19000, 1)
    top = (1 << 16) - 1
    assert len(diatomic_row(19, top, top)) == (1 << 19) + 1
    # the same boundary at a small cap, where the fitting row is cheap
    monkeypatch.setattr(sternseq.core, "DEFAULT_TABLE_CAP", 1 << 12)
    assert len(diatomic_row(12, 0, 1)) == (1 << 12) + 1
    with pytest.raises(ResourceLimitError):
        diatomic_row(13, 0, 1)


@given(st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=1 << 10),
       st.integers(min_value=0, max_value=1 << 12))
def test_block_entry_identity(r, n, k):
    k = k % (1 << r) if r else 0
    assert stern_block(r, n, k) == stern((n << r) + k)


def test_block_exponent_cap(monkeypatch):
    """A block exponent past the bit cap is rejected before 2^r is
    built or any value is scanned."""
    def no_scan(n):
        raise AssertionError("scanned an index")

    monkeypatch.setattr(sternseq.core, "stern_pair", no_scan)
    monkeypatch.setattr(sternseq.core, "stern", no_scan)
    with pytest.raises(ResourceLimitError, match="bit cap"):
        stern_block(DEFAULT_DIGIT_CAP + 1, 1, 0)


@given(st.integers(min_value=1, max_value=1 << 48))
def test_block_decompose_tiles_the_prefix(N):
    blocks = block_decompose(N)
    edges = []
    for r, m in blocks:
        assert m % 2 == 0
        edges.append((m << r, (m + 1) << r))
    edges.sort()
    assert edges[0][0] == 0 and edges[-1][1] == N
    assert all(edges[i][1] == edges[i + 1][0] for i in range(len(edges) - 1))


def test_block_decompose_known_splits():
    assert block_decompose(13) == [(3, 0), (2, 2), (0, 12)]
    assert block_decompose(7) == [(2, 0), (1, 2), (0, 6)]
    assert block_decompose(1 << 10) == [(10, 0)]


def test_block_decompose_rejects_nonpositive():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            block_decompose(bad)
