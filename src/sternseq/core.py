"""Exact arithmetic for the Stern diatomic sequence and its array.

The sequence is defined by s(0) = 0, s(1) = 1 and

    s(2n) = s(n),        s(2n+1) = s(n) + s(n+1).

Everything in this module is integer-exact; no floats appear.  The
consecutive-pair scan gives O(bits) evaluation of single values, the
table filled row by row in slices gives O(N) evaluation of ranges, and
the diatomic array generalises the row structure to arbitrary seed
pairs.
"""

from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

#: largest index of a table of s(n); every O(N) path builds one
DEFAULT_TABLE_CAP = 1 << 22
#: largest bit length of an integer built from a bit-length input
DEFAULT_DIGIT_CAP = 1 << 16
#: largest work of a loop sized by two inputs, in steps of about 1 us
DEFAULT_WORK_CAP = 1 << 22
#: most source indices stern_table reads in one slice; bounds its temporaries
_CHUNK = 1 << 15


class ResourceLimitError(Exception):
    """Raised when an operation would exceed a configured size cap."""


def _check_bits(bits: int, what: str):
    """Raise ValueError when bits is negative and ResourceLimitError
    when it exceeds DEFAULT_DIGIT_CAP."""
    if bits < 0:
        raise ValueError(f"{what} must be nonnegative")
    if bits > DEFAULT_DIGIT_CAP:
        raise ResourceLimitError(f"{what} {bits} exceeds the bit cap "
                                 f"{DEFAULT_DIGIT_CAP}")


def _check_work(steps: int, bits: int, what: str):
    """Raise ResourceLimitError when `steps` loop steps, each adding
    integers of up to `bits` bits, exceed DEFAULT_WORK_CAP.

    On CPython 3.11 a step costs about as much interpreter time as
    adding 8192 bits more, so it counts 1 + bits // 8192.
    """
    work = steps * (1 + bits // 8192)
    if work > DEFAULT_WORK_CAP:
        raise ResourceLimitError(f"{what} take {work} steps, over the "
                                 f"work cap {DEFAULT_WORK_CAP}")


class SternPair(NamedTuple):
    """Consecutive values (s(n), s(n+1)); always coprime."""

    left: int
    right: int


# (exponent, even prefix) descriptors; see block_decompose
BlockDecomposition = list[tuple[int, int]]


def stern_pair(n: int) -> SternPair:
    """Return (s(n), s(n+1)) in one pass over the binary digits of n.

    Scanning from the most significant bit, a 0 bit maps (a, b) to
    (a, a+b) and a 1 bit maps it to (a+b, b), starting from (1, 1) at
    the leading bit.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return SternPair(0, 1)
    a = b = 1
    for bit in bin(n)[3:]:
        if bit == "0":
            b += a
        else:
            a += b
    return SternPair(a, b)


def stern(n: int) -> int:
    """s(n), via the pair scan."""
    return stern_pair(n).left


def stern_ratio(n: int) -> Fraction:
    """t(n) = s(n)/s(n+1) as an exact reduced fraction; t(0) = 0.

    n -> t(n) enumerates every nonnegative rational exactly once.
    """
    a, b = stern_pair(n)
    return Fraction(a, b)


def _check_table(limit: int):
    """Raise ResourceLimitError when a table of s(0..limit) exceeds
    DEFAULT_TABLE_CAP, before anything is allocated."""
    if limit > DEFAULT_TABLE_CAP:
        raise ResourceLimitError(f"table of s(n) to n = {limit} exceeds "
                                 f"the table cap {DEFAULT_TABLE_CAP}")


def stern_table(limit: int, mod: int | None = None) -> list[int]:
    """s(0..limit) as a list, optionally reduced modulo `mod` >= 1.

    Every s(2^k) is preset to 1; then row [2^(r+1), 2^(r+2)) is filled
    from row [2^r, 2^(r+1)) by slices: s(2n) = s(n) copies the row onto
    the even places and s(2n+1) = s(n) + s(n+1) maps `add` over it onto
    the odd ones.  Each slice reads at most _CHUNK + 1 values, all of
    row r or the preset s(2^(r+1)), so no whole-row temporary is made.
    The odd sums index `canon`, one int object per value 0..F(m + 1),
    the Fibonacci bound on s(n) for n < 2^m, m = bit_length(limit): the
    table is one pointer per entry into at most F(m + 1) + 1 shared ints.
    With a modulus the lookup also reduces (two reduced entries sum to at
    most 2 mod - 2), sharing at most `mod` ints.  The workhorse behind
    every large scan in the package: limit > DEFAULT_TABLE_CAP raises
    ResourceLimitError before anything is allocated.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if mod is not None and mod < 1:
        raise ValueError("modulus must be positive")
    _check_table(limit)
    fib, top = 0, 1
    for _ in range(limit.bit_length()):
        fib, top = top, fib + top
    if mod is not None:
        top = min(top, 2 * mod - 2)
    canon = list(range(top + 1 if mod is None else min(top + 1, mod)))
    canon += canon[:top + 1 - len(canon)]
    vals = [0] * (limit + 1)
    one = 1 if mod is None else 1 % mod
    power = 1
    while power <= limit:
        vals[power] = one
        power <<= 1
    # sources n < even_end give s(2n), those n < odd_end give s(2n+1)
    even_end, odd_end = limit // 2 + 1, (limit + 1) // 2
    lo = 1
    while lo < even_end:
        hi = min(lo + _CHUNK, 1 << lo.bit_length(), even_end)
        src = vals[lo:hi + 1]
        vals[2 * lo:2 * hi:2] = src[:-1]
        k = min(hi, odd_end) - lo
        vals[2 * lo + 1:2 * (lo + k):2] = map(canon.__getitem__,
                                              map(add, src, src[1:k + 1]))
        lo = hi
    return vals


def stern_row_head(r: int, count: int) -> list[int]:
    """s(2^r + k) for 0 <= k <= count <= 2^r, from a table of only
    2^m + count entries, m = min(bit_length(count), r).

    The block identity s(2^r + k) = s(2^r - k) + s(k) and the row's
    reflection s(2^r - k) = s(2^(r-1) + k) give s(2^r + k) =
    s(2^(r-1) + k) + s(k) while k <= 2^(r-1); repeated down to row m,
    s(2^r + k) = (r - m) s(k) + s(2^m + k).  When m = r this is a plain
    slice of the table.
    """
    if r < 0:
        raise ValueError("row exponent must be nonnegative")
    if not 0 <= count <= 1 << min(r, count.bit_length()):
        raise ValueError(f"count {count} outside [0, 2^{r}]")
    m = min(count.bit_length(), r)
    table = stern_table((1 << m) + count)
    head = table[1 << m:]
    if m == r:
        return head
    return list(map(add, head, map(mul, table[:count + 1],
                                   repeat(r - m))))


def _check_row(r: int, a: int, b: int):
    """The checks of diatomic_row(r, a, b), run before it allocates."""
    _check_bits(r, "row exponent")
    _check_table(1 << r)
    bits = max(a.bit_length(), b.bit_length()) + r
    _check_work((1 << r) * (1 + bits // 30), bits, "row entries")


def diatomic_row(r: int, a: int, b: int) -> list[int]:
    """Row r of the diatomic array with seed row (a, b).

    Grown by the insertion rule: r times, keep the row on the even
    places and write the sum of each adjacent pair between them.  Entry
    k (0 <= k <= 2^r) then equals s(2^r - k)*a + s(k)*b, which tests
    verify.  Rows up to r = 22 fit the table cap.  The entries are
    at most 2^r max(|a|, |b|); the work cap counts one step per 30-bit
    word of each, so it bounds the row's memory and, with its charge
    per 8192 bits, the quadratic cost of writing the row in decimal.
    """
    _check_row(r, a, b)
    row = [a, b]
    for _ in range(r):
        new = [0] * (2 * len(row) - 1)
        new[0::2] = row
        new[1::2] = map(add, row, row[1:])
        row = new
    return row


def stern_block(r: int, n: int, k: int) -> int:
    """s(2^r * n + k) for 0 <= k <= 2^r, without forming the full index.

    Uses the block identity s(2^r n + k) = s(2^r - k)s(n) + s(k)s(n+1).
    r is bounded by the bit cap.
    """
    _check_bits(r, "block exponent")
    if not 0 <= k <= (1 << r):
        raise ValueError(f"offset k={k} outside [0, 2^{r}]")
    sn, sn1 = stern_pair(n)
    return stern((1 << r) - k) * sn + stern(k) * sn1


def block_decompose(N: int) -> BlockDecomposition:
    """Split [0, N) into dyadic blocks [2^r_j * M_j, 2^r_j * (M_j + 1)).

    Returns (r_j, M_j) pairs, one per set bit of N, with r_1 > r_2 > ...
    The blocks tile [0, N) in order, every M_j is even (M_1 = 0), and
    the block right endpoints are the partial bit-prefix sums of N.
    """
    if N < 1:
        raise ValueError("N must be positive")
    blocks = []
    prefix = 0
    for r in range(N.bit_length() - 1, -1, -1):
        if N >> r & 1:
            blocks.append((r, prefix >> r))
            prefix += 1 << r
    return blocks
