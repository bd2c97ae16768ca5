"""Exact arithmetic for the Stern diatomic sequence and its array.

The sequence is defined by s(0) = 0, s(1) = 1 and

    s(2n) = s(n),        s(2n+1) = s(n) + s(n+1).

Everything in this module is integer-exact; no floats appear.  The
consecutive-pair scan gives O(bits) evaluation of single values, the
doubling table gives O(N) evaluation of ranges, and the diatomic array
generalises the row structure to arbitrary seed pairs.
"""

from fractions import Fraction
from typing import NamedTuple

#: largest index of a table of s(n); every O(N) path builds one
DEFAULT_TABLE_CAP = 1 << 22
#: largest bit length of an integer built from a bit-length input
DEFAULT_DIGIT_CAP = 1 << 16
#: largest work of a loop sized by two inputs, in steps of about 1 us
DEFAULT_WORK_CAP = 1 << 22


class ResourceLimitError(Exception):
    """Raised when an operation would exceed a configured size cap."""


def _check_bits(bits: int, what: str):
    """Raise ResourceLimitError when bits exceeds DEFAULT_DIGIT_CAP."""
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


def stern_table(limit: int, mod: int | None = None) -> list[int]:
    """s(0..limit) as a list, optionally reduced modulo `mod`.

    Filled bottom-up by the doubling recurrence; the workhorse behind
    every large scan in the package, and the one place their size is
    checked: limit > DEFAULT_TABLE_CAP raises ResourceLimitError before
    anything is allocated.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > DEFAULT_TABLE_CAP:
        raise ResourceLimitError(f"table of s(n) to n = {limit} exceeds "
                                 f"the table cap {DEFAULT_TABLE_CAP}")
    vals = [0] * (limit + 1)
    if limit >= 1:
        vals[1] = 1 if mod is None else 1 % mod
    if mod is None:
        for n in range(1, limit // 2 + 1):
            v = vals[n]
            m = 2 * n
            vals[m] = v
            if m + 1 <= limit:
                vals[m + 1] = v + vals[n + 1]
    else:
        for n in range(1, limit // 2 + 1):
            v = vals[n]
            m = 2 * n
            vals[m] = v
            if m + 1 <= limit:
                vals[m + 1] = (v + vals[n + 1]) % mod
    return vals


def diatomic_row(r: int, a: int, b: int) -> list[int]:
    """Row r of the diatomic array with seed row (a, b).

    Entry k (0 <= k <= 2^r) equals s(2^r - k)*a + s(k)*b.  This closed
    form agrees with iterating the insertion rule (keep a row, insert
    the sum of each adjacent pair between them) r times, which tests
    verify.  Rows up to r = 22 fit the table cap.
    """
    if r < 0:
        raise ValueError("row exponent must be nonnegative")
    _check_bits(r, "row exponent")
    half = 1 << r
    s = stern_table(half)
    return [s[half - k] * a + s[k] * b for k in range(half + 1)]


def stern_block(r: int, n: int, k: int) -> int:
    """s(2^r * n + k) for 0 <= k <= 2^r, without forming the full index.

    Uses the block identity s(2^r n + k) = s(2^r - k)s(n) + s(k)s(n+1).
    """
    if r < 0:
        raise ValueError("block exponent must be nonnegative")
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
