"""Partial sums of the Stern ratios t(n) = s(n)/s(n+1).

Rows sum exactly: the 2^r ratios of row r add to (3/2) 2^r - 1/2, and
the full prefix up to 2^r adds to (3/2) 2^r - (r+3)/2.  General prefix
sums are pinned between 3N/2 - (r^2 + 7r + 6)/4 and 3N/2 - 1/2 where
2^r <= N < 2^(r+1).  A prefix sum to N = 2^r + delta is the closed form
to 2^r plus the first delta ratios of row r, or, past the middle of the
row, the closed form to 2^(r+1) minus the last 2^r - delta, which the
row's reflection turns into inverse ratios of its head; either way the
work is O(min(delta, 2^r - delta)).  The exact path gathers the
numerators of each denominator in one pass and divides once by the lcm
of the distinct denominators; the float path sums the closed form and
the signed ratios with exact compensated summation, so its stated error
bound is honest.  alpha_estimate generalises the mean to the lag-t
ratios s(n)/s(n+t); only t = 1 has a proven limit, so the estimates are
labeled empirical.
"""

import math
import sys
from fractions import Fraction
from itertools import chain, islice
from operator import truediv
from typing import NamedTuple

from .core import (ResourceLimitError, _check_bits, _check_table,
                   stern_row_head, stern_table)

#: largest N of an exact prefix sum; float mode takes the table cap
DEFAULT_EXACT_CAP = 1 << 20


class SumReport(NamedTuple):
    """Prefix-sum summary: exact value (when computed), compensated
    float value with its error bound, and the proven enclosure."""

    N: int
    exact_sum: Fraction | None
    float_sum: float
    float_error_bound: float
    lower: Fraction
    upper: Fraction


def row_sum(r: int) -> Fraction:
    """Sum of t(n) over row r (2^r <= n < 2^(r+1)): (3 * 2^r - 1) / 2."""
    _check_bits(r, "row exponent")
    return Fraction(3 * (1 << r) - 1, 2)


def prefix_row_sum(r: int) -> Fraction:
    """Sum of t(n) over n < 2^r: (3 * 2^r - r - 3) / 2."""
    _check_bits(r, "row exponent")
    return _prefix_closed(r)


def _prefix_closed(r):
    return Fraction(3 * (1 << r) - r - 3, 2)


def theorem_bounds(N: int) -> tuple[Fraction, Fraction]:
    """Proven enclosure of the prefix sum over [0, N): lower bound
    3N/2 - (r^2 + 7r + 6)/4 (attained only asymptotically) and strict
    upper bound 3N/2 - 1/2, with 2^r <= N < 2^(r+1)."""
    if N < 1:
        raise ValueError("N must be positive")
    r = N.bit_length() - 1
    low = Fraction(3 * N, 2) - Fraction(r * r + 7 * r + 6, 4)
    high = Fraction(3 * N, 2) - Fraction(1, 2)
    return low, high


def _ratio_fsum(table, count, shift, start=0.0):
    # start plus the sum of table[n] / table[n + shift] over n < count;
    # exactly rounded, so the result is independent of summation order
    return math.fsum(chain((start,), map(truediv, islice(table, count),
                                         islice(table, shift,
                                                shift + count))))


def _ratio_exact(table, count) -> Fraction:
    # exact sum of table[n] / table[n + 1] over n < count: numerators
    # gathered per denominator, then one fraction over their lcm
    num = {}
    for a, b in zip(islice(table, count), islice(table, 1, count + 1)):
        num[b] = num.get(b, 0) + a
    D = math.lcm(*num)
    return Fraction(sum(a * (D // b) for b, a in num.items()), D)


def _row_split(N):
    # (float sum over n < N, closed, sign, head): the exact sum is
    # closed + sign * (sum of head[k] / head[k + 1]).  N = 2^r + delta
    # takes the closed form to 2^r and the first delta ratios of row r,
    # or past the middle the closed form to 2^(r+1) minus the last
    # 2^r - delta ratios; the reflection s(2^r + k) = s(2^(r+1) - k)
    # makes those the head's inverse ratios, so the head is reversed.
    _check_table(N)
    r = N.bit_length() - 1
    delta = N - (1 << r)
    if 2 * delta <= 1 << r:
        closed, sign, head = _prefix_closed(r), 1, stern_row_head(r, delta)
    else:
        closed, sign = _prefix_closed(r + 1), -1
        head = stern_row_head(r, (1 << r) - delta)[::-1]
    # fsum rounds symmetrically, so negating its terms negates its result
    fsum = sign * _ratio_fsum(head, len(head) - 1, 1, sign * float(closed))
    return fsum, closed, sign, head


def t_prefix_sum(N: int, mode: str = "exact") -> SumReport:
    """Sum of t(n) over n < N, exact and/or compensated float.

    With N = 2^r + delta, the sum is the closed form over whole rows
    plus or minus min(delta, 2^r - delta) ratios from the head of row
    r, so the work is O(min(delta, 2^r - delta)), not O(N).  Mode
    "exact" computes the exact Fraction (N <= DEFAULT_EXACT_CAP) as one
    fraction over the lcm of those ratios' denominators, and the float
    alongside; mode "float" skips the exact value, so any N within the
    table cap works.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and N > DEFAULT_EXACT_CAP:
        raise ResourceLimitError(
            f"exact sum of {N} terms exceeds cap {DEFAULT_EXACT_CAP}; "
            "use mode='float'")
    float_sum, closed, sign, head = _row_split(N)
    bound = 2 * sys.float_info.epsilon * float_sum
    exact = None
    if mode == "exact":
        exact = closed + sign * _ratio_exact(head, len(head) - 1)
    low, high = theorem_bounds(N)
    return SumReport(N, exact, float_sum, bound, low, high)


def alpha_estimate(t: int, N: int) -> float:
    """Empirical mean of s(n)/s(n+t) over n < N.

    Proven limit 3/2 for t = 1; other lags are conjectural, so treat
    the value as an experimental estimate.  N - 1 + t is bounded by the
    table cap.  Lag 1 takes t_prefix_sum's row split, O(min(delta,
    2^r - delta)) for N = 2^r + delta; other lags have no row closed
    form and sum all N ratios over a table.
    """
    if t < 1:
        raise ValueError("lag must be at least 1")
    if N < t:
        raise ValueError("need N >= t")
    if t == 1:
        return _row_split(N)[0] / N
    table = stern_table(N - 1 + t)
    return _ratio_fsum(table, N, t) / N
