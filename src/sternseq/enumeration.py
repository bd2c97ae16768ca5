"""The Stern enumeration of the positive rationals and relatives.

Index n maps to t(n) = s(n)/s(n+1).  The inverse direction goes through
the odd-length continued fraction of the target: its quotients, read in
reverse, are the run lengths of the binary expansion of n (ones first).
Values below 1 are handled by reflecting within the same power-of-two
block, since t(2^r + k) * t(2^(r+1) - k - 1) = 1.

Also here: Stern-Brocot rows s(k)/s(2^r - k), binary bit reversal, and
the Minkowski question-mark function restricted to rationals.
"""

from fractions import Fraction
from functools import total_ordering

from .core import _check_bits, stern_pair, stern_table


@total_ordering
class _Infinity:
    """The 1/0 right endpoint of a Stern-Brocot row.

    A distinct value rather than a sentinel fraction; compares greater
    than every fraction so rows stay totally ordered.
    """

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "1/0"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("sternseq-infinity")

    def __lt__(self, other):
        return False


INFINITY = _Infinity()


class DyadicRational:
    """numerator / 2**exponent in canonical form (numerator odd or zero)."""

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int):
        if numerator < 0:
            raise ValueError("numerator must be nonnegative")
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        while numerator and numerator % 2 == 0 and exponent > 0:
            numerator //= 2
            exponent -= 1
        if numerator == 0:
            exponent = 0
        self.numerator = numerator
        self.exponent = exponent

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __eq__(self, other):
        if isinstance(other, DyadicRational):
            return (self.numerator, self.exponent) == (other.numerator,
                                                       other.exponent)
        return NotImplemented

    def __hash__(self):
        return hash((self.numerator, self.exponent))

    def __repr__(self):
        return f"DyadicRational({self.numerator}, {self.exponent})"


# odd-length quotient list [a0, a1, ..., a_2v], every entry >= 1
CFrac = list[int]


def rational_of_index(n: int) -> Fraction:
    """t(n) for n >= 1; every positive rational appears exactly once."""
    if n < 1:
        raise ValueError("enumeration index must be positive")
    a, b = stern_pair(n)
    return Fraction(a, b)


def to_odd_cfrac(x: Fraction) -> "CFrac":
    """Continued fraction of x >= 1 with an odd number of quotients.

    Standard Euclidean quotients; if their count is even the last
    quotient a >= 2 is rewritten as (a - 1, 1).  All quotients >= 1.
    """
    if x < 1:
        raise ValueError("continued fraction form requires x >= 1")
    p, q = x.numerator, x.denominator
    cf = []
    while q:
        cf.append(p // q)
        p, q = q, p % q
    if len(cf) % 2 == 0:
        cf[-1] -= 1
        cf.append(1)
    return cf


def index_of_rational(x: Fraction) -> int:
    """The unique n >= 1 with t(n) = x, for positive rational x.

    For x >= 1 the binary word of n is rebuilt from the odd continued
    fraction [c_0, ..., c_{2v}] of x as c_{2v} ones, c_{2v-1} zeros,
    ..., ending with c_0 ones.  For x < 1, the index m of 1/x reflects
    to n = 3 * 2^floor(log2 m) - m - 1.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("only positive rationals are enumerated")
    if x >= 1:
        cf = to_odd_cfrac(x)
        _check_bits(sum(cf), "index bit length")
        n = 0
        ones = True
        for run in reversed(cf):
            n <<= run
            if ones:
                n |= (1 << run) - 1
            ones = not ones
        return n
    m = index_of_rational(1 / x)
    return 3 * (1 << (m.bit_length() - 1)) - m - 1


def reverse_bits(n: int) -> int:
    """The integer whose binary digits are those of n reversed.

    For even n the reversal drops the trailing zeros (they would become
    leading zeros); the map is an involution on odd arguments only.
    """
    if n < 1:
        raise ValueError("bit reversal needs a positive integer")
    return int(bin(n)[:1:-1], 2)


def brocot_row(r: int):
    """Row r of the Stern-Brocot array: s(k)/s(2^r - k) for k = 0..2^r.

    Entries strictly increase from 0/1 to the distinguished INFINITY
    value at k = 2^r.  Rows up to r = 22 fit the table cap.
    """
    _check_bits(r, "row exponent")
    half = 1 << r
    s = stern_table(half)
    row: list = [Fraction(s[k], s[half - k]) for k in range(half)]
    row.append(INFINITY)
    return row


def minkowski_q(x: Fraction) -> DyadicRational:
    """Minkowski question-mark of a rational x in [0, 1].

    Sums ?(x) = 2 * sum_k (-1)^(k+1) 2^-(a_1 + ... + a_k) over the
    continued-fraction quotients of x = [0; a_1, a_2, ...] in one
    Euclidean pass, by Horner in powers of two.  The last term is the
    smallest power, so the numerator comes out odd.
    """
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError("question-mark domain here is [0, 1]")
    if x == 0:
        return DyadicRational(0, 0)
    if x == 1:
        return DyadicRational(1, 0)
    p, q = x.numerator, x.denominator
    num, exponent, sign = 0, 0, 1
    while p:
        a = q // p
        p, q = q % p, p
        exponent += a
        _check_bits(exponent, "quotient sum")
        num = (num << a) + sign
        sign = -sign
    return DyadicRational(num, exponent - 1)
