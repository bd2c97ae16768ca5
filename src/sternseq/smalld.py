"""Exact structure of the Stern sequence modulo 2 and 3.

s(n) is even exactly when 3 | n.  The indices with 3 | s(n) form the
closure of {0, 5, 7} under n -> 2n, 8n +- 5, 8n +- 7; their per-row
counts obey a three-term recurrence whose closed form lives in
Q(sqrt(-7)), evaluated here exactly.  The difference between the two
nonzero residue counts mod 3 stays in {0, 1, 2, 3} forever.  Finally,
hyperbinary representation counts b(d; n) (binary with digits up to
d - 1) tie back to the sequence through s(n) = b(3; n - 1).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import ResourceLimitError, stern_table
from .moddist import _pair_census, graph, s_mod_pair

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_DIGIT_CAP = 1 << 16


@dataclass(frozen=True)
class Sqrt7Complex:
    """Exact x + y*sqrt(7)*i with rational x, y.

    Closed under ring operations since (sqrt(7)*i)^2 = -7; conjugation
    negates y.  Used to evaluate the row-count closed forms without any
    floating point.
    """

    re: Fraction
    im7: Fraction

    def __add__(self, other):
        return Sqrt7Complex(self.re + other.re, self.im7 + other.im7)

    def __sub__(self, other):
        return Sqrt7Complex(self.re - other.re, self.im7 - other.im7)

    def __mul__(self, other):
        return Sqrt7Complex(self.re * other.re - 7 * self.im7 * other.im7,
                            self.re * other.im7 + self.im7 * other.re)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not needed")
        acc = Sqrt7Complex(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def conjugate(self):
        return Sqrt7Complex(self.re, -self.im7)


#: alias: the exact complex coordinate type used by the closed forms
ComplexExact = Sqrt7Complex

#: (-1 + sqrt(7) i) / 2, the decisive non-real eigenvalue; |MU|^2 = 2.
MU = Sqrt7Complex(Fraction(-1, 2), Fraction(1, 2))

_C_ROW = Sqrt7Complex(Fraction(-7, 56), Fraction(5, 56))
_C_PREFIX = Sqrt7Complex(Fraction(7, 56), Fraction(-1, 56))


def even_stern_index(n: int) -> bool:
    """True iff s(n) is even, which happens exactly when 3 divides n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return n % 3 == 0


def a3_member(n: int) -> bool:
    """True iff 3 | s(n), by reducing along the unique generator chain.

    Every n > 1 is uniquely 2n', 8n' + 5, 8n' - 5, 8n' + 7 or 8n' - 7
    with n' < n, and membership passes through each form unchanged.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    while True:
        if n in (0, 5, 7):
            return True
        if n in (1, 3):
            return False
        if n % 2 == 0:
            n //= 2
        else:
            m = n % 8
            if m == 5:
                n = (n - 5) // 8
            elif m == 3:
                n = (n + 5) // 8
            elif m == 7:
                n = (n - 7) // 8
            else:
                n = (n + 7) // 8


def a3_enumerate(limit: int, max_limit: int = DEFAULT_ENUM_CAP) -> list[int]:
    """Sorted indices n < limit with 3 | s(n), grown as a closure.

    Seeds {0, 5, 7}; every positive member n spawns 2n and 8n +- 5,
    8n +- 7.  All children exceed their parent, so one worklist pass
    below `limit` is complete.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > max_limit:
        raise ResourceLimitError(
            f"enumeration to {limit} exceeds cap {max_limit}")
    seen = {n for n in (0, 5, 7) if n < limit}
    work = [n for n in seen if n > 0]
    while work:
        n = work.pop()
        for child in (2 * n, 8 * n - 7, 8 * n - 5, 8 * n + 5, 8 * n + 7):
            if 0 < child < limit and child not in seen:
                seen.add(child)
                work.append(child)
    return sorted(seen)


def a3_row_count(r: int) -> int:
    """Count of n in [2^r, 2^(r+1)) with 3 | s(n).

    Runs the recurrence a_r = a_{r-1} + 4 a_{r-3} from seeds
    a_0 = a_1 = 0, a_2 = 2.
    """
    if r < 0:
        raise ValueError("row exponent must be nonnegative")
    seeds = (0, 0, 2)
    if r < 3:
        return seeds[r]
    a0, a1, a2 = seeds
    for _ in range(r - 2):
        a0, a1, a2 = a1, a2, a2 + 4 * a0
    return a2


def a3_row_count_closed(r: int) -> int:
    """Same count from the closed form 2^r/4 + c mu^r + conj(c mu^r),
    with c = (-7 + 5 sqrt(7) i)/56, evaluated exactly."""
    if r < 0:
        raise ValueError("row exponent must be nonnegative")
    z = _C_ROW * MU ** r
    return _integral(Fraction(1 << r, 4) + 2 * z.re, "row count", r)


def t3_zero_closed(r: int) -> int:
    """Exact count of n < 2^r with 3 | s(n), from the closed form
    2^r/4 + c mu^r + conj(c mu^r) + 1/2 with c = (7 - sqrt(7) i)/56."""
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    z = _C_PREFIX * MU ** r
    return _integral(Fraction(1 << r, 4) + 2 * z.re + Fraction(1, 2),
                     "prefix zero count", r)


def _integral(total: Fraction, what: str, r: int) -> int:
    # a closed form that misses an integer is wrong, not to be truncated
    if total.denominator != 1:
        raise ValueError(f"closed-form {what} at r={r} is {total}, "
                         "not an integer")
    return total.numerator


def delta3(N: int, method: str = "auto",
           table_cap: int = 1 << 22) -> int:
    """Delta(N) = T(N; 3, 1) - T(N; 3, 2); always in {0, 1, 2, 3}.

    method "auto" projects the pair census mod 3 over [0, N) in
    O(log N); "table" builds s mod 3 up to N (capped by table_cap) and
    is its oracle twin.  Both agree.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if method == "table":
        if N > table_cap:
            raise ResourceLimitError(
                f"table of {N} values exceeds cap {table_cap}")
        t = stern_table(max(N - 1, 0), mod=3)[:N]
        return t.count(1) - t.count(2)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    census = _pair_census(N, 3)
    ones, twos = graph(3).by_first[1:]
    return sum(census[pos] for pos in ones) - sum(census[pos] for pos in twos)


def delta3_trace(N: int, table_cap: int = 1 << 22) -> list[int]:
    """[Delta(0), ..., Delta(N)] in one pass."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N > table_cap:
        raise ResourceLimitError(f"trace of {N} values exceeds cap {table_cap}")
    t = stern_table(max(N - 1, 0), mod=3)
    out = [0]
    acc = 0
    for n in range(N):
        v = t[n]
        if v == 1:
            acc += 1
        elif v == 2:
            acc -= 1
        out.append(acc)
    return out


def delta3_classify(m: int) -> tuple[int, int]:
    """(Delta(2m), Delta(2m+1)) as decided by the pair S_3(m) alone:
    (0,1) -> (0,0), (0,2) -> (3,3), first 1 -> (1,2), first 2 -> (2,1)."""
    i, j = s_mod_pair(m, 3)
    if i == 0:
        return (0, 0) if j == 1 else (3, 3)
    if i == 1:
        return (1, 2)
    return (2, 1)


def hyperbinary(d: int, n: int, max_bits: int = DEFAULT_DIGIT_CAP) -> int:
    """b(d; n): ways to write n = sum eps_i 2^i with digits 0..d-1.

    Values reachable from n at depth k lie in [(n >> k) - d + 1, n >> k]
    and the children (m - e) / 2 of m are contiguous, so one pass up the
    bits with prefix sums costs O(bits * d).  b(3; n) = s(n + 1).
    """
    if d < 2:
        raise ValueError("digit bound must be at least 2")
    if n < 0:
        raise ValueError("target must be nonnegative")
    if n.bit_length() > max_bits:
        raise ResourceLimitError(
            f"target has {n.bit_length()} bits, cap is {max_bits}")
    lo, vals = 0, [1]  # b over the window at depth bit_length(n): {0}
    for k in range(n.bit_length() - 1, -1, -1):
        prefix = list(accumulate(vals, initial=0))
        top = n >> k
        lo_k = max(0, top - d + 1)
        nxt = []
        for m in range(lo_k, top + 1):
            e = min(d - 1, m)
            e -= (e ^ m) & 1  # largest digit of m's parity
            nxt.append(prefix[(m >> 1) - lo + 1] - prefix[(m - e) // 2 - lo]
                       if m else 1)
        lo, vals = lo_k, nxt
    return vals[-1]
