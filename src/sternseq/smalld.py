"""Exact structure of the Stern sequence modulo 2 and 3.

s(n) is even exactly when 3 | n.  The indices with 3 | s(n) form the
closure of {0, 5, 7} under n -> 2n, 8n +- 5, 8n +- 7; their per-row
counts obey a three-term recurrence with closed forms 2^r/4 +
c mu^r + conj(c mu^r), mu = (-1 + sqrt(-7))/2.  mu is an algebraic
integer (mu^2 = -mu - 2), so mu^r = A + B mu with integers A and B, and
the closed forms are evaluated in integers.  The difference between
the two nonzero residue counts mod 3 stays in {0, 1, 2, 3} forever.
Finally, hyperbinary representation counts b(d; n) (binary with digits
up to d - 1) tie back to the sequence through s(n) = b(3; n - 1).
"""

from itertools import accumulate, islice

from .core import (DEFAULT_TABLE_CAP, ResourceLimitError, _check_bits,
                   _check_work, stern_table)
from .exactalg import mat_pow
from .moddist import _pair_census, graph, s_mod_pair

#: largest limit of a3_enumerate, which holds members, not a table
DEFAULT_ENUM_CAP = 1 << 24
# residue byte -> signed step of Delta: 0 -> 0, 1 -> +1, 2 -> -1 (0xff)
_DELTA3_STEP = bytes.maketrans(b"\x02", b"\xff")


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


def a3_enumerate(limit: int) -> list[int]:
    """Sorted indices n < limit with 3 | s(n), grown as a closure.

    Seeds {0, 5, 7}; every positive member n spawns 2n and 8n +- 5,
    8n +- 7.  All children exceed their parent and every n > 1 has
    exactly one parent, so the closure grows one level at a time with
    no repeats, and the levels below `limit` are complete.  limit is at
    most DEFAULT_ENUM_CAP.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > DEFAULT_ENUM_CAP:
        raise ResourceLimitError(
            f"enumeration to {limit} exceeds cap {DEFAULT_ENUM_CAP}")
    members = [0] if limit > 0 else []
    level = [n for n in (5, 7) if n < limit]
    while level:
        members += level
        level = [c for n in level
                 for c in (2 * n, 8 * n - 7, 8 * n - 5, 8 * n + 5, 8 * n + 7)
                 if c < limit]
    members.sort()
    return members


def a3_row_count(r: int) -> int:
    """Count of n in [2^r, 2^(r+1)) with 3 | s(n).

    The recurrence a_r = a_{r-1} + 4 a_{r-3} from seeds a_0 = a_1 = 0,
    a_2 = 2, as one power of its companion matrix A: (a_r, a_{r-1},
    a_{r-2}) is A^(r-2) (2, 0, 0), in O(log r) 3 x 3 products.
    """
    _check_bits(r, "row exponent")
    if r < 2:
        return 0
    return 2 * mat_pow([[1, 0, 4], [1, 0, 0], [0, 1, 0]], r - 2)[0][0]


def a3_row_count_closed(r: int) -> int:
    """Same count from the closed form 2^r/4 + c mu^r + conj(c mu^r),
    c = (-7 + 5 sqrt(-7))/56, in integers: with mu^r = A + B mu it is
    (2^r - A - 2B)/4."""
    _check_bits(r, "row exponent")
    A, B = _mu_power(r)
    return _integral((1 << r) - A - 2 * B, "row count", r)


def t3_zero_closed(r: int) -> int:
    """Exact count of n < 2^r with 3 | s(n), from the closed form
    2^r/4 + c mu^r + conj(c mu^r) + 1/2, c = (7 - sqrt(-7))/56, in
    integers: with mu^r = A + B mu it is (2^r + A + 2)/4."""
    _check_bits(r, "exponent")
    A, _ = _mu_power(r)
    return _integral((1 << r) + A + 2, "prefix zero count", r)


def _mu_power(r: int) -> tuple[int, int]:
    # (A, B) with mu^r = A + B mu, by square-and-multiply in Z[mu]:
    # mu^2 = -mu - 2 gives (a + b mu)(x + y mu) = (ax - 2by) +
    # (ay + bx - by) mu
    A, B = 1, 0
    x, y = 0, 1
    while r:
        if r & 1:
            A, B = A * x - 2 * B * y, A * y + B * x - B * y
        r >>= 1
        if r:
            x, y = x * x - 2 * y * y, 2 * x * y - y * y
    return A, B


def _integral(four_times: int, what: str, r: int) -> int:
    # a closed form that misses an integer is wrong, not to be truncated
    count, rem = divmod(four_times, 4)
    if rem:
        raise ValueError(f"closed-form {what} at r={r} is {four_times}/4, "
                         "not an integer")
    return count


def delta3(N: int, method: str = "auto",
           table_cap: int = DEFAULT_TABLE_CAP) -> int:
    """Delta(N) = T(N; 3, 1) - T(N; 3, 2); always in {0, 1, 2, 3}.

    method "auto" projects the pair census mod 3 over [0, N) in
    O(log N); "table" is the last entry of delta3_trace (capped by
    table_cap), its oracle twin.  Both agree.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if method == "table":
        return delta3_trace(N, table_cap)[-1]
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    census = _pair_census(N, 3)
    ones, twos = graph(3).by_first[1:]
    return sum(census[pos] for pos in ones) - sum(census[pos] for pos in twos)


def delta3_trace(N: int, table_cap: int = DEFAULT_TABLE_CAP) -> list[int]:
    """[Delta(0), ..., Delta(N)] in one pass.

    The residues s(n) mod 3 for n < N are read as bytes, translated to
    signed steps (+1 for residue 1, -1 for residue 2) and accumulated.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N > table_cap:
        raise ResourceLimitError(f"trace of {N} values exceeds cap "
                                 f"{table_cap}")
    t = stern_table(max(N - 1, 0), mod=3)
    # a signed-byte view, not an array: the array module costs every
    # CLI process a shared-library load at import
    steps = memoryview(bytes(islice(t, N)).translate(_DELTA3_STEP))
    return list(accumulate(steps.cast("b"), initial=0))


def delta3_classify(m: int) -> tuple[int, int]:
    """(Delta(2m), Delta(2m+1)) as decided by the pair S_3(m) alone:
    (0,1) -> (0,0), (0,2) -> (3,3), first 1 -> (1,2), first 2 -> (2,1)."""
    i, j = s_mod_pair(m, 3)
    if i == 0:
        return (0, 0) if j == 1 else (3, 3)
    if i == 1:
        return (1, 2)
    return (2, 1)


def hyperbinary(d: int, n: int) -> int:
    """b(d; n): ways to write n = sum eps_i 2^i with digits 0..d-1.

    Values reachable from n at depth k lie in [(n >> k) - d + 1, n >> k]
    and the children (m - e) / 2 of m are contiguous, so one pass up the
    bits with prefix sums costs O(bits * d).  b(3; n) = s(n + 1).  The
    bits of n are bounded by the bit cap, the window by the table cap,
    and the bits * window additions of values of at most d^bits by the
    work cap.
    """
    if d < 2:
        raise ValueError("digit bound must be at least 2")
    if n < 0:
        raise ValueError("target must be nonnegative")
    bits = n.bit_length()
    _check_bits(bits, "target bit length")
    if min(d, n + 1) > DEFAULT_TABLE_CAP:
        raise ResourceLimitError(f"window of {min(d, n + 1)} values exceeds "
                                 f"the table cap {DEFAULT_TABLE_CAP}")
    _check_work(bits * min(d, n + 1), bits * d.bit_length(), "digit counts")
    lo, vals = 0, [1]  # b over the window at depth bit_length(n): {0}
    for k in range(bits - 1, -1, -1):
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
