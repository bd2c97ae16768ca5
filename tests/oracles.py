"""Slow reference implementations used only to validate the library.

Everything here prefers the most literal reading of a definition over
speed.  The package is checked against these oracles, never the other
way around.
"""
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from mpmath import mp


@lru_cache(maxsize=None)
def naive_stern(n):
    """s(n) straight from the two-case recurrence."""
    if n < 2:
        return n
    if n % 2 == 0:
        return naive_stern(n // 2)
    return naive_stern(n // 2) + naive_stern(n // 2 + 1)


def stern_table_scalar(limit, mod=None):
    """s(0..limit), optionally mod `mod`, by the indexed doubling loop:
    for each n, store s(2n) = s(n) and s(2n+1) = s(n) + s(n+1)."""
    vals = [0] * (limit + 1)
    if limit >= 1:
        vals[1] = 1 if mod is None else 1 % mod
    for n in range(1, limit // 2 + 1):
        v = vals[n]
        m = 2 * n
        vals[m] = v
        if m + 1 <= limit:
            vals[m + 1] = v + vals[n + 1]
            if mod is not None:
                vals[m + 1] %= mod
    return vals


def t_prefix_sum_scan(N):
    """(exact, fsum) of t(n) = s(n)/s(n+1) over n < N, from a table of
    s(0..N): the exact sum gathers the numerators of each denominator
    and makes one fraction over their lcm; the float sum is math.fsum
    of all N rounded ratios."""
    s = stern_table_scalar(N)
    num = {}
    for a, b in zip(s[:N], s[1:]):
        num[b] = num.get(b, 0) + a
    D = math.lcm(*num)
    exact = Fraction(sum(a * (D // b) for b, a in num.items()), D)
    return exact, math.fsum(a / b for a, b in zip(s[:N], s[1:]))


def delta3_scan(N):
    """[Delta(0), ..., Delta(N)] by a running count over s(n) mod 3:
    +1 for residue 1, -1 for residue 2."""
    out, acc = [0], 0
    for n in range(N):
        v = naive_stern(n) % 3
        if v == 1:
            acc += 1
        elif v == 2:
            acc -= 1
        out.append(acc)
    return out


def pairwise_fraction_sum(terms):
    """Sum of Fractions merged pairwise in a balanced tree, which keeps
    the intermediate denominators small."""
    items = list(terms)
    if not items:
        return Fraction(0)
    while len(items) > 1:
        merged = [a + b for a, b in zip(items[0::2], items[1::2])]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def a3_row_recurrence(r):
    """a_r by r - 2 steps of a_r = a_{r-1} + 4 a_{r-3} from the seeds
    a_0 = a_1 = 0, a_2 = 2."""
    seeds = (0, 0, 2)
    if r < 3:
        return seeds[r]
    a0, a1, a2 = seeds
    for _ in range(r - 2):
        a0, a1, a2 = a1, a2, a2 + 4 * a0
    return a2


def insertion_row(r, a, b):
    """Row r of the diatomic array grown by literal insertion.

    Start from (a, b) and, r times, write the sum of every adjacent
    pair between its two parents.
    """
    row = [a, b]
    for _ in range(r):
        nxt = []
        for x, y in zip(row, row[1:]):
            nxt += [x, x + y]
        nxt.append(row[-1])
        row = nxt
    return row


def pair_histogram(N, d):
    """Occurrences of each pair (s(n) mod d, s(n+1) mod d) over n < N,
    read off a table of s grown by the two-case recurrence: the O(N)
    scan twin of the pair census."""
    s = [0, 1]
    for n in range(2, N + 1):
        s.append(s[n // 2] if n % 2 == 0 else s[n // 2] + s[n // 2 + 1])
    return Counter((s[n] % d, s[n + 1] % d) for n in range(N))


def residue_counts(N, d):
    """T(N; d, i) for every residue i, from the pair histogram."""
    counts = [0] * d
    for (i, _), c in pair_histogram(N, d).items():
        counts[i] += c
    return counts


def _primes_dividing(d):
    return [p for p in range(2, d + 1)
            if d % p == 0 and all(p % q for q in range(2, p))]


def product_density(d, i):
    """The paper's limiting density of s(n) == i (mod d):
    (1/d) * prod over primes p | d of p/(p+1) if p | i, else
    p^2/(p^2-1)."""
    out = Fraction(1, d)
    for p in _primes_dividing(d):
        out *= Fraction(p, p + 1) if i % p == 0 else Fraction(p * p,
                                                              p * p - 1)
    return out


def product_index_I(d):
    """I(d) = d * prod over primes p | d of (p+1)/p."""
    out = Fraction(d)
    for p in _primes_dividing(d):
        out *= Fraction(p + 1, p)
    return out


def cfrac_value(quotients):
    """Value of the simple continued fraction [a0; a1, a2, ...]."""
    acc = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = a + 1 / acc
    return acc


@lru_cache(maxsize=None)
def count_digit_strings(d, n):
    """Number of ways to write n as sum(e_i * 2^i) with 0 <= e_i < d.

    Branches on the lowest digit, which must match n's parity.
    """
    if n == 0:
        return 1
    total = 0
    for digit in range(n % 2, min(d - 1, n) + 1, 2):
        total += count_digit_strings(d, (n - digit) // 2)
    return total


def product_coefficients(limit):
    """Coefficients of X * prod_j (1 + X^(2^j) + X^(2^(j+1))).

    The product is truncated at degree `limit`; only factors whose
    smallest new exponent fits below the cut contribute.
    """
    poly = [0] * (limit + 1)
    poly[1] = 1
    j = 0
    while (1 << j) <= limit:
        lo, hi = 1 << j, 2 << j
        nxt = poly[:]
        for i in range(lo, limit + 1):
            nxt[i] += poly[i - lo]
        for i in range(hi, limit + 1):
            nxt[i] += poly[i - hi]
        poly = nxt
        j += 1
    return poly


def farey_fractions(max_den):
    """All reduced p/q in [0, 1] with q <= max_den, ascending."""
    from math import gcd
    out = {Fraction(0), Fraction(1)}
    for q in range(1, max_den + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def dense_minimal_polynomial(M):
    """Monic minimal polynomial of the square matrix M, ascending.

    The literal reading "first dependency among I, M, M^2, ...": each
    power is flattened to a vector and reduced against an echelon basis
    of the earlier ones by exact rational elimination.
    """
    n = len(M)
    echelon = []  # (pivot position, reduced vector, combination)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        vec = [Fraction(e) for row in power for e in row]
        combo = [Fraction(0)] * len(echelon) + [Fraction(1)]
        for pivot, evec, ecombo in echelon:
            c = vec[pivot]
            if c:
                f = c / evec[pivot]
                vec = [v - f * ev for v, ev in zip(vec, evec)]
                for pos, ec in enumerate(ecombo):
                    combo[pos] -= f * ec
        pivot = next((pos for pos, v in enumerate(vec) if v), None)
        if pivot is None:
            return combo
        echelon.append((pivot, vec, combo))
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*M)]
                 for row in power]


def walk_rows(g, r):
    """The rows of M^r for the pair graph g with every row stepped:
    row v of M^r is row L(v) plus row R(v) of M^(r-1), from the
    identity.  Each row is one int of N_d fields of 8 (r // 8 + 1)
    bits, which entries of at most 2^r never overflow."""
    n = len(g.vertices)
    width = r // 8 + 1
    rows = [1 << 8 * width * v for v in range(n)]
    for _ in range(r):
        rows = [rows[a] + rows[b] for a, b in zip(g.left, g.right)]
    out = []
    for row in rows:
        raw = row.to_bytes(n * width, "little")
        out.append([int.from_bytes(raw[k:k + width], "little")
                    for k in range(0, n * width, width)])
    return out


def _poly_row(g, v, f):
    """Row v of f(M) for the pair graph g, e_v f(M), by Horner: x M
    gives each vertex u's entry x_u to both of its successors L(u) and
    R(u), the ones of row u of M."""
    vec = [0] * len(g.vertices)
    for c in reversed(f):
        nxt = [0] * len(vec)
        for u, x in enumerate(vec):
            nxt[g.left[u]] += x
            nxt[g.right[u]] += x
        nxt[v] += c
        vec = nxt
    return vec


def _trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _monic(f):
    f = _trim(Fraction(c) for c in f)
    return [c / f[-1] for c in f] if f else f


def _derivative(f):
    return _trim(i * c for i, c in enumerate(f) if i)


def _sub(f, g):
    n = max(len(f), len(g))
    return _trim((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)
                 for i in range(n))


def _divmod(f, g):
    g, r = _trim(Fraction(c) for c in g), _trim(Fraction(c) for c in f)
    dg = len(g) - 1
    q = [Fraction(0)] * max(len(r) - dg, 0)
    for i in range(len(r) - dg - 1, -1, -1):
        c = r[i + dg] / g[-1]
        q[i] = c
        for j, gc in enumerate(g):
            r[i + j] -= c * gc
    return _trim(q), _trim(r)


def _gcd(f, g):
    a, b = _trim(Fraction(c) for c in f), _trim(Fraction(c) for c in g)
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def yun_squarefree_factors(f):
    """Yun's squarefree split over the rationals, [(monic factor,
    multiplicity), ...], straight from the recurrence with Euclid's gcd:
    a = gcd(f, f'), b = f/a, d = f'/a - b', and each g = gcd(b, d)."""
    f = _monic(f)
    if len(f) <= 1:
        return []
    fp = _derivative(f)
    a = _gcd(f, fp)
    b, c = _divmod(f, a)[0], _divmod(fp, a)[0]
    d = _sub(c, _derivative(b))
    out, i = [], 1
    while len(b) > 1:
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, c = _divmod(b, g)[0], _divmod(d, g)[0]
        d = _sub(c, _derivative(b))
        i += 1
    return out


def polyroots(f, digits):
    """Roots of the integer polynomial f (ascending) by mpmath's
    Durand-Kerner `polyroots` at `digits` digits, with deg f plus the
    coefficient bits as guard bits, since every root of the pair
    matrix has modulus at most 2."""
    guard = len(f) - 1 + max(abs(c) for c in f).bit_length()
    with mp.workdps(digits):
        return mp.polyroots(f[::-1], maxsteps=200, extraprec=guard)
