"""Independent reference computations that the workloads check against.

None of these imports sternseq: each is written from the definitions,
with a different algorithm from the library's, so that a fault in the
library cannot hide in its own reference.  `selfcheck.py` compares every
function here with the literal oracles in tests/oracles.py on small
inputs.
"""

import math
import random
from fractions import Fraction

# A Mersenne prime; Krylov ranks are taken modulo it.
KRYLOV_PRIME = (1 << 61) - 1


def pair_scan(n: int) -> tuple[int, int]:
    """(s(n), s(n+1)) by scanning n from its least significant bit.

    Keeps (s(n), s(n+1)) = A (s(m), s(m+1)) as m loses one bit a step,
    using s(2k) = s(k) and s(2k+1) = s(k) + s(k+1); the library's scan
    runs the other way, from the most significant bit.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    p, q, r, t = 1, 0, 0, 1
    m = n
    while m:
        if m & 1:
            q += p
            t += r
        else:
            p += q
            r += t
        m >>= 1
    return q, t


def pair_census(N: int, d: int) -> dict[tuple[int, int], int]:
    """Occurrences of each pair (s(n) mod d, s(n+1) mod d) over n < N.

    A digit DP down the bits of N through the pair automaton
    L(i, j) = (i, i + j) for a 0 bit and R(i, j) = (i + j, j) for a 1
    bit, from (0, 1) at n = 0 (leading zeros keep that pair fixed).
    `free` holds prefixes already below N's prefix; `tight` follows N.
    """
    if N < 0 or d < 2:
        raise ValueError("need N >= 0 and d >= 2")
    free: dict[tuple[int, int], int] = {}
    tight = (0, 1 % d)
    for bit in bin(N)[2:] if N else "":
        nxt: dict[tuple[int, int], int] = {}
        for (i, j), c in free.items():
            left = (i, (i + j) % d)
            right = ((i + j) % d, j)
            nxt[left] = nxt.get(left, 0) + c
            nxt[right] = nxt.get(right, 0) + c
        i, j = tight
        if bit == "1":
            left = (i, (i + j) % d)
            nxt[left] = nxt.get(left, 0) + 1
            tight = ((i + j) % d, j)
        else:
            tight = (i, (i + j) % d)
        free = nxt
    return free


def residue_counts(N: int, d: int) -> list[int]:
    """T(N; d, i) for i = 0 .. d-1."""
    counts = [0] * d
    for (i, _), c in pair_census(N, d).items():
        counts[i] += c
    return counts


def residue_counts_at_power(k: int, d: int) -> list[int]:
    """T(2^k; d, i) for i = 0 .. d-1, by repeated squaring.

    The indices n < 2^k are the k-bit words with leading zeros, so the
    counts are the pair distribution after k steps of L and R from
    (0, 1): the row of (0, 1) in A^k for the automaton's 0-1 matrix A.
    """
    verts, left, right = feasible_graph(d)
    n = len(verts)
    step = [[0] * n for _ in range(n)]
    for v in range(n):
        step[v][left[v]] += 1
        step[v][right[v]] += 1
    row = [0] * n
    row[verts.index((0, 1 % d))] = 1
    while k:
        if k & 1:
            row = [sum(row[u] * step[u][v] for u in range(n))
                   for v in range(n)]
        k >>= 1
        if k:
            step = [[sum(a * b for a, b in zip(r, col))
                     for col in zip(*step)] for r in step]
    counts = [0] * d
    for (i, _), c in zip(verts, row):
        counts[i] += c
    return counts


def delta(N: int) -> int:
    """Delta(N) = T(N; 3, 1) - T(N; 3, 2)."""
    counts = residue_counts(N, 3)
    return counts[1] - counts[2]


def hyperbinary(d: int, n: int) -> int:
    """b(d; n) by a windowed digit DP from the least significant bit.

    After k digits the remainder is (n >> k) - c with a deficit c in
    [0, d - 1), so one array of d counts per bit suffices.  The digits
    allowed for one state move the deficit over a contiguous range,
    which a difference array adds in O(1); the whole DP is O(bits * d).
    """
    if d < 2 or n < 0:
        raise ValueError("need d >= 2 and n >= 0")
    cnt = [0] * d
    cnt[0] = 1
    total = 0
    k = 0
    while any(cnt):
        top = n >> k
        bit = top & 1
        diff = [0] * (d + 1)
        for c, w in enumerate(cnt):
            if not w:
                continue
            m = top - c
            if m <= 0:
                if m == 0:
                    total += w  # every remaining digit is 0
                continue
            e_lo = (bit - c) & 1
            e_hi = min(d - 1, m)
            e_hi -= (e_hi - e_lo) & 1
            if e_hi < e_lo:
                continue
            diff[(c + e_lo - bit) >> 1] += w
            diff[((c + e_hi - bit) >> 1) + 1] -= w
        acc = 0
        for c in range(d):
            acc += diff[c]
            cnt[c] = acc
        k += 1
    return total


def feasible_graph(d: int):
    """Vertices (i, j) with gcd(i, j, d) = 1 in lexicographic order, and
    the vertex positions of L(v) and R(v) for every vertex v."""
    verts = [(i, j) for i in range(d) for j in range(d)
             if math.gcd(math.gcd(i, j), d) == 1]
    pos = {v: k for k, v in enumerate(verts)}
    left = [pos[(i, (i + j) % d)] for i, j in verts]
    right = [pos[((i + j) % d, j)] for i, j in verts]
    return verts, left, right


def _apply(x, left, right):
    # (M x)[v] = x[L(v)] + x[R(v)] for the 0-1 adjacency matrix M
    return [x[a] + x[b] for a, b in zip(left, right)]


def annihilates(f: list[int], d: int) -> bool:
    """True iff f(M) e_v = 0 over Z for every vertex v, where M is the
    pair digraph's adjacency matrix and f is ascending."""
    verts, left, right = feasible_graph(d)
    n = len(verts)
    for v in range(n):
        acc = [0] * n
        for c in reversed(f):
            acc = _apply(acc, left, right)
            acc[v] += c
        if any(acc):
            return False
    return True


def krylov_rank(d: int, length: int, seed: int) -> int:
    """Rank modulo KRYLOV_PRIME of u, Mu, ..., M^(length-1) u for a
    random integer vector u drawn from `seed`."""
    verts, left, right = feasible_graph(d)
    p = KRYLOV_PRIME
    rng = random.Random(seed)
    u = [rng.randrange(1, p) for _ in verts]
    basis: list[tuple[int, list[int]]] = []  # (pivot, row with 1 there)
    for _ in range(length):
        w = list(u)
        for piv, row in basis:
            c = w[piv]
            if c:
                w = [(a - c * b) % p for a, b in zip(w, row)]
        piv = next((k for k, a in enumerate(w) if a), None)
        if piv is not None:
            inv = pow(w[piv], -1, p)
            basis.append((piv, [a * inv % p for a in w]))
        u = [a % p for a in _apply(u, left, right)]
    return len(basis)


def is_minimal_polynomial(f: list[int], d: int, tries: int = 3) -> bool:
    """Exact certificate that the monic integer f is the minimal
    polynomial of M: f annihilates M over Z, so the minimal polynomial
    divides f, and some Krylov sequence of length deg f has full rank
    modulo a prime, so the minimal polynomial has degree >= deg f."""
    if not f or f[-1] != 1 or not annihilates(f, d):
        return False
    deg = len(f) - 1
    return any(krylov_rank(d, deg, seed) == deg for seed in range(tries))


def walk_row(d: int, v: int, r: int) -> list[int]:
    """Row v of M^r: walks of length r from vertex v to every vertex."""
    verts, left, right = feasible_graph(d)
    vec = [0] * len(verts)
    vec[v] = 1
    for _ in range(r):
        nxt = [0] * len(vec)
        for u, c in enumerate(vec):
            if c:
                nxt[left[u]] += c
                nxt[right[u]] += c
        vec = nxt
    return vec


def prefix_sum_at_power(r: int) -> Fraction:
    """Sum of s(n)/s(n+1) over n < 2^r: (3 * 2^r - r - 3) / 2."""
    return Fraction(3 * (1 << r) - r - 3, 2)


def prefix_sum(N: int) -> Fraction:
    """Exact sum of s(n)/s(n+1) over n < N: the closed form up to the
    largest power of two below N, then the remaining terms one by one.
    Cheap when N is just above a power of two."""
    if N < 1:
        raise ValueError("N must be positive")
    r = N.bit_length() - 1
    total = prefix_sum_at_power(r)
    for n in range(1 << r, N):
        a, b = pair_scan(n)
        total += Fraction(a, b)
    return total


def sum_enclosure(N: int) -> tuple[Fraction, Fraction]:
    """The paper's enclosure of the prefix sum over n < N, 2^r <= N <
    2^(r+1): 3N/2 - (r^2 + 7r + 6)/4 <= sum < 3N/2 - 1/2."""
    r = N.bit_length() - 1
    return (Fraction(3 * N, 2) - Fraction(r * r + 7 * r + 6, 4),
            Fraction(3 * N - 1, 2))


def minkowski(x: Fraction) -> Fraction:
    """Minkowski ?(x) for rational x in [0, 1] from the continued
    fraction x = [0; a1, ..., an]: 2 * sum (-1)^(k+1) 2^-(a1 + ... + ak).
    """
    if not 0 <= x <= 1:
        raise ValueError("domain is [0, 1]")
    if x in (0, 1):
        return Fraction(x)
    p, q = x.numerator, x.denominator
    quotients = []
    p, q = q, p  # skip the leading 0 quotient
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    total = Fraction(0)
    depth = 0
    sign = 1
    for a in quotients:
        depth += a
        total += Fraction(2 * sign, 1 << depth)
        sign = -sign
    return total


def insertion_consistent(row: list[int], a: int, b: int) -> bool:
    """True iff `row` arises from the seed row (a, b) by repeatedly
    inserting the sum of each adjacent pair between them: every odd
    entry is the sum of its neighbours, and the even entries form the
    previous row, down to (a, b)."""
    while len(row) > 2:
        odd = row[1::2]
        even = row[0::2]
        if len(even) != len(odd) + 1:
            return False
        if any(o != x + y for o, x, y in zip(odd, even, even[1:])):
            return False
        row = even
    return row == [a, b]
