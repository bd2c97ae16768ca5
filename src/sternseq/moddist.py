"""Distribution of consecutive Stern pairs modulo d.

The pair S_d(n) = (s(n) mod d, s(n+1) mod d) always satisfies
gcd(i, j, d) = 1, and moves by one of two affine steps when n doubles:

    L(i, j) = (i, i + j)     since S_d(2n)   = L(S_d(n)),
    R(i, j) = (i + j, j)     since S_d(2n+1) = R(S_d(n)).

Walks of length r in the resulting 2-out digraph count exactly how
often each pair occurs in the block [2^r m, 2^r (m+1)).  The same
doubling step gives the census of every pair over [0, N) in one pass
down the bits of N, so every count T(N; d, i) is a projection of that
census.  The adjacency matrix M is applied only as one sparse step in
pull form, since L and R are permutations: x M adds at each vertex v
the entries at its L- and R-predecessor.  The unit scalings
(i, j) -> (ui, uj) commute with L and R, so the rows of any
polynomial f(M) within one of their orbits are permutations of each
other, and so are its columns.  So rows e_v f(M) are stepped at one
vertex per orbit, by Horner with the pull step, packed in fields of
one int per vertex: walk counts take f = z^r, decode the fields by
shift and mask and gather the other rows through cached index tables,
one per unit.  The minimal polynomial, which sets the rate of
convergence, comes from Berlekamp-Massey on the terms x M^k y^T mod
p, read at the orbit representatives, is certified over Z by the
packed rows of f(M) vanishing, and has its roots certified by
inclusion disks; the dense `exactalg` matrices are the oracles.
"""

import cmath
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul
from typing import NamedTuple

from .core import (DEFAULT_TABLE_CAP, ResourceLimitError, _check_bits,
                   _check_work)
from . import exactalg
from .exactalg import (_symmetric_lift, poly_derivative, poly_divmod,
                       poly_eval, poly_gcd, squarefree_factors)

DEFAULT_MATRIX_CAP = 4096
# no max_order admits more vertices; graph(600), 230,400 of them, took
# 0.44 s and 50 MB (CPython 3.11, one core of a 2-vCPU VM)
_VERTEX_CEILING = 1 << 18
# bits of one packed vector of _rep_rows, 4 MB; with 2^27 bits
# minimal_polynomial(43) peaked at 30 MB against 24 MB, at no measured
# gain in time (CPython 3.11, 2-vCPU VM)
_PACK_BITS = 1 << 25
# Berlekamp-Massey reads up to 2 N_d terms of N_d additions each; this
# admits N_d <= 4096, every modulus DEFAULT_MATRIX_CAP admits (to d = 78)
_BM_STEP_CEILING = 2 * 4096 ** 2
# the circle of the float root seeds, near the largest moduli of the
# roots but 2, which lie on both sides of it: rho(29) is about 1.5822,
# rho(37) about 1.6693
_SEED_RADIUS = 1.6
_SWEEPS = 100
# the roots of spectral are certified to radius 10^-_DIGITS
_DIGITS = 40

ResiduePair = tuple[int, int]
IntMatrix = list[list[int]]
IntPolynomial = list[int]


class _RootHooks:
    """Stand-ins for the multiprecision `polyroots` and `polyval` that
    `benchmark/tracing.py` wraps on `moddist.mp`; nothing calls them."""

    polyroots = polyval = None


mp = _RootHooks()


class NonConvergenceError(Exception):
    """Numeric root refinement failed to reach the requested accuracy."""


def _check_modulus(d: int):
    if d < 2:
        raise ValueError("modulus must be at least 2")


@lru_cache(maxsize=64)
def _prime_factors(d: int) -> tuple[int, ...]:
    # trial division up to sqrt(d) <= DEFAULT_TABLE_CAP
    if d > DEFAULT_TABLE_CAP ** 2:
        raise ResourceLimitError(f"modulus {d} exceeds the factoring cap "
                                 f"{DEFAULT_TABLE_CAP ** 2}")
    out = []
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def left_step(pair: ResiduePair, d: int) -> ResiduePair:
    """Pair step under n -> 2n."""
    i, j = pair
    return (i, (i + j) % d)


def right_step(pair: ResiduePair, d: int) -> ResiduePair:
    """Pair step under n -> 2n+1."""
    i, j = pair
    return ((i + j) % d, j)


def feasible_pairs(d: int) -> list[ResiduePair]:
    """All (i, j) with 0 <= i, j < d and gcd(i, j, d) = 1, in lex order."""
    _check_modulus(d)
    return [(i, j) for i in range(d) for j in range(d)
            if math.gcd(i, j, d) == 1]


def pair_counts(d: int) -> tuple[int, list[int]]:
    """(N_d, per-first-coordinate counts) from the product formulas.

    N_d = d^2 * prod (p^2 - 1)/p^2 over primes p | d, and row i has
    d * prod_{p | gcd(i, d)} (p - 1)/p feasible partners.
    """
    _check_modulus(d)
    if d > DEFAULT_TABLE_CAP:
        raise ResourceLimitError(f"modulus {d} exceeds the pair-count cap "
                                 f"{DEFAULT_TABLE_CAP}")
    return _pair_total(d), [_row_count(d, i) for i in range(d)]


def _row_count(d: int, i: int) -> int:
    # feasible pairs with first coordinate i mod d
    c = d
    for p in _prime_factors(d):
        if i % p == 0:
            c = c * (p - 1) // p
    return c


def _pair_total(d: int) -> int:
    total = d * d
    for p in _prime_factors(d):
        total = total * (p * p - 1) // (p * p)
    return total


def s_mod_pair(n: int, d: int) -> ResiduePair:
    """(s(n) mod d, s(n+1) mod d) by the pair scan, reduced each step."""
    _check_modulus(d)
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return (0, 1 % d)
    a = b = 1 % d
    for bit in bin(n)[3:]:
        if bit == "0":
            b = (a + b) % d
        else:
            a = (a + b) % d
    return (a, b)


class PairGraph(NamedTuple):
    """The feasible-pair digraph with its L and R edge maps.

    vertices are in lexicographic order; left/right give successor
    vertex indices; by_first groups vertex indices by first coordinate.
    """

    d: int
    vertices: tuple[tuple[int, int], ...]
    index: dict
    left: tuple[int, ...]
    right: tuple[int, ...]
    by_first: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=64)
def graph(d: int) -> PairGraph:
    verts = tuple(feasible_pairs(d))
    index = {v: i for i, v in enumerate(verts)}
    left = tuple(index[left_step(v, d)] for v in verts)
    right = tuple(index[right_step(v, d)] for v in verts)
    groups = [[] for _ in range(d)]
    for pos, (i, _) in enumerate(verts):
        groups[i].append(pos)
    return PairGraph(d, verts, index, left, right,
                     tuple(tuple(g) for g in groups))


def _capped_graph(d: int, max_order: int) -> PairGraph:
    _check_modulus(d)
    max_order = min(max_order, _VERTEX_CEILING)
    # N_d = d^2 prod (1 - 1/p^2) > 6 d^2 / pi^2 > d^2 / 2, so a large d
    # is rejected on that bound before it is factored
    total = d * d // 2 + 1 if d * d > 2 * max_order else _pair_total(d)
    if total > max_order:
        raise ResourceLimitError(f"pair graph mod {d} has at least {total} "
                                 f"vertices, cap is {max_order}")
    return graph(d)


def adjacency(d: int, max_order: int = DEFAULT_MATRIX_CAP) -> IntMatrix:
    """0-1 adjacency matrix of the pair digraph, vertices in lex order.

    Row alpha has ones at columns L(alpha) and R(alpha); these never
    coincide, so every row sums to 2 (and so does every column).
    """
    g = _capped_graph(d, max_order)
    n = len(g.vertices)
    M = [[0] * n for _ in range(n)]
    for v in range(n):
        M[v][g.left[v]] = 1
        M[v][g.right[v]] = 1
    return M


def walk_counts(d: int, r: int,
                max_order: int = DEFAULT_MATRIX_CAP) -> IntMatrix:
    """Number of length-r walks between every vertex pair: the rows of
    M^r (the dense `exactalg.mat_pow` and the all-rows twin in
    tests/oracles.py are their oracles).  The unit scalings commute with
    M, so row u v is row v permuted by w -> u^-1 w: only the I(d) rows
    at the orbit representatives are stepped, packed by _rep_rows in
    fields of max(r, 1) bits, by r pull steps x -> x M per group.  Walks
    that differ only in their first step end apart (L v != R v), so no
    entry exceeds 2^(r - 1) and no carry crosses a field.  The fields
    are decoded by shift and mask, and every row is gathered from its
    representative's through the index table of its unit, cached in
    _orbits(d).  r is bounded by the bit cap, and N_d^2 (r + 1), the
    work of stepping every row, by the work cap."""
    _check_bits(r, "walk length")
    g = _capped_graph(d, max_order)
    _check_work(len(g.vertices) ** 2 * (r + 1), r, "walk counts")
    width = max(r, 1)
    mask = (1 << width) - 1
    rows = []  # row j is M^r[reps[j]]
    for size, vec in _rep_rows(d, [0] * r + [1], width):
        rows += [[x >> s & mask for x in vec]
                 for s in range(0, width * size, width)]
    _, home, gets = _orbits(d)
    # N_d >= 3, so every getter returns a tuple
    return [list(get(rows[j])) for (j, _), get in zip(home, gets)]


def _step(pairs: tuple[tuple[int, int], ...], vec: list) -> list:
    # one doubling in pull form: entry v is the sum of the two entries
    # that pairs[v] names; with _predecessors(d) it maps x to x M
    return [vec[a] + vec[b] for a, b in pairs]


@lru_cache(maxsize=64)
def _predecessors(d: int) -> tuple[tuple[int, int], ...]:
    # (L^-1(v), R^-1(v)) for every vertex v: L^-1(i, j) = (i, j - i) and
    # R^-1(i, j) = (i - j, j); cached like graph(d) but apart from it,
    # so that callers that never step, such as the DOT export, do not
    # hold it
    g = graph(d)
    return tuple((g.index[i, (j - i) % d], g.index[(i - j) % d, j])
                 for i, j in g.vertices)


@lru_cache(maxsize=64)
def _orbits(d: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...],
                             tuple[itemgetter, ...]]:
    # (reps, home, gets): reps the least vertex of each orbit of the unit
    # scalings (i, j) -> (ui, uj), increasing; home[v] = (j, u) with
    # v = u reps[j]; gets[v] picks the entries at u^-1 w for w = 0, 1,
    # ..., so it maps row reps[j] of any polynomial in M to row v, one
    # getter per unit.  The action is free, so reps and home cost N_d
    # lookups.  Cached apart from graph(d), as _predecessors is
    g = graph(d)
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    reps, home = [], [None] * len(g.vertices)
    for v, (i, j) in enumerate(g.vertices):
        if home[v] is None:
            for u in units:
                home[g.index[u * i % d, u * j % d]] = (len(reps), u)
            reps.append(v)
    tables = {w: itemgetter(*[g.index[w * i % d, w * j % d]
                              for i, j in g.vertices]) for w in units}
    return (tuple(reps), tuple(home),
            tuple(tables[pow(u, -1, d)] for _, u in home))


def _rep_rows(d: int, f: IntPolynomial, width: int):
    # (size, vec) for each group of at most _PACK_BITS / (N_d width)
    # orbit representatives, in order: field j of vec[w], width bits
    # wide and signed, holds e_v f(M)[w] for the j-th representative v
    # of the group, if no entry overflows it.  Horner from the leading
    # coefficient takes deg f steps per group
    reps = _orbits(d)[0]
    pred = _predecessors(d)
    size = max(1, _PACK_BITS // (len(pred) * width))
    for start in range(0, len(reps), size):
        group = list(enumerate(reps[start:start + size]))
        vec = [0] * len(pred)
        for j, v in group:
            vec[v] = f[-1] << width * j
        for c in reversed(f[:-1]):
            vec = _step(pred, vec)
            if c:
                for j, v in group:
                    vec[v] += c << width * j
        yield len(group), vec


def _pair_census(N: int, d: int,
                 max_order: int = DEFAULT_MATRIX_CAP) -> list[int]:
    """Occurrences of each feasible pair (by vertex) among S_d(n), n < N.

    With C(m) the census of [0, m), C(2m) = A C(m) and C(2m+1) =
    A C(m) + e_{S_d(2m)}, where A = M^T gathers at each vertex the
    counts of its L- and R-predecessor.  One pass down the bits of N,
    carrying the pair of the current prefix, costs O(log N * N_d)
    additions of integers of up to log N bits, bounded by the work cap.
    """
    g = _capped_graph(d, max_order)
    bits = N.bit_length()
    _check_work(len(g.vertices) * bits, bits, "pair census sums")
    pred = _predecessors(d)
    counts = [0] * len(g.vertices)
    pos = g.index[(0, 1)]  # S_d(0)
    for bit in bin(N)[2:]:
        counts = _step(pred, counts)
        if bit == "1":
            counts[g.left[pos]] += 1
            pos = g.right[pos]
        else:
            pos = g.left[pos]
    return counts


def count_block(d: int, gamma: ResiduePair, U1: int, U2: int) -> int:
    """Occurrences of the pair gamma among S_d(n), U1 <= n < U2.

    Oracle-grade direct scan; each index is evaluated independently by
    the bit scan, so the cost is O((U2 - U1) log U2), bounded by the
    work cap.
    """
    _check_modulus(d)
    if U1 < 0 or U1 >= U2:
        raise ValueError("need 0 <= U1 < U2")
    _check_work((U2 - U1) * U2.bit_length(), d.bit_length(), "bit scans")
    return sum(1 for m in range(U1, U2) if s_mod_pair(m, d) == gamma)


def count_T(N: int, d: int, i: int) -> int:
    """T(N; d, i) = #{ n < N : s(n) == i (mod d) }, the pair census
    summed over the pairs with first coordinate i (O(log N) vector
    steps).  Raises ResourceLimitError when the pair graph mod d has
    more than DEFAULT_MATRIX_CAP vertices.
    """
    _check_modulus(d)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N == 0:
        return 0
    per_vertex = _pair_census(N, d)
    return sum(per_vertex[pos] for pos in graph(d).by_first[i % d])


def density(d: int, i: int) -> Fraction:
    """Limiting density of indices with s(n) == i (mod d).

    The pairs S_d(n) are uniformly distributed over the feasible pairs,
    so this is the share of feasible pairs with first coordinate i.
    """
    _check_modulus(d)
    return Fraction(_row_count(d, i), _pair_total(d))


def index_I(d: int) -> int:
    """1 / density(d, 0) = d * prod (p+1)/p; always an integer."""
    _check_modulus(d)
    return _pair_total(d) // _row_count(d, 0)


class DistTable(NamedTuple):
    """Counts T(N; d, i) for all residues, with exact densities.

    pair_counts, when present, holds occurrence counts of each feasible
    pair over [0, N).
    """

    d: int
    N: int
    counts: tuple[int, ...]
    densities: tuple[Fraction, ...]
    pair_counts: dict | None = None

    def deviations(self) -> list[float]:
        return [abs(c / self.N - float(den))
                for c, den in zip(self.counts, self.densities)]


def dist_table(N: int, d: int, include_pairs: bool = False,
               max_order: int = DEFAULT_MATRIX_CAP) -> DistTable:
    """Residue distribution of s(n) mod d over n < N, projected from
    one pair census; the pair graph may have at most max_order
    vertices."""
    _check_modulus(d)
    if N < 1:
        raise ValueError("N must be positive")
    per_vertex = _pair_census(N, d, max_order)
    g = graph(d)
    counts = tuple(sum(per_vertex[pos] for pos in group)
                   for group in g.by_first)
    pairs = dict(zip(g.vertices, per_vertex)) if include_pairs else None
    dens = tuple(density(d, i) for i in range(d))
    return DistTable(d, N, counts, dens, pairs)


def minimal_polynomial(d: int,
                       max_order: int = DEFAULT_MATRIX_CAP) -> IntPolynomial:
    """Monic minimal polynomial mu_M of the adjacency matrix, ascending.

    Berlekamp-Massey (Massey 1969) on the terms x M^k y^T mod a prime p
    (Wiedemann 1986), x seeded by d and y at the orbit representatives,
    gives a monic f with deg f <= deg mu(M mod p) <= deg mu_M in
    symmetric residues, once the discrepancy has been zero twice in a
    row past 2L + 2 terms (Kaltofen and Lee 2003) or after all 2 N_d
    terms.  The unit scalings (i, j) -> (ui, uj) commute with M, so the
    rows and columns of f(M) within one orbit are permutations of each
    other: e_v f(M) = 0 over Z at one v per orbit proves mu_M | f, so
    f = mu_M, and a random y misses mu_M, the lcm of the minimal
    polynomials of the columns at the representatives, with probability
    at most deg mu_M / p.  Each prime of the `exactalg` ladder gives one
    f until the proof holds, so a premature early stop costs one rung.
    The first prime is abandoned once the linear complexity L has
    2 * 3^L >= p, as 3^L bounds the coefficients of a monic degree-L
    divisor of mu_M (every root has |z| <= 2); the last exceeds every
    bound under the matrix cap.  ResourceLimitError when no prime gives
    a proof, and before any term when a full run's 2 N_d^2 steps exceed
    _BM_STEP_CEILING.
    """
    g = _capped_graph(d, max_order)
    steps = 2 * len(g.vertices) ** 2
    if steps > _BM_STEP_CEILING:
        raise ResourceLimitError(f"Berlekamp-Massey mod {d} takes {steps} "
                                 f"steps, over the ceiling {_BM_STEP_CEILING}")
    for rung, p in enumerate(exactalg._PRIME_LADDER):
        f = _berlekamp_massey(g, p, not rung)
        if f and _rows_vanish(d, f):
            return f
    raise ResourceLimitError(
        f"minimal polynomial mod {d}: no prime of the ladder certified it")


def _rows_vanish(d: int, f: IntPolynomial) -> bool:
    # whether e_v f(M) = 0 over Z at every orbit representative v, on
    # the packed rows of _rep_rows, one signed field of W bits per
    # representative.  An entry of a row is at most sum |c_k| 2^k <
    # 2^(W - 2) in size, and a sum of such fields times 2^(W j) is 0
    # only when every field is, so the packed rows are tested without
    # decoding
    width = sum(abs(c) << k for k, c in enumerate(f)).bit_length() + 2
    return not any(any(vec) for _, vec in _rep_rows(d, f, width))


def _berlekamp_massey(g: PairGraph, p: int, bounded: bool):
    # the monic generator of the terms x M^k y^T mod p, lifted at the
    # early stop or after all 2 N_d terms, x reduced every 32 steps, so
    # below p 2^32; None when bounded and L reaches 2 * 3^L >= p
    pred = _predecessors(g.d)
    at_reps = itemgetter(*_orbits(g.d)[0])  # I(d) >= 3: returns a tuple
    rng = random.Random(g.d)
    x = [rng.randrange(p) for _ in g.vertices]
    y = [rng.randrange(p) for _ in at_reps(x)]
    seq, conn, prev = [], [1], [1]  # terms; connection polynomials
    # linear complexity; prev's lag; the inverse of prev's discrepancy;
    # the zero discrepancies since the last nonzero one
    length, shift, inv, zeros = 0, 1, 1, 0
    for k in range(2 * len(g.vertices)):
        seq.append(sum(map(mul, at_reps(x), y)) % p)
        x = _step(pred, x)
        if k % 32 == 31:
            x = [a % p for a in x]
        delta = sum(map(mul, conn, reversed(seq))) % p
        zeros += 1
        if delta:
            zeros = 0
            coef = delta * inv % p
            new = conn + [0] * (shift + len(prev) - len(conn))
            for pos, c in enumerate(prev, shift):
                new[pos] = (new[pos] - coef * c) % p
            if 2 * length <= k:
                length, prev, shift = k + 1 - length, conn, 0
                if bounded and 2 * 3 ** length >= p:
                    return None
                inv = pow(delta, -1, p)
            conn = new
        shift += 1
        if zeros >= 2 and k + 1 >= 2 * length + 2:
            break
    # f(z) = z^length conn(1/z); conn has degree at most length
    return _symmetric_lift((conn + [0] * length)[length::-1], p)


class RootValue(NamedTuple):
    """One root of the minimal polynomial.

    exact roots (0 and 2) are split off by exact division and carry a
    zero residual; numeric roots report |f(z)| at the certified centre
    plus the error bound of its evaluation.
    """

    value: complex
    multiplicity: int
    residual: float
    exact: bool


class SpectralReport(NamedTuple):
    d: int
    minimal_poly: tuple[int, ...]
    rho: float
    sigma: int
    multiplicity: int
    tau: float
    roots: tuple[RootValue, ...]


def _horner(f, z, u):
    # f(z), f'(z) and the running error bound u (2 mu - |f(z)|) on the
    # computed f(z), for unit roundoff u (Higham, Accuracy and
    # Stability of Numerical Algorithms, Alg. 5.1); z is a complex
    p, dp, az = f[-1] + 0 * z, 0 * z, abs(z)
    mu = abs(p) / 2
    for c in reversed(f[:-1]):
        dp = dp * z + p
        p = p * z + c
        mu = mu * az + abs(p)
    return p, dp, u * (2 * mu - abs(p))


def _aberth(f, z: list, u):
    # Ehrlich-Aberth sweeps on z in place, at most _SWEEPS of them; a
    # point stops once |f(z)| is within the error bound of its own
    # evaluation, or when it meets another point
    moving = range(len(z))
    for _ in range(_SWEEPS):
        still = []
        for i in moving:
            zi = z[i]
            p, dp, err = _horner(f, zi, u)
            diffs = [zi - zj for j, zj in enumerate(z) if j != i]
            if abs(p) <= err or not all(diffs):
                continue
            den = dp - p * sum(1 / w for w in diffs)
            if den:
                z[i] = zi - p / den
                still.append(i)
        if not still:
            return
        moving = still


def _fixed_horner(f: IntPolynomial, a: int, b: int, S: int):
    """f(z) at z = (a + bi) / 2^S as (re, im, err) in units of 2^-S:
    |f(z) - (re + im i) 2^-S| <= err 2^-S.

    Each step after the first, which is exact, multiplies by z exactly
    and floors both parts, adding less than sqrt 2 units to an error
    that z scales.  e runs that bound (Higham, Alg. 5.1, in fixed
    point) in sixteenths of a unit with |z| 2^S rounded up to zb:
    sqrt 2 < 23/16, and one more for flooring e zb / 2^S.
    """
    if len(f) == 1:
        return f[0] << S, 0, 0
    zb = math.isqrt(a * a + b * b) + 1
    re, im, e = f[-1] * a + (f[-2] << S), f[-1] * b, 0
    for c in reversed(f[:-2]):
        re, im = ((re * a - im * b) >> S) + (c << S), (re * b + im * a) >> S
        e = (e * zb >> S) + 24
    return re, im, (e + 15) >> 4


def _units(x: float, S: int) -> int:
    # floor(x 2^S), exactly
    num, den = x.as_integer_ratio()
    return (num << S) // den


def _certified_roots(f: IntPolynomial, digits: int) -> tuple[int, list]:
    """(S, [(a, b, r), ...]) for a squarefree integer f of degree n >= 1:
    disks with centre (a + bi) / 2^S and radius r / 2^S, one per root.

    Float Aberth seeds from a circle are polished by the same sweeps on
    Gaussian integers in units of 2^-S, with S sized from the seeds;
    each point stops once f and f' there give it a radius r below
    2^S 10^-digits, or when it meets another.  Since
    |f'/f(z)| = |sum_k 1 / (z - z_k)| <= n / min_k |z - z_k|, the disk
    D(z_i, n |f(z_i) / f'(z_i)|) holds a root, and n disjoint such disks
    hold one root each.  r is an integer upper bound on that radius
    times 2^S, from |f(z_i)| and |f'(z_i)| with their error bounds;
    NonConvergenceError when the bound on |f'(z_i)| is not positive.
    The disks must have radius below 10^-digits and stay apart at three
    times their radii, else NonConvergenceError; every test is in
    integers.  The roots are closed under conjugation, and under z -> -z
    when f(-z) = +-f(z); a disk that meets the axis of such a mirror
    holds a root whose image lies within three radii of the centre, so
    in no other disk, so in the same one: that root is on the axis, and
    its centre gets an exact zero imaginary or real part.
    """
    n = len(f) - 1
    z = [_SEED_RADIUS * cmath.exp(2j * math.pi * (k + 0.25) / n)
         for k in range(n)]
    # complex products round to within sqrt(2) gamma_2 (Higham, 3.6),
    # so 2 eps = 4u covers them
    _aberth(f, z, 2 * sys.float_info.epsilon)
    # S as for a float polish at u = 2^(1 - S), where a polished radius
    # is about 2 n u B / |f'| with B = 2 mu - |f|: below n kappa
    # 2^(2 - S), kappa the largest B / |f'| at the seeds; two more bits
    # cover kappa moving.  The bound of _fixed_horner has no factor of
    # the coefficients, and was below B u / 2 at every root for d <= 30
    kappa = max((b / abs(dp) for _, dp, b in (_horner(f, w, 1.0) for w in z)
                 if dp), default=1.0)
    if not (math.isfinite(kappa) and all(map(cmath.isfinite, z))):
        raise NonConvergenceError(
            f"root seeds of a degree-{n} factor diverged")
    S = math.ceil(digits * math.log2(10) + math.log2(n * kappa)) + 4
    one = 1 << S
    z = [(_units(w.real, S), _units(w.imag, S)) for w in z]
    near = [complex(a / one, b / one) for a, b in z]
    fp = poly_derivative(f)
    # r is None after a step until the next visit, 0 while f' may vanish
    radii, moving = [None] * n, range(n)
    for _ in range(_SWEEPS):
        still = []
        for i in moving:
            a, b = z[i]
            re, im, err = _fixed_horner(f, a, b, S)
            dre, dim, derr = _fixed_horner(fp, a, b, S)
            # |f| and |f'| in units of 2^-S, rounded up and down
            num = n * (math.isqrt(re * re + im * im) + 1 + err) << S
            den = math.isqrt(dre * dre + dim * dim) - derr
            radii[i] = r = -(-num // den) + 1 if den > 0 else 0
            if 0 < r * 10 ** digits < one:
                continue
            diffs = [near[i] - w for j, w in enumerate(near) if j != i]
            if not all(diffs):
                continue
            # the sum over the others, in floats: its error enters a step
            # only times |f / f'|^2, so the sweeps stay at least quadratic
            s = sum(1 / w for w in diffs)
            sr, si = _units(s.real, S), _units(s.imag, S)
            # z - f / (f' - f s), every value in units of 2^-S
            xr = dre - ((re * sr - im * si) >> S)
            xi = dim - ((re * si + im * sr) >> S)
            q = xr * xr + xi * xi
            if q:
                da = ((re * xr + im * xi) << S) // q
                db = ((im * xr - re * xi) << S) // q
                z[i] = a - da, b - db
                near[i] = complex((a - da) / one, (b - db) / one)
                radii[i] = r and None
                still.append(i)
        if not still:
            break
        moving = still
    if 0 in radii:
        raise NonConvergenceError(f"root refinement of a degree-{n} factor "
                                  "ended where f' may vanish")
    mirrored = not any(f[n - 1::-2])  # f(-z) = +-f(z)
    out = []
    for i, ((a, b), r) in enumerate(zip(z, radii)):
        if not (r and r * 10 ** digits < 1 << S and all(
                (a - c) ** 2 + (b - d) ** 2 > 9 * (r + radii[j]) ** 2
                for j, (c, d) in enumerate(z[:i]))):
            raise NonConvergenceError(
                f"root inclusion disks of a degree-{n} factor are not "
                f"disjoint with radius below 1e-{digits}")
        if abs(b) <= r:
            b = 0
        elif mirrored and abs(a) <= r:
            a = 0
        out.append((a, b, r))
    return S, out


def _log2(x: Fraction, bits: int) -> Fraction:
    # log2 of a dyadic x > 0 to within 2^(1 - bits): the integer part e
    # from the bit lengths, then one bit per squaring of x / 2^e in
    # [1, 2), in fixed point with 4 guard bits
    num = x.numerator
    e = num.bit_length() - x.denominator.bit_length()
    prec = bits + 4
    shift = prec + 1 - num.bit_length()
    y = num << shift if shift >= 0 else num >> -shift
    frac = 0
    for _ in range(bits):
        y = y * y >> prec
        frac <<= 1
        if y >> prec + 1:
            y >>= 1
            frac |= 1
    return e + Fraction(frac, 1 << bits)


def spectral(d: int, max_order: int = DEFAULT_MATRIX_CAP) -> SpectralReport:
    """Roots of the minimal polynomial with the derived decay data.

    The root 2 (which must be simple, else ValueError) and the roots at
    0 are split off exactly in integers.  Each integer Yun factor g is
    split by the exact gcd h of g(z) and g(-z), whose roots are closed
    under z -> -z, so that pure imaginary roots are recognised; the
    roots of h and g / h come with disjoint inclusion disks of radius
    below 10^-_DIGITS (see _certified_roots; NonConvergenceError when
    the certificate fails).  Each residual is |mu_M(z)| at the centre
    plus the error bound of its fixed-point evaluation.  rho is the
    largest modulus among the roots other than 2, sigma + 1 the largest
    multiplicity among the roots whose modulus interval
    [|z| - r, |z| + r] meets rho's, and tau = max(0, log2 rho) the
    decay exponent, from integer bit extraction.
    """
    f = minimal_polynomial(d, max_order=max_order)
    q, f_at_2 = poly_divmod(f, [-2, 1])
    if f_at_2 or not poly_eval(q, 2):
        raise ValueError(
            f"2 is not a simple root of the minimal polynomial mod {d}")
    zero_mult = next(k for k, c in enumerate(q) if c)
    rest = q[zero_mult:]
    roots = [RootValue(complex(2, 0), 1, 0.0, True)]
    # (|z| rounded down, radius plus that rounding, in units of 2^-S;
    # S; multiplicity) of every root but 2
    moduli = []
    if zero_mult:
        roots.append(RootValue(complex(0, 0), zero_mult, 0.0, True))
        moduli.append((0, 0, 0, zero_mult))
    deg = len(f) - 1
    for factor, mult in squarefree_factors(rest):
        n = len(factor) - 1
        even, odd, _ = poly_gcd(factor, [-c if (n - k) % 2 else c
                                         for k, c in enumerate(factor)])
        for part in (even, odd):
            if len(part) == 1:
                continue
            S, disks = _certified_roots(part, _DIGITS)
            one = 1 << S
            for a, b, r in disks:
                # deg more bits keep the error bound, which grows like
                # sum |z|^k with |z| < 2, below 2^(1 - S)
                re, im, err = _fixed_horner(f, a << deg, b << deg, S + deg)
                res = (math.isqrt(re * re + im * im) + 1 + err) / (one << deg)
                moduli.append((math.isqrt(a * a + b * b), r + 1, S, mult))
                roots.append(RootValue(complex(a / one, b / one), mult, res,
                                       False))
    roots.sort(key=lambda rv: (rv.value.real, rv.value.imag))
    S = max((s for _, _, s, _ in moduli), default=0)
    moduli = [(m << S - s, r << S - s, k) for m, r, s, k in moduli]
    top, top_r, _ = max(moduli, default=(0, 0, 1))
    mult = max((k for m, r, k in moduli if m + r >= top - top_r), default=1)
    top = Fraction(top, 1 << S)
    tau = 0.0
    if top > 1:
        # round log2 at half the working digits before the one
        # rounding to float, which makes tau = 1/2 at d = 3 exact
        log2_top = _log2(top, math.ceil(_DIGITS * math.log2(10)))
        tau = float(round(log2_top, _DIGITS // 2))
    return SpectralReport(d, tuple(f), float(top), mult - 1, mult, tau,
                          tuple(roots))


def _dot_lines(d: int, g: PairGraph):
    """The lines of graph_export, made one at a time."""
    yield f"digraph stern_pairs_mod_{d} {{"
    for i, j in g.vertices:
        yield f'  "({i},{j})";'
    for pos, (i, j) in enumerate(g.vertices):
        li, lj = g.vertices[g.left[pos]]
        ri, rj = g.vertices[g.right[pos]]
        yield f'  "({i},{j})" -> "({li},{lj})" [label="L"];'
        yield f'  "({i},{j})" -> "({ri},{rj})" [label="R"];'
    yield "}"


def graph_export(d: int, max_order: int = DEFAULT_MATRIX_CAP) -> str:
    """The pair digraph in DOT form, deterministic lex emission order."""
    return "\n".join(_dot_lines(d, _capped_graph(d, max_order))) + "\n"
