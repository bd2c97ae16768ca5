"""Distribution of consecutive Stern pairs modulo d.

The pair S_d(n) = (s(n) mod d, s(n+1) mod d) always satisfies
gcd(i, j, d) = 1, and moves by one of two affine steps when n doubles:

    L(i, j) = (i, i + j)     since S_d(2n)   = L(S_d(n)),
    R(i, j) = (i + j, j)     since S_d(2n+1) = R(S_d(n)).

Walks of length r in the resulting 2-out digraph count exactly how
often each pair occurs in the block [2^r m, 2^r (m+1)).  The same
doubling step gives the census of every pair over [0, N) in one pass
down the bits of N, so every count T(N; d, i) is a projection of that
census.  The adjacency matrix is applied only as that sparse step: walk
counts propagate rows, and its minimal polynomial, which sets the rate
of convergence to the densities, is a Krylov sequence mod p certified
over Z.  The dense `exactalg` kit is the oracle for `verify` and tests.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import NoConvergence

from .core import ResourceLimitError, stern_table
from .exactalg import poly_divmod, squarefree_factors

DEFAULT_MATRIX_CAP = 4096
DEFAULT_SCAN_CAP = 1 << 22
_KRYLOV_PRIME = (1 << 521) - 1

ResiduePair = tuple[int, int]
IntMatrix = list[list[int]]
IntPolynomial = list[int]


class NonConvergenceError(Exception):
    """Numeric root refinement failed to reach the requested accuracy."""


def _check_modulus(d: int):
    if d < 2:
        raise ValueError("modulus must be at least 2")


@lru_cache(maxsize=None)
def _prime_factors(d: int) -> tuple[int, ...]:
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
    total = d * d
    for p in _prime_factors(d):
        total = total * (p * p - 1) // (p * p)
    rows = []
    for i in range(d):
        c = d
        for p in _prime_factors(d):
            if i % p == 0:
                c = c * (p - 1) // p
        rows.append(c)
    return total, rows


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


@dataclass(frozen=True)
class PairGraph:
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


@lru_cache(maxsize=None)
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
    total, _ = pair_counts(d)
    if total > max_order:
        raise ResourceLimitError(
            f"pair graph mod {d} has {total} vertices, cap is {max_order}")
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
    M^r, propagated (the dense `exactalg.mat_pow` is their oracle)."""
    if r < 0:
        raise ValueError("walk length must be nonnegative")
    g = _capped_graph(d, max_order)
    return [_poly_row(g, v, [0] * r + [1]) for v in range(len(g.vertices))]


def _step(g: PairGraph, vec: list[int]) -> list[int]:
    # one doubling: each count moves along both edges of its vertex
    left, right = g.left, g.right
    nxt = [0] * len(vec)
    for pos, c in enumerate(vec):
        if c:
            nxt[left[pos]] += c
            nxt[right[pos]] += c
    return nxt


def _poly_row(g: PairGraph, v: int, f: IntPolynomial) -> list[int]:
    # row v of f(M), e_v f(M), by Horner in deg f sparse steps
    vec = [0] * len(g.vertices)
    vec[v] = f[-1]
    for c in reversed(f[:-1]):
        vec = _step(g, vec)
        vec[v] += c
    return vec


def _pair_census(N: int, d: int) -> list[int]:
    """Occurrences of each feasible pair (by vertex) among S_d(n), n < N.

    With C(m) the census of [0, m), C(2m) = A C(m) and C(2m+1) =
    A C(m) + e_{S_d(2m)}, where A moves each count along both edges of
    its vertex.  One pass down the bits of N, carrying the pair of the
    current prefix, costs O(log N * N_d).
    """
    g = graph(d)
    counts = [0] * len(g.vertices)
    pos = g.index[(0, 1)]  # S_d(0)
    for bit in bin(N)[2:]:
        counts = _step(g, counts)
        if bit == "1":
            counts[g.left[pos]] += 1
            pos = g.right[pos]
        else:
            pos = g.left[pos]
    return counts


def _vertex_counts(N: int, d: int, method: str, scan_cap: int) -> list[int]:
    # "auto" and "blocks" take the census; "scan" is its O(N) oracle
    # twin, a histogram of consecutive pairs from the table of s mod d
    if method in ("auto", "blocks"):
        return _pair_census(N, d)
    if method != "scan":
        raise ValueError(f"unknown method {method!r}")
    if N > scan_cap:
        raise ResourceLimitError(
            f"direct scan of {N} values exceeds cap {scan_cap}")
    table = stern_table(N, mod=d)
    hist = Counter(zip(table, table[1:]))
    return [hist[v] for v in graph(d).vertices]


def count_block(d: int, gamma: ResiduePair, U1: int, U2: int) -> int:
    """Occurrences of the pair gamma among S_d(n), U1 <= n < U2.

    Oracle-grade direct scan; each index is evaluated independently by
    the bit scan, so the cost is O((U2 - U1) log U2).
    """
    _check_modulus(d)
    if U1 < 0 or U1 >= U2:
        raise ValueError("need 0 <= U1 < U2")
    return sum(1 for m in range(U1, U2) if s_mod_pair(m, d) == gamma)


def count_T(N: int, d: int, i: int, method: str = "auto",
            scan_cap: int = DEFAULT_SCAN_CAP) -> int:
    """T(N; d, i) = #{ n < N : s(n) == i (mod d) }.

    Methods "auto" and "blocks" sum the pair census over the pairs with
    first coordinate i (O(log N) vector steps); method "scan" counts
    pairs in the table of s mod d directly (O(N)).  The two must agree
    bit for bit.
    """
    _check_modulus(d)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N == 0:
        return 0
    per_vertex = _vertex_counts(N, d, method, scan_cap)
    return sum(per_vertex[pos] for pos in graph(d).by_first[i % d])


def density(d: int, i: int) -> Fraction:
    """Limiting density of indices with s(n) == i (mod d).

    (1/d) * prod over p | d of: p/(p+1) if p | i, else p^2/(p^2-1).
    """
    _check_modulus(d)
    i %= d
    out = Fraction(1, d)
    for p in _prime_factors(d):
        if i % p == 0:
            out *= Fraction(p, p + 1)
        else:
            out *= Fraction(p * p, p * p - 1)
    return out


def index_I(d: int) -> int:
    """1 / density(d, 0) = d * prod (p+1)/p; always an integer."""
    _check_modulus(d)
    out = d
    for p in _prime_factors(d):
        out = out * (p + 1) // p
    return out


@dataclass(frozen=True)
class DistTable:
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


def dist_table(N: int, d: int, method: str = "auto",
               include_pairs: bool = False,
               scan_cap: int = DEFAULT_SCAN_CAP) -> DistTable:
    """Residue distribution of s(n) mod d over n < N, projected from
    one pair census (see count_T for the methods)."""
    _check_modulus(d)
    if N < 1:
        raise ValueError("N must be positive")
    per_vertex = _vertex_counts(N, d, method, scan_cap)
    g = graph(d)
    counts = tuple(sum(per_vertex[pos] for pos in group)
                   for group in g.by_first)
    pairs = dict(zip(g.vertices, per_vertex)) if include_pairs else None
    dens = tuple(density(d, i) for i in range(d))
    return DistTable(d, N, counts, dens, pairs)


def minimal_polynomial(d: int,
                       max_order: int = DEFAULT_MATRIX_CAP) -> IntPolynomial:
    """Monic minimal polynomial mu_M of the adjacency matrix, ascending.

    The first dependency among x, xM, xM^2, ... mod 2^521 - 1, x seeded
    by d (Wiedemann 1986), is a monic f with deg f <= deg mu_M in
    symmetric residues; e_v f(M) = 0 over Z for every vertex v proves
    mu_M | f, so f = mu_M.  A failed proof raises ResourceLimitError.
    """
    g = _capped_graph(d, max_order)
    p = _KRYLOV_PRIME
    rng = random.Random(d)
    x = [rng.randrange(p) for _ in g.vertices]
    echelon = []  # (pivot, reduced vector with 1 at pivot, combination)
    while True:
        vec = x
        combo = [0] * len(echelon) + [1]
        for pivot, evec, ecombo in echelon:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, evec)]
                for pos, b in enumerate(ecombo):
                    combo[pos] = (combo[pos] - c * b) % p
        pivot = next((pos for pos, a in enumerate(vec) if a), None)
        if pivot is None:
            break
        inv = pow(vec[pivot], -1, p)
        echelon.append((pivot, [a * inv % p for a in vec],
                        [a * inv % p for a in combo]))
        x = [a % p for a in _step(g, x)]
    f = [c - p if c > p // 2 else c for c in combo]
    if any(any(_poly_row(g, v, f)) for v in range(len(g.vertices))):
        raise ResourceLimitError(
            f"Krylov minimal polynomial mod {d} failed its certificate")
    return f


@dataclass(frozen=True)
class RootValue:
    """One root of the minimal polynomial.

    exact roots (0 and 2) are split off by exact division and carry a
    zero residual; numeric roots report |f(z)| at the refined value.
    """

    value: complex
    multiplicity: int
    residual: float
    exact: bool


@dataclass(frozen=True)
class SpectralReport:
    d: int
    minimal_poly: tuple[int, ...]
    rho: float
    sigma: int
    multiplicity: int
    tau: float
    roots: tuple[RootValue, ...]


def _refined_roots(int_coeffs_asc, digits, max_steps):
    desc = list(reversed(int_coeffs_asc))
    last_err = None
    for dps, steps in ((digits, max_steps), (2 * digits + 20, 4 * max_steps)):
        with mp.workdps(dps):
            try:
                roots, err = mp.polyroots(desc, maxsteps=steps, error=True)
            except NoConvergence:
                continue
            last_err = err
            if err < mp.mpf(10) ** (-digits // 2):
                return roots
    raise NonConvergenceError(
        f"root refinement stalled (last error bound {last_err})")


def spectral(d: int, max_order: int = DEFAULT_MATRIX_CAP,
             digits: int = 40, max_steps: int = 120) -> SpectralReport:
    """Roots of the minimal polynomial with the derived decay data.

    The root 2 is removed by exact division (and must be simple), as
    are roots at 0; remaining roots come from the squarefree factors,
    refined to at least `digits`/2 correct digits.  rho is the largest
    modulus among non-2 roots, sigma + 1 the largest multiplicity at
    that modulus, and tau = max(0, log2 rho) the decay exponent.
    """
    f = minimal_polynomial(d, max_order=max_order)
    rest = [Fraction(c) for c in f]
    two_mult = 0
    while True:
        q, r = poly_divmod(rest, [-2, 1])
        if r:
            break
        rest = q
        two_mult += 1
    if two_mult != 1:
        raise NonConvergenceError(
            f"expected 2 to be a simple root, found multiplicity {two_mult}")
    zero_mult = 0
    while rest and rest[0] == 0:
        rest = rest[1:]
        zero_mult += 1
    roots = [RootValue(complex(2, 0), 1, 0.0, True)]
    if zero_mult:
        roots.append(RootValue(complex(0, 0), zero_mult, 0.0, True))
    desc_f = list(reversed(f))
    top = 0  # largest numeric root modulus, at refinement precision
    for factor, mult in squarefree_factors(rest):
        ints = [int(c) for c in poly_clear(factor)]
        for z in _refined_roots(ints, digits, max_steps):
            with mp.workdps(2 * digits):
                res = abs(mp.polyval(desc_f, z))
                top = max(top, abs(z))
            roots.append(RootValue(complex(float(z.real), float(z.imag)),
                                   mult, float(res), False))
    roots.sort(key=lambda rv: (rv.value.real, rv.value.imag))
    non_two = [rv for rv in roots if not (rv.exact and rv.value == 2)]
    rho = max((abs(rv.value) for rv in non_two), default=0.0)
    at_rho = [rv for rv in non_two if abs(rv.value) > rho - 1e-9]
    mult = max((rv.multiplicity for rv in at_rho), default=1)
    tau = 0.0
    if top > 1:
        # round log2 to the digits the refinement certifies before the
        # one rounding to float, so tau = 1/2 at d = 3 comes out exact
        with mp.workdps(digits):
            q = mp.mpf(10) ** (digits // 2)
            tau = float(mp.nint(mp.log(top, 2) * q) / q)
    return SpectralReport(d, tuple(f), rho, mult - 1, mult, tau, tuple(roots))


def poly_clear(f):
    """Scale a rational polynomial to integer coefficients (primitive
    up to the common denominator)."""
    denoms = [Fraction(c).denominator for c in f]
    lcm = 1
    for q in denoms:
        lcm = lcm * q // math.gcd(lcm, q)
    return [int(Fraction(c) * lcm) for c in f]


def graph_export(d: int, max_order: int = DEFAULT_MATRIX_CAP) -> str:
    """The pair digraph in DOT form, deterministic lex emission order."""
    g = _capped_graph(d, max_order)
    lines = [f"digraph stern_pairs_mod_{d} {{"]
    for i, j in g.vertices:
        lines.append(f'  "({i},{j})";')
    for pos, (i, j) in enumerate(g.vertices):
        li, lj = g.vertices[g.left[pos]]
        ri, rj = g.vertices[g.right[pos]]
        lines.append(f'  "({i},{j})" -> "({li},{lj})" [label="L"];')
        lines.append(f'  "({i},{j})" -> "({ri},{rj})" [label="R"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
