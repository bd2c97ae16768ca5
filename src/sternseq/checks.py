"""Named invariant suites for the `verify` subcommand.

Each suite runs scaled-down versions of the library's defining
identities and returns (name, ok, detail) triples.  The full-size
versions live in the test suite; these exist so a user can sanity-check
an installation in seconds.
"""

import math
from fractions import Fraction

from .core import (block_decompose, diatomic_row, stern, stern_block,
                   stern_pair, stern_ratio, stern_table)
from .enumeration import (INFINITY, brocot_row, index_of_rational,
                          minkowski_q, rational_of_index, reverse_bits,
                          to_odd_cfrac)
from .moddist import (adjacency, count_block, count_T, density,
                      feasible_pairs, graph, index_I, left_step,
                      minimal_polynomial, pair_counts, right_step,
                      s_mod_pair, walk_counts)
from .exactalg import poly_eval, poly_eval_matrix, mat_is_zero
from .smalld import (a3_enumerate, a3_member, a3_row_count,
                     a3_row_count_closed, delta3, delta3_classify,
                     delta3_trace, even_stern_index, hyperbinary,
                     t3_zero_closed)
from .sums import (alpha_estimate, prefix_row_sum, row_sum, t_prefix_sum,
                   theorem_bounds)


def _all(name, pairs):
    bad = [(x, got, want) for x, got, want in pairs if got != want]
    if bad:
        x, got, want = bad[0]
        return (name, False, f"at {x}: got {got}, want {want}")
    return (name, True, "")


def suite_core():
    out = []
    s = stern_table(1 << 11)
    out.append(_all("pair scan matches doubling table",
                    [(n, stern_pair(n), (s[n], s[n + 1]))
                     for n in range(1 << 11)]))
    out.append(_all("consecutive values coprime",
                    [(n, math.gcd(*stern_pair(n)), 1)
                     for n in range(1 << 10)]))
    out.append(_all("mirror symmetry within rows",
                    [((r, k), s[(1 << r) + k], s[(1 << (r + 1)) - k])
                     for r in range(10) for k in range((1 << r) + 1)]))
    out.append(_all("ratio recurrences under doubling",
                    [(n, (stern_ratio(2 * n), stern_ratio(2 * n + 1)),
                      (1 / (1 + 1 / stern_ratio(n)), 1 + stern_ratio(n)))
                     for n in range(1, 1 << 8)]))
    out.append(_all("block identity",
                    [((r, n, k), stern_block(r, n, k), s[(n << r) + k])
                     for r in range(5) for n in range(16)
                     for k in range((1 << r) + 1)]))
    rows_ok = all(
        diatomic_row(r, a, b) == [stern((1 << r) - k) * a + stern(k) * b
                                  for k in range((1 << r) + 1)]
        for r in range(6) for a in range(3) for b in range(3))
    out.append(("row closed form matches insertion rule", rows_ok, ""))
    tile_ok = True
    for N in (1, 7, 13, 1024, 88573):
        cover = []
        for r, m in block_decompose(N):
            cover.extend(range(m << r, (m + 1) << r))
        tile_ok &= cover == list(range(N))
        tile_ok &= all(m % 2 == 0 for _, m in block_decompose(N))
    out.append(("block decomposition tiles [0, N)", tile_ok, ""))
    return out


def suite_enumeration():
    out = []
    out.append(_all("index round trip",
                    [(n, index_of_rational(rational_of_index(n)), n)
                     for n in range(1, 1 << 10)]))
    # 12/1 has quotient sum 12, hence a 12-bit index; scan the whole range.
    seen = {}
    for n in range(1, 1 << 12):
        seen.setdefault(rational_of_index(n), n)
    out.append(("enumeration hits reduced p/q <= 12 once",
                all(Fraction(p, q) in seen
                    for p in range(1, 13) for q in range(1, 13)
                    if math.gcd(p, q) == 1), ""))
    qs_ok = True
    for n in range(1, 1 << 9):
        x = stern_ratio(n)
        if x < 1:
            x = 1 / x
        qs_ok &= sum(to_odd_cfrac(x)) == n.bit_length()
    out.append(("quotient sum equals row number plus one", qs_ok, ""))
    s = stern_table(1 << 9)
    rev_ok = True
    for r in range(2, 9):
        for k in range(1, 1 << r, 2):
            m = reverse_bits((1 << r) + k)
            rev_ok &= (Fraction(s[(1 << r) + k], s[(1 << r) - k])
                       == Fraction(s[m], s[m + 1]))
    out.append(("bit reversal swaps row halves", rev_ok, ""))
    br_ok = True
    for r in range(7):
        row = brocot_row(r)
        br_ok &= row[-1] is INFINITY
        br_ok &= all(row[i] < row[i + 1] for i in range(len(row) - 1))
    out.append(("Stern-Brocot rows strictly increase to 1/0", br_ok, ""))
    mk_ok = minkowski_q(Fraction(1, 3)).as_fraction() == Fraction(1, 4)
    for r in range(7):
        for ell in range(1, (1 << r) + 1, 2):
            got = minkowski_q(Fraction(s[ell], s[(1 << (r + 1)) - ell]))
            mk_ok &= got.as_fraction() == Fraction(ell, 1 << r)
    out.append(("question mark maps row fractions to dyadics", mk_ok, ""))
    return out


def suite_moddist():
    out = []
    ok = True
    for d in range(2, 13):
        pairs = feasible_pairs(d)
        total, rows = pair_counts(d)
        ok &= len(pairs) == total
        ok &= all(sum(1 for i, _ in pairs if i == v) == rows[v]
                  for v in range(d))
    out.append(("pair count formulas match enumeration", ok, ""))
    ok = True
    for d in (2, 3, 5, 8):
        t = stern_table(1 << 9, mod=d)
        for n in range(1 << 8):
            pair = (t[n], t[n + 1])
            ok &= left_step(pair, d) == (t[2 * n], t[2 * n + 1])
            ok &= right_step(pair, d) == (t[2 * n + 1], t[2 * n + 2])
            ok &= s_mod_pair(n, d) == pair
    out.append(("L and R implement index doubling", ok, ""))
    ok = True
    for d in range(2, 16):
        g = graph(d)
        for v in g.vertices:
            lv = rv = v
            for _ in range(d):
                lv = left_step(lv, d)
                rv = right_step(rv, d)
            ok &= lv == v and rv == v
    out.append(("L^d and R^d are the identity", ok, ""))
    ok = True
    for d in (2, 3, 4, 5, 9, 12):
        M = adjacency(d)
        ok &= all(sum(row) == 2 for row in M)
        ok &= all(sum(col) == 2 for col in zip(*M))
        for r in range(5):
            P = walk_counts(d, r)
            for m in range(8):
                alpha = s_mod_pair(m, d)
                g = graph(d)
                row = P[g.index[alpha]]
                for pos, beta in enumerate(g.vertices):
                    ok &= row[pos] == count_block(d, beta, m << r,
                                                  (m + 1) << r)
    out.append(("walk counts equal block pair counts", ok, ""))
    ok = True
    for d in (2, 3, 4, 6):
        N = 3000
        ok &= sum(count_T(N, d, i) for i in range(d)) == N
        ok &= sum(density(d, i) for i in range(d)) == 1
        ok &= density(d, 0) * index_I(d) == 1
        t = stern_table(N - 1, mod=d)
        ok &= all(count_T(N, d, i) == t.count(i) for i in range(d))
    out.append(("count strategies agree and densities sum to 1", ok, ""))
    ok = True
    for d in (2, 3, 4, 5):
        f = minimal_polynomial(d)
        ok &= mat_is_zero(poly_eval_matrix(f, adjacency(d)))
        ok &= poly_eval(f, 2) == 0
    out.append(("minimal polynomial annihilates and vanishes at 2", ok, ""))
    return out


def suite_smalld():
    out = []
    t3 = stern_table(1 << 12, mod=3)
    out.append(_all("parity of s(n) is periodic with period 3",
                    [(n, even_stern_index(n), stern(n) % 2 == 0)
                     for n in range(1 << 9)]))
    out.append(_all("membership chain matches s mod 3",
                    [(n, a3_member(n), t3[n] == 0)
                     for n in range(1 << 12)]))
    members = a3_enumerate(1 << 10)
    out.append(("closure enumeration matches membership",
                members == [n for n in range(1 << 10) if t3[n] == 0], ""))
    ok = all(a3_row_count(r) == a3_row_count_closed(r) for r in range(40))
    ok &= all(a3_row_count(r)
              == sum(1 for n in range(1 << r, 2 << r) if t3[n] == 0)
              for r in range(12))
    out.append(("row counts: recurrence, closed form, scan", ok, ""))
    ok = all(t3_zero_closed(r)
             == sum(1 for n in range(1 << r) if t3[n] == 0)
             for r in range(13))
    out.append(("prefix zero counts match closed form", ok, ""))
    tr = delta3_trace(1 << 11)
    ok = all(0 <= v <= 3 for v in tr)
    ok &= all(tr[2 * n] == tr[4 * n] for n in range(1 << 9))
    ok &= all((tr[2 * m], tr[2 * m + 1]) == delta3_classify(m)
              for m in range(1 << 10))
    ok &= delta3(1 << 10) == tr[1 << 10]
    ok &= delta3(300) == tr[300]
    out.append(("residue-count difference stays in {0..3}", ok, ""))
    ok = all(hyperbinary(2, n) == 1 for n in range(200))
    ok &= all(hyperbinary(3, n - 1) == stern(n) for n in range(1, 1 << 9))
    ok &= all((hyperbinary(d, n) % 2 == 1) == (n % d in (0, 1))
              for d in range(2, 7) for n in range(1 << 8))
    out.append(("hyperbinary counts: base cases and parity", ok, ""))
    return out


def suite_sums():
    out = []
    table = stern_table(1 << 10)
    ratios = [Fraction(table[n], table[n + 1]) for n in range(1 << 10)]
    ok = all(sum(ratios[1 << r:2 << r], Fraction(0)) == row_sum(r)
             for r in range(10))
    ok &= all(sum(ratios[:1 << r], Fraction(0)) == prefix_row_sum(r)
              for r in range(11))
    out.append(("row and prefix sums match closed forms", ok, ""))
    ok = True
    for N in (1, 2, 37, 256, 777, 1 << 10):
        rep = t_prefix_sum(N)
        low, high = theorem_bounds(N)
        ok &= low <= rep.exact_sum < high
        ok &= abs(rep.float_sum - float(rep.exact_sum)) \
            <= rep.float_error_bound
    out.append(("prefix sums inside proven enclosure", ok, ""))
    a1 = alpha_estimate(1, 1 << 14)
    out.append(("lag-1 mean near 3/2", abs(a1 - 1.5) < 0.01, f"{a1:.6f}"))
    return out


SUITES = {
    "core": suite_core,
    "enumeration": suite_enumeration,
    "moddist": suite_moddist,
    "small-d": suite_smalld,
    "sums": suite_sums,
}


def run_suite(name: str):
    """Run one named suite (or 'all'); list of (check, ok, detail)."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend((f"{key}: {n}", ok, det)
                       for n, ok, det in SUITES[key]())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {', '.join([*SUITES, 'all'])}")
    return SUITES[name]()
