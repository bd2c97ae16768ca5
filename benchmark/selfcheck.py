#!/usr/bin/env python3
"""Check every reference in references.py against tests/oracles.py.

Run from the root of the repository:

    python3 benchmark/selfcheck.py

It exits 0 and prints one line per reference when all agree, and
exits 1 at the first disagreement.  The checks use small inputs only,
where the literal oracles are fast; they take about a second.
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
from oracles import (count_digit_strings, farey_fractions,  # noqa: E402
                     insertion_row, naive_stern)


def _naive_pow(M, r):
    n = len(M)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(r):
        out = [[sum(out[i][k] * M[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return out


def _naive_minpoly_degree(d):
    # smallest k with I, M, ..., M^k dependent, by exact elimination
    _, left, right = ref.feasible_graph(d)
    n = len(left)
    M = [[0] * n for _ in range(n)]
    for v in range(n):
        M[v][left[v]] += 1
        M[v][right[v]] += 1
    rows = []
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        vec = [Fraction(e) for row in power for e in row]
        for piv, r in rows:
            if vec[piv]:
                c = vec[piv] / r[piv]
                vec = [a - c * b for a, b in zip(vec, r)]
        piv = next((i for i, a in enumerate(vec) if a), None)
        if piv is None:
            return k
        rows.append((piv, vec))
        power = [[sum(power[i][m] * M[m][j] for m in range(n))
                  for j in range(n)] for i in range(n)]
    raise AssertionError("no dependency found")


def check(name, ok):
    print(f"{'ok' if ok else 'FAIL'}\t{name}")
    if not ok:
        sys.exit(1)


def main():
    check("pair_scan == oracle s(n), s(n+1) for n < 2^12",
          all(ref.pair_scan(n) == (naive_stern(n), naive_stern(n + 1))
              for n in range(1 << 12)))

    ok = True
    for d in range(2, 13):
        for N in list(range(0, 70)) + [257, 1000, 1 << 11, 3001]:
            direct = [0] * d
            for n in range(N):
                direct[naive_stern(n) % d] += 1
            ok &= ref.residue_counts(N, d) == direct
            pairs = {}
            for n in range(N):
                key = (naive_stern(n) % d, naive_stern(n + 1) % d)
                pairs[key] = pairs.get(key, 0) + 1
            ok &= ref.pair_census(N, d) == pairs
    check("pair_census / residue_counts == oracle scan, d <= 12, N <= 3001",
          ok)

    check("residue_counts_at_power == residue_counts at 2^k, k <= 40",
          all(ref.residue_counts_at_power(k, d) == ref.residue_counts(1 << k,
                                                                      d)
              for d in (2, 3, 5) for k in range(41)))

    running = 0
    ok = ref.delta(0) == 0
    for N in range(1, 3000):
        v = naive_stern(N - 1) % 3
        running += (v == 1) - (v == 2)
        ok &= ref.delta(N) == running
    check("delta == oracle running difference for N < 3000", ok)

    check("hyperbinary == oracle digit strings, d <= 12, n < 600",
          all(ref.hyperbinary(d, n) == count_digit_strings(d, n)
              for d in range(2, 13) for n in range(600)))
    check("hyperbinary == oracle on 60..120-bit n",
          all(ref.hyperbinary(d, n) == count_digit_strings(d, n)
              for d in (3, 5, 8) for n in (
                  (1 << 60) + 12345, (1 << 90) - 7, 3 ** 70, 5 ** 50)))

    ok = True
    for d in range(2, 6):
        verts, left, right = ref.feasible_graph(d)
        M = [[0] * len(verts) for _ in verts]
        for v in range(len(verts)):
            M[v][left[v]] += 1
            M[v][right[v]] += 1
        for r in (0, 1, 5, 9):
            P = _naive_pow(M, r)
            ok &= all(ref.walk_row(d, v, r) == P[v] for v in range(len(P)))
    check("walk_row == naive matrix power rows, d <= 5", ok)

    ok = True
    for d in range(2, 7):
        deg = _naive_minpoly_degree(d)
        ok &= all(ref.krylov_rank(d, deg + 1, s) <= deg for s in range(3))
        ok &= any(ref.krylov_rank(d, deg, s) == deg for s in range(3))
    # the certificate accepts the d = 3 minimal polynomial of the CLI
    # golden output and rejects a wrong and a non-minimal multiple of it
    ok &= ref.is_minimal_polynomial([0, 4, -4, 1, -2, 1], 3)
    ok &= not ref.is_minimal_polynomial([0, 4, -4, 1, -2, 2], 3)
    ok &= not ref.is_minimal_polynomial([0, 0, 4, -4, 1, -2, 1], 3)
    check("Krylov rank == exact dependency degree; certificate on d = 3",
          ok)

    ok = True
    for x in farey_fractions(40):
        # ?(x) from the mediant-tree definition, bit by bit
        lo, hi = (0, 1), (1, 1)
        value, step = Fraction(0), Fraction(1)
        if x in (0, 1):
            ok &= ref.minkowski(x) == x
            continue
        while True:
            med = (lo[0] + hi[0], lo[1] + hi[1])
            step /= 2
            if Fraction(*med) == x:
                value += step
                break
            if Fraction(*med) < x:
                value += step
                lo = med
            else:
                hi = med
        ok &= ref.minkowski(x) == value
    check("minkowski == mediant-tree bisection on the Farey set F_40", ok)

    ok = True
    for r in range(0, 13):
        prefix = sum(Fraction(naive_stern(n), naive_stern(n + 1))
                     for n in range(1 << r))
        ok &= ref.prefix_sum_at_power(r) == prefix
    for N in (1, 2, 3, 5, 77, 1000, 4097):
        direct = sum(Fraction(naive_stern(n), naive_stern(n + 1))
                     for n in range(N))
        ok &= ref.prefix_sum(N) == direct
        low, high = ref.sum_enclosure(N)
        ok &= low <= direct < high
    check("prefix sums == oracle; enclosure holds", ok)

    ok = all(ref.insertion_consistent(insertion_row(r, a, b), a, b)
             for r in range(0, 9) for a, b in ((0, 1), (1, 1), (3, 7)))
    bad = insertion_row(6, 2, 5)
    bad[17] += 1
    ok &= not ref.insertion_consistent(bad, 2, 5)
    check("insertion_consistent accepts oracle rows, rejects a changed one",
          ok)


if __name__ == "__main__":
    main()
