"""Acceptance gate: twelve criteria, each timed against its budget.

Every test prints exactly one `[acceptance] criterion NN: PASS|FAIL`
line on the real terminal (bypassing capture), then asserts.  A
criterion passes only if its checks hold AND it finishes inside the
stated runtime budget.
"""
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from oracles import (_poly_row, count_digit_strings, pairwise_fraction_sum,
                     product_coefficients)
from sternseq import (a3_row_count, a3_row_count_closed, adjacency,
                      alpha_estimate, count_T, delta3_classify, delta3_trace,
                      dist_table, graph, hyperbinary, index_of_rational,
                      minimal_polynomial, rational_of_index, row_sum,
                      prefix_row_sum, s_mod_pair, spectral, stern,
                      stern_table, t3_zero_closed, theorem_bounds,
                      to_odd_cfrac, walk_counts)
from sternseq.cli import run as cli_run

ADJ3 = [
    [1, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 1, 0],
    [0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1],
    [1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0, 1, 0],
]


@contextmanager
def criterion(num, limit, capsys):
    start = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        took = time.monotonic() - start
        verdict = "PASS" if not failed and took < limit else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] criterion {num:02d}: {verdict} "
                  f"({took:.2f}s, budget {limit:.0f}s)")
    assert took < limit, f"criterion {num} took {took:.2f}s of {limit}s"


def cli_lines(*argv):
    import io
    out = io.StringIO()
    assert cli_run(list(argv), stdout=out, stderr=io.StringIO()) == 0
    return out.getvalue().splitlines()


def test_criterion_01_golden_rows(capsys):
    with criterion(1, 1.0, capsys):
        assert cli_lines("row", "3", "0", "1") == [
            "0", "1", "1", "2", "1", "3", "2", "3", "1"]
        ratio_row = [cli_lines("ratio", str(n))[0] for n in range(8, 16)]
        assert ratio_row == ["1/4", "4/3", "3/5", "5/2",
                             "2/5", "5/3", "3/4", "4/1"]


def test_criterion_02_coprime_and_mirror(capsys):
    with criterion(2, 10.0, capsys):
        tab = stern_table(1 << 16)
        assert all(math.gcd(tab[n], tab[n + 1]) == 1
                   for n in range(1 << 16))
        for r in range(13):
            assert all(tab[(1 << r) + k] == tab[(1 << (r + 1)) - k]
                       for k in range((1 << r) + 1))


def test_criterion_03_enumeration_bijection(capsys):
    with criterion(3, 30.0, capsys):
        for n in range(1, (1 << 16) + 1):
            x = rational_of_index(n)
            assert index_of_rational(x) == n
            big = x if x >= 1 else 1 / x
            assert sum(to_odd_cfrac(big)) == n.bit_length()
        for p in range(1, 41):
            for q in range(1, 41):
                if math.gcd(p, q) == 1:
                    x = Fraction(p, q)
                    assert rational_of_index(index_of_rational(x)) == x


def test_criterion_04_walk_count_oracle(capsys):
    with criterion(4, 60.0, capsys):
        for d in (2, 3, 4, 5):
            tab = stern_table(1 << 16, mod=d)
            g = graph(d)
            for r in range(11):
                w = 1 << r
                walks = walk_counts(d, r)
                for m in range(64):
                    census = Counter(zip(tab[m * w:(m + 1) * w],
                                         tab[m * w + 1:(m + 1) * w + 1]))
                    row = walks[g.index[(tab[m], tab[m + 1])]]
                    assert all(census.get(v, 0) == row[pos]
                               for pos, v in enumerate(g.vertices))


def test_criterion_05_exact_structures(capsys):
    with criterion(5, 5.0, capsys):
        assert adjacency(3) == ADJ3
        assert minimal_polynomial(3) == [0, 4, -4, 1, -2, 1]
        rep = spectral(3)
        assert abs(rep.rho - math.sqrt(2)) < 1e-9
        assert rep.tau == 0.5


def test_criterion_06_distribution_convergence(capsys):
    with criterion(6, 60.0, capsys):
        for d in (3, 5):
            near = max(dist_table(1 << 10, d).deviations())
            far = max(dist_table(1 << 18, d).deviations())
            assert far < near
            assert far < 0.01


def test_criterion_07_d3_closed_forms(capsys):
    with criterion(7, 60.0, capsys):
        for r in range(21):
            assert t3_zero_closed(r) == count_T(1 << r, 3, 0)
        for r in range(41):
            assert a3_row_count(r) == a3_row_count_closed(r)
        tab = stern_table(1 << 17, mod=3)
        for r in range(17):
            assert a3_row_count(r) == tab[1 << r:2 << r].count(0)


def test_criterion_08_delta_boundedness(capsys):
    with criterion(8, 60.0, capsys):
        tr = delta3_trace(1 << 20)
        assert all(0 <= tr[n] <= 3 for n in range((1 << 16) + 1))
        assert all((tr[2 * m], tr[2 * m + 1]) == delta3_classify(m)
                   for m in range(1, (1 << 15) + 1))
        assert all(tr[2 * N] == tr[4 * N] for N in range(1, (1 << 14) + 1))
        freq = Counter(tr[n] for n in range(1, (1 << 20) + 1))
        for value, target in enumerate((0.125, 0.375, 0.375, 0.125)):
            assert abs(freq[value] / (1 << 20) - target) < 0.01


def _count_zero_residues(r, d):
    g = graph(d)
    row = _poly_row(g, g.index[(0, 1)], [0] * r + [1])
    return sum(row[pos] for pos in g.by_first[0])


def test_criterion_09_cross_modulus_equalities(capsys):
    with criterion(9, 30.0, capsys):
        witnesses = []
        for r in range(20):
            t = {d: _count_zero_residues(r, d)
                 for d in (4, 5, 6, 8, 9, 11, 22, 27)}
            assert t[4] == t[5]
            assert t[6] == t[9] == t[11]
            assert t[22] == t[27]
            if t[8] != t[6]:
                witnesses.append(r)
        assert witnesses


def test_criterion_10_average_value(capsys):
    with criterion(10, 120.0, capsys):
        tab = stern_table(1 << 16)

        def ratios(lo, hi):
            return (Fraction(tab[n], tab[n + 1]) for n in range(lo, hi))

        rng = random.Random(2718)
        targets = sorted(rng.randint(1, 1 << 16) for _ in range(500))
        acc, prev = Fraction(0), 0
        for N in targets:
            if N > prev:
                acc += pairwise_fraction_sum(ratios(prev, N))
                prev = N
            low, high = theorem_bounds(N)
            assert low <= acc < high
        running = Fraction(0)
        for r in range(13):
            direct = pairwise_fraction_sum(ratios(1 << r, 2 << r))
            assert row_sum(r) == direct
            assert prefix_row_sum(r) == running
            running += direct
        assert 1.499 <= alpha_estimate(1, 1 << 20) <= 1.501
        for lag, target in ((2, 1.262), (3, 1.643), (4, 1.161)):
            assert abs(alpha_estimate(lag, 1 << 20) - target) < 0.02


def test_criterion_11_hyperbinary(capsys):
    with criterion(11, 30.0, capsys):
        for n in range(1 << 12):
            assert hyperbinary(2, n) == 1
            assert hyperbinary(3, n) == stern(n + 1)
        for d in range(2, 9):
            for n in range(1 << 12):
                assert (hyperbinary(d, n) % 2 == 1) == (n % d in (0, 1))
        coeffs = product_coefficients(1024)
        assert all(coeffs[n] == stern(n) for n in range(1, 1025))


def test_criterion_12_d5_range(capsys):
    with criterion(12, 120.0, capsys):
        tab = stern_table(1 << 19, mod=5)
        ones = fours = 0
        lowest = highest = 0
        for n in range(1 << 19):
            v = tab[n]
            if v == 1:
                ones += 1
            elif v == 4:
                fours += 1
            gap = ones - fours
            if gap < lowest:
                lowest = gap
            elif gap > highest:
                highest = gap
        assert -5 <= lowest and highest <= 11