"""Residue-pair walk graph, counts, densities, exact spectra."""
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sternseq
from oracles import dense_minimal_polynomial
from sternseq import (ResourceLimitError, adjacency, count_T, count_block,
                      density, dist_table, feasible_pairs, graph,
                      graph_export, index_I, left_step, minimal_polynomial,
                      pair_counts, right_step, s_mod_pair, spectral, stern,
                      stern_pair, stern_table, walk_counts)
from sternseq.exactalg import mat_is_zero, mat_mul, mat_pow, poly_eval_matrix

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

moduli = st.integers(min_value=2, max_value=30)


def test_feasible_pairs_golden():
    assert feasible_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 1),
                                 (1, 2), (2, 0), (2, 1), (2, 2)]
    assert feasible_pairs(2) == [(0, 1), (1, 0), (1, 1)]


@given(moduli)
def test_feasible_pairs_definition(d):
    pairs = feasible_pairs(d)
    assert pairs == sorted(pairs)
    assert pairs == [(i, j) for i in range(d) for j in range(d)
                     if math.gcd(i, j, d) == 1]


def test_pair_count_golden():
    assert pair_counts(3)[0] == 8
    assert pair_counts(2)[0] == 3
    assert pair_counts(6)[0] == 24


def test_pair_count_formula_vs_enumeration():
    for d in range(2, 61):
        total, rows = pair_counts(d)
        pairs = feasible_pairs(d)
        assert total == len(pairs)
        by_first = Counter(i for i, _ in pairs)
        assert rows == [by_first[i] for i in range(d)]


@given(moduli, st.integers(min_value=0, max_value=1 << 24))
def test_doubling_walks_the_graph(d, n):
    cur = s_mod_pair(n, d)
    assert cur == tuple(v % d for v in stern_pair(n))
    assert s_mod_pair(2 * n, d) == left_step(cur, d)
    assert s_mod_pair(2 * n + 1, d) == right_step(cur, d)


def test_steps_never_collide():
    """The two successors of a feasible pair are always distinct.

    If they met, the corresponding adjacency row would sum to 1 and
    walk counting would silently undercount.
    """
    for d in range(2, 65):
        for pair in feasible_pairs(d):
            assert left_step(pair, d) != right_step(pair, d)


def test_step_maps_have_order_d():
    for d in range(2, 16):
        for pair in feasible_pairs(d):
            cur = pair
            for _ in range(d):
                cur = left_step(cur, d)
            assert cur == pair
            cur = pair
            for _ in range(d):
                cur = right_step(cur, d)
            assert cur == pair


def test_graph_is_consistent_with_steps():
    for d in (2, 3, 4, 6, 10):
        g = graph(d)
        assert list(g.vertices) == feasible_pairs(d)
        for pos, v in enumerate(g.vertices):
            assert g.vertices[g.left[pos]] == left_step(v, d)
            assert g.vertices[g.right[pos]] == right_step(v, d)
        for i, block in enumerate(g.by_first):
            assert all(g.vertices[pos][0] == i for pos in block)


def test_adjacency_golden_matrix():
    assert adjacency(3) == ADJ3


def test_adjacency_rows_and_columns_sum_to_two():
    for d in range(2, 13):
        m = adjacency(d)
        assert all(sum(row) == 2 for row in m)
        assert all(sum(col) == 2 for col in zip(*m))


def test_adjacency_cap():
    with pytest.raises(ResourceLimitError):
        adjacency(7, max_order=10)


def test_walk_counts_identity_and_composition():
    for d in (2, 3, 5):
        n = pair_counts(d)[0]
        assert walk_counts(d, 0) == [[int(i == j) for j in range(n)]
                                     for i in range(n)]
        assert walk_counts(d, 7) == mat_mul(walk_counts(d, 3),
                                            walk_counts(d, 4))
        assert walk_counts(d, 7) == mat_pow(adjacency(d), 7)


def test_walk_counts_against_block_scan():
    """Walk counts of length r out of S_d(m) census block m exactly."""
    for d in (2, 3, 4, 5):
        tab = stern_table(1 << 9, mod=d)
        g = graph(d)
        m_powers = {r: walk_counts(d, r) for r in range(7)}
        for r in range(7):
            w = 1 << r
            for m in range(1 << (9 - r)):
                hist = Counter(zip(tab[m * w:(m + 1) * w],
                                   tab[m * w + 1:(m + 1) * w + 1]))
                row = m_powers[r][g.index[s_mod_pair(m, d)]]
                assert all(hist.get(v, 0) == row[pos]
                           for pos, v in enumerate(g.vertices))


def test_count_block_matches_direct_scan(table16_mod3):
    lo, hi = 300, 700
    want = sum(1 for n in range(lo, hi)
               if (table16_mod3[n], table16_mod3[n + 1]) == (1, 2))
    assert count_block(3, (1, 2), lo, hi) == want
    with pytest.raises(ValueError):
        count_block(3, (1, 2), 10, 10)


def test_count_strategies_are_bit_identical():
    import random
    rng = random.Random(421)
    for _ in range(12):
        N = rng.randint(1, 1 << 14)
        d = rng.choice([2, 3, 4, 5, 7, 9])
        i = rng.randrange(d)
        a = count_T(N, d, i, method="scan")
        b = count_T(N, d, i, method="blocks")
        assert a == b
        assert count_T(N, d, i) == a


def test_count_T_caps_and_validation():
    with pytest.raises(ResourceLimitError):
        count_T(1 << 12, 3, 0, method="scan", scan_cap=1 << 10)
    assert count_T(100, 3, 5) == count_T(100, 3, 2)  # residue is reduced
    with pytest.raises(ValueError):
        count_T(100, 3, 0, method="nope")


def test_density_golden():
    assert density(3, 0) == Fraction(1, 4)
    assert density(3, 1) == Fraction(3, 8)
    assert density(3, 2) == Fraction(3, 8)
    assert density(2, 0) == Fraction(1, 3)
    for d in range(2, 13):
        assert sum(density(d, i) for i in range(d)) == 1


def test_index_I_golden():
    expected = {2: 3, 3: 4, 4: 6, 5: 6, 6: 12, 8: 12, 9: 12, 11: 12,
                22: 36, 27: 36}
    for d, val in expected.items():
        assert index_I(d) == val
        assert density(d, 0) == Fraction(1, val)


def test_dist_table_counts_and_deviations():
    dt = dist_table(1 << 12, 3, include_pairs=True)
    assert sum(dt.counts) == 1 << 12
    assert dt.counts[0] == count_T(1 << 12, 3, 0)
    assert sum(dt.pair_counts.values()) == 1 << 12
    assert max(dt.deviations()) < 0.02
    far = dist_table(1 << 18, 3, method="blocks")
    assert max(far.deviations()) < max(dt.deviations())


@settings(deadline=None)
@given(moduli, st.integers(min_value=1, max_value=(1 << 14) - 1),
       st.integers(min_value=0, max_value=29))
def test_census_projections_match_scan_twin(d, N, i):
    census = dist_table(N, d, include_pairs=True)
    scan = dist_table(N, d, method="scan", include_pairs=True)
    assert census.counts == scan.counts
    assert census.pair_counts == scan.pair_counts
    assert count_T(N, d, i) == count_T(N, d, i, method="scan") \
        == census.counts[i % d]


def test_census_far_past_the_scan_cap():
    N = (1 << 1000) - 1
    t = dist_table(N, 24, include_pairs=True)
    assert sum(t.counts) == N == sum(t.pair_counts.values())
    assert count_T(N, 24, 5) == t.counts[5]
    # converging at rate about N^(tau - 1): far below float resolution
    assert all(abs(Fraction(c, N) - den) < Fraction(1, 1 << 400)
               for c, den in zip(t.counts, t.densities))


def test_dist_table_methods_agree():
    for N in (1, 37, 4096, 12345):
        a = dist_table(N, 5, method="scan")
        b = dist_table(N, 5, method="blocks")
        assert a.counts == b.counts


def test_minimal_polynomial_golden():
    assert minimal_polynomial(3) == [0, 4, -4, 1, -2, 1]
    assert minimal_polynomial(2) == [2, -1, -2, 1]


def test_minimal_polynomial_annihilates():
    """f(M) = 0, and f is the first dependency among I, M, M^2, ..."""
    for d in range(2, 9):
        f = minimal_polynomial(d)
        assert f[-1] == 1
        m = adjacency(d)
        assert mat_is_zero(poly_eval_matrix(f, m))
        assert f == dense_minimal_polynomial(m)
        # 2 is always an eigenvalue: rows sum to 2
        assert sum(c * 2 ** k for k, c in enumerate(f)) == 0


def test_minimal_polynomial_past_the_dense_range():
    for d, degree in ((15, 60), (16, 58)):
        f = minimal_polynomial(d)
        assert len(f) - 1 == degree and f[-1] == 1
        assert sum(c * 2 ** k for k, c in enumerate(f)) == 0
        assert sum(k * c * 2 ** (k - 1) for k, c in enumerate(f) if k) != 0


def test_minimal_polynomial_certificate_survives_optimize():
    """Under python -O a Krylov prime too small for the coefficients
    still fails the exact certificate instead of returning a wrong
    polynomial; coefficients below half the prime still pass."""
    src = (
        "import sys\n"
        "from sternseq import ResourceLimitError, moddist\n"
        "moddist._KRYLOV_PRIME = 1009\n"
        "try:\n"
        "    moddist.minimal_polynomial(8)\n"  # largest |coefficient| 512
        "except ResourceLimitError:\n"
        "    print('raised')\n"
        "print(*moddist.minimal_polynomial(3))\n"
        "print(sys.flags.optimize)\n")
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-O", "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised", "0 4 -4 1 -2 1", "1"]


def test_spectral_d3():
    rep = spectral(3)
    assert abs(rep.rho - math.sqrt(2)) < 1e-9
    assert rep.tau == 0.5
    assert rep.sigma == 0
    assert rep.minimal_poly == (0, 4, -4, 1, -2, 1)
    vals = sorted(round(abs(rv.value), 6) for rv in rep.roots)
    assert vals == [0.0, 1.0, round(math.sqrt(2), 6),
                    round(math.sqrt(2), 6), 2.0]
    assert all(rv.residual < 1e-12 for rv in rep.roots)
    assert sum(rv.multiplicity for rv in rep.roots) == 5


def test_spectral_d2():
    rep = spectral(2)
    assert abs(rep.rho - 1.0) < 1e-9
    assert rep.tau == 0.0


def test_spectral_d5():
    rep = spectral(5)
    assert abs(rep.rho - math.sqrt(2)) < 1e-9
    assert rep.tau == 0.5


def test_graph_export_dot():
    dot = graph_export(2)
    assert dot.splitlines()[0] == "digraph stern_pairs_mod_2 {"
    assert '"(1,1)" -> "(0,1)" [label="R"];' in dot
    assert dot.count("->") == 6
