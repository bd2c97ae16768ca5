"""Residue-pair walk graph, counts, densities, exact spectra."""
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sternseq
from mpmath import mp
from oracles import (_poly_row, dense_minimal_polynomial, pair_histogram,
                     polyroots, product_density, product_index_I,
                     residue_counts, walk_rows, yun_squarefree_factors)
from sternseq import (DEFAULT_DIGIT_CAP, DEFAULT_MATRIX_CAP, DEFAULT_WORK_CAP,
                      ResourceLimitError, adjacency, count_T, count_block,
                      density, dist_table, feasible_pairs, graph,
                      graph_export, index_I, left_step, minimal_polynomial,
                      pair_counts, right_step, s_mod_pair, spectral, stern,
                      stern_pair, stern_table, walk_counts)
from sternseq.cli import run as cli_run
from sternseq.exactalg import (mat_is_zero, mat_mul, mat_pow, poly_derivative,
                               poly_divmod, poly_eval_matrix, poly_gcd,
                               poly_trim, squarefree_factors)
from sternseq.moddist import _orbits, _predecessors

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


@pytest.fixture(scope="session")
def mu():
    """mu_M for d <= 26 on the full ladder.  Session fixtures are set up
    before a test's monkeypatch, so no patched ladder reaches these."""
    return {d: minimal_polynomial(d) for d in range(2, 27)}


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
    with pytest.raises(ResourceLimitError):  # before d is factored
        pair_counts(10**12)


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
    """M^0 = I and M^7 = M^3 M^4, returned as lists that share no row
    object, so a caller may change one row without touching another."""
    for d in (2, 3, 5):
        n = pair_counts(d)[0]
        assert walk_counts(d, 0) == [[int(i == j) for j in range(n)]
                                     for i in range(n)]
        assert walk_counts(d, 7) == mat_mul(walk_counts(d, 3),
                                            walk_counts(d, 4))
        rows = walk_counts(d, 7)
        assert rows == mat_pow(adjacency(d), 7)
        assert all(type(row) is list for row in rows)
        assert len({id(row) for row in rows}) == n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=40))
@example(3, 0)
@example(5, 7)
@example(8, 8)
@example(7, 15)
@example(2, 16)
def test_walk_counts_match_dense_power(d, r):
    """Packed rows against the dense oracle, across field widths of
    max(r, 1) = 1 to 40 bits."""
    assert walk_counts(d, r) == mat_pow(adjacency(d), r)


def _admitted_walks(d):
    # (d, r) for the walk lengths r <= 64 whose N_d^2 (r + 1) steps the
    # work cap admits
    cap = DEFAULT_WORK_CAP // pair_counts(d)[0] ** 2 - 1
    return st.tuples(st.just(d), st.integers(0, min(64, cap)))


_PACKINGS = [1, 1 << 10, 1 << 14, sternseq.moddist._PACK_BITS]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40).flatmap(_admitted_walks),
       st.sampled_from(_PACKINGS))
@example((2, 7), _PACKINGS[-1])
@example((2, 16), 1)
@example((9, 8), 1 << 10)
@example((9, 15), 1 << 14)
@example((12, 16), 1 << 14)
@example((12, 7), 1)
@example((30, 8), 1 << 14)
@example((9, 63), 1 << 10)
@example((9, 64), _PACKINGS[-1])
@example((30, 5), 1)
@example((40, 1), _PACKINGS[-1])
@example((9, 0), 1)
@example((40, 0), _PACKINGS[-1])
@example((12, 1), 1 << 10)
@example((40, 1), 1)
@example((2, 0), 1)
@example((2, 1), 1 << 10)
@example((7, 0), 1 << 14)
@example((7, 1), 1)
@example((30, 1), 1 << 14)
@example((30, 2), 1)
def test_walk_counts_match_all_rows_twin(case, bits):
    """The rows stepped at the orbit representatives and gathered onto
    the rest equal the twin that steps every row, at phi(d) = 1 (d = 2),
    in the one-bit fields of r = 0 and r = 1, where an entry of M^1 is
    at most 2^(r - 1) = 1, and decoded across group boundaries: the bit
    bounds cut the representatives into groups of every size down to
    one."""
    d, r = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sternseq.moddist, "_PACK_BITS", bits)
        rows = walk_counts(d, r)
    assert rows == walk_rows(graph(d), r)


def test_steps_are_permutations():
    """The pull-form step gathers from one L- and one R-predecessor,
    which needs both edge maps to be bijections of the vertices."""
    for d in range(2, 31):
        g = graph(d)
        order = list(range(len(g.vertices)))
        assert sorted(g.left) == order
        assert sorted(g.right) == order
        for v, (a, b) in enumerate(_predecessors(d)):
            assert (g.left[a], g.right[b]) == (v, v)


def test_walk_length_cap(monkeypatch):
    """Entries of M^r reach 2^r, so r takes the bit cap, checked before
    the graph or the rows are built."""
    def unreachable(d, max_order):
        raise AssertionError("graph built past the cap")

    monkeypatch.setattr(sternseq.moddist, "_capped_graph", unreachable)
    with pytest.raises(ResourceLimitError, match="walk length"):
        walk_counts(2, DEFAULT_DIGIT_CAP + 1)


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


def test_count_block_work_cap(monkeypatch):
    """A range whose bit scans exceed the work cap is rejected before
    any index is scanned."""
    def no_scan(n, d):
        raise AssertionError("scanned an index")

    monkeypatch.setattr(sternseq.moddist, "s_mod_pair", no_scan)
    for lo, hi in ((0, DEFAULT_WORK_CAP), (1 << 80, (1 << 80) + (1 << 16))):
        with pytest.raises(ResourceLimitError, match="work cap"):
            count_block(3, (1, 2), lo, hi)


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
        assert count_T(N, d, i) == residue_counts(N, d)[i]


def test_count_T_caps_and_validation():
    with pytest.raises(ResourceLimitError):  # 10^12 pairs: rejected unbuilt
        count_T(8, 10**6, 0)
    # 384 pairs mod 24 times 16,000 bits, each sum twice the unit work
    with pytest.raises(ResourceLimitError, match="work cap"):
        count_T(2 ** 16000 - 1, 24, 0)
    assert count_T(100, 3, 5) == count_T(100, 3, 2)  # residue is reduced


def test_factoring_cap_rejects_before_trial_division():
    for call in (lambda: index_I(2 ** 61 - 1),
                 lambda: density(2 ** 61 - 1, 0)):
        with pytest.raises(ResourceLimitError, match="factoring cap"):
            call()


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


def test_density_and_index_match_product_formulas():
    """The shares of feasible pairs by first coordinate give the paper's
    product formulas."""
    for d in range(2, 201):
        assert [density(d, i) for i in range(d)] == [
            product_density(d, i) for i in range(d)]
        assert index_I(d) == product_index_I(d)
    assert density(12, -1) == density(12, 11)


def test_dist_table_counts_and_deviations():
    dt = dist_table(1 << 12, 3, include_pairs=True)
    assert sum(dt.counts) == 1 << 12
    assert dt.counts[0] == count_T(1 << 12, 3, 0)
    assert sum(dt.pair_counts.values()) == 1 << 12
    assert max(dt.deviations()) < 0.02
    far = dist_table(1 << 18, 3)
    assert max(far.deviations()) < max(dt.deviations())


@settings(deadline=None)
@given(moduli, st.integers(min_value=1, max_value=(1 << 14) - 1),
       st.integers(min_value=0, max_value=29))
def test_census_projections_match_scan_twin(d, N, i):
    census = dist_table(N, d, include_pairs=True)
    hist = pair_histogram(N, d)
    assert {v: c for v, c in census.pair_counts.items() if c} == hist
    assert list(census.counts) == residue_counts(N, d)
    assert count_T(N, d, i) == census.counts[i % d]


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
        assert list(dist_table(N, 5).counts) == residue_counts(N, 5)


def test_minimal_polynomial_golden():
    assert minimal_polynomial(3) == [0, 4, -4, 1, -2, 1]
    assert minimal_polynomial(2) == [2, -1, -2, 1]


def test_minimal_polynomial_annihilates():
    """f(M) = 0 for d <= 8, and f is the first dependency among I, M,
    M^2, ... by Fraction elimination for d <= 6; the golden digest pins
    mu_M past that."""
    for d in range(2, 9):
        f = minimal_polynomial(d)
        assert f[-1] == 1
        m = adjacency(d)
        assert mat_is_zero(poly_eval_matrix(f, m))
        if d <= 6:
            assert f == dense_minimal_polynomial(m)
        # 2 is always an eigenvalue: rows sum to 2
        assert sum(c * 2 ** k for k, c in enumerate(f)) == 0


def test_minimal_polynomial_past_the_dense_range(mu):
    for d, degree in ((15, 60), (16, 58), (17, 84), (19, 121), (20, 89)):
        f = mu[d]
        assert len(f) - 1 == degree and f[-1] == 1
        assert sum(c * 2 ** k for k, c in enumerate(f)) == 0
        assert sum(k * c * 2 ** (k - 1) for k, c in enumerate(f) if k) != 0
        if d in (17, 19, 20):  # certified roots
            rep = spectral(d)
            assert rep.minimal_poly == tuple(f)
            assert sum(rv.multiplicity for rv in rep.roots) == degree
            top = max(abs(rv.value) for rv in rep.roots if rv.value != 2)
            assert abs(rep.rho - top) < 1e-12
            assert 1 < rep.rho < 2 and rep.tau > 0.5


def test_unit_scalings_act_freely():
    """(i, j) -> (ui, uj) permutes the feasible pairs in index_I(d)
    orbits of phi(d) vertices each and commutes with L and R, at every
    modulus the matrix cap admits; _orbits gives the same
    representatives as _orbit_reps, a home (j, u) with v = u reps[j]
    for every vertex v and, for walk_counts, one getter per unit: the
    index table w -> u^-1 w."""
    for d in [*range(2, 67), 68, 70, 72, 78]:
        units = [u for u in range(1, d) if math.gcd(u, d) == 1]
        orbits = {frozenset((u * i % d, u * j % d) for u in units)
                  for i, j in feasible_pairs(d)}
        assert len(orbits) == index_I(d)
        assert all(len(orbit) == len(units) for orbit in orbits)
        g = graph(d)
        reps, home, gets = _orbits(d)
        assert list(reps) == _orbit_reps(g)
        scaled = {u: [g.index[u * i % d, u * j % d] for i, j in g.vertices]
                  for u in units}
        assert all(scaled[u][reps[j]] == v for v, (j, u) in enumerate(home))
        assert len(gets) == len(home)
        units_of = {}  # each getter serves one unit
        for get, (_, u) in zip(gets, home):
            assert units_of.setdefault(get, u) == u
        assert len(units_of) == len(units)
        assert all(list(get(range(len(home)))) == scaled[pow(u, -1, d)]
                   for get, u in units_of.items())
        for u, perm in scaled.items():
            assert all(perm[g.left[v]] == g.left[w] and
                       perm[g.right[v]] == g.right[w]
                       for v, w in enumerate(perm))


@pytest.mark.parametrize("d", [9, 12])
def test_minimal_polynomial_certificate_rejects_a_divisor(d, monkeypatch):
    """A lift that returns mu_M / (z - 2) fails the packed orbit
    certificate on each rung of a two-rung ladder: the first rung and
    2^521 - 1."""
    lift = sternseq.moddist._symmetric_lift

    def lift_divisor(f, p):
        return poly_divmod(lift(f, p), [-2, 1])[0]

    monkeypatch.setattr(sternseq.moddist, "_symmetric_lift", lift_divisor)
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER",
                        sternseq.exactalg._PRIME_LADDER[:2])
    with pytest.raises(ResourceLimitError):
        minimal_polynomial(d)


def _orbit_reps(g):
    d = g.d
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    return sorted({min(g.index[u * i % d, u * j % d] for u in units)
                   for i, j in g.vertices})


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(2, 12),
       st.sampled_from([1, 1 << 14, 1 << 17, 1 << 27]))
def test_packed_certificate_matches_the_row_oracle(mu, data, d, bits):
    """The packed verdict of the certificate equals the oracle's rows
    e_v f(M), one per orbit representative, for mu_d, its multiples
    mu_d (z - c), its divisor mu_d / (z - 2) and random polynomials;
    the bit bounds cut the representatives into groups of every size
    down to one."""
    f = mu[d]
    kind = data.draw(st.sampled_from(["mu", "multiple", "divisor",
                                      "random"]))
    if kind == "multiple":
        f = _poly_mul(f, [-data.draw(st.integers(-9, 9)), 1])
    elif kind == "divisor":
        f = poly_divmod(f, [-2, 1])[0]
    elif kind == "random":
        big = 1 << 200
        f = data.draw(st.lists(st.integers(-big, big), min_size=1,
                               max_size=60))
    g = graph(d)
    reps = _orbit_reps(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sternseq.moddist, "_PACK_BITS", bits)
        verdict = sternseq.moddist._rows_vanish(d, f)
    assert verdict == all(not any(_poly_row(g, v, f)) for v in reps)
    if kind != "random":
        assert verdict == (kind in ("mu", "multiple"))


def test_minimal_polynomial_golden_digest(mu):
    """mu_M for d = 2..26 equals a committed record, so the session
    fixture that other tests compare against is anchored to it."""
    record = json.dumps([mu[d] for d in range(2, 27)],
                        separators=(",", ":"))
    assert hashlib.sha256(record.encode()).hexdigest() == (
        "a77117f65b2a43ab9ba9982eb4a53d777d1805f231df53ca32aaaf072434bffc")


@pytest.fixture(scope="module")
def optimized_ladder():
    """One python -O run, with the one ladder binding patched to
    (1009, 1009), of both exact certificates; its output lines by name."""
    src = (
        "import sys\n"
        "from sternseq import ResourceLimitError, exactalg, moddist\n"
        "exactalg._PRIME_LADDER = (1009, 1009)\n"
        # mu_8's largest |coefficient| is 512
        "for name, fails in (('minpoly', lambda: moddist.minimal_polynomial(8)),\n"
        # (z - 600)^2 (z + 1): the gcd z - 600 lifts to z + 409 mod 1009
        "                    ('gcd', lambda: exactalg.squarefree_factors(\n"
        "                        [360000, 358800, -1199, 1]))):\n"
        "    try:\n"
        "        fails()\n"
        "    except ResourceLimitError:\n"
        "        print(name, 'raised')\n"
        "mu = moddist.minimal_polynomial(3)\n"
        "print('minpoly', *mu)\n"
        "print('gcd', *exactalg.squarefree_factors(exactalg.poly_divmod(\n"
        "    mu, [-2, 1])[0][1:]))\n"
        "print('optimize', sys.flags.optimize)\n")
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-O", "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ", 1) for line in proc.stdout.splitlines()]
    return {name: [rest for key, rest in lines if key in (name, "optimize")]
            for name in ("minpoly", "gcd")}


def test_minimal_polynomial_certificate_survives_optimize(optimized_ladder):
    """Under python -O a ladder too small for the coefficients still
    fails the exact certificate instead of returning a wrong polynomial:
    at d = 8 the first 1009 is abandoned once 2 * 3^L >= 1009 (L = 6),
    the second runs in full and its lift fails the certificate; d = 3
    (L = 5, 2 * 3^5 < 1009) completes on the first rung and passes."""
    assert optimized_ladder["minpoly"] == ["raised", "0 4 -4 1 -2 1", "1"]


def test_gcd_certificate_survives_optimize(optimized_ladder):
    """Under python -O a gcd ladder too small for the factors still
    fails the exact division certificate: the Landau-Mignotte bound of
    (z - 600)^2 (z + 1) skips the first 1009, and the gcd mod the
    second lifts to z + 409, which fails; the small factors of mu_3 fit
    the bound of the first rung and pass."""
    assert optimized_ladder["gcd"] == ["raised", "([-2, 1, 0, 1], 1)", "1"]


def test_the_ladder_has_one_binding():
    """moddist reads the ladder from exactalg when it runs, so a patch
    of exactalg._PRIME_LADDER reaches Berlekamp-Massey and the gcds."""
    assert not hasattr(sternseq.moddist, "_PRIME_LADDER")


def test_minimal_polynomial_climbs_the_prime_ladder(mu, monkeypatch):
    """A first prime too small for the 27-bit coefficients at d = 13
    is abandoned by its bound (2 * 3^L >= 2^17 - 1 from L = 11), and
    the next prime gives mu_M."""
    assert max(abs(c) for c in mu[13]).bit_length() > 17
    ladder = sternseq.exactalg._PRIME_LADDER
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER",
                        ((1 << 17) - 1,) + ladder[1:])
    assert minimal_polynomial(13) == mu[13]


def test_gcd_climbs_the_prime_ladder(monkeypatch):
    """(z - 600)^2 (z + 1): its Landau-Mignotte bound exceeds 1009, so
    the first rung is skipped, and the next prime gives z - 600."""
    ladder = sternseq.exactalg._PRIME_LADDER
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER",
                        (1009,) + ladder)
    assert squarefree_factors([360000, 358800, -1199, 1]) == [
        ([1, 1], 1), ([-600, 1], 2)]


def _spy_berlekamp_massey(monkeypatch):
    """Patch moddist so that each Berlekamp-Massey call appends (p,
    bounded, its result, the terms it read) to the returned list; a term
    is one sparse step.  Also returns the one-item list that counts
    every sparse step."""
    runs = []
    steps = [0]
    bm, step = sternseq.moddist._berlekamp_massey, sternseq.moddist._step

    def counting_step(pairs, vec):
        steps[0] += 1
        return step(pairs, vec)

    def spy(g, p, bounded):
        before = steps[0]
        f = bm(g, p, bounded)
        runs.append((p, bounded, f, steps[0] - before))
        return f

    monkeypatch.setattr(sternseq.moddist, "_step", counting_step)
    monkeypatch.setattr(sternseq.moddist, "_berlekamp_massey", spy)
    return runs, steps


def test_a_later_rung_fails_its_certificate(mu, monkeypatch):
    """Past the skipped first rung, a prime too small for the result
    gives one wrong f, which fails the exact certificate, and the ladder
    climbs: at d = 13 (N_d = 168, L = 60, 27-bit coefficients) 2^89 - 1
    is abandoned, 2^17 - 1 lifts a wrong f at its early stop, 2L + 2
    terms for the L of that f, and 2^521 - 1 gives mu_M at its early
    stop, 122 terms; one Berlekamp-Massey run each.  The gcd of
    (z - 600)^2 (z + 1) skips the first 1009, lifts z + 409 mod the
    second, and gets z - 600 from 2^89 - 1."""
    ladder = sternseq.exactalg._PRIME_LADDER
    runs, _ = _spy_berlekamp_massey(monkeypatch)
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER",
                        (ladder[0], (1 << 17) - 1) + ladder[1:])
    assert minimal_polynomial(13) == mu[13]
    assert [run[:2] for run in runs] == [
        (ladder[0], True), ((1 << 17) - 1, False), (ladder[1], False)]
    assert runs[0][2] is None and runs[0][3] < 2 * 168
    _, _, wrong, terms = runs[1]
    assert wrong != mu[13] and terms == 2 * (len(wrong) - 1) + 2 < 2 * 168
    assert runs[2][2:] == (mu[13], 2 * 60 + 2)
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER",
                        (1009, 1009) + ladder)
    assert squarefree_factors([360000, 358800, -1199, 1]) == [
        ([1, 1], 1), ([-600, 1], 2)]


def test_first_rung_completes_through_d12(mu, monkeypatch):
    """With the ladder cut to its first rung, Berlekamp-Massey runs once
    and reads 2L + 2 terms or, at d = 2, all 2 N_d = 6, and the packed
    certificate runs once on the I(d) orbit representatives, in one
    group of deg mu_M sparse steps, and passes, for every d <= 12, whose
    mu_M has degree at most 55; at d = 13 (degree 60) Berlekamp-Massey
    is abandoned before any certificate."""
    runs, steps = _spy_berlekamp_massey(monkeypatch)
    seen = []
    rows_vanish, rep_rows = (sternseq.moddist._rows_vanish,
                             sternseq.moddist._rep_rows)

    def spy(d, f):
        before = steps[0]
        verdict = rows_vanish(d, f)
        seen.append(steps[0] - before)
        return verdict

    def spy_rows(d, f, width):
        for size, vec in rep_rows(d, f, width):
            seen.append(size)
            yield size, vec

    monkeypatch.setattr(sternseq.moddist, "_rows_vanish", spy)
    monkeypatch.setattr(sternseq.moddist, "_rep_rows", spy_rows)
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER",
                        sternseq.exactalg._PRIME_LADDER[:1])
    p = sternseq.exactalg._PRIME_LADDER[0]
    for d in range(2, 13):
        seen.clear()
        runs.clear()
        assert minimal_polynomial(d) == mu[d]
        assert seen == [index_I(d), len(mu[d]) - 1]
        terms = min(2 * len(mu[d]), 2 * pair_counts(d)[0])
        assert runs == [(p, True, mu[d], terms)]
    seen.clear()
    runs.clear()
    with pytest.raises(ResourceLimitError, match="no prime of the ladder"):
        minimal_polynomial(13)
    assert seen == [] and [run[:3] for run in runs] == [(p, True, None)]


def test_minimal_polynomial_matches_the_ladder_without_its_first_rung(
        mu, monkeypatch):
    """mu_M for every d <= 26 equals the result from 2^521 - 1 upward,
    both where the first rung completes and where it is abandoned
    (d = 13, 15, 16 and every d from 17)."""
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER",
                        sternseq.exactalg._PRIME_LADDER[1:])
    assert {d: minimal_polynomial(d) for d in range(2, 27)} == mu


@pytest.mark.parametrize("ladder", [(1009,), ()])
def test_no_certifying_prime_raises_resource_limit(ladder, monkeypatch):
    """A ladder whose every rung is skipped by its bound, or an empty
    one, raises ResourceLimitError naming the degree or the modulus,
    not UnboundLocalError from a name bound only inside the loop."""
    monkeypatch.setattr(sternseq.exactalg, "_PRIME_LADDER", ladder)
    with pytest.raises(ResourceLimitError,
                       match="degree 3: no prime of the ladder"):
        squarefree_factors([360000, 358800, -1199, 1])
    with pytest.raises(ResourceLimitError,
                       match="mod 8: no prime of the ladder certified it"):
        minimal_polynomial(8)


def _bm_run(d, p, step):
    # (generator, sparse steps) of one unbounded Berlekamp-Massey run
    # mod p, with moddist._step replaced by step
    calls = [0]

    def counted(pairs, vec):
        calls[0] += 1
        return step(pairs, vec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sternseq.moddist, "_step", counted)
        f = sternseq.moddist._berlekamp_massey(graph(d), p, False)
    return f, calls[0]


@pytest.mark.parametrize("p", [(1 << 13) - 1, (1 << 17) - 1,
                               (1 << 89) - 1, (1 << 521) - 1])
def test_berlekamp_massey_matches_its_twin_reduced_every_step(p):
    """x reduced mod p once every 32 steps reads the same terms as a
    twin whose steps reduce mod p every time: for d = 2..13 both give
    the same generator after the same number of sparse steps, across
    several reduction boundaries (more than 96 steps at the largest)."""
    step = sternseq.moddist._step

    def reduced(pairs, vec):
        return [a % p for a in step(pairs, vec)]

    runs = [(_bm_run(d, p, step), _bm_run(d, p, reduced))
            for d in range(2, 14)]
    assert all(fast == twin for fast, twin in runs)
    assert max(steps for (_, steps), _ in runs) > 96


def test_berlekamp_massey_work_is_bounded(monkeypatch):
    """The 2 N_d terms of N_d steps each that Berlekamp-Massey may read
    are bounded before the first term: mod 200 (28,800 vertices) under a
    raised matrix cap is refused by minimal_polynomial and spectral,
    while d = 78, whose 4,032 vertices are the most of any modulus
    DEFAULT_MATRIX_CAP admits, reaches Berlekamp-Massey."""

    class Reached(Exception):
        pass

    def reached(g, p, bounded):
        raise Reached(g.d)

    monkeypatch.setattr(sternseq.moddist, "_berlekamp_massey", reached)
    for compute in (minimal_polynomial, spectral):
        with pytest.raises(ResourceLimitError,
                           match="Berlekamp-Massey mod 200 takes 1658880000"):
            compute(200, max_order=30000)
    # N_d > d^2 / 2, so no d > 90 is admitted
    admitted = [d for d in range(2, 91)
                if pair_counts(d)[0] <= DEFAULT_MATRIX_CAP]
    assert len(admitted) == 69
    assert max((pair_counts(d)[0], d) for d in admitted) == (4032, 78)
    with pytest.raises(Reached):
        minimal_polynomial(78)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


small_monic = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda low: low + [1])


@settings(max_examples=60, deadline=None)
@given(st.lists(small_monic, min_size=1, max_size=3))
def test_squarefree_factors_match_yun_oracle(gs):
    """The modular Yun split of prod g_i^i equals the Fraction Yun and
    multiplies back to the input."""
    f = [1]
    for i, g in enumerate(gs, 1):
        for _ in range(i):
            f = _poly_mul(f, g)
    got = squarefree_factors(f)
    assert got == yun_squarefree_factors(f)
    back = [1]
    for g, mult in got:
        assert all(isinstance(c, int) for c in g) and g[-1] == 1
        for _ in range(mult):
            back = _poly_mul(back, g)
    assert back == f


@settings(max_examples=60, deadline=None)
@given(small_monic, small_monic, st.lists(st.integers(-5, 5), max_size=4))
def test_poly_gcd_returns_the_certified_quotients(a, b, c):
    """poly_gcd(f, g) is (h, f / h, g / h), the quotients from the exact
    divisions that certify h: a monic h of f = a b and g = a c that
    a divides, multiplying back to f and g."""
    f, g = _poly_mul(a, b), poly_trim(_poly_mul(a, c) if c else [])
    h, f_h, g_h = poly_gcd(f, g)
    assert h[-1] == 1 and poly_divmod(h, a)[1] == []
    assert _poly_mul(h, f_h) == f
    assert poly_trim(_poly_mul(h, g_h) if g_h else []) == g
    # (z - 600)^2 (z + 1) and its derivative (z - 600) (3z - 598)
    f = [360000, 358800, -1199, 1]
    assert poly_gcd(f, poly_derivative(f)) == (
        [-600, 1], [-600, -599, 1], [-598, 3])


def test_squarefree_factors_across_the_first_rung_bound():
    """g1 g2^2 g3^3 with b-bit coefficients, b = 4..40: the
    Landau-Mignotte bound 2^deg f ||f||_2 falls on both sides of 2^88,
    so the gcds run on the first rung or skip it, and the split equals
    the Fraction Yun either way."""
    sides = set()
    for b in range(4, 41, 2):
        rng = random.Random(b)
        gs = [[rng.randrange(-1 << b, 1 << b) for _ in range(k)] + [1]
              for k in (2, 1, 1)]
        f = [1]
        for i, g in enumerate(gs, 1):
            for _ in range(i):
                f = _poly_mul(f, g)
        sides.add(4 ** (len(f) - 1) * sum(c * c for c in f) < 1 << 176)
        assert squarefree_factors(f) == yun_squarefree_factors(f)
    assert sides == {True, False}


def test_squarefree_factors_on_minimal_polynomials():
    for d in range(2, 13):
        q, r = poly_divmod(minimal_polynomial(d), [-2, 1])
        assert r == []
        rest = q[next(k for k, c in enumerate(q) if c):]
        assert squarefree_factors(rest) == yun_squarefree_factors(rest)


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
    # certified on an axis: exactly zero imaginary or real parts
    values = [rv.value for rv in rep.roots if not rv.exact]
    assert sum(1 for z in values if z.imag == 0) == 2
    assert [z for z in values if z.real == 0] == [-1j, 1j]


@pytest.mark.parametrize("d,multiplicities", [
    (6, {1, 2}), (8, {1, 2}), (9, {1, 2}), (12, {1, 2, 3})])
def test_spectral_repeated_factors(d, multiplicities):
    """Squarefree factors of multiplicity > 1 keep the root count."""
    rep = spectral(d)
    assert sum(rv.multiplicity for rv in rep.roots) == \
        len(rep.minimal_poly) - 1
    assert {rv.multiplicity for rv in rep.roots} == multiplicities
    assert all(rv.residual < 1e-20 for rv in rep.roots)
    if d == 9:
        assert rep.rho == 1.439066724563126
        assert rep.tau == 0.525133486424699


def test_spectral_d13_degree_60():
    """Degree 60, where polyroots needs guard bits beyond its default
    10 (see test_certified_disks_hold_the_oracle_roots)."""
    rep = spectral(13)
    assert len(rep.minimal_poly) - 1 == 60
    assert rep.rho == spectral(9).rho
    assert all(rv.residual < 1e-20 for rv in rep.roots)


def test_spectral_golden_digest():
    """Every field of spectral(d) but the residuals, for d = 2..20,
    equals a committed record: mu_M, rho, sigma, the multiplicity, tau
    and each root's value, multiplicity and exactness."""
    records = []
    for d in range(2, 21):
        rep = spectral(d)
        records.append((*rep[:-1], tuple((rv.value, rv.multiplicity,
                                          rv.exact) for rv in rep.roots)))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "831e597637d0ae0fd8e9f23f8c82dc1b6aef8432ec8dab3453c5758546361ed6")


@pytest.mark.parametrize("d", range(2, 14))
def test_certified_disks_hold_the_oracle_roots(d):
    """Each polyroots root of each Yun factor lies in exactly one
    certified disk, widened by 10^-digits."""
    q, _ = poly_divmod(minimal_polynomial(d), [-2, 1])
    rest = q[next(k for k, c in enumerate(q) if c):]
    for g, _ in squarefree_factors(rest):
        S, disks = sternseq.moddist._certified_roots(g, 40)
        assert len(disks) == len(g) - 1
        assert all(r * 10 ** 40 < 2 ** S for _, _, r in disks)
        with mp.workprec(S + 64):
            slack = mp.mpf(10) ** -40
            centres = [(mp.mpc(a, b) / 2 ** S, mp.mpf(r) / 2 ** S)
                       for a, b, r in disks]
            for root in polyroots(g, 40):
                hits = [z for z, r in centres if abs(root - z) <= r + slack]
                assert len(hits) == 1, (d, root)


def test_polish_stops_at_its_certified_centres(mu, monkeypatch):
    """No centre is evaluated again after the polish: over every +-
    part of mu_d for d = 2..12, _certified_roots makes at most 700
    _fixed_horner calls (a second pass over the final centres made 987
    in all), and each disk's centre, up to its axis snapping, is the
    argument of the last f and f' calls there, one after the other,
    whose values give exactly its radius."""
    horner = sternseq.moddist._fixed_horner
    calls = []

    def spy(g, a, b, S):
        out = horner(g, a, b, S)
        calls.append((tuple(g), a, b, out))
        return out

    monkeypatch.setattr(sternseq.moddist, "_fixed_horner", spy)
    total = 0
    for d in range(2, 13):
        q, _ = poly_divmod(mu[d], [-2, 1])
        rest = q[next(k for k, c in enumerate(q) if c):]
        for factor, _ in squarefree_factors(rest):
            n = len(factor) - 1
            parts = poly_gcd(factor, [-c if (n - k) % 2 else c
                                      for k, c in enumerate(factor)])[:2]
            for g in (part for part in parts if len(part) > 1):
                calls.clear()
                S, disks = sternseq.moddist._certified_roots(g, 40)
                total += len(calls)
                fp = tuple(poly_derivative(g))
                for a, b, r in disks:
                    at = [k for k, (h, x, y, _) in enumerate(calls)
                          if h == tuple(g) and (x == a or a == 0 and
                                                abs(x) <= r)
                          and (y == b or b == 0 and abs(y) <= r)]
                    assert at, (d, g)
                    k = at[-1]
                    _, x, y, (re, im, err) = calls[k]
                    assert calls[k + 1][:3] == (fp, x, y), (d, g)
                    dre, dim, derr = calls[k + 1][3]
                    num = (len(g) - 1) * (
                        math.isqrt(re * re + im * im) + 1 + err) << S
                    den = math.isqrt(dre * dre + dim * dim) - derr
                    assert r == -(-num // den) + 1, (d, g)
    assert total <= 700, total


@pytest.mark.parametrize("f,points,digits", [
    ([-2, 0, 1], (1.4142, -1.4142), 40),  # disjoint, radii near 1e-5
    ([10100, -201, 1], (100.2, 100.8), 0),  # radii 0.53 < 1, overlapping
])
def test_root_certificate_rejects(f, points, digits, monkeypatch):
    """Disks wider than 10^-digits, or disks that are not apart at three
    times their radii, fail the certificate: the float seeds are placed
    at the points, and one sweep leaves them there or steps them away
    from their radii."""
    def place(f, z, u):
        z[:] = [complex(w) for w in points]

    monkeypatch.setattr(sternseq.moddist, "_aberth", place)
    monkeypatch.setattr(sternseq.moddist, "_SWEEPS", 1)
    with pytest.raises(sternseq.NonConvergenceError, match="disjoint"):
        sternseq.moddist._certified_roots(f, digits)


def _run_optimized(src):
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-O", "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_root_certificate_survives_optimize():
    """Under python -O, coincident float seeds, which the polish stops
    where they meet, still fail the disjointness test of the certificate
    with NonConvergenceError, never a ZeroDivisionError or a report."""
    assert _run_optimized(
        "import sys\n"
        "from sternseq import NonConvergenceError, moddist\n"
        "def collapse(f, z, u):\n"
        "    z[:] = [z[0]] * len(z)\n"
        "moddist._aberth = collapse\n"
        "try:\n"
        "    moddist.spectral(7)\n"
        "except NonConvergenceError as exc:\n"
        "    print('raised', 'disjoint' in str(exc))\n"
        "print(sys.flags.optimize)\n") == ["raised True", "1"]


def test_root_certificate_derivative_guard_survives_optimize():
    """Under python -O, a point where f' may vanish (both float seeds of
    z^2 - 2 at 0, where the polish stops them) fails the certificate
    before its radius is divided out, with NonConvergenceError."""
    assert _run_optimized(
        "import sys\n"
        "from sternseq import NonConvergenceError, moddist\n"
        "def to_zero(f, z, u):\n"
        "    z[:] = [0j] * len(z)\n"
        "moddist._aberth = to_zero\n"
        "try:\n"
        "    moddist._certified_roots([-2, 0, 1], 20)\n"
        "except NonConvergenceError as exc:\n"
        "    print('raised', \"f'\" in str(exc))\n"
        "print(sys.flags.optimize)\n") == ["raised True", "1"]


def _exact_horner(f, a, b, S):
    # f((a + bi) / 2^S) as exact (real, imaginary) Fractions
    zr, zi = Fraction(a, 2 ** S), Fraction(b, 2 ** S)
    re, im = Fraction(0), Fraction(0)
    for c in reversed(f):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    return re, im


# (S, a, b) with |(a + bi) / 2^S| <= 2
dyadic_points = st.sampled_from([1, 3, 8, 24, 53, 100, 160]).flatmap(
    lambda S: st.tuples(st.just(S), st.integers(-2 << S, 2 << S),
                        st.integers(-2 << S, 2 << S))).filter(
    lambda p: p[1] ** 2 + p[2] ** 2 <= 1 << 2 * p[0] + 2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-(1 << 20) + 1,
                            max_value=(1 << 20) - 1),
                min_size=1, max_size=41),
       dyadic_points)
def test_fixed_horner_within_its_bound(f, point):
    """f(z) and f'(z) from the fixed-point Horner lie within its error
    bound of the exact values."""
    S, a, b = point
    fp = [k * c for k, c in enumerate(f)][1:] or [0]
    for g in (f, fp):
        re, im, err = sternseq.moddist._fixed_horner(g, a, b, S)
        ex, ey = _exact_horner(g, a, b, S)
        dx, dy = Fraction(re, 2 ** S) - ex, Fraction(im, 2 ** S) - ey
        assert dx * dx + dy * dy <= Fraction(err, 2 ** S) ** 2


@given(st.integers(min_value=0, max_value=64).flatmap(
    lambda k: st.builds(Fraction, st.integers(1 << k, 4 << k),
                        st.just(1 << k))))
def test_integer_log2(x):
    """log2 by bit extraction agrees with math.log2 on dyadics in [1, 4]."""
    assert abs(float(sternseq.moddist._log2(x, 60)) - math.log2(x)) < 1e-15


def test_graph_export_dot():
    """The DOT export, which builds no orbit table: that is cached
    apart from graph(d) and only walks and the certificate read it."""
    dot = graph_export(2)
    assert dot.splitlines()[0] == "digraph stern_pairs_mod_2 {"
    assert '"(1,1)" -> "(0,1)" [label="R"];' in dot
    assert dot.count("->") == 6
    misses = _orbits.cache_info().misses
    out, err = io.StringIO(), io.StringIO()
    argv = ["graph", "--d", "147", "--dot", "--max-matrix-order", "20000"]
    assert (cli_run(argv, stdout=out, stderr=err), err.getvalue()) == (0, "")
    assert out.getvalue().count("->") == 2 * pair_counts(147)[0]
    assert _orbits.cache_info().misses == misses
