"""The four workloads: their seeded inputs and their output checks.

A workload is a list of rounds.  Every round holds the same classes of
operations in the same numbers; the seed picks the inputs within each
class (random bits of N, residues, digit bounds, row seeds).  Sizes
that set an operation's cost are fixed per class, so a round costs the
same whatever the seed, and the median and 90th percentile of a run
land inside one class of operations instead of on the edge between
two.  The order within a round is fixed too: which large allocation
follows which decides how much memory the allocator keeps, and a
shuffled order made the peak resident size jump between runs.
README.md lists the classes.

Every operation is checked outside the timed phase against
references.py or against a property the paper proves; a check returns
None or a message that says what is wrong.
"""

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import references as ref

# Rounds generated per run; a run that finishes them starts over.
POOL_ROUNDS = 16


@dataclass
class Op:
    """One operation: `target` is "module.function" in sternseq, looked
    up at call time so that tracing wrappers are seen, or "cli" for an
    argv run as a fresh `python -m sternseq` process."""

    kind: str
    target: str
    args: tuple
    check: Callable[[Any], str | None]
    kwargs: dict = field(default_factory=dict)

    def key(self):
        return (self.target, self.args, tuple(sorted(self.kwargs.items())))

    def label(self):
        parts = [repr(a) if not isinstance(a, int) or a.bit_length() < 80
                 else f"<{a.bit_length()}-bit int>" for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"{self.target}({', '.join(parts)})"


def _rand_bits(rng, bits):
    """A uniformly random integer with exactly `bits` bits."""
    return rng.getrandbits(bits - 1) | (1 << (bits - 1))


def _poly_at(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------- spectrum

SPECTRUM_TOP = 7


def check_spectrum_values(d, f, roots, rho, tau):
    """Properties of spectral(d); roots are (re, im, multiplicity,
    exact, residual) tuples."""
    if not f or not all(isinstance(c, int) for c in f) or f[-1] != 1:
        return "minimal polynomial is not monic with integer coefficients"
    if not ref.is_minimal_polynomial(f, d):
        return "minimal polynomial certificate failed"
    fp = [k * c for k, c in enumerate(f)][1:]
    if _poly_at(f, 2) != 0 or _poly_at(fp, 2) == 0:
        return "2 is not a simple root"
    if sum(r[2] for r in roots) != len(f) - 1:
        return "multiplicities times factor degrees do not add up to deg f"
    twos = [r for r in roots if r[3] and (r[0], r[1]) == (2.0, 0.0)]
    if len(twos) != 1 or twos[0][2] != 1:
        return "root 2 not reported once as a simple exact root"
    if any(abs(complex(r[0], r[1])) > 2 + 1e-9 for r in roots):
        return "a root has modulus above 2"
    if any(r[4] > 1e-6 for r in roots):
        return "a root residual exceeds 1e-6"
    others = [abs(complex(r[0], r[1])) for r in roots if r is not twos[0]]
    want_rho = max(others, default=0.0)
    if abs(rho - want_rho) > 1e-9:
        return f"rho {rho} is not the largest non-2 modulus {want_rho}"
    if abs(tau - (max(0.0, math.log2(rho)) if rho > 0 else 0.0)) > 1e-12:
        return "tau is not max(0, log2 rho)"
    if d == 3 and (abs(rho - math.sqrt(2)) > 1e-12 or abs(tau - 0.5) > 1e-12):
        return "d = 3 must give rho = sqrt 2 and tau = 1/2"
    return None


def _check_spectral(d):
    def check(rep):
        roots = [(rv.value.real, rv.value.imag, rv.multiplicity, rv.exact,
                  rv.residual) for rv in rep.roots]
        if rep.d != d:
            return "report is for another modulus"
        return check_spectrum_values(d, list(rep.minimal_poly), roots,
                                     rep.rho, rep.tau)
    return check


def _check_walks(d, r, rng):
    rows = rng.sample(range(len(ref.feasible_graph(d)[0])), 4)

    def check(W):
        n = len(ref.feasible_graph(d)[0])
        if len(W) != n or any(len(row) != n for row in W):
            return "matrix has the wrong shape"
        if any(sum(row) != 1 << r for row in W):
            return "a row does not sum to 2^r"
        if any(sum(col) != 1 << r for col in zip(*W)):
            return "a column does not sum to 2^r"
        for v in rows:
            if W[v] != ref.walk_row(d, v, r):
                return f"row {v} differs from the walk propagation"
        return None
    return check


def spectrum_round(rng):
    # The top modulus runs twice, and one walk count is cheaper than
    # spectral(5) and three dearer, but cheaper than spectral(7).  Of the
    # eleven operations the median is then spectral(5) and the 90th
    # percentile lies mid-way into the two spectral(7); with one of
    # them it sat on the cheapest and moved 20% between runs.
    moduli = list(range(2, SPECTRUM_TOP + 1)) + [SPECTRUM_TOP]
    ops = [Op("spectral", "moddist.spectral", (d,), _check_spectral(d))
           for d in moduli]
    walks = [("walks_small", rng.choice((3, 4)), rng.randint(8, 16))]
    walks += [("walks_large", 9, rng.randint(40, 80)) for _ in range(3)]
    for kind, d, r in walks:
        ops.append(Op(kind, "moddist.walk_counts", (d, r),
                      _check_walks(d, r, rng)))
    return ops


# ------------------------------------------------------------------ census

def _check_count_T(N, d, i):
    def check(v):
        want = ref.residue_counts(N, d)[i]
        return None if v == want else f"T = {v}, reference {want}"
    return check


def _check_dist(N, d):
    def check(t):
        want = ref.residue_counts(N, d)
        if list(t.counts) != want:
            return "counts differ from the pair-automaton reference"
        if sum(t.counts) != N:
            return "counts do not add up to N"
        return None
    return check


def _check_delta3(N):
    def check(v):
        if v not in (0, 1, 2, 3):
            return f"Delta = {v} is outside {{0, 1, 2, 3}}"
        want = ref.delta(N)
        return None if v == want else f"Delta = {v}, reference {want}"
    return check


def _check_t3_zero(r):
    def check(v):
        want = ref.residue_counts_at_power(r, 3)[0]
        return None if v == want else "differs from T(2^r; 3, 0)"
    return check


def _check_a3_row(r):
    def check(v):
        want = (ref.residue_counts_at_power(r + 1, 3)[0]
                - ref.residue_counts_at_power(r, 3)[0])
        return None if v == want else "differs from the row count of T"
    return check


def _check_hyperbinary(d, n):
    def check(v):
        if (v % 2 == 1) != (n % d in (0, 1)):
            return "parity law b(d; n) odd <=> n mod d in {0, 1} fails"
        if d == 3 and v != ref.pair_scan(n + 1)[0]:
            return "b(3; n) != s(n + 1)"
        want = ref.hyperbinary(d, n)
        return None if v == want else "differs from the windowed digit DP"
    return check


# (d, bits) of the mid-size counting queries; bits shrink as the number
# of feasible pairs N_d grows, so each costs about the same
CENSUS_MID = ((15, 160), (16, 160), (17, 128), (18, 144), (19, 112),
              (20, 128), (21, 112), (22, 112), (23, 96), (24, 112))
CENSUS_TABLE_CAP = 1 << 22
# a delta3 past its table cap takes the per-index path; a smaller cap
# keeps that query to about half a second
CENSUS_SMALL_CAP = 1 << 18


def _counting_op(kind, rng, d, bits):
    N = _rand_bits(rng, bits)
    if rng.random() < 0.5:
        i = rng.randrange(d)
        return Op(kind, "moddist.count_T", (N, d, i), _check_count_T(N, d, i))
    return Op(kind, "moddist.dist_table", (N, d), _check_dist(N, d))


def census_round(rng):
    # Classes from cheap to dear.  The 46 row counts hold the ranks
    # around the median (closed forms) and the ten mid-size counting
    # queries those around the 90th percentile (walk propagation).
    ops = []
    for _ in range(8):
        r = rng.randrange(512, 2048)
        ops.append(Op("t3zero", "smalld.t3_zero_closed", (r,),
                      _check_t3_zero(r)))
    for _ in range(46):
        r = rng.randrange(6144, 7168)
        ops.append(Op("a3row", "smalld.a3_row_count", (r,), _check_a3_row(r)))
    for d in (3, 3, 4, 4, 5, 5, 6, 6):
        n = _rand_bits(rng, 384)
        ops.append(Op("hyperbinary_small", "smalld.hyperbinary", (d, n),
                      _check_hyperbinary(d, n)))
    for d in range(5, 15):
        ops.append(_counting_op("count_small", rng, d, 96))
    for _ in range(4):
        N = rng.randrange(1 << 17, 1 << 18)
        ops.append(Op("delta3_small", "smalld.delta3", (N,), _check_delta3(N)))
    for d in (16, 20, 24, 28, 32, 40):
        n = _rand_bits(rng, 160)
        ops.append(Op("hyperbinary_large", "smalld.hyperbinary", (d, n),
                      _check_hyperbinary(d, n)))
    for d, bits in CENSUS_MID:
        ops.append(_counting_op("count_mid", rng, d, bits))
    # exactly at the cap: a 32 MiB table, at glibc's largest mmap
    # threshold; random N just below it made the peak resident size jump
    # by 30 MB between runs as the allocator kept or returned the pages
    N = CENSUS_TABLE_CAP
    ops.append(Op("delta3_at_cap", "smalld.delta3", (N,), _check_delta3(N)))
    N = CENSUS_SMALL_CAP + 1 + rng.randrange(1 << 15)
    ops.append(Op("delta3_past_cap", "smalld.delta3", (N,), _check_delta3(N),
                  {"table_cap": CENSUS_SMALL_CAP}))
    ops.append(_counting_op("count_large", rng, 24, 256))
    return ops


# ------------------------------------------------------------------ tables

def _sampled_indices(rng, limit, k=64):
    return [rng.randrange(limit) for _ in range(k)]


def _check_stern_table(limit, mod, rng):
    sample = _sampled_indices(rng, limit + 1)

    def check(t):
        m = mod
        if len(t) != limit + 1 or t[0] != 0 or (
                limit and t[1] != (1 if m is None else 1 % m)):
            return "wrong length or start"
        half = (limit - 1) // 2  # odd entries 2n+1 <= limit need n <= half
        even_ok = all(t[2 * n] == t[n] for n in range(1, limit // 2 + 1))
        if m is None:
            odd_ok = all(t[2 * n + 1] == t[n] + t[n + 1]
                         for n in range(1, half + 1))
        else:
            odd_ok = all(t[2 * n + 1] == (t[n] + t[n + 1]) % m
                         for n in range(1, half + 1))
        if not (even_ok and odd_ok):
            return "table breaks the doubling recurrence"
        for n in sample:
            want = ref.pair_scan(n)[0]
            if t[n] != (want if m is None else want % m):
                return f"entry {n} differs from the pair scan"
        return None
    return check


def _check_exact_sum(N):
    def check(rep):
        if rep.exact_sum != ref.prefix_sum(N):
            return "exact sum differs from the reference"
        r = N.bit_length() - 1
        if N == 1 << r and rep.exact_sum != ref.prefix_sum_at_power(r):
            return "exact sum at 2^r is not (3 * 2^r - r - 3) / 2"
        low, high = ref.sum_enclosure(N)
        if (rep.lower, rep.upper) != (low, high):
            return "reported enclosure differs from the paper's"
        if not low <= rep.exact_sum < high:
            return "exact sum lies outside the enclosure"
        if abs(Fraction(rep.float_sum) - rep.exact_sum) > Fraction(
                rep.float_error_bound):
            return "float sum is not within its error bound"
        return None
    return check


def _check_float_sum(N):
    def check(rep):
        if rep.exact_sum is not None:
            return "float mode returned an exact sum"
        exact = ref.prefix_sum(N)
        if abs(Fraction(rep.float_sum) - exact) > Fraction(
                rep.float_error_bound):
            return "float sum is not within its error bound"
        return None
    return check


def _check_alpha(N):
    def check(v):
        want = ref.prefix_sum(N) / N
        if abs(Fraction(v) - want) > want * Fraction(1, 1 << 48):
            return "lag-1 mean differs from the exact mean"
        return None
    return check


def _check_brocot(r, rng):
    half = 1 << r
    sample = _sampled_indices(rng, half)

    def check(row):
        if len(row) != half + 1 or str(row[-1]) != "1/0" or row[0] != 0:
            return "row does not run from 0/1 to 1/0"
        if not all(a < b for a, b in zip(row, row[1:-1])):
            return "row is not strictly increasing"
        for k in sample:
            want = Fraction(ref.pair_scan(k)[0], ref.pair_scan(half - k)[0])
            if row[k] != want:
                return f"entry {k} differs from s(k)/s(2^r - k)"
        return None
    return check


def _check_diatomic(r, a, b):
    def check(row):
        if len(row) != (1 << r) + 1:
            return "row has the wrong length"
        if not ref.insertion_consistent(row, a, b):
            return "row does not follow the insertion rule"
        return None
    return check


def _check_delta3_trace(N, rng):
    sample = _sampled_indices(rng, N + 1, 8)

    def check(tr):
        if len(tr) != N + 1 or tr[0] != 0:
            return "trace has the wrong length or start"
        if not all(v in (0, 1, 2, 3) for v in tr):
            return "a Delta value is outside {0, 1, 2, 3}"
        if not all(-1 <= b - a <= 1 for a, b in zip(tr, tr[1:])):
            return "trace steps by more than one"
        for n in sample + [N]:
            if tr[n] != ref.delta(n):
                return f"Delta({n}) differs from the reference"
        return None
    return check


def _check_a3_enumerate(limit, rng):
    def check(members):
        if members != sorted(set(members)) or (members and
                                               members[-1] >= limit):
            return "members are not sorted, distinct and below the limit"
        if len(members) != ref.residue_counts(limit, 3)[0]:
            return "member count differs from T(limit; 3, 0)"
        for n in rng.sample(members, min(64, len(members))):
            if ref.pair_scan(n)[0] % 3:
                return f"member {n} has s(n) not divisible by 3"
        return None
    return check


def _check_round_trip(n):
    def check(pair):
        x, back = pair
        a, b = ref.pair_scan(n)
        if x != Fraction(a, b):
            return "rational_of_index differs from s(n)/s(n+1)"
        return None if back == n else "index_of_rational does not return n"
    return check


def _check_minkowski(x):
    def check(y):
        got = Fraction(y.numerator, 1 << y.exponent)
        return None if got == ref.minkowski(x) else "?(x) differs"
    return check


def _check_stern_pair(n):
    def check(p):
        return None if tuple(p) == ref.pair_scan(n) else "pair differs"
    return check


def _small_rational(rng, bits):
    a, b = ref.pair_scan(_rand_bits(rng, bits))
    return Fraction(min(a, b), max(a, b))


# (kind, count per round, index bits) of the point queries, cheapest
# first; with 10 table operations the round has 250 operations, the
# median lands mid-way into round_trip_2048 (ranks 90-159) and the 90th
# percentile into stern_pair_16384 (ranks 211-240)
TABLES_POINTS = (("round_trip_256", 45, 256), ("minkowski_256", 44, 256),
                 ("round_trip_2048", 70, 2048), ("minkowski_1024", 25, 1024),
                 ("round_trip_4096", 26, 4096),
                 ("stern_pair_16384", 30, 16384))


def tables_round(rng):
    ops = []
    N = (1 << 22) - rng.randrange(1 << 12)
    ops.append(Op("stern_table", "core.stern_table", (N,),
                  _check_stern_table(N, None, rng)))
    N, m = (1 << 21) + rng.randrange(1 << 12), rng.randrange(3, 13)
    ops.append(Op("stern_table_mod", "core.stern_table", (N, m),
                  _check_stern_table(N, m, rng)))
    for N in (1 << 15, (1 << 16) + rng.randrange(1, 1 << 12)):
        ops.append(Op("sum_exact", "sums.t_prefix_sum", (N, "exact"),
                      _check_exact_sum(N)))
    N = (1 << 21) + rng.randrange(1 << 12)
    ops.append(Op("sum_float", "sums.t_prefix_sum", (N, "float"),
                  _check_float_sum(N)))
    N = (1 << 20) + rng.randrange(1 << 12)
    ops.append(Op("alpha", "sums.alpha_estimate", (1, N), _check_alpha(N)))
    ops.append(Op("brocot_row", "enumeration.brocot_row", (17,),
                  _check_brocot(17, rng)))
    a, b = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16)
    ops.append(Op("diatomic_row", "core.diatomic_row", (19, a, b),
                  _check_diatomic(19, a, b)))
    N = (1 << 20) + rng.randrange(1 << 12)
    ops.append(Op("delta3_trace", "smalld.delta3_trace", (N,),
                  _check_delta3_trace(N, rng)))
    N = (1 << 21) + rng.randrange(1 << 12)
    ops.append(Op("a3_enumerate", "smalld.a3_enumerate", (N,),
                  _check_a3_enumerate(N, rng)))
    for kind, count, bits in TABLES_POINTS:
        for _ in range(count):
            if kind.startswith("minkowski"):
                x = _small_rational(rng, bits)
                ops.append(Op(kind, "enumeration.minkowski_q", (x,),
                              _check_minkowski(x)))
            elif kind.startswith("round_trip"):
                n = _rand_bits(rng, bits)
                ops.append(Op(kind, "round_trip", (n,), _check_round_trip(n)))
            else:
                n = _rand_bits(rng, bits)
                ops.append(Op(kind, "core.stern_pair", (n,),
                              _check_stern_pair(n)))
    return ops


# --------------------------------------------------------------------- cli

def _tsv_lines(out):
    return out.decode().rstrip("\n").split("\n")


def _frac(s):
    p, q = s.split("/")
    return Fraction(int(p), int(q))


def _cli_value(cmd, fmt, out):
    """Canonical value of one command's output in either format."""
    if fmt == "json":
        env = json.loads(out)
        if env.get("format_version") != "1" or env.get("command") != cmd:
            raise ValueError("bad JSON envelope")
        res = env["result"]
        if cmd in ("stern", "a3row", "t3zero", "hyperbinary"):
            return int(res["value"])
        if cmd == "index":
            return int(res["index"])
        if cmd == "minkowski":
            return Fraction(int(res["numerator"]), 1 << res["exponent"])
        if cmd == "rowsum":
            return Fraction(int(res["num"]), int(res["den"]))
        if cmd == "dist":
            return [int(c) for c in res["counts"]]
        if cmd == "minpoly":
            return [int(c) for c in res["coefficients"]]
        if cmd == "spectral":
            return (res["rho"], res["tau"], res["sigma"],
                    res["multiplicity"],
                    [int(c) for c in res["minimal_polynomial"]],
                    [(r["re"], r["im"], r["multiplicity"], r["exact"],
                      r["residual"]) for r in res["roots"]])
        if cmd == "row":
            return [int(v) for v in res["values"]]
        if cmd == "brocot":
            return res["entries"]
        if cmd == "delta3":
            return [int(v) for v in res["trace"]]
        if cmd == "graph":
            return res["dot"]
        raise ValueError(cmd)
    lines = _tsv_lines(out)
    if cmd in ("stern", "a3row", "t3zero", "hyperbinary", "index"):
        return int(lines[0])
    if cmd in ("minkowski", "rowsum"):
        return _frac(lines[0])
    if cmd == "dist":
        return [int(ln.split("\t")[1]) for ln in lines
                if not ln.startswith(("#", "pair"))]
    if cmd == "minpoly":
        return [int(c) for c in lines[0].split("\t")]
    if cmd == "spectral":
        head = dict(ln.split("\t", 1) for ln in lines[:4])
        roots = []
        for ln in lines[4:]:
            _, re_, im, mult, res, exact = ln.split("\t")
            roots.append((float(re_), float(im), int(mult), exact == "1",
                          float(res)))
        return (float(head["rho"]), float(head["tau"]), int(head["sigma"]),
                int(head["multiplicity"]), None, roots)
    if cmd == "row":
        return [int(v) for v in lines]
    if cmd == "brocot":
        return lines
    if cmd == "delta3":
        pairs = [ln.split("\t") for ln in lines]
        if [int(n) for n, _ in pairs] != list(range(len(pairs))):
            return None
        return [int(v) for _, v in pairs]
    if cmd == "graph":
        return "\n".join(lines) + "\n"
    raise ValueError(cmd)


def _same(cmd, a, b):
    if cmd == "spectral":
        # the TSV form does not carry the polynomial
        return a[:4] == b[:4] and a[5] == b[5]
    return a == b


def _graph_dot_ok(d, dot):
    verts, left, right = ref.feasible_graph(d)
    lines = dot.rstrip("\n").split("\n")
    name = lambda v: f'"({v[0]},{v[1]})"'  # noqa: E731
    want = [f"digraph stern_pairs_mod_{d} {{"]
    want += [f"  {name(v)};" for v in verts]
    for k, v in enumerate(verts):
        want.append(f'  {name(v)} -> {name(verts[left[k]])} [label="L"];')
        want.append(f'  {name(v)} -> {name(verts[right[k]])} [label="R"];')
    want.append("}")
    return sorted(lines) == sorted(want)


def _cli_reference(cmd, params):
    """Check a canonical value against the references; returns a
    function of the value that gives None or a message."""
    p = params
    if cmd == "stern":
        want = ref.pair_scan(p["n"])[0]
        return lambda v: None if v == want else "s(n) differs"
    if cmd == "index":
        return lambda v: None if v == p["n"] else "index differs"
    if cmd == "minkowski":
        want = ref.minkowski(p["x"])
        return lambda v: None if v == want else "?(x) differs"
    if cmd == "dist":
        want = ref.residue_counts(p["N"], p["d"])
        return lambda v: None if v == want else "counts differ"
    if cmd == "a3row":
        return _check_a3_row(p["r"])
    if cmd == "t3zero":
        return _check_t3_zero(p["r"])
    if cmd == "hyperbinary":
        return _check_hyperbinary(p["d"], p["n"])
    if cmd == "rowsum":
        r = p["r"]
        want = (ref.prefix_sum_at_power(r) if p["prefix"] else
                ref.prefix_sum_at_power(r + 1) - ref.prefix_sum_at_power(r))
        return lambda v: None if v == want else "row sum differs"
    if cmd == "minpoly":
        d = p["d"]
        return lambda v: (None if ref.is_minimal_polynomial(v, d)
                          else "minimal polynomial certificate failed")
    if cmd == "spectral":
        d = p["d"]
        return lambda v: check_spectrum_values(d, v[4], v[5], v[0], v[1])
    if cmd == "row":
        r, a, b = p["r"], p["a"], p["b"]
        return lambda v: (None if len(v) == (1 << r) + 1
                          and ref.insertion_consistent(v, a, b)
                          else "row does not follow the insertion rule")
    if cmd == "brocot":
        r = p["r"]

        def brocot(v):
            if v[-1] != "1/0" or v[0] != "0/1" or len(v) != (1 << r) + 1:
                return "row does not run from 0/1 to 1/0"
            xs = [_frac(s) for s in v[:-1]]
            if not all(a < b for a, b in zip(xs, xs[1:])):
                return "row is not strictly increasing"
            for k in range(0, 1 << r, 997):
                want = Fraction(ref.pair_scan(k)[0],
                                ref.pair_scan((1 << r) - k)[0])
                if xs[k] != want:
                    return f"entry {k} differs from s(k)/s(2^r - k)"
            return None
        return brocot
    if cmd == "delta3":
        N = p["N"]

        def trace(v):
            if v is None or len(v) != N + 1:
                return "trace has the wrong shape"
            if not all(x in (0, 1, 2, 3) for x in v):
                return "a Delta value is outside {0, 1, 2, 3}"
            return None if v[-1] == ref.delta(N) else "Delta(N) differs"
        return trace
    if cmd == "graph":
        d = p["d"]
        return lambda v: None if _graph_dot_ok(d, v) else "DOT graph differs"
    raise ValueError(cmd)


def _cli_op(kind, argv, params, fmt, lib_run):
    """One `python -m sternseq` invocation.  The check parses the
    output, runs the same command in the other format in-process with
    `lib_run` and compares, then checks the value against the
    references."""
    argv = tuple(argv) + (("--format", "json") if fmt == "json" else ())
    cmd = argv[0]
    other = tuple(argv[:-2]) if fmt == "json" else argv + ("--format",
                                                             "json")
    reference = _cli_reference(cmd, params)

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        try:
            value = _cli_value(cmd, fmt, out)
            code2, out2 = lib_run(other)
            if code2 != 0:
                return f"in-process exit code {code2}"
            value2 = _cli_value(cmd, "tsv" if fmt == "json" else "json", out2)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparsable output: {exc!r}"
        if not _same(cmd, value, value2):
            return "TSV and JSON outputs disagree"
        if cmd == "spectral" and value[4] is None:
            value = value2
        return reference(value)
    return Op(kind, "cli", argv, check)


# moduli whose pair graphs have 17,000 to 19,000 vertices, so that every
# DOT export costs about the same
CLI_GRAPH_MODULI = (133, 137, 141, 147, 152, 154, 158, 160, 162, 168)


def cli_round(rng, lib_run):
    ops = []

    def add(kind, argv, params, fmt=None):
        # short commands alternate TSV and JSON, so every round has the
        # same mix
        fmt = fmt or ("json" if len(ops) % 2 else "tsv")
        ops.append(_cli_op(kind, [str(a) for a in argv], params, fmt,
                           lib_run))

    for _ in range(3):
        n = _rand_bits(rng, 512)
        add("short", ("stern", n), {"n": n})
    for _ in range(3):
        n = _rand_bits(rng, 256)
        a, b = ref.pair_scan(n)
        add("short", ("index", a, b), {"n": n})
    for _ in range(2):
        x = _small_rational(rng, 128)
        add("short", ("minkowski", x.numerator, x.denominator), {"x": x})
    for _ in range(3):
        d, N = rng.randrange(3, 10), _rand_bits(rng, 64)
        add("short", ("dist", "--d", d, "--N", N), {"d": d, "N": N})
    for cmd in ("a3row", "t3zero"):
        for _ in range(2):
            r = rng.randrange(100, 2000)
            add("short", (cmd, r), {"r": r})
    for _ in range(2):
        d, n = rng.randrange(3, 9), _rand_bits(rng, 128)
        add("short", ("hyperbinary", "--d", d, "--n", n), {"d": d, "n": n})
    for _ in range(2):
        r, prefix = rng.randrange(10, 500), rng.random() < 0.5
        argv = ("rowsum", r) + (("--prefix",) if prefix else ())
        add("short", argv, {"r": r, "prefix": prefix})
    d = rng.randrange(3, 5)
    add("short", ("minpoly", "--d", d), {"d": d})
    d = rng.randrange(3, 5)
    add("short", ("spectral", "--d", d), {"d": d})
    # Large outputs.  Printing TSV line by line costs about 0.4 s for
    # each of the six TSV commands, more than any other command; at a
    # fifth of the round they hold the 90th percentile mid-class.  The
    # two JSON ones cost a short command plus about 40 ms.
    for _ in range(2):
        a, b = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
        add("large", ("row", 16, a, b), {"r": 16, "a": a, "b": b}, "tsv")
        N = 70000 + rng.randrange(1 << 12)
        add("large", ("delta3", "--N", N, "--trace"), {"N": N}, "tsv")
    add("large", ("brocot", 16), {"r": 16}, "tsv")
    d = rng.choice(CLI_GRAPH_MODULI)
    add("large", ("graph", "--d", d, "--dot", "--max-matrix-order", 1 << 15),
        {"d": d}, "tsv")
    a, b = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
    add("large", ("row", 17, a, b), {"r": 17, "a": a, "b": b}, "json")
    d = rng.choice(CLI_GRAPH_MODULI)
    add("large", ("graph", "--d", d, "--dot", "--max-matrix-order", 1 << 15),
        {"d": d}, "json")
    return ops


def call(op, lib):
    """Run one operation against the library modules in `lib`."""
    if op.target == "cli":
        return lib.run_cli(op.args)
    if op.target == "round_trip":
        x = lib.enumeration.rational_of_index(op.args[0])
        return x, lib.enumeration.index_of_rational(x)
    module, name = op.target.split(".")
    return getattr(getattr(lib, module), name)(*op.args, **op.kwargs)


WORKLOADS = {
    "spectrum": spectrum_round,
    "census": census_round,
    "tables": tables_round,
    "cli": cli_round,
}


def make_pool(name, seed, lib_run=None):
    """POOL_ROUNDS rounds of workload `name` drawn from `seed`."""
    rounds = []
    for k in range(POOL_ROUNDS):
        rng = random.Random(f"{name}/{seed}/{k}")
        if name == "cli":
            rounds.append(cli_round(rng, lib_run))
        else:
            rounds.append(WORKLOADS[name](rng))
    return rounds
