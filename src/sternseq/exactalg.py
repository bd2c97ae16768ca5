"""Small exact linear algebra and polynomial kit, over the integers.

Matrices are lists of row lists; polynomials are coefficient lists in
ascending degree order, the zero polynomial being the empty list.  All
entries are integers: division is by monic divisors, and gcds are taken
mod one prime after another of a fixed ladder until exact division over
Z certifies one, and come with the quotients of that division; the
first, word-sized prime is entered only when a proven coefficient bound
fits it.  The dense matrix functions are the oracle for `verify` and
the tests.
"""

from .core import ResourceLimitError

# The Mersenne primes of the Berlekamp-Massey terms in `moddist` and of
# the gcds here, tried in turn until the exact certificate holds, with
# one result per rung; both read this one binding at call time.  The
# symmetric residues mod p lift every integer c with 2 |c| < p.  The
# first rung, 2^89 - 1 (three 30-bit digits, so about as cheap as a
# word-size prime), is entered only while a proven bound on the result
# fits it: a monic integer polynomial of degree L with every root in
# |z| <= 2 has |coefficients| <= 3^L, so Berlekamp-Massey leaves it once
# 2 * 3^L >= p (L <= 55 completes), and the gcds run there only when
# 2 * 2^deg f * ||f||_2 < p (Landau-Mignotte).  The later rungs are not
# bounded, and the last exceeds 2 * 3^4096, so it lifts every factor of
# mu_M under the matrix cap of `moddist`.
_PRIME_LADDER = tuple((1 << e) - 1
                      for e in (89, 521, 1279, 2203, 4423, 9689))


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in A]


def mat_pow(A, r: int):
    """A**r by repeated squaring, exact integer arithmetic."""
    if r < 0:
        raise ValueError("negative matrix power")
    result = identity(len(A))
    base = A
    while r:
        if r & 1:
            result = mat_mul(result, base)
        r >>= 1
        if r:
            base = mat_mul(base, base)
    return result


def mat_is_zero(A) -> bool:
    return all(not e for row in A for e in row)


def poly_trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _symmetric_lift(f, p: int):
    """Residues mod p as the integers of least absolute value."""
    return [c - p if c > p // 2 else c for c in f]


def poly_sub(f, g):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return poly_trim([a - b for a, b in zip(f, g)])


def poly_derivative(f):
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def poly_divmod(f, g):
    """Quotient and trimmed remainder of f by a monic g over Z."""
    if not g or g[-1] != 1:
        raise ValueError("polynomial division needs a monic divisor")
    r = poly_trim(f)
    dg = len(g) - 1
    q = [0] * (len(r) - dg)
    for i in range(len(r) - dg - 1, -1, -1):
        q[i] = c = r[i + dg]
        for j in range(dg):
            r[i + j] -= c * g[j]
    return q, poly_trim(r[:dg])


def poly_gcd(f, g):
    """(h, f / h, g / h) for the monic gcd h of integer polynomials f
    and g, f monic.

    Euclid runs mod each prime p of _PRIME_LADDER in turn; its monic
    result h, lifted to symmetric residues, has deg h >= deg gcd, as the
    gcd over Q is integral (Gauss) and divides f and g mod p.  So h
    dividing f and g over Z proves h = gcd, and those two divisions give
    the quotients; when no prime gives a proof, ResourceLimitError is
    raised.  The first prime is skipped unless 2 * 2^deg f * ||f||_2 < p:
    every factor of f, so also the gcd, has coefficients at most
    2^deg f * ||f||_2 (Landau-Mignotte).
    """
    for rung, p in enumerate(_PRIME_LADDER):
        if not rung and 4 ** len(f) * sum(c * c for c in f) >= p * p:
            continue
        a, b = f, poly_trim([c % p for c in g])
        while b:  # each step divides by b made monic mod p
            inv = pow(b[-1], -1, p)
            b = [c * inv % p for c in b]
            a, b = b, poly_trim([c % p for c in poly_divmod(a, b)[1]])
        h = _symmetric_lift([c % p for c in a], p)
        f_h, rest = poly_divmod(f, h)
        if not rest:
            g_h, rest = poly_divmod(g, h)
            if not rest:
                return h, f_h, g_h
    top = max(_PRIME_LADDER, default=0).bit_length()
    raise ResourceLimitError(
        f"gcd with a monic polynomial of degree {len(f) - 1}: no prime of "
        f"the ladder, up to {top} bits, certified it")


def squarefree_factors(f):
    """Yun split of a monic f into [(monic factor, multiplicity), ...].

    Factors are pairwise coprime, squarefree and integral; their product
    with multiplicities is f.
    """
    if not f or f[-1] != 1:
        raise ValueError("squarefree split needs a monic polynomial")
    out, i = [], 0
    b, d = f, poly_derivative(f)
    while len(b) > 1:
        g, b, c = poly_gcd(b, d)
        if i and len(g) > 1:  # the first g is gcd(f, f'), not a factor
            out.append((g, i))
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def poly_eval(f, x):
    """Horner evaluation; works for any ring element x."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_eval_matrix(f, M):
    """f(M) for a square matrix M, by Horner with exact arithmetic."""
    n = len(M)
    if not f:
        return [[0] * n for _ in range(n)]
    acc = [[f[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(f[:-1]):
        acc = mat_mul(acc, M)
        for i in range(n):
            acc[i][i] += c
    return acc
