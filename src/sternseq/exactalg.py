"""Small exact linear algebra and polynomial kit.

Matrices are lists of row lists with integer (or Fraction) entries.
Polynomials are coefficient lists in ascending degree order; the zero
polynomial is the empty list.  Everything runs over exact rationals, as
the squarefree split requires; the dense matrix functions are the oracle
for `verify` and the tests.
"""

from fractions import Fraction


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


def poly_sub(f, g):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return poly_trim([a - b for a, b in zip(f, g)])


def poly_derivative(f):
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def poly_monic(f):
    f = poly_trim([Fraction(c) for c in f])
    if not f:
        return f
    lead = f[-1]
    return [c / lead for c in f]


def poly_divmod(f, g):
    """Quotient and remainder over the rationals; remainder is trimmed."""
    g = poly_trim([Fraction(c) for c in g])
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = poly_trim([Fraction(c) for c in f])
    dg = len(g) - 1
    if len(r) <= dg:
        return [], r
    q = [Fraction(0)] * (len(r) - dg)
    lead = g[-1]
    for i in range(len(r) - dg - 1, -1, -1):
        c = r[i + dg] / lead
        if c:
            q[i] = c
            for j, gc in enumerate(g):
                r[i + j] -= c * gc
    return q, poly_trim(r)


def poly_gcd(f, g):
    """Monic gcd by the Euclidean algorithm."""
    a = poly_trim([Fraction(c) for c in f])
    b = poly_trim([Fraction(c) for c in g])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def squarefree_factors(f):
    """Yun split of a polynomial into [(monic factor, multiplicity), ...].

    Factors are pairwise coprime and squarefree; their product with
    multiplicities recovers f up to the leading coefficient.
    """
    f = poly_monic(f)
    if len(f) <= 1:
        return []
    fp = poly_derivative(f)
    a = poly_gcd(f, fp)
    b, _ = poly_divmod(f, a)
    c, _ = poly_divmod(fp, a)
    d = poly_sub(c, poly_derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        g = poly_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, _ = poly_divmod(b, g)
        c, _ = poly_divmod(d, g)
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
