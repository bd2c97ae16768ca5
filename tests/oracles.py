"""Slow reference implementations used only to validate the library.

Everything here prefers the most literal reading of a definition over
speed.  The package is checked against these oracles, never the other
way around.
"""
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def naive_stern(n):
    """s(n) straight from the two-case recurrence."""
    if n < 2:
        return n
    if n % 2 == 0:
        return naive_stern(n // 2)
    return naive_stern(n // 2) + naive_stern(n // 2 + 1)


def insertion_row(r, a, b):
    """Row r of the diatomic array grown by literal insertion.

    Start from (a, b) and, r times, write the sum of every adjacent
    pair between its two parents.
    """
    row = [a, b]
    for _ in range(r):
        nxt = []
        for x, y in zip(row, row[1:]):
            nxt += [x, x + y]
        nxt.append(row[-1])
        row = nxt
    return row


def cfrac_value(quotients):
    """Value of the simple continued fraction [a0; a1, a2, ...]."""
    acc = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = a + 1 / acc
    return acc


@lru_cache(maxsize=None)
def count_digit_strings(d, n):
    """Number of ways to write n as sum(e_i * 2^i) with 0 <= e_i < d.

    Branches on the lowest digit, which must match n's parity.
    """
    if n == 0:
        return 1
    total = 0
    for digit in range(n % 2, min(d - 1, n) + 1, 2):
        total += count_digit_strings(d, (n - digit) // 2)
    return total


def product_coefficients(limit):
    """Coefficients of X * prod_j (1 + X^(2^j) + X^(2^(j+1))).

    The product is truncated at degree `limit`; only factors whose
    smallest new exponent fits below the cut contribute.
    """
    poly = [0] * (limit + 1)
    poly[1] = 1
    j = 0
    while (1 << j) <= limit:
        lo, hi = 1 << j, 2 << j
        nxt = poly[:]
        for i in range(lo, limit + 1):
            nxt[i] += poly[i - lo]
        for i in range(hi, limit + 1):
            nxt[i] += poly[i - hi]
        poly = nxt
        j += 1
    return poly


def farey_fractions(max_den):
    """All reduced p/q in [0, 1] with q <= max_den, ascending."""
    from math import gcd
    out = {Fraction(0), Fraction(1)}
    for q in range(1, max_den + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def dense_minimal_polynomial(M):
    """Monic minimal polynomial of the square matrix M, ascending.

    The literal reading "first dependency among I, M, M^2, ...": each
    power is flattened to a vector and reduced against an echelon basis
    of the earlier ones by exact rational elimination.
    """
    n = len(M)
    echelon = []  # (pivot position, reduced vector, combination)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        vec = [Fraction(e) for row in power for e in row]
        combo = [Fraction(0)] * len(echelon) + [Fraction(1)]
        for pivot, evec, ecombo in echelon:
            c = vec[pivot]
            if c:
                f = c / evec[pivot]
                vec = [v - f * ev for v, ev in zip(vec, evec)]
                for pos, ec in enumerate(ecombo):
                    combo[pos] -= f * ec
        pivot = next((pos for pos, v in enumerate(vec) if v), None)
        if pivot is None:
            return combo
        echelon.append((pivot, vec, combo))
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*M)]
                 for row in power]
