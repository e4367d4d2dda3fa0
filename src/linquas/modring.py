"""Exact arithmetic in the ring of integers modulo n."""

from __future__ import annotations

import math


def is_unit(v: int, n: int) -> bool:
    """True iff v is a unit mod n; elementwise (a bool array) for a numpy
    array of residues, as catalog.row_sweep_mask and
    ConditionPredicate.holds pass."""
    if isinstance(v, int):
        return math.gcd(v % n, n) == 1
    import numpy as np  # only arrays reach here, so numpy is loaded already

    return np.gcd(v, n) == 1


def inverse_mod(v: int, n: int) -> int:
    """Inverse of v modulo n; pow raises ValueError when v is not a unit."""
    return pow(v, -1, n)


def poly_value(terms, n: int, a: int, b: int, c: int) -> int:
    """sum(coef * a^ea * b^eb * c^ec) mod n over (coef, ea, eb, ec) terms; a
    negative eb or ec makes pow invert b or c, which must then be a unit."""
    total = 0
    for coef, ea, eb, ec in terms:
        total += coef * pow(a, ea, n) * pow(b, eb, n) * pow(c, ec, n)
    return total % n


def solve_linear(k: int, rhs: int, n: int) -> range:
    """All s in Z_n with k*s = rhs (mod n), as an ascending range.

    The solution set is empty when gcd(k, n) does not divide rhs, and has
    exactly gcd(k, n) elements otherwise, spaced n / gcd(k, n) apart; a
    range holds them in O(1) memory, so a division by 0 at a huge n (every
    w solves 0*w = 0) stays cheap.
    """
    k %= n
    rhs %= n
    d = math.gcd(k, n)
    if rhs % d:
        return range(0)
    m = n // d
    base = (rhs // d) * pow((k // d) % m, -1, m) % m
    return range(base, n, m)


def is_prime(n: int) -> bool:
    """Trial-division primality test, intended for desk-scale n (<= 10**6)."""
    if n < 2:
        raise ValueError(f"primality is defined here for n >= 2, got {n}")
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True
