"""Exact arithmetic in the ring of integers modulo n."""

from __future__ import annotations

import math


class NotAUnitError(ValueError):
    """Requested a modular inverse of a residue that is not a unit."""


def gcd(u: int, v: int) -> int:
    """Greatest common divisor of two non-negative integers, not both zero."""
    if u < 0 or v < 0:
        raise ValueError(f"gcd arguments must be non-negative, got ({u}, {v})")
    if u == 0 and v == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(u, v)


def is_unit(v: int, n: int) -> bool:
    return math.gcd(v % n, n) == 1


def inverse_mod(v: int, n: int) -> int:
    """Inverse of v modulo n; raises NotAUnitError when gcd(v, n) != 1."""
    try:
        return pow(v % n, -1, n)
    except ValueError:
        raise NotAUnitError(f"{v % n} is not a unit mod {n}") from None


def solve_linear(k: int, rhs: int, n: int) -> tuple[int, ...]:
    """All s in Z_n with k*s = rhs (mod n), sorted ascending.

    The solution set is empty when gcd(k, n) does not divide rhs, and has
    exactly gcd(k, n) elements otherwise.
    """
    k %= n
    rhs %= n
    d = math.gcd(k, n)
    if d == 0:
        # k = 0 mod n: either every residue solves it or none does.
        return tuple(range(n)) if rhs == 0 else ()
    if rhs % d:
        return ()
    m = n // d
    base = (rhs // d) * pow((k // d) % m, -1, m) % m
    return tuple(base + t * m for t in range(d))


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
