import pytest

from linquas.modring import inverse_mod, is_prime, is_unit, solve_linear


def test_inverse_examples():
    assert inverse_mod(4, 5) == 4
    assert inverse_mod(5, 6) == 5
    with pytest.raises(ValueError):
        inverse_mod(4, 6)


def test_unit_times_inverse_is_one():
    for n in range(2, 101):
        for u in range(n):
            if is_unit(u, n):
                assert u * inverse_mod(u, n) % n == 1


def test_solve_linear_examples():
    assert solve_linear(4, 2, 6) == (2, 5)
    assert solve_linear(5, 3, 6) == (3,)
    assert solve_linear(2, 1, 4) == ()


def test_solve_linear_matches_enumeration():
    for n in range(2, 51):
        for k in range(n):
            for rhs in range(n):
                expected = tuple(s for s in range(n) if k * s % n == rhs)
                assert solve_linear(k, rhs, n) == expected, (n, k, rhs)


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(63)
    assert is_prime(2)


def test_is_prime_matches_enumeration():
    for n in range(2, 500):
        naive = all(n % d for d in range(2, n))
        assert is_prime(n) == naive, n

