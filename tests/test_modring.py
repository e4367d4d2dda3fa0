import pytest

from linquas.catalog import catalog_entries
from linquas.modring import inverse_mod, is_prime, is_unit, poly_value, solve_linear


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


def test_poly_value_matches_the_per_term_formula_on_every_catalog_residual():
    # the reference takes pow(b, eb, n) term by term, and raises ValueError
    # wherever a negative exponent meets a non-unit; poly_value must agree.
    def per_term(terms, n, a, b, c):
        return sum(k * pow(a, ea, n) * pow(b, eb, n) * pow(c, ec, n)
                   for k, ea, eb, ec in terms) % n

    polys = set()
    for entry in catalog_entries():
        if entry.identity is not None:
            residual = entry.identity.residual
            polys.update((residual.constant, *residual.coeffs.values()))
    assert any(eb < 0 or ec < 0 for p in polys for _, _, eb, ec in p)
    for n in range(2, 13):
        for a in {2 % n, n - 1}:
            for b in range(n):
                for c in range(n):
                    for terms in polys:
                        try:
                            want = per_term(terms, n, a, b, c)
                        except ValueError:
                            with pytest.raises(ValueError):
                                poly_value(terms, n, a, b, c)
                        else:
                            assert poly_value(terms, n, a, b, c) == want, (terms, n, a, b, c)
    # a non-unit b or c evaluates while its exponents stay non-negative
    assert poly_value(((1, 0, 1, 0), (1, 0, 0, 1)), 6, 1, 2, 3) == 5
    assert poly_value(((1, 0, 1, -1),), 6, 1, 2, 5) == 4
    with pytest.raises(ValueError):
        poly_value(((1, 0, 1, 0), (1, 0, -1, 0)), 6, 1, 2, 5)


def test_solve_linear_examples():
    assert tuple(solve_linear(4, 2, 6)) == (2, 5)
    assert tuple(solve_linear(5, 3, 6)) == (3,)
    assert tuple(solve_linear(2, 1, 4)) == ()


def test_solve_linear_matches_enumeration():
    for n in range(2, 51):
        for k in range(n):
            for rhs in range(n):
                expected = tuple(s for s in range(n) if k * s % n == rhs)
                assert tuple(solve_linear(k, rhs, n)) == expected, (n, k, rhs)


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(63)
    assert is_prime(2)


def test_is_prime_matches_enumeration():
    for n in range(2, 500):
        naive = all(n % d for d in range(2, n))
        assert is_prime(n) == naive, n

