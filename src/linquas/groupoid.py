"""The groupoid (Z_n, *) with x*y = a + b*x + c*y mod n.

Cayley tables, quasigroup/Latin-square tests, local identities and local
inverses, left/right division, and orthogonality of pairs of tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .modring import is_unit, solve_linear

# Cells per numpy block, for the exhaustive checker's assignments and for
# _invert_rows: a block's arrays (2 MiB each at int64) stay in cache, which
# made both run faster than with 2**20-cell blocks.  Operation tables larger
# than one block are stored compact (see _padded).
BLOCK = 1 << 18


class ModulusMismatchError(ValueError):
    """Two groupoids with different moduli were combined."""


@dataclass(frozen=True)
class LinearGroupoid:
    """(Z_n, *) with x*y = (a + b*x + c*y) % n; coefficients stored reduced."""

    n: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")
        object.__setattr__(self, "a", self.a % self.n)
        object.__setattr__(self, "b", self.b % self.n)
        object.__setattr__(self, "c", self.c % self.n)

    def triple(self) -> tuple[int, int, int, int]:
        return (self.n, self.a, self.b, self.c)

    def polynomial_text(self) -> str:
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}x" if self.b != 1 else "x")
        if self.c:
            parts.append(f"{self.c}y" if self.c != 1 else "y")
        return " + ".join(parts) if parts else "0"


def apply(g: LinearGroupoid, x: int, y: int) -> int:
    return (g.a + g.b * x + g.c * y) % g.n


def is_quasigroup(g: LinearGroupoid) -> bool:
    """True iff both b and c are coprime with n."""
    return is_unit(g.b, g.n) and is_unit(g.c, g.n)


def cayley_table(g: LinearGroupoid) -> np.ndarray:
    """Read-only n x n array with entry [x, y] = x*y."""
    return op_tables(g.triple()).mul[:g.n, :g.n]


def is_latin_square(table: np.ndarray) -> bool:
    """True iff every row and every column is a permutation of 0..n-1."""
    want = np.arange(table.shape[0])
    rows_ok = bool((np.sort(table, axis=1) == want).all())
    cols_ok = bool((np.sort(table, axis=0) == want[:, None]).all())
    return rows_ok and cols_ok


NO_SOLUTION = "NoSolution"
NON_UNIQUE = "NonUnique"


@dataclass(frozen=True)
class LocalElement:
    """Value defined by a linear congruence; defined only when the solution
    is unique, otherwise `reason` says why (NoSolution or NonUnique)."""

    defined: bool
    value: int | None = None
    reason: str | None = None


def _from_solutions(sols: tuple[int, ...]) -> LocalElement:
    if len(sols) == 1:
        return LocalElement(True, sols[0])
    return LocalElement(False, None, NO_SOLUTION if not sols else NON_UNIQUE)


def left_divide(g: LinearGroupoid, x: int, z: int) -> LocalElement:
    """x \\ z: the unique w with x*w = z, when it exists."""
    return _from_solutions(solve_linear(g.c, z - g.a - g.b * x, g.n))


def right_divide(g: LinearGroupoid, z: int, x: int) -> LocalElement:
    """z / x: the unique w with w*x = z, when it exists."""
    return _from_solutions(solve_linear(g.b, z - g.a - g.c * x, g.n))


def local_right_identity(g: LinearGroupoid, x: int) -> LocalElement:
    """e_rho(x) = x \\ x: the e with x*e = x, when unique."""
    return left_divide(g, x, x)


def local_left_identity(g: LinearGroupoid, x: int) -> LocalElement:
    """e_lambda(x) = x / x: the e with e*x = x, when unique."""
    return right_divide(g, x, x)


def right_inverse(g: LinearGroupoid, x: int) -> LocalElement:
    """x \\ e_rho(x): the s with x*s = e_rho(x); e_rho(x) itself where undefined."""
    e = local_right_identity(g, x)
    return left_divide(g, x, e.value) if e.defined else e


def left_inverse(g: LinearGroupoid, x: int) -> LocalElement:
    """e_lambda(x) / x: the s with s*x = e_lambda(x); e_lambda(x) itself where undefined."""
    e = local_left_identity(g, x)
    return right_divide(g, e.value, x) if e.defined else e


def orthogonal(g1: LinearGroupoid, g2: LinearGroupoid) -> bool:
    """True iff the n^2 value pairs (g1(x,y), g2(x,y)) are pairwise distinct.

    Decided by enumeration; see orthogonal_det for the determinant pre-filter.
    """
    if g1.n != g2.n:
        raise ModulusMismatchError(f"moduli differ: {g1.n} != {g2.n}")
    t1 = cayley_table(g1)
    t2 = cayley_table(g2)
    combined = t1.astype(np.int64) * g1.n + t2
    return int(np.unique(combined).size) == g1.n * g1.n


def orthogonal_det(g1: LinearGroupoid, g2: LinearGroupoid) -> bool:
    """Fast pre-filter: b1*c2 - b2*c1 is a unit mod n."""
    if g1.n != g2.n:
        raise ModulusMismatchError(f"moduli differ: {g1.n} != {g2.n}")
    return is_unit(g1.b * g2.c - g2.b * g1.c, g1.n)


# Lookup tables used by the exhaustive checker in engine.py.  Everything is
# derived by scanning the Cayley table, never from coefficient algebra, so
# the brute-force path stays independent of the symbolic expansion.


class OpTables:
    """Operation tables for one groupoid; -1 marks an undefined entry.  Each
    axis has one more slot, at index n, holding -1, so index -1 reads -1.

    Only mul is given; the others are scanned from it on first access, so a
    check builds just the tables its identity uses.  All are read-only and
    share mul's dtype.
    """

    def __init__(self, mul: np.ndarray) -> None:
        mul.setflags(write=False)
        self.n = mul.shape[0] - 1
        self.mul = mul  # mul[x, y] = x*y

    @cached_property
    def ldiv(self) -> np.ndarray:
        """ldiv[x, z] = unique w with x*w = z, else -1."""
        return _invert_rows(self.mul[:-1, :-1])

    @cached_property
    def rdiv(self) -> np.ndarray:
        """rdiv[x, z] = unique w with w*x = z, else -1."""
        return _invert_rows(self.mul[:-1, :-1].T)

    @cached_property
    def e_rho(self) -> np.ndarray:
        """e_rho[x] = unique e with x*e = x, else -1."""
        return self.ldiv.diagonal()

    @cached_property
    def e_lam(self) -> np.ndarray:
        """e_lam[x] = unique e with e*x = x, else -1."""
        return self.rdiv.diagonal()

    @cached_property
    def rho(self) -> np.ndarray:
        """rho[x] = unique s with x*s = e_rho(x), else -1."""
        return _read_only(self.ldiv[np.arange(self.n + 1), self.e_rho])

    @cached_property
    def lam(self) -> np.ndarray:
        """lam[x] = unique s with s*x = e_lam(x), else -1."""
        return _read_only(self.rdiv[np.arange(self.n + 1), self.e_lam])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _padded(n: int) -> np.ndarray:
    """An (n+1) x (n+1) table of -1.  A table of at most BLOCK cells is
    int64, numpy's index type, which lookups use without a cast; a larger
    one takes the smallest signed type holding -2n, and so the sums below
    2n written while building mul, so that it stays in cache (int16 up to
    n = 16384)."""
    cells = (n + 1) ** 2
    dtype = np.int64 if cells <= BLOCK else np.min_scalar_type(-2 * n)
    return np.full((n + 1, n + 1), -1, dtype=dtype)


def _invert_rows(t: np.ndarray) -> np.ndarray:
    """inv[x, v] = the unique w with t[x, w] = v, or -1; padded to n + 1.
    Inverts blocks of at most BLOCK cells at a time."""
    n = t.shape[0]
    inv = _padded(n)
    cols = np.arange(n, dtype=np.int64)
    step = max(1, BLOCK // n)
    for start in range(0, n, step):
        rows = t[start:start + step]
        at = np.arange(len(rows))[:, None]
        counts = np.bincount((at * n + rows).ravel(), minlength=rows.size)
        block = inv[start:start + len(rows), :n]
        block[at, rows] = cols
        block[counts.reshape(rows.shape) != 1] = -1
    return _read_only(inv)


@lru_cache(maxsize=4096)
def op_tables(triple: tuple[int, int, int, int]) -> OpTables:
    """Lookup tables for the groupoid (n, a, b, c); the Cayley table is
    written straight into mul, the others are scanned from it."""
    n, a, b, c = LinearGroupoid(*triple).triple()
    mul = _padded(n)
    body = mul[:n, :n]
    i = np.arange(n, dtype=np.int64)
    # each term is below n, so their sum (below 2n) fits the table's dtype
    np.add(((a + b * i) % n)[:, None], ((c * i) % n)[None, :], out=body,
           casting="unsafe")
    body %= n
    return OpTables(mul)
