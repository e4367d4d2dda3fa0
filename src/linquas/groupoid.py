"""The groupoid (Z_n, *) with x*y = a + b*x + c*y mod n.

Cayley tables, quasigroup/Latin-square tests, local identities and local
inverses, left/right division, and orthogonality of pairs of tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modring import gcd, solve_linear

# Cells per numpy block, for the exhaustive checker's assignments and for
# _invert_rows: a block's int64 arrays (2 MiB each) stay in cache, which made
# both run faster than with 2**20-cell blocks.
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
    return gcd(g.b, g.n) == 1 and gcd(g.c, g.n) == 1


def cayley_table(g: LinearGroupoid) -> np.ndarray:
    """Read-only n x n array with entry [x, y] = x*y."""
    arr = _op_array(g)
    arr.setflags(write=False)
    return arr


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

    kind: str
    defined: bool
    value: int | None = None
    reason: str | None = None


def _from_solutions(kind: str, sols: tuple[int, ...]) -> LocalElement:
    if len(sols) == 1:
        return LocalElement(kind, True, sols[0])
    return LocalElement(kind, False, None, NO_SOLUTION if not sols else NON_UNIQUE)


def local_right_identity(g: LinearGroupoid, x: int) -> LocalElement:
    """e with x*e = x, when unique: solves c*e = x - a - b*x (mod n)."""
    return _from_solutions("e_rho", solve_linear(g.c, x - g.a - g.b * x, g.n))


def local_left_identity(g: LinearGroupoid, x: int) -> LocalElement:
    """e with e*x = x, when unique: solves b*e = x - a - c*x (mod n)."""
    return _from_solutions("e_lambda", solve_linear(g.b, x - g.a - g.c * x, g.n))


def right_inverse(g: LinearGroupoid, x: int) -> LocalElement:
    """s with x*s = e_rho(x); undefined when e_rho(x) is, with the same reason."""
    e = local_right_identity(g, x)
    if not e.defined:
        return LocalElement("rho", False, None, e.reason)
    return _from_solutions("rho", solve_linear(g.c, e.value - g.a - g.b * x, g.n))


def left_inverse(g: LinearGroupoid, x: int) -> LocalElement:
    """s with s*x = e_lambda(x); undefined when e_lambda(x) is."""
    e = local_left_identity(g, x)
    if not e.defined:
        return LocalElement("lambda", False, None, e.reason)
    return _from_solutions("lambda", solve_linear(g.b, e.value - g.a - g.c * x, g.n))


def left_divide(g: LinearGroupoid, x: int, z: int) -> LocalElement:
    """x \\ z: the unique w with x*w = z, when it exists."""
    return _from_solutions("ldiv", solve_linear(g.c, z - g.a - g.b * x, g.n))


def right_divide(g: LinearGroupoid, z: int, x: int) -> LocalElement:
    """z / x: the unique w with w*x = z, when it exists."""
    return _from_solutions("rdiv", solve_linear(g.b, z - g.a - g.c * x, g.n))


def orthogonal(g1: LinearGroupoid, g2: LinearGroupoid) -> bool:
    """True iff the n^2 value pairs (g1(x,y), g2(x,y)) are pairwise distinct.

    Decided by enumeration; see orthogonal_det for the determinant pre-filter.
    """
    if g1.n != g2.n:
        raise ModulusMismatchError(f"moduli differ: {g1.n} != {g2.n}")
    t1 = _op_array(g1)
    t2 = _op_array(g2)
    combined = t1.astype(np.int64) * g1.n + t2
    return int(np.unique(combined).size) == g1.n * g1.n


def orthogonal_det(g1: LinearGroupoid, g2: LinearGroupoid) -> bool:
    """Fast pre-filter: b1*c2 - b2*c1 is a unit mod n."""
    if g1.n != g2.n:
        raise ModulusMismatchError(f"moduli differ: {g1.n} != {g2.n}")
    return gcd((g1.b * g2.c - g2.b * g1.c) % g1.n, g1.n) == 1


# Lookup tables used by the exhaustive checker in engine.py.  Everything is
# derived by scanning the Cayley table, never from coefficient algebra, so
# the brute-force path stays independent of the symbolic expansion.


@dataclass(frozen=True)
class OpTables:
    """Operation tables for one groupoid; -1 marks an undefined entry.  Each
    axis has one more slot, at index n, holding -1, so index -1 reads -1."""

    n: int
    mul: np.ndarray     # mul[x, y] = x*y
    ldiv: np.ndarray    # ldiv[x, z] = unique w with x*w = z, else -1
    rdiv: np.ndarray    # rdiv[x, z] = unique w with w*x = z, else -1
    e_rho: np.ndarray   # e_rho[x] = unique e with x*e = x, else -1
    e_lam: np.ndarray   # e_lam[x] = unique e with e*x = x, else -1
    rho: np.ndarray     # rho[x] = unique s with x*s = e_rho(x), else -1
    lam: np.ndarray     # lam[x] = unique s with s*x = e_lam(x), else -1


def _op_array(g: LinearGroupoid) -> np.ndarray:
    idx = np.arange(g.n, dtype=np.int64)
    return (g.a + g.b * idx[:, None] + g.c * idx[None, :]) % g.n


def _invert_rows(t: np.ndarray) -> np.ndarray:
    """inv[x, v] = the unique w with t[x, w] = v, or -1; padded to n + 1.
    Inverts blocks of at most BLOCK cells at a time."""
    n = t.shape[0]
    inv = np.full((n + 1, n + 1), -1, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    step = max(1, BLOCK // n)
    for start in range(0, n, step):
        rows = t[start:start + step]
        at = np.arange(len(rows))[:, None]
        counts = np.bincount((at * n + rows).ravel(), minlength=rows.size)
        block = inv[start:start + len(rows), :n]
        block[at, rows] = cols
        block[counts.reshape(rows.shape) != 1] = -1
    return inv


@lru_cache(maxsize=4096)
def op_tables(triple: tuple[int, int, int, int]) -> OpTables:
    """Build lookup tables for the groupoid (n, a, b, c) by table scan."""
    return _scan_tables(_op_array(LinearGroupoid(*triple)))


def _scan_tables(table: np.ndarray) -> OpTables:
    """Lookup tables of any finite groupoid, from its n x n Cayley table."""
    n = table.shape[0]
    mul = np.full((n + 1, n + 1), -1, dtype=np.int64)
    mul[:n, :n] = table
    ldiv = _invert_rows(table)
    rdiv = _invert_rows(table.T)
    idx = np.arange(n + 1)
    e_rho = ldiv[idx, idx]
    e_lam = rdiv[idx, idx]
    rho = ldiv[idx, e_rho]
    lam = rdiv[idx, e_lam]
    for arr in (mul, ldiv, rdiv, e_rho, e_lam, rho, lam):
        arr.setflags(write=False)
    return OpTables(n, mul, ldiv, rdiv, e_rho, e_lam, rho, lam)
