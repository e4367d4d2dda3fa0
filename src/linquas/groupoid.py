"""The groupoid (Z_n, *) with x*y = a + b*x + c*y mod n.

Cayley tables, quasigroup/Latin-square tests, local identities and local
inverses, left/right division, and orthogonality of pairs of tables.

The exhaustive checker reads operation tables scanned from the Cayley
table: the divisions by inverting its rows (_invert_rows), the local
elements by solving one target per row (_solve_rows).  A single check reads
one groupoid's OpTables through the op_tables LRU cache, and a cross-check
sweep reads StackMembers of stacked_op_tables, which builds the tables of
many groupoids of one modulus in one numpy pass per kind.  Every table is
stored in the smallest signed type that holds -2n (see _padded).  Every
check evaluates its identity over a stack's contiguous tables read flat,
where each table's -1 padding keeps an undefined value undefined (see
engine._eval_stack); one groupoid's OpTables is read as a stack of one.
Every scan (engine._scan) goes slab first: every member over the slab
where the leading variable is 0, then only the members it left undecided
over the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .modring import is_unit, solve_linear

# Cells per numpy block of the table scans (_invert_rows, _solve_rows,
# _cayley), whose arrays (2 MiB each at int64) stay in cache: faster than
# 2**20-cell blocks, and than BLOCK // 8 (e_lam at n = 3162: 28 -> 78 ms).
# The exhaustive checker sizes all its work by one chunk of BLOCK // 8
# (see engine): single checks, scans, sweep stacks and sweep slices.
# Operation tables are stored compact (see _padded).
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
    """Read-only n x n array with entry [x, y] = x*y, in the tables' compact
    dtype (int8 up to n = 64); widen it before arithmetic that can pass it."""
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


def _from_solutions(sols: range) -> LocalElement:
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
    combined = t1.astype(np.int64) * g1.n + t2  # t1 * n overflows the compact dtype
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
    """Operation tables for one groupoid, or for a stack of groupoids of one
    modulus along a leading axis; -1 marks an undefined entry.  Each table
    axis has one more slot, at index n, holding -1, so index -1 reads -1.

    Only mul is given; the others are scanned from it on first access, for
    the whole stack at once, so a check builds just the tables its identity
    uses.  The divisions invert whole rows of mul; each local element solves
    one target per row of mul (of its transpose for e_lam and lam, read a
    block at a time), so e_rho and rho build no ldiv, nor e_lam and lam an
    rdiv.  All are read-only and share mul's dtype.

    flags is the exhaustive checker's memo (engine.holds_bruteforce): each
    identity checked maps to its first undefined and first failing
    assignment's index, or -1, as a pair, or for a stack a list of each
    member's pair.  It dies with the tables (op_tables' LRU, a sweep's stack).
    """

    def __init__(self, mul: np.ndarray) -> None:
        mul.setflags(write=False)
        self.n = mul.shape[-1] - 1
        self.mul = mul  # mul[..., x, y] = x*y
        self.flags: dict = {}

    @cached_property
    def ldiv(self) -> np.ndarray:
        """ldiv[..., x, z] = unique w with x*w = z, else -1."""
        return _invert_rows(self.mul[..., :-1, :-1])

    @cached_property
    def rdiv(self) -> np.ndarray:
        """rdiv[..., x, z] = unique w with w*x = z, else -1."""
        return _invert_rows(self.mul[..., :-1, :-1].swapaxes(-1, -2))

    @cached_property
    def e_rho(self) -> np.ndarray:
        """e_rho[..., x] = unique e with x*e = x, else -1."""
        return _solve_rows(self.mul[..., :-1, :-1], self._own())

    @cached_property
    def e_lam(self) -> np.ndarray:
        """e_lam[..., x] = unique e with e*x = x, else -1."""
        return _solve_rows(self.mul[..., :-1, :-1].swapaxes(-1, -2), self._own())

    @cached_property
    def rho(self) -> np.ndarray:
        """rho[..., x] = unique s with x*s = e_rho(x), else -1."""
        return _solve_rows(self.mul[..., :-1, :-1], self.e_rho)

    @cached_property
    def lam(self) -> np.ndarray:
        """lam[..., x] = unique s with s*x = e_lam(x), else -1."""
        return _solve_rows(self.mul[..., :-1, :-1].swapaxes(-1, -2), self.e_lam)

    def _own(self) -> np.ndarray:
        """own[x] = x for every table, in mul's dtype so that a scan
        compares without a cast."""
        return np.arange(self.n, dtype=self.mul.dtype)


class StackMember(NamedTuple):
    """Groupoid `index` of a stacked OpTables.  The sweep's oracle reads its
    verdict from one scan of the whole stack, memoized in the stack's flags,
    and its tables as getattr(stack, kind)[index]."""

    stack: OpTables
    index: int


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _padded(n: int, *lead: int) -> np.ndarray:
    """An (n+1) x (n+1) table of -1, or a stack of them shaped lead, in the
    smallest signed type holding -2n, and so the sums below 2n written while
    building mul, so that it stays in cache (int8 up to n = 64, int16 up to
    n = 16384).  Lookups index with intp offsets (see engine._eval_stack)."""
    return np.full((*lead, n + 1, n + 1), -1, dtype=np.min_scalar_type(-2 * n))


def _table_blocks(tables: int, n: int):
    """(members, rows) slices that cover a stack of `tables` n x n tables in
    blocks of at most BLOCK cells: whole tables while one fits, rows of one
    table past that."""
    per = max(1, BLOCK // (n * n))
    step = max(1, BLOCK // n)
    for first in range(0, tables, per):
        for start in range(0, n, step):
            yield slice(first, first + per), slice(start, min(n, start + step))


def _invert_rows(t: np.ndarray) -> np.ndarray:
    """inv[..., x, v] = the unique w with t[..., x, w] = v, or -1, for one
    n x n table or a stack of them; padded to n + 1 on the last two axes.
    Inverts blocks of at most BLOCK cells at a time (see _table_blocks)."""
    n = t.shape[-1]
    inv = _padded(n, *t.shape[:-2])
    # views, of one table or of a 3-D stack; inv itself is returned, so that
    # a cached table holds no second array object
    stack, body = t.reshape(-1, n, n), inv.reshape(-1, n + 1, n + 1)[:, :n, :n]
    cols = np.arange(n, dtype=np.int64)
    for at_block in _table_blocks(len(stack), n):
        part = stack[at_block]
        rows = part.reshape(-1, n)
        at = np.arange(len(rows))[:, None]
        counts = np.bincount((at * n + rows).ravel(), minlength=rows.size)
        # every cell is written: once by its unique w, else with -1
        block = np.empty(rows.shape, inv.dtype)
        block[at, rows] = cols
        block[counts.reshape(rows.shape) != 1] = -1
        body[at_block] = block.reshape(part.shape)
    return _read_only(inv)


def _solve_rows(t: np.ndarray, target: np.ndarray) -> np.ndarray:
    """out[..., x] = the unique w with t[..., x, w] = target[..., x], or -1,
    for one n x n table or a stack of them; padded to n + 1 on the last
    axis.  A 1-D target serves every table of a stack, and a -1 target
    matches no cell.  Scans the same rows of every table at once, in blocks
    of at most BLOCK cells, or of one row of each table if that is more: a
    stack of stacked_op_tables is one block, a larger table is split by rows."""
    n = t.shape[-1]
    out = np.empty((*t.shape[:-2], n + 1), t.dtype)
    out[..., n] = -1
    goal = target[..., :n, None]
    step = max(1, BLOCK * n // t.size)
    for start in range(0, n, step):
        rows = slice(start, min(n, start + step))
        hit = t[..., rows, :] == goal[..., rows, :]
        w = hit.argmax(axis=-1)
        w[np.add.reduce(hit, -1) != 1] = -1
        out[..., rows] = w
    return _read_only(out)


def _cayley(n: int, a, b, c) -> np.ndarray:
    """The padded Cayley table of (n, a, b, c) for int coefficients, or the
    stack of them for (m, 1) arrays of coefficients, in blocks of at most
    BLOCK cells (see _table_blocks).  Each cell is the sum s of a row
    term (a + b*x) % n and a column term (c*y) % n; both are below n, so
    s < 2n fits the table's dtype.  A block sums them in an unsigned array
    of that width and reduces s with no division: there s - n wraps past s
    when s < n, so min(s, s - n) is s mod n.  The block is then copied into
    the padded array, which ran faster on a stack's small tables than
    summing into their short padded rows."""
    mul = _padded(n, *np.shape(a)[:-1])
    stack = mul.reshape(-1, n + 1, n + 1).view(f"u{mul.itemsize}")
    i = np.arange(n, dtype=np.int64)
    rows = ((a + b * i) % n).astype(stack.dtype).reshape(-1, n, 1)
    cols = ((c * i) % n).astype(stack.dtype).reshape(-1, 1, n)
    for members, part in _table_blocks(len(stack), n):
        s = rows[members, part] + cols[members]
        stack[members, part, :n] = np.minimum(s, s - n, out=s)
    return mul


@lru_cache(maxsize=4096)
def op_tables(triple: tuple[int, int, int, int]) -> OpTables:
    """Lookup tables for the groupoid (n, a, b, c); the Cayley table is
    written straight into mul, the others are scanned from it.  Single
    checks read these through the cache; sweeps read stacked_op_tables."""
    return OpTables(_cayley(*LinearGroupoid(*triple).triple()))


def stacked_op_tables(groupoids: list[LinearGroupoid]):
    """Each groupoid's tables, in order, as StackMembers of stacks of at most
    BLOCK // 8 mul cells (one groupoid a stack past that).  The groupoids
    share one modulus; each kind is scanned for a whole stack on first use.

    A division's scan holds its table and three temporaries of the stack's
    size, where a local element's holds a few rows: at BLOCK cells, on
    int64 tables (2 MiB each), a sweep that reads a division peaked about
    7 MiB higher than one that does not.  At BLOCK // 8 cells that gap is
    under 1 MiB, and every kind's scan of a stack stays one block."""
    if not groupoids:
        return
    n = groupoids[0].n
    if any(g.n != n for g in groupoids):
        raise ModulusMismatchError("the stacked groupoids' moduli differ")
    size = max(1, BLOCK // 8 // (n + 1) ** 2)
    for first in range(0, len(groupoids), size):
        chunk = groupoids[first:first + size]
        a, b, c = np.array([(g.a, g.b, g.c) for g in chunk], dtype=np.int64).T[..., None]
        stack = OpTables(_cayley(n, a, b, c))
        for index in range(len(chunk)):
            yield StackMember(stack, index)
