"""The groupoid (Z_n, *) with x*y = a + b*x + c*y mod n.

Cayley tables, quasigroup/Latin-square tests, local identities and local
inverses, left/right division, and orthogonality of pairs of tables.

The exhaustive checker reads operation tables scanned from the Cayley
table: the divisions by inverting its rows (_invert_rows), the local
elements by solving one target per row (_solve_rows) or per column
(_solve_columns).  Every OpTables is a stack of groupoids of one modulus
along a leading member axis, and every check reads a (stack, index)
StackMember of one.  A single check reads (op_tables(triple), 0), a cached
stack of one, while its tables have at most 2**18 (n+1)**2 cells; past
that, where _table_blocks builds a table in row blocks, it reads an
uncached stack of one from stacked_op_tables (see engine.CACHED_N).
So op_tables holds at most 4096 groupoids of at most 2**18 cells per table
kind.  A cross-check sweep reads the members of stacked_op_tables, built
from residue arrays in one numpy pass per kind.  All build mul by one
_cayley call, as cayley_table does for its caller.  Every table is stored in
the smallest signed type that holds -2n (see _padded).  Every check
evaluates its identity over a stack's contiguous tables read flat, where
each table's -1 padding keeps an undefined value undefined (see
engine._eval_stack).  Every scan (engine._scan) goes slab first: every
member over the slab where the leading variable is 0, then only the
members it left undecided over the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .modring import is_unit, solve_linear

# Cells per numpy block of the table scans (_invert_rows, _solve_rows,
# _solve_columns, _cayley), whose arrays (2 MiB each at int64) stay in
# cache: faster than 2**20-cell blocks, and than BLOCK // 8 (e_lam at
# n = 3162: 4-6 ms, against 9-80 ms and 6.3 ms).
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


def affine_class(n: int, a, b, c):
    """The flat index (a0*n + b)*n + c of the first triple, in lexicographic
    order, of the isomorphism class of the triple (n, a, b, c), reduced, or
    elementwise on arrays of residues (as HypAtom.holds), where
    a0 = gcd(a, d) mod d and d = gcd(b+c-1, n).

    For a unit u mod n and any t, x -> u*x + t maps (n, a, b, c) onto
    (n, u*a - (b+c-1)*t, b, c): u*(a + b*x + c*y) + t = (u*a - (b+c-1)*t)
    + b*(u*x + t) + c*(u*y + t).  A bijection that carries the operation
    carries every division, local element and undefined cell with it, so an
    identity gets one verdict, not_applicable included, on both.  The
    shifts reach every multiple of d, and the units mod n every unit mod d,
    so the images of a are exactly the a' with gcd(a', d) = gcd(a, d), and
    the least of them is that gcd, or 0 where it is d."""
    d = np.gcd(b + c - 1, n)
    return (np.gcd(a, d) % d * n + b) * n + c


def is_quasigroup(g: LinearGroupoid) -> bool:
    """True iff both b and c are coprime with n."""
    return is_unit(g.b, g.n) and is_unit(g.c, g.n)


def cayley_table(g: LinearGroupoid) -> np.ndarray:
    """Read-only n x n array with entry [x, y] = x*y, in the tables' compact
    dtype (int8 up to n = 64); widen it before arithmetic that can pass it.
    Built for the caller by the _cayley call op_tables makes, and cached
    nowhere: only the exhaustive checker decides what op_tables keeps."""
    return _read_only(_cayley(g.n, [g.a], [g.b], [g.c])[0, :g.n, :g.n])


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
    """Operation tables for a stack of groupoids of one modulus, one member
    per groupoid along a leading axis (one groupoid's tables are a stack of
    one); -1 marks an undefined entry.  Each table axis behind the member
    axis has one more slot, at index n, holding -1, so index -1 reads -1.

    Only mul is given; the others are scanned from it on first access, for
    the whole stack at once, so a check builds just the tables its identity
    uses.  The divisions invert whole rows of mul; each local element solves
    one target per row of mul (e_rho and rho) or per column (e_lam and lam,
    in one pass over its row blocks), so e_rho and rho build no ldiv, nor
    e_lam and lam an rdiv.  All are read-only and share mul's dtype.

    flags is the exhaustive checker's memo (engine.holds_bruteforce): each
    identity checked maps to a tuple of each member's pair, the indices of
    its first undefined and first failing assignment, or -1.  It dies with
    the tables (op_tables' LRU, a sweep's stack, or the one check of a
    groupoid too large for the LRU).
    """

    def __init__(self, mul: np.ndarray) -> None:
        mul.setflags(write=False)
        self.n = mul.shape[-1] - 1
        self.mul = mul  # mul[t, x, y] = x*y in member t
        self.flags: dict = {}

    @cached_property
    def ldiv(self) -> np.ndarray:
        """ldiv[t, x, z] = unique w with x*w = z, else -1."""
        return _invert_rows(self.mul[:, :-1, :-1])

    @cached_property
    def rdiv(self) -> np.ndarray:
        """rdiv[t, x, z] = unique w with w*x = z, else -1."""
        return _invert_rows(self.mul[:, :-1, :-1].swapaxes(1, 2))

    @cached_property
    def e_rho(self) -> np.ndarray:
        """e_rho[t, x] = unique e with x*e = x, else -1."""
        return _solve_rows(self.mul[:, :-1, :-1], self._own())

    @cached_property
    def e_lam(self) -> np.ndarray:
        """e_lam[t, x] = unique e with e*x = x, else -1."""
        return _solve_columns(self.mul[:, :-1, :-1], self._own())

    @cached_property
    def rho(self) -> np.ndarray:
        """rho[t, x] = unique s with x*s = e_rho(x), else -1."""
        return _solve_rows(self.mul[:, :-1, :-1], self.e_rho)

    @cached_property
    def lam(self) -> np.ndarray:
        """lam[t, x] = unique s with s*x = e_lam(x), else -1."""
        return _solve_columns(self.mul[:, :-1, :-1], self.e_lam)

    def _own(self) -> np.ndarray:
        """own[t, x] = x for every member, in mul's dtype so that a scan
        compares without a cast."""
        return np.arange(self.n, dtype=self.mul.dtype)[None].repeat(len(self.mul), 0)


class StackMember(NamedTuple):
    """Groupoid `index` of a stacked OpTables, the handle of every check: a
    single check reads (op_tables(triple), 0).  The oracle reads its
    verdict from one scan of the whole stack, memoized in the stack's
    flags, and its tables as getattr(stack, kind)[index]."""

    stack: OpTables
    index: int


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _padded(members: int, n: int) -> np.ndarray:
    """A stack of `members` (n+1) x (n+1) tables of -1, in the smallest
    signed type holding -2n, and so the sums below 2n written while
    building mul, so that it stays in cache (int8 up to n = 64, int16 up to
    n = 16384).  Lookups index with intp offsets (see engine._eval_stack)."""
    return np.full((members, n + 1, n + 1), -1, dtype=np.min_scalar_type(-2 * n))


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
    """inv[i, x, v] = the unique w with t[i, x, w] = v, or -1, for a stack
    of n x n tables; padded to n + 1 on the last two axes.  Inverts blocks
    of at most BLOCK cells at a time (see _table_blocks)."""
    n = t.shape[-1]
    inv = _padded(len(t), n)
    body = inv[:, :n, :n]  # a view: a cached table holds no second array object
    cols = np.arange(n, dtype=np.int64)
    for at_block in _table_blocks(len(t), n):
        part = t[at_block]
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
    """out[i, x] = the unique w with t[i, x, w] = target[i, x], or -1, for a
    stack of n x n tables; padded to n + 1 on the last axis.  A -1 target
    matches no cell.  Scans blocks of at most BLOCK cells (see
    _table_blocks): a stack of stacked_op_tables is one block, a larger
    table is split by rows."""
    n = t.shape[-1]
    out = np.empty((len(t), n + 1), t.dtype)
    out[:, n] = -1
    goal = target[:, :n, None]
    for at_block in _table_blocks(len(t), n):
        hit = t[at_block] == goal[at_block]
        w = hit.argmax(axis=-1)
        w[np.add.reduce(hit, -1) != 1] = -1
        out[at_block] = w
    return _read_only(out)


def _solve_columns(t: np.ndarray, target: np.ndarray) -> np.ndarray:
    """out[i, y] = the unique w with t[i, w, y] = target[i, y], or -1, for a
    stack of n x n tables; padded to n + 1 on the last axis.  A -1 target
    matches no cell.  One pass over blocks of at most BLOCK cells (see
    _table_blocks), each read as it lies, not strided down the columns: a
    matmul of each block's hits with (1, w) row weights adds up, per
    column, its count of hits and the sum of their rows w, which is the
    row where the count is 1.  The count, and the sum where the count is
    1, are integers below n < 2**24, so float32 holds them exactly.  At
    n = 3161 this built e_lam in 3.3 ms, against 14-35 ms for _solve_rows
    on the transpose, and a sweep stack at n <= 12 in half _solve_rows'
    time."""
    n = t.shape[-1]
    sums = np.zeros((len(t), 2, n), np.float32)
    goal = target[:, None, :n]
    for members, rows in _table_blocks(len(t), n):
        weights = np.ones((2, rows.stop - rows.start), np.float32)
        weights[1] = np.arange(rows.start, rows.stop)
        sums[members] += weights @ (t[members, rows] == goal[members]).astype(np.float32)
    out = np.full((len(t), n + 1), -1, t.dtype)
    np.copyto(out[:, :n], sums[:, 1], where=sums[:, 0] == 1, casting="unsafe")
    return _read_only(out)


def _cayley(n: int, a, b, c) -> np.ndarray:
    """The stack of padded Cayley tables of (n, a, b, c) for equal-length
    arrays of coefficients, in blocks of at most BLOCK cells (see
    _table_blocks).  Each cell is the sum s of a row term (a + b*x) % n and
    a column term (c*y) % n; both are below n, so s < 2n fits the table's
    dtype.  A block sums them in an unsigned array of that width and
    reduces s with no division: there s - n wraps past s when s < n, so
    min(s, s - n) is s mod n.  The block is then copied into the padded
    array, which ran faster on a stack's small tables than summing into
    their short padded rows."""
    mul = _padded(len(a), n)
    stack = mul.view(f"u{mul.itemsize}")
    a, b, c = np.array((a, b, c), np.int64).reshape(3, -1, 1, 1)
    i = np.arange(n, dtype=np.int64)
    rows = ((a + b * i[:, None]) % n).astype(stack.dtype)
    cols = ((c * i) % n).astype(stack.dtype)
    for members, part in _table_blocks(len(stack), n):
        s = rows[members, part] + cols[members]
        stack[members, part, :n] = np.minimum(s, s - n, out=s)
    return mul


@lru_cache(maxsize=4096)
def op_tables(triple: tuple[int, int, int, int]) -> OpTables:
    """Lookup tables for the groupoid (n, a, b, c), a stack of one: the
    Cayley table is written straight into mul, the others are scanned from
    it.  Single checks of at most 2**18 (n+1)**2 cells (engine.CACHED_N)
    read these through the cache, so it holds at most 4096 groupoids of at
    most 2**18 cells per table kind (512 KiB in int16, 2 GiB for 4096 muls);
    larger checks and sweeps read stacked_op_tables."""
    n, a, b, c = LinearGroupoid(*triple).triple()
    return OpTables(_cayley(n, [a], [b], [c]))


def stacked_op_tables(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The tables of the groupoids (n, a[i], b[i], c[i]), from arrays of
    residues, in order, as StackMembers of stacks of at most BLOCK // 8 mul
    cells (one groupoid a stack past that, as a single check past the
    cached size reads).  Each kind is scanned for a whole stack on first
    use.

    A division's scan holds its table and three temporaries of the stack's
    size, where a local element's holds a few rows: at BLOCK cells, on
    int64 tables (2 MiB each), a sweep that reads a division peaked about
    7 MiB higher than one that does not.  At BLOCK // 8 cells that gap is
    under 1 MiB, and every kind's scan of a stack stays one block."""
    size = max(1, BLOCK // 8 // (n + 1) ** 2)
    for first in range(0, len(a), size):
        part = slice(first, first + size)
        stack = OpTables(_cayley(n, a[part], b[part], c[part]))
        for index in range(len(stack.mul)):
            yield StackMember(stack, index)
