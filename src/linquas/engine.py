"""Verdict machinery: exhaustive and symbolic identity checks, condition
cross-checks over coefficient space, classification, witness search, and the
known-discrepancy ledger for the catalog's cited examples.

The exhaustive checker works purely from scanned operation tables, the
symbolic checker from each law's residual system (Identity.residual: lhs -
rhs over Z[a, b, c, 1/b, 1/c], derived once per law); the two paths share
no algebra, which is what makes their agreement a meaningful cross-check.
Residuals are evaluated mod n by one evaluator, termlang.evaluate_compiled,
from rows compiled over a basis of distinct monomials: holds_symbolic reads
a law's own rows (Identity.compiled), and classify walks every catalog law
in one pass over rows that share one basis, built on its first call.

The exhaustive checker reads every check as a member of a stack of
tables, a (stack, index) StackMember, flat, from one evaluator
(_eval_stack), and sizes its work by one rule, a chunk of BLOCK // 8
assignments: a stack of one groupoid whose n**k assignments fit one chunk
is one block, and every other stack is one chunked scan (_scan).  The
scan evaluates the slab where the leading variable is 0 first, for every
member, and the rest only for the members that slab left undecided; it
asks per member whether the tables it reads are total (_total), and drops
each member once a block decides it.  A single check reads (op_tables(g),
0), a stack of one through the groupoid.op_tables LRU cache, while its
tables have at most 2**18 (n+1)**2 cells (n <= CACHED_N = 511); a larger
one reads an uncached stack of one from stacked_op_tables, which dies
with the check.  So the cache holds at most 4096 groupoids of at most
2**18 cells per table kind, where a check near the cap builds a 20 MB
int16 mul.

A cross-check sweep runs in this process.  Each (law, n) task admits its
triples with one mask per row (catalog.row_sweep_mask) and reads their
verdicts through one loop over the prime-power factors q of n
(_verdicts): Z_n is the product of the rings Z_q, so the groupoid is the
direct product of its reductions mod each q, and its verdict is the worst
of theirs.  Mod q each admitted triple is reduced to its isomorphism
class (groupoid.affine_class), and each class is checked once per law and
q, at its first triple, when an admitted triple first needs it: the
stacks are built from residue arrays (groupoid.stacked_op_tables), and
each class makes one oracle call, which reads its result from its stack's
scan.  Rows are tallied from the verdicts as arrays.

A witness search admits each triple from its residues (TableRow.admits)
and builds a LinearGroupoid only for an admitted one, for its oracle call.

Every evaluation is memoized on the stack it read (OpTables.flags), so a
repeated check on cached tables, as witness searches make, evaluates
nothing; a repeated check past CACHED_N scans again.  A fails
outcome's counterexample dict is built on first read (CheckOutcome), so
the sweep and witness searches, which read only verdicts, build none; an
NA reason is built with its outcome.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import catalog as cat
from . import termlang as tl
from .catalog import (ExampleStatus, IdentityEntry, ModulusKind, StructureKind,
                      TableRow, catalog_entries, get_entry, row_sweep_mask)
from .catalog import row_sweep_admits  # noqa: F401  (perfbench/tracer.py wraps it here)
from .groupoid import (BLOCK, LinearGroupoid, affine_class, is_quasigroup, op_tables,
                       stacked_op_tables)
from .modring import is_prime
from .termlang import Binary, Identity, NotApplicable, Var

DEFAULT_CAP = 10**7

# The largest n whose single check reads its tables through the op_tables
# LRU: (n+1)**2 <= BLOCK = 2**18 cells, fixed at import (tests shrink
# BLOCK).  Past it groupoid._table_blocks builds a table in row blocks, and
# the check builds its tables for itself alone (see holds_bruteforce).
CACHED_N = math.isqrt(BLOCK) - 1


class CapExceeded(RuntimeError):
    """An exhaustive check would exceed the evaluation cap."""


def _check_cap(n: int, k: int, cap: int) -> None:
    """Raise CapExceeded past the cap: n**k assignments or n x n table cells."""
    if n ** k > cap:
        raise CapExceeded(f"{n}**{k} assignments exceed the cap of {cap}")
    if n ** 2 > cap:  # a one-variable identity still scans n x n tables
        raise CapExceeded(f"{n}**2 table cells exceed the cap of {cap}")


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not_applicable"


class Method(enum.Enum):
    BRUTE_FORCE = "brute_force"
    SYMBOLIC = "symbolic"


class CheckOutcome:
    """A check's verdict, the method that made it, and its cause: the first
    counterexample of a fails, or the reason a not_applicable check is
    undefined.

    A fails outcome of holds_bruteforce holds its counterexample pending,
    as (identity, n, assignment index), and builds the dict on first read,
    once, with _assignment: a sweep and a witness search read only the
    verdict.  The four attributes are read-only, and an outcome compares,
    hashes and prints by them, its counterexample built first, as a frozen
    dataclass of them would: hash() raises TypeError on a counterexample
    dict."""

    __slots__ = ("_verdict", "_method", "_counterexample", "_na_reason", "_cause")

    def __init__(self, verdict: Verdict, method: Method,
                 counterexample: dict[str, int] | None = None, na_reason: str | None = None):
        self._verdict, self._method = verdict, method
        self._counterexample, self._na_reason, self._cause = counterexample, na_reason, None

    @classmethod
    def _fails_at(cls, ident: Identity, n: int, index: int) -> CheckOutcome:
        """A brute-force fails outcome whose counterexample is the
        identity's index-th assignment on Z_n (see _assignment)."""
        outcome = cls(Verdict.FAILS, Method.BRUTE_FORCE)
        outcome._cause = (ident, n, index)
        return outcome

    def _fields(self) -> tuple:
        """(verdict, method, counterexample, na_reason), a pending
        counterexample built first."""
        if self._cause is not None:
            self._counterexample, self._cause = _assignment(*self._cause), None
        return self._verdict, self._method, self._counterexample, self._na_reason

    verdict = property(attrgetter("_verdict"))
    method = property(attrgetter("_method"))
    counterexample = property(lambda self: self._fields()[2])
    na_reason = property(attrgetter("_na_reason"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("CheckOutcome(verdict={!r}, method={!r}, counterexample={!r}, "
                "na_reason={!r})".format(*self._fields()))

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict.value, "method": self.method.value}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.na_reason is not None:
            out["na_reason"] = self.na_reason
        return out


# --- exhaustive checking ----------------------------------------------------


@lru_cache(maxsize=64)  # (n, k) pairs; every call passes BLOCK // 8 cells
def _blocks(n: int, k: int, cells: int) -> tuple[tuple[int, tuple[np.ndarray, ...]], ...]:
    """The n**k assignments in lexicographic blocks of at most `cells` (at
    least one leading value each): (start, grid) pairs, where start is the
    block's first leading value and grid[i] is an open grid of variable i's
    values, shaped along axis i + 1 behind a member axis of length 1, so
    that table lookups broadcast to the block.  The blocks share one grid,
    each a slice of its leading variable's: a check of hundreds of blocks
    holds one arange(n) per variable, not one per block."""
    step = max(1, cells // n ** (k - 1))
    lead, *rest = np.ix_(*[np.arange(n)] * (k + 1))[1:]
    for values in (lead, *rest):
        values.setflags(write=False)
    return tuple((start, (lead[:, start:start + step], *rest)) for start in range(0, n, step))


# The OpTables attribute each operation reads.
_TABLE = {"*": "mul", "\\": "ldiv", "/": "rdiv", "rho": "rho", "lam": "lam",
          "er": "e_rho", "el": "e_lam"}


def _total(ident: Identity, tables) -> np.ndarray:
    """For each member of a stack of tables, whether no table the identity
    reads has -1 in that member's body, so that every value stays in 0..n-1
    and no assignment of that member can be undefined: one bool per member.
    The body is the trailing [:n, :n] of a binary operation's table and the
    trailing [:n] of a unary one's.  Once a chunk is evaluated those tables
    are built, so this builds none; it reads cells, not coefficients, so it
    holds for any OpTables, not only linear ones."""
    axes, terms = {}, [ident.lhs, ident.rhs]
    while terms:
        term = terms.pop()
        if isinstance(term, Binary):
            axes[term.op] = (-2, -1)
            terms.extend((term.left, term.right))
        elif not isinstance(term, Var):
            axes[term.op] = (-1,)
            terms.append(term.child)
    total = np.ones(len(tables.mul), bool)
    for op, axis in axes.items():
        cells = getattr(tables, _TABLE[op])[(..., *[slice(tables.n)] * len(axis))]
        total &= cells.min(axis=axis) >= 0
    return total


def _assignment(ident: Identity, n: int, index: int) -> dict[str, int]:
    """The index-th assignment of values to the identity's variables, in
    lexicographic order."""
    values = []
    for _ in ident.variables:
        index, value = divmod(index, n)
        values.append(value)
    return dict(zip(ident.variables, reversed(values)))


def _first(mask: np.ndarray) -> int:
    """The index of the first flagged assignment of a one-block check, or -1."""
    index = int(mask.argmax())
    return index if mask.flat[index] else -1


def _eval_stack(term: tl.Term, env: dict[str, np.ndarray], stack, rows: np.ndarray) -> np.ndarray:
    """Evaluate over all assignments of a block at once, for a chunk of a
    stack's groupoids along a leading member axis; -1 marks an undefined
    value.  rows holds each member's first row, (n+1) * index, as an intp
    array of the block's rank (a stack of one reads an array of zeros): a
    table holds the compact dtype of _padded, so x * (n+1) overflows it,
    and a Python int offset would leave the sum in that dtype, as NumPy 2
    keeps an array's dtype against a Python int.  Each table is read flat,
    by row (rows + x) and column, so an index of -1 still reads -1: it
    lands on a padding cell of the same member, of the one before it, or,
    for member 0, of the last one."""
    if isinstance(term, Var):
        return env[term.name]
    flat = getattr(stack, _TABLE[term.op]).reshape(-1)
    if isinstance(term, Binary):
        left = _eval_stack(term.left, env, stack, rows)
        right = _eval_stack(term.right, env, stack, rows)
        if term.op == "/":  # z / x solves w*x = z: divisor indexes first
            left, right = right, left
        return flat[(rows + left) * (stack.n + 1) + right]
    return flat[rows + _eval_stack(term.child, env, stack, rows)]


def _firsts(mask: np.ndarray, shape: tuple[int, ...], offset: int) -> np.ndarray:
    """Each member's first flagged assignment of a chunk shaped (members,
    *block), as an index into its n**k assignments, of which the block's
    first is offset, or -1.  A law whose sides are both variables has no
    member axis, hence the broadcast."""
    flags = np.broadcast_to(mask, shape).reshape(shape[0], -1)
    return np.where(flags.any(axis=1), flags.argmax(axis=1) + offset, -1)


def _scan(ident: Identity, stack) -> tuple[tuple[int, int], ...]:
    """For each member of a stack of tables, the indices of its first
    undefined and of its first failing assignment (lexicographic), or -1,
    as a tuple of pairs.  The identity is evaluated block by block (see
    _blocks), in lexicographic order, over the members still undecided,
    packed into chunks of at most BLOCK // 8 assignments, the size of the
    stacks' own tables (chunks of BLOCK cells ran slower and raised the
    crosscheck benchmark's peak memory by about 9 MB).

    The slab, where the leading variable is 0, comes first: a first block
    of several leading values is split into the slab and the rest.  The
    slab is a lexicographic prefix, so an undefined assignment or a
    counterexample in it is its member's first; most members of a sweep
    are decided there, and only the rest are evaluated past it.

    After the first chunk has built the tables, the scan asks once which
    members read only tables with no -1 in their bodies (see _total).  On
    such a member no assignment can be undefined, so its undefined flags
    are not read, and it is decided `fails` by the block holding its first
    counterexample.  Any other member reads both flags, and is decided by
    its first undefined assignment, since a later block could still hold
    one; it keeps its first counterexample.  A decided member drops out of
    the later blocks.  The result is memoized in the stack's flags (see
    holds_bruteforce)."""
    n, k, members = stack.n, len(ident.variables), len(stack.mul)
    blocks = _blocks(n, k, BLOCK // 8)
    (_, (lead, *rest)), *later = blocks
    if lead.shape[1] > 1:  # the slab first
        blocks = ((0, (lead[:, :1], *rest)), (1, (lead[:, 1:], *rest)), *later)
    undefined, failing = np.full(members, -1), np.full(members, -1)
    live, total = np.arange(members), None
    for start, grid in blocks:
        env = dict(zip(ident.variables, grid))
        block = tuple(values.shape[axis] for axis, values in enumerate(grid, 1))
        step = max(1, BLOCK // 8 // math.prod(block))
        offset = start * n ** (k - 1)
        for first in range(0, len(live), step):
            at = live[first:first + step]
            rows = at.reshape(-1, *[1] * k) * (n + 1)
            lhs = _eval_stack(ident.lhs, env, stack, rows)
            rhs = _eval_stack(ident.rhs, env, stack, rows)
            if total is None:  # the tables read are built now
                total = _total(ident, stack)
            shape = (len(at), *block)
            if total[at].all():  # a live member on total tables has no counterexample yet
                failing[at] = _firsts(lhs != rhs, shape, offset)
            else:  # a member of several blocks keeps its first counterexample
                undefined[at] = _firsts((lhs < 0) | (rhs < 0), shape, offset)
                earlier = failing[at]
                failing[at] = np.where(earlier < 0, _firsts(lhs != rhs, shape, offset), earlier)
        live = live[np.where(total[live], failing[live], undefined[live]) < 0]
        if not live.size:
            break
    return tuple(zip(undefined.tolist(), failing.tolist()))


def holds_bruteforce(g: LinearGroupoid, ident: Identity,
                     cap: int = DEFAULT_CAP, tables=None) -> CheckOutcome:
    """Check the identity over every assignment of values to its variables.

    Fails carries the lexicographically first counterexample.  If any
    assignment makes either side undefined the whole check is NotApplicable:
    skipping such tuples would silently weaken the universal quantifier.

    The tables are a (stack, index) StackMember, read flat (see
    _eval_stack).  Unless given they are g's own: (op_tables(g), 0),
    through the LRU cache, while they have at most 2**18 (n+1)**2 cells
    (n <= CACHED_N), and past that a stack of one from stacked_op_tables,
    built for this call and freed when it returns.  So the cache holds at
    most 4096 groupoids of at most 2**18 cells per table kind, and a check
    near the cap leaves none of its tables (a 20 MB int16 mul at n = 3162)
    behind.

    A stack of one whose n**k assignments fit one chunk (BLOCK // 8) is one
    block (even a lean chunked scan cost about 18 us more per check).
    Every other stack is scanned (see _scan), slab first, so memory grows
    with max(BLOCK // 8, n**(k-1)) assignments per member, not with n**k,
    beside the (n+1)**2-cell operation tables the identity reads; the cap
    bounds both.  A sweep calls once per isomorphism class that its admitted
    triples need at each prime-power factor of n (see _verdicts), passing
    the class's first groupoid's member of a larger stack: the first call
    of a stack scans the whole stack, deciding most members on the slab
    where the leading variable is 0, and each call reads its member's
    result.

    Each evaluation is memoized in the stack's flags as indices, one pair
    per member, so a repeated check on the same stack, a cached one
    included, evaluates nothing; a repeated check past CACHED_N scans
    again.  Each call, after the cap, returns an outcome of its own.  A
    not_applicable outcome's reason is built on every call; a fails
    outcome holds its deciding index, and its counterexample dict, the
    caller's own, is built on first read (see CheckOutcome).
    """
    n, k = g.n, len(ident.variables)
    _check_cap(n, k, cap)
    if tables is not None:
        stack, index = tables
    elif n <= CACHED_N:
        stack, index = op_tables(g.triple()), 0
    else:
        stack, index = next(stacked_op_tables(n, [g.a], [g.b], [g.c]))
    flags = stack.flags.get(ident)
    if flags is None:
        if len(stack.mul) == 1 and n ** k <= BLOCK // 8:
            env = dict(zip(ident.variables, _blocks(n, k, BLOCK // 8)[0][1]))
            rows = np.zeros((1,) * (k + 1), np.intp)  # shaped as _scan's rows
            lhs = _eval_stack(ident.lhs, env, stack, rows)
            rhs = _eval_stack(ident.rhs, env, stack, rows)
            flags = ((_first((lhs < 0) | (rhs < 0)), _first(lhs != rhs)),)
        else:
            flags = _scan(ident, stack)
        stack.flags[ident] = flags
    undefined, failing = flags[index]
    if undefined >= 0:
        return CheckOutcome(Verdict.NOT_APPLICABLE, Method.BRUTE_FORCE,
                            na_reason=_na_reason(ident, _assignment(ident, n, undefined), g))
    if failing >= 0:
        return CheckOutcome._fails_at(ident, n, failing)
    return CheckOutcome(Verdict.HOLDS, Method.BRUTE_FORCE)


def _na_reason(ident: Identity, env: dict[str, int], g: LinearGroupoid) -> str:
    for side in (ident.lhs, ident.rhs):
        value = tl.evaluate(side, env, g)
        if isinstance(value, NotApplicable):
            return value.reason
    return "undefined subterm"


# The two symbolic outcomes that carry nothing but their verdict.
_HOLDS = CheckOutcome(Verdict.HOLDS, Method.SYMBOLIC)
_FAILS = CheckOutcome(Verdict.FAILS, Method.SYMBOLIC)


def holds_symbolic(g: LinearGroupoid, ident: Identity) -> CheckOutcome:
    """Evaluate the identity's residual (see Identity.residual) mod n, from
    its compiled rows (Identity.compiled).  Exact: an affine form vanishes on
    all of Z_n^k iff its constant and every coefficient are 0 mod n (set all
    variables to 0, then one to 1 at a time)."""
    (residue,) = tl.evaluate_compiled(ident.compiled, g)
    if isinstance(residue, NotApplicable):
        return CheckOutcome(Verdict.NOT_APPLICABLE, Method.SYMBOLIC, na_reason=residue.reason)
    return _FAILS if residue else _HOLDS


# --- classification -----------------------------------------------------------


@lru_cache(maxsize=1)
def _catalog_laws() -> tuple[tuple[tuple[str, Identity], ...], tl.Compiled]:
    """The catalog's (id, identity) laws in id order, and their residuals
    compiled over one shared basis; built on the first classify."""
    laws = tuple((entry.id, entry.identity) for entry in sorted(catalog_entries(), key=lambda e: e.id)
                 if entry.identity is not None)
    return laws, tl.compile_expansions(ident.residual for _, ident in laws)


def classify(g: LinearGroupoid, cap: int = DEFAULT_CAP) -> list[tuple[str, CheckOutcome]]:
    """Verdict for every catalog entry with a defined identity, ordered by id.

    One pass over the catalog's compiled residuals (tl.evaluate_compiled)
    decides every law as holds_symbolic would: b and c are tested for units
    once, and each monomial of the laws' shared basis is evaluated once.  A
    not_applicable verdict is reported as the exhaustive checker's, without
    its n**k scan: every derived table of a linear groupoid is total or
    undefined throughout, so the first undefined assignment is the all-zero
    one.  Nothing scans, so cap is unused; the signature keeps it because
    perfbench/onepass.py still passes it.
    """
    laws, compiled = _catalog_laws()
    results = []
    for (entry_id, ident), residue in zip(laws, tl.evaluate_compiled(compiled, g)):
        if isinstance(residue, NotApplicable):
            zeros = dict.fromkeys(ident.variables, 0)
            outcome = CheckOutcome(Verdict.NOT_APPLICABLE, Method.BRUTE_FORCE,
                                   na_reason=_na_reason(ident, zeros, g))
        else:
            outcome = _FAILS if residue else _HOLDS
        results.append((entry_id, outcome))
    return results


# --- condition cross-checks ----------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    n: int
    a: int
    b: int
    c: int
    condition_verdict: bool
    oracle_verdict: str

    def to_list(self) -> list:
        return [self.n, self.a, self.b, self.c,
                self.condition_verdict, self.oracle_verdict]


@dataclass
class CrosscheckReport:
    entry_id: str
    table_number: int
    variant: int
    row_label: str
    n_values: list[int]
    checked: int = 0
    na_excluded: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "entry": self.entry_id,
            "table": self.table_number,
            "variant": self.variant,
            "row": self.row_label,
            "n_values": self.n_values,
            "checked": self.checked,
            "na_excluded": self.na_excluded,
            "mismatch_count": len(self.mismatches),
            "mismatches": [m.to_list() for m in self.mismatches],
        }


def _check_moduli(n_values: list[int]) -> None:
    """Raise ValueError if a modulus is below 2 (Z_1 has no prime-power factor
    to read a verdict from) or repeats (its triples would be swept twice)."""
    if min(n_values, default=2) < 2:
        raise ValueError(f"modulus must be >= 2, got {min(n_values)}")
    if len(set(n_values)) < len(n_values):
        repeated = sorted({n for n in n_values if n_values.count(n) > 1})
        raise ValueError(f"each modulus may be given once, repeated: {repeated}")


def _sweep_moduli(row: TableRow, n_values: list[int]) -> list[int]:
    if row.modulus_kind is ModulusKind.PRIME_P:
        return [n for n in n_values if is_prime(n)]
    return list(n_values)


# A product groupoid's verdict is its worst factor's, in this order.
_RANK = {Verdict.HOLDS: 1, Verdict.FAILS: 2, Verdict.NOT_APPLICABLE: 3}


def _verdicts(ident: Identity, n: int, admitted: np.ndarray, cap: int,
              ranks: dict) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's verdicts at the admitted flat indices of the n x n x n
    cube over (a, b, c), as bool arrays na and holds.

    Z_n is the product of the rings Z_q over the prime-power factors q of n,
    so the groupoid is the direct product of its reductions mod each q
    (divisions and local elements componentwise), and its verdict is their
    worst (see _RANK).  Mod q a triple takes its isomorphism class's
    verdict, kept in the law's memo ranks[q] at the slot of the class's
    first triple (groupoid.affine_class), 0 until checked.  The classes the
    admitted triples need and the memo lacks are checked at their first
    triples, in lexicographic order, BLOCK // 8 at a time (see
    holds_bruteforce), each groupoid made at its oracle call."""
    worst = np.zeros(len(admitted), np.int8)
    # q is the largest power of each prime p that divides n
    for q in (math.gcd(n, p**n) for p in range(2, n + 1) if n % p == 0 and is_prime(p)):
        firsts = affine_class(q, *np.ix_(*[np.arange(q)] * 3)).astype(np.min_scalar_type(q**3))
        keys = firsts[np.ix_(*[np.arange(n) % q] * 3)].ravel()[admitted]
        rank = ranks.setdefault(q, np.zeros(q**3, np.int8))
        todo = np.zeros(q**3, bool)
        todo[keys] = True
        todo = np.flatnonzero(todo & (rank == 0))
        for start in range(0, len(todo), BLOCK // 8):
            at = todo[start:start + BLOCK // 8]
            part = np.unravel_index(at, (q, q, q))
            triples = zip(*(axis.tolist() for axis in part))
            for slot, t, tables in zip(at.tolist(), triples, stacked_op_tables(q, *part)):
                rank[slot] = _RANK[holds_bruteforce(LinearGroupoid(q, *t), ident, cap,
                                                    tables=tables).verdict]
        np.maximum(worst, rank[keys], out=worst)
    return worst == _RANK[Verdict.NOT_APPLICABLE], worst == _RANK[Verdict.HOLDS]


def _crosscheck_task(ident: Identity, swept: list[tuple[TableRow, CrosscheckReport]], n: int,
                     cap: int, ranks: dict) -> None:
    """Tally the swept rows of one law at one modulus into their reports,
    from the oracle's verdicts on the triples any row admits (see
    _verdicts, which memoizes in ranks).

    Over the triples that any row admits (row_sweep_mask), each row's
    condition is evaluated once, and its int64 temporaries freed.  Each row
    adds its checked and NA counts at those triples, and its mismatches in
    lexicographic order.
    """
    masks = np.array([row_sweep_mask(row, n) for row, _ in swept])
    admitted = np.flatnonzero(masks.any(axis=0))
    a, b, c = np.unravel_index(admitted, (n, n, n))
    conds = [row.condition.holds(n, a, b, c) for row, _ in swept]
    del a, b, c
    na, holds = _verdicts(ident, n, admitted, cap, ranks)
    for (_, report), admit, cond in zip(swept, masks[:, admitted], conds):
        checked = admit & ~na
        wrong = checked & (cond != holds)
        a, b, c = (axis.tolist() for axis in np.unravel_index(admitted[wrong], (n, n, n)))
        report.checked += int(checked.sum())
        report.na_excluded += int((admit & na).sum())
        report.mismatches.extend(
            Mismatch(n, *t, not held, (Verdict.HOLDS if held else Verdict.FAILS).value)
            for *t, held in zip(a, b, c, holds[wrong].tolist()))


def crosscheck_rows(selected: list[tuple[IdentityEntry, list[TableRow]]],
                    n_values: list[int], cap: int, workers: int) -> list[CrosscheckReport]:
    """Reports for the selected rows of each entry, in selection order, from
    one task per (law, n), all in this process: the selected rows of one law
    share its verdicts at n (see _verdicts), and the class verdicts one
    law's tasks check, per prime-power factor, are kept for its later tasks
    and dropped after its last.  Every task is held to the cap before any runs, and a
    modulus below 2 or repeated is a ValueError, raised before any task is planned.
    workers is accepted, for the callers that pass it, and changes nothing."""
    _check_moduli(n_values)
    reports: list[CrosscheckReport] = []
    laws: list[tuple[Identity, list[tuple[int, list]]]] = []  # each law's (n, swept rows) tasks
    for entry, rows in selected:
        if entry.identity is None:
            raise ValueError(f"entry {entry.id!r} has no defining identity")
        law = [(row, CrosscheckReport(entry.id, row.table_number, row.variant, row.label(),
                                      _sweep_moduli(row, n_values))) for row in rows]
        reports.extend(report for _, report in law)
        tasks = []
        for n in n_values:
            swept = [(row, report) for row, report in law if n in report.n_values]
            if swept:
                _check_cap(n, len(entry.identity.variables), cap)
                tasks.append((n, swept))
        laws.append((entry.identity, tasks))
    for ident, tasks in laws:
        ranks: dict = {}
        for n, swept in tasks:
            _crosscheck_task(ident, swept, n, cap, ranks)
    return reports


def crosscheck(entry: IdentityEntry, row: TableRow, n_values: list[int],
               cap: int = DEFAULT_CAP, workers: int = 1) -> CrosscheckReport:
    """Compare the row's condition with the exhaustive oracle over the sweep."""
    return crosscheck_rows([(entry, [row])], n_values, cap, workers)[0]


def crosscheck_all(n_values: list[int], entry_ids: list[str] | None = None,
                   cap: int = DEFAULT_CAP, workers: int = 1) -> list[CrosscheckReport]:
    """Cross-check every row of the selected entries; deterministic order.

    The rows of one law share each triple's oracle verdict.
    """
    entries = ([get_entry(i) for i in entry_ids] if entry_ids is not None
               else list(catalog_entries()))
    return crosscheck_rows([(entry, entry.rows) for entry in entries
                            if entry.identity is not None], n_values, cap, workers)


# --- witness search -------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    n: int
    a: int
    b: int
    c: int
    entry_id: str
    row_label: str
    structure_kind: str
    confirmed_by: str = "brute_force"

    def to_dict(self) -> dict:
        return {"n": self.n, "a": self.a, "b": self.b, "c": self.c,
                "entry": self.entry_id, "row": self.row_label,
                "structure": self.structure_kind, "confirmed_by": self.confirmed_by}


def search_witnesses(entry: IdentityEntry, row: TableRow, n_values: list[int],
                     limit: int = 1, cap: int = DEFAULT_CAP) -> list[Witness]:
    """Smallest triples (lexicographic in (n, a, b, c)) satisfying the row's
    hypothesis and structure whose groupoid satisfies the identity outright.

    Each triple is admitted from its residues (TableRow.admits), and a
    groupoid is built only for an admitted one, for its oracle call.
    Witnesses are confirmed by the exhaustive oracle only, never by the
    condition column; an empty result is itself a finding.  A limit below 1,
    a modulus below 2 and a repeated modulus are ValueErrors, raised before
    anything is scanned.
    """
    if entry.identity is None:
        raise ValueError(f"entry {entry.id!r} has no defining identity")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    _check_moduli(n_values)
    found: list[Witness] = []
    for n in sorted(_sweep_moduli(row, n_values)):
        for a, b, c in itertools.product(range(n), repeat=3):
            if row.admits(n, a, b, c) and holds_bruteforce(
                    LinearGroupoid(n, a, b, c), entry.identity, cap).verdict is Verdict.HOLDS:
                found.append(Witness(n, a, b, c, entry.id, row.label(), row.structure_kind.value))
                if len(found) >= limit:
                    return found
    return found


# A row that admits every groupoid and claims that its law holds on each.
_UNIVERSAL = TableRow(0, 0, StructureKind.GROUPOID, ModulusKind.ANY_N, (),
                      cat.ConditionPredicate(), None, ExampleStatus.NOT_LISTED)


def universality_scan(entry_ids: list[str], n_values: list[int],
                      cap: int = DEFAULT_CAP, workers: int = 1) -> list[tuple]:
    """Triples (entry, n, a, b, c) on which a supposedly universal law fails
    outright: the mismatches of a cross-check against _UNIVERSAL.

    NotApplicable triples are not violations: the law is only claimed where
    its local elements exist.
    """
    reports = crosscheck_rows([(get_entry(i), [_UNIVERSAL]) for i in entry_ids],
                              n_values, cap, workers)
    return [(r.entry_id, m.n, m.a, m.b, m.c) for r in reports for m in r.mismatches]


# --- cited-example verification ---------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One disagreement between a cited example cell and the oracle."""

    source: str
    entry_id: str
    n: int
    a: int
    b: int
    c: int
    expected: str
    observed: str

    def to_dict(self) -> dict:
        return {"source": self.source, "entry": self.entry_id,
                "n": self.n, "a": self.a, "b": self.b, "c": self.c,
                "expected": self.expected, "observed": self.observed}


# Worked examples cited in the prose next to the proved characterizations,
# with the catalog row whose claim they instantiate (None: law check only).
CITED_EXAMPLES: tuple[tuple[str, str, StructureKind, tuple[int, int, int, int],
                            tuple[int, int] | None], ...] = (
    ("text:unipotent:groupoid", "unipotent", StructureKind.GROUPOID, (6, 0, 5, 1), (2, 0)),
    ("text:unipotent:quasigroup", "unipotent", StructureKind.QUASIGROUP, (6, 1, 5, 1), (2, 1)),
    ("text:stein_third:groupoid", "stein_third", StructureKind.GROUPOID, (5, 0, 2, 3), (14, 0)),
    ("text:stein_third:quasigroup", "stein_third", StructureKind.QUASIGROUP, (5, 0, 2, 3), (14, 1)),
    ("text:abel_grassman:groupoid", "abel_grassman", StructureKind.GROUPOID, (6, 2, 4, 2), (20, 0)),
    ("text:abel_grassman:quasigroup", "abel_grassman", StructureKind.QUASIGROUP, (5, 2, 4, 2), (20, 1)),
    ("text:external_medial:groupoid", "external_medial", StructureKind.GROUPOID, (6, 4, 2, 2), None),
    ("text:external_medial:quasigroup", "external_medial", StructureKind.QUASIGROUP, (9, 2, 8, 1), None),
    ("text:r_cip_1:groupoid", "r_cip_1", StructureKind.GROUPOID, (5, 2, 4, 4), (45, 2)),
    ("text:r_cip_1:quasigroup", "r_cip_1", StructureKind.QUASIGROUP, (5, 3, 4, 4), (45, 3)),
)


def table_source(entry: IdentityEntry, row: TableRow) -> str:
    """The ledger source of a table row's example cell."""
    return f"table:{row.table_number:02d}.{row.variant}:{entry.id}"


def check_example(source: str, entry: IdentityEntry, kind: StructureKind,
                 triple: tuple[int, int, int, int], row: TableRow | None,
                 outcome: CheckOutcome) -> Finding | None:
    """The finding for one example, given the oracle's outcome on it."""
    g = LinearGroupoid(*triple)
    problems: list[str] = []
    if kind is StructureKind.QUASIGROUP and not is_quasigroup(g):
        problems.append("claimed quasigroup is not one (b or c shares a factor with n)")
    if row is not None:
        failed = [atom.value for atom in row.hypothesis if not atom.holds(*g.triple())]
        if failed:
            problems.append(f"hypothesis fails: {', '.join(failed)}")
        if not row.condition.holds(*g.triple()):
            problems.append(f"stated condition fails: {row.condition.text}")
    if outcome.verdict is Verdict.FAILS:
        problems.append(f"identity fails, first counterexample {outcome.counterexample}")
    elif outcome.verdict is Verdict.NOT_APPLICABLE:
        problems.append(f"identity not applicable: {outcome.na_reason}")
    if not problems:
        return None
    return Finding(source, entry.id, *triple,
                   expected="example satisfies the cited claim",
                   observed="; ".join(problems))


def verify_examples(cap: int = DEFAULT_CAP) -> list[Finding]:
    """Check every concrete example cell and every cited worked example.

    Each cell must satisfy its row's hypothesis and condition, have the
    claimed structure, and satisfy the identity by exhaustive check.
    Disagreements are findings, not errors: the sorted findings are the
    regression-tested ledger.  Examples that share a law and a triple share
    one evaluation, through the oracle's memo (see holds_bruteforce).
    """
    examples = []
    for entry in catalog_entries():
        for row in entry.rows:
            if row.example_status is ExampleStatus.GIVEN:
                examples.append((table_source(entry, row), entry, row.structure_kind,
                                 row.example, row))
    for source, entry_id, kind, triple, link in CITED_EXAMPLES:
        entry = get_entry(entry_id)
        row = None
        if link is not None:
            table_number, variant = link
            row = next(r for r in entry.rows
                       if r.table_number == table_number and r.variant == variant)
        examples.append((source, entry, kind, triple, row))
    findings = []
    for source, entry, kind, triple, row in examples:
        outcome = holds_bruteforce(LinearGroupoid(*triple), entry.identity, cap)
        finding = check_example(source, entry, kind, triple, row, outcome)
        if finding:
            findings.append(finding)
    findings.sort(key=lambda f: (f.source, f.n, f.a, f.b, f.c))
    return findings
