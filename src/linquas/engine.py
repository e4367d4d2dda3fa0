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

The exhaustive checker reads every table flat, from one evaluator
(_eval_stack), one groupoid's tables being a stack of one, and sizes its
work by one rule, a chunk of BLOCK // 8 assignments: a single check that
fits one chunk is one block, and every larger check, and every sweep
stack, is one chunked scan (_scan).  The scan evaluates the slab where the
leading variable is 0 first, for every member, and the rest only for the
members that slab left undecided; it asks per member whether the tables it
reads are total (_total), and drops each member once a block decides it.
A single check reads its groupoid's tables through the groupoid.op_tables
LRU cache.  A cross-check sweep admits each (law, n) task's triples with
one mask per row (catalog.row_sweep_mask), builds their groupoids BLOCK //
8 triples at a time, reads their tables from groupoid.stacked_op_tables,
built in stacks, and still makes one oracle call per admitted triple,
which reads its result from its stack's scan.  Every evaluation is
memoized on the tables it read (OpTables.flags), so a repeated check, as
witness searches make, evaluates nothing.
"""

from __future__ import annotations

import enum
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import catalog as cat
from . import termlang as tl
from .catalog import (ExampleStatus, IdentityEntry, ModulusKind, StructureKind,
                      TableRow, catalog_entries, get_entry, row_sweep_admits,
                      row_sweep_mask)
from .groupoid import (BLOCK, LinearGroupoid, StackMember, is_quasigroup, op_tables,
                       stacked_op_tables)
from .modring import is_prime
from .termlang import Binary, Identity, NotApplicable, Var

DEFAULT_CAP = 10**7


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


@dataclass(frozen=True)
class CheckOutcome:
    verdict: Verdict
    method: Method
    counterexample: dict[str, int] | None = None
    na_reason: str | None = None

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
    and no assignment of that member can be undefined: a bool array over
    the stack, 0-d for one groupoid's OpTables.  The body is the trailing
    [:n, :n] of a binary operation's table and the trailing [:n] of a unary
    one's.  Once a chunk is evaluated those tables are built, so this
    builds none; it reads cells, not coefficients, so it holds for any
    OpTables, not only linear ones."""
    axes, terms = {}, [ident.lhs, ident.rhs]
    while terms:
        term = terms.pop()
        if isinstance(term, Binary):
            axes[term.op] = (-2, -1)
            terms.extend((term.left, term.right))
        elif not isinstance(term, Var):
            axes[term.op] = (-1,)
            terms.append(term.child)
    total = np.True_
    for op, axis in axes.items():
        cells = getattr(tables, _TABLE[op])[(..., *[slice(tables.n)] * len(axis))]
        total = total & (cells.min(axis=axis) >= 0)
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
    array of the block's rank (a one-groupoid OpTables passes an array of
    zeros): a table holds the compact dtype of _padded, so x * (n+1)
    overflows it.  A Python int would leave the offsets in that dtype, and
    so would an intp scalar or 0-d array under NumPy 1, which sizes them by
    value.  Each table is read flat, by row (rows + x)
    and column, so an index of -1 still reads -1: it lands on a padding
    cell of the same member, of the one before it, or, for member 0, of
    the last one."""
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


def _scan(ident: Identity, tables, members: int) -> list[tuple[int, int]]:
    """For each of the `members` groupoids of a stack of tables, the indices
    of its first undefined and of its first failing assignment
    (lexicographic), or -1; one groupoid's OpTables is a stack of one.  The
    identity is evaluated block by block (see _blocks), in lexicographic
    order, over the members still undecided, packed into chunks of at most
    BLOCK // 8 assignments, the size of the stacks' own tables (chunks of
    BLOCK cells ran slower and raised the crosscheck benchmark's peak
    memory by about 9 MB).

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
    the later blocks.  The result is memoized in the tables' flags (see
    holds_bruteforce)."""
    n, k = tables.n, len(ident.variables)
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
            lhs = _eval_stack(ident.lhs, env, tables, rows)
            rhs = _eval_stack(ident.rhs, env, tables, rows)
            if total is None:  # the tables read are built now
                total = np.broadcast_to(_total(ident, tables), members)
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
    return list(zip(undefined.tolist(), failing.tolist()))


def holds_bruteforce(g: LinearGroupoid, ident: Identity,
                     cap: int = DEFAULT_CAP, tables=None) -> CheckOutcome:
    """Check the identity over every assignment of values to its variables.

    Fails carries the lexicographically first counterexample.  If any
    assignment makes either side undefined the whole check is NotApplicable:
    skipping such tuples would silently weaken the universal quantifier.

    The tables are g's op_tables unless given, read flat (see _eval_stack).
    A check whose n**k assignments fit one chunk (BLOCK // 8) is one block
    (even a lean chunked scan cost about 18 us more per check).  A
    larger one scans its groupoid as a stack of one (see _scan), slab
    first, so memory grows with max(BLOCK // 8, n**(k-1)) assignments, not
    with n**k, beside the (n+1)**2-cell operation tables the identity
    reads; the cap bounds both.  A sweep passes a StackMember and still
    calls once per groupoid: the first call of a stack scans the whole
    stack, deciding most members on the slab where the leading variable is
    0, and each call reads its member's result.

    Each evaluation is memoized in the tables' flags as indices, so a
    repeated check evaluates nothing; the outcome, with a counterexample
    dict of its own, is built on every call, after the cap.
    """
    n, k = g.n, len(ident.variables)
    _check_cap(n, k, cap)
    if tables is None:
        tables = op_tables(g.triple())
    member = isinstance(tables, StackMember)
    memo = (tables.stack if member else tables).flags
    flags = memo.get(ident)
    if flags is None:
        if member:
            flags = _scan(ident, tables.stack, len(tables.stack.mul))
        elif n ** k <= BLOCK // 8:
            env = dict(zip(ident.variables, _blocks(n, k, BLOCK // 8)[0][1]))
            rows = np.zeros((1,) * (k + 1), np.intp)  # shaped as _scan's rows
            lhs = _eval_stack(ident.lhs, env, tables, rows)
            rhs = _eval_stack(ident.rhs, env, tables, rows)
            flags = (_first((lhs < 0) | (rhs < 0)), _first(lhs != rhs))
        else:
            (flags,) = _scan(ident, tables, 1)
        memo[ident] = flags
    undefined, failing = flags[tables.index] if member else flags
    if undefined >= 0:
        return CheckOutcome(Verdict.NOT_APPLICABLE, Method.BRUTE_FORCE,
                            na_reason=_na_reason(ident, _assignment(ident, n, undefined), g))
    if failing >= 0:
        return CheckOutcome(Verdict.FAILS, Method.BRUTE_FORCE,
                            counterexample=_assignment(ident, n, failing))
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
    """Raise ValueError if a modulus repeats: its triples would be swept twice."""
    if len(set(n_values)) < len(n_values):
        repeated = sorted({n for n in n_values if n_values.count(n) > 1})
        raise ValueError(f"each modulus may be given once, repeated: {repeated}")


def _sweep_moduli(row: TableRow, n_values: list[int]) -> list[int]:
    if row.modulus_kind is ModulusKind.PRIME_P:
        return [n for n in n_values if is_prime(n)]
    return list(n_values)


def _groupoids(n: int):
    """Every groupoid of modulus n, lexicographic in (a, b, c)."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                yield LinearGroupoid(n, a, b, c)


def _crosscheck_task(args: tuple) -> list[list]:
    """Worker task: the given rows of one law at one modulus.

    Each triple that any of the rows admits (row_sweep_mask) gets one oracle
    call, and every admitting row tallies that verdict: (checked, NA,
    mismatches) per row.  The admitted triples are taken BLOCK // 8 at a
    time, so that a task's groupoids, admit rows and stacks
    (stacked_op_tables) do not grow with its n**3 triples; the identity is
    evaluated once per chunk of a stack (see holds_bruteforce).
    """
    entry_id, rows, n, cap = args
    ident = get_entry(entry_id).identity
    tallies = [[0, 0, []] for _ in rows]
    masks = np.array([row_sweep_mask(row, n) for row in rows])
    admitted = np.flatnonzero(masks.any(axis=0))
    for first in range(0, len(admitted), BLOCK // 8):
        part = admitted[first:first + BLOCK // 8]
        groupoids = [LinearGroupoid(n, *triple) for triple in
                     zip(*(axis.tolist() for axis in np.unravel_index(part, (n, n, n))))]
        admits = masks[:, part].T.tolist()
        for g, tables, admitting in zip(groupoids, stacked_op_tables(groupoids), admits):
            outcome = holds_bruteforce(g, ident, cap, tables=tables)
            for row, tally, admitted_here in zip(rows, tallies, admitting):
                if not admitted_here:
                    continue
                if outcome.verdict is Verdict.NOT_APPLICABLE:
                    tally[1] += 1
                    continue
                tally[0] += 1
                cond = row.condition.holds(g)
                if cond != (outcome.verdict is Verdict.HOLDS):
                    tally[2].append(Mismatch(*g.triple(), cond, outcome.verdict.value))
    return tallies


def _run_tasks(func, tasks: list[tuple], workers: int) -> list:
    """func over the tasks in order, in at most one process per task and per usable CPU."""
    if workers <= 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(tasks), len(os.sched_getaffinity(0)))) as pool:
        return pool.map(func, tasks, chunksize=1)


def crosscheck_rows(selected: list[tuple[IdentityEntry, list[TableRow]]],
                    n_values: list[int], cap: int, workers: int) -> list[CrosscheckReport]:
    """Reports for the selected rows of each entry, in selection order, from
    one pool task per (law, n): the selected rows of one law share each
    triple's oracle verdict.  Every task is held to the cap before any runs,
    and a repeated modulus is a ValueError, raised before any task is planned."""
    _check_moduli(n_values)
    reports: list[CrosscheckReport] = []
    tasks: list[tuple] = []
    owners: list[list[CrosscheckReport]] = []
    for entry, rows in selected:
        if entry.identity is None:
            raise ValueError(f"entry {entry.id!r} has no defining identity")
        law = [(row, CrosscheckReport(entry.id, row.table_number, row.variant, row.label(),
                                      _sweep_moduli(row, n_values))) for row in rows]
        reports.extend(report for _, report in law)
        for n in n_values:
            swept = [(row, report) for row, report in law if n in report.n_values]
            if swept:
                _check_cap(n, len(entry.identity.variables), cap)
                tasks.append((entry.id, [row for row, _ in swept], n, cap))
                owners.append([report for _, report in swept])
    for owned, tallies in zip(owners, _run_tasks(_crosscheck_task, tasks, workers)):
        for report, (checked, na, mismatches) in zip(owned, tallies):
            report.checked += checked
            report.na_excluded += na
            report.mismatches.extend(mismatches)
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

    Witnesses are confirmed by the exhaustive oracle only, never by the
    condition column; an empty result is itself a finding.  A limit below 1
    and a repeated modulus are ValueErrors, raised before anything is scanned.
    """
    if entry.identity is None:
        raise ValueError(f"entry {entry.id!r} has no defining identity")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    _check_moduli(n_values)
    found: list[Witness] = []
    for n in sorted(_sweep_moduli(row, n_values)):
        for g in _groupoids(n):
            if not row_sweep_admits(row, g):
                continue
            if holds_bruteforce(g, entry.identity, cap).verdict is Verdict.HOLDS:
                found.append(Witness(*g.triple(), entry.id, row.label(),
                                     row.structure_kind.value))
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
        if not row.condition.holds(g):
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
