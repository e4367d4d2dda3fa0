"""Verdict machinery: exhaustive and symbolic identity checks, condition
cross-checks over coefficient space, classification, witness search, and the
known-discrepancy ledger for the catalog's cited examples.

The exhaustive checker works purely from scanned operation tables
(groupoid.op_tables), the symbolic checker from each law's residual system
(Identity.residual: lhs - rhs over Z[a, b, c, 1/b, 1/c], derived once per
law, evaluated mod n); the two paths share no algebra, which is what makes
their agreement a meaningful cross-check.
"""

from __future__ import annotations

import enum
import multiprocessing
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import catalog as cat
from . import termlang as tl
from .catalog import (ExampleStatus, IdentityEntry, ModulusKind, StructureKind,
                      TableRow, catalog_entries, get_entry, row_sweep_admits)
from .groupoid import BLOCK, LinearGroupoid, is_quasigroup, op_tables
from .modring import is_prime
from .termlang import (ELam, ERho, Identity, Lam, LDiv, NotApplicable, Prod,
                       RDiv, Rho, Var)

DEFAULT_CAP = 10**7


class CapExceeded(RuntimeError):
    """An exhaustive check would exceed the evaluation cap."""


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


@lru_cache(maxsize=64)
def _blocks(n: int, k: int) -> tuple[tuple[int, tuple[np.ndarray, ...]], ...]:
    """The n**k assignments in lexicographic blocks of at most BLOCK (at least
    one leading value each): (start, grid) pairs, where start is the block's
    first leading value and grid[i] is an open grid of variable i's values,
    shaped along axis i, so that table lookups broadcast to the block."""
    step = max(1, BLOCK // n ** (k - 1))
    blocks = tuple((start, np.ix_(np.arange(start, min(start + step, n)),
                                  *[np.arange(n)] * (k - 1)))
                   for start in range(0, n, step))
    for _, grid in blocks:
        for values in grid:
            values.setflags(write=False)
    return blocks


# The OpTables attribute each operation reads.
_TABLE = {Prod: "mul", LDiv: "ldiv", RDiv: "rdiv", Rho: "rho", Lam: "lam",
          ERho: "e_rho", ELam: "e_lam"}


def _eval_table(term: tl.Term, env: dict[str, np.ndarray], tables) -> np.ndarray:
    """Evaluate over all assignments at once; -1 marks an undefined value,
    which propagates by indexing the tables' -1 slot at index n."""
    if isinstance(term, Var):
        return env[term.name]
    table = getattr(tables, _TABLE[type(term)])
    if isinstance(term, (Prod, LDiv, RDiv)):
        left = _eval_table(term.left, env, tables)
        right = _eval_table(term.right, env, tables)
        # z / x solves w*x = z: divisor indexes first
        return table[right, left] if isinstance(term, RDiv) else table[left, right]
    return table[_eval_table(term.child, env, tables)]


def _first(mask: np.ndarray, ident: Identity, start: int) -> dict[str, int] | None:
    """The first flagged assignment of the block whose leading values begin
    at start, or None; the mask spans the block, one axis per variable."""
    index = int(mask.argmax())
    if not mask.flat[index]:
        return None
    trailing = []
    for size in mask.shape[:0:-1]:
        index, value = divmod(index, size)
        trailing.append(value)
    return dict(zip(ident.variables, [start + index, *reversed(trailing)]))


def holds_bruteforce(g: LinearGroupoid, ident: Identity,
                     cap: int = DEFAULT_CAP) -> CheckOutcome:
    """Check the identity over every assignment of values to its variables.

    Fails carries the lexicographically first counterexample.  If any
    assignment makes either side undefined the whole check is NotApplicable:
    skipping such tuples would silently weaken the universal quantifier.
    Assignments are evaluated in lexicographic blocks (see _blocks), so
    memory grows with max(BLOCK, n**(k-1)), not with n**k, beside the
    (n+1)**2-cell operation tables the identity reads; the cap bounds both.
    """
    k = len(ident.variables)
    if g.n ** k > cap:
        raise CapExceeded(f"{g.n}**{k} assignments exceed the cap of {cap}")
    if g.n ** 2 > cap:  # a one-variable identity still scans n x n tables
        raise CapExceeded(f"{g.n}**2 table cells exceed the cap of {cap}")
    tables = op_tables(g.triple())
    counterexample = None
    for start, grid in _blocks(g.n, max(k, 1)):
        env = dict(zip(ident.variables, grid))
        lhs = _eval_table(ident.lhs, env, tables)
        rhs = _eval_table(ident.rhs, env, tables)
        undefined = _first((lhs < 0) | (rhs < 0), ident, start)
        if undefined is not None:
            return CheckOutcome(Verdict.NOT_APPLICABLE, Method.BRUTE_FORCE,
                                na_reason=_na_reason(ident, undefined, g))
        if counterexample is None:
            counterexample = _first(lhs != rhs, ident, start)
    if counterexample is not None:
        return CheckOutcome(Verdict.FAILS, Method.BRUTE_FORCE,
                            counterexample=counterexample)
    return CheckOutcome(Verdict.HOLDS, Method.BRUTE_FORCE)


def _na_reason(ident: Identity, env: dict[str, int], g: LinearGroupoid) -> str:
    for side in (ident.lhs, ident.rhs):
        value = tl.evaluate(side, env, g)
        if isinstance(value, NotApplicable):
            return value.reason
    return "undefined subterm"


def holds_symbolic(g: LinearGroupoid, ident: Identity) -> CheckOutcome:
    """Evaluate the identity's residual (see Identity.residual) mod n.  Exact:
    an affine form vanishes on all of Z_n^k iff its constant and every
    coefficient are 0 mod n (set all variables to 0, then one to 1 at a time)."""
    residual = ident.residual.evaluate(g)
    if isinstance(residual, NotApplicable):
        return CheckOutcome(Verdict.NOT_APPLICABLE, Method.SYMBOLIC, na_reason=residual.reason)
    fails = residual.constant or any(residual.coeffs.values())
    return CheckOutcome(Verdict.FAILS if fails else Verdict.HOLDS, Method.SYMBOLIC)


# --- classification -----------------------------------------------------------


def classify(g: LinearGroupoid, cap: int = DEFAULT_CAP) -> list[tuple[str, CheckOutcome]]:
    """Verdict for every catalog entry with a defined identity, ordered by id.

    The symbolic checker decides every law.  A not_applicable verdict is
    reported as the exhaustive checker's, without its n**k scan: every derived
    table of a linear groupoid is total or undefined throughout, so the first
    undefined assignment is the all-zero one.  Nothing scans, so cap is unused.
    """
    results = []
    for entry in sorted(catalog_entries(), key=lambda e: e.id):
        if entry.identity is None:
            continue
        outcome = holds_symbolic(g, entry.identity)
        if outcome.verdict is Verdict.NOT_APPLICABLE:
            zeros = dict.fromkeys(entry.identity.variables, 0)
            outcome = CheckOutcome(Verdict.NOT_APPLICABLE, Method.BRUTE_FORCE,
                                   na_reason=_na_reason(entry.identity, zeros, g))
        results.append((entry.id, outcome))
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

    Each triple that any of the rows admits gets one oracle call, and every
    admitting row tallies that verdict: (checked, NA, mismatches) per row.
    """
    entry_id, rows, n, cap = args
    ident = get_entry(entry_id).identity
    tallies = [[0, 0, []] for _ in rows]
    for g in _groupoids(n):
        admitting = [(row, tally) for row, tally in zip(rows, tallies)
                     if row_sweep_admits(row, g)]
        if not admitting:
            continue
        outcome = holds_bruteforce(g, ident, cap)
        for row, tally in admitting:
            if outcome.verdict is Verdict.NOT_APPLICABLE:
                tally[1] += 1
                continue
            tally[0] += 1
            cond = row.condition.holds(g)
            if cond != (outcome.verdict is Verdict.HOLDS):
                tally[2].append(Mismatch(*g.triple(), cond, outcome.verdict.value))
    return tallies


def _run_tasks(func, tasks: list[tuple], workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(func, tasks, chunksize=1)


def crosscheck_rows(selected: list[tuple[IdentityEntry, list[TableRow]]],
                    n_values: list[int], cap: int, workers: int) -> list[CrosscheckReport]:
    """Reports for the selected rows of each entry, in selection order, from
    one pool task per (law, n): the selected rows of one law share each
    triple's oracle verdict."""
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
    condition column; an empty result is itself a finding.
    """
    if entry.identity is None:
        raise ValueError(f"entry {entry.id!r} has no defining identity")
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


def check_example(source: str, entry: IdentityEntry, kind: StructureKind,
                 triple: tuple[int, int, int, int], row: TableRow | None,
                 outcome: CheckOutcome) -> Finding | None:
    """The finding for one example, given the oracle's outcome on it."""
    g = LinearGroupoid(*triple)
    problems: list[str] = []
    if kind is StructureKind.QUASIGROUP and not is_quasigroup(g):
        problems.append("claimed quasigroup is not one (b or c shares a factor with n)")
    if row is not None:
        failed = [atom.value for atom in row.hypothesis if not cat.atom_holds(atom, g)]
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
    one oracle call.
    """
    examples = []
    for entry in catalog_entries():
        for row in entry.rows:
            if row.example_status is ExampleStatus.GIVEN:
                source = f"table:{row.table_number:02d}.{row.variant}:{entry.id}"
                examples.append((source, entry, row.structure_kind, row.example, row))
    for source, entry_id, kind, triple, link in CITED_EXAMPLES:
        entry = get_entry(entry_id)
        row = None
        if link is not None:
            table_number, variant = link
            row = next(r for r in entry.rows
                       if r.table_number == table_number and r.variant == variant)
        examples.append((source, entry, kind, triple, row))
    outcomes: dict[tuple, CheckOutcome] = {}
    findings = []
    for source, entry, kind, triple, row in examples:
        g = LinearGroupoid(*triple)
        key = (g.triple(), entry.identity)
        if key not in outcomes:
            outcomes[key] = holds_bruteforce(g, entry.identity, cap)
        finding = check_example(source, entry, kind, triple, row, outcomes[key])
        if finding:
            findings.append(finding)
    findings.sort(key=lambda f: (f.source, f.n, f.a, f.b, f.c))
    return findings
