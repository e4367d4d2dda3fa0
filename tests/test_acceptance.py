"""Acceptance suite: one test (or parametrized family) per criterion, each
printing a PASS/FAIL line.  Pinned regression artifacts live in tests/data/
and are regenerated only deliberately via scripts/regen_pins.py.

Criterion 2 carries three strict xfails: the catalog rows t14.2, t14.3 and
t63.0 transcribe printed conditions that are provably not equivalent to the
exhaustive oracle (counterexamples are pinned below and in the crosscheck
pins).  The tests assert the criterion as stated and are expected to fail;
if they ever pass, strict=True turns that into a suite failure so the
analysis gets revisited.
"""

import itertools
import json
import random
import time
from hashlib import sha256
from math import gcd
from pathlib import Path

import pytest

from linquas import engine
from linquas.catalog import ModulusKind, catalog_entries, get_entry
from linquas.engine import Verdict
from linquas.groupoid import (LinearGroupoid, cayley_table, is_latin_square,
                              is_quasigroup, orthogonal, orthogonal_det)

DATA = Path(__file__).resolve().parent / "data"
CROSSCHECK_RANGE = list(range(2, 13))


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}{' - ' + detail if detail else ''}")


def _load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


@pytest.fixture(scope="module")
def ledger():
    start = time.monotonic()
    findings = engine.verify_examples()
    return findings, time.monotonic() - start


@pytest.fixture(scope="module")
def crosscheck_reports():
    start = time.monotonic()
    reports = engine.crosscheck_all(CROSSCHECK_RANGE)
    elapsed = time.monotonic() - start
    return {(r.table_number, r.variant): r for r in reports}, elapsed


# --- criterion 1: example regression ------------------------------------------


def test_criterion_1_example_regression(ledger):
    findings, elapsed = ledger
    pinned = _load("example_findings.json")["findings"]
    actual = [f.to_dict() for f in findings]
    sources = [f["source"] for f in actual]
    ok = (actual == pinned
          and "text:stein_third:groupoid" in sources
          and "text:stein_third:quasigroup" in sources
          and elapsed < 30.0)
    _report("criterion 1 (example regression)", ok,
            f"{len(actual)} findings, {elapsed:.1f}s")
    assert actual == pinned, "finding set drifted from the pinned regression file"
    assert "text:stein_third:groupoid" in sources
    assert "text:stein_third:quasigroup" in sources
    assert elapsed < 30.0


def test_criterion_1_consistent_cells_stay_clean(ledger):
    # a representative sample of cells that must verify cleanly
    clean = {"table:02.1:unipotent",      # (6,2,5,1) unipotent quasigroup
             "table:20.1:abel_grassman",  # (9,2,4,2) quasigroup
             "table:45.0:r_cip_1",        # (11,2,3,4)
             "table:34.2:r_bol",          # (63,0,8,1)
             "table:01.0:idempotent"}
    findings, _ = ledger
    dirty = {f.source for f in findings}
    assert not clean & dirty


# --- criterion 2: oracle equivalence of conditions ------------------------------

# (table, variant) cells the criterion requires to cross-check clean.
_REQUIRED_CLEAN = [
    ("idempotent", 1, 0),
    ("unipotent", 2, 0), ("unipotent", 2, 1),
    ("commutative", 3, 0), ("commutative", 3, 1),
    ("abel_grassman", 20, 0), ("abel_grassman", 20, 1),
    ("r_cip_1", 45, 0), ("r_cip_1", 45, 1),
    ("r_aaip", 49, 0), ("r_aaip", 49, 1), ("r_aaip", 49, 2), ("r_aaip", 49, 3),
    ("medial", 61, 0), ("medial", 61, 1), ("medial", 61, 2), ("medial", 61, 3),
    ("first_rectangle", 63, 1),
]

# Cells the criterion lists as clean but which are provably not: the printed
# condition is not oracle-equivalent, so "zero mismatches" cannot hold.
_REQUIRED_CLEAN_IMPOSSIBLE = [
    pytest.param("stein_third", 14, 2, id="t14.2-stein_third-G-Zp",
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="condition b^2+c^2=0, 2bc=1 under a!=0 is not "
                            "sufficient: over Z_5 the triples (a,4,2)/(a,2,4) "
                            "satisfy it with b+c=1, yet the law needs "
                            "a(1+b+c)=0; 8 pinned mismatches")),
    pytest.param("stein_third", 14, 3, id="t14.3-stein_third-Q-Zp",
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="same incompleteness as t14.2 restricted to "
                            "quasigroups; 8 pinned mismatches")),
    pytest.param("first_rectangle", 63, 0, id="t63.0-first_rectangle-G-Zp",
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="condition b=c is not necessary without the "
                            "'c invertible' hypothesis: every (p,a,b,0) with "
                            "b!=0 satisfies the law trivially; 180 pinned "
                            "mismatches")),
]


@pytest.mark.parametrize("entry_id,table,variant",
                         [(e, t, v) for e, t, v in _REQUIRED_CLEAN]
                         + _REQUIRED_CLEAN_IMPOSSIBLE)
def test_criterion_2_required_rows_clean(crosscheck_reports, entry_id, table, variant):
    reports, _ = crosscheck_reports
    report = reports[(table, variant)]
    assert report.entry_id == entry_id
    ok = report.clean
    _report(f"criterion 2 (oracle equivalence, t{table:02d}.{variant} {entry_id})",
            ok, f"{len(report.mismatches)} mismatches / {report.checked} checked")
    assert report.clean, \
        f"{len(report.mismatches)} mismatches, first: {report.mismatches[:3]}"


def test_criterion_2_all_rows_match_pins_and_runtime(crosscheck_reports):
    reports, elapsed = crosscheck_reports
    pinned = {(r["table"], r["variant"]): r
              for r in _load("crosscheck_pins.json")["rows"]}
    assert set(reports) == set(pinned)
    for key, report in reports.items():
        pin = pinned[key]
        mismatches = [m.to_list() for m in report.mismatches]
        digest = sha256(json.dumps(mismatches, sort_keys=True).encode()).hexdigest()
        assert report.checked == pin["checked"], key
        assert report.na_excluded == pin["na_excluded"], key
        assert len(mismatches) == pin["mismatch_count"], key
        assert mismatches[:5] == pin["first_mismatches"], key
        assert digest == pin["mismatch_digest"], key
    dirty = sum(1 for r in reports.values() if not r.clean)
    ok = elapsed < 300.0
    _report("criterion 2 (full cross-check vs pins)", ok,
            f"{len(reports)} rows, {dirty} with pinned mismatches, "
            f"{elapsed:.0f}s")
    assert elapsed < 300.0


# --- criterion 3: Latin-square criterion ------------------------------------------


def test_criterion_3_latin_square_criterion():
    start = time.monotonic()
    exceptions = []
    for n in range(2, 11):
        for a, b, c in itertools.product(range(n), repeat=3):
            g = LinearGroupoid(n, a, b, c)
            if is_quasigroup(g) != is_latin_square(cayley_table(g)):
                exceptions.append((n, a, b, c))
    elapsed = time.monotonic() - start
    _report("criterion 3 (quasigroup iff Latin square, n<=10)",
            not exceptions and elapsed < 60, f"{elapsed:.1f}s")
    assert exceptions == []
    assert elapsed < 60.0


# --- criterion 4: universality suite -----------------------------------------------


def test_criterion_4_universal_laws():
    ids = ["medial", "specialized_medial", "e_l", "e_r", "left_f", "right_f"]
    violations = engine.universality_scan(ids, list(range(2, 16)))
    _report("criterion 4 (universal laws hold whenever applicable, n<=15)",
            not violations, f"laws: {', '.join(ids)}")
    assert violations == []


# --- criterion 5: symbolic / exhaustive agreement -----------------------------------


def test_criterion_5_method_agreement():
    rng = random.Random(20260809)
    entries = [e for e in catalog_entries() if e.identity is not None]
    disagreements = []
    comparable = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        entry = rng.choice(entries)
        brute = engine.holds_bruteforce(g, entry.identity)
        symbolic = engine.holds_symbolic(g, entry.identity)
        if (brute.verdict is Verdict.NOT_APPLICABLE
                or symbolic.verdict is Verdict.NOT_APPLICABLE):
            continue
        comparable += 1
        if brute.verdict != symbolic.verdict:
            disagreements.append((entry.id, g.triple()))
    _report("criterion 5 (symbolic/exhaustive agreement, 500 seeded pairs)",
            not disagreements, f"{comparable} comparable")
    assert disagreements == []
    assert comparable > 300


# --- criterion 6: commutativity and mediality interplay -----------------------------


def test_criterion_6_two_identities_imply_the_third():
    trio = [get_entry(x).identity
            for x in ("medial", "external_medial", "palindromic")]
    exactly_two = []
    for n in range(2, 13):
        for a, b, c in itertools.product(range(n), repeat=3):
            g = LinearGroupoid(n, a, b, c)
            holds = sum(engine.holds_bruteforce(g, ident).verdict is Verdict.HOLDS
                        for ident in trio)
            if holds == 2:
                exactly_two.append((n, a, b, c))
    _report("criterion 6a (never exactly two of medial/external/palindromic)",
            not exactly_two)
    assert exactly_two == []


def test_criterion_6_c_cm_iff_commutative_quasigroup():
    idents = ([get_entry(f"c_{i}").identity for i in range(1, 7)]
              + [get_entry(f"cm_{i}").identity for i in range(1, 15)])
    exceptions = []
    for n in range(2, 11):
        for a, b, c in itertools.product(range(n), repeat=3):
            g = LinearGroupoid(n, a, b, c)
            if not is_quasigroup(g):
                continue
            commutative = b % n == c % n
            for ident in idents:
                verdict = engine.holds_bruteforce(g, ident).verdict
                if (verdict is Verdict.HOLDS) != commutative:
                    exceptions.append((n, a, b, c))
    _report("criterion 6b (C_i/CM_i iff commutative, quasigroups n<=10)",
            not exceptions)
    assert exceptions == []


def test_criterion_6_commutative_groupoids_are_palindromic():
    palindromic = get_entry("palindromic").identity
    for n in range(2, 13):
        for a, b in itertools.product(range(n), repeat=2):
            g = LinearGroupoid(n, a, b, b)
            assert engine.holds_bruteforce(g, palindromic).verdict is Verdict.HOLDS


# --- criterion 7: witness discovery ---------------------------------------------------


def test_criterion_7_witness_pins():
    pinned = _load("witness_pins.json")["cells"]
    all_ok = True
    for pin in pinned:
        entry = get_entry(pin["entry"])
        row = next(r for r in entry.rows
                   if r.table_number == pin["table"] and r.variant == pin["variant"])
        n_values = list(range(2, pin["n_max"] + 1))
        witnesses = engine.search_witnesses(entry, row, n_values, limit=1)
        if pin["certified_empty"]:
            ok = witnesses == []
        else:
            ok = bool(witnesses) and \
                [witnesses[0].n, witnesses[0].a, witnesses[0].b,
                 witnesses[0].c] == pin["witness"]
            if ok:
                g = LinearGroupoid(*pin["witness"])
                verdict = engine.holds_bruteforce(g, entry.identity).verdict
                ok = verdict is Verdict.HOLDS
        all_ok &= ok
        assert ok, pin
    _report("criterion 7 (witness discovery pins)", all_ok,
            f"{len(pinned)} searched cells")


def test_criterion_7_row14_cell_is_filled():
    pinned = _load("witness_pins.json")["cells"]
    cell = next(p for p in pinned
                if p["entry"] == "stein_third" and p["variant"] == 0)
    assert cell["witness"] == [5, 0, 1, 3]
    entry = get_entry("stein_third")
    verdict = engine.holds_bruteforce(LinearGroupoid(5, 0, 1, 3), entry.identity).verdict
    assert verdict is Verdict.HOLDS
    # lexicographically earliest: nothing below it satisfies the law
    row = entry.rows[0]
    first = engine.search_witnesses(entry, row, [2, 3, 4, 5], limit=1)
    assert [(w.n, w.a, w.b, w.c) for w in first] == [(5, 0, 1, 3)]


# --- criterion 8: orthogonality oracle --------------------------------------------------


def test_criterion_8_orthogonality_oracle():
    exceptions = []
    for n in range(2, 7):
        quasis = [t for t in itertools.product(range(n), repeat=3)
                  if gcd(t[1], n) == 1 and gcd(t[2], n) == 1]
        for t1 in quasis:
            for t2 in quasis:
                g1, g2 = LinearGroupoid(n, *t1), LinearGroupoid(n, *t2)
                if orthogonal(g1, g2) != orthogonal_det(g1, g2):
                    exceptions.append((n, t1, t2))
    _report("criterion 8 (orthogonality iff unit determinant, n<=6)",
            not exceptions)
    assert exceptions == []
