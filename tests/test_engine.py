import itertools
import json
import random
import tracemalloc
from collections import Counter
from math import gcd

import numpy as np
import pytest

from linquas import engine, groupoid, termlang
from linquas.catalog import (ModulusKind, catalog_entries, get_entry, row_sweep_admits,
                             row_sweep_mask)
from linquas.engine import (CapExceeded, CheckOutcome, Method, Verdict, crosscheck,
                            crosscheck_all, holds_bruteforce, holds_symbolic,
                            search_witnesses, universality_scan,
                            verify_examples)
from linquas.groupoid import LinearGroupoid, OpTables, StackMember, op_tables, stacked_op_tables
from linquas.modring import is_prime, is_unit, poly_value
from linquas.termlang import parse
from test_groupoid import stacked


def test_bruteforce_examples():
    out = holds_bruteforce(LinearGroupoid(6, 2, 4, 2), get_entry("abel_grassman").identity)
    assert out.verdict is Verdict.HOLDS and out.method is Method.BRUTE_FORCE
    out = holds_bruteforce(LinearGroupoid(6, 0, 1, 2), get_entry("idempotent").identity)
    assert out.verdict is Verdict.FAILS
    assert out.counterexample == {"x": 1}
    out = holds_bruteforce(LinearGroupoid(6, 2, 4, 2), get_entry("r_cip_1").identity)
    assert out.verdict is Verdict.NOT_APPLICABLE
    assert "right inverse undefined" in out.na_reason


def test_bruteforce_counterexample_is_lexicographically_first():
    out = holds_bruteforce(LinearGroupoid(6, 1, 4, 5), get_entry("commutative").identity)
    assert out.verdict is Verdict.FAILS
    assert out.counterexample == {"x": 0, "y": 1}


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        holds_bruteforce(LinearGroupoid(60, 0, 1, 1), get_entry("medial").identity,
                         cap=10**5)
    # 57**4 > 10**7: four-variable laws past n = 56 need an explicit override
    with pytest.raises(CapExceeded):
        holds_bruteforce(LinearGroupoid(57, 0, 1, 1), get_entry("medial").identity)
    out = holds_bruteforce(LinearGroupoid(57, 0, 1, 1), get_entry("medial").identity,
                           cap=10**8)
    assert out.verdict is Verdict.HOLDS


def test_symbolic_examples():
    out = holds_symbolic(LinearGroupoid(9, 2, 4, 2), get_entry("abel_grassman").identity)
    assert out.verdict is Verdict.HOLDS and out.method is Method.SYMBOLIC
    out = holds_symbolic(LinearGroupoid(6, 2, 4, 2), get_entry("unipotent").identity)
    assert out.verdict is Verdict.HOLDS
    out = holds_symbolic(LinearGroupoid(5, 0, 2, 3), get_entry("stein_third").identity)
    assert out.verdict is Verdict.FAILS


def test_methods_agree_on_seeded_sample():
    rng = random.Random(424242)
    entries = [e for e in catalog_entries() if e.identity is not None]
    compared = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        entry = rng.choice(entries)
        brute = holds_bruteforce(g, entry.identity)
        symbolic = holds_symbolic(g, entry.identity)
        na = Verdict.NOT_APPLICABLE
        if brute.verdict is na or symbolic.verdict is na:
            # undefinedness is decided by the same unit conditions on both paths
            assert brute.verdict is na and symbolic.verdict is na
            continue
        compared += 1
        assert brute.verdict == symbolic.verdict, (g, entry.id)
    assert compared > 80


def test_classify_spot_checks():
    results = dict(engine.classify(LinearGroupoid(6, 2, 5, 1)))
    for entry_id in ("unipotent", "rc4", "rc1", "medial", "r_aip", "l_aip",
                     "r_saip", "l_saip", "e_l", "e_r", "left_f", "right_f"):
        assert results[entry_id].verdict is Verdict.HOLDS, entry_id
    # the table lists (6,2,5,1) as an LC4 example, but the oracle rejects it;
    # verify_examples pins that discrepancy
    assert results["lc4"].verdict is Verdict.FAILS

    results = dict(engine.classify(LinearGroupoid(3, 0, 1, 1)))
    for entry_id in ("associative", "commutative", "medial"):
        assert results[entry_id].verdict is Verdict.HOLDS

    results = dict(engine.classify(LinearGroupoid(7, 3, 5, 5)))
    for i in range(1, 7):
        assert results[f"c_{i}"].verdict is Verdict.HOLDS
    for i in range(1, 15):
        assert results[f"cm_{i}"].verdict is Verdict.HOLDS


def test_classify_is_ordered_and_skips_undefined_entries():
    results = engine.classify(LinearGroupoid(5, 1, 2, 3))
    ids = [entry_id for entry_id, _ in results]
    assert ids == sorted(ids)
    assert "slim" not in ids


@pytest.fixture(scope="module")
def oracle_up_to_6():
    """holds_bruteforce of every law on every triple with n = 2..6."""
    laws = [e for e in catalog_entries() if e.identity is not None]
    return {(entry.id, (n, a, b, c)): holds_bruteforce(LinearGroupoid(n, a, b, c),
                                                       entry.identity)
            for n in range(2, 7) for a in range(n) for b in range(n) for c in range(n)
            for entry in laws}


def test_symbolic_and_bruteforce_verdicts_agree_not_applicable_included(oracle_up_to_6):
    na = 0
    for (entry_id, triple), brute in oracle_up_to_6.items():
        symbolic = holds_symbolic(LinearGroupoid(*triple), get_entry(entry_id).identity)
        assert symbolic.verdict is brute.verdict, (entry_id, triple)
        na += brute.verdict is Verdict.NOT_APPLICABLE
    assert na > 1000


def test_classify_not_applicable_equals_bruteforce(oracle_up_to_6):
    na = 0
    for n in range(2, 7):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for entry_id, outcome in engine.classify(LinearGroupoid(n, a, b, c)):
                        if outcome.verdict is Verdict.NOT_APPLICABLE:
                            brute = oracle_up_to_6[entry_id, (n, a, b, c)]
                            assert outcome.to_dict() == brute.to_dict(), (entry_id, n, a, b, c)
                            na += 1
    assert na > 1000


def test_classify_past_the_cap_runs_no_exhaustive_check(monkeypatch):
    # (520, 2, 4, 2) is no quasigroup: its inapplicable three-variable laws
    # would need 520**3 assignments, past the default cap
    monkeypatch.setattr(engine, "holds_bruteforce", None)
    results = dict(engine.classify(LinearGroupoid(520, 2, 4, 2)))
    na = {entry_id: outcome for entry_id, outcome in results.items()
          if outcome.verdict is Verdict.NOT_APPLICABLE}
    assert na and all(outcome.method is Method.BRUTE_FORCE and "undefined" in outcome.na_reason
                      for outcome in na.values())


def test_classify_at_a_huge_modulus_holds_no_solution_set():
    # At (2**31 - 1, 0, 0, 0) every division is by 0, and 0*w = 0 has
    # n solutions: an NA law's reason solves it (modring.solve_linear),
    # which must not hold those n solutions, as a tuple of them did.
    import tracemalloc

    engine.classify(LinearGroupoid(5, 0, 0, 0))  # the catalog's rows are compiled once
    tracemalloc.start()
    try:
        results = engine.classify(LinearGroupoid(2**31 - 1, 0, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(outcome.verdict is Verdict.NOT_APPLICABLE for _, outcome in results)
    assert peak < 2**20, peak


_SYMBOLIC = {verdict: CheckOutcome(verdict, Method.SYMBOLIC)
             for verdict in (Verdict.HOLDS, Verdict.FAILS)}


def _symbolic_reference(g, ident, values):
    """holds_symbolic's outcome from the residual's raw terms: the units it
    needs in order, then each component through modring.poly_value, whose
    values at g are kept in `values` for the laws that share a component."""
    n, a, b, c = g.triple()
    residual = ident.residual
    for name in residual.units:
        value = b if name == "b" else c
        if not is_unit(value, n):
            return CheckOutcome(Verdict.NOT_APPLICABLE, Method.SYMBOLIC,
                                na_reason=f"{name} = {value} is not a unit mod {n}")
    for part in (residual.constant, *residual.coeffs.values()):
        if part not in values:
            values[part] = poly_value(part, n, a, b, c)
        if values[part]:
            return _SYMBOLIC[Verdict.FAILS]
    return _SYMBOLIC[Verdict.HOLDS]


def _spread_triples():
    """Every triple of n = 2..12, and at n = 520, 2**61 - 1 and 10**20 + 39
    coefficients spread over the range.  The two large moduli are prime and
    their b and c nonzero, so every law applies there: a local element's
    NA reason enumerates gcd(b, n) or gcd(c, n) solutions."""
    triples = [(n, a, b, c) for n in range(2, 13)
               for a in range(n) for b in range(n) for c in range(n)]
    values = (0, 2, 3, 13, 173, 260, 519)
    triples += [(520, a, b, c) for a in values for b in values for c in values]
    for n in (2**61 - 1, 10**20 + 39):
        spread = (1, 2, n // 3, n // 2, n - 2, n - 1)
        triples += [(n, a, b, c) for a in (0, *spread) for b in spread for c in spread]
    return triples


def test_classify_and_holds_symbolic_equal_the_per_term_reference():
    # One pass over the catalog's compiled rows must give every law the
    # verdict that poly_value gives term by term; an NA law is reported as
    # the exhaustive checker would, with its reason at the all-zero
    # assignment.  holds_symbolic, on each law's own rows, is checked too,
    # on every triple up to n = 6 and at the large moduli.
    laws = [(e.id, e.identity) for e in sorted(catalog_entries(), key=lambda e: e.id)
            if e.identity is not None]
    seen = {verdict: 0 for verdict in Verdict}
    for triple in _spread_triples():
        g = LinearGroupoid(*triple)
        expected, values = [], {}
        for entry_id, ident in laws:
            reference = _symbolic_reference(g, ident, values)
            if not 6 < g.n < 13:
                assert holds_symbolic(g, ident) == reference, (entry_id, triple)
            if reference.verdict is Verdict.NOT_APPLICABLE:
                zeros = dict.fromkeys(ident.variables, 0)
                reference = CheckOutcome(Verdict.NOT_APPLICABLE, Method.BRUTE_FORCE,
                                         na_reason=engine._na_reason(ident, zeros, g))
            seen[reference.verdict] += 1
            expected.append((entry_id, reference))
        assert engine.classify(g) == expected, triple  # CheckOutcome == compares to_dict()'s fields
    assert min(seen.values()) > 10_000, seen


def test_symbolic_takes_no_negative_power_of_a_non_unit():
    # b = 2 is no unit mod 6: a law that needs it is NA, and nothing raises
    # from the b^-1 and b^-2 of its residual.
    ident = get_entry("l_wip").identity
    assert ident.residual.units == ("b",)
    assert any(eb < 0 for part in (ident.residual.constant, *ident.residual.coeffs.values())
               for _, _, eb, _ in part)
    g = LinearGroupoid(6, 1, 2, 5)
    assert holds_symbolic(g, ident).to_dict() == {
        "verdict": "not_applicable", "method": "symbolic",
        "na_reason": "b = 2 is not a unit mod 6"}
    assert dict(engine.classify(g))["l_wip"].verdict is Verdict.NOT_APPLICABLE


def test_classify_takes_each_power_once(monkeypatch):
    # classify evaluates the catalog's residuals from one basis of distinct
    # monomials, built from powers of a, b and c each taken once.  pow is
    # counted in termlang and modring, where a per-term evaluation (poly_value)
    # would take about 1,800 powers for one groupoid.
    from linquas import modring, termlang

    g = LinearGroupoid(7, 3, 5, 2)  # a quasigroup: no law is NA, so no reason is built
    engine.classify(g)  # the catalog's rows are compiled on the first call
    basis = engine._catalog_laws()[1].basis
    assert len(basis) == len(set(basis)) == 34
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    for module in (termlang, modring):
        monkeypatch.setattr(module, "pow", counted, raising=False)
    engine.classify(g)
    assert 0 < len(calls) <= len(basis), len(calls)


def test_crosscheck_clean_rows():
    entry = get_entry("unipotent")
    for row in entry.rows:
        report = crosscheck(entry, row, list(range(2, 9)))
        assert report.clean and report.checked > 0
    entry = get_entry("medial")
    report = crosscheck(entry, entry.rows[0], list(range(2, 7)))
    assert report.clean


def test_crosscheck_prime_rows_sweep_primes_only():
    entry = get_entry("stein_third")
    report = crosscheck(entry, entry.rows[2], list(range(2, 13)))
    assert report.n_values == [2, 3, 5, 7, 11]


def test_crosscheck_finds_known_incorrect_rows():
    # the prime-modulus rows for the Stein third law admit condition-true
    # triples whose groupoid fails the law (a nonzero, b + c = 1 branch)
    entry = get_entry("stein_third")
    report = crosscheck(entry, entry.rows[2], list(range(2, 6)))
    got = [(m.n, m.a, m.b, m.c) for m in report.mismatches]
    assert got == [(5, a, b, c) for a in range(1, 5) for b, c in ((2, 4), (4, 2))]
    assert all(m.condition_verdict and m.oracle_verdict == "fails"
               for m in report.mismatches)


def test_crosscheck_requires_identity():
    slim = get_entry("slim")
    with pytest.raises(ValueError):
        crosscheck(slim, slim.rows[0], [2, 3])
    for workers in (1, 2):  # raised before any task runs
        with pytest.raises(ValueError, match="no defining identity"):
            universality_scan(["slim"], [2, 3], workers=workers)


def test_crosscheck_all_deterministic_across_workers():
    # stein_third and r_wip mix Z_n and Z_p rows, hypotheses and mismatches;
    # workers changes no byte
    ids = ["unipotent", "commutative", "abel_grassman", "stein_third", "r_wip"]
    n_values = list(range(2, 7))
    one = [r.to_dict() for r in crosscheck_all(n_values, ids, workers=1)]
    two = [r.to_dict() for r in crosscheck_all(n_values, ids, workers=2)]
    again = [r.to_dict() for r in crosscheck_all(n_values, ids, workers=2)]
    assert json.dumps(one) == json.dumps(two) == json.dumps(again)
    assert all(r["mismatch_count"] == 0 for r in one if r["entry"] in ids[:3])
    assert any(r["mismatch_count"] for r in one)
    assert any(r["na_excluded"] for r in one)
    # the one-row plan gives the same report as the whole-law plan
    per_row = [crosscheck(get_entry(i), row, n_values).to_dict()
               for i in ids for row in get_entry(i).rows]
    assert per_row == one


def test_search_witnesses_examples():
    entry = get_entry("stein_third")
    row = entry.rows[0]
    found = search_witnesses(entry, row, list(range(2, 6)), limit=3)
    triples = [(w.n, w.a, w.b, w.c) for w in found]
    assert triples == [(5, 0, 1, 3), (5, 0, 2, 4), (5, 0, 3, 1)]
    for w in found:
        out = holds_bruteforce(LinearGroupoid(w.n, w.a, w.b, w.c), entry.identity)
        assert out.verdict is Verdict.HOLDS
    assert search_witnesses(entry, row, list(range(2, 6)), limit=1) == found[:1]


def test_search_respects_structure_and_hypothesis():
    entry = get_entry("lip")
    row = entry.rows[1]  # quasigroup, prime modulus, a != 0
    found = search_witnesses(entry, row, list(range(2, 14)), limit=1)
    assert [(w.n, w.a, w.b, w.c) for w in found] == [(2, 1, 1, 1)]
    assert found[0].structure_kind == "quasigroup"
    empty = search_witnesses(get_entry("schroder_second"),
                             get_entry("schroder_second").rows[1],
                             list(range(2, 13)), limit=1)
    assert empty == []


@pytest.mark.parametrize("limit", [0, -1])
def test_search_rejects_a_limit_below_one_before_scanning(monkeypatch, limit):
    # commutative row 0 holds at (2, 0, 0, 0), the first triple visited
    calls = []
    monkeypatch.setattr(engine, "holds_bruteforce", lambda *args, **kw: calls.append(args))
    entry = get_entry("commutative")
    with pytest.raises(ValueError, match="limit must be at least 1"):
        search_witnesses(entry, entry.rows[0], [2, 3], limit=limit)
    assert calls == []


def test_crosscheck_rejects_a_repeated_modulus_before_any_task(monkeypatch):
    # [3, 3] would sweep the 27 triples of n = 3 twice (checked 54)
    tasks = []
    monkeypatch.setattr(engine, "_crosscheck_task", lambda *task: tasks.append(task))
    for n_values in ([3, 3], [2, 3, 4, 3]):
        with pytest.raises(ValueError, match=r"repeated: \[3\]"):
            crosscheck_all(n_values, ["commutative"])
    # Z_1 has no prime-power factor, so a sweep at n = 1 would read every
    # triple as holds; no modulus below 2 is planned
    for n_values in ([1], [0], [-3], [1, 2]):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {min(n_values)}"):
            crosscheck_all(n_values, ["commutative"])
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            universality_scan(["idempotent"], n_values)
    assert tasks == []


def test_search_rejects_a_repeated_modulus_before_scanning(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "holds_bruteforce", lambda *args, **kw: calls.append(args))
    entry = get_entry("commutative")
    with pytest.raises(ValueError, match=r"repeated: \[2, 3\]"):
        search_witnesses(entry, entry.rows[0], [3, 2, 3, 2], limit=5)
    # c_law row 2 (a!=0) admits no triple at n = 1, and still n = 1 is refused
    c_law = get_entry("c_law")
    for n_values in ([1], [0], [-3], [1, 2]):
        for searched, row in ((entry, entry.rows[0]), (c_law, c_law.rows[2])):
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {min(n_values)}"):
                search_witnesses(searched, row, n_values)
    assert calls == []


def _groupoid_per_triple_search(entry, row, n_values, limit):
    """search_witnesses written as it was before triples were admitted from
    their residues: a groupoid per visited triple, the row's hypothesis read
    on it, then the oracle."""
    found = []
    for n in sorted(n_values):
        if row.modulus_kind is ModulusKind.PRIME_P and not is_prime(n):
            continue
        for abc in itertools.product(range(n), repeat=3):
            g = LinearGroupoid(n, *abc)
            if (row_sweep_admits(row, g)
                    and holds_bruteforce(g, entry.identity).verdict is Verdict.HOLDS):
                found.append(engine.Witness(*g.triple(), entry.id, row.label(),
                                            row.structure_kind.value))
                if len(found) >= limit:
                    return found
    return found


def test_search_equals_a_groupoid_per_triple_search():
    n_values, seen = list(range(2, 7)), Counter()
    for entry in catalog_entries():
        if entry.identity is None:
            continue
        for row in entry.rows:
            found = search_witnesses(entry, row, n_values, limit=3)
            assert found == _groupoid_per_triple_search(entry, row, n_values, 3), row.label()
            seen[row.modulus_kind, len(found)] += 1
    # Zp rows, rows with no witness and rows that reach the limit are all met
    assert seen[ModulusKind.PRIME_P, 3] and seen[ModulusKind.PRIME_P, 0]
    assert seen[ModulusKind.ANY_N, 3] and seen[ModulusKind.ANY_N, 0]


def test_search_builds_a_groupoid_only_for_each_admitted_triple(monkeypatch):
    # the search admits a triple from its residues and builds its groupoid
    # only for the oracle call: one groupoid per admitted triple it visits,
    # counted from row_sweep_mask in lexicographic order up to its witness
    built = []

    class Counted(LinearGroupoid):
        def __post_init__(self):
            super().__post_init__()
            built.append(self.triple())

    monkeypatch.setattr(engine, "LinearGroupoid", Counted)
    n_values = list(range(2, 8))
    for entry in catalog_entries():
        if entry.identity is None:
            continue
        for row in entry.rows:
            built.clear()
            found = search_witnesses(entry, row, n_values, limit=1)
            admitted = []
            for n in n_values:
                if row.modulus_kind is ModulusKind.ANY_N or is_prime(n):
                    admitted += [(n, *map(int, np.unravel_index(i, (n,) * 3)))
                                 for i in np.flatnonzero(row_sweep_mask(row, n))]
            if found:
                admitted = admitted[:admitted.index((found[0].n, found[0].a, found[0].b,
                                                     found[0].c)) + 1]
            assert built == admitted, row.label()


def test_universality_scan_small():
    assert universality_scan(["medial", "e_l"], list(range(2, 7))) == []


def test_universality_scan_lists_every_failing_triple():
    ids = ["associative", "commutative", "r_aip", "stein_third"]
    n_values = list(range(2, 9))
    expected = [(i, n, a, b, c) for i in ids for n in n_values
                for a in range(n) for b in range(n) for c in range(n)
                if holds_bruteforce(LinearGroupoid(n, a, b, c),
                                    get_entry(i).identity).verdict is Verdict.FAILS]
    assert [sum(v[0] == i for v in expected) for i in ids] == [1177, 1092, 0, 1283]
    assert universality_scan(ids, n_values, workers=1) == expected
    assert universality_scan(ids, n_values, workers=2) == expected


def test_verify_examples_findings():
    findings = verify_examples()
    sources = [f.source for f in findings]
    assert sources == sorted(sources)
    assert "text:stein_third:groupoid" in sources
    assert "text:stein_third:quasigroup" in sources
    # consistent cells must not appear
    for good in ("table:20.0:abel_grassman", "table:34.2:r_bol",
                 "table:02.1:unipotent", "text:r_cip_1:groupoid",
                 "text:external_medial:quasigroup"):
        assert good not in sources
    by_source = {f.source: f for f in findings}
    stein = by_source["text:stein_third:groupoid"]
    assert (stein.n, stein.a, stein.b, stein.c) == (5, 0, 2, 3)
    assert "condition fails" in stein.observed and "identity fails" in stein.observed


def test_verify_examples_is_deterministic():
    one = [f.to_dict() for f in verify_examples()]
    two = [f.to_dict() for f in verify_examples()]
    assert one == two


def test_verify_examples_checks_each_law_and_triple_once(monkeypatch):
    # every example calls the oracle, and examples that share a law and a
    # triple share its memo: each of the 113 pairs is evaluated once.  108
    # of them fit one chunk (n**k <= BLOCK // 8) and are one block of two
    # sides.  The other five, l_bol, lc4, r_bol, rc1 and rc4 at n = 63
    # (63**3 = 250,047 assignments, one block while single checks were
    # sized by BLOCK), hold and so scan all nine of their blocks: the slab
    # x = 0, then x = 1..7, then seven more of up to eight leading values.
    op_tables.cache_clear()
    calls = []
    oracle = engine.holds_bruteforce
    monkeypatch.setattr(engine, "holds_bruteforce",
                        lambda g, ident, cap: calls.append((g, ident)) or oracle(g, ident, cap))
    evals = _top_level_evals(monkeypatch)
    verify_examples()
    assert (len(calls), len(set(calls))) == (174, 113)
    assert len(evals) == 2 * 108 + 2 * 9 * 5 == 306


@pytest.fixture
def one_value_per_block(monkeypatch):
    """BLOCK = 1: every leading value is its own block.  The op_tables
    cache starts empty, so that no memoized verdict answers for the scan."""
    op_tables.cache_clear()
    monkeypatch.setattr(engine, "BLOCK", 1)


def _reference(g, ident):
    """(verdict, counterexample, na_reason, the deciding assignment), by
    termlang.evaluate over every assignment in lexicographic order."""
    from itertools import product

    from linquas.termlang import NotApplicable, evaluate

    first_fail = None
    for values in product(range(g.n), repeat=len(ident.variables)):
        env = dict(zip(ident.variables, values))
        lhs, rhs = (evaluate(side, env, g) for side in (ident.lhs, ident.rhs))
        for side in (lhs, rhs):
            if isinstance(side, NotApplicable):
                return Verdict.NOT_APPLICABLE, None, side.reason, env
        if first_fail is None and lhs != rhs:
            first_fail = env
    if first_fail is None:
        return Verdict.HOLDS, None, None, None
    return Verdict.FAILS, first_fail, None, first_fail


def test_blocks_match_scalar_reference_on_random_identities(monkeypatch,
                                                            one_value_per_block):
    # The verdict, the first counterexample and the first undefined
    # assignment must come out of the block scan, not out of one block, for
    # int8 tables built whole and, with groupoid.BLOCK = 0, one row a block.
    from test_termlang import _random_term

    from linquas.termlang import Identity

    rng = random.Random(31415)
    cases = []
    for _ in range(1000):
        n = rng.randint(2, 6)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        cases.append((g, Identity(_random_term(rng, rng.randint(1, 3)),
                                  _random_term(rng, rng.randint(1, 3)))))
    for entry in catalog_entries():  # laws that hold somewhere
        if entry.identity is not None:
            n = rng.randint(2, 5)
            g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
            cases.append((g, entry.identity))
    cases = [(g, ident) for g, ident in cases if g.n ** len(ident.variables) <= 2000]
    expected = [_reference(g, ident) for g, ident in cases]
    seen = {verdict: 0 for verdict in Verdict}
    past_first_block = 0
    for (_, ident), (verdict, _, _, deciding) in zip(cases, expected):
        seen[verdict] += 1
        past_first_block += bool(deciding and deciding[ident.variables[0]] > 0)
    assert min(seen.values()) >= 50, seen
    assert past_first_block >= 10, past_first_block
    assert len(engine._blocks(6, 3, engine.BLOCK // 8)) == 6
    for (g, ident), (verdict, _, _, _) in zip(cases, expected):
        assert holds_symbolic(g, ident).verdict is verdict, (g, ident)
    try:
        for block in (groupoid.BLOCK, 0):
            monkeypatch.setattr(groupoid, "BLOCK", block)
            op_tables.cache_clear()
            for (g, ident), (verdict, counterexample, na_reason, _) in zip(cases, expected):
                out = holds_bruteforce(g, ident)
                assert (out.verdict, out.counterexample, out.na_reason) == \
                    (verdict, counterexample, na_reason), (g, ident, block)
                assert op_tables(g.triple()).mul.dtype == np.int8
    finally:
        op_tables.cache_clear()


def test_stacked_members_match_scalar_reference_on_random_identities(monkeypatch):
    # A sweep's holds_bruteforce call on a StackMember reads its outcome from
    # one evaluation of the whole stack.  On every triple of a small modulus,
    # the full outcome (verdict, first counterexample, NA reason) must equal
    # the scalar reference's.  engine.BLOCK = 240 makes chunks of 30 cells,
    # so that chunks split the stacks (one stack holds every triple at
    # n <= 4), and a member with n**k > 30 is scanned in several blocks of
    # its own; groupoid.BLOCK = 0 makes one-groupoid stacks of int8 tables.
    from test_termlang import _random_term

    from linquas.termlang import Identity

    op_tables.cache_clear()
    rng = random.Random(27182)
    idents = [Identity(_random_term(rng, rng.randint(1, 3)), _random_term(rng, rng.randint(1, 3)))
              for _ in range(80)]
    idents += [entry.identity for entry in catalog_entries() if entry.identity is not None]
    cases = []
    for ident in idents:
        k = len(ident.variables)
        n = rng.choice([n for n in (2, 3, 4) if n ** (k + 3) <= 3 ** 6])
        groupoids = [LinearGroupoid(n, *abc) for abc in np.ndindex(n, n, n)]
        cases.append((ident, groupoids, [_reference(g, ident)[:3] for g in groupoids]))
    seen = {verdict: 0 for verdict in Verdict}
    for _, _, expected in cases:
        for verdict, _, _ in expected:
            seen[verdict] += 1
    assert min(seen.values()) >= 200, seen
    # chunks of several members that still split the one stack
    assert sum(1 < 30 // groupoids[0].n ** len(ident.variables) < len(groupoids)
               for ident, groupoids, _ in cases) >= 20
    monkeypatch.setattr(engine, "BLOCK", 240)
    for block in (groupoid.BLOCK, 0):
        monkeypatch.setattr(groupoid, "BLOCK", block)
        for ident, groupoids, expected in cases:
            members = stacked(groupoids)
            got = [holds_bruteforce(g, ident, tables=m) for g, m in zip(groupoids, members)]
            assert [(o.verdict, o.counterexample, o.na_reason) for o in got] == expected, ident


def test_symbolic_matches_scalar_reference_on_deep_random_identities():
    # Random identities of depth up to 5, and ((x/y)/y)/y = x on every
    # triple of n = 2..6, whose residual has b^-3: exponents outside the
    # catalog's -2..3 must pass through the compiled rows as well.
    from test_termlang import _random_term

    from linquas.termlang import Identity

    def exponents(ident):
        residual = ident.residual
        return {e for part in (residual.constant, *residual.coeffs.values())
                for _, *monomial in part for e in monomial}

    rng = random.Random(16180)
    cases = []
    while len(cases) < 400:
        n = rng.randint(2, 6)
        g = LinearGroupoid(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        ident = Identity(_random_term(rng, rng.randint(1, 5)), _random_term(rng, rng.randint(1, 5)))
        if n ** len(ident.variables) <= 300:
            cases.append((g, ident))
    beyond = sum(not exponents(ident) <= set(range(-2, 4)) for _, ident in cases)
    cube = parse("((x/y)/y)/y = x")
    assert min(exponents(cube)) == -3
    cases += [(LinearGroupoid(n, a, b, c), cube)
              for n in range(2, 7) for a in range(n) for b in range(n) for c in range(n)]
    seen = {verdict: 0 for verdict in Verdict}
    for g, ident in cases:
        verdict = _reference(g, ident)[0]
        assert holds_symbolic(g, ident).verdict is verdict, (g, ident)
        seen[verdict] += 1
    assert beyond >= 50 and min(seen.values()) >= 40, (beyond, seen)


def test_bruteforce_scans_for_undefined_values_past_a_failing_block(monkeypatch,
                                                                  one_value_per_block):
    # Over linear groupoids each operation is undefined everywhere or
    # nowhere, so use a groupoid whose last row is constant: x\y is defined
    # for x < 3 (x = 0 already fails the law) and undefined for x = 3.
    table = np.array([[1, 0, 3, 2], [0, 1, 2, 3], [2, 3, 0, 1], [0, 0, 0, 0]])
    tables = OpTables(np.pad(table, (0, 1), constant_values=-1)[None])
    monkeypatch.setattr(engine, "op_tables", lambda triple: tables)
    g = LinearGroupoid(4, 0, 1, 1)
    assert holds_bruteforce(g, parse("x*y = y")).counterexample == {"x": 0, "y": 0}
    assert holds_bruteforce(g, parse("x\\y = y")).verdict is Verdict.NOT_APPLICABLE


def _scalar_first_failure(g, ident, assignments) -> dict[str, int] | None:
    """The first of the value tuples at which termlang.evaluate finds the
    two sides different, as an assignment."""
    from linquas.termlang import evaluate

    for values in assignments:
        env = dict(zip(ident.variables, values))
        if evaluate(ident.lhs, env, g) != evaluate(ident.rhs, env, g):
            return env
    return None


def _top_level_evals(monkeypatch) -> list:
    """Wrap engine._eval_stack, where every check evaluates; the list gets
    the arguments after the term of each call made from outside it, that
    is one entry per side of the identity per block or chunk."""
    calls, depth = [], []
    evaluate = engine._eval_stack

    def counted(term, *args):
        if not depth:
            calls.append(args)
        depth.append(term)
        try:
            return evaluate(term, *args)
        finally:
            depth.pop()

    monkeypatch.setattr(engine, "_eval_stack", counted)
    return calls


def test_bruteforce_stops_at_the_first_failing_block_of_a_quasigroup(monkeypatch,
                                                                     one_value_per_block):
    # A quasigroup's tables are total, so nothing past the block with the
    # first counterexample can change the verdict: x = 1 is the second of
    # five blocks, so two blocks of two sides each are evaluated.
    from itertools import product

    calls = _top_level_evals(monkeypatch)
    for entry_id, g in (("lip", LinearGroupoid(5, 0, 1, 4)),
                        ("r_wip", LinearGroupoid(5, 0, 2, 2))):
        ident = get_entry(entry_id).identity
        reference = _scalar_first_failure(g, ident, product(range(g.n), repeat=2))
        calls.clear()
        out = holds_bruteforce(g, ident)
        assert (out.verdict, out.counterexample) == (Verdict.FAILS, reference), entry_id
        assert reference[ident.variables[0]] == 1 and len(calls) == 4, entry_id


def _last_row_constant(monkeypatch) -> OpTables:
    # x\y and y/x are undefined for x = 3 only; mul is total
    table = np.array([[1, 0, 3, 2], [0, 1, 2, 3], [2, 3, 0, 1], [0, 0, 0, 0]])
    tables = OpTables(np.pad(table, (0, 1), constant_values=-1)[None])
    monkeypatch.setattr(engine, "op_tables", lambda triple: tables)
    return tables


def test_bruteforce_stops_early_when_only_unread_tables_are_undefined(monkeypatch,
                                                                     one_value_per_block):
    tables = _last_row_constant(monkeypatch)
    calls = _top_level_evals(monkeypatch)
    out = holds_bruteforce(LinearGroupoid(4, 0, 1, 1), parse("x*y = y"))
    assert (out.verdict, out.counterexample) == (Verdict.FAILS, {"x": 0, "y": 0})
    assert len(calls) == 2  # block x = 0 only, of four
    assert set(vars(tables)) == {"n", "mul", "flags"}
    assert tables.ldiv[0, :4, :4].min() == tables.rdiv[0, :4, :4].min() == -1


def test_bruteforce_scans_on_when_a_read_unary_table_is_undefined(monkeypatch,
                                                                 one_value_per_block):
    # er(x) = x fails at x = 0, and e_rho's body is [1, 1, 0, -1]: only its
    # last cell is undefined, so every block is scanned and the check is
    # not applicable (the linear groupoid itself is total, hence the reason)
    tables = _last_row_constant(monkeypatch)
    calls = _top_level_evals(monkeypatch)
    out = holds_bruteforce(LinearGroupoid(4, 0, 1, 1), parse("er(x) = x"))
    assert tables.e_rho[0, :4].tolist() == [1, 1, 0, -1]
    assert (out.verdict, out.na_reason) == (Verdict.NOT_APPLICABLE, "undefined subterm")
    assert len(calls) == 8


def test_bruteforce_keeps_the_first_counterexample_on_tables_that_are_not_total(
        monkeypatch, one_value_per_block):
    # e_rho's body is [1, 1, 0, -1], but y*y is never 3, so er(y*y) is
    # always defined: no assignment is undefined, yet a table the law reads
    # is not total, so every block is scanned, and the counterexample of
    # the first block (x = 0) must outlast the later ones, of which the
    # last (x = 3) holds
    tables = _last_row_constant(monkeypatch)
    calls = _top_level_evals(monkeypatch)
    law = parse("x*x = x*er(y*y)")
    out = holds_bruteforce(LinearGroupoid(4, 0, 1, 1), law)
    assert engine._total(law, tables).tolist() == [False]
    assert (out.verdict, out.counterexample) == (Verdict.FAILS, {"x": 0, "y": 0})
    assert len(calls) == 8


def test_bruteforce_reads_no_undefined_flags_once_its_tables_are_total(monkeypatch,
                                                                      one_value_per_block):
    # medial reads only mul, total on every linear groupoid, and holds on
    # each: after the first of five blocks, _total is asked once, and each
    # block then reads only its failing flags (_firsts).  A one-block check
    # never asks _total and reads both flags (_first); the cache is cleared
    # before it, so that the scan's memoized verdict does not answer for it.
    firsts, totals = [], []
    first, scanned, total = engine._first, engine._firsts, engine._total
    monkeypatch.setattr(engine, "_first", lambda *args: firsts.append(1) or first(*args))
    monkeypatch.setattr(engine, "_firsts", lambda *args: firsts.append(1) or scanned(*args))
    monkeypatch.setattr(engine, "_total", lambda *args: totals.append(1) or total(*args))
    g, medial = LinearGroupoid(5, 1, 2, 3), get_entry("medial").identity
    assert holds_bruteforce(g, medial).verdict is Verdict.HOLDS
    assert (len(firsts), len(totals)) == (5, 1)
    monkeypatch.setattr(engine, "BLOCK", groupoid.BLOCK)
    op_tables.cache_clear()
    firsts.clear()
    totals.clear()
    assert holds_bruteforce(g, medial).verdict is Verdict.HOLDS
    assert (len(firsts), len(totals)) == (2, 0)


def test_sweep_stacks_follow_the_na_rule(monkeypatch):
    # engine.BLOCK = 240 makes chunks of 30 cells.  At n = 3 a stack is
    # scanned prefix first: the slab x = 0 (3 cells, ten members a chunk)
    # for every member, then x = 1..2 (6 cells, five members a chunk) for
    # the members the slab left undecided.  _total is asked once, after the
    # first chunk.  The twelve quasigroups' tables are total and each holds,
    # so no chunk reads its undefined flags: one _firsts call per chunk, two
    # slab chunks and three for the rest.  A c = 0 member leaves ldiv
    # undefined: the slab chunk that holds it reads both flags, and that
    # member is not applicable in the slab, as in a single check, so the
    # rest is the quasigroups' three chunks again.
    op_tables.cache_clear()
    firsts, totals = [], []
    scanned, total = engine._firsts, engine._total
    monkeypatch.setattr(engine, "_firsts", lambda *args: firsts.append(1) or scanned(*args))
    monkeypatch.setattr(engine, "_total", lambda *args: totals.append(1) or total(*args))
    monkeypatch.setattr(engine, "BLOCK", 240)
    ident = parse("x\\(x*y) = y")
    quasigroups = [LinearGroupoid(3, a, b, c) for a in range(3) for b in (1, 2) for c in (1, 2)]
    for groupoids, calls in ((quasigroups, 2 + 3), (quasigroups + [LinearGroupoid(3, 1, 2, 0)],
                                                    1 + 2 + 3)):
        single = [holds_bruteforce(g, ident) for g in groupoids]
        firsts.clear()
        totals.clear()
        got = [holds_bruteforce(g, ident, tables=m)
               for g, m in zip(groupoids, stacked(groupoids))]
        assert got == single
        assert (len(totals), len(firsts)) == (1, calls)
    assert got[-1].verdict is Verdict.NOT_APPLICABLE
    assert {o.verdict for o in got[:-1]} == {Verdict.HOLDS}


def test_sweep_members_decided_in_their_first_slab_are_not_scanned_further(monkeypatch):
    # One stack of four members at n = 3, for a law that reads \: one fails
    # at x = 0, the c = 0 one is not applicable (ldiv is undefined
    # throughout), one first fails at x = 1 and one holds.  The first two
    # are decided in the slab x = 0 (9 of 27 assignments); only the last two
    # are evaluated past it.
    op_tables.cache_clear()
    ident = parse("x\\(y*z) = (x\\y)*(x\\z)")
    groupoids = [LinearGroupoid(3, *abc) for abc in ((1, 1, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1))]
    single = [holds_bruteforce(g, ident) for g in groupoids]
    assert [o.verdict for o in single] == [Verdict.FAILS, Verdict.NOT_APPLICABLE,
                                           Verdict.FAILS, Verdict.HOLDS]
    assert [o.counterexample["x"] for o in single if o.counterexample] == [0, 1]
    calls = _top_level_evals(monkeypatch)
    got = [holds_bruteforce(g, ident, tables=m)
           for g, m in zip(groupoids, stacked(groupoids))]
    assert got == single
    evaluated = [0] * len(groupoids)
    for env, _, rows in calls:
        cells = np.prod(np.broadcast_shapes(*(values.shape for values in env.values())))
        for member in rows.ravel() // (3 + 1):
            evaluated[member] += cells
    assert evaluated == [2 * 9, 2 * 9, 2 * 27, 2 * 27]  # two sides each


def test_sweep_members_that_read_undefined_cells_scan_on_past_their_slab(monkeypatch):
    # A stack of the last-row-constant table, where x\\y is undefined for
    # x = 3 only, and of (4, 0, 1, 1).  The first member fails at (0, 0), in
    # the slab x = 0, but reads a table that is not total, so its scan goes
    # on to its first undefined assignment, (3, 0); the second, a
    # quasigroup, first fails at (1, 0), past the slab.
    mul = np.concatenate([_last_row_constant(monkeypatch).mul, op_tables((4, 0, 1, 1)).mul])
    assert engine._scan(parse("x\\y = y"), OpTables(mul)) == ((12, 0), (-1, 4))


def test_sweep_outcomes_equal_single_checks(monkeypatch, oracle_up_to_6):
    # Every catalog law on every triple of n = 2..7, checked as a sweep
    # checks it (one scan of a stack) and as a single check (one block,
    # which never reaches the stack scan): the verdict, the
    # first counterexample and the NA reason must agree.  engine.BLOCK =
    # 8 * 7**4 makes chunks of 2,401 cells: every member still fits one
    # chunk, but at n = 7 the slab pass and the full pass split into several
    # (k = 3: 49 members a slab chunk, 8 a chunk of the rest; k = 4: 7 and 1).
    op_tables.cache_clear()
    laws = [e for e in catalog_entries() if e.identity is not None]
    cases = [(entry, [LinearGroupoid(n, *abc) for abc in np.ndindex(n, n, n)])
             for entry in laws for n in range(2, 8)]
    single = {}
    for entry, groupoids in cases:
        single[entry.id, groupoids[0].n] = [
            oracle_up_to_6[entry.id, g.triple()] if g.n < 7 else holds_bruteforce(g, entry.identity)
            for g in groupoids]
    for block in (engine.BLOCK, 8 * 7**4):
        monkeypatch.setattr(engine, "BLOCK", block)
        for entry, groupoids in cases:
            got = [holds_bruteforce(g, entry.identity, tables=m)
                   for g, m in zip(groupoids, stacked(groupoids))]
            assert got == single[entry.id, groupoids[0].n], (entry.id, groupoids[0].n, block)


def test_large_sweep_members_stop_at_their_first_failing_block(monkeypatch):
    # engine.BLOCK = 8 makes chunks of one cell, so each member of a stack
    # of quasigroups at n = 5 is scanned alone, in five blocks of one
    # leading value.  Its tables are total, so a failing member evaluates
    # only the blocks up to its first counterexample, and every outcome
    # equals the single check's.
    op_tables.cache_clear()
    monkeypatch.setattr(engine, "BLOCK", 8)
    ident = get_entry("lip").identity
    groupoids = [LinearGroupoid(5, a, b, c) for a in range(5)
                 for b in range(1, 5) for c in range(1, 5)]
    single = [holds_bruteforce(g, ident) for g in groupoids]
    calls = _top_level_evals(monkeypatch)
    got = [holds_bruteforce(g, ident, tables=m)
           for g, m in zip(groupoids, stacked(groupoids))]
    assert got == single
    blocks = [out.counterexample["x"] + 1 if out.counterexample else 5 for out in got]
    assert {1, 2, 5} <= set(blocks)
    assert len(calls) == 2 * sum(blocks)


def test_scans_past_one_chunk_evaluate_the_slab_first(monkeypatch):
    # engine.BLOCK = 8 * 24 makes chunks of 24 cells, so a member of n**k
    # > 24 assignments spans several, and the first of its blocks holds
    # 24 // n**(k-1) leading values: four at (n, k) = (5, 2), two at (3, 3).
    # The scan splits the slab x = 0 off that block, for a sweep's stack
    # and for a single check alike: the first block evaluated has a leading
    # extent of 1, and every outcome equals the scalar reference's.
    from test_termlang import _random_term

    from linquas.termlang import Identity

    rng = random.Random(14142)
    idents = [entry.identity for entry in catalog_entries()
              if entry.identity is not None and len(entry.identity.variables) in (2, 3)]
    while len(idents) < 100:
        ident = Identity(_random_term(rng, rng.randint(1, 3)), _random_term(rng, rng.randint(1, 3)))
        if len(ident.variables) in (2, 3):
            idents.append(ident)
    monkeypatch.setattr(engine, "BLOCK", 8 * 24)
    op_tables.cache_clear()
    calls = _top_level_evals(monkeypatch)
    seen = {verdict: 0 for verdict in Verdict}
    for ident in idents:
        lead, k = ident.variables[0], len(ident.variables)
        n = {2: 5, 3: 3}[k]
        assert engine._blocks(n, k, 24)[0][1][0].shape[1] > 1
        groupoids = [LinearGroupoid(n, *abc) for abc in rng.sample(list(np.ndindex(n, n, n)), 12)]
        expected = [_reference(g, ident)[:3] for g in groupoids]
        calls.clear()
        swept = [holds_bruteforce(g, ident, tables=m)
                 for g, m in zip(groupoids, stacked(groupoids))]
        assert calls[0][0][lead].shape[1] == 1, ident
        assert [(o.verdict, o.counterexample, o.na_reason) for o in swept] == expected, ident
        for g, (verdict, counterexample, na_reason) in zip(groupoids[:3], expected):
            calls.clear()
            out = holds_bruteforce(g, ident)
            assert calls[0][0][lead].shape[1] == 1, (g, ident)
            assert (out.verdict, out.counterexample, out.na_reason) == \
                (verdict, counterexample, na_reason), (g, ident)
            seen[verdict] += 1
    assert min(seen.values()) >= 20, seen


def test_blocks_share_one_grid():
    # A large check's blocks slice one leading grid and share the trailing
    # one: at n = 3162, 317 blocks of one arange(n) each would hold 317 x
    # 25 KB.
    blocks = engine._blocks(3162, 2, engine.BLOCK // 8)
    lead, trailing = blocks[0][1]
    assert len(blocks) == 317
    for _, (values, rest) in blocks:
        assert rest is trailing and values.base is lead.base is not None


def test_total_reads_every_member_of_a_stack():
    # c = 0 leaves ldiv and e_rho undefined, in the last of four members
    groupoids = [LinearGroupoid(3, a, 1, 1) for a in range(3)] + [LinearGroupoid(3, 0, 1, 0)]
    stack = next(stacked(groupoids)).stack
    for law in ("x\\y = y", "er(x) = x"):
        assert engine._total(parse(law), stack).tolist() == [True, True, True, False], law
        assert engine._total(parse(law), OpTables(stack.mul[:3])).all(), law
        assert engine._total(parse(law), OpTables(stack.mul[3:])).tolist() == [False]


def test_bruteforce_memory_is_bounded_at_the_cap():
    # ~10**7 assignments each: medial at n = 56 holds (a full scan); r_aaip
    # and l_aaip at n = 3162 hold reading rho or lam, each scanned straight
    # from mul, and r_aaip fails on total tables (so the scan stops at its
    # first failing block).  The window covers building the tables, which
    # are int16 at n = 3162.
    import tracemalloc

    cases = [("medial", LinearGroupoid(56, 3, 5, 7), Verdict.HOLDS),
             ("r_aaip", LinearGroupoid(3162, 2544, 947, 947), Verdict.HOLDS),
             ("l_aaip", LinearGroupoid(3162, 2544, 947, 947), Verdict.HOLDS),
             ("r_aaip", LinearGroupoid(3162, 852, 1658, 1925), Verdict.FAILS)]
    try:
        for entry_id, g, verdict in cases:
            ident = get_entry(entry_id).identity
            op_tables.cache_clear()
            tracemalloc.start()
            try:
                out = holds_bruteforce(g, ident)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.verdict is holds_symbolic(g, ident).verdict is verdict
            assert peak < 64 * 2**20, (entry_id, peak)
            if verdict is Verdict.FAILS:  # found in the row x = 0
                row = ((0, y) for y in range(g.n))
                assert out.counterexample == _scalar_first_failure(g, ident, row)
    finally:
        op_tables.cache_clear()


def test_tables_are_built_on_first_use():
    # medial reads only mul; r_aaip reads rho and l_aaip lam, each scanned
    # from mul through its local identity, with no division table
    cases = [("medial", LinearGroupoid(12, 5, 7, 1), set()),
             ("r_aaip", LinearGroupoid(11, 2, 4, 4), {"e_rho", "rho"}),
             ("l_aaip", LinearGroupoid(11, 2, 4, 4), {"e_lam", "lam"})]
    try:
        for entry_id, g, scanned in cases:
            op_tables.cache_clear()
            assert holds_bruteforce(g, get_entry(entry_id).identity).verdict is Verdict.HOLDS
            assert set(vars(op_tables(g.triple()))) == {"n", "mul", "flags", *scanned}, entry_id
    finally:
        op_tables.cache_clear()


def test_sweeps_build_tables_on_first_use(monkeypatch):
    # the sweep's stacks scan only the kinds the law reads, as op_tables does;
    # flags holds the law's evaluation over the stack (engine.holds_bruteforce)
    stacks = []

    def recorded(*args):
        for member in stacked_op_tables(*args):
            stacks.append(member.stack)
            yield member

    monkeypatch.setattr(engine, "stacked_op_tables", recorded)
    for entry_id, scanned in [("medial", set()), ("r_aaip", {"e_rho", "rho"}),
                              ("l_aaip", {"e_lam", "lam"})]:
        stacks.clear()
        crosscheck_all([5, 12], [entry_id])
        assert stacks
        assert all(set(vars(stack)) == {"n", "mul", "flags", *scanned}
                   for stack in stacks), entry_id


def test_sweeps_keep_one_stack_alive_at_a_time(monkeypatch):
    # A stack keeps its own evaluation (its flags), so it dies with
    # its last member unless something refers back to it.  The cyclic
    # collector is off, so a reference cycle through a stack would keep
    # every stack alive.
    import gc
    import weakref

    refs, alive = [], []
    oracle = engine.holds_bruteforce

    def recorded(*args):
        for member in stacked_op_tables(*args):
            if not refs or refs[-1]() is not member.stack:
                refs.append(weakref.ref(member.stack))
            yield member

    def counted(g, ident, cap, tables=None):
        alive.append(sum(ref() is not None for ref in refs))
        return oracle(g, ident, cap, tables=tables)

    monkeypatch.setattr(engine, "stacked_op_tables", recorded)
    monkeypatch.setattr(engine, "holds_bruteforce", counted)
    gc.disable()
    try:
        crosscheck_all([5, 12, 16], ["medial", "r_aaip", "l_saip", "cm_7"])
    finally:
        gc.enable()
    assert len(refs) > 8 and max(alive) == 1


def test_sweeps_keep_one_slice_of_groupoids_alive_at_a_time(monkeypatch):
    # engine.BLOCK = 8 * 50: a law's verdict cube at a prime power builds
    # its residue arrays and stack members 50 class representatives at a
    # time, and each LinearGroupoid only at its own oracle call, so no
    # oracle call sees another of the cube's 56 alive.  Each (b, c) has one
    # class per divisor of gcd(b+c-1, 7) (see groupoid.affine_class): 42
    # pairs have one and the 7 with b + c = 1 have two, so 56 classes, two
    # slices.
    import gc
    import weakref

    refs, alive = [], []
    oracle = engine.holds_bruteforce

    def built(*args):
        g = LinearGroupoid(*args)
        refs.append(weakref.ref(g))
        return g

    def counted(g, ident, cap, tables=None):
        alive.append(sum(ref() is not None for ref in refs))
        return oracle(g, ident, cap, tables=tables)

    expected = [r.to_dict() for r in crosscheck_all([7], ["commutative", "medial"])]
    monkeypatch.setattr(engine, "LinearGroupoid", built)
    monkeypatch.setattr(engine, "holds_bruteforce", counted)
    monkeypatch.setattr(engine, "BLOCK", 8 * 50)
    gc.disable()
    try:
        got = [r.to_dict() for r in crosscheck_all([7], ["commutative", "medial"])]
    finally:
        gc.enable()
    assert got == expected
    assert len(refs) == len(alive) == 2 * 56 and max(alive) == 1


def test_a_repeated_check_evaluates_nothing(monkeypatch):
    # A one-block check, a check of several blocks (300**2 > BLOCK // 8) and a
    # sweep's members: the second check of each reads its tables' memo and
    # returns an equal outcome, with a counterexample of its own.
    op_tables.cache_clear()
    scans = _top_level_evals(monkeypatch)
    law = get_entry("commutative").identity
    for g in (LinearGroupoid(6, 1, 2, 3), LinearGroupoid(300, 1, 2, 3)):
        first = holds_bruteforce(g, law)
        done = len(scans)
        second = holds_bruteforce(g, law)
        assert done and len(scans) == done
        assert second == first and second.counterexample is not first.counterexample
        first.counterexample.clear()
        assert holds_bruteforce(g, law) == second != first
    groupoids = [LinearGroupoid(5, a, 1, 2) for a in range(5)] + [LinearGroupoid(5, 0, 3, 3)]
    members = list(stacked(groupoids))
    first = [holds_bruteforce(g, law, tables=m) for g, m in zip(groupoids, members)]
    done = len(scans)
    assert first[0].verdict is Verdict.FAILS and first[-1].verdict is Verdict.HOLDS
    assert [holds_bruteforce(g, law, tables=m) for g, m in zip(groupoids, members)] == first
    assert len(scans) == done


def test_a_single_check_past_the_cached_size_leaves_no_tables():
    # At n = 600 > CACHED_N a table has 601**2 > 2**18 cells, so a single
    # check builds its tables for itself: the LRU keeps nothing, a repeated
    # check scans again to an equal outcome, and three distinct checks end
    # within 1 MiB of where they began, where each cached int16 mul took
    # 0.7 MB.
    law = get_entry("r_aaip").identity
    g = LinearGroupoid(600, 1, 7, 11)
    assert g.n > engine.CACHED_N == 511
    cached = op_tables.cache_info().currsize
    first = holds_bruteforce(g, law)
    assert holds_bruteforce(g, law) == first
    assert op_tables.cache_info().currsize == cached
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for a in (2, 3, 4):
            holds_bruteforce(LinearGroupoid(600, a, 7, 11), law)
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end - start < 2**20


def test_a_memoized_check_is_still_held_to_the_cap():
    op_tables.cache_clear()
    g, law = LinearGroupoid(20, 1, 2, 3), get_entry("medial").identity  # 20**4 assignments
    assert holds_bruteforce(g, law).verdict is Verdict.HOLDS
    assert law in op_tables(g.triple()).flags
    with pytest.raises(CapExceeded):
        holds_bruteforce(g, law, cap=10**5)
    member = next(stacked([g]))
    holds_bruteforce(g, law, tables=member)
    with pytest.raises(CapExceeded):
        holds_bruteforce(g, law, cap=10**5, tables=member)


def test_hand_built_tables_read_no_other_tables_memo(monkeypatch):
    # x*y = y first fails at (1, 0) on (4, 0, 1, 1), but at (0, 0) on the
    # last-row-constant tables put in its place; each keeps its own memo
    op_tables.cache_clear()
    g, law = LinearGroupoid(4, 0, 1, 1), parse("x*y = y")
    assert holds_bruteforce(g, law).counterexample == {"x": 1, "y": 0}
    tables = _last_row_constant(monkeypatch)
    assert not tables.flags
    assert holds_bruteforce(g, law).counterexample == {"x": 0, "y": 0}
    own = StackMember(op_tables(g.triple()), 0)
    assert holds_bruteforce(g, law, tables=own).counterexample == {"x": 1, "y": 0}
    assert list(tables.flags) == list(op_tables(g.triple()).flags) == [law]


def test_the_memo_is_keyed_by_law(monkeypatch):
    # Two parses of one text are equal laws and share one entry.  Every
    # catalog law at one triple gets an entry of its own, even when two laws
    # are made to hash alike, and reads the outcome fresh tables give.
    op_tables.cache_clear()
    g = LinearGroupoid(6, 1, 5, 1)
    evals = _top_level_evals(monkeypatch)
    one, two = parse("x*(y*z) = (x*y)*z"), parse("x*(y*z) = (x*y)*z")
    assert one is not two and hash(one) == hash(two)
    assert holds_bruteforce(g, one) == holds_bruteforce(g, two)
    assert len(evals) == 2 and list(op_tables(g.triple()).flags) == [one]
    idempotent, trivial = parse("x*x = x"), parse("x*y = x*y")
    vars(trivial)["_hash"] = hash(idempotent)
    laws = [idempotent, trivial] + list({entry.identity for entry in catalog_entries()
                                      if entry.identity is not None})
    memoized = [holds_bruteforce(g, law) for law in laws]
    assert len(op_tables(g.triple()).flags) == 1 + len(set(laws))
    assert memoized == [
        holds_bruteforce(g, law, tables=StackMember(op_tables.__wrapped__(g.triple()), 0))
        for law in laws]
    assert [out.verdict for out in memoized[:2]] == [Verdict.FAILS, Verdict.HOLDS]


def test_no_memo_survives_a_cache_clear(monkeypatch):
    g, law = LinearGroupoid(5, 1, 2, 3), get_entry("medial").identity
    holds_bruteforce(g, law)
    assert law in op_tables(g.triple()).flags
    op_tables.cache_clear()
    assert not op_tables(g.triple()).flags
    evals = _top_level_evals(monkeypatch)
    holds_bruteforce(g, law)
    assert len(evals) == 2


def _verdicts(ident, n, triples, sweep) -> dict:
    """The oracle's verdict on each (a, b, c) at modulus n, checked as a
    sweep checks it (on stacked tables) or as a single check."""
    groupoids = [LinearGroupoid(n, *triple) for triple in triples]
    members = stacked(groupoids) if sweep else [None] * len(groupoids)
    return {g.triple()[1:]: holds_bruteforce(g, ident, tables=member).verdict
            for g, member in zip(groupoids, members)}


@pytest.mark.parametrize("small_block", [False, True])
def test_oracle_verdicts_follow_the_product_of_coprime_moduli(monkeypatch, small_block):
    # Over Z_(m1*m2) with m1, m2 coprime the groupoid is the direct product of
    # the groupoids over Z_m1 and Z_m2 (a, b, c reduced), and its divisions
    # and local elements are taken componentwise, so the oracle's verdict at
    # m1*m2 follows from its verdicts at the factors: not applicable if
    # either is, else fails if either does, else holds.  This checks the
    # oracle against itself, with no symbolic algebra.  The sweep's stacked
    # evaluation checks every case; single checks, on a random sample of
    # each case's triples, check them again with a small block
    # (engine.BLOCK = 64, groupoid.BLOCK = 0): one block up to 8
    # assignments, else a leading value a block, on int8 tables.
    worst = [Verdict.HOLDS, Verdict.FAILS, Verdict.NOT_APPLICABLE].index
    rng = random.Random(1212)
    laws = [entry.identity for entry in catalog_entries() if entry.identity is not None]
    cases = [(ident, m1, m2, list(np.ndindex(m1 * m2, m1 * m2, m1 * m2)))
             for ident in laws if len(ident.variables) <= 3 for m1, m2 in ((2, 3), (2, 5))]
    sample = rng.sample(list(np.ndindex(12, 12, 12)), 30)
    cases += [(ident, 3, 4, sample) for ident in laws]
    if small_block:
        cases = [(ident, m1, m2, rng.sample(triples, 10)) for ident, m1, m2, triples in cases]
        monkeypatch.setattr(engine, "BLOCK", 64)
        monkeypatch.setattr(groupoid, "BLOCK", 0)
    op_tables.cache_clear()
    seen = set()
    try:
        for ident, m1, m2, triples in cases:
            reduced = [sorted({(a % m, b % m, c % m) for a, b, c in triples}) for m in (m1, m2)]
            factors = [_verdicts(ident, m, at, not small_block) for m, at in zip((m1, m2), reduced)]
            for (a, b, c), verdict in _verdicts(ident, m1 * m2, triples, not small_block).items():
                parts = [at[a % m, b % m, c % m] for m, at in zip((m1, m2), factors)]
                assert verdict is max(parts, key=worst), (ident, m1 * m2, a, b, c, parts)
                seen.add((verdict, *parts))
    finally:
        op_tables.cache_clear()
    assert len(seen) == 9, seen  # every pair of factor verdicts occurs


# The moduli with two distinct prime factors that the cube test composes,
# with the prime-power factors the sweep reduces each to: every law at 6,
# 10 and 12, and the laws of at most three variables at 15.
_FACTORS = {6: (2, 3), 10: (2, 5), 12: (4, 3), 15: (3, 5)}
_COMPOSITE = [(entry, n) for entry in catalog_entries() if entry.identity is not None
              for n in _FACTORS if n < 15 or len(entry.identity.variables) <= 3]


@pytest.fixture(scope="module")
def class_cubes():
    """The oracle's verdict on every triple of each _COMPOSITE (law, n), as
    (na, holds) cubes, from one single check per isomorphism class: its
    first triple's, read back by class key (groupoid.affine_class)."""
    cubes = {}
    for entry, n in _COMPOSITE:
        keys = groupoid.affine_class(n, *np.ix_(*[np.arange(n)] * 3))
        na, holds, verdicts = np.zeros((n, n, n), bool), np.zeros((n, n, n), bool), {}
        for triple in np.ndindex(n, n, n):
            key = int(keys[triple])
            if key not in verdicts:
                verdicts[key] = holds_bruteforce(LinearGroupoid(n, *triple), entry.identity).verdict
            na[triple] = verdicts[key] is Verdict.NOT_APPLICABLE
            holds[triple] = verdicts[key] is Verdict.HOLDS
        cubes[entry.id, n] = na, holds
    return cubes


@pytest.mark.parametrize("small_block", [False, True])
def test_composed_cubes_equal_per_class_cubes(monkeypatch, class_cubes, small_block):
    # At a modulus with two distinct prime factors the sweep's verdicts are
    # the worst of its prime-power factors' (see _FACTORS), and it makes no
    # oracle call at n; they must equal, on every triple, the cube of single
    # checks, one per class.  Every seventh triple is asked for first, then
    # every triple, with the law's memo kept: the second call checks only
    # the classes the first did not need, so no class is checked twice.
    # With engine.BLOCK = 64 and groupoid.BLOCK = 0 the factors' classes
    # are checked 8 first triples at a time, on stacks of one.
    if small_block:
        monkeypatch.setattr(engine, "BLOCK", 64)
        monkeypatch.setattr(groupoid, "BLOCK", 0)
    oracle, checked = engine.holds_bruteforce, []
    monkeypatch.setattr(engine, "holds_bruteforce",
                        lambda g, ident, *args, **kw: checked.append((ident, g.triple()))
                        or oracle(g, ident, *args, **kw))
    op_tables.cache_clear()
    seen = set()
    try:
        for entry, n in _COMPOSITE:
            ranks, before = {}, len(checked)
            want_na, want_holds = (cube.ravel() for cube in class_cubes[entry.id, n])
            for admitted in (np.arange(0, n**3, 7), np.arange(n**3)):
                na, holds = engine._verdicts(entry.identity, n, admitted, engine.DEFAULT_CAP,
                                             ranks)
                assert (na == want_na[admitted]).all(), (entry.id, n)
                assert (holds == want_holds[admitted]).all(), (entry.id, n)
            assert sorted(ranks) == sorted(_FACTORS[n])
            assert len(set(checked[before:])) == len(checked) - before, (entry.id, n)
            seen.update(zip(na.tolist(), holds.tolist()))
    finally:
        op_tables.cache_clear()
    assert {triple[0] for _, triple in checked} == {2, 3, 4, 5}
    assert seen == {(True, False), (False, True), (False, False)}


def test_crosscheck_reports_do_not_depend_on_workers_or_block(monkeypatch):
    # l_saip is NA-heavy and reads lam (scanned from mul through e_lam); cm_7
    # has 4 variables
    op_tables.cache_clear()
    selected = [(get_entry(i), get_entry(i).rows) for i in ("l_saip", "cm_7")]
    n_values = list(range(2, 9))

    def reports(workers):
        return [r.to_dict() for r in engine.crosscheck_rows(selected, n_values,
                                                            engine.DEFAULT_CAP, workers)]

    one = reports(1)
    assert any(r["na_excluded"] for r in one)
    assert reports(2) == one  # workers changes no byte
    monkeypatch.setattr(groupoid, "BLOCK", 0)  # one-groupoid stacks of int8 tables
    assert reports(1) == one


def test_class_sweep_keeps_every_verdict(oracle_up_to_6):
    # The sweep checks one groupoid per isomorphism class and gives its
    # verdict to the class.  Against a row that admits every triple and
    # claims the law, each (law, n) task's mismatches must be exactly the
    # triples on which a single check fails, in order, and its NA count
    # that of single checks.
    laws = [e for e in catalog_entries() if e.identity is not None]
    for n in range(2, 7):
        reports = engine.crosscheck_rows([(entry, [engine._UNIVERSAL]) for entry in laws], [n],
                                         engine.DEFAULT_CAP, 1)
        for entry, report in zip(laws, reports):
            verdicts = [oracle_up_to_6[entry.id, (n, *t)].verdict for t in np.ndindex(n, n, n)]
            fails = [t for t, v in zip(np.ndindex(n, n, n), verdicts) if v is Verdict.FAILS]
            assert [m.to_list() for m in report.mismatches] == \
                [[n, *t, True, "fails"] for t in fails], (entry.id, n)
            assert report.na_excluded == verdicts.count(Verdict.NOT_APPLICABLE), (entry.id, n)
            assert report.checked == n**3 - report.na_excluded


def test_sweep_checks_only_the_classes_its_admitted_triples_need(monkeypatch):
    # Each oracle call of a sweep is on the first triple of a class, at a
    # prime power q, that some admitted triple at a swept multiple n of q
    # (n itself included, q and n // q coprime) reduces to mod q, and each
    # such class is checked once per law.  Over n = 2..12 that makes no
    # call at 6, 10 or 12, and fewer calls than checking every class at
    # every prime power (30,718).
    oracle, calls = engine.holds_bruteforce, []
    monkeypatch.setattr(engine, "holds_bruteforce", lambda g, ident, *args, **kw: (
        calls.append((ident, g.triple())) or oracle(g, ident, *args, **kw)))
    n_values = list(range(2, 13))
    crosscheck_all(n_values)
    needed = Counter()  # two entries may share a law, and each checks it
    for entry in catalog_entries():
        if entry.identity is None:
            continue
        firsts = set()
        for n in n_values:
            masks = [row_sweep_mask(row, n) for row in entry.rows
                     if row.modulus_kind is not ModulusKind.PRIME_P or is_prime(n)]
            if not masks:
                continue
            a, b, c = np.unravel_index(np.flatnonzero(np.any(masks, axis=0)), (n, n, n))
            for q in range(2, n + 1):
                primes = [p for p in range(2, q + 1) if q % p == 0 and is_prime(p)]
                if n % q == 0 and gcd(q, n // q) == 1 and len(primes) == 1:
                    slots = np.unique(groupoid.affine_class(q, a % q, b % q, c % q))
                    firsts.update((entry.identity, (q, *t))
                                  for t in zip(*np.unravel_index(slots, (q, q, q))))
        needed.update(firsts)
    assert Counter(calls) == needed
    assert len(calls) < 30_718
    assert not {triple[0] for _, triple in calls} & {6, 10, 12}


def _cause_builds(monkeypatch) -> Counter:
    """Count the calls that build a cause: engine._assignment (a
    counterexample dict, or the assignment an NA reason is read at),
    engine._na_reason, and the scalar termlang.evaluate it calls."""
    calls = Counter()
    for owner, name in ((engine, "_assignment"), (engine, "_na_reason"), (termlang, "evaluate")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def _eager(g, ident, undefined, failing) -> CheckOutcome:
    """The brute-force outcome with its cause built at once, from the
    indices of the first undefined and the first failing assignment."""
    if undefined >= 0:
        env = engine._assignment(ident, g.n, undefined)
        return CheckOutcome(Verdict.NOT_APPLICABLE, Method.BRUTE_FORCE,
                            na_reason=engine._na_reason(ident, env, g))
    if failing >= 0:
        return CheckOutcome(Verdict.FAILS, Method.BRUTE_FORCE,
                            counterexample=engine._assignment(ident, g.n, failing))
    return CheckOutcome(Verdict.HOLDS, Method.BRUTE_FORCE)


def test_no_counterexample_is_built_until_read(monkeypatch):
    # A sweep and a witness search read only verdicts: over every law at
    # n = 2..13 neither builds a counterexample dict.  Each NA reason is built
    # at once, from its one assignment.  Once read, each outcome equals the
    # one built at once from the same indices.
    op_tables.cache_clear()
    oracle, checked = engine.holds_bruteforce, []

    def recorded(g, ident, cap, tables=None):
        outcome = oracle(g, ident, cap, tables=tables)
        stack, index = tables or (op_tables(g.triple()), 0)
        checked.append((g, ident, stack.flags[ident][index], outcome))
        return outcome

    monkeypatch.setattr(engine, "holds_bruteforce", recorded)
    calls = _cause_builds(monkeypatch)
    n_values = list(range(2, 14))
    crosscheck_all(n_values, workers=1)
    for entry in catalog_entries():
        if entry.identity is not None and entry.rows:
            search_witnesses(entry, entry.rows[0], n_values, limit=3)
    verdicts = Counter(outcome.verdict for *_, outcome in checked)
    assert verdicts[Verdict.FAILS] > 8_000 and verdicts[Verdict.NOT_APPLICABLE] > 2_000
    assert calls["_assignment"] == calls["_na_reason"] == verdicts[Verdict.NOT_APPLICABLE]
    got = [outcome.to_dict() for *_, outcome in checked]
    assert calls["_assignment"] == verdicts[Verdict.NOT_APPLICABLE] + verdicts[Verdict.FAILS]
    assert calls["_na_reason"] == verdicts[Verdict.NOT_APPLICABLE]
    assert got == [_eager(g, ident, *flags).to_dict() for g, ident, flags, _ in checked]


def test_a_pending_counterexample_reads_as_a_built_one(monkeypatch):
    # An outcome whose counterexample is built on first read compares,
    # hashes and prints as one built with it, and as the frozen dataclass of
    # the four fields that CheckOutcome was; it builds its counterexample
    # once.  An NA outcome carries its reason from the start.
    from dataclasses import field, make_dataclass

    frozen = make_dataclass("CheckOutcome", [
        ("verdict", Verdict), ("method", Method),
        ("counterexample", dict, field(default=None)), ("na_reason", str, field(default=None))],
        frozen=True)
    op_tables.cache_clear()
    calls = _cause_builds(monkeypatch)
    brute = Method.BRUTE_FORCE
    fails = [holds_bruteforce(LinearGroupoid(6, 1, 4, 5), get_entry("commutative").identity)
             for _ in range(4)]
    g = LinearGroupoid(6, 2, 4, 2)
    na = [holds_bruteforce(g, get_entry("r_cip_1").identity) for _ in range(4)]
    holds = holds_bruteforce(g, get_entry("abel_grassman").identity)
    assert (calls["_assignment"], calls["_na_reason"]) == (4, 4)
    cases = [(fails, {"counterexample": {"x": 0, "y": 1}}),
             (na, {"na_reason": "right inverse undefined (NonUnique) on (6, 2, 4, 2)"})]
    for (eq, text, as_dict, hashed), cause in cases:
        verdict = eq.verdict
        built = CheckOutcome(verdict, brute, **cause)
        assert eq == built and built == eq
        assert repr(text) == repr(built) == repr(frozen(verdict, brute, **cause))
        assert as_dict.to_dict() == built.to_dict()
        if "counterexample" in cause:
            with pytest.raises(TypeError):
                hash(hashed)
        else:
            assert hash(hashed) == hash(built) == hash(frozen(verdict, brute, **cause))
    assert repr(holds) == repr(frozen(Verdict.HOLDS, brute))
    assert hash(holds) == hash(frozen(Verdict.HOLDS, brute))
    # each of the four pending outcomes built its counterexample once, on its first read
    assert (calls["_assignment"], calls["_na_reason"]) == (8, 4)
    assert fails[0].counterexample is fails[0].counterexample
    assert na[0].na_reason is na[0].na_reason
    assert (calls["_assignment"], calls["_na_reason"]) == (8, 4)
    # causes that differ: another counterexample, another reason, another verdict
    other = holds_bruteforce(LinearGroupoid(6, 0, 1, 2), get_entry("idempotent").identity)
    assert other != CheckOutcome(Verdict.FAILS, brute, counterexample={"x": 0})
    assert other == CheckOutcome(Verdict.FAILS, brute, counterexample={"x": 1})
    assert na[0] != CheckOutcome(Verdict.NOT_APPLICABLE, brute, na_reason="undefined subterm")
    assert fails[0] != na[0] != holds != CheckOutcome(Verdict.HOLDS, Method.SYMBOLIC)
    with pytest.raises(AttributeError):
        fails[0].verdict = Verdict.HOLDS
    with pytest.raises(AttributeError):
        na[0].na_reason = None
