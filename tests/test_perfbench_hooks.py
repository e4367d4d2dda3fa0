"""The benchmark wraps linquas functions by name and calls the engine the way
`perfbench/onepass.py` does; a refactor that drops or reshapes one of those
names must fail here, not in a `perfbench/run.py` run."""

import json
import re
import sys
from collections import Counter
from itertools import product
from math import gcd
from pathlib import Path

from linquas import engine
from linquas.catalog import ModulusKind, catalog_entries, get_entry, row_sweep_admits
from linquas.groupoid import LinearGroupoid
from linquas.modring import is_prime
from linquas.termlang import identity_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = Path(__file__).parent / "data"


def _perfbench_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    module = __import__(name)
    sys.modules.pop(name)  # the module stays usable; its generic name does not linger
    return module


def test_tracer_installs_and_uninstalls_on_current_modules(monkeypatch):
    tracer = _perfbench_module(monkeypatch, "tracer")
    hooks = tracer.SPANNED + tracer.COUNTED
    originals = [getattr(owner, attr) for owner, attr, _ in hooks]
    for (owner, attr, _), original in zip(hooks, originals):
        monkeypatch.setattr(owner, attr, original)  # restored even if install stops halfway
    t = tracer.Tracer()
    t.install()
    g = LinearGroupoid(6, 2, 4, 2)
    engine.classify(g)
    engine.holds_bruteforce(g, get_entry("r_cip_1").identity)
    t.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in hooks] == originals
    layers = t.layer_times()
    assert layers["engine.classify"]["calls"] == 1
    assert layers["engine.holds_bruteforce"]["calls"] == 1
    assert len(t.oracle_calls) == 1

    t = tracer.Tracer()
    t.install()
    engine.crosscheck_all([2, 3], ["idempotent"], 10**7, 1)  # as a traced pass runs it
    t.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in hooks] == originals
    # perfbench/run.py per_layer divides by node_evals, so a traced cross-check
    # that makes no holds_bruteforce call dies there; the [benchmark] change
    # that guards that division (ROADMAP item 1) removes this assertion.
    assert tracer.oracle_stats(t.oracle_calls)["node_evals"] > 0


def test_traced_crosscheck_calls_the_oracle_once_per_class(monkeypatch):
    # perfbench/tracer.py reads the per-layer oracle counts from the
    # holds_bruteforce calls it wraps; a sweep that batched them away would
    # leave a traced crosscheck run nothing to count.  The sweep reduces
    # each admitted triple mod each prime-power factor q of n and checks one
    # groupoid per isomorphism class there: x -> u*x + t, u a unit, maps
    # (q, a, b, c) onto (q, u*a - (b+c-1)*t, b, c), so it calls the oracle
    # on the first triple of each orbit of a that an admitted triple
    # reduces into, once per law and q, in order, when a task first needs
    # it; enumerated here for each law, over the rows swept at each n.  At
    # n = 6 it reads the classes at 2 and 3 and makes no call at 6.
    tracer = _perfbench_module(monkeypatch, "tracer")
    for owner, attr, _ in tracer.SPANNED + tracer.COUNTED:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    n_values, factors = [2, 3, 4, 6], {2: [2], 3: [3], 4: [4], 6: [2, 3]}
    t = tracer.Tracer()
    t.install()
    engine.crosscheck_all(n_values, cap=10**7, workers=1)
    t.uninstall()
    asked = []
    for entry in catalog_entries():
        if entry.identity is None:
            continue
        done = set()
        for n in n_values:
            rows = [row for row in entry.rows
                    if row.modulus_kind is not ModulusKind.PRIME_P or is_prime(n)]
            admitted = [abc for abc in product(range(n), repeat=3)
                        if any(row_sweep_admits(row, LinearGroupoid(n, *abc)) for row in rows)]
            for q in factors[n]:
                units = [u for u in range(q) if gcd(u, q) == 1]
                firsts = {(q, min((u * a - (b + c - 1) * s) % q for u in units for s in range(q)),
                           b % q, c % q) for a, b, c in admitted}
                asked.extend((entry.identity, first) for first in sorted(firsts - done))
                done |= firsts
    assert [(ident, triple) for ident, triple, _ in t.oracle_calls] == asked
    assert all(triple[0] != 6 for _, triple, _ in t.oracle_calls)
    direct = Counter(engine.holds_bruteforce(LinearGroupoid(*triple), ident).verdict.value
                     for ident, triple in asked)
    assert tracer.oracle_stats(t.oracle_calls)["verdicts"] == \
        {v: direct[v] for v in ("holds", "fails", "not_applicable")}


def test_term_nodes_counts_every_node_of_the_catalog_laws(monkeypatch):
    # perfbench/tracer.py walks terms by their .left, .right and .child fields
    # to count node_evals; count the nodes in the printed text instead
    tracer = _perfbench_module(monkeypatch, "tracer")
    seen = set()
    for entry in catalog_entries():
        if entry.identity is None:
            continue
        text = identity_text(entry.identity)
        tokens = re.findall(r"[a-z]+|[*\\/]", text)  # variables, unary words, ops
        seen.update(tokens)
        lhs, rhs = entry.identity.lhs, entry.identity.rhs
        assert tracer.term_nodes(lhs) + tracer.term_nodes(rhs) == len(tokens), text
    assert {"*", "\\", "/", "rho", "lam", "er", "el"} <= seen


def _queries_spec() -> tuple[dict, dict]:
    """The witness pins by (entry, table, variant), and a small `queries`
    pass over them: three searches with a pinned witness, two classifies."""
    pins = {(p["entry"], p["table"], p["variant"]): p["witness"]
            for p in json.loads((DATA / "witness_pins.json").read_text())["cells"]}
    searches = [key for key, witness in pins.items() if witness][:3]
    spec = {"requests": [["search", *key] for key in searches]
            + [["classify", 6, 2, 4, 2], ["classify", 7, 3, 5, 2]],
            "tail": [], "n_values": list(range(2, 13)), "cap": 10**7}
    return pins, spec


def test_traced_queries_call_the_oracle(monkeypatch):
    # perfbench/run.py per_layer divides by the oracle's node_evals, so a
    # traced `queries` pass whose searches made no holds_bruteforce call
    # would die there: searches call the oracle once per admitted triple,
    # even where its memo answers.
    tracer = _perfbench_module(monkeypatch, "tracer")
    onepass = _perfbench_module(monkeypatch, "onepass")
    for owner, attr, _ in tracer.SPANNED + tracer.COUNTED:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    t = tracer.Tracer()
    t.install()
    try:
        onepass.run_queries(_queries_spec()[1], 1)
    finally:
        t.uninstall()
    assert t.layer_times()["engine.holds_bruteforce"]["calls"] > 0
    assert tracer.oracle_stats(t.oracle_calls)["node_evals"] > 0


def test_benchmark_passes_run_on_current_engine(monkeypatch):
    onepass = _perfbench_module(monkeypatch, "onepass")
    n_values, cap = list(range(2, 13)), 10**7

    spec = {"laws": ["sade_right_keys", "left_alternative"], "n_values": n_values, "cap": cap}
    _, reports, _ = onepass.run_crosscheck(spec, 2)
    assert onepass.check_crosscheck(spec, reports) == []

    spec = {"checks": [{"law": "medial", "n": 12, "a": 1, "b": 5, "c": 7, "expected": "holds"},
                       {"law": "commutative", "n": 12, "a": 1, "b": 2, "c": 3,
                        "expected": "fails"},
                       {"law": "r_cip_1", "n": 6, "a": 2, "b": 4, "c": 2,
                        "expected": "not_applicable"}], "cap": cap}
    _, output, _ = onepass.run_large_n(spec, 1)
    assert [out.verdict.value for out in output[1]] == ["holds", "fails", "not_applicable"]
    assert onepass.check_large_n(spec, output) == []

    # the small queries pass searches every pinned cell, as the benchmark's
    # own output check (check_queries) requires, and it checks that pass:
    # each witness against the first one holds_symbolic finds, each
    # classify verdict against holds_bruteforce
    pins, spec = _queries_spec()
    spec = dict(spec, requests=[["search", *key] for key in pins] + spec["requests"][3:])
    _, (calls, results), extra = onepass.run_queries(spec, 1)
    assert len(extra["latencies"]) == len(results) == len(pins) + 2
    for key, witnesses in zip(pins, results):
        assert [[w.n, w.a, w.b, w.c] for w in witnesses] == ([pins[key]] if pins[key] else [])
    for (_, g), verdicts in zip(calls[len(pins):], results[len(pins):]):
        assert all(outcome.verdict is engine.holds_bruteforce(g, get_entry(law).identity).verdict
                   for law, outcome in verdicts)
    assert onepass.check_queries(spec, (calls, results)) == []


def test_oracle_stats_read_counterexamples_built_on_first_read(monkeypatch):
    # tracer.oracle_stats reads each fails outcome's counterexample
    # (useful_assignments) after the pass: the sweep's outcomes, whose
    # counterexamples are built only then, must give the useful share and
    # verdict counts that outcomes built whole by single checks give.
    tracer = _perfbench_module(monkeypatch, "tracer")
    for owner, attr, _ in tracer.SPANNED + tracer.COUNTED:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    t = tracer.Tracer()
    t.install()
    engine.crosscheck_all(list(range(2, 9)), cap=10**7, workers=1)
    t.uninstall()
    whole = []
    for ident, triple, _ in t.oracle_calls:
        out = engine.holds_bruteforce(LinearGroupoid(*triple), ident)
        whole.append((ident, triple, engine.CheckOutcome(out.verdict, out.method,
                                                         out.counterexample, out.na_reason)))
    traced, reference = tracer.oracle_stats(t.oracle_calls), tracer.oracle_stats(whole)
    assert 0 < traced["useful_share"] == reference["useful_share"] < 1
    assert traced["verdicts"] == reference["verdicts"]
    assert min(traced["verdicts"].values()) > 500
