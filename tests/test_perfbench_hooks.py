"""The benchmark wraps linquas functions by name and calls the engine the way
`perfbench/onepass.py` does; a refactor that drops or reshapes one of those
names must fail here, not in a `perfbench/run.py` run."""

import json
import sys
from pathlib import Path

from linquas import engine
from linquas.catalog import get_entry
from linquas.groupoid import LinearGroupoid

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

    pins = {(p["entry"], p["table"], p["variant"]): p["witness"]
            for p in json.loads((DATA / "witness_pins.json").read_text())["cells"]}
    searches = [key for key, witness in pins.items() if witness][:3]
    spec = {"requests": [["search", *key] for key in searches]
            + [["classify", 6, 2, 4, 2], ["classify", 7, 3, 5, 2]],
            "tail": [], "n_values": n_values, "cap": cap}
    _, (calls, results), extra = onepass.run_queries(spec, 1)
    assert len(extra["latencies"]) == len(results) == 5
    for key, witnesses in zip(searches, results):
        assert [[w.n, w.a, w.b, w.c] for w in witnesses] == [pins[key]]
    for (_, g), verdicts in zip(calls[3:], results[3:]):
        assert all(outcome.verdict is engine.holds_bruteforce(g, get_entry(law).identity).verdict
                   for law, outcome in verdicts)
