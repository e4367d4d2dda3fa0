"""The benchmark's tracer wraps linquas functions by name; a refactor that
drops one of those names must fail here, not in `perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

from linquas import engine
from linquas.catalog import get_entry
from linquas.groupoid import LinearGroupoid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls_on_current_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays untouched
    import tracer
    sys.modules.pop("tracer")  # the module stays usable; its generic name does not linger

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
