"""Spans and counts recorded around the calls into linquas's modules.

Nothing inside `src/` is changed: each public function is replaced, for the
length of one traced pass, at the name its caller looks it up by (engine
imports `op_tables` and `row_sweep_admits` by name, so those are wrapped in
`linquas.engine`; `ConditionPredicate.holds` is a method, so it is wrapped
on the class).  Every span has a name, a start, an end and a parent; spans
stay in memory and are written out once the pass is over.
"""

from __future__ import annotations

import gzip
import itertools
import json
import time
from collections import Counter
from pathlib import Path

from linquas import catalog, engine, groupoid, termlang
from linquas.termlang import NotApplicable, Var

# (owner, attribute, span name); the benchmark calls the request-level
# functions through `engine.<name>`, so wrapping them there makes them roots.
SPANNED = (
    (engine, "crosscheck_all", "engine.crosscheck_all"),
    (engine, "search_witnesses", "engine.search_witnesses"),
    (engine, "classify", "engine.classify"),
    (engine, "holds_bruteforce", "engine.holds_bruteforce"),
    (engine, "holds_symbolic", "engine.holds_symbolic"),
    (engine, "op_tables", "groupoid.op_tables"),
    (engine, "row_sweep_admits", "catalog.row_sweep_admits"),
    (catalog.ConditionPredicate, "holds", "catalog.condition"),
    (termlang, "expand_affine", "termlang.expand_affine"),
    (termlang, "evaluate", "termlang.evaluate"),
)
# Recursive functions look themselves up through the same global, so only
# the outermost call of each makes a span.
RECURSIVE = {"termlang.expand_affine", "termlang.evaluate"}
# Too cheap for a span each (about a microsecond); counted only.
COUNTED = (
    (groupoid, "solve_linear", "modring.calls"),
    (termlang, "inverse_mod", "modring.calls"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []            # [name, start_ns, end_ns, parent]
        self.counts: Counter = Counter()
        self.oracle_calls: list = []     # (identity, triple, outcome)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list = []
        self._cache0 = None

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._replace(owner, attr, self._spanned(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self._counted(name, getattr(owner, attr)))
        self._cache0 = groupoid.op_tables.cache_info()

    def uninstall(self) -> None:
        info = groupoid.op_tables.cache_info()
        self.counts["op_tables.hits"] = info.hits - self._cache0.hits
        self.counts["op_tables.misses"] = info.misses - self._cache0.misses
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        recursive = name in RECURSIVE
        is_oracle = name == "engine.holds_bruteforce"
        is_admit = name == "catalog.row_sweep_admits"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if recursive and active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[name] -= 1
            if is_oracle:
                g = args[0] if args else kwargs["g"]
                ident = args[1] if len(args) > 1 else kwargs["ident"]
                self.oracle_calls.append((ident, g.triple(), result))
            elif is_admit:
                counts["row_sweep_admits.admitted"] += bool(result)
                if active["engine.search_witnesses"]:
                    counts["search_witnesses.triples_visited"] += 1
            return result
        return wrapper

    # --- results -------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds (duration minus the time
        covered by child spans) for each span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - covered) / 1e9
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: id, name, start_ns, end_ns, parent,
        request (the root span every span of one request shares)."""
        root: list[int] = []
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                root.append(sid if parent < 0 else root[parent])
                handle.write(json.dumps([sid, name, start, end, parent, root[sid]]))
                handle.write("\n")


def term_nodes(term) -> int:
    if isinstance(term, Var):
        return 1
    if hasattr(term, "child"):
        return 1 + term_nodes(term.child)
    return 1 + term_nodes(term.left) + term_nodes(term.right)


def useful_assignments(ident, triple, outcome) -> int:
    """Assignments up to and including the first counterexample or the first
    undefined value, in the oracle's lexicographic order; all n**k when the
    law holds."""
    n = triple[0]
    k = len(ident.variables)
    if outcome.verdict is engine.Verdict.HOLDS:
        return n ** k
    if outcome.verdict is engine.Verdict.FAILS:
        index = 0
        for name in ident.variables:
            index = index * n + outcome.counterexample[name]
        return index + 1
    g = groupoid.LinearGroupoid(*triple)
    for index, values in enumerate(itertools.product(range(n), repeat=k)):
        env = dict(zip(ident.variables, values))
        if any(isinstance(termlang.evaluate(side, env, g), NotApplicable)
               for side in (ident.lhs, ident.rhs)):
            return index + 1
    raise AssertionError(f"oracle said not_applicable on {triple} but every "
                         "assignment is defined")


def oracle_stats(calls: list) -> dict[str, float]:
    """Exact counts over the recorded holds_bruteforce calls.  Call after
    uninstall: the not_applicable scan uses termlang.evaluate."""
    nodes: dict[int, int] = {}
    assignments = node_evals = useful = 0
    verdicts: Counter = Counter()
    distinct = set()
    useful_cache: dict = {}
    for ident, triple, outcome in calls:
        k = len(ident.variables)
        size = triple[0] ** k
        if id(ident) not in nodes:
            nodes[id(ident)] = term_nodes(ident.lhs) + term_nodes(ident.rhs)
        assignments += size
        node_evals += size * nodes[id(ident)]
        verdicts[outcome.verdict.value] += 1
        key = (ident, triple)
        distinct.add(key)
        if key not in useful_cache:
            useful_cache[key] = useful_assignments(ident, triple, outcome)
        useful += useful_cache[key]
    calls_n = len(calls)
    return {
        "calls": calls_n,
        "assignments": assignments,
        "node_evals": node_evals,
        "distinct_share": len(distinct) / calls_n if calls_n else 0.0,
        "useful_share": useful / assignments if assignments else 0.0,
        "verdicts": {v: verdicts[v] for v in ("holds", "fails", "not_applicable")},
    }
