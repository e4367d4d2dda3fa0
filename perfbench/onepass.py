#!/usr/bin/env python3
"""One pass of a workload, in a fresh interpreter.

Reads the pass spec (JSON) on stdin and prints one JSON result line on
stdout.  The interpreter is new for every pass, so the op_tables, grid and
catalog caches start cold, as they do for each CLI invocation.  Only the
standard library is imported before the set-up clock starts.

Order inside a pass: set-up (timed), the workload (timed; traced when asked),
resource usage, then the output checks, which are never timed or traced.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def set_up() -> dict[str, float]:
    """CLI cold start: import numpy, import linquas.cli, build the catalog."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import linquas.cli  # noqa: F401
    t2 = time.perf_counter()
    from linquas.catalog import catalog_entries
    catalog_entries()
    t3 = time.perf_counter()
    import linquas
    if Path(linquas.__file__).resolve().parent != ROOT / "src" / "linquas":
        raise SystemExit(f"imported linquas from {linquas.__file__}, not from {ROOT / 'src'}")
    return {"setup_s": t3 - t0, "numpy_import_s": t1 - t0, "import_s": t2 - t0,
            "build_s": t3 - t2, "numpy": numpy.__version__}


# The reference unit's term: x(yz) = (xy)(xz), as nested (op, left, right).
REFERENCE_LHS = ("*", "x", ("*", "y", "z"))
REFERENCE_RHS = ("*", ("*", "x", "y"), ("*", "x", "z"))
REFERENCE_GROUPOIDS = ((5, 2, 3, 1), (7, 3, 5, 2), (6, 1, 5, 4), (9, 4, 2, 7))


def _table_eval(term, env, mul):
    if isinstance(term, str):
        return env[term]
    return mul[_table_eval(term[1], env, mul), _table_eval(term[2], env, mul)]


def _affine(term, n: int, a: int, b: int, c: int):
    if isinstance(term, str):
        return {term: 1}, 0
    (left, left0), (right, right0) = (_affine(side, n, a, b, c) for side in term[1:])
    coeffs = {v: a * k % n for v, k in left.items()}
    for v, k in right.items():
        coeffs[v] = (coeffs.get(v, 0) + b * k) % n
    return coeffs, (a * left0 + b * right0 + c) % n


def reference_unit() -> float:
    """Time one fixed unit of work, about a millisecond, written here and
    not taken from linquas, so that no change to linquas can move it: for
    four small linear groupoids, a multiplication table, a row inversion,
    a term evaluated over every assignment by table lookups, and symbolic
    affine expansions, the kinds of work linquas's oracle and symbolic
    path do.  Timed again and again through a `queries` session, it tells
    how fast the machine runs at that moment for that kind of work."""
    import numpy
    t0 = time.perf_counter()
    for n, a, b, c in REFERENCE_GROUPOIDS:
        idx = numpy.arange(n)
        mul = (a * idx[:, None] + b * idx[None, :] + c) % n
        numpy.argsort(mul, axis=1, kind="stable")
        env = dict(zip("xyz", (g.ravel() for g in numpy.meshgrid(idx, idx, idx, indexing="ij"))))
        (_table_eval(REFERENCE_LHS, env, mul) != _table_eval(REFERENCE_RHS, env, mul)).any()
        for _ in range(25):
            _affine(REFERENCE_LHS, n, a, b, c) == _affine(REFERENCE_RHS, n, a, b, c)
    return time.perf_counter() - t0


def memory_reference_unit() -> float:
    """Time one fixed unit of work like a `large_n` check in small: a
    1000 x 1000 multiplication table, two grids of 10^6 values and a term
    evaluated on them by table lookups, about 30 ms.  Each array is fresh,
    so the unit is bound by memory and page faults as the check is."""
    import numpy
    t0 = time.perf_counter()
    n = 1000
    idx = numpy.arange(n)
    mul = (3 * idx[:, None] + 7 * idx[None, :] + 1) % n
    x, y = numpy.repeat(idx, n), numpy.tile(idx, n)
    (mul[x, mul[x, y]] != mul[mul[x, x], y]).any()
    return time.perf_counter() - t0


class Calibration:
    """The times of one reference unit through a pass, and the time spent
    on them."""

    def __init__(self, unit) -> None:
        self.unit = unit
        self.times: list[float] = []
        self.spent = 0.0

    def __call__(self, units: int = 5) -> None:
        t0 = time.perf_counter()
        self.times.extend(self.unit() for _ in range(units))
        self.spent += time.perf_counter() - t0

    def record(self) -> dict:
        return {"reference_unit": self.unit.__name__, "reference_s": self.times}


def peak_rss_mb() -> float:
    """The pass process plus its largest reaped child (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def find_row(entry, table: int, variant: int):
    return next(r for r in entry.rows if r.table_number == table and r.variant == variant)


# --- crosscheck ----------------------------------------------------------------


def run_crosscheck(spec: dict, workers: int):
    from linquas import engine
    t0 = time.perf_counter()
    reports = engine.crosscheck_all(spec["n_values"], spec["laws"], spec["cap"], workers)
    elapsed = time.perf_counter() - t0
    return elapsed, reports, {"latencies": [elapsed]}


def check_crosscheck(spec: dict, reports) -> list[tuple[int, str]]:
    """Each row's checked, NA and mismatch counts and mismatch digest must
    equal its pin."""
    pins_file = ROOT / "tests" / "data" / "crosscheck_pins.json"
    pins = {(p["entry"], p["table"], p["variant"]): p
            for p in json.loads(pins_file.read_text(encoding="utf-8"))["rows"]}
    from linquas.catalog import get_entry
    expected_rows = sum(len(get_entry(law).rows) for law in spec["laws"])
    failures = []
    if len(reports) != expected_rows:
        failures.append((-1, f"{len(reports)} reports for {expected_rows} rows"))
    for index, report in enumerate(reports):
        pin = pins.get((report.entry_id, report.table_number, report.variant))
        mismatches = [m.to_list() for m in report.mismatches]
        digest = hashlib.sha256(json.dumps(mismatches, sort_keys=True).encode()).hexdigest()
        got = (report.checked, report.na_excluded, len(mismatches), digest)
        want = (None if pin is None else
                (pin["checked"], pin["na_excluded"], pin["mismatch_count"],
                 pin["mismatch_digest"]))
        if got != want:
            failures.append((index, f"{report.row_label} {report.entry_id}: got {got[:3]}, "
                                    f"pin {want and want[:3]}"))
    return failures


# --- queries ---------------------------------------------------------------------


def run_queries(spec: dict, workers: int):
    from linquas import engine
    from linquas.catalog import get_entry
    from linquas.groupoid import LinearGroupoid
    n_values, cap = spec["n_values"], spec["cap"]

    def resolve(req):  # before the clock starts: parsing is the client's work
        if req[0] == "classify":
            return "classify", LinearGroupoid(*req[1:])
        entry = get_entry(req[1])
        return "search", (entry, find_row(entry, req[2], req[3]))

    calls = [resolve(req) for req in spec["requests"]]
    tail = [resolve(req) for req in spec["tail"]]
    results, latencies, tail_s = [], [], []
    clock = time.perf_counter
    calibrate = Calibration(reference_unit)
    calibrate()
    spent = calibrate.spent
    t0 = clock()
    for index, (kind, arg) in enumerate(calls, 1):
        start = clock()
        if kind == "search":
            out = engine.search_witnesses(arg[0], arg[1], n_values, 1, cap)
        else:
            out = engine.classify(arg, cap)
        latencies.append(clock() - start)
        results.append(out)
        if index % 100 == 0:
            calibrate(1)
    elapsed = clock() - t0 - (calibrate.spent - spent)
    calibrate()
    # the pinned empty cells, after the timed session and outside `wall_s`
    for _, (entry, row) in tail:
        start = clock()
        results.append(engine.search_witnesses(entry, row, n_values, 1, cap))
        tail_s.append(clock() - start)
    return elapsed, (calls + tail, results), {"latencies": latencies, "tail_s": tail_s,
                                              **calibrate.record()}


def _symbolic_first_witness(entry, row, n_values):
    """The first admitted triple, in search order, on which holds_symbolic
    says the law holds; the symbolic path shares no algebra with the oracle."""
    from linquas import engine
    from linquas.catalog import ModulusKind, row_sweep_admits
    from linquas.groupoid import LinearGroupoid
    from linquas.modring import is_prime
    for n in n_values:
        if row.modulus_kind is ModulusKind.PRIME_P and not is_prime(n):
            continue
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    g = LinearGroupoid(n, a, b, c)
                    if (row_sweep_admits(row, g) and engine.holds_symbolic(
                            g, entry.identity).verdict is engine.Verdict.HOLDS):
                        return [n, a, b, c]
    return None


def check_queries(spec: dict, output) -> list[tuple[int, str]]:
    """Pinned cells must equal witness_pins.json; every search answer must
    equal the first witness the symbolic path finds (so a witness passes
    holds_symbolic and the row's hypothesis, and an empty answer is
    confirmed); every classify verdict is re-checked with holds_bruteforce."""
    from linquas import engine
    from linquas.catalog import catalog_entries, get_entry
    calls, results = output
    pins_file = ROOT / "tests" / "data" / "witness_pins.json"
    pins = {(p["entry"], p["table"], p["variant"]): p["witness"]
            for p in json.loads(pins_file.read_text(encoding="utf-8"))["cells"]}
    expected_ids = sorted(e.id for e in catalog_entries() if e.identity is not None)
    symbolic: dict = {}
    oracle: dict = {}
    failures = []
    searched = {(entry.id, row.table_number, row.variant)
                for kind, arg in calls if kind == "search" for entry, row in [arg]}
    failures += [(-1, f"pinned cell {key} was not searched") for key in sorted(pins.keys() - searched)]
    for index, ((kind, arg), out) in enumerate(zip(calls, results)):
        if kind == "search":
            entry, row = arg
            got = [out[0].n, out[0].a, out[0].b, out[0].c] if out else None
            key = (entry.id, row.table_number, row.variant)
            if key in pins and pins[key] != got:
                failures.append((index, f"search {key}: got {got}, pinned {pins[key]}"))
            if key not in symbolic:
                symbolic[key] = _symbolic_first_witness(entry, row, spec["n_values"])
            if symbolic[key] != got:
                failures.append((index, f"search {key}: got {got}, symbolic path {symbolic[key]}"))
            continue
        g = arg
        if [entry_id for entry_id, _ in out] != expected_ids:
            failures.append((index, f"classify {g.triple()}: {len(out)} entries, "
                                    f"expected {len(expected_ids)}"))
        for entry_id, outcome in out:
            key = (entry_id, g.triple())
            if key not in oracle:
                oracle[key] = engine.holds_bruteforce(
                    g, get_entry(entry_id).identity, spec["cap"]).verdict
            if oracle[key] is not outcome.verdict:
                failures.append((index, f"classify {g.triple()} {entry_id}: "
                                        f"{outcome.verdict.value} but oracle {oracle[key].value}"))
    return failures


# --- large_n ---------------------------------------------------------------------


def run_large_n(spec: dict, workers: int):
    from linquas import engine
    from linquas.catalog import get_entry
    from linquas.groupoid import LinearGroupoid
    calls = [(LinearGroupoid(c["n"], c["a"], c["b"], c["c"]), get_entry(c["law"]).identity)
             for c in spec["checks"]]
    outcomes, latencies = [], []
    clock = time.perf_counter
    calibrate = Calibration(memory_reference_unit)
    for g, ident in calls:
        calibrate(3)
        start = clock()
        outcomes.append(engine.holds_bruteforce(g, ident, spec["cap"]))
        latencies.append(clock() - start)
    calibrate(3)
    return sum(latencies), (calls, outcomes), {"latencies": latencies, **calibrate.record()}


def check_large_n(spec: dict, output) -> list[tuple[int, str]]:
    """Each verdict must equal the recorded one and holds_symbolic's, NA
    included; each counterexample must make the two sides differ under
    termlang.evaluate."""
    from linquas import engine, termlang
    calls, outcomes = output
    failures = []
    for index, (check, (g, ident), out) in enumerate(zip(spec["checks"], calls, outcomes)):
        label = f"{check['law']} {g.triple()}"
        symbolic = engine.holds_symbolic(g, ident).verdict.value
        if not out.verdict.value == check["expected"] == symbolic:
            failures.append((index, f"{label}: oracle {out.verdict.value}, recorded "
                                    f"{check['expected']}, symbolic {symbolic}"))
        if out.verdict is engine.Verdict.FAILS:
            lhs = termlang.evaluate(ident.lhs, out.counterexample, g)
            rhs = termlang.evaluate(ident.rhs, out.counterexample, g)
            if not (isinstance(lhs, int) and isinstance(rhs, int) and lhs != rhs):
                failures.append((index, f"{label}: counterexample {out.counterexample} "
                                        f"gives {lhs}, {rhs}"))
        if out.verdict is engine.Verdict.NOT_APPLICABLE and not out.na_reason:
            failures.append((index, f"{label}: not_applicable without a reason"))
    return failures


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def digests_crosscheck(output) -> list[str]:
    return [_digest(report.to_dict()) for report in output]


def digests_queries(output) -> list[str]:
    calls, results = output
    return [_digest([w.to_dict() for w in out] if kind == "search"
                    else [[entry_id, outcome.to_dict()] for entry_id, outcome in out])
            for (kind, _), out in zip(calls, results)]


def digests_large_n(output) -> list[str]:
    return [_digest(out.to_dict()) for out in output[1]]


RUNNERS = {
    "crosscheck": (run_crosscheck, check_crosscheck, digests_crosscheck),
    "queries": (run_queries, check_queries, digests_queries),
    "large_n": (run_large_n, check_large_n, digests_large_n),
}


def main() -> int:
    spec = json.load(sys.stdin)
    result: dict = {"setup": set_up()}
    run, check, digests = RUNNERS[spec["workload"]]
    workers = spec["workers"] if spec["mode"] == "workers" else 1
    tracer = None
    if spec["mode"] == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        elapsed, output, extra = run(spec, workers)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(wall_s=elapsed, peak_rss_mb=peak_rss_mb(), workers=workers, **extra)
    result["output_digests"] = digests(output)
    result["attempted"] = len(result["output_digests"])
    result["failures"] = check(spec, output) if spec["check"] else []
    if tracer is not None:
        from tracer import oracle_stats
        result["layers"] = tracer.layer_times()
        result["counts"] = dict(tracer.counts)
        result["oracle"] = oracle_stats(tracer.oracle_calls)
        if spec.get("trace_out"):
            tracer.write(Path(spec["trace_out"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
